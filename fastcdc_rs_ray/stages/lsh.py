"""LSH banding stage: signatures -> bands -> candidate edges.

b bands x r rows (default 32 x 4 = 128) over the MinHash signature; a band's
hash collides for two conversations iff their signatures agree on all r
components, so the candidate-pair probability follows the classic
(1 - (1 - j^r)^b) S-curve.

Scale design (the widest exchange of the pipeline — n_bands x corpus rows):

- **Lean rows**: two uint64 columns (band key, conv key).  A 64-bit key
  collision can only merge two unrelated groups (never drop an edge), and
  the signature-verification stage filters those — recall unaffected.
- **Range-sort exchange, not hash shuffle**: ``util.co_locate`` on
  ``band_key`` puts equal keys in one block with a task-based range sort
  (measured 4-6x cheaper than the aggregator-actor hash shuffle at every
  partition count).  Every sort mapper cuts at the same boundaries, so an
  equal-key run never spans two blocks, and per-block consecutive linking
  connects each run completely.
- **Skew (hot bands)**: a boilerplate band with 10^6 members goes whole
  to one sort reducer, which links it linearly (emission is O(n), never
  the O(n^2) of all pairs).  Candidate CONNECTIVITY is identical to
  emitting all pairs, but the hot band's block is as large as the band
  and one task links it; the paper's explicit hot-band salting, which
  would spread that work, is not implemented.  (Cluster assignments are
  identical too when verification is off or the candidates pass
  uniformly; with per-edge verification at a threshold, chain edges are
  a subset of all pairs, so a borderline group can verify differently
  than all-pairs emission would — the recall harness measures the
  end-to-end effect, >=0.99 at the reference config.  Chain edges are
  deterministic by (band_key, conv_key) ordering inside _link_block.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import co_locate, mix64

N_BANDS = 32
# retained for API compatibility: hot bands are not salted (see module
# docstring)
N_SALTS = 8


def conv_keys(conv_col) -> np.ndarray:
    """Deterministic u64 vertex key per conv_id.  All wide LSH exchanges
    move only fixed-width u64 columns (a string id column measured 16x
    slower through Ray's range/hash exchanges); the string id is re-attached
    after verification.  A key collision (~n^2/2^65: ~6e-7 at 5M convs)
    can only merge two conversations into one cluster."""
    from ..util import hash_str_array_u64

    return hash_str_array_u64(conv_col)


def sig_matrix(t: pa.Table) -> np.ndarray:
    """(g, n_perms) uint64 view of a signatures batch's ``minhash``
    fixed-size-list column."""
    col = t["minhash"].combine_chunks()
    return col.flatten().to_numpy().reshape(len(t), col.type.list_size)


def band_key_matrix(sig: np.ndarray, n_bands: int = N_BANDS) -> np.ndarray:
    """(g, n_perms) signature matrix -> (g, n_bands) uint64 band keys
    (chained mix over each band's r components + band id)."""
    g, n_perms = sig.shape
    if n_perms < n_bands or n_perms % n_bands:
        raise ValueError(
            f"n_perms ({n_perms}) must be a positive multiple of n_bands "
            f"({n_bands}); r = n_perms // n_bands rows per band would "
            f"otherwise silently drop signature components (r=0 would "
            f"collide every row in every band)")
    r = n_perms // n_bands
    key = np.empty((g, n_bands), dtype=np.uint64)
    for b in range(n_bands):
        acc = mix64(np.full(g, b, dtype=np.uint64))
        for j in range(r):
            acc = mix64(acc ^ sig[:, b * r + j])
        key[:, b] = acc
    return key


def bands_from_signatures(t: pa.Table, n_bands: int = N_BANDS) -> pa.Table:
    """signatures batch -> exploded band rows (band_key, conv_key)."""
    g = len(t)
    if g == 0:
        return pa.table(
            {
                "band_key": pa.array([], pa.uint64()),
                "conv_key": pa.array([], pa.uint64()),
            }
        )
    sig = sig_matrix(t)
    key = band_key_matrix(sig, n_bands)
    ck = conv_keys(t["conv_id"].combine_chunks())
    return pa.table(
        {
            "band_key": pa.array(key.reshape(-1), pa.uint64()),
            "conv_key": pa.array(np.repeat(ck, n_bands), pa.uint64()),
        }
    )


def _link_block(t: pa.Table) -> pa.Table:
    """Within one sorted block: consecutive-link equal-key neighbors.

    Rows are re-ordered by (band_key, conv_key) first: the range sort only
    orders by band_key, so ties within an equal-key run would otherwise
    follow arbitrary arrival order and the emitted chain edges would vary
    run to run (connectivity is order-independent, but downstream per-edge
    similarity verification is not)."""
    n = len(t)
    if n < 2:
        return pa.table(
            {"src": pa.array([], pa.uint64()), "dst": pa.array([], pa.uint64())}
        )
    kv = t["band_key"].combine_chunks().to_numpy()
    conv = t["conv_key"].combine_chunks().to_numpy()
    order = np.lexsort((conv, kv))
    kv, conv = kv[order], conv[order]
    link = np.flatnonzero(kv[1:] == kv[:-1])
    return pa.table(
        {
            "src": pa.array(conv[link], pa.uint64()),
            "dst": pa.array(conv[link + 1], pa.uint64()),
        }
    )


def candidate_edges(sig_ds, n_bands: int = N_BANDS, n_salts: int = N_SALTS,
                    num_partitions: int = 64):
    """signatures Dataset -> edges Dataset (range sort + per-block linking).

    ``n_salts``/``num_partitions`` are accepted for interface stability; the
    sort path needs neither.
    """
    bands = sig_ds.map_batches(
        lambda t: bands_from_signatures(t, n_bands),
        batch_format="pyarrow",
    )
    # 64 blocks, not the reader's count: the range exchange creates
    # in-blocks x out-blocks partition objects, so hundreds of input
    # blocks explode the object count (253s -> ~10s at 153M rows after
    # coalescing to 64)
    return co_locate(bands, "band_key", 64).map_batches(
        _link_block, batch_format="pyarrow", batch_size=None)
