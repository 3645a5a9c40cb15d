"""The flagship pipeline: transcripts -> near-duplicate cluster assignments.

    read transcripts                          (streaming blocks)
      -> assemble           [exchange #1: sort(conv_id), or pre-partitioned]
      -> chunk              (stateless map_batches; FastCDC v2020 kernel)
      -> minhash            (128 keyed-mix permutations, per-worker cache)
      -> bands              (u64 band_key x conv_key rows)
      -> sort(band_key) + per-block link                   [exchange #2]
      -> dedupe + verify    [signature-estimate Jaccard >= threshold]
      -> connected components (driver union-find | BSP actor hash-to-min)
      -> clusters (conv_id, cluster_id)

Every stage is a plain ``Dataset -> Dataset`` function, composable and
individually checkpointable (see state.checkpoint).

Vertex identity through the wide middle is the u64 ``conv_key`` (see
stages.lsh.conv_keys); conv_id strings are re-attached during
verification/translation, which only ever touches the (thin) candidate
endpoint set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..cdc import ChunkerConfig
from ..stages.assemble import assemble
from ..stages.chunk import DEFAULT_CONFIG, chunk
from ..stages.cc import connected_components_bsp, connected_components_driver
from ..stages.lsh import N_BANDS, N_SALTS, candidate_edges, conv_keys
from ..stages.minhash import N_PERMS, SHINGLE_K, minhash
from ..util import co_locate


def signatures_pipeline(
    transcripts_ds,
    cfg: ChunkerConfig | None = None,
    n_perms: int = N_PERMS,
    shingle_k: int = SHINGLE_K,
    seed: int = 7,
    num_partitions: int = 64,
    pre_partitioned: bool = False,
):
    conv = assemble(transcripts_ds, num_partitions=num_partitions,
                    pre_partitioned=pre_partitioned)
    chunks = chunk(conv, cfg or DEFAULT_CONFIG)
    return minhash(chunks, n_perms=n_perms, k=shingle_k, seed=seed)


def _pack_signatures(t: pa.Table, out_name: str) -> pa.Table:
    """minhash fixed_size_list<uint64> -> large_binary blob."""
    g = len(t)
    mh = t["minhash"].combine_chunks()
    nb = mh.type.list_size * 8
    values = np.ascontiguousarray(mh.flatten().to_numpy()).view(np.uint8)
    offs = np.arange(g + 1, dtype=np.int64) * nb
    packed = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), g, [None, pa.py_buffer(offs), pa.py_buffer(values)]
    )
    return pa.table({"conv_id": t["conv_id"], out_name: packed})


def _unpack_binary_u64(col, n_rows: int) -> np.ndarray:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64, count=n_rows + 1 + arr.offset)
    offs = offs[arr.offset : arr.offset + n_rows + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    width = int(offs[1] - offs[0]) if n_rows else 0
    idx = offs[:-1, None] + np.arange(width)
    return data[idx].view(np.uint64)


# --------------------------------------------------------------------------
# endpoint signature collection (shared by the driver verify/translate paths)
# --------------------------------------------------------------------------


def _collect_endpoints(sig_ds, endpoint_keys: np.ndarray):
    """One parallel filtered pass over signatures: for every row whose
    conv_key is in ``endpoint_keys``, fetch (conv_key, conv_id, low byte of
    each signature component).  Returns (keys_sorted, ids StringArray,
    sig_matrix uint8) driver-side, aligned to keys_sorted; bounded by the
    candidate endpoint count (~160 B per endpoint).

    The similarity estimator downstream compares component *low bytes*:
    equal components always match, unequal ones collide with p=1/256, so
    the estimate is J + (1-J)/256 — a +0.4% bias that can only widen the
    kept set (recall unaffected), for 8x less driver traffic."""
    import ray

    eps_sorted = np.sort(np.asarray(endpoint_keys, np.uint64))
    ref = ray.put(eps_sorted)

    def keep(t: pa.Table) -> pa.Table:
        eps = ray.get(ref)
        ck = conv_keys(t["conv_id"])
        pos = np.searchsorted(eps, ck)
        pos[pos == len(eps)] = 0
        sel = np.flatnonzero(eps[pos] == ck)
        sub = t.take(pa.array(sel, pa.int64()))
        mh = sub["minhash"].combine_chunks()
        P = mh.type.list_size
        lo_bytes = (mh.flatten().to_numpy().reshape(len(sub), P) & np.uint64(0xFF)).astype(np.uint8)
        offs = np.arange(len(sub) + 1, dtype=np.int64) * P
        sig8 = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(sub),
            [None, pa.py_buffer(offs), pa.py_buffer(np.ascontiguousarray(lo_bytes))],
        )
        return pa.table(
            {
                "conv_key": pa.array(ck[sel], pa.uint64()),
                "conv_id": sub["conv_id"],
                "sig8": sig8,
            }
        )

    keys_l, ids_l, sig_l = [], [], []
    for b in sig_ds.map_batches(keep, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        n = b.num_rows
        if n == 0:
            continue
        keys_l.append(b["conv_key"].combine_chunks().to_numpy())
        ids_l.append(b["conv_id"].combine_chunks())
        arr = b["sig8"].combine_chunks()
        offs = np.frombuffer(arr.buffers()[1], np.int64, count=n + 1 + arr.offset)
        offs = offs[arr.offset : arr.offset + n + 1]
        data = np.frombuffer(arr.buffers()[2], np.uint8)
        sig_l.append(data[offs[0] : offs[-1]].reshape(n, -1))
    if not keys_l:
        return (
            np.empty(0, np.uint64),
            pa.array([], pa.string()),
            np.empty((0, 1), np.uint8),
        )
    keys = np.concatenate(keys_l)
    ids = pa.concat_arrays(ids_l)
    sigm = np.vstack(sig_l)
    order = np.argsort(keys, kind="stable")
    return keys[order], ids.take(pa.array(order, pa.int64())), sigm[order]


def _dedupe_pairs(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction-normalize, drop self-pairs, distinct."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return lo, hi
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    first = np.concatenate([[True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
    return lo[first], hi[first]


def verify_edges_driver(edges_ds, sig_ds, threshold: float | None) -> pa.Table:
    """Candidate-set-sized fast path, fully vectorized:

    1. collect + dedupe the u64 edge list on the driver,
    2. fetch only the endpoints' signatures (one parallel filtered pass —
       the sole distributed step),
    3. one numpy compare per edge; emit surviving (src, dst) conv_id
       strings (re-attachment happens here for free).

    ``threshold=None`` skips the similarity test (pure translation).
    """
    src_l, dst_l = [], []
    for b in edges_ds.iter_batches(batch_format="pyarrow"):
        if b.num_rows:
            src_l.append(b["src"].combine_chunks().to_numpy())
            dst_l.append(b["dst"].combine_chunks().to_numpy())
    empty = pa.table(
        {"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())}
    )
    if not src_l:
        return empty
    lo, hi = _dedupe_pairs(np.concatenate(src_l), np.concatenate(dst_l))
    if len(lo) == 0:
        return empty
    endpoints = np.unique(np.concatenate([lo, hi]))
    keys, ids, sigm = _collect_endpoints(sig_ds, endpoints)
    if len(keys) == 0:
        return empty
    il = np.searchsorted(keys, lo)
    ih = np.searchsorted(keys, hi)
    il_ok = (il < len(keys)) & (keys[np.minimum(il, len(keys) - 1)] == lo)
    ih_ok = (ih < len(keys)) & (keys[np.minimum(ih, len(keys) - 1)] == hi)
    ok = il_ok & ih_ok
    if threshold is not None:
        sim = np.zeros(len(lo))
        okx = np.flatnonzero(ok)
        sim[okx] = (sigm[il[okx]] == sigm[ih[okx]]).mean(axis=1)
        ok &= sim >= threshold
    sel = np.flatnonzero(ok)
    return pa.table(
        {
            "src": ids.take(pa.array(il[sel], pa.int64())),
            "dst": ids.take(pa.array(ih[sel], pa.int64())),
        }
    )


# --------------------------------------------------------------------------
# scale fallback: range-sort tag-union verification (u64 edges in,
# conv_id-string edges out)
# --------------------------------------------------------------------------


def dedupe_edges(edges_ds, num_partitions: int = 16):
    """Distinct normalized (src, dst) u64 pairs via one range-sort
    exchange (``co_locate``)."""

    def local_distinct(t: pa.Table) -> pa.Table:
        n = len(t)
        if n == 0:
            return pa.table(
                {"src": pa.array([], pa.uint64()), "dst": pa.array([], pa.uint64())}
            )
        lo, hi = _dedupe_pairs(
            t["src"].combine_chunks().to_numpy(), t["dst"].combine_chunks().to_numpy()
        )
        return pa.table(
            {"src": pa.array(lo, pa.uint64()), "dst": pa.array(hi, pa.uint64())}
        )

    ded = edges_ds.map_batches(local_distinct, batch_format="pyarrow")
    return co_locate(ded, ["src", "dst"], num_partitions).map_batches(
        local_distinct, batch_format="pyarrow", batch_size=None)


def verify_edges_shuffle(edges_ds, sig_ds, threshold: float | None,
                         num_partitions: int = 32):
    """Keep candidate edges whose signature-estimated Jaccard (fraction of
    equal minhash components) >= threshold; emit conv_id string pairs.

    Two range-sort exchanges (``co_locate``), no ``Dataset.join`` (Ray's
    join finalize breaks on schema-less empty partitions): (1) endpoint
    rows and packed-signature rows are tag-unioned and co-located on
    conv_key, where each endpoint picks up its signature and id string;
    (2) the sig-carrying endpoint rows are co-located on (src, dst) so
    each edge's two halves meet."""

    def endpoint_rows(t: pa.Table) -> pa.Table:
        n = len(t)
        src = t["src"].combine_chunks().to_numpy()
        dst = t["dst"].combine_chunks().to_numpy()
        key = np.concatenate([src, dst])
        side = np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
        return pa.table(
            {
                "key": pa.array(key, pa.uint64()),
                "src": pa.array(np.concatenate([src, src]), pa.uint64()),
                "dst": pa.array(np.concatenate([dst, dst]), pa.uint64()),
                "side": pa.array(side, pa.int8()),
                "conv_id": pa.nulls(2 * n, pa.string()),
                "sig": pa.nulls(2 * n, pa.large_binary()),
            }
        )

    def sig_rows(t: pa.Table) -> pa.Table:
        packed = _pack_signatures(t, "sig")
        n = len(t)
        ck = conv_keys(t["conv_id"])
        return pa.table(
            {
                "key": pa.array(ck, pa.uint64()),
                "src": pa.nulls(n, pa.uint64()),
                "dst": pa.nulls(n, pa.uint64()),
                "side": pa.array(np.full(n, -1, np.int8), pa.int8()),
                "conv_id": packed["conv_id"],
                "sig": packed["sig"],
            }
        )

    mixed = edges_ds.map_batches(endpoint_rows, batch_format="pyarrow").union(
        sig_ds.map_batches(sig_rows, batch_format="pyarrow")
    )
    mixed = co_locate(mixed, "key", num_partitions)

    attach_schema = pa.schema(
        [
            ("src", pa.uint64()),
            ("dst", pa.uint64()),
            ("side", pa.int8()),
            ("conv_id", pa.string()),
            ("sig", pa.large_binary()),
        ]
    )

    def attach(t: pa.Table) -> pa.Table:
        # Pure Arrow/numpy join of endpoint rows to their (unique) sig row.
        # NEVER via pandas: the nullable uint64 src/dst columns would be
        # converted to float64, silently rounding full-range 64-bit keys
        # (anything above 2^53 loses its low bits).
        if len(t) == 0:
            return attach_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        side = t["side"].combine_chunks().to_numpy(zero_copy_only=False)
        is_sig = side == -1
        sig_rows = np.flatnonzero(is_sig)
        ep_rows = np.flatnonzero(~is_sig)
        sk = key[sig_rows]
        order = np.argsort(sk, kind="stable")
        sk_sorted = sk[order]
        pos = np.searchsorted(sk_sorted, key[ep_rows])
        ok = pos < len(sk_sorted)
        ok[ok] = sk_sorted[pos[ok]] == key[ep_rows][ok]  # inner join
        ep_take = pa.array(ep_rows[ok], pa.int64())
        sig_take = pa.array(sig_rows[order][pos[ok]], pa.int64())
        return pa.table(
            {
                "src": t["src"].combine_chunks().take(ep_take),
                "dst": t["dst"].combine_chunks().take(ep_take),
                "side": t["side"].combine_chunks().take(ep_take),
                "conv_id": t["conv_id"].combine_chunks().take(sig_take),
                "sig": t["sig"].combine_chunks().take(sig_take),
            }
        ).cast(attach_schema)

    halves = mixed.map_batches(attach, batch_format="pyarrow", batch_size=None)
    halves = co_locate(halves, ["src", "dst"], num_partitions)

    def est(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {"src": pa.array([], pa.string()), "dst": pa.array([], pa.string())}
        )
        n = len(t)
        if n < 2:
            return empty
        order = pc.sort_indices(
            t,
            sort_keys=[("src", "ascending"), ("dst", "ascending"), ("side", "ascending")],
        )
        t = t.take(order)
        src = t["src"].combine_chunks().to_numpy()
        dst = t["dst"].combine_chunks().to_numpy()
        side = t["side"].combine_chunks().to_numpy(zero_copy_only=False)
        same_edge = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        first = np.flatnonzero((side[:-1] == 0) & (side[1:] == 1) & same_edge)
        if len(first) == 0:
            return empty
        if threshold is not None:
            # THE estimator: fraction of equal component LOW BYTES — the
            # same statistic the driver path computes, so both verify paths
            # keep/drop identical borderline edges (a full-u64 compare here
            # would estimate J while the driver estimates J + (1-J)/256;
            # edges within 1/256 of the threshold would then differ by path)
            sig_all = _unpack_binary_u64(t["sig"], n)
            lo = (sig_all & np.uint64(0xFF)).astype(np.uint8)
            sim = (lo[first] == lo[first + 1]).mean(axis=1)
            first = first[sim >= threshold]
        ids = t["conv_id"].combine_chunks()
        return pa.table(
            {
                "src": ids.take(pa.array(first, pa.int64())),
                "dst": ids.take(pa.array(first + 1, pa.int64())),
            }
        )

    return halves.map_batches(est, batch_format="pyarrow", batch_size=None)


def verify_edges(edges_ds, sig_ds, threshold: float | None,
                 num_partitions: int = 32, driver_limit: int = 5_000_000):
    """u64 candidate edges -> verified conv_id-string edges.

    Driver numpy path while the candidate set is driver-sized (the common
    case: candidates are a thin slice of the corpus — ~200 MB of signatures
    per million endpoints); tag-union range-sort path beyond."""
    if driver_limit > 0 and edges_ds.count() <= driver_limit:
        import ray.data as rd

        return rd.from_arrow(verify_edges_driver(edges_ds, sig_ds, threshold))
    ded = dedupe_edges(edges_ds, num_partitions=max(4, num_partitions // 4))
    return verify_edges_shuffle(ded, sig_ds, threshold, num_partitions)


def signatures_checkpointed(
    transcripts_ds,
    root: str,
    cfg: ChunkerConfig | None = None,
    num_partitions: int = 16,
    group_size: int = 4,
    **kw,
):
    """The expensive half of the flagship pipeline (assemble -> chunk ->
    minhash), executed through the per-partition checkpoint runner: each
    conv_id hash bucket's signatures land in their own parquet directory
    with a manifest row {partition_id, rows, bytes, wall_s}; a re-run after
    a crash recomputes only the missing buckets (north rule: "resumable
    from checkpoint with per-partition lineage + metrics")."""
    from ..state.checkpoint import run_stage_checkpointed

    def stage(ds):
        return signatures_pipeline(ds, cfg=cfg, num_partitions=num_partitions, **kw)

    return run_stage_checkpointed(
        transcripts_ds,
        "signatures",
        root,
        key="conv_id",
        fn=stage,
        num_partitions=num_partitions,
        group_size=group_size,
    )


def neardup_clusters_from_signatures(
    sigs,
    n_bands: int = N_BANDS,
    num_partitions: int = 64,
    verify_threshold: float | None = 0.5,
    cc: str = "auto",
    verify_driver_limit: int = 5_000_000,
    n_perms: int = 128,
):
    """Resume-friendly tail of the flagship pipeline: clusters from a
    (possibly checkpoint-restored) signatures Dataset.  ``n_perms`` is only
    needed to type EMPTY checkpoint buckets (a non-empty block carries its
    width in its own offsets)."""
    _check_cc(cc)

    def fix_sig_type(t: pa.Table) -> pa.Table:
        # parquet round-trips fixed_size_list as plain list; restore it
        mh = t["minhash"].combine_chunks() if isinstance(t["minhash"], pa.ChunkedArray) else t["minhash"]
        if pa.types.is_fixed_size_list(mh.type):
            return t
        n = len(t)
        # empty bucket (resumed checkpoint): from_arrays rejects width 0,
        # so type it with the configured width
        w = int(np.diff(mh.offsets.to_numpy())[0]) if n else n_perms
        fixed = pa.FixedSizeListArray.from_arrays(mh.flatten(), w)
        return t.set_column(t.column_names.index("minhash"), "minhash", fixed)

    sigs = sigs.map_batches(fix_sig_type, batch_format="pyarrow").materialize()
    edges = candidate_edges(sigs, n_bands=n_bands,
                            num_partitions=num_partitions).materialize()
    edges = verify_edges(edges, sigs, verify_threshold,
                         num_partitions=max(8, num_partitions // 2),
                         driver_limit=verify_driver_limit)
    return _run_cc(cc, edges, sigs, num_partitions)


def neardup_clusters_distributed(transcripts_ds, **kw):
    """The flagship with every data-proportional stage forced DISTRIBUTED
    (verify via the tag-union range-sort path, connected components via
    the BSP actor hash-to-min rounds) — the configuration a multi-node
    cluster runs, where no stage's cost may grow with the corpus while
    staying on the driver.  `neardup_clusters`'s auto paths deliberately keep
    candidate-sized work driver-local because that is faster up to
    millions of edges on one box; this entry point is the weak-scaling /
    100 TB shape (and the scaling bench's subject).
    """
    kw.setdefault("verify_driver_limit", 0)
    kw.setdefault("cc", "distributed")
    return neardup_clusters(transcripts_ds, **kw)


# driver union-find is O(edges) driver memory; beyond this the BSP actor
# hash-to-min rounds take over.  On one box the driver is the faster of
# the two at every measured size (2M-vertex LSH-chain graph, 4-CPU
# session on one core: 3.3 s against 14.2 s for BSP;
# tools/measure_graph_crossover.py --op cc)
CC_DRIVER_EDGE_LIMIT = 50_000_000


def _check_cc(cc: str) -> None:
    if cc not in ("auto", "driver", "distributed"):
        raise ValueError(
            f"cc must be 'auto', 'driver' or 'distributed', got {cc!r}")


def _run_cc(cc: str, edges, sigs, num_partitions: int):
    _check_cc(cc)
    if cc == "auto":
        edges = edges.materialize()
        cc = "driver" if edges.count() <= CC_DRIVER_EDGE_LIMIT else "distributed"
    if cc == "driver":
        return connected_components_driver(edges, sigs)
    return connected_components_bsp(
        edges, sigs, n_shards=max(2, min(16, num_partitions // 4)))


def neardup_clusters(
    transcripts_ds,
    cfg: ChunkerConfig | None = None,
    n_perms: int = N_PERMS,
    shingle_k: int = SHINGLE_K,
    n_bands: int = N_BANDS,
    n_salts: int = N_SALTS,
    seed: int = 7,
    num_partitions: int = 64,
    verify_threshold: float | None = 0.5,
    cc: str = "auto",
    pre_partitioned: bool = False,
    verify_driver_limit: int = 5_000_000,
):
    """transcripts Dataset -> clusters Dataset (conv_id, cluster_id).

    ``cc="auto"`` picks driver union-find while the verified edge set is
    driver-sized (CC_DRIVER_EDGE_LIMIT) and the BSP actor hash-to-min
    rounds beyond — same self-selection discipline as verify_edges'
    driver_limit; ``cc="driver"`` and ``cc="distributed"`` (BSP) pin
    one."""
    _check_cc(cc)
    sigs = signatures_pipeline(
        transcripts_ds, cfg, n_perms, shingle_k, seed, num_partitions,
        pre_partitioned=pre_partitioned,
    ).materialize()  # reused by banding, verification and the member universe
    edges = candidate_edges(sigs, n_bands=n_bands, n_salts=n_salts,
                            num_partitions=num_partitions).materialize()
    # verify also dedupes and re-attaches conv_id strings; with
    # threshold=None it is a pure dedupe+translate
    edges = verify_edges(edges, sigs, verify_threshold,
                         num_partitions=max(8, num_partitions // 2),
                         driver_limit=verify_driver_limit)
    return _run_cc(cc, edges, sigs, num_partitions)


def representatives(clusters_ds, num_partitions: int = 16):
    """clusters (conv_id, cluster_id) -> kept representatives — the dedup
    ACTION for the near-dup tier (parallel to exact_dedup's first-wins and
    substring_clean's span cuts): one conversation per cluster, the
    lexicographically smallest conv_id, plus the cluster size.

    One keyed repartition on cluster_id, then a vectorized per-block
    group-min — output is one row per cluster, so every stage is
    partition-local and the operator scales with the cluster universe.
    Output: (conv_id, cluster_id, n_members).
    """
    import pyarrow.compute as pc

    ds = clusters_ds.repartition(num_blocks=num_partitions, keys=["cluster_id"])

    out_schema = pa.schema(
        [("conv_id", pa.string()), ("cluster_id", pa.string()),
         ("n_members", pa.int64())]
    )

    def per_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        order = pc.sort_indices(
            t, sort_keys=[("cluster_id", "ascending"), ("conv_id", "ascending")]
        )
        t = t.take(order)
        cl = t["cluster_id"].combine_chunks()
        n = len(t)
        neq = pc.not_equal(cl.slice(1), cl.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
        starts = np.concatenate([[0], np.flatnonzero(neq) + 1])
        sizes = np.diff(np.append(starts, n))
        sel = pa.array(starts, pa.int64())
        return pa.table(
            {
                "conv_id": t["conv_id"].combine_chunks().take(sel),
                "cluster_id": cl.take(sel),
                "n_members": pa.array(sizes, pa.int64()),
            }
        ).cast(out_schema)

    return ds.map_batches(per_block, batch_format="pyarrow", batch_size=None)


def doc_signatures(documents_ds, n_perms: int = N_PERMS, k: int = 5,
                   seed: int = 7):
    """documents -> (conv_id = str(doc_id), minhash) signatures: MinHash
    over k-gram TOKEN shingles of the raw text — the document-level dedup
    entry (the flagship signs chunk-hash sequences of assembled
    transcripts; this signs the documents table directly, as a curation
    pipeline would).  Docs with no tokens are dropped (no shingle set =>
    cannot be a near-dup of anything)."""
    from ..functions.text import tokenize_hashes
    from ..stages.minhash import _cached_hasher

    def apply(t: pa.Table) -> pa.Table:
        hasher = _cached_hasher(n_perms, k, seed)
        empty = pa.table({
            "conv_id": pa.array([], pa.string()),
            "minhash": pa.array([], pa.list_(pa.uint64(), n_perms)),
        })
        if len(t) == 0:
            return empty
        th, offsets = tokenize_hashes(t, "text")
        starts, ends = offsets[:-1], offsets[1:]
        keep = ends > starts
        if not keep.any():
            return empty
        starts, ends = starts[keep], ends[keep]
        shingles, seg_starts = hasher._shingles_all_segments(th, starts, ends)
        sig = hasher.signatures_for_segments(shingles, seg_starts)
        ids = t["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False)[keep]
        return pa.table({
            "conv_id": pc.cast(pa.array(ids, pa.int64()), pa.string()),
            "minhash": pa.FixedSizeListArray.from_arrays(
                pa.array(sig.reshape(-1), pa.uint64()), n_perms),
        })

    return documents_ds.map_batches(apply, batch_format="pyarrow",
                                    batch_size=None)


def doc_neardup_clusters(documents_ds, num_partitions: int = 16,
                         verify_threshold: float | None = 0.5, **kw):
    """Document-level near-dup clusters: MinHash over token shingles ->
    the flagship's LSH band exchange / verify / connected-components tail,
    unchanged.  Output (conv_id = str(doc_id), cluster_id)."""
    sigs = doc_signatures(documents_ds)
    return neardup_clusters_from_signatures(
        sigs, num_partitions=num_partitions,
        verify_threshold=verify_threshold, **kw)


SPLIT_NAMES = ("train", "val", "test")


def split_by_cluster(clusters_ds, pcts=(80, 10, 10)):
    """clusters (conv_id, cluster_id) -> (conv_id, cluster_id, split):
    the LEAKAGE-SAFE corpus split — train_val_split hashes the document
    id, so two near-duplicates can straddle train and eval and leak; here
    the hash-bucket draw is taken on the CLUSTER id, so every member of a
    near-dup cluster lands in the same split by construction (singleton
    clusters degrade to the per-doc draw).

    Pure per-block map with zero exchange — cluster_id is already on
    every row of the flagship's output — and deterministic under retries
    / repartitioning / corpus growth (the same multiplicative-hash
    discipline as train_val_split; a cluster's split never changes when
    other clusters appear).

    Output: (conv_id, cluster_id, split).
    """
    import numpy as np

    from ..stages.sample import hash_bucket
    from ..util import hash_str_array_u64

    if sum(pcts) != 100 or len(pcts) != len(SPLIT_NAMES):
        raise ValueError("pcts must be three percentages summing to 100")
    cuts = np.cumsum(pcts)

    out_schema = pa.schema(
        [("conv_id", pa.string()), ("cluster_id", pa.string()),
         ("split", pa.string())]
    )

    def per_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        b = hash_bucket(hash_str_array_u64(t["cluster_id"].combine_chunks()))
        ix = np.searchsorted(cuts, b, side="right")
        split = np.asarray(SPLIT_NAMES, dtype=object)[ix]
        return pa.table(
            {"conv_id": t["conv_id"].combine_chunks(),
             "cluster_id": t["cluster_id"].combine_chunks(),
             "split": pa.array(split, pa.string())}
        ).cast(out_schema)

    return clusters_ds.map_batches(per_block, batch_format="pyarrow")
