"""Driver-hashable invariant gates over the rows-only tiers (VERDICT r1
item 8): each function reduces a probabilistic / stateful pipeline to a
tiny table whose expected value is derivable from the corpus derivation
(or is a hard algebraic invariant of the algorithm), so the driver's
DuckDB-oracle hash gate can confirm tiers it previously saw only as
"rows-only ran clean".

Derivation facts used (sources/transcripts.py DOCUMENTS_TRANSCRIPT_SQL):
`twin-X` is an EXACT copy of `conv-X` (all turns) iff X % 20 == 0; for
X % 10 == 0 but X % 20 != 0 the twin drops the last turn (borderline by
design).  Exact-copy twins therefore MUST have byte-identical assembled
payloads, hence identical chunk sets, MinHash signatures and SimHash
bits — an end-to-end recall floor with zero tolerance.

Every gate follows house discipline: per-block pre-reduce partials, at
most one keyed exchange, driver merges only constant- or
dimension-sized tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import conv_numbers, mix64

TWIN_MOD = 20  # conv_no % 20 == 0 -> exact-copy twin exists


# --------------------------------------------------------------------------
# shared twin machinery
# --------------------------------------------------------------------------


def _tag_conv_values(t: pa.Table, id_col: str, val_col: str) -> pa.Table:
    """(conv-XXXXXXXX | twin-XXXXXXXX, value) -> (num, is_twin, val) rows
    restricted to exact-twin conversation numbers (num % TWIN_MOD == 0)."""
    import pyarrow.compute as pc

    conv = t[id_col].combine_chunks()
    if len(conv) == 0:
        return pa.table({"num": pa.array([], pa.int64()),
                         "is_twin": pa.array([], pa.int8()),
                         "val": pa.array([], pa.uint64())})
    num = conv_numbers(conv)
    is_twin = pc.equal(
        pc.utf8_slice_codeunits(conv, 0, 5), "twin-").cast(pa.int8())
    keep = pa.array(num.to_numpy(zero_copy_only=False) % TWIN_MOD == 0)
    return pa.table({"num": num, "is_twin": is_twin,
                     "val": t[val_col]}).filter(keep)


def _twin_equal_partial(t: pa.Table) -> pa.Table:
    """One (num-colocated) block -> (n_exact_twins, n_equal) counts."""
    if len(t) == 0:
        return pa.table({"n_exact_twins": pa.array([0], pa.int64()),
                         "n_equal": pa.array([0], pa.int64())})
    num = t["num"].combine_chunks().to_numpy()
    tw = t["is_twin"].combine_chunks().to_numpy(zero_copy_only=False)
    val = t["val"].combine_chunks().to_numpy(zero_copy_only=False)
    base_of = {int(n): v for n, v, w in zip(num, val, tw) if w == 0}
    twins = [(int(n), v) for n, v, w in zip(num, val, tw) if w == 1]
    n_eq = sum(1 for n, v in twins if base_of.get(n) == v)
    return pa.table({"n_exact_twins": pa.array([len(twins)], pa.int64()),
                     "n_equal": pa.array([n_eq], pa.int64())})


def twin_value_equality(ds, id_col: str, val_col: str,
                        out_equal_col: str) -> pa.Table:
    """Count exact twins whose `val_col` equals their base conversation's.

    One twin-count-sized keyed exchange on the conversation number; the
    full value table never reaches the driver (1-row partials only)."""
    tagged = ds.map_batches(
        lambda t: _tag_conv_values(t, id_col, val_col),
        batch_format="pyarrow")
    tagged = tagged.repartition(num_blocks=8, keys=["num"])
    parts = _collect(tagged.map_batches(
        _twin_equal_partial, batch_format="pyarrow", batch_size=None))
    return pa.table({
        "n_exact_twins": pa.array(
            [int(parts["n_exact_twins"].to_numpy().sum())], pa.int64()),
        out_equal_col: pa.array(
            [int(parts["n_equal"].to_numpy().sum())], pa.int64()),
    })


def _collect(ds) -> pa.Table:
    tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
              for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(tables)


# --------------------------------------------------------------------------
# MinHash / SimHash twin gates
# --------------------------------------------------------------------------


def sig_row_hash(sigs_ds, sig_col: str = "minhash") -> "object":
    """fixed_size_list<uint64> signature -> one mixed uint64 per row
    (injective enough at 2^-64 collision odds to stand in for full
    128-lane equality in the twin gate)."""

    def fold(t: pa.Table) -> pa.Table:
        mh = t[sig_col].combine_chunks()
        n = len(t)
        if n == 0:
            return pa.table({"conv_id": t["conv_id"],
                             "sig_hash": pa.array([], pa.uint64())})
        w = mh.type.list_size
        m = mh.flatten().to_numpy().reshape(n, w)
        h = np.zeros(n, np.uint64)
        for j in range(w):
            h = mix64(h ^ m[:, j])
        return pa.table({"conv_id": t["conv_id"],
                         "sig_hash": pa.array(h, pa.uint64())})

    return sigs_ds.map_batches(fold, batch_format="pyarrow")


def simhash_convs(transcripts_ds, num_partitions: int = 16):
    """Conversation-level SimHash: assemble turn streams (the flagship's
    shuffle #1), then the same vectorized token-bit signature as the
    document tier (stages/dedup.py simhash_batch) over the payload."""
    import pyarrow.compute as pc

    from .assemble import assemble
    from .dedup import simhash_batch

    conv = assemble(transcripts_ds, num_partitions=num_partitions)

    def to_text(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_id": t["conv_id"],
            "text": pc.cast(t["payload"].combine_chunks(), pa.large_string()),
        })

    return conv.map_batches(to_text, batch_format="pyarrow").map_batches(
        lambda t: simhash_batch(t, id_col="conv_id"), batch_format="pyarrow")


# --------------------------------------------------------------------------
# sketch error-bound gates (HLL / CMS)
# --------------------------------------------------------------------------


def hll_type_bounds(events_ds, tol_pct: int = 5) -> pa.Table:
    """Per-event-type HLL estimate vs the distributed exact distinct
    count: emit (event_type, within_tol) with within_tol = 1 iff
    |est/exact - 1| <= tol_pct/100.  Both sides are mergeable partials;
    the driver joins two dimension-sized tables (|event types| rows).
    Deterministic: registers are fixed hash functions of the data, so
    the flag is stable across partitioning/retries (pytest pins the same
    bound; this surfaces it to the driver's hash gate)."""
    from .sketch import ndv_grouped_sketch

    est = ndv_grouped_sketch(events_ds, group="event_type", key="user_id")

    def pair_partial(t: pa.Table) -> pa.Table:
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        uid = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        pairs = np.unique(
            np.stack([et.astype("U"), uid.astype("U")], axis=1), axis=0)
        return pa.table({"event_type": pa.array(pairs[:, 0], pa.string()),
                         "user_id": pa.array(pairs[:, 1], pa.string())})

    # exact side: per-block distinct (type,user) pairs -> one keyed
    # exchange on event_type -> per-block distinct-user counts
    pairs = events_ds.map_batches(pair_partial, batch_format="pyarrow")
    pairs = pairs.repartition(num_blocks=8, keys=["event_type"])

    def count_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "exact": pa.array([], pa.int64())})
        et = t["event_type"].combine_chunks().to_numpy(zero_copy_only=False)
        uid = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        pairs2 = np.unique(
            np.stack([et.astype("U"), uid.astype("U")], axis=1), axis=0)
        g, c = np.unique(pairs2[:, 0], return_counts=True)
        return pa.table({"event_type": pa.array(g, pa.string()),
                         "exact": pa.array(c, pa.int64())})

    ex = _collect(pairs.map_batches(
        count_partial, batch_format="pyarrow", batch_size=None))
    g = ex["event_type"].to_numpy(zero_copy_only=False)
    c = ex["exact"].to_numpy()
    exact = {}
    for gg, cc in zip(g, c):
        exact[gg] = exact.get(gg, 0) + int(cc)

    types = est["event_type"].to_pylist()
    ests = est["ndv_estimate"].to_numpy()
    within = [
        1 if exact.get(t_, 0) > 0
        and abs(e / exact[t_] - 1.0) <= tol_pct / 100.0 else 0
        for t_, e in zip(types, ests)
    ]
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "within_tol": pa.array(within, pa.int64()),
    })


def cms_probe_bounds(events_ds, probes: np.ndarray) -> pa.Table:
    """Count-min sketch guarantees surfaced per probe key: est >= exact
    always (hard algebraic invariant of the min-of-sums table) and
    est <= exact + 2n/w for the shipped (d=4, w=8192) table on this
    corpus (the pytest-pinned bound, now driver-hashed).  Exact probe
    counts are 10 int64 partials per block — no exchange at all."""
    from .sketch import CMS_W, freq_cms

    probes = np.asarray(probes, dtype=np.int64)
    est_t = freq_cms(events_ds, key="user_id", probes=probes)

    def exact_partial(t: pa.Table) -> pa.Table:
        uid = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        cnt = (uid[:, None] == probes[None, :]).sum(axis=0).astype(np.int64)
        return pa.table({"user_id": pa.array(probes, pa.int64()),
                         "exact": pa.array(cnt, pa.int64()),
                         "n": pa.array([len(uid)] * len(probes), pa.int64())})

    parts = _collect(events_ds.map_batches(
        exact_partial, batch_format="pyarrow"))
    uid = parts["user_id"].to_numpy()
    exact = np.zeros(len(probes), np.int64)
    n_total = 0
    pm = {int(p): i for i, p in enumerate(probes)}
    seen_blocks = set()
    ex = parts["exact"].to_numpy()
    nn = parts["n"].to_numpy()
    for i, u in enumerate(uid):
        exact[pm[int(u)]] += int(ex[i])
    n_total = int(nn.sum()) // max(1, len(probes))

    est = est_t["est_count"].to_numpy()
    eps_bound = exact + int(np.ceil(2 * n_total / CMS_W))
    return pa.table({
        "user_id": pa.array(probes, pa.int64()),
        "est_ge_exact": pa.array((est >= exact).astype(np.int64), pa.int64()),
        "within_eps": pa.array((est <= eps_bound).astype(np.int64),
                               pa.int64()),
    })


# --------------------------------------------------------------------------
# packing / split / manifest / ANN gates
# --------------------------------------------------------------------------


def pack_conservation(packed_ds, budget: int) -> pa.Table:
    """Sequence-packing conservation laws as one row: every input token
    lands in exactly one bin (total_tokens equals the corpus token count
    — SQL-derivable) and no bin exceeds the budget except a single
    oversize document alone in its own bin (n_bin_overflows == 0).
    Per-block partials only; bins never span blocks by construction
    (pack_block emits whole groups)."""

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"total_tokens": pa.array([0], pa.int64()),
                             "n_bin_overflows": pa.array([0], pa.int64())})
        tok = t["n_tokens"].combine_chunks().to_numpy()
        grp = t["pack_group"].combine_chunks().to_numpy()
        bins = t["bin_idx"].combine_chunks().to_numpy()
        over = t["oversize"].combine_chunks().to_numpy(zero_copy_only=False)
        key = grp * (bins.max() + 1) + bins
        order = np.argsort(key, kind="stable")
        key, tok_s, over_s = key[order], tok[order], over[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(key[1:] != key[:-1]) + 1, [len(key)]])
        bad = 0
        for s, e in zip(starts[:-1], starts[1:]):
            tot = int(tok_s[s:e].sum())
            if tot > budget and not (e - s == 1 and bool(over_s[s])):
                bad += 1
        return pa.table({
            "total_tokens": pa.array([int(tok.sum())], pa.int64()),
            "n_bin_overflows": pa.array([bad], pa.int64()),
        })

    parts = _collect(packed_ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None))
    return pa.table({
        "total_tokens": pa.array(
            [int(parts["total_tokens"].to_numpy().sum())], pa.int64()),
        "n_bin_overflows": pa.array(
            [int(parts["n_bin_overflows"].to_numpy().sum())], pa.int64()),
    })


def split_exclusive(split_ds) -> pa.Table:
    """Leakage-safe-split partition laws as one row: every conversation
    is assigned exactly one valid split label (n_assigned == n_convs)
    and no near-dup cluster straddles two splits (n_spanning == 0 — the
    leakage property itself).  One cluster-keyed exchange of (cluster,
    split) distinct pairs; 1-row partials to the driver."""
    valid = {"train", "val", "test"}

    def tag(t: pa.Table) -> pa.Table:
        sp = t["split"].combine_chunks().to_numpy(zero_copy_only=False)
        ok = np.fromiter((s in valid for s in sp), bool, len(sp))
        return pa.table({
            "cluster_id": t["cluster_id"],
            "split": t["split"],
            "ok": pa.array(ok.astype(np.int64), pa.int64()),
        })

    tagged = split_ds.map_batches(tag, batch_format="pyarrow")
    n_rows = 0
    n_ok = 0

    def row_partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([len(t)], pa.int64()),
            "n_ok": pa.array([int(t["ok"].to_numpy().sum()) if len(t) else 0],
                             pa.int64()),
        })

    rp = _collect(tagged.map_batches(row_partial, batch_format="pyarrow",
                                     batch_size=None))
    n_rows = int(rp["n"].to_numpy().sum())
    n_ok = int(rp["n_ok"].to_numpy().sum())

    by_cluster = tagged.repartition(num_blocks=8, keys=["cluster_id"])

    def span_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n_spanning": pa.array([0], pa.int64())})
        cl = t["cluster_id"].combine_chunks().to_numpy(zero_copy_only=False)
        sp = t["split"].combine_chunks().to_numpy(zero_copy_only=False)
        pairs = np.unique(
            np.stack([cl.astype("U"), sp.astype("U")], axis=1), axis=0)
        g, c = np.unique(pairs[:, 0], return_counts=True)
        return pa.table(
            {"n_spanning": pa.array([int((c > 1).sum())], pa.int64())})

    spp = _collect(by_cluster.map_batches(
        span_partial, batch_format="pyarrow", batch_size=None))
    return pa.table({
        "n_convs": pa.array([n_rows], pa.int64()),
        "n_assigned": pa.array([n_ok], pa.int64()),
        "n_spanning": pa.array(
            [int(spp["n_spanning"].to_numpy().sum())], pa.int64()),
    })


def ann_full_probe_parity(emb_ds, qids, qmat, k: int, n_cells: int) -> pa.Table:
    """IVF with n_probe == n_cells scans every cell, so its top-k must
    equal the exact brute-force top-k SET per query (rank order may
    differ only on exact score ties; sets are compared).  Proves the
    IVF routing/merge machinery lossless before recall is traded for
    read pruning via n_probe < n_cells."""
    from .ann import ann_topk_bruteforce, ann_topk_ivf

    brute = ann_topk_bruteforce(emb_ds, qids, qmat, k=k)
    ivf = ann_topk_ivf(emb_ds, qids, qmat, k=k, n_cells=n_cells,
                       n_probe=n_cells)

    def to_sets(t: pa.Table) -> dict:
        q = t["query_id"].to_numpy()
        nb = t["neighbor_id"].to_numpy()
        out: dict[int, set] = {}
        for qq, n in zip(q, nb):
            out.setdefault(int(qq), set()).add(int(n))
        return out

    bs, vs = to_sets(brute), to_sets(ivf)
    n_parity = sum(1 for q in bs if vs.get(q) == bs[q])
    return pa.table({
        "n_queries": pa.array([len(bs)], pa.int64()),
        "n_parity": pa.array([n_parity], pa.int64()),
    })


def winnow_superset(docs_ds, L: int = 30, k: int = 20,
                    num_partitions: int = 8,
                    cand_max_group: int = 10**9) -> pa.Table:
    """The winnowing theorem (Schleimer et al. 2003) made driver-hashable:
    with window w = L - k + 1, every pair of documents sharing ANY
    substring of length >= L must share a winnowing fingerprint — so the
    candidate set is a guaranteed superset of the true shared-L-gram pair
    set (n_missed == 0), and n_true_pairs itself is SQL-derivable via the
    substring oracle's gram CTE.  Engine plan: exact gram pairs (one
    gram-keyed exchange on the same rolling-hash rows the exact tier
    exchanges) tag-unioned with the winnow candidates on one (src, dst)
    exchange; 2-int partials to the driver."""
    from .substring import gram_rows
    from .winnow import _distinct_pairs_block, _emit_group_pairs, winnow_candidates

    def grams(t: pa.Table) -> pa.Table:
        g = gram_rows(t, L)
        return pa.table({"fp_key": g["gram_key"], "doc_id": g["doc_id"]})

    gr = docs_ds.map_batches(grams, batch_format="pyarrow")
    gr = gr.repartition(num_blocks=num_partitions, keys=["fp_key"])
    true_pairs = gr.map_batches(
        lambda t: _emit_group_pairs(t, max_group=10**9),
        batch_format="pyarrow", batch_size=None)
    true_pairs = true_pairs.repartition(
        num_blocks=max(4, num_partitions // 2), keys=["src", "dst"])
    true_pairs = true_pairs.map_batches(
        _distinct_pairs_block, batch_format="pyarrow", batch_size=None)

    # cand_max_group < group sizes turns the candidate recall knob ON and
    # the gate then COUNTS the dropped pairs (pytest falsifiability hook);
    # the registered gate runs uncapped so the theorem holds exactly.
    cand = winnow_candidates(docs_ds, L=L, k=k,
                             num_partitions=num_partitions,
                             max_group=cand_max_group)

    def tag(kind: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(
                "kind", pa.array(np.full(len(t), kind, np.int8), pa.int8()))
        return f

    both = true_pairs.map_batches(tag(0), batch_format="pyarrow").union(
        cand.map_batches(tag(1), batch_format="pyarrow"))
    both = both.repartition(num_blocks=max(4, num_partitions // 2),
                            keys=["src", "dst"])

    def count_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n_true_pairs": pa.array([0], pa.int64()),
                             "n_missed": pa.array([0], pa.int64())})
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
        kind = t["kind"].combine_chunks().to_numpy(zero_copy_only=False)
        key = src * (dst.max() + 1) + dst
        order = np.argsort(key, kind="stable")
        key, kind = key[order], kind[order]
        starts = np.concatenate(
            [[0], np.flatnonzero(key[1:] != key[:-1]) + 1, [len(key)]])
        n_true = 0
        n_missed = 0
        for s, e in zip(starts[:-1], starts[1:]):
            kk = kind[s:e]
            if (kk == 0).any():
                n_true += 1
                if not (kk == 1).any():
                    n_missed += 1
        return pa.table({"n_true_pairs": pa.array([n_true], pa.int64()),
                         "n_missed": pa.array([n_missed], pa.int64())})

    parts = _collect(both.map_batches(count_partial, batch_format="pyarrow",
                                      batch_size=None))
    return pa.table({
        "n_true_pairs": pa.array(
            [int(parts["n_true_pairs"].to_numpy().sum())], pa.int64()),
        "n_missed": pa.array(
            [int(parts["n_missed"].to_numpy().sum())], pa.int64()),
    })


def manifest_coverage(manifest_root: str, n_partitions: int) -> pa.Table:
    """Checkpointed-sink coverage: the chunk rows WRITTEN to the
    resumable partitioned parquet sink must cover every corpus byte
    (sum of persisted chunk lengths == total text bytes) across exactly
    the expected partition count.  Reads back only the `length` column."""
    import ray.data as rd

    ds = rd.read_parquet(f"{manifest_root}/chunks", columns=["length"])

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"b": pa.array(
            [int(t["length"].to_numpy().sum()) if len(t) else 0], pa.int64())})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    return pa.table({
        "covered_bytes": pa.array(
            [int(parts["b"].to_numpy().sum())], pa.int64()),
        "n_partitions": pa.array([n_partitions], pa.int64()),
    })


def hist_coverage(hist_tbl: pa.Table) -> pa.Table:
    """Histogram-path coverage: chunk_size_histogram's per-bucket byte
    totals must sum, per normalization level, to the exact corpus byte
    count (the coverage invariant src/v2020/mod.rs:1253-1274 checked
    through the BINCOUNT-PARTIAL path rather than the chunk-row path).
    Input is the histogram's (norm_level, bucket_lo, n_chunks, bytes)
    table; output one (norm_level, total_bytes) row per level, sorted."""
    lvl = hist_tbl["norm_level"].to_numpy()
    by = hist_tbl["bytes"].to_numpy()
    levels = np.unique(lvl)
    tot = [int(by[lvl == v].sum()) for v in levels]
    return pa.table({
        "norm_level": pa.array(levels.astype(np.int64), pa.int64()),
        "total_bytes": pa.array(tot, pa.int64()),
    })


def delta_conservation(docs_ds, cfg=None, num_partitions: int = 8) -> pa.Table:
    """Snapshot-delta gate: (a) bytes_a / bytes_b reported by
    `chunk_delta` must equal the exact byte arithmetic of the
    deterministic snapshot-B mutation (oracle-derivable per doc:
    unchanged / +marker / +marker / -16-at-midpoint / same-length-
    regenerated-at-min-64); (b) a deduplicating store must share AT
    LEAST every unchanged doc's bytes (doc_id % 5 == 0), so
    `shared_covers_unchanged` must be 1.  Undercounted shared chunks,
    a coverage bug in either snapshot's chunking, or mutation drift all
    flip a column (stages/delta.py)."""
    from .delta import chunk_delta, docs_as_payload, mutate_snapshot

    a = docs_as_payload(docs_ds)
    b = mutate_snapshot(docs_ds)
    summary = chunk_delta(a, b, cfg=cfg, num_partitions=num_partitions)

    def unchanged_partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        ln = pc.binary_length(
            t["text"].combine_chunks().cast(pa.large_binary())).to_numpy()
        keep = ids % 5 == 0
        return pa.table({"b": pa.array([int(ln[keep].sum())], pa.int64())})

    parts = _collect(docs_ds.map_batches(unchanged_partial,
                                         batch_format="pyarrow"))
    unchanged = int(parts["b"].to_numpy().sum())
    shared = int(summary["shared_bytes_b"][0].as_py())
    return pa.table({
        "bytes_a": summary["bytes_a"],
        "bytes_b": summary["bytes_b"],
        "shared_covers_unchanged": pa.array(
            [1 if shared >= unchanged else 0], pa.int8()),
    })


def jaccard_twin_exact(chunks_ds, num_partitions: int = 8) -> pa.Table:
    """Chunk-Jaccard gate: every exact-copy twin family (conv_no %
    TWIN_MOD == 0) must appear in `chunk_jaccard_pairs` at tau = 1.0 —
    byte-identical payloads have identical chunk sets, so Jaccard is
    exactly 1 and the pair (conv-X, twin-X) is guaranteed.  Output the
    count of such twin pairs found; the oracle derives the expected
    family count from the derivation arithmetic.  A chunker that cuts
    differently on identical bytes, an element-key collision regression,
    or a pair-generation drop all lower the count."""
    from .dedup import chunk_jaccard_pairs

    pairs = chunk_jaccard_pairs(chunks_ds, tau_milli=1000,
                                num_partitions=num_partitions)
    src = np.asarray(pairs["src"], dtype="U")
    dst = np.asarray(pairs["dst"], dtype="U")
    n = 0
    for s, d in zip(src, dst):
        if s.startswith("conv-") and d == "twin-" + s[5:]:
            x = int(s[5:])
            if x % TWIN_MOD == 0:
                n += 1
    return pa.table({"n_twin_exact": pa.array([n], pa.int64())})
