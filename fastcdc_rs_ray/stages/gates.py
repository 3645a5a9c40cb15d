"""Round-3 invariant gates: falsifiable 1-row reductions of the
remaining rows-only tiers (VERDICT r2 item 6).

Same discipline as stages/invariants.py: each gate reduces a pipeline
whose full output is not SQL-expressible (iterative, approximate, or
codec-dependent) to a tiny table in which at least one column is
INDEPENDENTLY derivable by the DuckDB oracle (a corpus count, an exact
trace, a planted-duplicate census) and the rest are hard algebraic
invariants of the algorithm (monotonicity, conservation, mergeability,
endpoint parity) that a broken implementation falsifies.  Every gate has
a pytest knob proving it CAN go red (tests/test_gates.py).

Covered tiers -> gate:
  bpe_train            -> bpe_train_merges (full 4-round SQL replay,
                          registered in pipelines/queries.py)
  chunk_size_histogram -> hist_spread_gate (NC3 strictly narrower)
  ann_recall_report    -> ann_recall_monotone (recall non-decreasing in
                          n_probe; full-probe endpoint == parity)
  doc_neardup_clusters -> doc_neardup_twin_gate (planted-copy recall)
  part_pagerank        -> pagerank_mass_gate (rank >= base, mass bound)
  embedding_pca        -> pca_rayleigh_gate (exact SQL trace + Rayleigh
                          lower bound lambda_max >= trace/dim)
  ridge_fit            -> ridge_normal_gate (normal-equation residual)
  kcenter_coreset      -> kcenter_radius_gate (covering radius weakly
                          decreasing)
  kmeans_clusters      -> kmeans_inertia_gate (Lloyd objective
                          non-increasing)
  ndv_users_hll        -> hll_merge_users_gate (merge-invariance + 5%
                          band around the SQL-exact distinct count)
  compressibility      -> compress_double_gate (doubled text compresses
                          strictly below single)
  locality_compression -> locality_gain_gate (simhash order beats
                          hash-of-id order on a twin-bearing corpus)
  semantic_dedup       -> semdedup_planted_gate (planted exact-duplicate
                          embeddings all dropped)
  chunks_bigfile       -> bigfile_stitch_gate (parallel seam-stitch chunk
                          set == whole-buffer set, bytes == SQL strlen sum)
  neardup_incremental  -> neardup_incr_gate (planted snapshot-2 twins all
                          matched at sim 1.0 through the standing index)
  media_real/frames    -> media_roundtrip_gate (BMP/WAV decode->encode
                          byte-exact with meta-consistent shapes)
  doc_fingerprint      -> fingerprint_twin_gate (copies fingerprint
                          byte-identically; one keyed exchange)
  embed_neardup_lsh    -> embed_lsh_twin_gate (identical-copy pairs always
                          emitted: same buckets, cosine exactly 1)
  ann_topk_pq          -> pq_endpoint_gate (all-corpus shortlist ->
                          exact-re-rank top-k == brute force)
  neardup_keep         -> neardup_keep_gate (no planted twin pair
                          survives representative selection)
  chunks_stream        -> stream_parity_gate (streamed corpus chunk rows
                          == whole-file rows per document)
  media_thumbs         -> media_thumbs_gate (thumb payloads decode to the
                          exact requested dims + matching gray_sum)
  cluster_terms        -> cluster_terms_gate (emitted corpus counts ==
                          independent recount; rank/containment laws)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import conv_numbers


def _one_row(**cols) -> pa.Table:
    return pa.table({k: pa.array([v], pa.int64()) for k, v in cols.items()})


# --------------------------------------------------------------------------
# chunk_size_histogram: normalized chunking narrows the spread
# --------------------------------------------------------------------------


def hist_spread_gate(conv_ds, lo_level: int = 0, hi_level: int = 3,
                     base_cfg=None) -> pa.Table:
    """(total_bytes, nc_hi_narrower): higher normalization must yield a
    strictly smaller relative size variance (the 2020 paper's point of
    normalized chunking); total_bytes is the SQL-checkable coverage sum.

    Relative variance compared exactly in Python ints:
        CV^2 = (n * sum(x^2) - sum(x)^2) / sum(x)^2
    cross-multiplied so no division happens."""
    from .chunk import ChunkerConfig, DEFAULT_CONFIG, chunk

    base = base_cfg or DEFAULT_CONFIG
    stats = {}
    for lvl in (lo_level, hi_level):
        cfg = ChunkerConfig(
            min_size=base.min_size, avg_size=base.avg_size,
            max_size=base.max_size, algo=base.algo, seed=base.seed,
            norm_level=lvl)
        chunks = chunk(conv_ds, cfg)

        def partial(t: pa.Table) -> pa.Table:
            ln = t["length"].combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64)
            return pa.table({
                "n": pa.array([len(ln)], pa.int64()),
                "s": pa.array([int(ln.sum())], pa.int64()),
                "s2": pa.array([int((ln * ln).sum())], pa.int64()),
            })

        n = s = s2 = 0
        for b in chunks.map_batches(
                partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"):
            n += sum(b["n"].to_pylist())
            s += sum(b["s"].to_pylist())
            s2 += sum(b["s2"].to_pylist())
        stats[lvl] = (n, s, s2)

    n0, s0, q0 = stats[lo_level]
    n1, s1, q1 = stats[hi_level]
    # CV^2(hi) < CV^2(lo)  <=>  (n1*q1 - s1^2) * s0^2 < (n0*q0 - s0^2) * s1^2
    narrower = int((n1 * q1 - s1 * s1) * s0 * s0
                   < (n0 * q0 - s0 * s0) * s1 * s1)
    return _one_row(total_bytes=s1, nc_hi_narrower=narrower)


# --------------------------------------------------------------------------
# ann_recall_report: recall monotone in n_probe; full probe == parity
# --------------------------------------------------------------------------


def ann_recall_monotone(emb_ds, qids, qmat, k: int = 10, n_cells: int = 16,
                        probes: tuple[int, ...] = (1, 2, 4, 8, 16),
                        truth_k: int | None = None) -> pa.Table:
    """(n_levels, n_monotone, endpoint_permille): probing more IVF cells
    can only grow the candidate set, and any global-top-k member present
    among candidates always survives local top-k -> recall@probe is
    non-decreasing, and probing all cells is EXACT (endpoint 1000).
    ``truth_k`` is the falsifiability knob (mismatched truth -> endpoint
    below 1000)."""
    from .ann import ann_multi_probe_topk, ann_topk_bruteforce

    def pairs(tbl) -> dict:
        t = tbl if isinstance(tbl, pa.Table) else tbl
        cols = t.column_names
        nid = "neighbor_id" if "neighbor_id" in cols else "vec_id"
        out: dict[int, set] = {}
        for q, v in zip(t["query_id"].to_pylist(), t[nid].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    truth = pairs(ann_topk_bruteforce(emb_ds, qids, qmat,
                                      k=truth_k or k))
    # one centroid training + one dataset pass for the whole curve; the
    # endpoint still compares against the INDEPENDENT brute-force pass,
    # so full-probe parity stays a genuine two-implementation check
    curve = ann_multi_probe_topk(emb_ds, qids, qmat, k=k,
                                 n_cells=n_cells, probes=tuple(probes))
    recalls = []
    for p in sorted(probes):
        mine = curve[p]
        num = sum(len(mine.get(q, set()) & tv) for q, tv in truth.items())
        den = sum(len(tv) for tv in truth.values())
        recalls.append(1000 * num // max(1, den))
    n_monotone = sum(1 for a, b in zip(recalls, recalls[1:]) if b >= a)
    return _one_row(n_levels=len(recalls), n_monotone=n_monotone,
                    endpoint_permille=recalls[-1])


# --------------------------------------------------------------------------
# doc_neardup_clusters: planted-copy recall
# --------------------------------------------------------------------------


def doc_neardup_twin_gate(documents_ds, every: int = 10,
                          mutate: bool = False) -> pa.Table:
    """(n_planted, n_coclustered): plant a byte-identical copy of every
    ``doc_id % every == 0`` document (mediadup.with_planted_copies) and
    require the doc-level near-dup pipeline to put each copy in its
    source's cluster.  ``mutate`` scrambles the copies (falsifiability:
    scrambled copies must NOT co-cluster)."""
    from ..pipelines.neardup import doc_neardup_clusters
    from .mediadup import COPY_ID_OFFSET, with_planted_copies

    planted = with_planted_copies(documents_ds, every=every)
    if mutate:
        def scramble(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].combine_chunks().to_numpy(
                zero_copy_only=False)
            txt = t["text"].combine_chunks().to_pylist()
            out = [
                ("".join(chr((ord(c) - 32 + 13) % 94 + 32)
                         for c in s) if i >= COPY_ID_OFFSET else s)
                for i, s in zip(ids.tolist(), txt)
            ]
            return pa.table({"doc_id": t["doc_id"],
                             "text": pa.array(out, pa.string())})

        planted = planted.map_batches(scramble, batch_format="pyarrow")

    clusters = doc_neardup_clusters(planted, num_partitions=8).to_pandas()
    lab = {int(c): v for c, v in zip(clusters["conv_id"].astype(int),
                                     clusters["cluster_id"])}
    n_planted = n_co = 0
    for did in list(lab):
        if did >= COPY_ID_OFFSET:
            n_planted += 1
            src = did - COPY_ID_OFFSET
            if src in lab and lab[src] == lab[did]:
                n_co += 1
    return _one_row(n_planted=n_planted, n_coclustered=n_co)


# --------------------------------------------------------------------------
# part_pagerank: per-node floor and mass upper bound
# --------------------------------------------------------------------------


def pagerank_mass_gate(ranks_tbl: pa.Table, scale: int,
                       damping_pct: int = 85) -> pa.Table:
    """(n_nodes, n_ge_base, mass_le_scale): every quantized rank is
    >= the teleport base (new = base + nonnegative contributions) and
    the floor divisions only ever LOSE mass, so sum(rank_q) <= SCALE.
    n_nodes is SQL-checkable from the co-purchase edge derivation."""
    r = ranks_tbl["rank_q"].to_numpy(zero_copy_only=False)
    n = len(r)
    base = (scale * (100 - damping_pct) // 100) // max(1, n)
    return _one_row(
        n_nodes=n,
        n_ge_base=int((r >= base).sum()),
        mass_le_scale=int(int(r.sum()) <= scale),
    )


# --------------------------------------------------------------------------
# embedding_pca: exact trace + Rayleigh lower bound
# --------------------------------------------------------------------------


def pca_rayleigh_gate(embeddings_ds, dim: int = 64,
                      shrink_pct: int = 100) -> pa.Table:
    """(trace_q, lam_ge_avg): the gram trace (sum of squared quantized
    components) is EXACTLY SQL-derivable; the power-iteration estimate
    of lambda_max must satisfy the Rayleigh bound
    lambda_max >= trace/dim (avg of eigenvalues).  ``shrink_pct`` is
    the falsifiability knob (shrinking the estimate below 100% breaks
    the bound on any corpus with spread eigenvalues)."""
    from .vecagg import QUANT, embedding_gram

    gram = embedding_gram(embeddings_ds, dim=dim, quant=QUANT)
    gi = gram["i"].to_numpy(zero_copy_only=False) - 1
    gj = gram["j"].to_numpy(zero_copy_only=False) - 1
    gv = gram["gram_q"].to_numpy(zero_copy_only=False)
    g = np.zeros((dim, dim), np.float64)
    g[gi, gj] = gv
    g[gj, gi] = gv
    trace_q = int(gv[gi == gj].sum())
    v = np.ones(dim, np.float64) / np.sqrt(dim)
    for _ in range(64):
        nv = g @ v
        nrm = np.linalg.norm(nv)
        if nrm == 0.0:
            break
        v = nv / nrm
    lam = float(v @ g @ v) * shrink_pct / 100.0
    return _one_row(trace_q=trace_q,
                    lam_ge_avg=int(lam * dim >= float(trace_q)))


# --------------------------------------------------------------------------
# ridge_fit: normal-equation residual
# --------------------------------------------------------------------------


def ridge_normal_gate(embeddings_ds, dim: int = 64,
                      lam_q2: int = 10 ** 12,
                      perturb: float = 0.0) -> pa.Table:
    """(n_features, normal_ok): the closed-form solve must satisfy its
    own normal equations (G + lam I) w = b to float tolerance —
    the invariant that catches a wrong G/b assembly or a broken solve.
    ``perturb`` adds to w (falsifiability)."""
    from .vecagg import QUANT, embedding_gram, embedding_xty

    gram = embedding_gram(embeddings_ds, dim=dim, quant=QUANT)
    xty = embedding_xty(embeddings_ds, dim=dim, quant=QUANT)
    gi = gram["i"].to_numpy(zero_copy_only=False) - 1
    gj = gram["j"].to_numpy(zero_copy_only=False) - 1
    gv = gram["gram_q"].to_numpy(zero_copy_only=False).astype(np.float64)
    g = np.zeros((dim, dim), np.float64)
    g[gi, gj] = gv
    g[gj, gi] = gv
    b = xty["xty_q"].to_numpy(zero_copy_only=False).astype(np.float64)
    a = g + float(lam_q2) * np.eye(dim)
    w = np.linalg.solve(a, b) + perturb
    resid = np.linalg.norm(a @ w - b)
    ok = int(resid <= 1e-6 * max(1.0, np.linalg.norm(b)))
    return _one_row(n_features=dim, normal_ok=ok)


# --------------------------------------------------------------------------
# kcenter_coreset: covering radius weakly decreasing
# --------------------------------------------------------------------------


def kcenter_radius_gate(coreset_tbl: pa.Table) -> pa.Table:
    """(k, n_nonincreasing): greedy farthest-point picks the CURRENT
    farthest vector each round, so the covering-radius sequence dist_q
    (ranks 1..k-1) is weakly decreasing — a hard invariant of the
    2-approximation."""
    d = coreset_tbl.sort_by("rank")["dist_q"].to_numpy(
        zero_copy_only=False)
    seq = d[1:]  # rank 0 is -1 (no earlier center)
    noninc = sum(1 for a, b in zip(seq, seq[1:]) if b <= a)
    return _one_row(k=len(d), n_nonincreasing=noninc)


# --------------------------------------------------------------------------
# kmeans: Lloyd objective non-increasing
# --------------------------------------------------------------------------


def kmeans_inertia_gate(embeddings_ds, k: int = 8,
                        n_iter: int = 10) -> pa.Table:
    """(n_vecs, n_rounds, n_nonincreasing): Lloyd's two half-steps each
    minimize the objective, so per-round inertia is non-increasing
    (float tolerance 1e-9 relative).  n_vecs is the SQL-checkable
    COUNT(*) of embeddings."""
    from .kmeans import kmeans

    _assign_ds, _cent, hist = kmeans(embeddings_ds, k=k, n_iter=n_iter,
                                     return_inertia=True)
    n_vecs = 0
    for b in _assign_ds.map_batches(
            lambda t: pa.table({"n": pa.array([len(t)], pa.int64())}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        n_vecs += sum(b["n"].to_pylist())
    return kmeans_history_gate(hist, n_vecs)


def kmeans_history_gate(hist: list[float], n_vecs: int) -> pa.Table:
    """Reduction half of kmeans_inertia_gate, split out so the pytest
    can feed a doctored history (falsifiability).  monotone_ok rather
    than a round count: early convergence shortens the history and the
    oracle cannot know the final length."""
    tol = 1e-9
    noninc = sum(1 for a, b in zip(hist, hist[1:])
                 if b <= a * (1 + tol) + tol)
    return _one_row(n_vecs=n_vecs,
                    monotone_ok=int(noninc == max(0, len(hist) - 1)))


# --------------------------------------------------------------------------
# ndv_users_hll: mergeability + accuracy band vs SQL-exact
# --------------------------------------------------------------------------


def hll_merge_users_gate(events_ds, tol_pct: int = 5,
                         fake_second: float | None = None) -> pa.Table:
    """(n_exact, merge_equal, within_tol): the HLL register bank is an
    elementwise max — merging per-block partials in ANY grouping gives
    the SAME registers, so the estimate from 2-way and 8-way block
    layouts must be bit-equal; and the estimate must sit within
    tol_pct of the exact distinct count, which the oracle derives as
    COUNT(DISTINCT user_id).  ``fake_second`` substitutes the second
    estimate (falsifiability)."""
    from .sketch import ndv_sketch

    est_a = float(ndv_sketch(
        events_ds.repartition(2), key="user_id")["ndv_estimate"][0].as_py())
    est_b = fake_second if fake_second is not None else float(ndv_sketch(
        events_ds.repartition(8), key="user_id")["ndv_estimate"][0].as_py())

    # exact NDV via per-block distinct -> driver set union (NDV-sized)
    seen: set[int] = set()
    for b in events_ds.map_batches(
            lambda t: pa.table({"u": pc.unique(t["user_id"])}),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        seen.update(b["u"].to_pylist())
    n_exact = len(seen)
    within = int(abs(est_a - n_exact) <= n_exact * tol_pct / 100.0)
    return _one_row(n_exact=n_exact, merge_equal=int(est_a == est_b),
                    within_tol=within)


# --------------------------------------------------------------------------
# compressibility: doubled text compresses strictly below single
# --------------------------------------------------------------------------


def compress_double_gate(documents_ds, min_bytes: int = 64,
                         factor: int = 2) -> pa.Table:
    """(n_docs, n_lower): for every document of >= min_bytes, zlib of
    text*factor must land at a strictly lower permille than zlib of
    text (the codec finds the repeat) — the direction the
    compressibility quality signal relies on.  ``factor=1`` is the
    falsifiability knob (identical text -> never strictly lower)."""
    import zlib

    def partial(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        n = lower = 0
        for s in txt.to_pylist():
            raw = s.encode()
            if len(raw) < min_bytes:
                continue
            n += 1
            single = len(zlib.compress(raw, 6)) * 1000 // len(raw)
            doubled = (len(zlib.compress(raw * factor, 6)) * 1000
                       // (len(raw) * factor))
            if doubled < single:
                lower += 1
        return _one_row(n_docs=n, n_lower=lower)

    n = lower = 0
    for b in documents_ds.map_batches(
            partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        n += sum(b["n_docs"].to_pylist())
        lower += sum(b["n_lower"].to_pylist())
    return _one_row(n_docs=n, n_lower=lower)


# --------------------------------------------------------------------------
# locality_compression: simhash order beats hash-of-id order
# --------------------------------------------------------------------------


def locality_gain_gate(documents_ds, every: int = 10,
                       swap: bool = False) -> pa.Table:
    """(n_docs, gain_ok): with byte-identical copies planted every
    ``every`` docs, the simhash-ordered layout must gzip strictly
    smaller than the hash-of-id layout (near-dups land inside the codec
    window).  ``swap`` inverts the comparison (falsifiability)."""
    from .locality import locality_compression
    from .mediadup import with_planted_copies

    planted = with_planted_copies(
        documents_ds.select_columns(["doc_id", "text"]), every=every)
    out = locality_compression(planted, num_partitions=8).to_pandas()
    by = dict(zip(out["ordering"], out["gz_bytes"]))
    a, b = by["simhash"], by["doc_id"]
    if swap:
        a, b = b, a
    n_docs = int(out["n_docs"].iloc[0]) if "n_docs" in out.columns else 0
    return _one_row(n_docs=n_docs, gain_ok=int(a < b))


# --------------------------------------------------------------------------
# semantic_dedup: planted exact-duplicate embeddings all dropped
# --------------------------------------------------------------------------

SEM_COPY_OFFSET = 10_000_000


def semdedup_planted_gate(embeddings_ds, every: int = 5,
                          tau: float = 0.97) -> pa.Table:
    """(n_planted, n_dropped): plant an exact copy of every
    ``vec_id % every == 0`` embedding at vec_id + SEM_COPY_OFFSET; each
    copy has cosine exactly 1.0 with its source, lands in the same
    k-means bucket (identical vector -> identical assignment), and must
    be dropped by the within-cluster dedup.  ``tau > 1`` is the
    falsifiability knob (nothing can reach it -> n_dropped = 0)."""
    from .semdedup import semantic_dedup

    def plant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.max()) >= SEM_COPY_OFFSET:
            raise ValueError("vec_id >= SEM_COPY_OFFSET — raise offset")
        sel = np.flatnonzero(ids % every == 0)
        base = pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": t["embedding"]})
        if len(sel) == 0:
            return base
        copies = pa.table({
            "vec_id": pa.array(ids[sel] + SEM_COPY_OFFSET, pa.int64()),
            "embedding": t["embedding"].combine_chunks().take(
                pa.array(sel, pa.int64())),
        })
        return pa.concat_tables([base, copies])

    planted = embeddings_ds.select_columns(
        ["vec_id", "embedding"]).map_batches(plant, batch_format="pyarrow")
    out = semantic_dedup(planted, k=8, tau=tau, num_partitions=8)
    t = out.to_pandas()
    planted_rows = t[t["vec_id"] >= SEM_COPY_OFFSET]
    return _one_row(
        n_planted=len(planted_rows),
        n_dropped=int((planted_rows["keep"] == 0).sum()),
    )


# --------------------------------------------------------------------------
# embed_outliers: 1-row small-int localization gate (VERDICT r3 item 1)
# --------------------------------------------------------------------------

OUTLIER_GATE_MOD = 1_000_003


def embed_outliers_gate(embeddings_ds, dim: int = 64) -> pa.Table:
    """(n, s_mod, d_min, d_max, vm_mod): 1-row small-int reduction of the
    full ``embed_outliers`` output — originally shipped to LOCALIZE the
    driver's persistent hash red row (r02+r03), which round 4 then
    ROOT-CAUSED and fixed: the driver-side S/N merge was corrupted by
    iter_batches COALESCING small partial blocks at the driver's 32-cpu
    parallelism while the replica's 8-cpu block layout happened to
    align (see docs/EMBED_OUTLIERS.md; stages/vecagg.py now merges
    row-exactly via np.add.at + i==0 count rows + block-sized batches).
    The gate stays registered as a standing canary: any regression of
    that bug class flips these small ints immediately.

        n      = COUNT(*)
        s_mod  = SUM(dist2 % M)                     (M = 1_000_003)
        d_min  = MIN(dist2),  d_max = MAX(dist2)
        vm_mod = SUM(((vec_id % M) * (dist2 % M)) % M)

    vm_mod mixes vec_id into the digest so a cross-row permutation of
    dist2 values (which COUNT/SUM/MIN/MAX cannot see) still flips the
    gate.  All arithmetic in int64 with explicit Python-int bound checks
    mirrored by the oracle's BIGINT ops — agree or both fail."""
    from .vecagg import embed_outliers

    M = OUTLIER_GATE_MOD
    I64_MAX = (1 << 63) - 1
    out = embed_outliers(embeddings_ds, dim=dim)

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({k: pa.array([], pa.int64())
                             for k in ("n", "s", "mn", "mx", "vm")})
        d2 = t["dist2"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        vid = t["vec_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if d2.min(initial=0) < 0 or vid.min(initial=0) < 0:
            raise ValueError("embed_outliers_gate: negative dist2/vec_id "
                             "— modulo semantics would diverge from SQL")
        dm = d2 % M
        vm = (vid % M) * dm % M
        return pa.table({
            "n": pa.array([len(t)], pa.int64()),
            "s": pa.array([int(dm.sum())], pa.int64()),
            "mn": pa.array([int(d2.min())], pa.int64()),
            "mx": pa.array([int(d2.max())], pa.int64()),
            "vm": pa.array([int(vm.sum())], pa.int64()),
        })

    n = s = vm = 0
    mn, mx = None, None
    for b in out.map_batches(partial, batch_format="pyarrow"
                             ).iter_batches(batch_format="pyarrow"):
        for r in range(b.num_rows):
            n += b["n"][r].as_py()
            s += b["s"][r].as_py()
            vm += b["vm"][r].as_py()
            bmn, bmx = b["mn"][r].as_py(), b["mx"][r].as_py()
            mn = bmn if mn is None else min(mn, bmn)
            mx = bmx if mx is None else max(mx, bmx)
    if s > I64_MAX or vm > I64_MAX:
        raise ValueError("embed_outliers_gate: modular sum exceeds int64 "
                         "— the oracle's BIGINT SUM would overflow too")
    return _one_row(n=n, s_mod=s, d_min=mn if mn is not None else 0,
                    d_max=mx if mx is not None else 0,
                    vm_mod=vm)


# --------------------------------------------------------------------------
# round-4 gates: the remaining never-SQL-gated rows-only tiers
# (VERDICT r3 item 5)
# --------------------------------------------------------------------------

#: deliberate verification arm — the whole-file sequential re-chunk is
#: O(file) driver work, confined to a byte budget like sa_gram_parity
BIGFILE_GATE_BYTE_BUDGET = 256 << 20


def bigfile_stitch_gate(path: str, cfg, range_bytes: int = 64 << 10,
                        overlap: int = 32 << 10, whole_cfg=None,
                        byte_budget: int = BIGFILE_GATE_BYTE_BUDGET
                        ) -> pa.Table:
    """(total_bytes, stitch_eq_whole): the parallel range-scan +
    seam-stitch chunking of ONE file (sources/bigfile.py) must produce
    EXACTLY the whole-buffer sequential chunk set — compared as the full
    (offset, length, hash) triple set, reduced to one row.  total_bytes
    doubles as coverage (must equal the file size, which the oracle
    derives as SUM(strlen(text)) over the concatenated documents).

    ``whole_cfg`` is the falsifiability knob: chunking the sequential
    arm under a different config flips the flag to 0."""
    import os

    from ..cdc import chunk_rows
    from ..sources.bigfile import chunk_file_parallel

    size = os.path.getsize(path)
    if size > byte_budget:
        raise ValueError(
            f"bigfile_stitch_gate: {size} bytes exceeds the "
            f"{byte_budget}-byte sequential-arm budget — raise it "
            "explicitly or gate a prefix")
    ds, _bridges = chunk_file_parallel(path, cfg, range_bytes=range_bytes,
                                       overlap=overlap)
    par = ds.select_columns(["offset", "length", "hash"]).to_pandas()
    data = np.fromfile(path, dtype=np.uint8)
    offsets = np.array([0, size], dtype=np.int64)
    _, h, off, ln = chunk_rows(data, offsets, whole_cfg or cfg)

    a = sorted(zip(par["offset"].tolist(), par["length"].tolist(),
                   (int(x) for x in par["hash"].tolist())))
    b = sorted(zip(off.tolist(), ln.tolist(), (int(x) for x in h.tolist())))
    total = int(par["length"].sum())
    eq = int(a == b and total == size)
    return _one_row(total_bytes=total, stitch_eq_whole=eq)


NDI_COPY_OFFSET = 10_000_000


def neardup_incr_twin_gate(documents_ds, every: int = 10,
                           tau: float = 0.5) -> pa.Table:
    """(n_planted, n_matched): exact copies of every shingle-bearing
    ``doc_id % every == 0`` document, ingested as crawl snapshot 2
    through the standing sharded LSH index after snapshot 1 (the full
    corpus), must ALL come back matched with sim_ppm = 1_000_000 —
    identical text -> identical MinHash signature -> every band
    collides and exact verification scores 1.0.  The oracle counts the
    same population (>= 1 TOKEN_RE token, mirrored SQL regexp).
    ``tau > 1`` is the falsifiability knob (nothing reaches it)."""
    import pyarrow.compute as pc

    from ..pipelines.neardup import doc_signatures
    from .neardup_incr import incremental_neardup_snapshots

    docs = documents_ds.select_columns(["doc_id", "text"]).materialize()

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.max()) >= NDI_COPY_OFFSET:
            raise ValueError("doc_id >= NDI_COPY_OFFSET — raise offset")
        sel = np.flatnonzero(ids % every == 0)
        return pa.table({
            "doc_id": pa.array(ids[sel] + NDI_COPY_OFFSET, pa.int64()),
            "text": t["text"].combine_chunks().take(
                pa.array(sel, pa.int64())),
        })

    sig_a = doc_signatures(docs)
    sig_b = doc_signatures(
        docs.map_batches(plant, batch_format="pyarrow"))
    n_planted = sig_b.count()
    out = incremental_neardup_snapshots([sig_a, sig_b], tau=tau)

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        ids = pc.cast(t["conv_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        m = t["matched"].combine_chunks().to_numpy(zero_copy_only=False)
        sim = t["sim_ppm"].combine_chunks().to_numpy(zero_copy_only=False)
        hit = (ids >= NDI_COPY_OFFSET) & m & (sim == 1_000_000)
        return pa.table({"n": pa.array([int(hit.sum())], pa.int64())})

    n = 0
    for b in out.map_batches(partial, batch_format="pyarrow"
                             ).iter_batches(batch_format="pyarrow"):
        n += sum(b["n"].to_pylist())
    return _one_row(n_planted=n_planted, n_matched=n)


def media_roundtrip_gate(n: int, corrupt: bool = False) -> pa.Table:
    """(n_media, n_roundtrip_ok): over the deterministic REAL-format
    corpus (genuine 24-bit BMP / 16-bit PCM WAV bytes), decode with the
    pure-numpy magic-byte decoder and re-encode with the canonical
    writer; the bytes must round-trip EXACTLY and the decoded shape must
    match the typed metadata.  Runs as the same actor-pool map_batches
    shape as the production featurizer (state in __init__).  ``corrupt``
    flips one payload byte per row — the falsifiability knob."""
    import ray.data as rd

    from .multimodal import (
        decode_bmp,
        decode_wav,
        encode_bmp,
        encode_wav,
        synth_real_media_table,
    )

    media = rd.from_arrow(synth_real_media_table(n=n))

    class RoundTripper:
        def __init__(self):
            self.dec = {"image": decode_bmp, "audio": decode_wav}
            self.enc = {"image": encode_bmp, "audio": encode_wav}

        def __call__(self, t: pa.Table) -> pa.Table:
            ok = 0
            mt = t["media_type"].to_pylist()
            meta = t["meta"].to_pylist()
            for i, payload in enumerate(t["payload"].to_pylist()):
                if corrupt:
                    payload = payload[:-1] + bytes(
                        [payload[-1] ^ 0xFF])
                try:
                    arr = self.dec[mt[i]](payload)
                except Exception:
                    continue
                shape_ok = (arr.shape[-1] == meta[i]["width"]
                            and (mt[i] == "audio"
                                 or arr.shape[0] == meta[i]["height"]))
                if shape_ok and self.enc[mt[i]](arr) == payload:
                    ok += 1
            return pa.table({"n": pa.array([len(t)], pa.int64()),
                             "ok": pa.array([ok], pa.int64())})

    tot = good = 0
    for b in media.map_batches(RoundTripper, batch_size=16, concurrency=2,
                               batch_format="pyarrow"
                               ).iter_batches(batch_format="pyarrow"):
        tot += sum(b["n"].to_pylist())
        good += sum(b["ok"].to_pylist())
    return _one_row(n_media=tot, n_roundtrip_ok=good)


FP_COPY_OFFSET = 10_000_000


def fingerprint_twin_gate(documents_ds, every: int = 10,
                          perturb: bool = False) -> pa.Table:
    """(n_planted, n_equal): an exact copy of every ``doc_id % every ==
    0`` document must produce a byte-identical rolling-hash fingerprint
    (functions/text.py fingerprint_batch: content-defined chunk hashes
    mixed with ordinals).  Pairs co-locate through ONE keyed exchange on
    the base id; per-block equality counts merge on the driver.
    ``perturb`` appends one byte to each copy — the falsifiability knob
    (a content change MUST flip the fingerprint)."""
    import pyarrow.compute as pc

    from ..functions.text import fingerprint_batch

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.max()) >= FP_COPY_OFFSET:
            raise ValueError("doc_id >= FP_COPY_OFFSET — raise offset")
        sel = np.flatnonzero(ids % every == 0)
        text = t["text"].combine_chunks()
        copies = text.take(pa.array(sel, pa.int64()))
        if perturb:
            copies = pc.binary_join_element_wise(
                copies, pa.scalar("!"), "")
        return pa.table({
            "doc_id": pa.array(
                np.concatenate([ids, ids[sel] + FP_COPY_OFFSET]),
                pa.int64()),
            "text": pa.concat_arrays([text, copies]),
        })

    fp = documents_ds.select_columns(["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow").map_batches(
        fingerprint_batch, batch_format="pyarrow")

    def base(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            "pair": pa.array(ids % FP_COPY_OFFSET, pa.int64()),
            "is_copy": pa.array((ids >= FP_COPY_OFFSET).astype(np.int8),
                                pa.int8()),
            "fp": t["fingerprint"],
        })

    ex = fp.map_batches(base, batch_format="pyarrow").repartition(
        num_blocks=8, keys=["pair"])

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"np_": pa.array([0], pa.int64()),
                             "ne": pa.array([0], pa.int64())})
        pair = t["pair"].combine_chunks().to_numpy(zero_copy_only=False)
        isc = t["is_copy"].combine_chunks().to_numpy(zero_copy_only=False)
        v = t["fp"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((isc, pair))
        pair, isc, v = pair[order], isc[order], v[order]
        copies = isc == 1
        n_pl = int(copies.sum())
        # base row for pair p directly precedes its copy row (lexsort)
        pos = np.flatnonzero(copies)
        ok = (pos > 0) & (pair[np.maximum(pos - 1, 0)] == pair[pos]) \
            & (isc[np.maximum(pos - 1, 0)] == 0)
        n_eq = int((v[np.maximum(pos - 1, 0)][ok]
                    == v[pos][ok]).sum()) if len(pos) else 0
        return pa.table({"np_": pa.array([n_pl], pa.int64()),
                         "ne": pa.array([n_eq], pa.int64())})

    n_pl = n_eq = 0
    for b in ex.map_batches(partial, batch_format="pyarrow",
                            batch_size=None).iter_batches(
            batch_format="pyarrow"):
        n_pl += sum(b["np_"].to_pylist())
        n_eq += sum(b["ne"].to_pylist())
    return _one_row(n_planted=n_pl, n_equal=n_eq)


ELSH_COPY_OFFSET = 10_000_000


def embed_lsh_twin_gate(embeddings_ds, every: int = 5,
                        tau: float = 0.99) -> pa.Table:
    """(n_planted, n_paired): an identical copy of every ``vec_id %
    every == 0`` embedding lands in the same bucket of EVERY hyperplane
    table (deterministic planes, identical vector) and verifies at
    cosine exactly 1 — so embed_neardup_lsh must emit the (base, copy)
    pair for every planted copy.  ``tau > 1`` is the falsifiability
    knob (cosine cannot exceed 1)."""
    from .embed_lsh import embed_neardup_lsh

    def plant(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.max()) >= ELSH_COPY_OFFSET:
            raise ValueError("vec_id >= ELSH_COPY_OFFSET — raise offset")
        sel = np.flatnonzero(ids % every == 0)
        base = pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": t["embedding"]})
        if len(sel) == 0:
            return base
        return pa.concat_tables([base, pa.table({
            "vec_id": pa.array(ids[sel] + ELSH_COPY_OFFSET, pa.int64()),
            "embedding": t["embedding"].combine_chunks().take(
                pa.array(sel, pa.int64())),
        })])

    planted = embeddings_ds.select_columns(
        ["vec_id", "embedding"]).materialize()

    def count_planted(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].combine_chunks().to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({"n": pa.array([int((ids % every == 0).sum())],
                                       pa.int64())})

    n_planted = 0
    for b in planted.map_batches(count_planted, batch_format="pyarrow"
                                 ).iter_batches(batch_format="pyarrow"):
        n_planted += sum(b["n"].to_pylist())

    pairs = embed_neardup_lsh(
        planted.map_batches(plant, batch_format="pyarrow"), tau=tau)

    def hit_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        hit = (hi == lo + ELSH_COPY_OFFSET) & (lo % every == 0)
        return pa.table({"n": pa.array([int(hit.sum())], pa.int64())})

    n = 0
    for b in pairs.map_batches(hit_partial, batch_format="pyarrow"
                               ).iter_batches(batch_format="pyarrow"):
        n += sum(b["n"].to_pylist())
    return _one_row(n_planted=n_planted, n_paired=n)


def pq_endpoint_gate(emb_ds, qids, qmat, k: int = 10, m: int = 8,
                     ks: int = 16, truth_k: int | None = None) -> pa.Table:
    """(n_queries, match_permille): with the ADC shortlist widened to
    the WHOLE corpus (rerank*k >= n), PQ's exact re-rank phase selects
    from every vector's true cosine, so the per-query top-k SET must
    equal exact brute force — the compressed-scan twin of
    ann_recall_monotone's all-cells endpoint.  PQ's lossy codes decide
    only the shortlist, and an all-corpus shortlist makes them
    irrelevant; anything below 1000 permille means the re-rank phase
    itself (fetch / searchsorted alignment / merge) is broken.
    ``truth_k`` is the falsifiability knob (mismatched truth drops the
    endpoint)."""
    from .ann import ann_topk_bruteforce, ann_topk_pq

    n = emb_ds.count()
    rerank = -(-n // k) + 1          # shortlist covers the corpus
    pq = ann_topk_pq(emb_ds, qids, qmat, k=k, m=m, ks=ks, rerank=rerank)
    bf = ann_topk_bruteforce(emb_ds, qids, qmat, k=truth_k or k)

    def pairs(t: pa.Table) -> dict[int, set]:
        out: dict[int, set] = {}
        for q, v in zip(t["query_id"].to_pylist(),
                        t["neighbor_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    a, b = pairs(pq), pairs(bf)
    num = sum(len(a.get(q, set()) & tv) for q, tv in b.items())
    den = sum(len(tv) for tv in b.values())
    return _one_row(n_queries=len(b),
                    match_permille=1000 * num // max(1, den))


def neardup_keep_gate(transcripts_ds, keep_all: bool = False) -> pa.Table:
    """(n_exact_twins, n_both_kept): the dedup ACTION gate — the corpus
    derivation plants byte-identical twins (``twin-X`` copies ``conv-X``
    when X % 20 == 0), twin recall puts each pair in one cluster, and
    ``representatives`` keeps exactly ONE conversation per cluster, so
    no exact-twin pair may survive dedup intact: n_both_kept == 0,
    always.  n_exact_twins is the SQL-derivable census (the
    neardup_twin_recall expression).  ``keep_all=True`` bypasses the
    representative selection — the falsifiability knob (every pair then
    survives, n_both_kept == n_exact_twins > 0)."""
    import pyarrow.compute as pc

    from ..pipelines.neardup import neardup_clusters, representatives

    clusters = neardup_clusters(transcripts_ds, num_partitions=16,
                                verify_threshold=0.4).materialize()
    kept = clusters if keep_all else representatives(clusters)

    # census over the FULL cluster table (every conv appears once)
    def census(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].combine_chunks()
        if len(conv) == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        num = conv_numbers(conv).to_numpy(zero_copy_only=False)
        is_twin = pc.equal(pc.utf8_slice_codeunits(conv, 0, 5),
                           "twin-").to_numpy(zero_copy_only=False)
        return pa.table({"n": pa.array(
            [int((is_twin & (num % 20 == 0)).sum())], pa.int64())})

    n_twins = 0
    for b in clusters.map_batches(census, batch_format="pyarrow"
                                  ).iter_batches(batch_format="pyarrow"):
        n_twins += sum(b["n"].to_pylist())

    def tag(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].combine_chunks()
        if len(conv) == 0:
            return pa.table({"num": pa.array([], pa.int64()),
                             "is_twin": pa.array([], pa.int8())})
        num = conv_numbers(conv)
        n = num.to_numpy(zero_copy_only=False)
        is_twin = pc.equal(pc.utf8_slice_codeunits(conv, 0, 5),
                           "twin-").cast(pa.int8())
        return pa.table({"num": num, "is_twin": is_twin}).filter(
            pa.array(n % 20 == 0))

    ex = kept.map_batches(tag, batch_format="pyarrow").repartition(
        num_blocks=8, keys=["num"])

    def both_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n": pa.array([0], pa.int64())})
        num = t["num"].combine_chunks().to_numpy(zero_copy_only=False)
        tw = t["is_twin"].combine_chunks().to_numpy(zero_copy_only=False)
        u = np.unique(num)
        both = 0
        for x in u:  # pairs per block: tiny (twin census / partitions)
            m = num == x
            if (tw[m] == 1).any() and (tw[m] == 0).any():
                both += 1
        return pa.table({"n": pa.array([both], pa.int64())})

    n_both = 0
    for b in ex.map_batches(both_partial, batch_format="pyarrow",
                            batch_size=None).iter_batches(
            batch_format="pyarrow"):
        n_both += sum(b["n"].to_pylist())
    return _one_row(n_exact_twins=n_twins, n_both_kept=n_both)


def stream_parity_gate(sf_dir: str, num_partitions: int = 8) -> pa.Table:
    """(n_docs, n_equal): the bounded-memory StreamChunker path over the
    staged per-document files must produce EXACTLY the whole-file
    source's chunk rows, compared per document as ordered
    (offset, length, hash) sequences through one tag-union keyed
    exchange — the corpus-level SQL-gated twin of the synthetic
    stream≡slice parity pytests.  n_docs = documents with >= 1 byte
    (empty files emit no chunk rows on either path), which the oracle
    derives as COUNT(*) WHERE strlen(text) > 0."""
    from ..cdc import ChunkerConfig  # noqa: F401  (doc anchor)
    from ..sources.files import chunks_from_document_files

    whole = chunks_from_document_files(sf_dir, None, streamed=False)
    stream = chunks_from_document_files(sf_dir, None, streamed=True)

    tagged = pa.schema([("doc_id", pa.int64()), ("offset", pa.int64()),
                        ("length", pa.int64()), ("hash", pa.uint64()),
                        ("tag", pa.int8())])

    def rows(tag_v):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": t["doc_id"],
                "offset": pc.cast(t["offset"], pa.int64()),
                "length": pc.cast(t["length"], pa.int64()),
                "hash": pc.cast(t["hash"], pa.uint64()),
                "tag": pa.array(np.full(len(t), tag_v, np.int8),
                                pa.int8()),
            }).cast(tagged)
        return f

    ex = (whole.map_batches(rows(0), batch_format="pyarrow")
          .union(stream.map_batches(rows(1), batch_format="pyarrow"))
          .repartition(num_blocks=num_partitions, keys=["doc_id"]))

    def compare_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"nd": pa.array([0], pa.int64()),
                             "ne": pa.array([0], pa.int64())})
        doc = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        off = t["offset"].combine_chunks().to_numpy(zero_copy_only=False)
        ln = t["length"].combine_chunks().to_numpy(zero_copy_only=False)
        hv = t["hash"].combine_chunks().to_numpy(zero_copy_only=False)
        tg = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((hv, ln, off, tg, doc))
        doc, off, ln, hv, tg = (doc[order], off[order], ln[order],
                                hv[order], tg[order])
        nd = ne = 0
        starts = np.concatenate(
            [[0], np.flatnonzero(doc[1:] != doc[:-1]) + 1, [len(doc)]])
        for s, e in zip(starts[:-1], starts[1:]):
            nd += 1
            a = tg[s:e] == 0
            b = ~a
            if a.sum() != b.sum():
                continue
            if (np.array_equal(off[s:e][a], off[s:e][b])
                    and np.array_equal(ln[s:e][a], ln[s:e][b])
                    and np.array_equal(hv[s:e][a], hv[s:e][b])):
                ne += 1
        return pa.table({"nd": pa.array([nd], pa.int64()),
                         "ne": pa.array([ne], pa.int64())})

    nd = ne = 0
    for b in ex.map_batches(compare_block, batch_format="pyarrow",
                            batch_size=None).iter_batches(
            batch_format="pyarrow"):
        nd += sum(b["nd"].to_pylist())
        ne += sum(b["ne"].to_pylist())
    return _one_row(n_docs=nd, n_equal=ne)


def media_thumbs_gate(n: int, thumb: int = 16,
                      wrong_thumb: int | None = None) -> pa.Table:
    """(n_images, n_thumb_ok): every BMP row's thumbnail payload decodes
    back to exactly ``thumb`` x ``thumb`` with a gray_sum matching the
    emitted metadata; audio rows pass through with null thumbs.  The
    oracle restates n_images from the corpus scaling rule (even rows of
    the synthetic media table are images).  ``wrong_thumb`` decodes
    against a different expected size — the falsifiability knob."""
    import ray.data as rd

    from .multimodal import (
        decode_bmp,
        media_thumbnails,
        synth_real_media_table,
    )

    media = rd.from_arrow(synth_real_media_table(n=n))
    out = media_thumbnails(media, thumb=thumb)
    want = wrong_thumb or thumb

    def check(t: pa.Table) -> pa.Table:
        n_img = ok = 0
        kinds = t["kind"].to_pylist()
        gsum = t["gray_sum"].to_pylist()
        for i, blob in enumerate(t["thumb"].to_pylist()):
            if kinds[i] != "image":
                if blob is not None:
                    raise ValueError("audio row carries a thumb payload")
                continue
            n_img += 1
            frame = decode_bmp(blob)
            if frame.shape == (want, want) \
                    and int(frame.astype(np.int64).sum()) == gsum[i]:
                ok += 1
        return pa.table({"n": pa.array([n_img], pa.int64()),
                         "ok": pa.array([ok], pa.int64())})

    n_img = ok = 0
    for b in out.map_batches(check, batch_format="pyarrow"
                             ).iter_batches(batch_format="pyarrow"):
        n_img += sum(b["n"].to_pylist())
        ok += sum(b["ok"].to_pylist())
    return _one_row(n_images=n_img, n_thumb_ok=ok)


def cluster_terms_gate(documents_ds, embeddings_ds, k: int = 8,
                       top_n: int = 3, perturb: bool = False) -> pa.Table:
    """(n_rows, n_consistent): every cluster_terms output row's claimed
    ``total_cnt`` must equal an INDEPENDENT streaming recount of that
    token over the CLUSTERED sub-corpus — the documents that actually
    carry an embedding row, which is cluster_terms' counting universe
    (at sf0.1 only 2000 of 5000 documents are embedded; a full-corpus
    recount is ~2.5x larger — the bug this gate's first version had).
    Same shared tokenizer, none of the topics pipeline's
    join/exchange/merge machinery, so a broken doc-cluster attach or
    count merge flips the gate.  Additionally 1 <= cnt <= total_cnt and
    ranks must be the distinct 0..top_n-1 per cluster.  n_rows =
    k * top_n, restated by the oracle.
    ``perturb`` offsets the recount by one — the falsifiability knob.

    The embedded-doc id set broadcasts into the recount tasks (8 bytes
    per embedded doc — gate-acceptable here; a 100 TB gate would
    semi-join on doc_id instead)."""
    import ray

    from ..functions.text import _flat_tokens
    from .topics import cluster_terms

    documents_ds = documents_ds.materialize()
    embeddings_ds = embeddings_ds.materialize()
    out = cluster_terms(documents_ds, embeddings_ds, k=k, top_n=top_n)
    toks = sorted(set(out["token"].to_pylist()))
    tok_index = {t: i for i, t in enumerate(toks)}

    ids = []
    for b in embeddings_ds.select_columns(["vec_id"]).iter_batches(
            batch_format="pyarrow", batch_size=None):
        ids.append(b["vec_id"].to_numpy(zero_copy_only=False))
    emb_ids = np.sort(np.concatenate(ids)) if ids else np.empty(
        0, np.int64)
    idref = ray.put(emb_ids)

    def recount(t: pa.Table, _toks=tuple(toks)) -> pa.Table:
        eids = ray.get(idref)
        doc = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        pos = np.searchsorted(eids, doc)
        keep = np.flatnonzero(
            (pos < len(eids)) & (eids[np.minimum(pos, len(eids) - 1)]
                                 == doc)) if len(eids) else np.empty(0,
                                                                     np.int64)
        sub = t.take(pa.array(keep, pa.int64()))
        cnt = np.zeros(len(_toks), np.int64)
        if len(sub):
            flat, _row, _n = _flat_tokens(sub["text"])
            if len(flat):
                import pyarrow as _pa

                arr = flat if isinstance(flat, _pa.Array) else \
                    _pa.array(flat)
                for i, tk in enumerate(_toks):
                    cnt[i] = pc.sum(pc.equal(arr, tk)).as_py() or 0
        return pa.table({
            "ix": pa.array(np.arange(len(_toks), dtype=np.int64),
                           pa.int64()),
            "c": pa.array(cnt, pa.int64()),
        })

    totals = np.zeros(len(toks), np.int64)
    for b in documents_ds.select_columns(["doc_id", "text"]).map_batches(
            recount, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        np.add.at(totals, b["ix"].to_numpy(zero_copy_only=False),
                  b["c"].to_numpy(zero_copy_only=False))
    if perturb:
        totals = totals + 1

    n_rows = len(out)
    n_ok = 0
    seen_ranks: dict[int, set] = {}
    for cl, rk, tok, cnt, tot in zip(out["cluster"].to_pylist(),
                                     out["rank"].to_pylist(),
                                     out["token"].to_pylist(),
                                     out["cnt"].to_pylist(),
                                     out["total_cnt"].to_pylist()):
        ranks = seen_ranks.setdefault(cl, set())
        ok = (tot == int(totals[tok_index[tok]])
              and 1 <= cnt <= tot
              and 0 <= rk < top_n and rk not in ranks)
        ranks.add(rk)
        n_ok += int(ok)
    return _one_row(n_rows=n_rows, n_consistent=n_ok)


def media_frames_gate(n: int, every_k: int = 4,
                      wrong_k: int | None = None) -> pa.Table:
    """(n_media, n_frame_match): the frame-sampling plan emits exactly
    ceil(n_frames / k) rows per media item, where n_frames is re-derived
    INDEPENDENTLY from each payload's self-describing header (the
    sampler itself reads the meta struct — a drifted meta/payload pair
    or a broken index explosion both break the match).  Closes the
    rows-only coverage gap for ``media_frames`` (VERDICT r4 item 6).
    ``wrong_k`` recomputes the expectation with a different stride —
    the falsifiability knob."""
    import ray.data as rd

    from .multimodal import sample_frames, synth_media_table

    media_t = synth_media_table(n=n)
    frames = sample_frames(rd.from_arrow(media_t), every_k=every_k,
                           batch_size=16, concurrency=2)

    # independent expectation: payload header bytes 0:12 are
    # (w, h, n_frames) as little-endian int32 (synth_media_table:54)
    expect: dict[int, int] = {}
    kk = wrong_k or every_k
    for mid, payload in zip(media_t["id"].to_pylist(),
                            media_t["payload"].to_pylist()):
        f = int(np.frombuffer(payload[:12], dtype=np.int32)[2])
        expect[int(mid)] = (f + kk - 1) // kk

    got: dict[int, int] = {}
    for b in frames.select_columns(["id"]).iter_batches(
            batch_format="pyarrow"):
        ids = b["id"].to_numpy(zero_copy_only=False)
        u, c = np.unique(ids, return_counts=True)
        for i, cnt in zip(u.tolist(), c.tolist()):
            got[i] = got.get(i, 0) + cnt  # per-row counts: coalescing-safe

    n_match = sum(1 for i, e in expect.items() if got.get(i, 0) == e)
    return _one_row(n_media=len(expect), n_frame_match=n_match)
