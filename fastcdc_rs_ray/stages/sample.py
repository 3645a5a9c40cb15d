"""Deterministic hash-based sampling — the reproducible subsetting stage a
training-data pipeline needs (the reference has none, SURVEY.md §2.6).

``ds.random_sample`` is non-deterministic across runs/retries; a
multiplicative-hash bucket on a stable key is embarrassingly parallel,
needs no shuffle and no driver state, picks the SAME rows on every run and
on every retry of a failed block (resumability), and is expressible in SQL
for the oracle gate.  The multiplier is the 64-bit golden-ratio constant
(odd, hence invertible mod 2^64 — a bijection on u64 keys, so bucket
occupancy mirrors the key distribution exactly).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SAMPLE_MULT = 0x9E3779B97F4A7C15  # 11400714819323198485, odd
SAMPLE_PCT = 10  # keep bucket < 10 of 100 -> deterministic 10% sample


def hash_bucket(keys: np.ndarray, mod: int = 100) -> np.ndarray:
    """(key * GOLDEN) wrapped to u64, then % mod — exact counterpart of the
    SQL ``(CAST(k AS HUGEINT) * MULT) % 2^64 % mod``."""
    k = keys.astype(np.uint64, copy=False)
    return (k * np.uint64(SAMPLE_MULT)) % np.uint64(mod)


def hash_sample(ds, key: str = "doc_id", pct: int = SAMPLE_PCT):
    """Filter to rows whose key hashes into the first ``pct`` of 100
    buckets.  Pure per-block map — no exchange at any scale."""

    def per_block(t: pa.Table) -> pa.Table:
        kv = t[key].combine_chunks().to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(hash_bucket(kv) < pct)
        return t.take(pa.array(sel, pa.int64()))

    return ds.map_batches(per_block, batch_format="pyarrow")


def sample_docs(documents_ds, pct: int = SAMPLE_PCT):
    """documents -> deterministic pct% sample as (doc_id, n_chars)."""
    sampled = hash_sample(documents_ds, key="doc_id", pct=pct)

    def project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pc.cast(pc.binary_length(t["text"]), pa.int64()),
            }
        )

    return sampled.map_batches(project, batch_format="pyarrow")


SAMPLE_DOCS_SQL = f"""
SELECT doc_id, strlen(text) AS n_chars
FROM documents
WHERE (CAST(doc_id AS HUGEINT) * {SAMPLE_MULT})
      % 18446744073709551616 % 100 < {SAMPLE_PCT}
"""

STRATA_N = 25  # deterministic per-stratum sample size


def stratified_sample_events(events_ds, n: int = STRATA_N,
                             num_partitions: int = 4):
    """Stratified deterministic sample: for every event_type, the ``n``
    events whose (bijective multiplicative) event_id hash is smallest —
    reproducible across runs and block retries, like :func:`hash_sample`.

    Combiner shape: each block keeps only its local n-per-stratum
    candidates (the full data never shuffles — the few-strata key space
    would make a raw keyed exchange maximally skewed), then one tiny
    keyed exchange on event_type merges candidate sets and re-applies the
    same selection.  The hash is a bijection on u64, so ranks are
    collision-free and the selection is unique."""

    def topn_per_type(t: pa.Table) -> pa.Table:
        n_rows = len(t)
        if n_rows == 0:
            return t.select(["event_type", "event_id", "user_id"])
        eid = t["event_id"].combine_chunks().to_numpy(zero_copy_only=False)
        hv = eid.astype(np.uint64) * np.uint64(SAMPLE_MULT)
        enc = t["event_type"].combine_chunks().dictionary_encode()
        code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((hv, code))
        starts = np.concatenate(
            [[0], np.flatnonzero(code[order][1:] != code[order][:-1]) + 1]
        )
        rank = np.arange(n_rows) - np.repeat(
            starts, np.diff(np.append(starts, n_rows))
        )
        sel = pa.array(order[rank < n], pa.int64())
        return t.select(["event_type", "event_id", "user_id"]).take(sel)

    cands = events_ds.map_batches(
        lambda t: topn_per_type(t), batch_format="pyarrow"
    )
    cands = cands.repartition(num_blocks=num_partitions, keys=["event_type"])
    return cands.map_batches(topn_per_type, batch_format="pyarrow",
                             batch_size=None)


STRATIFIED_SAMPLE_SQL = f"""
SELECT event_type, event_id, user_id FROM (
  SELECT event_type, event_id, user_id,
         ROW_NUMBER() OVER (
           PARTITION BY event_type
           ORDER BY (CAST(event_id AS HUGEINT) * {SAMPLE_MULT})
                    % 18446744073709551616) AS rk
  FROM events) WHERE rk <= {STRATA_N}
"""


TRAIN_PM, VAL_PM = 980, 10  # per-mille split thresholds


def train_val_split(documents_ds, train_pm: int = TRAIN_PM,
                    val_pm: int = VAL_PM):
    """Deterministic train/val/test corpus split — the sample-construction
    step downstream of the dedup tiers: each doc routes to a split by a
    bijective multiplicative hash bucket of ``doc_id`` (per-mille
    thresholds), so membership is reproducible across runs, block retries,
    and re-partitioning, and adding new docs never moves old ones between
    splits.  Returns the per-split audit rollup (doc count + char volume);
    the split column itself is a free ``add_column`` on the same hash for
    pipelines that write the three corpora.  Zero shuffle: 3-row partials
    per block, driver merge.  No reference counterpart (SURVEY.md §2.6)."""
    splits = np.array(["train", "val", "test"], dtype=object)

    def partial(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        bucket = (did.astype(np.uint64) * np.uint64(SAMPLE_MULT)) % np.uint64(1000)
        sid = np.where(bucket < train_pm, 0,
                       np.where(bucket < train_pm + val_pm, 1, 2))
        chars = pc.cast(
            pc.binary_length(t["text"]), pa.int64()
        ).combine_chunks().to_numpy(zero_copy_only=False)
        n = np.bincount(sid, minlength=3).astype(np.int64)
        s = np.zeros(3, np.int64)
        np.add.at(s, sid, chars)
        return pa.table({
            "split_id": pa.array([0, 1, 2], pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "sum_chars": pa.array(s, pa.int64()),
        })

    partials = documents_ds.map_batches(partial, batch_format="pyarrow")
    n = np.zeros(3, np.int64)
    s = np.zeros(3, np.int64)
    for b in partials.iter_batches(batch_format="pyarrow"):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        sid = t["split_id"].to_numpy(zero_copy_only=False)
        np.add.at(n, sid, t["n_docs"].to_numpy(zero_copy_only=False))
        np.add.at(s, sid, t["sum_chars"].to_numpy(zero_copy_only=False))
    keep = np.flatnonzero(n)
    return pa.table({
        "split": pa.array(splits[keep].tolist(), pa.string()),
        "n_docs": pa.array(n[keep], pa.int64()),
        "sum_chars": pa.array(s[keep], pa.int64()),
    })


TRAIN_VAL_SPLIT_SQL = f"""
WITH b AS (
  SELECT CASE
           WHEN (CAST(doc_id AS HUGEINT) * {SAMPLE_MULT})
                % 18446744073709551616 % 1000 < {TRAIN_PM} THEN 'train'
           WHEN (CAST(doc_id AS HUGEINT) * {SAMPLE_MULT})
                % 18446744073709551616 % 1000 < {TRAIN_PM + VAL_PM} THEN 'val'
           ELSE 'test'
         END AS split,
         strlen(text) AS n_chars
  FROM documents
)
SELECT split, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM b GROUP BY split
"""


WEIGHTED_K = 100  # global weighted-sample size


def weighted_sample_docs(documents_ds, k: int = WEIGHTED_K):
    """Deterministic WEIGHTED sample without replacement: the ``k`` docs
    with the smallest ``hash(doc_id) / weight`` score, weight =
    ``len(text)`` — the quality/length-weighted corpus-selection step of a
    training-data pipeline (heavier docs win proportionally more of the
    race).

    Scheme note: this is the rational-race variant of weighted sampling,
    not Efraimidis-Spirakis's exponential race (that needs ``ln(u)``, and
    libm logs differ by 1 ulp across engines, which can flip ranks at the
    boundary).  IEEE double DIVISION is correctly rounded, and u64->double
    conversion is too, so ``double(h)/double(w)`` is bit-identical in
    numpy and DuckDB — the score is exactly SQL-checkable.  Inclusion
    still rises monotonically with weight; determinism, mergeability and
    an exact oracle are what the engine trades the exact E-S inclusion
    probabilities for.

    Combiner shape: each block keeps its local k smallest scores (the
    data never shuffles), the driver merges ``k x blocks`` candidate rows
    and re-applies the same selection — identical discipline to
    :func:`stratified_sample_events`, with a global instead of per-key
    race.  Ties (h/w collisions) break by ascending doc_id on both sides.
    """

    def topk(t: pa.Table) -> pa.Table:
        did = t["doc_id"].combine_chunks().to_numpy(zero_copy_only=False)
        n_chars = pc.utf8_length(t["text"].combine_chunks()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        h = (did.astype(np.uint64) * np.uint64(SAMPLE_MULT)).astype(
            np.float64)
        score = h / n_chars.astype(np.float64)
        sel = np.lexsort((did, score))[:k]
        return pa.table({
            "doc_id": pa.array(did[sel], pa.int64()),
            "n_chars": pa.array(n_chars[sel], pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
        })

    parts = pa.concat_tables(
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in documents_ds.map_batches(topk, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    )
    did = parts["doc_id"].to_numpy(zero_copy_only=False)
    score = parts["score"].to_numpy(zero_copy_only=False)
    sel = np.lexsort((did, score))[:k]
    return pa.table({
        "doc_id": pa.array(did[sel], pa.int64()),
        "n_chars": pa.array(
            parts["n_chars"].to_numpy(zero_copy_only=False)[sel], pa.int64()),
    })


WEIGHTED_SAMPLE_SQL = f"""
SELECT doc_id, n_chars FROM (
  SELECT doc_id, strlen(text) AS n_chars,
         ROW_NUMBER() OVER (ORDER BY
           CAST((CAST(doc_id AS HUGEINT) * {SAMPLE_MULT})
                % 18446744073709551616 AS DOUBLE) / strlen(text),
           doc_id) AS rk
  FROM documents) WHERE rk <= {WEIGHTED_K}
"""


SHUFFLE_SEED = 0


def corpus_shuffle(documents_ds, seed: int = SHUFFLE_SEED,
                   id_col: str = "doc_id"):
    """Deterministic GLOBAL permutation of the corpus with explicit
    positions — the training-order epoch shuffle.  ``ds.random_shuffle``
    is non-reproducible across runs and block retries; here the order is a
    pure function of (id, seed): ``skey = (id XOR seed) * GOLDEN mod 2^64``
    (bijective — no ties, every epoch seed a different full permutation),
    and the output row is ``(doc_id, pos)`` with pos the global rank of
    skey.

    Positions come WITHOUT any driver-side enumeration: after the range
    sort on skey (the one exchange — Ray's sort keeps blocks as globally
    ordered, disjoint key ranges), a one-row-per-block summary pass gives
    the driver (first_skey, count) pairs; the prefix-sum offsets broadcast
    back, and each block finds its own offset by searchsorted on its first
    key (stages/balance.py uses the same boundary stitch).  The
    permutation is retry-stable and identical at any block count.
    """
    import ray

    def keyed(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        skey = (ids.astype(np.uint64) ^ np.uint64(seed)) * np.uint64(SAMPLE_MULT)
        return pa.table({
            "skey": pa.array(skey, pa.uint64()),
            id_col: pa.array(ids, pa.int64()),
        })

    sorted_ds = documents_ds.map_batches(
        keyed, batch_format="pyarrow").sort("skey").materialize()

    def block_summary(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"first": pa.array([], pa.uint64()),
                             "cnt": pa.array([], pa.int64())})
        sk = t["skey"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"first": pa.array([sk[0]], pa.uint64()),
                         "cnt": pa.array([len(sk)], pa.int64())})

    summ = pa.concat_tables(
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in sorted_ds.map_batches(
            block_summary, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow")
    )
    first = summ["first"].to_numpy(zero_copy_only=False)
    cnt = summ["cnt"].to_numpy(zero_copy_only=False)
    order = np.argsort(first, kind="stable")
    first = first[order]
    offsets = np.concatenate([[0], np.cumsum(cnt[order])[:-1]]).astype(np.int64)
    stitch = ray.put((first, offsets))

    def assign(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int64())})
        fb, ob = ray.get(stitch)
        sk = t["skey"].combine_chunks().to_numpy(zero_copy_only=False)
        base = ob[np.searchsorted(fb, sk[0])]
        return pa.table({
            id_col: t[id_col],
            "pos": pa.array(base + np.arange(len(sk), dtype=np.int64),
                            pa.int64()),
        })

    return sorted_ds.map_batches(assign, batch_format="pyarrow",
                                 batch_size=None)


# (x * MULT) mod 2^64 via 32-bit split-multiply so no intermediate exceeds
# HUGEINT even when xor(doc_id, seed) approaches 2^64 — a direct
# HUGEINT multiply overflows for xor values >= ~2^63.7 with a nonzero seed.
_MULT_LO = SAMPLE_MULT & 0xFFFFFFFF
_MULT_HI = SAMPLE_MULT >> 32

CORPUS_SHUFFLE_SQL = f"""
WITH x AS (
  SELECT doc_id,
         CAST(xor(CAST(doc_id AS UBIGINT), {SHUFFLE_SEED}::UBIGINT)
              AS HUGEINT) AS xv
  FROM documents
)
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (ORDER BY
         ((xv % 4294967296) * {_MULT_LO}
          + (((xv % 4294967296) * {_MULT_HI}
              + (xv // 4294967296) * {_MULT_LO}) % 4294967296) * 4294967296)
         % 18446744073709551616) - 1 AS BIGINT) AS pos
FROM x
"""
