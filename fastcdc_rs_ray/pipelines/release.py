"""curation_release — the composed end-to-end "curation release" entry
(VERDICT r4 item 8): chain the engine's training-data operators the way
a real 100 TB pretraining build would, with CONSERVATION LAWS checked
at every stage boundary,

    documents
      -> curate_docs            (quality + lang + exact-dedup, fused scan)
      -> near-dup clusters      (flagship MinHash/LSH/CC on the curated
                                 sub-corpus's transcripts)
      -> representatives        (keep one conversation per cluster)
      -> split_by_cluster       (leakage-safe train/val/test)
      -> pack_docs              (fixed-token-budget bins on the release)
      -> data_card              (release summary)

and emit ONE row the driver hash-gates:

    n_docs_in        COUNT(documents)               (SQL-restated)
    n_curated        the curate predicate count     (SQL-restated —
                     replays the full quality/lang/dedup predicate)
    keep_conserved   1 iff |reps| == |distinct clusters| and
                     sum(n_members) == |clustered convs| (nothing
                     lost or duplicated by the keep stage)
    split_conserved  1 iff every cluster's members share ONE split and
                     train+val+test == |convs| (leakage-safe and total)
    pack_conserved   1 iff pack rows == released docs, sum(n_tokens) ==
                     an independent token recount of the same docs, and
                     zero over-budget bins without an oversize flag
    card_consistent  1 iff data_card.n_docs == released docs

The near-dup cluster structure is not SQL-derivable (MinHash at
arbitrary sf), so — per the house gate style (kmeans_inertia_gate,
cluster_terms_gate) — the engine emits engine-verified invariant
booleans and the oracle restates them as constants; falsifiability
comes from the ``perturb`` knobs (each flips exactly one boolean,
pytest-pinned in tests/test_release.py).

Scale notes: the two semi-joins (curated docs, released docs) are ONE
tag-union keyed exchange each — text rides the exchange once, the
standard shuffle-semi-join cost; the id side never materializes on the
driver.  Conservation sums are Dataset aggregations or block-local
reductions after a keyed repartition; no stage holds corpus-sized
driver state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.transcripts import (
    DOCS_TURNS_PER_CONV,
    documents_to_transcripts_table,
)
from ..util import conv_numbers


def _semi_join(big_ds, key_col: str, ids_ds, id_col: str,
               num_partitions: int, str_cols: tuple):
    """Rows of ``big_ds`` whose ``key_col`` appears in ids_ds[id_col] —
    exact distributed semi-join via ONE tag-union keyed exchange
    (tag 0 = member marker, tag 1 = data row).  ``str_cols`` are the
    string payload columns carried through; int64 columns other than
    the key are not supported (none needed here)."""
    fields = [(key_col, pa.int64())] + \
        [(c, pa.large_string()) for c in str_cols] + [("tag", pa.int8())]
    u = pa.schema(fields)
    out_schema = pa.schema([(key_col, pa.int64())]
                           + [(c, pa.large_string()) for c in str_cols])

    def marker_rows(t: pa.Table) -> pa.Table:
        cols = {key_col: pc.cast(t[id_col], pa.int64())}
        for c in str_cols:
            cols[c] = pa.array([""] * len(t), pa.large_string())
        cols["tag"] = pa.array(np.zeros(len(t), np.int8), pa.int8())
        return pa.table(cols).cast(u)

    def data_rows(t: pa.Table) -> pa.Table:
        cols = {key_col: pc.cast(t[key_col], pa.int64())}
        for c in str_cols:
            cols[c] = pc.cast(t[c], pa.large_string())
        cols["tag"] = pa.array(np.ones(len(t), np.int8), pa.int8())
        return pa.table(cols).cast(u)

    def keep_members(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return out_schema.empty_table()
        key = t[key_col].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        members = np.unique(key[tag == 0])
        ed = tag == 1
        if not ed.any() or not len(members):
            return out_schema.empty_table()
        kk = key[ed]
        pos = np.searchsorted(members, kk)
        ok = members[np.minimum(pos, len(members) - 1)] == kk
        sel = pa.array(np.flatnonzero(ed)[ok], pa.int64())
        cols = {key_col: pa.array(kk[ok], pa.int64())}
        for c in str_cols:
            cols[c] = t[c].combine_chunks().take(sel)
        return pa.table(cols).cast(out_schema)

    return (ids_ds.map_batches(marker_rows, batch_format="pyarrow")
            .union(big_ds.map_batches(data_rows, batch_format="pyarrow"))
            .repartition(num_blocks=num_partitions, keys=[key_col])
            .map_batches(keep_members, batch_format="pyarrow",
                         batch_size=None))


def _distinct_count(ds, col: str, num_partitions: int) -> int:
    """Distinct count through a keyed exchange on a u64 per value (the
    data_card discipline — never a driver-side set).  Exact for integer
    values; string values are counted by distinct 64-bit hash
    (``hash_str_array_u64``), so a collision (~n^2/2^65: ~6e-7 at 5M
    values) can only undercount."""
    from ..util import hash_str_array_u64

    def hash_rows(t: pa.Table) -> pa.Table:
        arr = t[col].combine_chunks()
        if pa.types.is_integer(arr.type):
            h = arr.cast(pa.uint64()).to_numpy(zero_copy_only=False)
        else:
            h = hash_str_array_u64(arr.cast(pa.string()))
        return pa.table({"h": pa.array(np.unique(np.asarray(h)),
                                       pa.uint64())})

    def count_block(t: pa.Table) -> pa.Table:
        n = len(np.unique(t["h"].combine_chunks().to_numpy())) \
            if len(t) else 0
        return pa.table({"n": pa.array([n], pa.int64())})

    total = 0
    for b in (ds.map_batches(hash_rows, batch_format="pyarrow")
              .repartition(num_blocks=num_partitions, keys=["h"])
              .map_batches(count_block, batch_format="pyarrow",
                           batch_size=None)
              .iter_batches(batch_format="pyarrow")):
        total += sum(b["n"].to_pylist())  # scalar stream sum (pattern C)
    return total


def _token_total(docs_mds) -> int:
    """Independent exact token recount (same RE as pack_docs) over a
    MATERIALIZED dataset — one tiny raw task per block (the _n_changed
    pattern: a Dataset execution would pay a ~0.5 s scheduling floor
    for a pure scan)."""
    import ray

    from ..stages.packing import TOKEN_RE

    @ray.remote(num_cpus=0.25)
    def block_tokens(block) -> int:
        t = block if isinstance(block, pa.Table) else \
            pa.Table.from_batches([block])
        if len(t) == 0:
            return 0
        return int(pc.sum(pc.count_substring_regex(
            t["text"].combine_chunks().cast(pa.string()),
            TOKEN_RE)).as_py() or 0)

    return sum(ray.get([block_tokens.remote(r)
                        for r in docs_mds.to_arrow_refs()]))


def curation_release(sf_dir: str, budget: int = 512, n_groups: int = 16,
                     num_partitions: int = 16,
                     perturb: str | None = None) -> pa.Table:
    """Run the full release chain over ``{sf_dir}/documents.parquet``
    and emit the 1-row conservation summary (module docstring).

    ``perturb`` (pytest falsifiability knobs — each breaks exactly one
    boolean): 'drop_rep' removes one representative after keep,
    'leak_split' reassigns one cluster member's split, 'lose_doc' drops
    one released doc before pack, 'card_off' miscounts the card."""
    import ray.data as rd

    from ..stages.curate import curate_docs
    from ..stages.datacard import data_card
    from ..stages.packing import pack_docs
    from .neardup import (
        SPLIT_NAMES,
        neardup_clusters,
        representatives,
        split_by_cluster,
    )

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    n_docs_in = docs.count()

    # ---- stage 1: curate -------------------------------------------------
    cur = curate_docs(docs, num_partitions=num_partitions).materialize()
    n_curated = cur.count()

    # ---- stage 2: flagship near-dup on the curated sub-corpus ------------
    curated_docs = _semi_join(
        docs, "doc_id", cur.select_columns(["doc_id"]), "doc_id",
        num_partitions, str_cols=("text",)).materialize()
    transcripts = curated_docs.map_batches(
        documents_to_transcripts_table, batch_format="pyarrow")
    clusters = neardup_clusters(
        transcripts, num_partitions=num_partitions,
        verify_threshold=0.4).materialize()
    n_convs = clusters.count()  # one row per clustered conv

    # ---- stage 3: keep one representative per cluster --------------------
    reps = representatives(clusters,
                           num_partitions=num_partitions).materialize()
    if perturb == "drop_rep":
        reps = reps.limit(max(reps.count() - 1, 0)).materialize()
    n_kept = reps.count()
    n_clusters = _distinct_count(clusters.select_columns(["cluster_id"]),
                                 "cluster_id", num_partitions)
    members_total = reps.sum("n_members") or 0
    keep_conserved = int(n_kept == n_clusters and members_total == n_convs)

    # ---- stage 4: leakage-safe split over ALL cluster members ------------
    split = split_by_cluster(clusters).materialize()
    if perturb == "leak_split":
        pdf = split.to_pandas()
        flip = {"train": "test", "val": "train", "test": "val"}
        pdf.loc[pdf.index[0], "split"] = flip[pdf.iloc[0]["split"]]
        split = rd.from_pandas(pdf)

    def split_partial(t: pa.Table) -> pa.Table:
        # per-cluster distinct-split count + per-split totals, block-local
        key = t["cluster_id"].combine_chunks()
        sp = t["split"].combine_chunks()
        k_codes = key.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        s_codes = sp.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        pair_key = k_codes * 4 + s_codes
        mixed = len(np.unique(pair_key)) - len(np.unique(k_codes))
        counts = [int(pc.sum(pc.equal(sp, s)).as_py() or 0)
                  for s in SPLIT_NAMES]
        return pa.table({
            "mixed": pa.array([mixed], pa.int64()),
            **{f"n_{s}": pa.array([c], pa.int64())
               for s, c in zip(SPLIT_NAMES, counts)},
        })

    mixed = 0
    split_total = 0
    for b in (split.repartition(num_blocks=num_partitions,
                                keys=["cluster_id"])
              .map_batches(split_partial, batch_format="pyarrow",
                           batch_size=None)
              .iter_batches(batch_format="pyarrow")):
        mixed += sum(b["mixed"].to_pylist())
        for s in SPLIT_NAMES:
            split_total += sum(b[f"n_{s}"].to_pylist())
    split_conserved = int(mixed == 0 and split_total == n_convs)

    # ---- stage 5: pack the released docs ---------------------------------
    # released docs = curated docs whose base conv survived keep ("twin-"
    # convs are synthetic transcript plants with no backing doc rows)
    def rep_conv_nos(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].combine_chunks()
        base = pc.starts_with(conv, "conv-")
        return pa.table(
            {"conv_no": conv_numbers(pc.array_filter(conv, base))})

    kept_convs = reps.map_batches(rep_conv_nos, batch_format="pyarrow")

    def with_conv_no(t: pa.Table) -> pa.Table:
        return pa.table({
            "conv_no": pc.divide(pc.cast(t["doc_id"], pa.int64()),
                                 DOCS_TURNS_PER_CONV),
            "doc_text": pc.cast(t["text"], pa.large_string()),
            "doc_id_s": pc.cast(pc.cast(t["doc_id"], pa.int64()),
                                pa.large_string()),
        })

    joined = _semi_join(
        curated_docs.map_batches(with_conv_no, batch_format="pyarrow"),
        "conv_no", kept_convs, "conv_no", num_partitions,
        str_cols=("doc_text", "doc_id_s"))

    def back_to_docs(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["doc_id_s"], pa.int64()),
            "text": t["doc_text"],
        })

    released = joined.map_batches(back_to_docs,
                                  batch_format="pyarrow").materialize()
    n_released = released.count()

    # lose_doc desyncs the PACK INPUT from the release (a doc silently
    # dropped between stages) — the conservation law must catch it
    pack_input = released if perturb != "lose_doc" else \
        released.limit(max(n_released - 1, 0)).materialize()
    packed = pack_docs(pack_input, budget=budget,
                       n_groups=n_groups).materialize()
    n_packed = packed.count()
    tokens_packed = packed.sum("n_tokens") or 0
    tokens_truth = _token_total(released)

    def bin_check(t: pa.Table, _budget=budget) -> pa.Table:
        if len(t) == 0:
            return pa.table({"bad": pa.array([0], pa.int64())})
        g = t["pack_group"].combine_chunks().to_numpy(zero_copy_only=False)
        bi = t["bin_idx"].combine_chunks().to_numpy(zero_copy_only=False)
        nt = t["n_tokens"].combine_chunks().to_numpy(zero_copy_only=False)
        ov = t["oversize"].combine_chunks().to_numpy(zero_copy_only=False)
        key = g.astype(np.int64) * (int(bi.max()) + 1 if len(bi) else 1) + bi
        u_, inv = np.unique(key, return_inverse=True)
        tot = np.zeros(len(u_), np.int64)
        np.add.at(tot, inv, nt)
        has_ov = np.zeros(len(u_), bool)
        np.logical_or.at(has_ov, inv, ov.astype(bool))
        bad = int(((tot > _budget) & ~has_ov).sum())
        return pa.table({"bad": pa.array([bad], pa.int64())})

    # pack_docs' output blocks are already pack_group-aligned (it
    # repartitions on pack_group and packs per whole block;
    # materialize() preserves block boundaries), so the budget check
    # maps whole blocks directly — no second keyed exchange
    bad_bins = 0
    for b in packed.map_batches(bin_check, batch_format="pyarrow",
                                batch_size=None
                                ).iter_batches(batch_format="pyarrow"):
        bad_bins += sum(b["bad"].to_pylist())
    pack_conserved = int(n_packed == n_released
                         and tokens_packed == tokens_truth
                         and bad_bins == 0)

    # ---- stage 6: data card over the release -----------------------------
    # materialized: data_card consumes its source TWICE (scalar pass +
    # distinct-text exchange) — lazy, the semi-join KR would run twice
    card_src = _semi_join(
        rd.read_parquet(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text", "lang", "source"]),
        "doc_id", released.select_columns(["doc_id"]), "doc_id",
        num_partitions, str_cols=("text", "lang", "source")).materialize()
    card = data_card(card_src, num_partitions=num_partitions)
    card_docs = int(card["n_docs"][0].as_py())
    if perturb == "card_off":
        card_docs += 1
    card_consistent = int(card_docs == n_released)

    return pa.table({
        "n_docs_in": pa.array([n_docs_in], pa.int64()),
        "n_curated": pa.array([n_curated], pa.int64()),
        "keep_conserved": pa.array([keep_conserved], pa.int64()),
        "split_conserved": pa.array([split_conserved], pa.int64()),
        "pack_conserved": pa.array([pack_conserved], pa.int64()),
        "card_consistent": pa.array([card_consistent], pa.int64()),
    })
