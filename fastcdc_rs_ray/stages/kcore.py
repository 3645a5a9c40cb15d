"""k-core decomposition — iterative batch peeling over the co-purchase
graph.

The density-filtering graph op (community kernels, spam-subgraph
mining): the k-core is the maximal subgraph in which every vertex has
degree >= k.  Synchronous batch peeling (each round removes EVERY
vertex whose residual degree < k) reaches the same unique fixpoint as
sequential peeling, in rounds = peel depth.

Plan: canonical distinct edges through one range sort on (a, b)
(``canonical_edges``, shared with triangle_count — self loops dropped,
multiplicity deduped), then per round ONE streaming pass over the
materialized edge set with the survivor set broadcast via ray.put (the
node universe is dimension-sized — the same broadcastability assumption
as pagerank's rank vector): per-block degree partials count surviving
neighbors, the driver merges dimension-sized partials and peels.  RAISES if the
fixpoint is not reached within ``max_rounds``.

SQL oracle: the SAME synchronous peeling UNROLLED as a chain of
MATERIALIZED single-row CTEs each carrying the removed-set as a LIST
(pipelines/queries.py).  Two DuckDB 1.0 findings drove that shape:
correlated aggregates inside a RECURSIVE CTE silently return wrong
results (first peel round counted 6 removable of the true 13), and
non-materialized CTE chains re-inline the whole prefix per level
(exponential planning).  Peeling is idempotent past the fixpoint, so
unrolling KCORE_UNROLL rounds is exact whenever the true peel depth
fits — the engine RAISES beyond it (agree-or-both-fail).

Output: (p_partkey) of the k-core members, one row per vertex.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..util import co_locate

KCORE_K = 30

#: oracle unroll depth; the engine raises if peeling needs more rounds
KCORE_UNROLL = 12


_CANON = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _distinct_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Distinct (a, b) rows in (a, b) order: lexsort plus a shifted
    compare, so any int64 id is exact (no packing into one word)."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(a), bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return pa.table({"a": pa.array(a[first], pa.int64()),
                     "b": pa.array(b[first], pa.int64())})


def canonical_edges(edges_ds, num_partitions: int = 8):
    """(src, dst) -> materialized distinct canonical (a < b) edge
    Dataset: self loops dropped and per-block distinct, one range sort on
    (a, b) (``util.co_locate``), then per-block distinct again.  Shared
    by both k-core plans and ``stages.pagerank.triangle_count``."""

    def canon(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _CANON.empty_table()
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
        a = np.minimum(src, dst)
        b = np.maximum(src, dst)
        keep = a != b  # self loops add no degree and close no triangle
        return _distinct_pairs(a[keep], b[keep])

    def distinct(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _CANON.empty_table()
        return _distinct_pairs(
            t["a"].combine_chunks().to_numpy(zero_copy_only=False),
            t["b"].combine_chunks().to_numpy(zero_copy_only=False))

    ce = co_locate(edges_ds.map_batches(canon, batch_format="pyarrow"),
                   ["a", "b"], num_partitions)
    return ce.map_batches(distinct, batch_format="pyarrow",
                          batch_size=None).materialize()


def kcore_members(edges_ds, k: int = KCORE_K, num_partitions: int = 8,
                  max_rounds: int = KCORE_UNROLL + 1) -> pa.Table:
    import ray

    ce = canonical_edges(edges_ds, num_partitions)

    # node universe (dimension-sized)
    ends = [b[c].to_numpy(zero_copy_only=False)
            for b in ce.iter_batches(batch_format="pyarrow") if len(b)
            for c in ("a", "b")]
    surv = np.unique(np.concatenate(ends)) if ends else np.empty(0, np.int64)

    # per-round degree pass as raw tasks over the materialized edge
    # blocks: a Dataset execution carries a ~0.5 s scheduling floor that
    # would be paid once per peel round (the _n_changed lesson,
    # stages/cc.py); a tiny task per block costs milliseconds
    refs = ce.to_arrow_refs()

    @ray.remote(num_cpus=0.25)
    def deg_partial(block, s: np.ndarray):
        t = block if isinstance(block, pa.Table) else \
            pa.Table.from_batches([block])
        if len(t) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        m = np.isin(a, s) & np.isin(b, s)
        node = np.concatenate([a[m], b[m]])
        if len(node) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        u, c = np.unique(node, return_counts=True)
        return u.astype(np.int64), c.astype(np.int64)

    for _ in range(max_rounds):
        if len(surv) == 0:
            break  # empty fixpoint confirmed by the previous round
        sref = ray.put(surv)
        parts = ray.get([deg_partial.remote(r, sref) for r in refs])
        # vectorized merge: partial nodes are subsets of the sorted surv
        acc = np.zeros(len(surv), np.int64)
        for u, c in parts:
            if len(u):
                np.add.at(acc, np.searchsorted(surv, u), c)
        new = surv[acc >= k]
        if len(new) == len(surv):
            break
        surv = new
        # NO early break on empty here: an empty survivor set still needs
        # the NEXT iteration's trivial confirmation so that emptying on
        # the final allowed round falls through to the raise — the
        # oracle only unrolled KCORE_UNROLL rounds and would disagree
    else:
        raise RuntimeError(
            f"kcore_members did not settle within {max_rounds} rounds — "
            f"the SQL oracle unrolls exactly {KCORE_UNROLL} peel rounds, "
            f"so deeper graphs must raise rather than diverge")

    return pa.table({"p_partkey": pa.array(surv, pa.int64())})


def kcore_members_exchange_ds(edges_ds, k: int = KCORE_K,
                              num_partitions: int = 8,
                              max_rounds: int = KCORE_UNROLL + 1):
    """Keyed-exchange k-core peeling — same synchronous batch-peeling
    fixpoint as :func:`kcore_members` (parity pytest) with NO
    node-universe driver or broadcast state, INCLUDING the output: the
    surviving member set is returned as a ``Dataset`` of (p_partkey)
    for downstream stages / ``write_parquet`` (VERDICT r4 item 2).
    The surviving subgraph lives as the canonical edge Dataset, and
    each round is TWO co-locating exchanges (``util.co_locate``: a
    range sort, no aggregator actors).  The block-level degree PARTIALS
    ride each endpoint-filter exchange and the filter block sums them
    itself, since co-location on ``key`` puts every partial for a node
    in the block that holds every edge keyed on that node:

      A. tag-union on endpoint ``a``: degree-partial rows (from the
         START-of-round edge state) + edge rows keyed by ``a``; each
         block reduces deg(a) exactly and drops edges with deg(a) < k;
      B. the same on endpoint ``b`` over A's survivors, with the SAME
         start-of-round degree partials — so both endpoint tests use
         round-start degrees, exactly the synchronous batch-peel the
         broadcast plan and the SQL oracle compute (parity-pytested
         bit-identical).

    Before the rounds, ``canonical_edges`` pays one more range sort; after
    them the member reduction pays one on ``node``.

    A node whose last edge disappears simply vanishes from the edge
    state — identical to the broadcast plan's deg-0 removal, because
    k-core members always carry >= k >= 1 edges.  The per-round driver
    scalar is one Dataset count (the removal check).  RAISES past
    ``max_rounds`` exactly like the broadcast plan (the SQL oracle's
    unroll bound — agree-or-both-fail)."""
    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

    def deg_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return deg_schema.empty_table()
        node = np.concatenate([
            t["a"].combine_chunks().to_numpy(zero_copy_only=False),
            t["b"].combine_chunks().to_numpy(zero_copy_only=False)])
        u, c = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "deg": pa.array(c.astype(np.int64), pa.int64())})

    def deg_reduce(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return deg_schema.empty_table()
        node = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
        deg = t["deg"].combine_chunks().to_numpy(zero_copy_only=False)
        u, inv = np.unique(node, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, deg)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "deg": pa.array(s, pa.int64())})

    uF = pa.schema([("key", pa.int64()), ("other", pa.int64()),
                    ("deg", pa.int64()), ("tag", pa.int8())])

    def deg_rows(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["node"], "other": pa.array(z, pa.int64()),
            "deg": t["deg"],
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(uF)

    def edge_rows(t: pa.Table, key_col: str, other_col: str) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t[key_col], "other": t[other_col],
            "deg": pa.array(z, pa.int64()),
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(uF)

    def filter_block(t: pa.Table, out_key: str, out_other: str,
                     _k=k) -> pa.Table:
        """Reduce the co-located degree partials per key and keep the
        edges whose key-endpoint's total degree >= k — the keep set is
        never materialized anywhere."""
        out_schema = pa.schema([(out_key, pa.int64()),
                                (out_other, pa.int64())])
        if len(t) == 0:
            return out_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        dp = tag == 0
        nodes, inv = np.unique(key[dp], return_inverse=True)
        tot = np.zeros(len(nodes), np.int64)
        np.add.at(tot, inv,
                  t["deg"].combine_chunks().to_numpy(
                      zero_copy_only=False)[dp])
        kept = nodes[tot >= _k]
        ed = tag == 1
        if not ed.any() or not len(kept):
            return out_schema.empty_table()
        ek = key[ed]
        pos = np.searchsorted(kept, ek)
        ok = kept[np.minimum(pos, len(kept) - 1)] == ek
        return pa.table({
            out_key: pa.array(ek[ok], pa.int64()),
            out_other: pa.array(t["other"].combine_chunks().to_numpy(
                zero_copy_only=False)[ed][ok], pa.int64()),
        })

    E = canonical_edges(edges_ds, num_partitions)
    n_edges = E.count()
    for _ in range(max_rounds):
        # start-of-round degree partials feed BOTH endpoint exchanges
        # (E is materialized, so re-deriving the cheap map per pipeline
        # beats paying another execution floor to materialize it)
        degp = E.map_batches(deg_partial, batch_format="pyarrow")
        Ea = co_locate(
            degp.map_batches(deg_rows, batch_format="pyarrow").union(
                E.map_batches(lambda t: edge_rows(t, "a", "b"),
                              batch_format="pyarrow")),
            ["key"], num_partitions,
        ).map_batches(lambda t: filter_block(t, "a", "b"),
                      batch_format="pyarrow", batch_size=None)
        E = co_locate(
            degp.map_batches(deg_rows, batch_format="pyarrow").union(
                Ea.map_batches(lambda t: edge_rows(t, "b", "a"),
                               batch_format="pyarrow")),
            ["key"], num_partitions,
        ).map_batches(lambda t: filter_block(t, "b", "a"),
                      batch_format="pyarrow", batch_size=None).materialize()
        n_new = E.count()
        # edge-count fixpoint: every peeled node carries >= 1 surviving
        # incident edge (deg-0 nodes don't exist in edge state), so
        # "no edge removed" <=> "no node peeled"
        if n_new == n_edges:
            break
        n_edges = n_new
    else:
        raise RuntimeError(
            f"kcore_members_exchange did not settle within {max_rounds} "
            f"rounds — the SQL oracle unrolls exactly {KCORE_UNROLL} "
            "peel rounds, so deeper graphs must raise rather than "
            "diverge")

    def member_rows(t: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": t["node"]})

    return (co_locate(E.map_batches(deg_partial, batch_format="pyarrow"),
                      ["node"], num_partitions)
            .map_batches(deg_reduce, batch_format="pyarrow",
                         batch_size=None)
            .select_columns(["node"])
            .map_batches(member_rows, batch_format="pyarrow"))


def kcore_members_exchange(edges_ds, k: int = KCORE_K,
                           num_partitions: int = 8,
                           max_rounds: int = KCORE_UNROLL + 1) -> pa.Table:
    """Oracle-scale finalizer over :func:`kcore_members_exchange_ds`:
    driver collect + global sort.  ONLY for registered-query wrappers
    and parity tests; large-graph callers consume the Dataset form."""
    ds = kcore_members_exchange_ds(edges_ds, k=k,
                                   num_partitions=num_partitions,
                                   max_rounds=max_rounds)
    col = []
    for b in ds.iter_batches(batch_format="pyarrow"):
        col.append(b["p_partkey"].to_numpy(zero_copy_only=False))
    surv = np.sort(np.concatenate(col)) if col else np.empty(0, np.int64)
    return pa.table({"p_partkey": pa.array(surv, pa.int64())})
