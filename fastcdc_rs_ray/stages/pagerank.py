"""PageRank over the part co-purchase graph — distributed iterations with
floor-quantized integer mass (bit-deterministic under any partitioning).

Second member of the iterative-algorithm family (stages/kmeans.py is the
first; the reference has none of this — it is a chunking library):

- Edge derivation is ONE co-locating exchange (``util.co_locate``, a
  range sort on the order key): lineitems group by order, a per-block
  lexsort emits a directed edge between consecutive line numbers
  of the same order (the classic co-occurrence graph build).
- Rank iterations hold the rank vector on the driver and broadcast it via
  ``ray.put`` each round (valid while |nodes| x 8 B fits a worker — the
  usual case for entity graphs; a keyed-exchange variant that shuffles
  (dst, contribution) partials instead is the growth path and uses the
  same block kernel).
- All mass arithmetic is int64 with floor division:
  ``contrib(u->v) = (85 * r_u) // (100 * out_deg_u)``,
  ``r' = (15 * S // 100) // N + sum(contrib)`` at scale S = 1e12.
  Floors leak a little mass (sum r < S) — that is deliberate: the result
  is EXACTLY reproducible (pytest pins equality against a single-matrix
  numpy replica), unlike float PageRank whose cross-block addition order
  drifts.  Dangling-node mass is dropped, not redistributed (documented
  choice, shared by the replica).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import co_locate
from .kcore import canonical_edges


SCALE = 1_000_000_000_000  # 1e12: rank unit = 1e-12 of total mass

_EDGE = pa.schema([("src", pa.int64()), ("dst", pa.int64())])


def copurchase_edges(lineitem_ds, num_partitions: int = 8):
    """lineitem -> directed edges (src part, dst part) between consecutive
    line numbers of the same order.  Line numbers are NOT unique within an
    order in the testdata, so the sort adds l_partkey as a tiebreaker —
    mirrored in every SQL oracle's ``ORDER BY l_linenumber, l_partkey`` —
    to keep the edge set deterministic."""
    mid = pa.schema([
        ("l_orderkey", pa.int64()), ("l_partkey", pa.int64()),
        ("l_linenumber", pa.int64()),
    ])

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
            "l_partkey": pc.cast(t["l_partkey"], pa.int64()),
            "l_linenumber": pc.cast(t["l_linenumber"], pa.int64()),
        }).cast(mid)

    ex = co_locate(lineitem_ds.map_batches(project, batch_format="pyarrow"),
                   ["l_orderkey"], num_partitions)

    def edges(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return _EDGE.empty_table()
        ok = t["l_orderkey"].combine_chunks().to_numpy(zero_copy_only=False)
        pk = t["l_partkey"].combine_chunks().to_numpy(zero_copy_only=False)
        ln = t["l_linenumber"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ln, ok))
        ok, pk = ok[order], pk[order]
        same = ok[1:] == ok[:-1]
        return pa.table({
            "src": pa.array(pk[:-1][same], pa.int64()),
            "dst": pa.array(pk[1:][same], pa.int64()),
        }).cast(_EDGE)

    return ex.map_batches(edges, batch_format="pyarrow", batch_size=None)


def _changed_total(mds) -> int:
    """Sum the materialized state's ``changed`` column with one tiny raw
    Ray task per block over the already-materialized refs — the
    `_n_changed` pattern (stages/cc.py:172): a per-round
    ``Dataset.sum()`` costs a full ~0.5 s execution floor, which
    dominated pagerank_exchange's convergence check at toy scale."""
    import ray

    @ray.remote(num_cpus=0.25)
    def block_sum(block) -> int:
        t = block if isinstance(block, pa.Table) else \
            pa.Table.from_batches([block])
        if len(t) == 0:
            return 0
        return int(pc.sum(t["changed"]).as_py() or 0)

    return sum(ray.get([block_sum.remote(r)
                        for r in mds.to_arrow_refs()]))


def _collect(ds) -> pa.Table:
    tables = [b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
              for b in ds.iter_batches(batch_format="pyarrow")]
    if not tables:  # zero-batch stream (e.g. the empty-graph early return)
        sch = ds.schema()
        return getattr(sch, "base_schema", sch).empty_table()
    return pa.concat_tables(tables)


def pagerank(edges_ds, n_iter: int = 10, damping_pct: int = 85):
    """edges (src, dst) -> (node, rank_q): quantized int64 PageRank."""
    import ray

    edges_ds = edges_ds.materialize()

    # node universe + out-degrees: one streaming partial pass
    def deg_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "deg": pa.array([], pa.int64())})
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
        us, cs = np.unique(src, return_counts=True)
        ud = np.unique(dst)
        node = np.concatenate([us, ud])
        deg = np.concatenate([cs.astype(np.int64), np.zeros(len(ud), np.int64)])
        return pa.table({"node": pa.array(node, pa.int64()),
                         "deg": pa.array(deg, pa.int64())})

    dp = _collect(edges_ds.map_batches(deg_partial, batch_format="pyarrow"))
    node_all = dp["node"].to_numpy(zero_copy_only=False)
    deg_all = dp["deg"].to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(node_all, return_inverse=True)
    deg = np.zeros(len(nodes), np.int64)
    np.add.at(deg, inv, deg_all)
    n = len(nodes)
    if n == 0:
        return pa.table({"node": pa.array([], pa.int64()),
                         "rank_q": pa.array([], pa.int64())})

    nref = ray.put(nodes)
    dref = ray.put(deg)
    base = (SCALE * (100 - damping_pct) // 100) // n
    r = np.full(n, SCALE // n, np.int64)

    for _ in range(n_iter):
        rref = ray.put(r)

        def contrib(t: pa.Table, _rref=rref) -> pa.Table:
            if len(t) == 0:
                return pa.table({"dst_ix": pa.array([], pa.int64()),
                                 "c": pa.array([], pa.int64())})
            nd = ray.get(nref)
            dg = ray.get(dref)
            rv = ray.get(_rref)
            src = np.searchsorted(
                nd, t["src"].combine_chunks().to_numpy(zero_copy_only=False))
            dst = np.searchsorted(
                nd, t["dst"].combine_chunks().to_numpy(zero_copy_only=False))
            c = (np.int64(damping_pct) * rv[src]) // (100 * dg[src])
            sums = np.zeros(len(nd), np.int64)
            np.add.at(sums, dst, c)
            live = np.flatnonzero(sums > 0)
            return pa.table({"dst_ix": pa.array(live, pa.int64()),
                             "c": pa.array(sums[live], pa.int64())})

        part = _collect(edges_ds.map_batches(contrib, batch_format="pyarrow"))
        new = np.full(n, base, np.int64)
        np.add.at(new, part["dst_ix"].to_numpy(zero_copy_only=False),
                  part["c"].to_numpy(zero_copy_only=False))
        if np.array_equal(new, r):
            r = new
            break
        r = new

    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "rank_q": pa.array(r, pa.int64())})


#: pagerank()/triangle_count() hold a node-universe-sized array on the
#: driver (rank vector / degree map).  Node count <= 2 * edge count, so
#: the already-materialized edge count is a free conservative proxy for
#: the self-selection (the _run_cc pattern, pipelines/neardup.py:480):
#: below the limit the broadcast path's one-exchange rounds win; above
#: it the keyed-exchange variants keep every data-proportional stage
#: distributed.
#:
#: MEASURED (round 5, tools/measure_graph_crossover.py, 32 cpus,
#: Zipf-skewed synthetic graphs, n_iter=3, checksums bit-identical at
#: every scale — see BASELINE.md "graph crossover"):
#:     1 M edges: broadcast  3.3 s  vs exchange 17.9 s  (5.5x)
#:    10 M edges: broadcast 23.7 s  vs exchange 45.5 s  (1.9x)
#:    50 M edges: broadcast 101.4 s vs exchange 79.8 s  (0.79x — the
#:                exchange plan WINS)
#: log-interpolated wall crossover ~25-30 M edges, so the constant is
#: now evidence-backed, not just reasoned.  Driver-memory footprint
#: (ADVICE r4): the broadcast plan's simultaneous footprint is ~6x
#: 8 B x |nodes| (nodes + deg + rank arrays, the per-round ray.put of
#: the rank vector, and the collected contribution partials), i.e.
#: ~2.4 GB at the 25 M-edge / <=50 M-node boundary — not the 400 MB a
#: single rank vector suggests; lower the limit on drivers with < 8 GB
#: of headroom.
GRAPH_BROADCAST_EDGE_LIMIT = 25_000_000


def node_degrees(edges_ds, num_partitions: int = 8):
    """edges -> Dataset (node, out-deg) through ONE range sort on node —
    the distributed replacement for the driver-merged degree pass
    (VERDICT r3 item 3).  dst-only nodes appear with deg 0, so the
    result is the full node universe."""
    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return deg_schema.empty_table()
        src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
        us, cs = np.unique(src, return_counts=True)
        ud = np.unique(dst)
        return pa.table({
            "node": pa.array(np.concatenate([us, ud]), pa.int64()),
            "deg": pa.array(np.concatenate(
                [cs.astype(np.int64), np.zeros(len(ud), np.int64)]),
                pa.int64()),
        })

    def reduce_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return deg_schema.empty_table()
        node = t["node"].combine_chunks().to_numpy(zero_copy_only=False)
        deg = t["deg"].combine_chunks().to_numpy(zero_copy_only=False)
        u, inv = np.unique(node, return_inverse=True)
        s = np.zeros(len(u), np.int64)
        np.add.at(s, inv, deg)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "deg": pa.array(s, pa.int64())})

    return (co_locate(edges_ds.map_batches(partial, batch_format="pyarrow"),
                      ["node"], num_partitions)
            .map_batches(reduce_block, batch_format="pyarrow",
                         batch_size=None))


def pagerank_exchange_ds(edges_ds, n_iter: int = 10, damping_pct: int = 85,
                         num_partitions: int = 8):
    """Keyed-exchange PageRank — bit-identical to :func:`pagerank`
    (parity pytest on random graphs) with NO node-universe-sized driver
    state ANYWHERE, including the output: returns the final state as a
    ``Dataset`` of (node, rank_q) for downstream stages /
    ``write_parquet`` (VERDICT r4 item 2 — above
    GRAPH_BROADCAST_EDGE_LIMIT a driver-collected |V|-sized table would
    re-introduce the bottleneck this plan removes).  The rank vector
    lives as a Dataset (node, deg, rank) and each round is exactly two
    co-locating exchanges (``util.co_locate``: range sorts, no
    aggregator actors),

      A. state rows + edge rows tag-union, co-located on the SOURCE node:
         each block computes contrib = (85 * r_src) // (100 * deg_src)
         per edge and pre-reduces it per dst (block-local add.at) —
         the combiner discipline, so exchange B moves at most
         |blocks| x |distinct dst| rows, not |edges|;
      B. state rows + contrib partials tag-union, co-located on the DST
         node:
         each block emits rank' = base + sum(contribs) plus a per-row
         `changed` flag whose Dataset sum() is the driver's only
         per-round scalar (the convergence check).

    Same int64 floor arithmetic as the broadcast path, and int64 sums
    are associative-exact, so the two paths agree bit-for-bit under any
    partitioning.  Used above GRAPH_BROADCAST_EDGE_LIMIT where the
    broadcast rank vector no longer fits the driver."""
    uA = pa.schema([("key", pa.int64()), ("dst", pa.int64()),
                    ("deg", pa.int64()), ("rank", pa.int64()),
                    ("tag", pa.int8())])
    uB = pa.schema([("key", pa.int64()), ("deg", pa.int64()),
                    ("rank", pa.int64()), ("c", pa.int64()),
                    ("tag", pa.int8())])
    contrib_schema = pa.schema([("key", pa.int64()), ("c", pa.int64())])
    state_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64()),
                              ("rank", pa.int64()),
                              ("changed", pa.int64())])

    import ray.data as rd

    edges_ds = edges_ds.materialize()
    state = node_degrees(edges_ds, num_partitions).materialize()
    n = state.count()
    if n == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "rank_q": pa.array([], pa.int64())}))
    base = (SCALE * (100 - damping_pct) // 100) // n
    r0 = SCALE // n

    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"], "deg": t["deg"],
            "rank": pa.array(np.full(len(t), r0, np.int64), pa.int64()),
            "changed": pa.array(np.zeros(len(t), np.int64), pa.int64()),
        }).cast(state_schema)

    state = state.map_batches(init, batch_format="pyarrow").materialize()

    def state_a(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["node"], "dst": pa.array(z, pa.int64()),
            "deg": t["deg"], "rank": t["rank"],
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(uA)

    def edge_a(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["src"], "dst": t["dst"],
            "deg": pa.array(z, pa.int64()), "rank": pa.array(z, pa.int64()),
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(uA)

    def contrib_block(t: pa.Table, _d=damping_pct) -> pa.Table:
        if len(t) == 0:
            return contrib_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        st = tag == 0
        ed = ~st
        if not ed.any():
            return contrib_schema.empty_table()
        snode = key[st]
        order = np.argsort(snode)
        snode = snode[order]
        sdeg = t["deg"].combine_chunks().to_numpy(
            zero_copy_only=False)[st][order]
        srank = t["rank"].combine_chunks().to_numpy(
            zero_copy_only=False)[st][order]
        pos = np.searchsorted(snode, key[ed])
        if (pos >= len(snode)).any() or (snode[np.minimum(
                pos, len(snode) - 1)] != key[ed]).any():
            raise ValueError("pagerank_exchange: edge src missing from "
                             "node universe — co-location broken")
        c = (np.int64(_d) * srank[pos]) // (100 * sdeg[pos])
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)[ed]
        ud, inv = np.unique(dst, return_inverse=True)
        s = np.zeros(len(ud), np.int64)
        np.add.at(s, inv, c)
        return pa.table({"key": pa.array(ud, pa.int64()),
                         "c": pa.array(s, pa.int64())})

    def state_b(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["node"], "deg": t["deg"], "rank": t["rank"],
            "c": pa.array(z, pa.int64()),
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(uB)

    def contrib_b(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["key"], "deg": pa.array(z, pa.int64()),
            "rank": pa.array(z, pa.int64()), "c": t["c"],
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(uB)

    def newrank_block(t: pa.Table, _base=base) -> pa.Table:
        if len(t) == 0:
            return state_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        st = tag == 0
        node = key[st]
        order = np.argsort(node)
        node = node[order]
        deg = t["deg"].combine_chunks().to_numpy(
            zero_copy_only=False)[st][order]
        old = t["rank"].combine_chunks().to_numpy(
            zero_copy_only=False)[st][order]
        new = np.full(len(node), _base, np.int64)
        ed = ~st
        if ed.any():
            pos = np.searchsorted(node, key[ed])
            if (pos >= len(node)).any() or (node[np.minimum(
                    pos, len(node) - 1)] != key[ed]).any():
                raise ValueError("pagerank_exchange: contribution dst "
                                 "missing from node universe")
            np.add.at(new, pos,
                      t["c"].combine_chunks().to_numpy(
                          zero_copy_only=False)[ed])
        return pa.table({
            "node": pa.array(node, pa.int64()),
            "deg": pa.array(deg, pa.int64()),
            "rank": pa.array(new, pa.int64()),
            "changed": pa.array((new != old).astype(np.int64), pa.int64()),
        })

    # the rank-independent edge projection is computed ONCE (it re-enters
    # the exchange every round, but the per-round map over raw edges is
    # saved)
    edges_a = edges_ds.map_batches(edge_a,
                                   batch_format="pyarrow").materialize()

    for _ in range(n_iter):
        # both exchanges stay in ONE execution per round: a mid-round
        # materialize barrier measured 14.8 s vs 11.6 s on the 4-round
        # sf0.1 gate — the contribution stream is block-pre-reduced
        # (tiny), so pipelining beats exchange separation here, the
        # opposite trade from the triangle plan's row-heavy oe
        contribs = co_locate(
            state.map_batches(state_a, batch_format="pyarrow")
            .union(edges_a), ["key"], num_partitions,
        ).map_batches(contrib_block, batch_format="pyarrow", batch_size=None)
        state = co_locate(
            state.map_batches(state_b, batch_format="pyarrow")
            .union(contribs.map_batches(contrib_b, batch_format="pyarrow")),
            ["key"], num_partitions,
        ).map_batches(newrank_block, batch_format="pyarrow",
                      batch_size=None).materialize()
        if _changed_total(state) == 0:
            break

    def project(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "rank_q": t["rank"]})

    return state.map_batches(project, batch_format="pyarrow")


def pagerank_exchange(edges_ds, n_iter: int = 10, damping_pct: int = 85,
                      num_partitions: int = 8) -> pa.Table:
    """Oracle-scale finalizer over :func:`pagerank_exchange_ds`: driver
    collect + global node sort.  ONLY for registered-query wrappers and
    parity tests (inherently oracle-scale results); large-graph callers
    consume the Dataset form."""
    out = _collect(pagerank_exchange_ds(
        edges_ds, n_iter=n_iter, damping_pct=damping_pct,
        num_partitions=num_partitions))
    order = np.argsort(out["node"].to_numpy(zero_copy_only=False))
    return pa.table({
        "node": pa.array(out["node"].to_numpy(
            zero_copy_only=False)[order], pa.int64()),
        "rank_q": pa.array(out["rank_q"].to_numpy(
            zero_copy_only=False)[order], pa.int64()),
    })


def pagerank_auto(edges_ds, n_iter: int = 10, damping_pct: int = 85,
                  num_partitions: int = 8) -> pa.Table:
    """Self-selecting PageRank (the _run_cc pattern): broadcast rounds
    while the materialized edge count — a free conservative proxy for
    the node universe, |nodes| <= 2|edges| — stays under
    GRAPH_BROADCAST_EDGE_LIMIT, keyed-exchange rounds beyond it."""
    edges_ds = edges_ds.materialize()
    if edges_ds.count() <= GRAPH_BROADCAST_EDGE_LIMIT:
        return pagerank(edges_ds, n_iter=n_iter, damping_pct=damping_pct)
    return pagerank_exchange(edges_ds, n_iter=n_iter,
                             damping_pct=damping_pct,
                             num_partitions=num_partitions)


def pagerank_numpy_reference(src: np.ndarray, dst: np.ndarray,
                             n_iter: int = 10, damping_pct: int = 85):
    """Single-matrix replica of the exact integer algorithm."""
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    s = np.searchsorted(nodes, src)
    d = np.searchsorted(nodes, dst)
    deg = np.bincount(s, minlength=n).astype(np.int64)
    base = (SCALE * (100 - damping_pct) // 100) // n
    r = np.full(n, SCALE // n, np.int64)
    for _ in range(n_iter):
        c = (np.int64(damping_pct) * r[s]) // (100 * deg[s])
        new = np.full(n, base, np.int64)
        np.add.at(new, d, c)
        if np.array_equal(new, r):
            break
        r = new
    return nodes, r


def _orient_exchange(ce, deg_partial, num_partitions: int):
    """Distinct canonical edges (a, b) -> oriented Dataset (lo, hi, dh)
    with dh = hi's undirected degree, through co-locating exchanges
    only: two tag-union range sorts that attach the (in-kernel-reduced)
    degree to each endpoint, then a stateless local orientation by
    lexicographic (deg, node) comparison — no node-universe-sized driver
    or broadcast state (triangle_count degree_mode="exchange"; the
    degree partials ride both exchanges, round-5 fusion)."""
    att = pa.schema([("key", pa.int64()), ("other", pa.int64()),
                     ("d", pa.int64()), ("tag", pa.int8())])

    # degree PARTIALS ride both attach exchanges and are reduced inside
    # the kernel (round 5 — the k-core fusion applied here): co-location
    # on the node puts every partial for a node with every edge keyed on
    # it, so the old separate degree-reduction exchange + materialize are
    # gone
    # (three exchanges + two executions -> two exchanges + one).
    degp = ce.map_batches(deg_partial, batch_format="pyarrow")

    def _attach_kernel(t: pa.Table, out_cols) -> pa.Table:
        out_schema = pa.schema([(c, pa.int64()) for c in out_cols])
        if len(t) == 0:
            return out_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        st = tag == 0
        ed = ~st
        if not ed.any():
            return out_schema.empty_table()
        # reduce the co-located degree partials: exact total per node
        node, inv = np.unique(key[st], return_inverse=True)
        dv = np.zeros(len(node), np.int64)
        np.add.at(dv, inv,
                  t["d"].combine_chunks().to_numpy(zero_copy_only=False)[st])
        pos = np.searchsorted(node, key[ed])
        if (pos >= len(node)).any() or (node[np.minimum(
                pos, len(node) - 1)] != key[ed]).any():
            raise ValueError("triangle_count exchange: edge endpoint "
                             "missing from degree universe")
        cols = {"k": key[ed], "o": t["other"].combine_chunks().to_numpy(
            zero_copy_only=False)[ed], "dk": dv[pos],
            "do": t["d"].combine_chunks().to_numpy(
                zero_copy_only=False)[ed]}
        return pa.table({c: pa.array(cols[src], pa.int64())
                         for c, src in zip(out_cols,
                                           ("k", "o", "dk", "do"))})

    def deg_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["node"], "other": pa.array(
                np.zeros(len(t), np.int64), pa.int64()),
            "d": t["deg"],
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(att)

    # pass 1: key = a  -> (a, b, da)
    def edge_rows_a(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["a"], "other": t["b"],
            "d": pa.array(np.zeros(len(t), np.int64), pa.int64()),
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(att)

    p1 = co_locate(
        degp.map_batches(deg_rows, batch_format="pyarrow")
        .union(ce.map_batches(edge_rows_a, batch_format="pyarrow")),
        ["key"], num_partitions,
    ).map_batches(lambda t: _attach_kernel(t, ("a", "b", "da")),
                  batch_format="pyarrow", batch_size=None)

    # pass 2: key = b  -> (b, a, db, da)
    def edge_rows_b(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["b"], "other": t["a"], "d": t["da"],
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(att)

    p2 = co_locate(
        degp.map_batches(deg_rows, batch_format="pyarrow")
        .union(p1.map_batches(edge_rows_b, batch_format="pyarrow")),
        ["key"], num_partitions,
    ).map_batches(lambda t: _attach_kernel(t, ("b", "a", "db", "da")),
                  batch_format="pyarrow", batch_size=None)

    def orient_local(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                              ("dh", pa.int64())]).empty_table()
        a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
        b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
        da = t["da"].combine_chunks().to_numpy(zero_copy_only=False)
        db = t["db"].combine_chunks().to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        lo = np.where(a_first, a, b)
        hi = np.where(a_first, b, a)
        dh = np.where(a_first, db, da)
        return pa.table({"lo": pa.array(lo, pa.int64()),
                         "hi": pa.array(hi, pa.int64()),
                         "dh": pa.array(dh, pa.int64())})

    # materialized: oe feeds both the wedge exchange and the closure
    # union, so orientation runs once
    return p2.map_batches(orient_local,
                          batch_format="pyarrow").materialize()


def triangle_count(edges_ds, num_partitions: int = 8,
                   degree_mode: str = "auto") -> pa.Table:
    """Exact triangle count over the undirected edge set — the multi-way
    graph SELF-JOIN shape (PageRank = iteration, BFS = traversal,
    triangles = join), fully SQL-oracle-checkable.

    The degree-ordered node-iterator plan (the standard work bound for
    exact distributed counting — total wedge fan-out is O(m^1.5)).
    Every exchange below is a co-locating range sort
    (``util.co_locate``): a key never spans two blocks, which is all the
    per-block steps rely on, and no aggregator actors start.

    1. canonical distinct edges (``kcore.canonical_edges``): per-block
       canonicalize (a < b) + local distinct, ONE exchange on (a, b),
       per-block distinct;
    2. degrees + 3. orientation low->high in the (degree, node) total
       order: each triangle then has exactly ONE node with two
       out-edges, so it is found exactly once and the max out-degree is
       O(sqrt(m)) regardless of raw-degree skew (the hot-node star that
       breaks naive adjacency grouping).  Two interchangeable plans,
       bit-identical output (parity pytest):

       - ``degree_mode="broadcast"``: per-block (node, deg) partials
         merged on the driver and the rank array broadcast via ray.put —
         one pass, valid while the node universe is dimension-sized;
       - ``degree_mode="exchange"`` (VERDICT r3 item 3, the 100 TB
         growth path): per-block degree partials ride TWO tag-union
         exchanges that reduce them and attach deg to each endpoint;
         blocks orient locally by comparing (deg_a, a) vs (deg_b, b) — the
         comparison IS the total order, so no global rank array and no
         node-universe-sized state anywhere;
       - ``degree_mode="auto"``: broadcast while the materialized edge
         count (free conservative node-universe proxy, |nodes| <=
         2|edges|) stays under GRAPH_BROADCAST_EDGE_LIMIT.

    4. wedges: one exchange on the source endpoint, per-block pair
       enumeration over each out-adjacency list (pairs ordered by the
       same (deg, node) order in both plans);
    5. closure: wedge rows and oriented-edge rows tag-union through one
       exchange on (v, w); each block's sorted sweep counts wedges whose
       endpoint pair carries an edge row, and the driver sums the
       per-block scalars.

    Returns a one-row table ``{n_triangles: int64}``.
    """
    import ray

    ce = canonical_edges(edges_ds, num_partitions)

    def deg_partial(t: pa.Table) -> pa.Table:
        node = np.concatenate([
            t["a"].combine_chunks().to_numpy(zero_copy_only=False),
            t["b"].combine_chunks().to_numpy(zero_copy_only=False),
        ])
        u, c = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "deg": pa.array(c.astype(np.int64), pa.int64())})

    tagged = pa.schema([("v", pa.int64()), ("w", pa.int64()),
                        ("tag", pa.int8())])

    n_edges = ce.count()
    if n_edges == 0:
        return pa.table({"n_triangles": pa.array([0], pa.int64())})
    if degree_mode == "auto":
        degree_mode = ("broadcast"
                       if n_edges <= GRAPH_BROADCAST_EDGE_LIMIT
                       else "exchange")
    if degree_mode not in ("broadcast", "exchange"):
        raise ValueError(f"triangle_count: unknown degree_mode "
                         f"{degree_mode!r}")

    if degree_mode == "exchange":
        oe = _orient_exchange(ce, deg_partial, num_partitions)

        def wedges_x(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return tagged.empty_table()
            lo = t["lo"].combine_chunks().to_numpy(zero_copy_only=False)
            hi = t["hi"].combine_chunks().to_numpy(zero_copy_only=False)
            dh = t["dh"].combine_chunks().to_numpy(zero_copy_only=False)
            # neighbors of each source ascending in (deg, node) — the
            # same total order the broadcast plan's rank array encodes
            order = np.lexsort((hi, dh, lo))
            lo, hi = lo[order], hi[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(lo[1:] != lo[:-1]) + 1, [len(lo)]])
            v_l, w_l = [], []
            for s, e in zip(starts[:-1], starts[1:]):
                g = e - s
                if g < 2:
                    continue
                nbr = hi[s:e]
                ii, jj = np.triu_indices(g, k=1)
                v_l.append(nbr[ii])
                w_l.append(nbr[jj])
            if not v_l:
                return tagged.empty_table()
            v = np.concatenate(v_l)
            w = np.concatenate(w_l)
            return pa.table({"v": pa.array(v, pa.int64()),
                             "w": pa.array(w, pa.int64()),
                             "tag": pa.array(np.zeros(len(v), np.int8),
                                             pa.int8())})

        wedge_ds = co_locate(oe, ["lo"], num_partitions).map_batches(
            wedges_x, batch_format="pyarrow", batch_size=None)
    else:
        dp = _collect(ce.map_batches(deg_partial, batch_format="pyarrow"))
        if len(dp) == 0:
            return pa.table({"n_triangles": pa.array([0], pa.int64())})
        nodes, inv = np.unique(dp["node"].to_numpy(zero_copy_only=False),
                               return_inverse=True)
        deg = np.zeros(len(nodes), np.int64)
        np.add.at(deg, inv, dp["deg"].to_numpy(zero_copy_only=False))
        # rank = position in the (degree, node) total order
        rank = np.empty(len(nodes), np.int64)
        rank[np.lexsort((nodes, deg))] = np.arange(len(nodes))
        rank_ref = ray.put((nodes, rank))

        def orient(t: pa.Table) -> pa.Table:
            nd, rk = ray.get(rank_ref)
            a = t["a"].combine_chunks().to_numpy(zero_copy_only=False)
            b = t["b"].combine_chunks().to_numpy(zero_copy_only=False)
            ra = rk[np.searchsorted(nd, a)]
            rb = rk[np.searchsorted(nd, b)]
            lo = np.where(ra < rb, a, b)
            hi = np.where(ra < rb, b, a)
            return pa.table({"lo": pa.array(lo, pa.int64()),
                             "hi": pa.array(hi, pa.int64())})

        # materialized: oe feeds both the wedge exchange and the closure
        # union, so orientation runs once
        oe = ce.map_batches(orient, batch_format="pyarrow").materialize()

        def wedges(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return tagged.empty_table()
            nd, rk = ray.get(rank_ref)
            lo = t["lo"].combine_chunks().to_numpy(zero_copy_only=False)
            hi = t["hi"].combine_chunks().to_numpy(zero_copy_only=False)
            rh = rk[np.searchsorted(nd, hi)]
            order = np.lexsort((rh, lo))
            lo, hi = lo[order], hi[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(lo[1:] != lo[:-1]) + 1, [len(lo)]])
            v_l, w_l = [], []
            for s, e in zip(starts[:-1], starts[1:]):
                g = e - s
                if g < 2:
                    continue
                nbr = hi[s:e]  # rank-ascending out-neighbors of one source
                ii, jj = np.triu_indices(g, k=1)
                v_l.append(nbr[ii])
                w_l.append(nbr[jj])
            if not v_l:
                return tagged.empty_table()
            v = np.concatenate(v_l)
            w = np.concatenate(w_l)
            return pa.table({"v": pa.array(v, pa.int64()),
                             "w": pa.array(w, pa.int64()),
                             "tag": pa.array(np.zeros(len(v), np.int8),
                                             pa.int8())})

        wedge_ds = co_locate(oe, ["lo"], num_partitions).map_batches(
            wedges, batch_format="pyarrow", batch_size=None)

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "v": t["lo"],
            "w": t["hi"],
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(tagged)

    union = wedge_ds.union(oe.map_batches(edge_rows, batch_format="pyarrow"))
    union = co_locate(union, ["v", "w"], num_partitions)

    def close_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        v = t["v"].combine_chunks().to_numpy(zero_copy_only=False)
        w = t["w"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((w, v))
        v, w, tag = v[order], w[order], tag[order]
        starts = np.concatenate(
            [[0], np.flatnonzero((v[1:] != v[:-1]) | (w[1:] != w[:-1])) + 1,
             [len(v)]])
        sizes = np.diff(starts)
        # oriented edges are globally distinct -> at most one tag-1 row per
        # (v, w) group; wedges in a closed group = size - 1
        has_edge = np.add.reduceat(tag.astype(np.int64), starts[:-1]) > 0
        n = int(((sizes - 1) * has_edge).sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = _collect(union.map_batches(close_partial, batch_format="pyarrow",
                                       batch_size=None))
    total = int(parts["n"].to_numpy(zero_copy_only=False).sum()) if len(parts) else 0
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def reachability_exchange_ds(edges_ds, source: int = 0, max_hops: int = 4,
                             num_partitions: int = 8):
    """Keyed-exchange BFS — bit-identical to :func:`reachability`
    (parity pytest) with NO frontier/visited broadcast and NO
    node-universe driver output: returns the visited set as a
    ``Dataset`` of (node, dist) (VERDICT r4 item 2).  Per hop,

      A. frontier rows + edge rows tag-union, KR on the SOURCE node:
         blocks emit the distinct successors of frontier members
         (block-pre-distinct — the combiner discipline);
      B. visited rows + candidate rows tag-union, KR on the node:
         blocks emit candidates with no visited row as (node, hop).

    visited/frontier live as Datasets; the only per-hop driver scalar
    is the fresh-node count (stop condition).  Two keyed exchanges per
    hop; the growth path past GRAPH_BROADCAST_EDGE_LIMIT where the
    broadcast frontier no longer fits (same contract as
    pagerank_exchange / triangle degree_mode="exchange")."""
    uF = pa.schema([("key", pa.int64()), ("dst", pa.int64()),
                    ("tag", pa.int8())])
    uV = pa.schema([("key", pa.int64()), ("dist", pa.int64()),
                    ("tag", pa.int8())])
    nd_schema = pa.schema([("node", pa.int64()), ("dist", pa.int64())])

    import ray.data as rd

    edges_ds = edges_ds.materialize()
    visited = rd.from_arrow(pa.table({
        "node": pa.array([source], pa.int64()),
        "dist": pa.array([0], pa.int64())})).materialize()
    visited_refs = list(visited.to_arrow_refs())
    frontier = visited

    def frontier_rows(t: pa.Table) -> pa.Table:
        z = np.zeros(len(t), np.int64)
        return pa.table({
            "key": t["node"], "dst": pa.array(z, pa.int64()),
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(uF)

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["src"], "dst": t["dst"],
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(uF)

    def successors(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({"key": pa.array([], pa.int64())})
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        fr = np.unique(key[tag == 0])
        if not len(fr):
            return pa.table({"key": pa.array([], pa.int64())})
        ed = tag == 1
        src = key[ed]
        pos = np.searchsorted(fr, src)
        hit = fr[np.minimum(pos, len(fr) - 1)] == src
        dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)[ed]
        return pa.table({"key": pa.array(np.unique(dst[hit]), pa.int64())})

    def visited_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t["node"], "dist": t["dist"],
            "tag": pa.array(np.zeros(len(t), np.int8), pa.int8()),
        }).cast(uV)

    def cand_rows(t: pa.Table, _hop: int) -> pa.Table:
        return pa.table({
            "key": t["key"],
            "dist": pa.array(np.full(len(t), _hop, np.int64), pa.int64()),
            "tag": pa.array(np.ones(len(t), np.int8), pa.int8()),
        }).cast(uV)

    def fresh_block(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return nd_schema.empty_table()
        key = t["key"].combine_chunks().to_numpy(zero_copy_only=False)
        tag = t["tag"].combine_chunks().to_numpy(zero_copy_only=False)
        seen = np.unique(key[tag == 0])
        cand = key[tag == 1]
        dist = t["dist"].combine_chunks().to_numpy(
            zero_copy_only=False)[tag == 1]
        if len(seen):
            pos = np.searchsorted(seen, cand)
            new = seen[np.minimum(pos, len(seen) - 1)] != cand
        else:
            new = np.ones(len(cand), bool)
        # candidates may repeat across blocks' distinct passes — within
        # this KR block they are already unique per source emit; dedup
        # anyway for safety (dist is constant this hop)
        un = np.unique(cand[new])
        return pa.table({
            "node": pa.array(un, pa.int64()),
            "dist": pa.array(np.full(len(un), dist[0] if len(dist) else 0,
                                     np.int64), pa.int64()),
        })

    for hop in range(1, max_hops + 1):
        cands = (frontier.map_batches(frontier_rows,
                                      batch_format="pyarrow")
                 .union(edges_ds.map_batches(edge_rows,
                                             batch_format="pyarrow"))
                 .repartition(num_blocks=num_partitions, keys=["key"])
                 .map_batches(successors, batch_format="pyarrow",
                              batch_size=None))
        fresh = (visited.map_batches(visited_rows, batch_format="pyarrow")
                 .union(cands.map_batches(
                     lambda t, _h=hop: cand_rows(t, _h),
                     batch_format="pyarrow"))
                 .repartition(num_blocks=num_partitions, keys=["key"])
                 .map_batches(fresh_block, batch_format="pyarrow",
                              batch_size=None)).materialize()
        if fresh.count() == 0:
            break
        # Zero-copy visited union: combine the two materialized block
        # ref lists directly (the stages/cc.py:114 _sever idea, one step
        # further) — no union().materialize() execution per hop AND no
        # carried plan DAG, which otherwise grows linearly per hop (the
        # round-2 CC plan-lineage blowup shape — harmless at max_hops=4,
        # exponential setup on a deep BFS; VERDICT r4 item 5, flat-wall
        # pytest at max_hops=32 on a path graph).
        import ray.data as rd

        visited_refs = visited_refs + list(fresh.to_arrow_refs())
        visited = rd.from_arrow_refs(list(visited_refs))
        frontier = fresh

    return visited


def reachability_exchange(edges_ds, source: int = 0, max_hops: int = 4,
                          num_partitions: int = 8) -> pa.Table:
    """Oracle-scale finalizer over :func:`reachability_exchange_ds`:
    driver collect + global node sort.  ONLY for registered-query
    wrappers and parity tests; large-graph callers consume the Dataset
    form."""
    out = _collect(reachability_exchange_ds(
        edges_ds, source=source, max_hops=max_hops,
        num_partitions=num_partitions))
    order = np.argsort(out["node"].to_numpy(zero_copy_only=False))
    return pa.table({
        "node": pa.array(out["node"].to_numpy(
            zero_copy_only=False)[order], pa.int64()),
        "dist": pa.array(out["dist"].to_numpy(
            zero_copy_only=False)[order], pa.int64()),
    })


def reachability(edges_ds, source: int = 0, max_hops: int = 4) -> pa.Table:
    """BFS over the edge Dataset: (node, dist = min hops from ``source``)
    for every node within ``max_hops`` — the graph-traversal class, and
    (unlike k-means/PageRank) SQL-checkable via a recursive CTE, so the
    driver gate verifies the distributed iteration exactly.

    Each hop is one streaming pass: the frontier (sorted int64 array)
    broadcasts via ``ray.put``, blocks emit the distinct successors of
    frontier members (searchsorted membership — no Python loop), and the
    driver subtracts visited nodes the same way.  Frontier/visited are
    sorted int64 arrays, node-universe sized (the same broadcastability
    assumption as :func:`pagerank`)."""
    import ray

    edges_ds = edges_ds.materialize()
    visited = np.array([source], np.int64)  # sorted
    dist = np.zeros(1, np.int64)  # aligned with visited
    frontier = visited

    for hop in range(1, max_hops + 1):
        fref = ray.put(frontier)

        def succ(t: pa.Table, _fref=fref) -> pa.Table:
            if len(t) == 0:
                return pa.table({"node": pa.array([], pa.int64())})
            fr = ray.get(_fref)
            src = t["src"].combine_chunks().to_numpy(zero_copy_only=False)
            dst = t["dst"].combine_chunks().to_numpy(zero_copy_only=False)
            pos = np.searchsorted(fr, src)
            pos_c = np.minimum(pos, len(fr) - 1)
            hit = fr[pos_c] == src
            return pa.table({"node": pa.array(np.unique(dst[hit]), pa.int64())})

        parts = _collect(edges_ds.map_batches(succ, batch_format="pyarrow"))
        nxt = np.unique(parts["node"].to_numpy(zero_copy_only=False))
        pos = np.searchsorted(visited, nxt)
        fresh = visited[np.minimum(pos, len(visited) - 1)] != nxt
        if not fresh.any():
            break
        # the fresh nodes are sorted and absent from visited, so inserting
        # them at their searchsorted positions keeps visited sorted
        visited = np.insert(visited, pos[fresh], nxt[fresh])
        dist = np.insert(dist, pos[fresh], hop)
        frontier = nxt[fresh]

    return pa.table({"node": pa.array(visited, pa.int64()),
                     "dist": pa.array(dist, pa.int64())})
