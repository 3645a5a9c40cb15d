"""Connected components: edges -> cluster assignments.

Two interchangeable implementations behind one interface
(``edges_ds, members_ds -> clusters_ds``):

- :func:`connected_components_driver` — union-find on the driver, streaming
  edge batches (O(V) driver memory; fine up to ~10^8 vertices).
- :func:`connected_components_bsp` — hash-to-min (Rastogi et al. 2013) on
  a pool of long-lived shard actors, one vertex-hash range each.  Every
  round is two all-to-all message exchanges between the actors: a
  vertex's candidates are its neighbors' labels (edge rows), the forward
  pointer jump ``label[label[v]]`` and its own label; the per-vertex
  minimum becomes the new label, and a vertex whose label changed sends
  the new label to its OLD label vertex (the reverse message).  The
  reverse message is what makes this O(log n) rounds: forward jumping
  alone bottoms out at local minima whose own labels improve only at one
  hop per round, i.e. O(diameter) total (measured: 81 rounds on the sf0.1
  co-purchase graph, 301 on a simulated 1000-node path; with the reverse
  message, 19 and 31 rounds on simulated 1k/100k-node paths).  Plain
  one-hop propagation is hopeless for an LSH consecutive-chain component
  whose diameter is its member count.  If the fixpoint is not reached
  within ``max_rounds`` the function RAISES rather than returning
  silently-fragmented clusters.

cluster_id = min conv_id of the component (deterministic, permutation
invariant).  Vertices with no edges are their own singleton clusters.

Pattern context (PAPERS.md): load-balanced distributed union-find
structures (BTS, ICDE 2024) are the published next step when one hub
component skews the shard loads; the messages here are already
per-vertex (each shard pre-mins its candidates before sending).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # min-id wins so cluster_id = min conv_id falls out of the structure
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra


def connected_components_driver(edges_ds, members_ds):
    """Driver union-find. ``members_ds`` supplies the vertex universe
    (column conv_id) so edge-less conversations become singletons.

    The vertex->root mapping is broadcast as two aligned Arrow string
    arrays (buffer-backed, cheap to ship/get) and applied with a
    vectorized ``pc.index_in`` hash lookup per batch — a Python dict here
    costs a full unpickle per task."""
    import ray

    uf = _UnionFind()
    for batch in edges_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for s, d in zip(batch["src"].to_pylist(), batch["dst"].to_pylist()):
            uf.union(s, d)
    touched = list(uf.parent.keys())
    keys = pa.array(touched, pa.string())
    labels = pa.array([uf.find(v) for v in touched], pa.string())
    map_ref = ray.put((keys, labels))  # broadcast once

    def assign(t: pa.Table) -> pa.Table:
        ks, ls = ray.get(map_ref)
        conv = t["conv_id"].combine_chunks()
        if len(ks) == 0:
            return pa.table({"conv_id": conv, "cluster_id": conv})
        pos = pc.index_in(conv, value_set=ks)
        hit = pc.is_valid(pos)
        cluster = pc.if_else(hit, ls.take(pc.fill_null(pos, 0)), conv)
        return pa.table({"conv_id": conv, "cluster_id": cluster})

    return members_ds.select_columns(["conv_id"]).map_batches(
        assign, batch_format="pyarrow"
    )


def _sever(mds):
    """Re-wrap a MaterializedDataset's blocks as a fresh Dataset, dropping
    the logical-plan history.  An iterative loop that unions datasets
    derived from the previous round's output carries a plan DAG that
    doubles every round; Ray Data walks that DAG as a tree at execution
    setup and per-round wall time turns exponential (measured 1 s -> 35 s
    by round 12 at 2,000 constant rows; flat ~0.9 s/round with the
    sever).  Zero-copy: block object refs only."""
    import ray.data as rd

    return rd.from_arrow_refs(mds.to_arrow_refs())


# --------------------------------------------------------------------------
# BSP actor-pool hash-to-min: the iterative-fixpoint exception
# --------------------------------------------------------------------------

def _shard_of(arr: pa.Array, n: int) -> np.ndarray:
    """Deterministic shard index of a string or int64 vertex column."""
    from ..util import hash_str_array_u64, mix64

    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        h = hash_str_array_u64(arr)
    else:
        h = mix64(arr.cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.uint64))
    return (h % np.uint64(n)).astype(np.int64)


def _bucketize(t: pa.Table, col: str, n: int) -> list[pa.Table]:
    """Split a table into n sub-tables by vertex-hash of ``col``."""
    if len(t) == 0:
        return [t] * n
    s = _shard_of(t[col].combine_chunks(), n)
    order = np.argsort(s, kind="stable")
    ss = s[order]
    cuts = np.searchsorted(ss, np.arange(n + 1))
    tt = t.take(pa.array(order, pa.int64()))
    return [tt.slice(cuts[i], cuts[i + 1] - cuts[i]) for i in range(n)]


def _vl(v, label) -> pa.Table:
    """A (v, label) message table: every message has this one schema, so
    a shard concatenates what it receives without a cast."""
    return pa.table({"v": v, "label": label})


def _min_label(t: pa.Table) -> pa.Table:
    """(v, label) rows -> one row per v with its minimum label."""
    g = t.group_by("v").aggregate([("label", "min")])
    return _vl(g["v"], g["label_min"])


def _unwrap(parts) -> list[pa.Table]:
    # n_shards == 1: num_returns=1 delivers the 1-tuple itself
    return [p[0] if isinstance(p, tuple) else p for p in parts]


class _CCShardActor:
    """One vertex-hash shard of the BSP connected-components loop.

    Holds, for its hash range: the label table (v -> label), the edge
    rows keyed on their source (co-located with label[k] so neighbor
    candidates need no extra hop), and the reverse-message candidates
    carried between rounds.  Each round is two all-to-all message
    exchanges of fixed-width (vertex, label) rows moved actor-to-actor
    through the object store — no Dataset execution per round, which is
    exactly the 'iterative algorithm on a shared mutable index' case
    where raw Ray actors are warranted over Dataset ops.  Every lookup
    and minimum is an Arrow kernel (hash join, hash group-by min), so
    string and int64 vertices stay exact and no pandas conversion runs.
    """

    def __init__(self, n_shards: int, vertex_type: pa.DataType):
        self.n = n_shards
        self.vt = vertex_type
        self._edges: list[pa.Table] = []
        self._members: list[pa.Array] = []
        self.edges: pa.Table | None = None   # (k, u) with shard(k) == this
        self.labels: pa.Table | None = None  # (v, label), one row per vertex
        self.pending: list[pa.Table] = []    # reverse messages for next round

    def add_edges(self, t: pa.Table) -> None:
        self._edges.append(t)

    def add_members(self, v: pa.Array) -> None:
        self._members.append(v)

    def seal(self) -> int:
        self.edges = (pa.concat_tables(self._edges) if self._edges
                      else pa.table({"k": pa.array([], self.vt),
                                     "u": pa.array([], self.vt)}))
        # vertex universe = members routed here PLUS edge endpoints that
        # appear as a local source (edges carry both directions, so every
        # endpoint is some shard's k): an endpoint outside members_ds
        # still bridges components
        v = pc.unique(pa.chunked_array(
            self._members + self.edges["k"].chunks, self.vt))
        self.labels = _vl(v, v)
        self._edges, self._members = [], []
        return len(v)

    def phase_queries(self):
        """-> n tables: forward-jump queries (k=label[v], origin=v),
        bucketed by shard(k)."""
        q = pa.table({"k": self.labels["label"], "origin": self.labels["v"]})
        return tuple(_bucketize(q, "k", self.n))

    def phase_answers(self, *qparts):
        """queries routed here -> n candidate tables (v, label) bucketed
        by shard(v): jump answers (origin, label[k]) + neighbor
        propagation (u, label[k]) from the co-located edges."""
        lab = self.labels
        qs = [q for q in _unwrap(qparts) if len(q)]
        cands = []
        if qs:
            a = pa.concat_tables(qs).join(lab, keys="k", right_keys="v",
                                          join_type="inner")
            cands.append(_vl(a["origin"], a["label"]))
        if len(self.edges):
            ne = self.edges.join(lab, keys="k", right_keys="v",
                                 join_type="inner")
            cands.append(_vl(ne["u"], ne["label"]))
        # pre-min per vertex before shipping: the combiner that keeps
        # message volume per round <= V rows
        c = _min_label(pa.concat_tables(cands)) if cands else lab.slice(0, 0)
        return tuple(_bucketize(c, "v", self.n))

    def phase_combine(self, *cparts):
        """candidates routed here (+ pending reverse messages) -> new
        labels; returns n reverse-message tables bucketed by
        shard(old_label) + the changed-vertex count (last return)."""
        lab = self.labels
        pending, self.pending = self.pending, []
        parts = [c for c in _unwrap(cparts) if len(c)] + pending
        new = _min_label(pa.concat_tables([lab] + parts))
        # the own-label row puts every local vertex in ``new``; the inner
        # join pairs each with its old label
        m = new.join(lab.rename_columns(["v", "old"]), keys="v",
                     join_type="inner")
        changed = m.filter(pc.not_equal(m["label"], m["old"]))
        self.labels = _vl(m["v"], m["label"])
        out = list(_bucketize(_vl(changed["old"], changed["label"]), "v",
                              self.n))
        out.append(len(changed))
        return tuple(out)

    def set_pending(self, *rparts) -> None:
        self.pending = [r for r in rparts if len(r)]

    def fetch_labels(self) -> pa.Table:
        return pa.table({"conv_id": self.labels["v"],
                         "cluster_id": self.labels["label"]})


def connected_components_bsp(
    edges_ds, members_ds, max_rounds: int = 60, n_shards: int = 8,
    vertex_type: pa.DataType = pa.string(),
):
    """Hash-to-min connected components on a pool of long-lived shard
    actors (see _CCShardActor and the module docstring).  Same output
    contract as the driver variant: (conv_id, cluster_id = component-min
    vertex), singletons included.

    ``vertex_type`` is the Arrow type of src/dst/conv_id (string for the
    flagship's conv ids; int64 for numeric graphs such as the co-purchase
    part graph); cluster_id is the component minimum under that type's
    natural order."""
    import ray
    import ray.data as rd

    # fractional CPUs: the pool must never reserve the whole cluster away
    # from the tasks that feed it (n_shards x 1.0 deadlocked a 4-CPU
    # session, and so did 16 shards x 0.25); shards are latency-bound
    # message handlers, not sustained compute.  Cap the pool at half the
    # session's CPUs.
    shard_cpu = 0.25
    cpus = float(ray.cluster_resources().get("CPU", 0.0))
    if cpus > 0:
        n_shards = max(1, min(n_shards, int(cpus * 0.5 / shard_cpu)))
    Actor = ray.remote(num_cpus=shard_cpu)(_CCShardActor)
    actors = [Actor.remote(n_shards, vertex_type) for _ in range(n_shards)]

    def route_edges(t: pa.Table) -> pa.Table:
        src = t["src"].combine_chunks().cast(vertex_type)
        dst = t["dst"].combine_chunks().cast(vertex_type)
        both = pa.table({"k": pa.concat_arrays([src, dst]),
                         "u": pa.concat_arrays([dst, src])})
        refs = [actors[i].add_edges.remote(part)
                for i, part in enumerate(_bucketize(both, "k", n_shards))
                if len(part)]
        ray.get(refs)  # delivered before the task reports done
        return pa.table({"n": pa.array([len(t)], pa.int64())})

    def route_members(t: pa.Table) -> pa.Table:
        m = pa.table({"v": t["conv_id"].combine_chunks().cast(vertex_type)})
        refs = [actors[i].add_members.remote(part["v"].combine_chunks())
                for i, part in enumerate(_bucketize(m, "v", n_shards))
                if len(part)]
        ray.get(refs)
        return pa.table({"n": pa.array([len(t)], pa.int64())})

    # loading is DISTRIBUTED: map tasks bucketize their block and push
    # parts straight to the shard actors (actor handles serialize into
    # tasks), so edge bytes never funnel through the driver; each task
    # ray.get's its pushes, so materialize() returning means every row
    # is delivered and seal() is safe
    edges_ds.map_batches(route_edges, batch_format="pyarrow").materialize()
    members_ds.select_columns(["conv_id"]).map_batches(
        route_members, batch_format="pyarrow").materialize()
    ray.get([a.seal.remote() for a in actors])

    n = n_shards
    for _round in range(max_rounds):
        qgrid = [a.phase_queries.options(num_returns=n).remote()
                 for a in actors]
        if n == 1:
            qgrid = [[r] for r in qgrid]
        cgrid = [actors[j].phase_answers.options(num_returns=n).remote(
            *[qgrid[i][j] for i in range(n)]) for j in range(n)]
        if n == 1:
            cgrid = [[r] for r in cgrid]
        rgrid = [actors[j].phase_combine.options(num_returns=n + 1).remote(
            *[cgrid[i][j] for i in range(n)]) for j in range(n)]
        changed = sum(ray.get([rgrid[j][n] for j in range(n)]))
        if changed == 0:
            break
        ray.get([actors[j].set_pending.remote(
            *[rgrid[i][j] for i in range(n)]) for j in range(n)])
    else:
        raise RuntimeError(
            f"connected_components_bsp did not converge within "
            f"{max_rounds} rounds — raise max_rounds (rounds needed ~ "
            f"log2 of the largest component size)")

    refs = [a.fetch_labels.remote() for a in actors]
    out = rd.from_arrow_refs(refs)
    # detach from the actors' lifetime: materialize the (small, per-
    # vertex) label blocks before the pool is released
    out = out.materialize()
    for a in actors:
        ray.kill(a)
    return _sever(out)
