"""Connected components: edges -> cluster assignments.

Two interchangeable implementations behind one interface
(``edges_ds, members_ds -> clusters_ds``):

- :func:`connected_components_driver` — union-find on the driver, streaming
  edge batches (O(V) driver memory; fine up to ~10^8 vertices).
- :func:`connected_components_distributed` — iterative min-label
  propagation in the hash-to-min family (Rastogi et al. 2013): each
  round, TWO keyed exchanges.  Stage 1 (keyed on k) co-locates label[k]
  with its consumers and emits candidates: neighbor propagation (edge
  rows), the forward pointer jump ``label[label[v]]`` (query rows), and
  v's own label.  Stage 2 (keyed on v) takes the per-vertex minimum AND
  emits the REVERSE message — the new label sent to the OLD label vertex,
  consumed as a plain candidate next round.  The reverse message is what
  makes this O(log n) rounds: forward jumping alone bottoms out at local
  minima whose own labels improve only at one hop per round, i.e.
  O(diameter) total (measured: 81 rounds on the sf0.1 co-purchase graph,
  301 on a simulated 1000-node path; with the reverse message, 19 and 31
  rounds on simulated 1k/100k-node paths).  Plain one-hop propagation is
  hopeless for an LSH consecutive-chain component whose diameter is its
  member count — a 10^6-member hot band would need 10^6 rounds.  If the
  fixpoint is not reached within ``max_rounds`` the function RAISES
  rather than returning silently-fragmented clusters.

cluster_id = min conv_id of the component (deterministic, permutation
invariant).  Vertices with no edges are their own singleton clusters.

Pattern context (PAPERS.md): the reverse-message formulation is the
hash-to-min family (Rastogi et al., "Finding Connected Components in
Map-Reduce in Logarithmic Rounds", ICDE 2013); load-balanced
distributed union-find structures (BTS, ICDE 2024) are the published
next step when per-key skew in the label exchange itself becomes the
bottleneck — our exchange rows are already per-vertex (not per-edge)
after the stage-2 min, which is the same balancing goal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


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
    import pyarrow.compute as pc
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


def _to_pandas_exact(t: pa.Table):
    """to_pandas that keeps int64 columns exact under nulls (plain
    to_pandas promotes nullable int64 to float64, which corrupts ids
    above 2^53)."""
    import pandas as pd

    return t.to_pandas(
        types_mapper={pa.int64(): pd.Int64Dtype()}.get)


def _sever(mds):
    """Re-wrap a MaterializedDataset's blocks as a fresh Dataset, dropping
    the logical-plan history.  Each CC round unions two datasets derived
    from the previous round's labels, so the carried plan DAG doubles
    every round; Ray Data walks that DAG as a tree at execution setup and
    per-round wall time turns exponential (measured 1 s -> 35 s by round
    12 at 2,000 constant rows; flat ~0.9 s/round with the sever).
    Zero-copy: block object refs only."""
    import ray.data as rd

    return rd.from_arrow_refs(mds.to_arrow_refs())


def connected_components_distributed(
    edges_ds, members_ds, max_rounds: int = 50, num_partitions: int = 32,
    vertex_type: pa.DataType = pa.string(),
):
    """Iterative min-label propagation, fully inside Ray Data (see module
    docstring).  Exercised at small scale in tests; equivalent output to the
    driver variant.

    ``vertex_type`` is the Arrow type of src/dst/conv_id (string for the
    flagship's conv keys; int64 for numeric graphs such as the co-purchase
    part graph).  cluster_id = component-minimum vertex under that type's
    natural order."""
    from ..util import shuffle_safe_partitions

    # Each round's plan holds TWO keyed hash-shuffles live at once
    # (propagate-combine and pointer-jump); clamp so their aggregator
    # actors cannot reserve every CPU away from the map tasks feeding
    # them (observed deadlock: p=16 x 2 shuffles on a 4-CPU session).
    num_partitions = shuffle_safe_partitions(
        num_partitions, concurrent_shuffles=3.0)

    def both_dirs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                ),
                "u": pa.concat_arrays(
                    [t["dst"].combine_chunks(), t["src"].combine_chunks()]
                ),
            }
        )

    edges = _sever(
        edges_ds.map_batches(both_dirs, batch_format="pyarrow").materialize())
    labels = (
        members_ds.select_columns(["conv_id"])
        .map_batches(
            lambda t: pa.table({"v": t["conv_id"], "label": t["conv_id"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    labels = _sever(labels)

    def _n_changed(mds) -> int:
        """Count of tag-3 (reverse-message) rows in a materialized round
        output — emitted exactly for vertices whose label CHANGED this
        round, so 0 means fixpoint (see convergence note in the loop).
        Computed with one tiny raw Ray task per block over the already-
        materialized refs: no Dataset execution (each execution carries
        a ~0.5 s scheduling floor that dominated part_components'
        wall — the old per-round fingerprint pass cost one such
        execution per round)."""
        import ray

        @ray.remote(num_cpus=0.25)
        def count_tag3(block) -> int:
            import pyarrow.compute as pc

            t = block if isinstance(block, pa.Table) else \
                pa.Table.from_batches([block])
            if len(t) == 0:
                return 0
            return int(pc.sum(pc.cast(pc.equal(
                t["tag"], pa.scalar(3, pa.int8())), pa.int64())).as_py()
                or 0)

        return sum(ray.get([count_tag3.remote(r)
                            for r in mds.to_arrow_refs()]))

    def _settle(deadline_s: float = 2.0) -> None:
        """Give the previous round's hash-shuffle aggregator actors a
        moment to release their CPU reservations (teardown is
        asynchronous).  The threshold is DELIBERATELY loose — 75% of the
        cluster, short deadline: this loop only guards against a round
        launching into a half-torn-down pool; demanding FULL availability
        made every round burn the whole deadline inside a bench suite
        where unrelated leftover actors hold fractional CPUs (measured:
        part_components 26 s solo vs 98 s in-suite at the old
        full-availability/10 s setting)."""
        import time

        import ray

        total = float(ray.cluster_resources().get("CPU", 0.0))
        t0 = time.monotonic()
        while time.monotonic() - t0 < deadline_s:
            if ray.available_resources().get("CPU", 0.0) >= total * 0.75:
                return
            time.sleep(0.1)

    cand_schema = pa.schema([
        ("v", vertex_type), ("label", vertex_type), ("tag", pa.int8())])
    stage1_schema = pa.schema([
        ("k", vertex_type), ("u", vertex_type),
        ("origin", vertex_type), ("label", vertex_type)])

    import os as _os
    import time as _time
    _dbg = bool(_os.environ.get("GRAFT_CC_DEBUG"))

    rev = None  # reverse-pointer candidates carried from the previous round
    for _round in range(max_rounds):
        _t0 = _time.monotonic()
        _settle()
        _t1 = _time.monotonic()
        # ---- stage 1 (keyed on k): every consumer of label[k] meets the
        # label row of k — edge rows (neighbor propagation), query rows
        # (forward pointer jump label[label[v]]).
        e2 = edges.map_batches(
            lambda t: pa.table({
                "k": t["v"], "u": t["u"],
                "origin": pa.nulls(len(t), vertex_type),
                "label": pa.nulls(len(t), vertex_type),
            }).cast(stage1_schema),
            batch_format="pyarrow",
        )
        l2 = labels.map_batches(
            lambda t: pa.table({
                "k": t["v"], "u": pa.nulls(len(t), vertex_type),
                "origin": pa.nulls(len(t), vertex_type), "label": t["label"],
            }).cast(stage1_schema),
            batch_format="pyarrow",
        )
        q2 = labels.map_batches(
            lambda t: pa.table({
                "k": t["label"], "u": pa.nulls(len(t), vertex_type),
                "origin": t["v"],
                "label": pa.nulls(len(t), vertex_type),
            }).cast(stage1_schema),
            batch_format="pyarrow",
        )
        stage1 = e2.union(l2).union(q2).repartition(
            num_blocks=num_partitions, keys=["k"])

        def answer(t: pa.Table, _cs=cand_schema) -> pa.Table:
            import pandas as pd

            if len(t) == 0:
                return _cs.empty_table()
            df = _to_pandas_exact(t)
            lab = df[df["label"].notna()][["k", "label"]]
            ident = lab.rename(columns={"k": "v"}).copy()
            ident["tag"] = np.int8(1)  # v's OWN label, tagged old
            edg = df[df["u"].notna()][["k", "u"]].merge(lab, on="k",
                                                        how="left")
            nb = edg[["u", "label"]].rename(columns={"u": "v"}).dropna()
            nb["tag"] = np.int8(0)
            qs = df[df["origin"].notna()][["k", "origin"]].merge(
                lab, on="k", how="left")
            jmp = qs[["origin", "label"]].rename(
                columns={"origin": "v"}).dropna()
            jmp["tag"] = np.int8(0)
            out = pd.concat([ident, nb, jmp])
            return pa.Table.from_pandas(
                out[["v", "label", "tag"]], preserve_index=False).cast(_cs)

        cand = stage1.map_batches(answer, batch_format="pyarrow",
                                  batch_size=None)
        if rev is not None:
            cand = cand.union(rev)
        cand = cand.repartition(num_blocks=num_partitions, keys=["v"])

        # ---- stage 2 (keyed on v): new label = min of all candidates.
        # ALSO emit the hash-to-min REVERSE message — send the new label
        # to the OLD label vertex (tag-2 rows, consumed as plain
        # candidates next round).  Without it, every pointer chain
        # bottoms out at a local minimum whose own label improves only at
        # propagation speed, and convergence is O(diameter) (measured: 81
        # rounds on the sf0.1 co-purchase graph, 301 on a simulated
        # 1000-path); with it the min's reach compounds geometrically —
        # O(log n) rounds (simulated: 19 on the 1000-path, 31 on a
        # 100k-path).
        def combine(t: pa.Table, _cs=cand_schema) -> pa.Table:
            if len(t) == 0:
                return _cs.empty_table()
            import pandas as pd

            df = _to_pandas_exact(t)
            new = df.groupby("v", as_index=False)["label"].min()
            new["tag"] = np.int8(2)  # label rows
            old = df[df["tag"] == 1][["v", "label"]].rename(
                columns={"label": "old"})
            m = new.merge(old, on="v", how="left")
            snd = m[m["old"].notna() & (m["old"] != m["label"])]
            rev_rows = pd.DataFrame({
                "v": snd["old"], "label": snd["label"],
                "tag": np.int8(3),  # reverse candidates for next round
            })
            # a vertex with NO old row is an edge endpoint outside
            # members_ds that just materialized a label: that IS a state
            # change, and with no old-label target the reverse message
            # goes to the vertex itself (an idempotent candidate) purely
            # so the tag-3 convergence count sees it — next round the
            # vertex has an old row and stops signalling (review r3:
            # breaking on tag-3 == 0 alone could stop before a
            # non-member bridge vertex propagated its label)
            born = m[m["old"].isna()]
            born_rows = pd.DataFrame({
                "v": born["v"], "label": born["label"],
                "tag": np.int8(3),
            })
            out = pd.concat([new[["v", "label", "tag"]], rev_rows,
                             born_rows])
            return pa.Table.from_pandas(
                out, preserve_index=False).cast(_cs)

        both = _sever(cand.map_batches(
            combine, batch_format="pyarrow", batch_size=None).materialize())
        _t2 = _time.monotonic()

        def pick_labels(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.filter(pc.equal(t["tag"], 2)).select(["v", "label"])

        def pick_rev(t: pa.Table, _cs=cand_schema) -> pa.Table:
            import pyarrow.compute as pc

            f = t.filter(pc.equal(t["tag"], 3))
            return pa.table({
                "v": f["v"], "label": f["label"],
                "tag": pa.array(np.zeros(len(f), np.int8), pa.int8()),
            }).cast(_cs)

        # labels/rev stay LAZY over the severed round output: each
        # consumer re-runs a trivial filter map instead of paying a
        # materialize execution per round
        labels = both.map_batches(pick_labels, batch_format="pyarrow")
        rev = both.map_batches(pick_rev, batch_format="pyarrow")

        # Convergence: tag-3 rows are emitted exactly when a vertex's
        # label changed (old present and != new), so 0 of them means no
        # label moved this round.  That is a fixpoint even though last
        # round's rev input was non-empty: next round's candidate set is
        # a SUBSET of this round's (same labels, empty rev), its
        # per-vertex min is >= this round's min and <= the own-label
        # candidate — both equal the unchanged label.
        nch = _n_changed(both)
        if _dbg:
            print(f"[cc] round {_round}: settle={_t1-_t0:.2f}s "
                  f"exec={_t2-_t1:.2f}s count={_time.monotonic()-_t2:.2f}s "
                  f"changed={nch}", flush=True)
        if nch == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components_distributed did not converge within "
            f"{max_rounds} rounds — returning would silently fragment "
            f"clusters; raise max_rounds (rounds needed ~ log2 of the "
            f"largest component size)")

    return labels.map_batches(
        lambda t: pa.table({"conv_id": t["v"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    )


# --------------------------------------------------------------------------
# BSP actor-pool variant: the iterative-fixpoint exception
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


class _CCShardActor:
    """One vertex-range shard of the BSP connected-components loop.

    Holds, for its hash range: the label table (v -> label), the edge
    rows keyed on their source (co-located with label[k] so neighbor
    candidates need no extra hop), and the reverse-message candidates
    carried between rounds.  Each round is two all-to-all message
    exchanges of fixed-width (vertex, label) rows moved actor-to-actor
    through the object store — the per-round Dataset-execution floor
    (~1.4 s/round measured at sf0.1: two hash-shuffle operator setups
    per round regardless of data size) disappears, which is exactly the
    'iterative algorithm on a shared mutable index' case where raw Ray
    actors are warranted over Dataset ops.  Candidate generation is
    IDENTICAL to connected_components_distributed: neighbor propagation,
    forward pointer jump label[label[v]], own label, and the hash-to-min
    reverse message (Rastogi et al. 2013) that makes rounds O(log n).
    """

    def __init__(self, n_shards: int, shard_id: int,
                 vertex_type_str: str = "string"):
        self.n = n_shards
        self.i = shard_id
        self.vt = (pa.int64() if vertex_type_str == "int64"
                   else pa.string())
        self._edges: list[pa.Table] = []
        self._members: list[pa.Table] = []
        self.edges: pa.Table | None = None   # (k, u) with shard(k) == i
        self.labels = None                   # pandas v -> label
        self.pending: list = []              # candidate tables for next round

    def add_edges(self, t: pa.Table) -> None:
        self._edges.append(t)

    def add_members(self, t: pa.Table) -> None:
        self._members.append(t)

    def seal(self) -> int:
        import pandas as pd

        e = (pa.concat_tables(self._edges) if self._edges
             else pa.table({"k": pa.array([], pa.string()),
                            "u": pa.array([], pa.string())}))
        self.edges = e
        # vertex universe = members routed here PLUS edge endpoints that
        # appear as a local source (edges carry both directions, so every
        # endpoint is some shard's k): an endpoint outside members_ds
        # still bridges components, exactly as in the Dataset variant
        frames = []
        m = (pa.concat_tables(self._members) if self._members else None)
        if m is not None and len(m):
            frames.append(_to_pandas_exact(m)[["v"]])
        if len(e):
            frames.append(
                _to_pandas_exact(e.select(["k"])).rename(
                    columns={"k": "v"}).drop_duplicates())
        if not frames:
            self.labels = pd.DataFrame({"v": [], "label": []})
        else:
            u = pd.concat(frames).drop_duplicates("v")
            self.labels = pd.DataFrame({"v": u["v"], "label": u["v"]})
        self._edges, self._members = [], []
        return len(self.labels)

    def phase_queries(self):
        """-> n tables: forward-jump queries (k=label[v], origin=v),
        bucketed by shard(k)."""
        lab = self.labels
        q = pa.table({
            "k": pa.Array.from_pandas(lab["label"]),
            "origin": pa.Array.from_pandas(lab["v"]),
        })
        return tuple(_bucketize(q, "k", self.n))

    def phase_answers(self, *qparts):
        """queries routed here -> n candidate tables (v, label) bucketed
        by shard(v): jump answers (origin, label[k]) + neighbor
        propagation (u, label[k]) from the co-located edges."""
        import pandas as pd

        lab = self.labels
        # n_shards == 1: num_returns=1 delivers the 1-tuple itself
        qparts = [q[0] if isinstance(q, tuple) else q for q in qparts]
        qs = [q for q in qparts if q is not None and len(q)]
        cands = []
        if qs:
            qt = _to_pandas_exact(pa.concat_tables(qs))
            a = qt.merge(lab, left_on="k", right_on="v", how="inner")
            cands.append(pd.DataFrame({"v": a["origin"], "label": a["label"]}))
        if len(self.edges):
            et = _to_pandas_exact(self.edges)
            ne = et.merge(lab, left_on="k", right_on="v", how="inner")
            cands.append(pd.DataFrame({"v": ne["u"], "label": ne["label"]}))
        if cands:
            c = pd.concat(cands)
            # pre-min per (shard-local) vertex before shipping: the
            # combiner that keeps message volume per round <= V rows
            c = c.groupby("v", as_index=False)["label"].min()
            ct = pa.Table.from_pandas(c, preserve_index=False)
        else:
            ct = pa.table({"v": pa.Array.from_pandas(lab["v"]).slice(0, 0),
                           "label":
                           pa.Array.from_pandas(lab["label"]).slice(0, 0)})
        return tuple(_bucketize(ct, "v", self.n))

    def phase_combine(self, *cparts):
        """candidates routed here (+ pending reverse messages) -> new
        labels; returns n reverse-message tables bucketed by
        shard(old_label) + the changed-vertex count (last return)."""
        import pandas as pd

        lab = self.labels
        self_pending, self.pending = self.pending, []
        if len(lab) == 0:
            # no local vertices: nothing to update; candidates routed
            # here name non-member vertices and are dropped (the inner
            # merge below would drop them anyway)
            empty = pa.table({"v": pa.array([], self.vt),
                              "label": pa.array([], self.vt)})
            return tuple([empty] * self.n + [0])
        frames = [lab]
        cparts = [c[0] if isinstance(c, tuple) else c for c in cparts]
        for c in cparts:
            if c is not None and len(c):
                frames.append(_to_pandas_exact(c))
        for c in self_pending:
            if len(c):
                frames.append(_to_pandas_exact(c))
        allc = pd.concat(frames)
        new = allc.groupby("v", as_index=False)["label"].min()
        # restrict to this shard's universe (reverse messages can name
        # vertices that exist; inner-merge keeps the old label alongside)
        m = new.merge(lab.rename(columns={"label": "old"}), on="v",
                      how="inner")
        changed = m[m["label"] != m["old"]]
        self.labels = pd.DataFrame({"v": m["v"], "label": m["label"]})
        rev = pa.Table.from_pandas(
            pd.DataFrame({"v": changed["old"], "label": changed["label"]}),
            preserve_index=False)
        out = list(_bucketize(rev, "v", self.n))
        out.append(len(changed))
        return tuple(out)

    def set_pending(self, *rparts) -> None:
        self.pending = [r for r in rparts if r is not None and len(r)]

    def fetch_labels(self) -> pa.Table:
        if len(self.labels) == 0:
            return pa.table({"conv_id": pa.array([], self.vt),
                             "cluster_id": pa.array([], self.vt)})
        return pa.table({
            "conv_id": pa.Array.from_pandas(
                self.labels["v"]).cast(self.vt),
            "cluster_id": pa.Array.from_pandas(
                self.labels["label"]).cast(self.vt),
        })


def connected_components_bsp(
    edges_ds, members_ds, max_rounds: int = 60, n_shards: int = 8,
    vertex_type: pa.DataType = pa.string(),
):
    """Hash-to-min connected components on a pool of long-lived shard
    actors (see _CCShardActor).  Same output contract as the other two
    variants: (conv_id, cluster_id = component-min vertex), singletons
    included.  Preferred for graphs needing many rounds: per-round cost
    is two actor-to-actor message barriers, not two Dataset hash
    shuffles."""
    import ray
    import ray.data as rd

    vt_str = "int64" if pa.types.is_integer(vertex_type) else "string"
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
    actors = [Actor.remote(n_shards, i, vt_str) for i in range(n_shards)]

    def route_edges(t: pa.Table) -> pa.Table:
        both = pa.table({
            "k": pa.concat_arrays([t["src"].combine_chunks(),
                                   t["dst"].combine_chunks()]),
            "u": pa.concat_arrays([t["dst"].combine_chunks(),
                                   t["src"].combine_chunks()]),
        })
        refs = [actors[i].add_edges.remote(part)
                for i, part in enumerate(_bucketize(both, "k", n_shards))
                if len(part)]
        ray.get(refs)  # delivered before the task reports done
        return pa.table({"n": pa.array([len(t)], pa.int64())})

    def route_members(t: pa.Table) -> pa.Table:
        m = pa.table({"v": t["conv_id"]})
        refs = [actors[i].add_members.remote(part)
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
