"""Measure the pagerank broadcast-vs-keyed-exchange crossover (VERDICT
r4 item 4): synthetic power-law-ish directed graphs at 1M / 10M / 50M
edges, both plans, walls + exchange row counts, so
GRAPH_BROADCAST_EDGE_LIMIT is set from a MEASUREMENT (the way CC's
BSP crossover was) instead of a reasoned constant.

Run:  python tools/measure_graph_crossover.py [--edges 1e6,1e7,5e7]
                                              [--n-iter 3] [--cpus 32]

``--op kcore`` measures the k-core plans on the same graphs; ``--op cc``
measures connected components, driver union-find against the BSP actor
hash-to-min, on string-id LSH-shaped graphs of ``--vertices`` vertices
(``python tools/measure_graph_crossover.py --op cc --cpus 4
--vertices 3e3,2e5,2e6``).

Prints one JSON line per (plan, scale) and a summary table; paste the
results into BASELINE.md and annotate GRAPH_BROADCAST_EDGE_LIMIT.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def synth_edges(n_edges: int, seed: int = 7, avg_deg: int = 10):
    """Directed graph with a Zipf-flavored dst skew (hot hubs — the
    realistic hard case for a keyed exchange) and ~n_edges/avg_deg
    distinct nodes.  Built in 8M-edge numpy slabs so the driver never
    holds the whole edge list as Python objects."""
    rng = np.random.default_rng(seed)
    n_nodes = max(2, n_edges // avg_deg)
    slabs = []
    left = n_edges
    while left > 0:
        m = min(left, 8_000_000)
        src = rng.integers(0, n_nodes, m, dtype=np.int64)
        # mild hub skew: 10% of edges land on the hottest 0.1% of nodes
        dst = rng.integers(0, n_nodes, m, dtype=np.int64)
        hub = rng.random(m) < 0.10
        dst[hub] = rng.integers(0, max(1, n_nodes // 1000), int(hub.sum()),
                                dtype=np.int64)
        slabs.append(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
        left -= m
    return slabs, n_nodes


def _load_edges(n_edges: int):
    import ray
    import ray.data as rd

    slabs, n_nodes = synth_edges(n_edges)
    if len(slabs) == 1:
        edges = rd.from_arrow(slabs[0]).repartition(32).materialize()
    else:
        edges = rd.from_arrow_refs(
            [ray.put(s) for s in slabs]).materialize()
    return edges, n_nodes


def run_one(plan: str, n_edges: int, n_iter: int, num_partitions: int):
    from fastcdc_rs_ray.stages.pagerank import (
        pagerank,
        pagerank_exchange_ds,
    )

    edges, n_nodes = _load_edges(n_edges)
    t0 = time.monotonic()
    if plan == "broadcast":
        out = pagerank(edges, n_iter=n_iter)
        checksum = int(out["rank_q"].to_numpy().sum())
        rows = len(out)
    else:
        out_ds = pagerank_exchange_ds(edges, n_iter=n_iter,
                                      num_partitions=num_partitions)
        checksum = out_ds.sum("rank_q")
        rows = out_ds.count()
    wall = time.monotonic() - t0
    return {"plan": plan, "edges": n_edges, "nodes_distinct": rows,
            "approx_nodes": n_nodes, "n_iter": n_iter, "wall_s": round(wall, 2),
            "rank_checksum": checksum}


def run_one_kcore(plan: str, n_edges: int, k: int, num_partitions: int):
    """k-core variant (--op kcore): same synthetic graphs, the fused
    2-KR exchange plan vs the driver-peel broadcast plan; checksum =
    sum of surviving member ids (order-insensitive parity)."""
    from fastcdc_rs_ray.stages.kcore import (
        kcore_members,
        kcore_members_exchange_ds,
    )

    edges, n_nodes = _load_edges(n_edges)
    t0 = time.monotonic()
    if plan == "broadcast":
        out = kcore_members(edges, k=k, num_partitions=num_partitions,
                            max_rounds=200)
        rows = len(out)
        checksum = int(out["p_partkey"].to_numpy().sum())
    else:
        ds = kcore_members_exchange_ds(edges, k=k,
                                       num_partitions=num_partitions,
                                       max_rounds=200)
        rows = ds.count()
        checksum = int(ds.sum("p_partkey") or 0)
    wall = time.monotonic() - t0
    return {"plan": plan, "edges": n_edges, "k": k, "members": rows,
            "approx_nodes": n_nodes, "wall_s": round(wall, 2),
            "rank_checksum": checksum}


def synth_lsh_graph(n_vertices: int, seed: int = 7):
    """The flagship's CC input shape: string ids ``conv-%08d``, 40% of
    the vertices in chains of 2-6 (the consecutive links an LSH band
    emits), the rest singletons — about 0.3 edges a vertex.  -> (edges
    table (src, dst), members table (conv_id))."""
    rng = np.random.default_rng(seed)
    ids = pa.array([f"conv-{i:08d}" for i in range(n_vertices)])
    lengths = rng.integers(2, 7, max(1, int(n_vertices * 0.4) // 4))
    lengths = lengths[np.cumsum(lengths) <= n_vertices]
    chained = rng.permutation(n_vertices)[:int(lengths.sum())]
    link = np.ones(max(0, len(chained) - 1), bool)
    link[np.cumsum(lengths)[:-1] - 1] = False  # no edge across two chains
    src = pa.array(chained[:-1][link], pa.int64())
    dst = pa.array(chained[1:][link], pa.int64())
    return (pa.table({"src": ids.take(src), "dst": ids.take(dst)}),
            pa.table({"conv_id": ids}))


def run_one_cc(plan: str, n_vertices: int, num_partitions: int):
    """CC variant (--op cc): ``plan`` is driver or bsp, at the flagship's
    shard count for ``num_partitions``; checksum = order-insensitive sum
    of per-row (conv_id, cluster_id) hashes, equal across plans when the
    labels are."""
    import ray.data as rd

    from fastcdc_rs_ray.stages.cc import (
        connected_components_bsp,
        connected_components_driver,
    )
    from fastcdc_rs_ray.util import hash_str_array_u64

    e, m = synth_lsh_graph(n_vertices)
    edges = rd.from_arrow(e).repartition(num_partitions).materialize()
    members = rd.from_arrow(m).repartition(num_partitions).materialize()
    run = {
        "driver": lambda: connected_components_driver(edges, members),
        "bsp": lambda: connected_components_bsp(
            edges, members, n_shards=max(2, min(16, num_partitions // 4))),
    }[plan]
    t0 = time.monotonic()
    out = run().materialize()
    wall = time.monotonic() - t0
    checksum, clusters = 0, 0
    for b in out.iter_batches(batch_format="pyarrow"):
        conv = b["conv_id"].combine_chunks()
        cl = b["cluster_id"].combine_chunks()
        h = hash_str_array_u64(conv) + hash_str_array_u64(cl) * np.uint64(3)
        checksum = (checksum + int(h.sum())) % 2**64
        clusters += int(pc.sum(pc.equal(conv, cl)).as_py() or 0)
    return {"plan": plan, "vertices": n_vertices, "edges": len(e),
            "clusters": clusters, "wall_s": round(wall, 2),
            "rank_checksum": int(checksum)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--edges", default="1e6,1e7,5e7")
    ap.add_argument("--n-iter", type=int, default=3)
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--partitions", type=int, default=32)
    ap.add_argument("--plans", default=None,
                    help="default broadcast,exchange; driver,bsp for --op cc")
    ap.add_argument("--op", default="pagerank",
                    choices=("pagerank", "kcore", "cc"))
    ap.add_argument("--vertices", default="3e3,2e5,2e6",
                    help="graph sizes for --op cc")
    ap.add_argument("--k", type=int, default=12,
                    help="k for --op kcore (avg deg 10 -> nontrivial core)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus,
                 include_dashboard=False)
    plans = (args.plans or ("driver,bsp" if args.op == "cc"
                            else "broadcast,exchange")).split(",")
    unit = "vertices" if args.op == "cc" else "edges"
    by_scale = {}
    for x in (args.vertices if args.op == "cc" else args.edges).split(","):
        n = int(float(x))
        for plan in plans:
            if args.op == "cc":
                r = run_one_cc(plan, n, args.partitions)
            elif args.op == "kcore":
                r = run_one_kcore(plan, n, args.k, args.partitions)
            else:
                r = run_one(plan, n, args.n_iter, args.partitions)
            by_scale.setdefault(n, {})[plan] = r
            print(json.dumps(r), flush=True)
    # checksums must agree between plans at each scale (parity at scale)
    for n, d in sorted(by_scale.items()):
        if len(d) == 2:
            a, b = plans
            agree = d[a]["rank_checksum"] == d[b]["rank_checksum"]
            ratio = d[b]["wall_s"] / max(d[a]["wall_s"], 1e-9)
            print(f"# {unit}={n:>12,} {a}={d[a]['wall_s']:8.2f}s"
                  f" {b}={d[b]['wall_s']:8.2f}s"
                  f" ratio={ratio:5.2f}x checksums_agree={agree}")
    ray.shutdown()


if __name__ == "__main__":
    main()
