"""BSP actor-pool connected components (stages/cc.py:
connected_components_bsp), the one distributed CC: parity with the
driver union-find on random graphs and long chains, string + int64
vertex types (ids up to 2^63 - 1 exact), non-member bridge vertices,
non-convergence error."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fastcdc_rs_ray.stages.cc import (
    connected_components_bsp,
    connected_components_driver,
)


def _assign(out_df) -> dict:
    return dict(zip(out_df.conv_id, out_df.cluster_id))


def test_chain_and_singleton_string(ray_session):
    import ray.data as rd

    ids = [f"v{i:04d}" for i in range(200)]
    edges = pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    members = pa.table({"conv_id": pa.array(ids + ["v_lone"])})
    out = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members),
        max_rounds=30, n_shards=4,
    ).to_pandas()
    c = _assign(out)
    assert all(c[v] == ids[0] for v in ids)
    assert c["v_lone"] == "v_lone"
    assert len(out) == len(ids) + 1


def test_random_graph_parity_with_driver_int64(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 500
    src = rng.integers(0, n, 400)
    dst = rng.integers(0, n, 400)
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})
    members = pa.table({"conv_id": pa.array(range(n), pa.int64())})

    bsp = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members),
        max_rounds=40, n_shards=4, vertex_type=pa.int64(),
    ).to_pandas()
    drv = connected_components_driver(
        rd.from_arrow(pa.table({
            "src": pa.array([str(x) for x in src.tolist()]),
            "dst": pa.array([str(x) for x in dst.tolist()]),
        })),
        rd.from_arrow(pa.table({
            "conv_id": pa.array([str(i) for i in range(n)])})),
    ).to_pandas()
    got = {int(k): int(v) for k, v in _assign(bsp).items()}
    # driver variant works on strings; min-of-string differs from
    # min-of-int, so compare component PARTITIONS, not label values
    want_groups: dict = {}
    for k, v in _assign(drv).items():
        want_groups.setdefault(v, set()).add(int(k))
    got_groups: dict = {}
    for k, v in got.items():
        got_groups.setdefault(v, set()).add(k)
    assert sorted(map(sorted, want_groups.values())) == \
        sorted(map(sorted, got_groups.values()))
    # and the bsp labels are the component minimum
    for lab, grp in got_groups.items():
        assert lab == min(grp)


def test_two_components_one_shard(ray_session):
    import ray.data as rd

    edges = pa.table({"src": pa.array(["a", "b", "x"]),
                      "dst": pa.array(["b", "c", "y"])})
    members = pa.table({"conv_id": pa.array(["a", "b", "c", "x", "y", "z"])})
    out = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members),
        max_rounds=10, n_shards=1,
    ).to_pandas()
    c = _assign(out)
    assert c == {"a": "a", "b": "a", "c": "a", "x": "x", "y": "x", "z": "z"}


def test_nonconvergence_raises(ray_session):
    import ray.data as rd

    ids = [f"v{i:04d}" for i in range(64)]
    edges = pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    members = pa.table({"conv_id": pa.array(ids)})
    with pytest.raises(Exception, match="did not converge"):
        connected_components_bsp(
            rd.from_arrow(edges), rd.from_arrow(members),
            max_rounds=2, n_shards=2,
        )


def test_non_member_bridge_vertex_both_variants(ray_session):
    """Edge endpoints absent from members_ds still BRIDGE components
    (review r3): members {3, 5}, edges 5-9 and 9-3 with 9 not a member —
    BSP must put 3 and 5 in one component and materialize 9.  (The
    Dataset label-propagation variant this once also checked is gone;
    BSP is the one distributed CC.)"""
    import ray.data as rd

    edges = pa.table({"src": pa.array([5, 9], pa.int64()),
                      "dst": pa.array([9, 3], pa.int64())})
    members = pa.table({"conv_id": pa.array([3, 5], pa.int64())})
    out = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members), max_rounds=20,
        n_shards=2, vertex_type=pa.int64()).to_pandas()
    c = {int(k): int(v) for k, v in zip(out.conv_id, out.cluster_id)}
    assert c[3] == 3 and c[5] == 3 and c[9] == 3, c


def test_random_graph_parity_with_driver_string(ray_session):
    """String vertices: the labels themselves (component-min id under
    string order) equal the driver union-find's, row for row."""
    import ray.data as rd

    rng = np.random.default_rng(4)
    ids = [f"n{i:03d}" for i in range(120)]
    src = rng.choice(ids, 150)
    dst = rng.choice(ids, 150)
    edges = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    members = pa.table({"conv_id": pa.array(ids)})
    a = (
        connected_components_driver(rd.from_arrow(edges),
                                    rd.from_arrow(members))
        .to_pandas().sort_values("conv_id").reset_index(drop=True)
    )
    b = (
        connected_components_bsp(rd.from_arrow(edges),
                                 rd.from_arrow(members), n_shards=4)
        .to_pandas().sort_values("conv_id").reset_index(drop=True)
    )
    assert a.equals(b)


def test_long_chain_converges_in_log_rounds(ray_session):
    """Path graph v0000-...-v0299: diameter 299 — the LSH hot-band chain
    shape that one-hop propagation needs ~300 rounds for; hash-to-min
    needs ~log2(300) plus the fixpoint-detection round."""
    import ray.data as rd

    ids = [f"v{i:04d}" for i in range(300)]
    edges = pa.table({"src": pa.array(ids[:-1]), "dst": pa.array(ids[1:])})
    members = pa.table({"conv_id": pa.array(ids + ["v_lone"])})
    out = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members),
        max_rounds=15, n_shards=4,
    ).to_pandas()
    c = _assign(out)
    assert all(c[v] == ids[0] for v in ids)
    assert c["v_lone"] == "v_lone"


def test_int64_ids_above_2_62_exact(ray_session):
    """int64 ids in [2^62, 2^63) come back bit-exact (a float64 round
    trip would merge neighbors 1 apart), labelled with their
    component's minimum."""
    import ray.data as rd

    base = 2**62
    rng = np.random.default_rng(5)
    ids = np.sort(rng.choice(2**62 - 1, 200, replace=False)) + base
    ids[-1] = 2**63 - 1
    # components: consecutive pairs (ids[2i], ids[2i+1]) for i < 60,
    # one chain over ids[120:140] (listed max-to-min), the rest singletons
    src = np.concatenate([ids[0:120:2], ids[139:120:-1]])
    dst = np.concatenate([ids[1:120:2], ids[138:119:-1]])
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})
    members = pa.table({"conv_id": pa.array(ids, pa.int64())})
    out = connected_components_bsp(
        rd.from_arrow(edges), rd.from_arrow(members),
        max_rounds=30, n_shards=3, vertex_type=pa.int64(),
    ).to_pandas()
    assert out.conv_id.dtype == "int64" and out.cluster_id.dtype == "int64"
    got = {int(k): int(v) for k, v in zip(out.conv_id, out.cluster_id)}
    want = {int(v): int(v) for v in ids}
    for i in range(0, 120, 2):
        want[int(ids[i + 1])] = int(ids[i])
    for v in ids[120:140]:
        want[int(v)] = int(ids[120])
    assert got == want
