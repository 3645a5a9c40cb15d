"""k-core decomposition (stages/kcore.py): brute-force parity, peel
semantics on planted graphs, and the unroll-depth raise contract."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fastcdc_rs_ray.stages.kcore import kcore_members


def _edges(pairs):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64()),
    }))


def _brute(pairs, k):
    import collections

    adj = collections.defaultdict(set)
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    surv = set(adj)
    while True:
        drop = {v for v in surv
                if sum(1 for u in adj[v] if u in surv) < k}
        if not drop:
            return surv
        surv -= drop


def test_triangle_plus_tail(ray_session):
    pairs = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
    out = kcore_members(_edges(pairs), k=2).to_pandas()
    assert out.p_partkey.tolist() == [1, 2, 3]


def test_cascading_peel_matches_brute(ray_session):
    rng = np.random.default_rng(13)
    pairs = [(int(a), int(b)) for a, b in
             zip(rng.integers(0, 60, 400), rng.integers(0, 60, 400))]
    for k in (3, 5, 8):
        got = set(kcore_members(_edges(pairs), k=k).to_pandas().p_partkey)
        assert got == _brute(pairs, k), k


def test_self_loops_and_multiplicity_ignored(ray_session):
    # duplicate edges and self loops must not inflate degrees
    pairs = [(1, 2)] * 5 + [(1, 1), (2, 2), (2, 3), (1, 3)]
    out = kcore_members(_edges(pairs), k=2).to_pandas()
    assert out.p_partkey.tolist() == [1, 2, 3]


def test_deep_peel_raises_beyond_unroll(ray_session):
    # a long path with k=2 peels one vertex pair per round from the
    # ends: depth > unroll must RAISE (the oracle unrolls a fixed
    # number of rounds; diverging silently is not allowed)
    n = 40
    pairs = [(i, i + 1) for i in range(n)]
    with pytest.raises(RuntimeError, match="did not settle"):
        kcore_members(_edges(pairs), k=2, max_rounds=5)


def test_empty_on_final_round_raises(ray_session):
    """Emptying on exactly the last allowed peel round must RAISE (the
    oracle unrolled fewer rounds and would disagree) — review finding:
    an early empty-break bypassed the contract."""
    # path of 2n vertices with k=2 peels one vertex pair per end per
    # round: depth = n.  max_rounds = n means the graph empties ON the
    # final allowed round -> raise, not silent empty.
    n = 6
    pairs = [(i, i + 1) for i in range(2 * n - 1)]
    with pytest.raises(RuntimeError, match="did not settle"):
        kcore_members(_edges(pairs), k=2, max_rounds=n)
    # one more round = fixpoint confirmable -> clean empty result
    out = kcore_members(_edges(pairs), k=2, max_rounds=n + 1).to_pandas()
    assert len(out) == 0


def test_kcore_exchange_parity(ray_session):
    """Keyed-exchange peeling (no survivor broadcast) matches the
    broadcast plan and brute force on random + planted graphs, and
    raises past the unroll depth exactly like the broadcast plan."""
    from fastcdc_rs_ray.stages.kcore import kcore_members_exchange

    rng = np.random.default_rng(47)
    pairs = list(zip(rng.integers(0, 70, 700).tolist(),
                     rng.integers(0, 70, 700).tolist()))
    for k in (2, 3, 5):
        bc = set(kcore_members(_edges(pairs), k=k).to_pandas().p_partkey)
        ex = set(kcore_members_exchange(
            _edges(pairs), k=k, num_partitions=3).to_pandas().p_partkey)
        assert bc == ex == _brute(pairs, k)

    # triangle+tail: k=2 core is the triangle, two peel rounds
    pairs = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
    ex = set(kcore_members_exchange(_edges(pairs), k=2).to_pandas().p_partkey)
    assert ex == {1, 2, 3}
    # empty core
    ex0 = kcore_members_exchange(_edges(pairs), k=4).to_pandas()
    assert len(ex0) == 0

    # unroll-depth raise: a long path peels one layer per round from
    # each end — depth > max_rounds must raise in BOTH plans
    path = [(i, i + 1) for i in range(30)]
    with pytest.raises(RuntimeError):
        kcore_members_exchange(_edges(path), k=2, max_rounds=3)
    with pytest.raises(RuntimeError):
        kcore_members(_edges(path), k=2, max_rounds=3)


def test_vertex_ids_beyond_32_bits(ray_session):
    """Ids at and past 2^32 keep their edges: both plans give the
    brute-force core (edge dedupe compares (a, b) pairs, so no id range
    is special)."""
    from fastcdc_rs_ray.stages.kcore import kcore_members_exchange

    rng = np.random.default_rng(29)
    small = list(zip(rng.integers(0, 50, 500).tolist(),
                     rng.integers(0, 50, 500).tolist()))
    # v -> 2^32 + v * 2^33: every id is >= 2^32 and all share one low
    # 32-bit word, so any packing that keeps only the low word merges them
    pairs = [((1 << 32) + (a << 33), (1 << 32) + (b << 33)) for a, b in small]
    want = _brute(pairs, 4)
    assert len(want) > 10
    assert set(kcore_members(_edges(pairs), k=4).to_pandas().p_partkey) == want
    assert set(kcore_members_exchange(
        _edges(pairs), k=4, num_partitions=3).to_pandas().p_partkey) == want
