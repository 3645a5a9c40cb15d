"""The graph family's exchange budget, read from Ray Data's own log: the
co-purchase edge build, the exchange k-core, the exchange PageRank and
the exchange-degree triangle count co-locate through range sorts and
start no hash-shuffle/hash-aggregate operator.  The keyed-exchange BFS
still runs hash shuffles and is the positive control."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fastcdc_rs_ray.stages import kcore, pagerank

_RNG = np.random.default_rng(23)
EDGES = pa.table({
    "src": pa.array(_RNG.integers(0, 40, 240), pa.int64()),
    "dst": pa.array(_RNG.integers(0, 40, 240), pa.int64()),
})
LINEITEM = pa.table({
    "l_orderkey": pa.array(np.repeat(np.arange(30), 4), pa.int64()),
    "l_partkey": pa.array(_RNG.integers(0, 25, 120), pa.int64()),
    "l_linenumber": pa.array(np.tile(np.arange(1, 5), 30), pa.int64()),
})


def _ds(t: pa.Table):
    import ray.data as rd

    return rd.from_arrow(t).repartition(3)


STAGES = {
    "copurchase_edges": lambda: pagerank.copurchase_edges(
        _ds(LINEITEM), num_partitions=3).count(),
    "kcore_members_exchange_ds": lambda: kcore.kcore_members_exchange_ds(
        _ds(EDGES), k=3, num_partitions=3).count(),
    "pagerank_exchange_ds": lambda: pagerank.pagerank_exchange_ds(
        _ds(EDGES), n_iter=2, num_partitions=3).count(),
    "triangle_count_exchange": lambda: pagerank.triangle_count(
        _ds(EDGES), num_partitions=3, degree_mode="exchange"),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_graph_stage_starts_no_hash_shuffle(data_log, stage):
    data_log.mark()
    STAGES[stage]()
    execs, exch = data_log.since()
    assert execs > 0  # the log was read
    assert exch == 0


def test_reachability_exchange_still_hash_shuffles(data_log):
    """Positive control: the BFS exchanges stay hash shuffles, so the zero
    counts above are not an unread log."""
    data_log.mark()
    pagerank.reachability_exchange_ds(
        _ds(EDGES), source=0, max_hops=1, num_partitions=3).count()
    assert data_log.since()[1] > 0
