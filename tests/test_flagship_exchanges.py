"""The flagship's exchange budget, read from Ray Data's own log the way
the benchmark's tracer does: assembly, the range-sort verify path and the
flagship's auto plan start no hash-shuffle/hash-aggregate operator, the
auto plan's Dataset-execution count does not grow, and both flagship entry
points finish with their default arguments in a 4-CPU session."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from fastcdc_rs_ray.cdc import ChunkerConfig
from fastcdc_rs_ray.sources.transcripts import synth_transcripts

CFG = ChunkerConfig(64, 256, 1024)
#: Dataset executions of one ``neardup_clusters`` call on the auto paths:
#: signatures (assemble through MinHash), band sort + link, the driver
#: verify's endpoint pass and the driver CC's member pass
FLAGSHIP_AUTO_EXECUTIONS = 4


def _corpus(n_convs: int, seed: int):
    import ray.data as rd

    transcripts, _ = synth_transcripts(n_convs=n_convs, seed=seed, dup_frac=0.4)
    return transcripts, lambda: rd.from_arrow(transcripts).repartition(4)


def test_log_counts_a_keyed_exchange(data_log):
    """The reader sees a hash shuffle when one runs, so the zero counts
    below are not an unread log."""
    import ray.data as rd

    data_log.mark()
    rd.range(100).repartition(num_blocks=2, keys=["id"]).materialize()
    assert data_log.since() == (1, 1)


def test_flagship_stages_start_no_hash_shuffle(data_log):
    from fastcdc_rs_ray.pipelines.neardup import (
        neardup_clusters, signatures_pipeline, verify_edges)
    from fastcdc_rs_ray.stages.lsh import candidate_edges

    _, ds = _corpus(60, 41)

    sigs = signatures_pipeline(ds(), cfg=CFG, num_partitions=8).materialize()
    edges = candidate_edges(sigs).materialize()
    data_log.mark()
    assert verify_edges(edges, sigs, 0.4, num_partitions=8,
                        driver_limit=0).materialize().count() > 0
    assert data_log.since()[1] == 0

    data_log.mark()  # the auto plan includes assemble
    neardup_clusters(ds(), cfg=CFG, num_partitions=8,
                     verify_threshold=0.4).to_pandas()
    execs, exch = data_log.since()
    assert exch == 0
    assert execs <= FLAGSHIP_AUTO_EXECUTIONS


def _within(budget_s: float, fn):
    """fn() on a daemon thread; fail the test if it has not returned within
    ``budget_s`` (a hang must not stall the whole suite)."""
    box = {}

    def run():
        try:
            box["out"] = fn()
        except BaseException as e:  # re-raised on the test's thread
            box["err"] = e

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(budget_s)
    if th.is_alive():
        pytest.fail(f"did not finish within {budget_s:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"]


def test_default_arguments_finish_and_agree(ray_session):
    """``neardup_clusters`` and ``neardup_clusters_distributed`` with every
    default (64 partitions, BSP CC for the latter) finish in the suite's
    4-CPU session and return the same clusters."""
    from fastcdc_rs_ray.pipelines.neardup import (
        neardup_clusters, neardup_clusters_distributed)

    transcripts, ds = _corpus(120, 43)
    auto = _within(300, lambda: neardup_clusters(ds()).to_pandas())
    dist = _within(300, lambda: neardup_clusters_distributed(ds()).to_pandas())

    def canon(df):
        groups = {}
        for conv, cl in zip(df.conv_id, df.cluster_id):
            groups.setdefault(cl, []).append(conv)
        return sorted(tuple(sorted(g)) for g in groups.values())

    assert canon(auto) == canon(dist)
    assert len(auto) == len(np.unique(transcripts["conv_id"].to_numpy(zero_copy_only=False)))
    assert len(canon(auto)) < len(auto)  # planted twins do cluster
