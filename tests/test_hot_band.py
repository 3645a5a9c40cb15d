"""Hot-band skew stress: thousands of IDENTICAL docs collapse every band
into one massive equal-key group — the boilerplate-skew case the north rule
calls out.  The sort-link exchange must stay linear (consecutive linking
emits O(n) edges per band, never the O(n^2) pair explosion a naive
per-group pair emission would produce) while the range sort hands the hot
run whole to one reducer, which must still connect it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastcdc_rs_ray.pipelines.neardup import doc_neardup_clusters, doc_signatures
from fastcdc_rs_ray.stages.lsh import N_BANDS, candidate_edges

N_HOT = 3000
N_NORMAL = 50
VOCAB = [f"w{i}" for i in range(300)]


def _corpus() -> pa.Table:
    rng = np.random.default_rng(7)
    hot = " ".join(rng.choice(VOCAB, size=80))  # one boilerplate doc x3000
    normal = [" ".join(rng.choice(VOCAB, size=80)) for _ in range(N_NORMAL)]
    return pa.table({
        "doc_id": pa.array(np.arange(N_HOT + N_NORMAL), pa.int64()),
        "text": pa.array([hot] * N_HOT + normal),
    })


def test_hot_band_edges_linear(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_corpus()).repartition(8)
    edges = candidate_edges(doc_signatures(ds)).to_pandas()
    # identical docs share all N_BANDS bands; consecutive linking bounds the
    # edge count by ~n per band, never n^2/2 = 4.5M
    assert len(edges) <= N_HOT * N_BANDS + 1000
    assert len(edges) >= N_HOT - 1  # enough edges to connect the hot run


def test_hot_band_distributed_path_matches_driver(ray_session, monkeypatch):
    """Force the scale back end through the AUTO gates on a (shrunken) skew
    corpus: verify_driver_limit below the candidate count routes
    verify_edges to the tag-union shuffle, and CC_DRIVER_EDGE_LIMIT=1
    routes cc="auto" to the BSP actor CC.  Cluster
    assignments must equal the driver-path output exactly (VERDICT r1
    watch item: the switch must be a data-size decision with no semantic
    drift).  Corpus is 28 identical + 8 normal docs — same consecutive-
    link chain topology as the 3000-doc stress above, kept short to fit
    the pytest budget at 4 CPUs."""
    import ray.data as rd

    import fastcdc_rs_ray.pipelines.neardup as nd

    rng = np.random.default_rng(11)
    hot = " ".join(rng.choice(VOCAB, size=80))
    normal = [" ".join(rng.choice(VOCAB, size=80)) for _ in range(8)]
    t = pa.table({
        "doc_id": pa.array(np.arange(36), pa.int64()),
        "text": pa.array([hot] * 28 + normal),
    })
    ds = rd.from_arrow(t).repartition(4)
    want = doc_neardup_clusters(ds, verify_threshold=0.5).to_pandas()
    monkeypatch.setattr(nd, "CC_DRIVER_EDGE_LIMIT", 1)
    got = doc_neardup_clusters(
        ds, verify_threshold=0.5, verify_driver_limit=1).to_pandas()
    assert dict(zip(got["conv_id"], got["cluster_id"])) == \
        dict(zip(want["conv_id"], want["cluster_id"]))


def test_hot_band_single_cluster(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_corpus()).repartition(8)
    out = doc_neardup_clusters(ds, verify_threshold=0.5).to_pandas()
    out["doc_id"] = out["conv_id"].astype(int)
    hot = out[out["doc_id"] < N_HOT]
    assert len(hot) == N_HOT
    # all identical docs in ONE cluster despite the block splits
    assert hot["cluster_id"].nunique() == 1
    # normal docs must not be absorbed into the hot cluster
    hot_cluster = hot["cluster_id"].iloc[0]
    normal = out[out["doc_id"] >= N_HOT]
    assert (normal["cluster_id"] != hot_cluster).all()
