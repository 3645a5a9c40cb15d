"""End-to-end near-duplicate pipeline: recall >= 0.99 against the
brute-force Jaccard oracle at the same shingle/signature config, plus
minhash/LSH unit properties."""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import pytest

from fastcdc_rs_ray.cdc import ChunkerConfig
from fastcdc_rs_ray.cdc.kernel import chunk_bytes
from fastcdc_rs_ray.sources.transcripts import synth_transcripts
from fastcdc_rs_ray.stages.assemble import assemble_batch
from fastcdc_rs_ray.stages.minhash import MinHasher, shingle_hashes
from fastcdc_rs_ray.pipelines.neardup import neardup_clusters

CFG = ChunkerConfig(64, 256, 1024)
SHINGLE_K = 3


def _conv_shingle_sets(transcripts: pa.Table) -> dict[str, set[int]]:
    conv = assemble_batch(transcripts)
    out = {}
    for row in range(len(conv)):
        cid = conv["conv_id"][row].as_py()
        payload = conv["payload"][row].as_py()
        hashes = np.array([c.hash for c in chunk_bytes(payload, CFG)], dtype=np.uint64)
        out[cid] = set(shingle_hashes(hashes, SHINGLE_K).tolist())
    return out


def _oracle_pairs(shingle_sets: dict[str, set[int]], tau: float) -> set[tuple[str, str]]:
    """Brute-force Jaccard >= tau over the same shingle config — the oracle
    the north rule compares against (SURVEY.md §7.4)."""
    pairs = set()
    items = sorted(shingle_sets.items())
    for (a, sa), (b, sb) in itertools.combinations(items, 2):
        if not sa or not sb:
            continue
        j = len(sa & sb) / len(sa | sb)
        if j >= tau:
            pairs.add((a, b))
    return pairs


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(1)
    base = rng.integers(0, 2**63, 200, dtype=np.uint64)
    variant = base.copy()
    variant[:40] = rng.integers(0, 2**63, 40, dtype=np.uint64)  # ~66% overlap
    mh = MinHasher(n_perms=128, k=1)
    sh = np.concatenate([base, variant])
    sig = mh.signatures_for_segments(sh, np.array([0, 200], dtype=np.int64))
    est = (sig[0] == sig[1]).mean()
    sa, sb = set(base.tolist()), set(variant.tolist())
    true_j = len(sa & sb) / len(sa | sb)
    assert abs(est - true_j) < 0.15


def test_neardup_recall_against_oracle(ray_session):
    import ray.data as rd

    transcripts, truth = synth_transcripts(n_convs=150, seed=11, dup_frac=0.3)
    shingles = _conv_shingle_sets(transcripts)
    oracle = _oracle_pairs(shingles, tau=0.5)
    assert len(oracle) >= 20  # planted twins make the oracle non-trivial

    ds = rd.from_arrow(transcripts).repartition(6)
    clusters = neardup_clusters(
        ds, cfg=CFG, num_partitions=8, verify_threshold=0.4, cc="driver"
    ).to_pandas()
    assign = dict(zip(clusters.conv_id, clusters.cluster_id))
    # dup-pair recall: oracle pairs that share our cluster
    hit = sum(1 for a, b in oracle if assign.get(a) == assign.get(b))
    recall = hit / len(oracle)
    assert recall >= 0.99, f"recall {recall:.3f} on {len(oracle)} oracle pairs"
    # permutation invariance: shuffled input gives identical assignments
    perm = np.random.default_rng(3).permutation(len(transcripts))
    ds2 = rd.from_arrow(transcripts.take(pa.array(perm))).repartition(9)
    clusters2 = neardup_clusters(
        ds2, cfg=CFG, num_partitions=5, verify_threshold=0.4, cc="driver"
    ).to_pandas()
    assign2 = dict(zip(clusters2.conv_id, clusters2.cluster_id))
    assert assign == assign2


def test_distributed_cc_equals_driver(ray_session):
    import ray.data as rd

    transcripts, _ = synth_transcripts(n_convs=80, seed=13, dup_frac=0.4)
    ds = rd.from_arrow(transcripts).repartition(4)
    a = neardup_clusters(ds, cfg=CFG, num_partitions=6, verify_threshold=0.4,
                         cc="driver").to_pandas()
    ds2 = rd.from_arrow(transcripts).repartition(4)
    b = neardup_clusters(ds2, cfg=CFG, num_partitions=6, verify_threshold=0.4,
                         cc="distributed").to_pandas()
    da = dict(zip(a.conv_id, a.cluster_id))
    db = dict(zip(b.conv_id, b.cluster_id))
    assert da == db


def test_cc_auto_selects_distributed_above_limit(ray_session, monkeypatch):
    """cc='auto' switches to the BSP actor CC when the verified edge set
    exceeds the driver limit; output identical either way."""
    import ray.data as rd

    import fastcdc_rs_ray.pipelines.neardup as nd

    transcripts, _ = synth_transcripts(n_convs=60, seed=17, dup_frac=0.4)
    ds = rd.from_arrow(transcripts).repartition(4)
    a = neardup_clusters(ds, cfg=CFG, num_partitions=6, verify_threshold=0.4,
                         cc="driver").to_pandas()
    monkeypatch.setattr(nd, "CC_DRIVER_EDGE_LIMIT", 0)  # force distributed
    ds2 = rd.from_arrow(transcripts).repartition(4)
    b = neardup_clusters(ds2, cfg=CFG, num_partitions=6, verify_threshold=0.4,
                         cc="auto").to_pandas()
    assert dict(zip(a.conv_id, a.cluster_id)) == dict(zip(b.conv_id, b.cluster_id))


@pytest.mark.parametrize("cc", ["dataset_shuffle", "drvier"])
def test_unknown_cc_raises(ray_session, cc):
    """An unknown cc value (the deleted label-propagation mode, a typo)
    raises before any pipeline work instead of silently running BSP."""
    import ray.data as rd

    import fastcdc_rs_ray.pipelines.neardup as nd

    transcripts, _ = synth_transcripts(n_convs=4, seed=1)
    with pytest.raises(ValueError, match="'auto', 'driver' or 'distributed'"):
        neardup_clusters(rd.from_arrow(transcripts), cfg=CFG, cc=cc)
    with pytest.raises(ValueError, match=repr(cc)):
        nd._run_cc(cc, None, None, 8)


def test_fully_distributed_flagship_equals_auto(ray_session):
    """neardup_clusters_distributed (shuffle verify + BSP actor CC,
    no driver-resident data-proportional stage — the multi-node/weak-scaling
    configuration) produces the same cluster partition as the auto paths."""
    import ray.data as rd

    from fastcdc_rs_ray.pipelines.neardup import neardup_clusters_distributed

    transcripts, _ = synth_transcripts(n_convs=80, seed=13, dup_frac=0.4)
    a = neardup_clusters(
        rd.from_arrow(transcripts).repartition(4),
        cfg=CFG, num_partitions=6, verify_threshold=0.4,
    ).to_pandas()
    b = neardup_clusters_distributed(
        rd.from_arrow(transcripts).repartition(4),
        cfg=CFG, num_partitions=6, verify_threshold=0.4,
    ).to_pandas()

    def canon(df):
        groups = {}
        for conv, cl in zip(df.conv_id, df.cluster_id):
            groups.setdefault(cl, set()).add(conv)
        # sort by member tuple, NOT sorted(frozensets): frozenset < is the
        # subset relation (a partial order), so sorting frozensets directly
        # is input-order-dependent and two equal partitions can compare
        # unequal when the rows arrive in different orders
        return sorted(tuple(sorted(g)) for g in groups.values())

    assert canon(a) == canon(b)


def test_representatives_action(ray_session):
    """One representative (min conv_id) per cluster; exact-copy twins
    collapse onto their base conversation; sizes sum to the corpus."""
    import ray.data as rd

    from fastcdc_rs_ray.pipelines.neardup import representatives

    transcripts, truth = synth_transcripts(n_convs=60, seed=21, dup_frac=0.5)
    ds = rd.from_arrow(transcripts).repartition(4)
    clusters = neardup_clusters(ds, cfg=CFG, num_partitions=6,
                                verify_threshold=0.4)
    total = clusters.count()
    reps = representatives(clusters, num_partitions=4).to_pandas()
    # one row per cluster, sizes account for every conversation
    assert reps.cluster_id.is_unique
    assert int(reps.n_members.sum()) == total
    # representative is the minimum member: re-derive from the full map
    full = neardup_clusters(rd.from_arrow(transcripts).repartition(4),
                            cfg=CFG, num_partitions=6,
                            verify_threshold=0.4).to_pandas()
    want = full.groupby("cluster_id")["conv_id"].min()
    got = reps.set_index("cluster_id")["conv_id"]
    assert got.sort_index().equals(want.sort_index())
