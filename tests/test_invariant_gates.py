"""The driver-hashable invariant gates (stages/invariants.py) must be
FALSIFIABLE — each test plants a violation and asserts the gate counts
it, so a green driver row means the property actually held (no
circularity).  Registry hygiene: the driver checks the first 50 QUERIES
entries, so that window must stay all-SQL-oracled."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fastcdc_rs_ray.pipelines.queries import ORACLE_SQL, QUERIES
from fastcdc_rs_ray.stages.invariants import (
    pack_conservation,
    split_exclusive,
    twin_value_equality,
)


def test_driver_window_all_sql_oracled():
    window = list(QUERIES)[:50]
    missing = [n for n in window if n not in ORACLE_SQL]
    assert missing == [], f"rows-only queries inside driver window: {missing}"


def test_twin_equality_counts_a_mismatch(ray_session):
    # conv-20 == twin-20 (match), conv-40 != twin-40 (planted mismatch),
    # conv-7 has no twin and is off-modulus (ignored).
    t = pa.table({
        "conv_id": pa.array(
            ["conv-00000020", "twin-00000020",
             "conv-00000040", "twin-00000040", "conv-00000007"]),
        "val": pa.array([11, 11, 22, 99, 5], pa.uint64()),
    })
    out = twin_value_equality(rd.from_arrow(t), "conv_id", "val", "n_equal")
    assert out["n_exact_twins"][0].as_py() == 2
    assert out["n_equal"][0].as_py() == 1


def test_conv_numbers_rejects_a_long_number():
    """A 9-digit conversation number would slice to its first 8 digits
    (conv-100000020 -> 10000002) and silently pair with another
    conversation's twin; the one conv-number parser raises instead."""
    from fastcdc_rs_ray.stages.invariants import _tag_conv_values
    from fastcdc_rs_ray.util import conv_numbers

    ok = conv_numbers(pa.array(["conv-00000020", "twin-00000007"]))
    assert ok.type == pa.int64() and ok.to_pylist() == [20, 7]
    t = pa.table({"conv_id": pa.array(["conv-00000020", "conv-100000020"]),
                  "val": pa.array([1, 2], pa.uint64())})
    with pytest.raises(ValueError, match="'conv-100000020'"):
        conv_numbers(t["conv_id"])
    with pytest.raises(ValueError, match="longer than 8 digits"):
        _tag_conv_values(t, "conv_id", "val")


def test_pack_conservation_counts_an_overflow(ray_session):
    # bin 0 of group 0 holds 300+300 = 600 > budget 512 -> 1 overflow;
    # the lone oversize doc (700 > 512, alone in bin 1) is allowed.
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "n_tokens": pa.array([300, 300, 700], pa.int64()),
        "pack_group": pa.array([0, 0, 0], pa.int64()),
        "bin_idx": pa.array([0, 0, 1], pa.int64()),
        "oversize": pa.array([False, False, True]),
    })
    out = pack_conservation(rd.from_arrow(t), budget=512)
    assert out["total_tokens"][0].as_py() == 1300
    assert out["n_bin_overflows"][0].as_py() == 1


def test_split_exclusive_counts_a_spanning_cluster(ray_session):
    # cluster A straddles train/test -> n_spanning 1; cluster B is
    # consistent; the lone bogus label in C counts against n_assigned.
    t = pa.table({
        "conv_id": pa.array(["c1", "c2", "c3", "c4", "c5"]),
        "cluster_id": pa.array(["A", "A", "B", "B", "C"]),
        "split": pa.array(["train", "test", "val", "val", "bogus"]),
    })
    out = split_exclusive(rd.from_arrow(t))
    assert out["n_convs"][0].as_py() == 5
    assert out["n_assigned"][0].as_py() == 4
    assert out["n_spanning"][0].as_py() == 1


def test_winnow_superset_counts_dropped_pairs(ray_session):
    """Falsifiability: cand_max_group=1 drops every candidate fingerprint
    group, so the gate must count every true pair as missed; uncapped, the
    theorem holds and n_missed == 0 with the same n_true_pairs."""
    from fastcdc_rs_ray.stages.invariants import winnow_superset

    shared = " ".join(f"tok{i:02d}" for i in range(6))  # 35 chars > L=30
    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([f"aaaa left {shared} right-a",
                          f"bbbb other {shared} tail-b"]),
    })
    ds = rd.from_arrow(t)
    ok = winnow_superset(ds, L=30, k=20, num_partitions=2)
    assert ok["n_true_pairs"][0].as_py() >= 1
    assert ok["n_missed"][0].as_py() == 0
    broken = winnow_superset(ds, L=30, k=20, num_partitions=2,
                             cand_max_group=1)
    assert broken["n_true_pairs"][0].as_py() == ok["n_true_pairs"][0].as_py()
    assert broken["n_missed"][0].as_py() == ok["n_true_pairs"][0].as_py()


def test_manifest_coverage_counts_lost_bytes(ray_session, tmp_path):
    """Falsifiability: a partition deleted from the written sink must
    shrink covered_bytes below the corpus total — the gate reads what is
    ON DISK, not what the writer claims."""
    import shutil

    from fastcdc_rs_ray.cdc import ChunkerConfig
    from fastcdc_rs_ray.stages.assemble import assemble
    from fastcdc_rs_ray.stages.chunk import chunk
    from fastcdc_rs_ray.stages.invariants import manifest_coverage
    from fastcdc_rs_ray.state.checkpoint import run_stage_checkpointed

    texts = [f"conversation body number {i} " + "w" * 200 for i in range(12)]
    t = pa.table({
        "conv_id": pa.array([f"conv-{i:08d}" for i in range(12)]),
        "turn_idx": pa.array(np.zeros(12, np.int32), pa.int32()),
        "text": pa.array(texts),
    })
    total = sum(len(s) for s in texts)
    root = str(tmp_path / "sink")
    cfg = ChunkerConfig(64, 256, 1024)
    run_stage_checkpointed(
        assemble(rd.from_arrow(t), num_partitions=2), "chunks", root,
        key="conv_id", fn=lambda ds: chunk(ds, cfg), num_partitions=2)

    ok = manifest_coverage(root, n_partitions=2)
    assert ok["covered_bytes"][0].as_py() == total

    shutil.rmtree(f"{root}/chunks/part=0")
    broken = manifest_coverage(root, n_partitions=2)
    assert broken["covered_bytes"][0].as_py() < total


def test_hist_coverage_counts_lost_bytes():
    from fastcdc_rs_ray.stages.invariants import hist_coverage

    # level 0 covers 100 bytes across two buckets; level 3 dropped bytes
    hist = pa.table({
        "norm_level": pa.array([0, 0, 3], pa.int64()),
        "bucket_lo": pa.array([32, 64, 32], pa.int64()),
        "n_chunks": pa.array([2, 1, 2], pa.int64()),
        "bytes": pa.array([36, 64, 90], pa.int64()),
    })
    out = hist_coverage(hist).to_pydict()
    assert out["norm_level"] == [0, 3]
    assert out["total_bytes"] == [100, 90]  # 90 != corpus -> oracle FAIL


def test_delta_conservation_flags_undercounted_share(ray_session, monkeypatch):
    from fastcdc_rs_ray.stages import invariants

    docs = pa.table({
        "doc_id": pa.array([0, 5, 7], pa.int64()),     # 0, 5 unchanged
        "text": pa.array(["a" * 600, "b" * 700, "c" * 650], pa.string()),
    })
    out = invariants.delta_conservation(rd.from_arrow(docs)).to_pydict()
    assert out["shared_covers_unchanged"] == [1]
    assert out["bytes_a"] == [1950]

    # plant a violation: a delta that undercounts shared bytes
    import fastcdc_rs_ray.stages.delta as delta_mod

    real = delta_mod.chunk_delta

    def broken(a, b, **kw):
        t = real(a, b, **kw)
        d = t.to_pydict()
        d["shared_bytes_b"] = [0]
        return pa.table(d)

    monkeypatch.setattr(delta_mod, "chunk_delta", broken)
    out2 = invariants.delta_conservation(rd.from_arrow(docs)).to_pydict()
    assert out2["shared_covers_unchanged"] == [0]  # gate fails vs oracle


def test_jaccard_twin_exact_counts_a_broken_twin(ray_session):
    from fastcdc_rs_ray.stages.invariants import jaccard_twin_exact

    # two exact twin families (0, 20); family 40's twin is mutated ->
    # its chunk set differs -> only 2 counted
    base = "x" * 400 + "y" * 400
    rows = []
    for fam in (0, 20, 40):
        txt = base + f" family {fam} " + "z" * 300
        rows.append((f"conv-{fam:08d}", txt))
        rows.append((f"twin-{fam:08d}",
                     txt if fam != 40 else txt + "MUTATED TAIL " * 40))
    conv = pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "payload": pa.array([r[1].encode() for r in rows], pa.large_binary()),
    })
    from fastcdc_rs_ray.cdc.config import ChunkerConfig
    from fastcdc_rs_ray.stages.chunk import chunk

    cfg = ChunkerConfig(min_size=64, avg_size=256, max_size=1024)
    chunks = chunk(rd.from_arrow(conv), cfg)
    out = jaccard_twin_exact(chunks, num_partitions=4).to_pydict()
    assert out["n_twin_exact"] == [2]
