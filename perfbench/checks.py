"""Correctness checks on what the program returned, computed apart from it.

Each check takes the generated reference answers and the program's
outputs as plain Arrow tables or lists and returns a list of failure
messages (empty when it passes), so ``selftest.py`` can feed it perturbed
outputs and see it go red.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import oracles

RECALL_MIN = 0.99
HIGH_J = 0.7


def conservation(clusters: pa.Table, conv_ids: list[str]) -> list[str]:
    """Exactly one output row per distinct input conversation."""
    got = clusters["conv_id"].to_pylist()
    if len(got) != len(set(got)):
        return [f"conservation: {len(got) - len(set(got))} conversations appear twice"]
    if set(got) != set(conv_ids):
        return [f"conservation: {len(set(conv_ids) - set(got))} input conversations "
                f"missing, {len(set(got) - set(conv_ids))} unknown ids in the output"]
    return []


def recall(clusters: pa.Table, pairs: pa.Table) -> list[str]:
    """Planted pairs at exact J >= 0.7 share a cluster (>= 99%), and every
    exact-copy pair (J = 1) does."""
    cl = dict(zip(clusters["conv_id"].to_pylist(), clusters["cluster_id"].to_pylist()))
    a, b = pairs["a"].to_pylist(), pairs["b"].to_pylist()
    j = pairs["jaccard"].to_numpy()
    same = np.array([cl.get(x) is not None and cl.get(x) == cl.get(y) for x, y in zip(a, b)],
                    dtype=bool)
    out = []
    high = j >= HIGH_J
    if high.any():
        r = same[high].mean()
        if r < RECALL_MIN:
            out.append(f"recall: {same[high].sum()}/{high.sum()} pairs at J>={HIGH_J} "
                       f"clustered together ({r:.5f} < {RECALL_MIN})")
    exact = j >= 1.0
    if (~same[exact]).any():
        out.append(f"recall: {(~same[exact]).sum()} exact-copy pairs split across clusters")
    return out


def purity(clusters: pa.Table, families: pa.Table) -> list[str]:
    """No cluster holds members of two planted families; an independent
    conversation counts as a family of its own."""
    fam = dict(zip(families["conv_id"].to_pylist(), families["family"].to_pylist()))
    label: dict = {}
    mixed = 0
    for cid, cl in zip(clusters["conv_id"].to_pylist(), clusters["cluster_id"].to_pylist()):
        f = fam.get(cid, -1)
        key = ("f", f) if f >= 0 else ("c", cid)
        prev = label.setdefault(cl, key)
        if prev != key:
            mixed += 1
    return [f"purity: {mixed} conversations share a cluster with another family"] if mixed else []


def kernel(rows: pa.Table, expected: pa.Table) -> list[str]:
    """The chunk stage's (offset, length, hash) rows equal the benchmark's
    own cut rule on the sample payloads."""
    cols = ["conv_id", "chunk_idx", "offset", "length", "hash"]
    key = [("conv_id", "ascending"), ("chunk_idx", "ascending")]
    got = rows.select(cols).sort_by(key)
    exp = expected.select(cols).sort_by(key)
    if got.num_rows != exp.num_rows:
        return [f"kernel: {got.num_rows} chunk rows, expected {exp.num_rows}"]
    bad = [c for c in cols if got[c].to_pylist() != exp[c].to_pylist()]
    return [f"kernel: chunk rows differ in {bad}"] if bad else []


def manifest(lines: list[str], n_partitions: int, n_convs: int) -> list[str]:
    """Manifest rows cover every bucket once and sum to the conversations."""
    recs = [json.loads(x) for x in lines if x.strip()]
    ids = sorted(r["partition_id"] for r in recs)
    out = []
    if ids != list(range(n_partitions)):
        out.append(f"manifest: partitions {ids}, expected 0..{n_partitions - 1} once each")
    rows = sum(r["rows"] for r in recs)
    if rows != n_convs:
        out.append(f"manifest: rows sum to {rows}, expected {n_convs} conversations")
    return out


def registry(name: str, got: pa.Table, expected: pa.Table) -> list[str]:
    """Row count and order-insensitive value hash equal DuckDB's."""
    if sorted(got.column_names) != sorted(expected.column_names):
        return [f"{name}: columns {sorted(got.column_names)} vs "
                f"{sorted(expected.column_names)}"]
    g, e = oracles.value_hash(got), oracles.value_hash(expected)
    return [] if g == e else [f"{name}: rows/hash {g} vs DuckDB {e}"]


def check_run(workload: str, inputs: str, out: str, result: dict,
              n_partitions: int, trace: bool) -> list[str]:
    """Every check that applies to a run; [] when all pass.  A run in which
    no operation finished has nothing to check, and fails."""
    ops = result["ops"]
    if not ops:
        return ["no operation finished, so no output was checked"]
    fails = []
    # only flagship_auto has more than one operation a run
    if len({o["digest"] for o in ops}) != 1:
        fails.append("determinism: operations of one run returned different outputs")
    if workload == "registry_floor":
        entries = oracles.ENTRIES + (oracles.TRACED_ENTRIES if trace else ())
        for name in entries:
            got = os.path.join(out, f"registry_{name}.parquet")
            if not os.path.exists(got):
                fails.append(f"{name}: the entry's output was not produced")
                continue
            fails += registry(name, pq.read_table(got),
                              pq.read_table(os.path.join(inputs, f"expected_{name}.parquet")))
        return fails
    clusters = pq.read_table(os.path.join(out, "clusters.parquet"))
    families = pq.read_table(os.path.join(inputs, "families.parquet"))
    fails += conservation(clusters, families["conv_id"].to_pylist())
    fails += recall(clusters, pq.read_table(os.path.join(inputs, "pairs.parquet")))
    fails += purity(clusters, families)
    sample = os.path.join(out, "chunks_sample.parquet")
    if not os.path.exists(sample):
        fails.append("kernel: the chunk stage's rows for the sample were not produced")
    else:
        fails += kernel(pq.read_table(sample),
                        pq.read_table(os.path.join(inputs, "expected_chunks.parquet")))
    if workload == "flagship_resumable":
        with open(os.path.join(out, "manifest.jsonl")) as f:
            fails += manifest(f.read().splitlines(), n_partitions, families.num_rows)
        if not all(o["resume_wrote_nothing"] for o in ops):
            fails.append("resume: the call on a completed root wrote files")
        if not ops[0].get("resume_same_signatures"):
            fails.append("resume: the call on a completed root returned other signatures")
    return fails
