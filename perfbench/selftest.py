"""Shows that each correctness check can fail.

    python3 perfbench/selftest.py

No Ray: it generates one seed's inputs, builds outputs that pass every
check from the reference answers themselves, then perturbs them one at a
time and requires the matching check to go red.  Exits non-zero if a
baseline fails or a perturbation stays green.
"""

from __future__ import annotations

import json
import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
from session import CKPT_PARTITIONS as N_PARTITIONS  # noqa: E402

SEED = 1


def _passing_clusters(families: pa.Table) -> pa.Table:
    """Each planted family is one cluster (id = its smallest conv_id);
    every independent conversation is a singleton."""
    ids = families["conv_id"].to_pylist()
    fam = families["family"].to_pylist()
    first: dict[int, str] = {}
    for cid, f in sorted(zip(ids, fam)):
        if f >= 0:
            first.setdefault(f, cid)
    return pa.table({"conv_id": ids,
                     "cluster_id": [first[f] if f >= 0 else c for c, f in zip(ids, fam)]})


def _with_cluster(clusters: pa.Table, moves: dict[str, str]) -> pa.Table:
    cl = [moves.get(c, k) for c, k in zip(clusters["conv_id"].to_pylist(),
                                          clusters["cluster_id"].to_pylist())]
    return clusters.set_column(1, "cluster_id", pa.array(cl, pa.string()))


def main() -> int:
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
    corpus = gen.ensure_inputs(work, "flagship_resumable", SEED)
    reg = gen.ensure_inputs(work, "registry_floor", SEED)
    families = pq.read_table(os.path.join(corpus, "families.parquet"))
    pairs = pq.read_table(os.path.join(corpus, "pairs.parquet"))
    ids = families["conv_id"].to_pylist()
    good = _passing_clusters(families)

    def flagship(cl):
        return (checks.conservation(cl, ids) + checks.recall(cl, pairs)
                + checks.purity(cl, families))

    exact = pairs.filter(pc.greater_equal(pairs["jaccard"], 1.0))
    twin = exact["b"][0].as_py()
    high = pairs.filter(pc.and_(pc.greater_equal(pairs["jaccard"], checks.HIGH_J),
                                pc.less(pairs["jaccard"], 1.0)))
    in_exact = set(exact["a"].to_pylist()) | set(exact["b"].to_pylist())
    # split off twins (none in an exact-copy pair) until the J >= 0.7
    # ratio itself drops below the bar
    split = {}
    for b in high["b"].to_pylist():
        if b in in_exact:
            continue
        split[b] = b
        if any("pairs at J>=" in m for m in checks.recall(_with_cluster(good, split), pairs)):
            break
    fam_of = dict(zip(ids, families["family"].to_pylist()))
    a_fam, b_fam = sorted({f for f in fam_of.values() if f >= 0})[:2]
    b_members = [c for c, f in fam_of.items() if f == b_fam]
    a_root = min(c for c, f in fam_of.items() if f == a_fam)

    expected_chunks = pq.read_table(os.path.join(corpus, "expected_chunks.parquet"))
    shifted = expected_chunks.to_pydict()
    i = next(k for k in range(len(shifted["conv_id"]) - 1)
             if shifted["conv_id"][k] == shifted["conv_id"][k + 1])
    shifted["length"][i] += 1
    shifted["offset"][i + 1] += 1
    shifted["length"][i + 1] -= 1
    shifted = pa.table(shifted, schema=expected_chunks.schema)

    n = len(ids)
    per = [n // N_PARTITIONS + (p < n % N_PARTITIONS) for p in range(N_PARTITIONS)]
    manifest = [json.dumps({"partition_id": p, "rows": r}) for p, r in enumerate(per)]

    cases = [("flagship outputs built from the families", flagship(good), False),
             ("one exact-copy twin moved to its own cluster",
              flagship(_with_cluster(good, {twin: twin})), True),
             (f"{len(split)} high-J twins split off (recall < {checks.RECALL_MIN})",
              flagship(_with_cluster(good, split)), True),
             ("two families merged", flagship(_with_cluster(good, {m: a_root for m in b_members})),
              True),
             ("one conversation dropped", flagship(good.slice(1)), True),
             ("chunk rows equal the cut rule", checks.kernel(expected_chunks, expected_chunks),
              False),
             ("one chunk boundary shifted", checks.kernel(shifted, expected_chunks), True),
             ("manifest covering every bucket", checks.manifest(manifest, N_PARTITIONS, n),
              False),
             ("one manifest line dropped", checks.manifest(manifest[:-1], N_PARTITIONS, n),
              True)]
    cases.append(("a run in which no operation finished",
                  checks.check_run("flagship_auto", corpus, corpus, {"ops": []},
                                   N_PARTITIONS, trace=False), True))
    for name in oracles.ENTRIES + oracles.TRACED_ENTRIES:
        exp = pq.read_table(os.path.join(reg, f"expected_{name}.parquet"))
        col = next(c for c in exp.column_names if pa.types.is_integer(exp[c].type))
        vals = exp[col].to_pylist()
        vals[len(vals) // 2] += 1
        bad = exp.set_column(exp.column_names.index(col), col, pa.array(vals, exp[col].type))
        cases += [(f"{name} equal to DuckDB", checks.registry(name, exp, exp), False),
                  (f"{name} with one value changed", checks.registry(name, bad, exp), True)]
    ok = True
    for label, fails, want_red in cases:
        red = bool(fails)
        good_case = red == want_red
        ok &= good_case
        state = "red" if red else "green"
        print(f"{'ok ' if good_case else 'BAD'} {state:5s} {label}"
              + (f"  [{fails[0]}]" if fails else ""))
    print("selftest:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
