"""The near-dup engine's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload flagship_auto --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  It generates the
workload's inputs from the seed (``gen.py``, no Ray), starts the Ray
driver in a fresh child process (``session.py``, a new 4-CPU session),
checks the outputs against answers computed apart from the program
(``checks.py``), and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  All files it makes live under ``perfbench/.work``; every process
of the Ray session is gone when it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracles import ENTRIES as REGISTRY_ENTRIES  # noqa: E402

WORKLOADS = ("flagship_auto", "flagship_resumable", "registry_floor")
HARD_LIMIT_S = 170  # the whole run, generation and Ray shutdown included
KEEP_CACHED = 4  # generated input sets kept per workload

END_TO_END = {"setup_s": "s", "wall_s": "s", "turns_per_s": "turns/s",
              "driver_peak_rss_mb": "MB"}
PER_LAYER = {
    "sources.read_s": "s", "sources.turns": "count",
    "assemble.s": "s", "assemble.mb": "MB",
    "chunk.s": "s", "chunk.chunks": "count", "cdc.kernel_mb_per_s": "MB/s",
    "minhash.s": "s", "minhash.kernel_mb_per_s": "MB/s",
    "lsh.s": "s", "lsh.candidates": "count",
    "verify.s": "s", "verify.kept": "count", "verify.keep_ratio": "ratio",
    "cc.s": "s", "cc.clusters": "count",
    "checkpoint.write_s": "s", "checkpoint.read_s": "s", "checkpoint.resume_s": "s",
    "checkpoint.partitions": "count", "checkpoint.mb": "MB",
    "ray.execution_floor_s": "s", "ray.exchange_floor_s": "s",
    "ray.executions": "count", "ray.keyed_exchanges": "count",
    "release.s": "s", "release.executions": "count",
}
for _e in REGISTRY_ENTRIES:
    PER_LAYER[f"registry.{_e}.s"] = "s"
    PER_LAYER[f"registry.{_e}.executions"] = "count"


def _ray_temp(work: str) -> str:
    """A Ray temp dir inside the checkout, unless the path is too long for
    Ray's unix sockets (<temp>/session_<stamp>/sockets/plasma_store must
    fit in 107 bytes); then a short private dir under the system temp."""
    inside = os.path.join(work, "r")
    if len(inside) <= 44:
        shutil.rmtree(inside, ignore_errors=True)
        os.makedirs(inside)
        return inside
    return tempfile.mkdtemp(prefix="pb-")


def _reap(marker: str) -> int:
    """Kill and wait for every process that carries this run's marker in
    its environment (the Ray session's raylet, GCS and workers inherit it
    from the driver process).  Returns how many were still alive."""
    tag = f"PERFBENCH_RUN={marker}".encode()
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                if tag in f.read().split(b"\0"):
                    pids.append(int(d))
        except OSError:
            continue
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.time() + 20
    while time.time() < deadline and any(_alive(p) for p in pids):
        time.sleep(0.1)
    return len(pids)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _evict_cache(work: str, workload: str, keep: str) -> None:
    root = os.path.join(work, "cache")
    mine = [os.path.join(root, d) for d in os.listdir(root)
            if d.startswith(workload + "-") and not d.endswith(".tmp")]
    mine.sort(key=os.path.getmtime, reverse=True)
    for d in mine[KEEP_CACHED:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def _metrics(trace: int, result: dict, meta: dict) -> dict:
    ops = result["ops"]
    if trace:
        layers = dict(result.get("layers", {}))
        if ops:
            layers["ray.executions"] = ops[0]["executions"]
            layers["ray.keyed_exchanges"] = ops[0]["keyed_exchanges"]
        return {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    # with no finished operation, the time the failed one ran counts
    wall = (statistics.median(o["wall_s"] for o in ops) if ops
            else result["timed_out"])
    vals = {"setup_s": result["setup_s"], "wall_s": wall,
            "turns_per_s": meta["n_turns"] / wall if ops else 0.0,
            "driver_peak_rss_mb": result["peak_rss_mb"]}
    return {k: {"value": vals[k], "unit": u} for k, u in END_TO_END.items()}


def main() -> int:
    t_start = time.time()
    ap = argparse.ArgumentParser(description="near-dup engine benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "fastcdc_rs_ray", "__init__.py")):
        print("perfbench: run from the root of a checkout (fastcdc_rs_ray/ not found)",
              file=sys.stderr)
        return 2

    import checks
    import gen
    from session import CKPT_PARTITIONS

    work = os.path.join(HERE, ".work")
    inputs = gen.ensure_inputs(work, a.workload, a.seed)
    _evict_cache(work, a.workload, inputs)
    with open(os.path.join(inputs, "meta.json")) as f:
        meta = json.load(f)

    marker = uuid.uuid4().hex
    out = os.path.join(work, "runs", marker[:12])
    os.makedirs(out)
    ray_temp = _ray_temp(work)
    env = dict(os.environ, PERFBENCH_RUN=marker, RAY_USAGE_STATS_ENABLED="0",
               TMPDIR=os.path.join(work, "tmp"), PYTHONPATH=root)
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", a.workload, "--inputs", inputs, "--out", out,
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--ray-temp", ray_temp]
    result = None
    try:
        with open(os.path.join(out, "session.log"), "w") as logf:
            spawned = time.time()
            child = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=root,
                                     env=env, stdout=logf, stderr=subprocess.STDOUT,
                                     start_new_session=True)
            try:
                child.wait(timeout=max(10.0, HARD_LIMIT_S - (time.time() - t_start)))
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
                print("perfbench: the Ray session overran the run's time limit",
                      file=sys.stderr)
        leftover = _reap(marker)
        if leftover:
            print(f"perfbench: stopped {leftover} processes the session left running",
                  file=sys.stderr)
        path = os.path.join(out, "result.json")
        if child.returncode == 0 and os.path.exists(path):
            with open(path) as f:
                result = json.load(f)
        if result is None or "setup_s" not in result:
            with open(os.path.join(out, "session.log"), errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
            print("perfbench: the Ray session produced no result", file=sys.stderr)
            return 1
        fails = checks.check_run(a.workload, inputs, out, result,
                                 n_partitions=CKPT_PARTITIONS, trace=bool(a.trace))
        for msg in fails:
            print("perfbench: check failed: " + msg, file=sys.stderr)
        ops = result["ops"]
        line = {"correct": not fails, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": _metrics(a.trace, result, meta)}
        info = {"workload": a.workload, "seed": a.seed, "ops": len(ops),
                "walls_s": [round(o["wall_s"], 3) for o in ops],
                "executions": [o["executions"] for o in ops],
                "keyed_exchanges": [o["keyed_exchanges"] for o in ops]}
        print(json.dumps(info))
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(ray_temp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
