"""One workload run inside a fresh Ray session (the process that holds the
Ray driver).  Started by ``run.py``; never run by hand except to debug.

It receives only the generated Parquet inputs, times whole operations
for the requested seconds, counts Dataset executions and keyed exchanges
from Ray Data's own execution log, and writes what the program returned
to the run directory, where ``run.py`` checks it.  With ``--trace 1`` it
runs one operation and then calls each layer's public function one at a
time, timing each call from here; nothing inside the program is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from oracles import ENTRIES as REGISTRY_ENTRIES

NUM_CPUS = 4
# keyed-exchange partition counts: each hash-shuffle aggregator holds
# 0.1 CPU per partition, so these leave CPUs free for map tasks at 4 CPUs
AUTO_PARTITIONS = 8
CKPT_PARTITIONS = 4
CKPT_GROUP = 2
TAIL_PARTITIONS = 8
REGISTRY_PARTITIONS = 8  # the registry entries' own exchanges use 8
OP_BUDGET_S = {"flagship_auto": 90, "flagship_resumable": 100, "registry_floor": 110}
# operations per round: flagship_auto's ~10 s operation is repeated so its
# median rests on three; the others take over 20 s and fit once in a run
ROUND_OPS = {"flagship_auto": 3, "flagship_resumable": 1, "registry_floor": 1}


class OpTimeout(BaseException):
    """Raised from SIGALRM when an operation overruns its budget.  A
    BaseException so library ``except Exception`` blocks cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class ExecLog:
    """Counts Dataset executions and keyed exchanges by reading the
    ``ray-data.log`` Ray Data writes for this session."""

    def __init__(self, session_dir: str):
        self.path = os.path.join(session_dir, "logs", "ray-data", "ray-data.log")

    def mark(self) -> int:
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    def since(self, pos: int) -> tuple[int, int]:
        """(executions, keyed exchanges) logged after position ``pos``."""
        if not os.path.exists(self.path):
            return 0, 0
        with open(self.path, errors="replace") as f:
            f.seek(pos)
            text = f.read()
        execs = text.count("Starting execution of Dataset")
        exch = 0
        for line in text.splitlines():
            if "Execution plan of Dataset" in line:
                exch += line.count("HashShuffleOperator[") + line.count("HashAggregateOperator[")
        return execs, exch


def collect(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table in this process."""
    import ray

    if isinstance(ds, pa.Table):
        return ds
    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts, promote_options="default") if parts else pa.table({})


def digest(t: pa.Table) -> str:
    """Order-insensitive digest: rows sorted on every flat column."""
    flat = [c for c in sorted(t.column_names) if not pa.types.is_nested(t[c].type)]
    t = t.sort_by([(c, "ascending") for c in flat])
    h = hashlib.sha256()
    for c in sorted(t.column_names):
        h.update(c.encode())
        h.update(str(t[c].to_pylist()).encode())
    return h.hexdigest()[:16]


def tree_snapshot(root: str) -> dict:
    out = {}
    for d, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            st = os.stat(p)
            out[os.path.relpath(p, root)] = (st.st_size, st.st_mtime_ns)
    return out


def tree_bytes(root: str) -> int:
    return sum(s for s, _ in tree_snapshot(root).values())


class Workload:
    """Operations of one workload over its generated inputs."""

    def __init__(self, name: str, inputs: str, out: str):
        self.name, self.inputs, self.out = name, inputs, out
        self.corpus = os.path.join(inputs, "corpus")

    # ---- one timed operation -------------------------------------------
    def op(self, i: int, layers: dict) -> dict:
        return getattr(self, "op_" + self.name)(i, layers)

    def op_flagship_auto(self, i, layers):
        from fastcdc_rs_ray.pipelines.neardup import neardup_clusters
        from fastcdc_rs_ray.sources.transcripts import read_transcripts

        t0 = time.perf_counter()
        clusters = collect(neardup_clusters(read_transcripts(self.corpus),
                                            num_partitions=AUTO_PARTITIONS))
        wall = time.perf_counter() - t0
        if i == 0:
            pq.write_table(clusters, os.path.join(self.out, "clusters.parquet"))
        return {"wall_s": wall, "digest": digest(clusters)}

    def op_flagship_resumable(self, i, layers):
        from fastcdc_rs_ray.pipelines.neardup import (
            neardup_clusters_from_signatures, signatures_checkpointed)
        from fastcdc_rs_ray.sources.transcripts import read_transcripts

        root = os.path.join(self.out, f"ckpt-{i}")
        kw = dict(num_partitions=CKPT_PARTITIONS, group_size=CKPT_GROUP)
        t0 = time.perf_counter()
        first = signatures_checkpointed(read_transcripts(self.corpus), root, **kw)
        t1 = time.perf_counter()
        snap = tree_snapshot(root)
        # on a completed root the call only plans a Parquet read; the
        # materialize() does the read, so the read is timed here
        sigs = signatures_checkpointed(read_transcripts(self.corpus), root,
                                       **kw).materialize()
        t2 = time.perf_counter()
        clusters = collect(neardup_clusters_from_signatures(
            sigs, num_partitions=TAIL_PARTITIONS, verify_driver_limit=0,
            cc="distributed"))
        wall = time.perf_counter() - t0
        res = {"wall_s": wall, "digest": digest(clusters),
               "resume_wrote_nothing": tree_snapshot(root) == snap,
               "checkpoint_bytes": tree_bytes(root)}
        if i == 0:
            res["resume_same_signatures"] = (digest(collect(first))
                                             == digest(collect(sigs)))
            pq.write_table(clusters, os.path.join(self.out, "clusters.parquet"))
            shutil.copy(os.path.join(root, "signatures", "_manifest.jsonl"),
                        os.path.join(self.out, "manifest.jsonl"))
            layers["checkpoint.write_s"] = t1 - t0
            layers["checkpoint.read_s"] = t2 - t1
        shutil.rmtree(root)
        return res

    def op_registry_floor(self, i, layers):
        from fastcdc_rs_ray.pipelines.queries import QUERIES

        t0 = time.perf_counter()
        digests = {}
        for name in REGISTRY_ENTRIES:
            pos = log.mark()
            ts = time.perf_counter()
            res = collect(QUERIES[name](self.inputs))
            layers[f"registry.{name}.s"] = time.perf_counter() - ts
            layers[f"registry.{name}.executions"] = log.since(pos)[0]
            digests[name] = digest(res)
            if i == 0:
                pq.write_table(res, os.path.join(self.out, f"registry_{name}.parquet"))
        return {"wall_s": time.perf_counter() - t0, "digest": json.dumps(digests, sort_keys=True)}

    # ---- untimed evidence for the checks ---------------------------------
    def evidence(self) -> None:
        """Chunk rows of the sample payloads, for the kernel check."""
        if self.name == "registry_floor":
            return
        import ray.data as rd

        from fastcdc_rs_ray.stages.chunk import chunk

        sample = pq.read_table(os.path.join(self.inputs, "sample_payloads.parquet"))
        rows = collect(chunk(rd.from_arrow(sample)))
        pq.write_table(rows, os.path.join(self.out, "chunks_sample.parquet"))

    # ---- traced mode: one public call per layer ----------------------------
    def layer_pass(self, layers: dict) -> None:
        import ray.data as rd

        def timed(key, fn):
            t = time.perf_counter()
            r = fn()
            layers[key] = time.perf_counter() - t
            return r

        floors = []
        for _ in range(3):
            t = time.perf_counter()
            rd.range(1).map_batches(lambda b: b).materialize()
            floors.append(time.perf_counter() - t)
        layers["ray.execution_floor_s"] = float(np.median(floors))
        # the partition counts the workload's operation uses: ``head`` for
        # assemble (and the checkpoint), ``tail`` for lsh, verify and CC
        head = CKPT_PARTITIONS if self.name == "flagship_resumable" else AUTO_PARTITIONS
        tail = {"flagship_auto": AUTO_PARTITIONS, "flagship_resumable": TAIL_PARTITIONS,
                "registry_floor": REGISTRY_PARTITIONS}[self.name]
        timed("ray.exchange_floor_s", lambda: rd.range(64).repartition(
            num_blocks=tail, keys=["id"]).materialize())
        if self.name == "registry_floor":
            # pipelines.release, too slow for every operation: once here
            from fastcdc_rs_ray.pipelines.release import curation_release

            pos = log.mark()
            res = timed("release.s", lambda: curation_release(
                self.inputs, num_partitions=REGISTRY_PARTITIONS))
            layers["release.executions"] = log.since(pos)[0]
            pq.write_table(res, os.path.join(self.out, "registry_curation_release.parquet"))
            return
        from fastcdc_rs_ray.cdc import chunk_rows
        from fastcdc_rs_ray.pipelines.neardup import verify_edges
        from fastcdc_rs_ray.sources.transcripts import read_transcripts
        from fastcdc_rs_ray.stages.assemble import assemble
        from fastcdc_rs_ray.stages.cc import (connected_components_bsp,
                                              connected_components_driver)
        from fastcdc_rs_ray.stages.chunk import DEFAULT_CONFIG, ChunkStage, chunk
        from fastcdc_rs_ray.stages.lsh import candidate_edges
        from fastcdc_rs_ray.stages.minhash import MinHasher, minhash

        shuffle = self.name == "flagship_resumable"
        ds = timed("sources.read_s", lambda: read_transcripts(self.corpus).materialize())
        layers["sources.turns"] = ds.count()
        conv = timed("assemble.s", lambda: assemble(ds, num_partitions=head).materialize())
        layers["assemble.mb"] = conv.sum("total_bytes") / 1e6
        ch = timed("chunk.s", lambda: chunk(conv).materialize())
        layers["chunk.chunks"] = ch.count()
        sigs = timed("minhash.s", lambda: minhash(ch).materialize())
        edges = timed("lsh.s", lambda: candidate_edges(sigs, num_partitions=tail).materialize())
        layers["lsh.candidates"] = edges.count()
        kept = timed("verify.s", lambda: verify_edges(
            edges, sigs, 0.5, num_partitions=max(8, tail // 2),
            driver_limit=0 if shuffle else 5_000_000).materialize())
        layers["verify.kept"] = kept.count()
        layers["verify.keep_ratio"] = layers["verify.kept"] / max(1, layers["lsh.candidates"])
        if shuffle:
            cl = timed("cc.s", lambda: connected_components_bsp(
                kept, sigs, n_shards=max(2, min(16, tail // 4))).materialize())
        else:
            cl = timed("cc.s", lambda: connected_components_driver(kept, sigs).materialize())
        layers["cc.clusters"] = len(set(collect(cl)["cluster_id"].to_pylist()))

        # kernels on one block, no Ray: the first assembled block
        import ray

        block = ray.get(conv.to_arrow_refs()[0])
        payload = block["payload"].combine_chunks()
        mb = len(payload.buffers()[2]) / 1e6 if payload.buffers()[2] else 0.0
        from fastcdc_rs_ray.stages.chunk import _binary_column_as_buffer

        data, offs = _binary_column_as_buffer(payload)
        t = time.perf_counter()
        chunk_rows(data, offs, DEFAULT_CONFIG)
        layers["cdc.kernel_mb_per_s"] = mb / (time.perf_counter() - t)
        rows = ChunkStage()(block)
        t = time.perf_counter()
        MinHasher()(rows)
        layers["minhash.kernel_mb_per_s"] = mb / (time.perf_counter() - t)

        if shuffle:
            from fastcdc_rs_ray.pipelines.neardup import signatures_checkpointed

            root = os.path.join(self.out, "ckpt-trace")
            kw = dict(num_partitions=CKPT_PARTITIONS, group_size=CKPT_GROUP)
            signatures_checkpointed(read_transcripts(self.corpus), root, **kw)
            stage = os.path.join(root, "signatures")
            with open(os.path.join(stage, "_manifest.jsonl")) as f:
                recs = f.read().splitlines()
            layers["checkpoint.partitions"] = len(recs)
            layers["checkpoint.mb"] = tree_bytes(root) / 1e6
            # a crash after all but the last bucket: resume recomputes one
            lost = json.loads(recs[-1])["partition_id"]
            with open(os.path.join(stage, "_manifest.jsonl"), "w") as f:
                f.write("\n".join(recs[:-1]) + "\n")
            os.remove(os.path.join(stage, "_SUCCESS"))
            shutil.rmtree(os.path.join(stage, f"part={lost}"))
            timed("checkpoint.resume_s", lambda: signatures_checkpointed(
                read_transcripts(self.corpus), root, **kw).materialize())
            shutil.rmtree(root)


log: ExecLog


def main() -> int:
    global log
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--ray-temp", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    a = ap.parse_args()

    import ray

    result = {"attempted": 0, "failed": 0, "ops": [], "layers": {}}
    signal.signal(signal.SIGALRM, _alarm)
    try:
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=1_000_000_000, _temp_dir=a.ray_temp)
        from ray.data.context import DataContext
        import ray.data as rd

        # importing the modules the operations use sets the hash-shuffle
        # strategy and keeps import time out of the first operation
        import fastcdc_rs_ray.pipelines.neardup  # noqa: F401
        import fastcdc_rs_ray.pipelines.queries  # noqa: F401
        import fastcdc_rs_ray.sources.transcripts  # noqa: F401
        from fastcdc_rs_ray.stages.chunk import chunk

        DataContext.get_current().enable_progress_bars = False
        session_dir = ray._private.worker._global_node.get_session_dir_path()
        log = ExecLog(session_dir)
        # warm-up: workers start and import the package (native kernel
        # load); eight blocks so every prestarted worker gets a task
        warm = pa.table({"conv_id": ["w"], "payload": pa.array([b"x" * 300], pa.large_binary())})
        chunk(rd.from_arrow([warm] * 8)).materialize()
        result["setup_s"] = time.time() - a.spawned_at

        wl = Workload(a.workload, a.inputs, a.out)
        budget = OP_BUDGET_S[a.workload]
        t_loop = time.perf_counter()
        per_round = 1 if a.trace else ROUND_OPS[a.workload]
        while not result.get("timed_out"):
            for _ in range(per_round):
                result["attempted"] += 1
                pos = log.mark()
                t_op = time.perf_counter()
                signal.alarm(budget)
                try:
                    r = wl.op(len(result["ops"]), result["layers"])
                except OpTimeout:
                    result["failed"] += 1
                    result["timed_out"] = time.perf_counter() - t_op
                    break
                finally:
                    signal.alarm(0)
                r["executions"], r["keyed_exchanges"] = log.since(pos)
                result["ops"].append(r)
            if a.trace or time.perf_counter() - t_loop >= a.seconds:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not result.get("timed_out"):
            signal.alarm(budget)
            try:
                wl.evidence()
                if a.trace:
                    result["attempted"] += 1
                    wl.layer_pass(result["layers"])
            except OpTimeout:
                result["failed"] += 1
                result["timed_out"] = float(budget)
            finally:
                signal.alarm(0)
    finally:
        with open(os.path.join(a.out, "result.json"), "w") as f:
            json.dump(result, f, indent=1, default=float)
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
