"""`ray job submit` entry point for the flagship near-dup pipeline.

The north rule's deployment surface: the same job script runs unchanged on
a laptop, a single node, or an N/4N-node cluster —

    # multi-node cluster (head node address from the cluster launcher)
    ray job submit --address http://<head>:8265 \
        --working-dir . \
        -- python tools/job_entry.py \
             --input  s3://bucket/transcripts/ \
             --output s3://bucket/clusters/ \
             --checkpoint-dir s3://bucket/ckpt/run1

    # local smoke (this sandbox)
    python tools/job_entry.py --input /root/testdata/sf0.001 \
        --output /tmp/job_out --num-cpus 8

Inside a `ray job submit` runtime the cluster is already initialised and
`ray.init(address="auto")` attaches; standalone the script owns a local
session (the ONLY places allowed to init Ray are bench.py, the test
fixture, and CLI entry points like this one — library code never does).

Resume: pass --checkpoint-dir to persist the signatures stage with
per-partition manifests (state/checkpoint.py); a re-submitted job skips
finished partitions and re-derives only the tail.  Output is partitioned
parquet (one file per block), never one giant file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="transcripts parquet file/dir (conv_id, turn_idx, text)")
    ap.add_argument("--output", required=True, help="clusters parquet dir")
    ap.add_argument("--checkpoint-dir", default=None,
                    help="persist + resume the signatures stage here")
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local-mode CPUs (ignored under ray job submit)")
    ap.add_argument("--num-partitions", type=int, default=None,
                    help="exchange partition count (default: 2x cluster "
                         "CPUs, min 16; multi-shuffle stages additionally "
                         "self-clamp so aggregator actors can't starve "
                         "map tasks)")
    ap.add_argument("--verify-threshold", type=float, default=0.5)
    ap.add_argument("--distributed", action="store_true",
                    help="force every data-proportional stage distributed "
                         "(shuffle verify + BSP actor CC) — the "
                         "multi-node configuration")
    ap.add_argument("--pre-partitioned", action="store_true",
                    help="input layout is conversation-contiguous; skip "
                         "the assembly shuffle")
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import ray

    if not ray.is_initialized():
        if os.environ.get("RAY_JOB_ID"):  # under `ray job submit`
            ray.init(address="auto")
        else:
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False, logging_level="ERROR")

    from fastcdc_rs_ray.pipelines.neardup import (
        neardup_clusters,
        neardup_clusters_distributed,
        neardup_clusters_from_signatures,
        signatures_checkpointed,
    )
    from fastcdc_rs_ray.sources.transcripts import read_transcripts

    if args.num_partitions is None:
        args.num_partitions = max(16, 2 * int(ray.cluster_resources().get("CPU", 8)))

    t0 = time.perf_counter()
    # an sf testdata dir (raw tables incl. documents.parquet, no
    # transcripts file) derives its transcripts; a real transcripts
    # corpus (conv_id, turn_idx, text parquet) reads directly
    if os.path.isdir(args.input) and os.path.exists(
            os.path.join(args.input, "documents.parquet")):
        from fastcdc_rs_ray.sources.transcripts import (
            transcripts_from_documents,
        )

        ds = transcripts_from_documents(args.input)
    else:
        ds = read_transcripts(args.input,
                              columns=["conv_id", "turn_idx", "text"],
                              whole_files=args.pre_partitioned)

    kw = dict(num_partitions=args.num_partitions,
              verify_threshold=args.verify_threshold,
              pre_partitioned=args.pre_partitioned)
    if args.checkpoint_dir:
        sigs = signatures_checkpointed(ds, args.checkpoint_dir,
                                       num_partitions=args.num_partitions,
                                       pre_partitioned=args.pre_partitioned)
        clusters = neardup_clusters_from_signatures(
            sigs, num_partitions=args.num_partitions,
            verify_threshold=args.verify_threshold,
            **({"verify_driver_limit": 0, "cc": "distributed"}
               if args.distributed else {}))
    else:
        flagship = (neardup_clusters_distributed if args.distributed
                    else neardup_clusters)
        clusters = flagship(ds, **kw)

    clusters.write_parquet(args.output)
    n_out = sum(
        b.num_rows for b in
        ray.data.read_parquet(args.output).iter_batches(batch_format="pyarrow")
    )
    print(json.dumps({
        "metric": "job_neardup_clusters",
        "rows": n_out,
        "wall_s": round(time.perf_counter() - t0, 3),
        "output": args.output,
        "checkpointed": bool(args.checkpoint_dir),
        "distributed": bool(args.distributed),
    }))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
