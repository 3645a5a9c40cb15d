"""fastcdc_rs_ray — Ray-Data-native content-defined chunking + near-dup engine.

Built from scratch against the behavior of nlfiedler/fastcdc-rs (reference
at /root/reference); see SURVEY.md for the blueprint and per-module
docstrings for file:line parity citations.
"""

from ._mem import tune_allocator

tune_allocator()  # applies in every process that imports the package (driver and Ray workers)


def ensure_data_context() -> None:
    """Configure Ray Data for this engine: hash-shuffle strategy (keyed
    ``repartition`` — the registry's keyed stages and
    ``representatives`` — requires it; the flagship's exchanges are range
    sorts, ``util.co_locate``, which do not depend on it).  Safe without
    an active Ray session; idempotent; never raises (the engine still
    works for shuffle-free stages if ray.data is unavailable)."""
    try:
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        if ctx.shuffle_strategy != ShuffleStrategy.HASH_SHUFFLE:
            ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        # By default every hash-shuffle aggregator actor reserves a full CPU
        # per partition, so a num_partitions≈num_cpus shuffle starves the
        # map tasks (measured 3x slowdown of the assemble shuffle at 32
        # cpus).  Aggregators are IO/concat-bound; 0.25 CPU each restores
        # pipeline overlap.
        ctx.hash_shuffle_operator_actor_num_cpus_per_partition_override = 0.1
        ctx.hash_aggregate_operator_actor_num_cpus_per_partition_override = 0.1
    except Exception:
        pass


ensure_data_context()


def _warm_native() -> None:
    """Build/load the native kernels at import (driver AND workers): the
    .so is compiled once per machine under a file lock, so worker tasks
    never hit a compile race that would pin them to the NumPy fallback."""
    try:
        from .cdc._native import get_lib

        get_lib()
    except Exception:
        pass


_warm_native()
