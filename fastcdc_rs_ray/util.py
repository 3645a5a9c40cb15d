"""Shared hash/mixing utilities (vectorized uint64)."""

from __future__ import annotations

import numpy as np

_M = (1 << 64) - 1
U64 = np.uint64


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (public-domain avalanche function): uniform
    64-bit mixing, vectorized, wrapping uint64."""
    u = U64
    z = np.asarray(x, dtype=np.uint64) + u(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u(30))) * u(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u(27))) * u(0x94D049BB133111EB)
    return z ^ (z >> u(31))


def mix64_scalar(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def string_buffers(arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets int64, data uint8) views of a pyarrow
    string/binary array's buffers, normalized for a possible array offset
    (sliced arrays).  ``offsets`` indexes into ``data`` (the full values
    buffer); row k's bytes are ``data[offsets[k]:offsets[k+1]]``."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    odt = (
        np.int64
        if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
        else np.int32
    )
    offsets = np.frombuffer(arr.buffers()[1], dtype=odt, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    databuf = arr.buffers()[2]
    data = (
        np.frombuffer(databuf, dtype=np.uint8)
        if databuf is not None and len(databuf) > 0
        else np.empty(0, dtype=np.uint8)
    )
    return offsets, data


def hash_str_array_u64(arr) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of a pyarrow string/binary array.

    Per-row position-weighted sum of mixed bytes (order-sensitive), then a
    final mix.  Used for salting and bucketing, not content identity.
    """
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    odt = (
        np.int64
        if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
        else np.int32
    )
    offsets = np.frombuffer(arr.buffers()[1], dtype=odt, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    databuf = arr.buffers()[2]
    data = (
        np.frombuffer(databuf, dtype=np.uint8)
        if databuf is not None and len(databuf) > 0
        else np.empty(0, dtype=np.uint8)
    )
    lens = np.diff(offsets)
    n = len(arr)
    total = int(offsets[-1] - offsets[0])
    if total == 0:
        return mix64(np.zeros(n, dtype=np.uint64))
    seg = np.repeat(offsets[:-1], lens)  # row start per byte position
    pos = np.arange(int(offsets[0]), int(offsets[-1]), dtype=np.int64) - seg
    vals = mix64(
        data[int(offsets[0]) : int(offsets[-1])].astype(np.uint64)
        + (pos.astype(np.uint64) << U64(8))
    )
    row_starts = (offsets[:-1] - offsets[0]).astype(np.int64)
    sums = np.zeros(n, dtype=np.uint64)
    nz = lens > 0
    if nz.any():
        red = np.add.reduceat(vals, row_starts[nz])
        sums[nz] = red
    return mix64(sums + lens.astype(np.uint64))


def co_locate(ds, keys, num_blocks: int):
    """Dataset whose blocks each hold every row of the key tuples they
    contain: no key tuple spans two blocks, so a following
    ``map_batches(..., batch_size=None)`` sees whole groups.

    Uses Ray's task-based range sort rather than a keyed hash
    ``repartition``: every sort mapper cuts its block at the same sampled
    boundaries, so all rows with an equal key reach one reducer, and each
    reducer returns one block.  It starts no aggregator actors, so it
    reserves no CPUs that could starve the map tasks feeding it, and it
    measured 4-6x cheaper than the hash shuffle (see stages/lsh.py).  A
    hot key lands whole in one block.  The split ``repartition`` in front
    bounds the sort's partition objects at ``num_blocks**2``; sorting a
    reader's many small blocks directly makes P_in x P_out objects and
    raised the driver's peak memory.
    """
    return ds.repartition(num_blocks).sort(keys)


def conv_numbers(conv):
    """int64 number part of ``conv-%08d`` / ``twin-%08d`` conversation ids
    (code units 5-13).  Raises ValueError on an id whose number part is
    longer than 8 code units: the slice would silently truncate it into
    another conversation's number."""
    import pyarrow as pa
    import pyarrow.compute as pc

    long = pc.greater(pc.binary_length(conv), 13)
    if pc.any(long).as_py():
        raise ValueError(
            f"conversation id {pc.filter(conv, long)[0].as_py()!r} has a "
            f"number part longer than 8 digits")
    return pc.cast(pc.utf8_slice_codeunits(conv, 5, 13), pa.int64())


def shuffle_safe_partitions(requested: int, concurrent_shuffles: float = 2.25,
                            aggregator_cpu: float = 0.1,
                            budget_frac: float = 0.6) -> int:
    """Clamp a shuffle partition count so a multi-shuffle streaming plan
    cannot deadlock on a small cluster.

    Every hash-shuffle aggregator actor holds ``aggregator_cpu`` CPUs for
    the life of its stage (``ensure_data_context``); a plan with several
    hash shuffles live at once can reserve nearly every CPU in
    aggregators, leaving none for the 1-CPU map tasks that feed them — a
    scheduling deadlock, observed at num_partitions=32 x 3 shuffles on an
    8-CPU session.  Stages that only need co-location use
    :func:`co_locate`, which needs no clamp.  Cap so aggregators across
    the plan use at most ``budget_frac`` of the cluster.  No-op when Ray
    is absent or the budget already accommodates ``requested``.
    """
    try:
        import ray

        cpus = float(ray.cluster_resources().get("CPU", 0.0))
    except Exception:
        return requested
    if cpus <= 0:
        return requested
    cap = int(cpus * budget_frac / (aggregator_cpu * concurrent_shuffles))
    return max(4, min(requested, cap))
