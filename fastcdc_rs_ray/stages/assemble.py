"""Assemble stage: transcripts -> conv_bytes (one row per conversation).

Replaces the reference's ``&[u8]`` source (src/v2020/mod.rs:502): a
conversation's ordered turn texts, concatenated, are the byte stream the
chunk kernel runs over.  ``turn_spans`` records each turn's byte range in
the payload, preserving per-turn text equality under stable
``(conv_id, turn_idx)`` ordering (the north-rule invariant) — see
:func:`explode_turns` for the exact inverse.

Distribution: one range sort on ``conv_id`` (``util.co_locate``, a
task-based exchange with no aggregator actors) puts each conversation in
one block; the per-batch assembly is then fully vectorized Arrow:

- sort batch by (conv_id, turn_idx),
- the sorted ``text`` column's values buffer IS the concatenation of all
  payloads in order, so each conversation's payload is a zero-copy slice:
  a LargeBinaryArray built from group-boundary offsets over the same
  buffer.  No per-row Python, no byte copying.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..util import co_locate

CONV_SCHEMA_COLUMNS = ["conv_id", "payload", "turn_spans", "n_turns", "total_bytes"]


def assemble_batch(t: pa.Table) -> pa.Table:
    """One pyarrow batch (containing whole conversations) -> conv_bytes rows."""
    n = len(t)
    if n == 0:
        return pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "payload": pa.array([], pa.large_binary()),
                "turn_spans": pa.array([], pa.list_(_span_type())),
                "n_turns": pa.array([], pa.int32()),
                "total_bytes": pa.array([], pa.int64()),
            }
        )
    order = pc.sort_indices(
        t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
    )
    t = t.take(order)
    conv = t["conv_id"].combine_chunks()
    text = pc.cast(t["text"].combine_chunks(), pa.large_string())
    turn_idx = t["turn_idx"].combine_chunks().to_numpy()

    offs = np.frombuffer(text.buffers()[1], dtype=np.int64, count=n + 1 + text.offset)
    offs = offs[text.offset : text.offset + n + 1]
    values_buf = text.buffers()[2]

    # group boundaries on sorted conv_id
    neq = pc.not_equal(conv.slice(1), conv.slice(0, n - 1))
    bounds = np.flatnonzero(neq.to_numpy(zero_copy_only=False))
    starts = np.empty(len(bounds) + 1, dtype=np.int64)
    starts[0] = 0
    starts[1:] = bounds + 1
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = n
    g = len(starts)

    # payload: zero-copy LargeBinaryArray over the text values buffer
    pay_offsets = np.empty(g + 1, dtype=np.int64)
    pay_offsets[:-1] = offs[starts]
    pay_offsets[-1] = offs[n]
    payload = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        g,
        [None, pa.py_buffer(pay_offsets), values_buf],
    )

    # turn_spans: per turn, byte range relative to its conversation payload
    conv_start_per_row = np.repeat(offs[starts], (ends - starts))
    byte_start = offs[:-1] - conv_start_per_row
    byte_end = offs[1:] - conv_start_per_row
    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(turn_idx, pa.int32()),
            pa.array(byte_start, pa.int64()),
            pa.array(byte_end, pa.int64()),
        ],
        fields=list(_span_type()),
    )
    list_offsets = np.empty(g + 1, dtype=np.int32)
    list_offsets[:-1] = starts
    list_offsets[-1] = n
    turn_spans = pa.ListArray.from_arrays(pa.array(list_offsets, pa.int32()), span_struct)

    return pa.table(
        {
            "conv_id": conv.take(pa.array(starts, pa.int64())),
            "payload": payload,
            "turn_spans": turn_spans,
            "n_turns": pa.array((ends - starts).astype(np.int32), pa.int32()),
            "total_bytes": pa.array(pay_offsets[1:] - pay_offsets[:-1], pa.int64()),
        }
    )


def _span_type() -> pa.StructType:
    return pa.struct(
        [
            pa.field("turn_idx", pa.int32()),
            pa.field("byte_start", pa.int64()),
            pa.field("byte_end", pa.int64()),
        ]
    )


def assemble(ds, num_partitions: int | None = None, pre_partitioned: bool = False):
    """transcripts Dataset -> conv_bytes Dataset (exchange #1, key conv_id).

    ``pre_partitioned=True`` asserts the *input layout* already co-locates
    every conversation inside one block (e.g. parquet files written
    conversation-contiguous with one row group per file — the normal
    at-scale ingest layout) and skips the exchange entirely.  The
    partitioning assumption this relies on: no conv_id spans two input
    blocks; violating it yields duplicate conv_bytes rows for the split
    conversation (each covering only its block's turns).
    """
    if not pre_partitioned:
        ds = co_locate(ds, "conv_id", num_partitions or 64)
    # batch_size=None => whole blocks; co_locate (or the declared input
    # layout) guarantees whole conversations per block, so per-batch
    # assembly is complete.
    return ds.map_batches(assemble_batch, batch_format="pyarrow", batch_size=None)


def explode_turns(conv_ds):
    """conv_bytes -> (conv_id, turn_idx, text): the exact inverse of
    assembly, proving per-turn text equality (north-rule invariant)."""

    def explode(t: pa.Table) -> pa.Table:
        g = len(t)
        if g == 0:
            return pa.table(
                {
                    "conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int32()),
                    "text": pa.array([], pa.string()),
                }
            )
        payload = t["payload"].combine_chunks()
        spans = t["turn_spans"].combine_chunks()
        flat = spans.flatten()
        turn_counts = np.diff(spans.offsets.to_numpy())
        conv_rep = t["conv_id"].combine_chunks().take(
            pa.array(np.repeat(np.arange(g), turn_counts), pa.int64())
        )
        # payload byte offsets (into the shared values buffer)
        pay_off = np.frombuffer(payload.buffers()[1], dtype=np.int64, count=g + 1 + payload.offset)
        pay_off = pay_off[payload.offset : payload.offset + g + 1]
        base = np.repeat(pay_off[:-1], turn_counts)
        b_start = flat.field("byte_start").to_numpy() + base
        b_end = flat.field("byte_end").to_numpy() + base
        n_turns_total = len(flat)
        text_offsets = np.empty(n_turns_total + 1, dtype=np.int64)
        text_offsets[:-1] = b_start
        text_offsets[-1] = b_end[-1] if n_turns_total else 0
        # spans within a conversation are contiguous (b_end[i] == b_start[i+1]
        # inside a conv; across convs payload regions are also contiguous in
        # the batch buffer) — checked here to guard the zero-copy reuse:
        if n_turns_total > 1 and not (b_end[:-1] == b_start[1:]).all():
            # non-contiguous layout (possible after exotic slicing): correct
            # but copying fallback
            data = np.frombuffer(payload.buffers()[2], dtype=np.uint8)
            texts = pa.array(
                [data[s:e].tobytes() for s, e in zip(b_start.tolist(), b_end.tolist())],
                pa.large_binary(),
            )
        else:
            texts = pa.LargeBinaryArray.from_buffers(
                pa.large_binary(),
                n_turns_total,
                [None, pa.py_buffer(text_offsets), payload.buffers()[2]],
            )
        return pa.table(
            {
                "conv_id": conv_rep,
                "turn_idx": flat.field("turn_idx"),
                "text": pc.cast(texts.cast(pa.large_string()), pa.string()),
            }
        )

    return conv_ds.map_batches(explode, batch_format="pyarrow", batch_size=None)
