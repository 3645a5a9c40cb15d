"""The co-location contract of ``util.co_locate`` and the stages built on
it: after the range-sort exchange every key tuple lives in exactly one
block, which is all that ``assemble_batch``, the verify ``attach``/``est``
steps and ``dedupe_edges``' ``local_distinct`` rely on."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fastcdc_rs_ray.sources.transcripts import synth_transcripts
from fastcdc_rs_ray.stages.assemble import assemble, assemble_batch
from fastcdc_rs_ray.util import co_locate

N_ROWS = 4000
IN_BLOCKS = 96  # more input blocks than the largest partition count


def _skewed_table(kind: str) -> tuple[pa.Table, list[str], tuple]:
    """N_ROWS rows in shuffled order, half of them on one hot key and the
    rest spread over a few hundred keys.  Returns (table, key columns,
    hot key tuple)."""
    rng = np.random.default_rng(5)
    k = rng.integers(1, 300, N_ROWS)
    k[rng.permutation(N_ROWS)[: N_ROWS // 2]] = 0
    if kind == "string":
        cols = {"conv_id": pa.array([f"conv-{int(v):08d}" for v in k])}
        hot = ("conv-00000000",)
    else:
        # full-range u64 values: a signed cast anywhere would show
        big = np.uint64(1) << np.uint64(63)
        cols = {
            "src": pa.array(k.astype(np.uint64) | big, pa.uint64()),
            "dst": pa.array((k % 7).astype(np.uint64) | big, pa.uint64()),
        }
        hot = (int(big), int(big))
    cols["row"] = pa.array(np.arange(N_ROWS), pa.int64())
    return pa.table(cols), list(cols)[:-1], hot


@pytest.mark.parametrize("num_blocks", [1, 3, 8, 64])
@pytest.mark.parametrize("kind", ["string", "u64_pair"])
def test_no_key_spans_two_blocks(ray_session, kind, num_blocks):
    import ray
    import ray.data as rd

    t, keys, hot = _skewed_table(kind)
    step = -(-N_ROWS // IN_BLOCKS)
    ds = rd.from_arrow([t.slice(i, step) for i in range(0, N_ROWS, step)])
    assert ds.materialize().num_blocks() > num_blocks

    blocks = ray.get(co_locate(ds, keys, num_blocks).materialize().to_arrow_refs())
    assert len(blocks) <= num_blocks
    owner: dict[tuple, int] = {}
    rows, hot_counts = [], []
    for b, blk in enumerate(blocks):
        if blk.num_rows == 0:  # an empty reducer's block carries no schema
            continue
        rows.extend(blk["row"].to_pylist())
        tuples = list(zip(*(blk[k].to_pylist() for k in keys)))
        hot_counts.append(tuples.count(hot))
        for key in set(tuples):
            assert owner.setdefault(key, b) == b, f"{key} in blocks {owner[key]} and {b}"
    assert sorted(rows) == list(range(N_ROWS))
    assert max(hot_counts) == N_ROWS // 2  # the hot key is whole in one block


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(t for t in ray.get(ds.to_arrow_refs()) if t.num_rows)


def test_assemble_from_37_row_blocks(ray_session):
    import ray.data as rd

    transcripts, _ = synth_transcripts(n_convs=80, seed=9)
    perm = np.random.default_rng(1).permutation(len(transcripts))
    t = transcripts.take(pa.array(perm))
    ds = rd.from_arrow([t.slice(i, 37) for i in range(0, len(t), 37)])
    got = _collect(assemble(ds, num_partitions=8))
    want = assemble_batch(transcripts)
    assert len(got) == len(set(got["conv_id"].to_pylist())) == len(want)
    assert got.sort_by("conv_id").select(["conv_id", "payload", "n_turns", "total_bytes"]) \
        .equals(want.select(["conv_id", "payload", "n_turns", "total_bytes"]))


def test_assemble_one_conversation(ray_session):
    import ray.data as rd

    transcripts, _ = synth_transcripts(n_convs=1, seed=2, dup_frac=0.0)
    ds = rd.from_arrow([transcripts.slice(i, 1) for i in range(len(transcripts))])
    got = _collect(assemble(ds, num_partitions=4))
    assert got["conv_id"].to_pylist() == ["conv-00000000"]
    assert got["n_turns"].to_pylist() == [len(transcripts)]
    assert got["payload"][0].as_py() == "".join(transcripts["text"].to_pylist()).encode()


def test_assemble_empty_input(ray_session):
    import ray.data as rd

    transcripts, _ = synth_transcripts(n_convs=5, seed=2)
    empty = rd.from_arrow(transcripts.slice(0, 0))
    out = assemble(empty, num_partitions=4)
    assert out.count() == 0


def test_shuffle_verify_equals_driver_on_hot_band(ray_session):
    """``verify_edges`` forced onto the range-sort path (driver_limit=0)
    keeps exactly the driver path's edges when one band holds most rows."""
    import ray.data as rd

    from fastcdc_rs_ray.pipelines.neardup import doc_signatures, verify_edges
    from fastcdc_rs_ray.stages.lsh import candidate_edges

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(300)]
    hot = " ".join(rng.choice(vocab, size=80))
    near = [hot + " " + " ".join(rng.choice(vocab, size=6)) for _ in range(20)]
    normal = [" ".join(rng.choice(vocab, size=80)) for _ in range(30)]
    texts = [hot] * 200 + near + normal
    docs = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                     "text": pa.array(texts)})
    sigs = doc_signatures(rd.from_arrow(docs).repartition(4)).materialize()
    edges = candidate_edges(sigs).materialize()

    def pairs(ds):
        df = ds.to_pandas()
        return {tuple(sorted(p)) for p in zip(df.src, df.dst)}

    want = pairs(verify_edges(edges, sigs, 0.5))
    got = pairs(verify_edges(edges, sigs, 0.5, num_partitions=8, driver_limit=0))
    assert got == want
    assert len(want) >= 199
