"""Public API — the one-import surface for users of the engine.

A user of the reference crate (nlfiedler/fastcdc-rs) maps onto this
module as follows (reference surface -> here):

- ``FastCDC::new(&[u8], min, avg, max)`` / ``with_level_and_seed``
  (src/v2020/mod.rs:516-576) -> :class:`ChunkerConfig` +
  :func:`chunk_bytes` for one buffer, or :func:`chunk_table` /
  ``queries()['chunks']`` for a whole Parquet corpus distributed.
- ``StreamCDC`` / ``AsyncStreamCDC`` (src/v2020/mod.rs:741,
  async_stream_cdc.rs:59) -> :class:`StreamChunker` (bounded-memory,
  caller-driven ``cut_one`` API included).
- v2016 / ronomon variants, normalization levels 0-3, gear seeding,
  custom gear tables -> :class:`ChunkerConfig` fields.

Beyond the reference, the distributed tiers (each also registered in
``__ray_entry__.queries()`` with a DuckDB oracle where expressible):

- near-dup flagship: :func:`neardup_clusters` (MinHash -> LSH -> verify
  -> connected components), :func:`representatives`,
  :func:`split_by_cluster`
- exact tiers: :func:`exact_dedup`, :func:`normalized_dedup`
- similarity: :func:`simhash_signatures` / :func:`simhash_pairs`,
  :func:`ngram_jaccard_pairs`
- components: :func:`connected_components_driver` /
  :func:`connected_components_bsp` (hash-to-min on shard actors, string
  or int64 vertices)

Everything is a plain function ``Dataset -> Dataset`` (or a small
driver-side ``pyarrow.Table`` for dimension-sized results); none of it
calls ``ray.init()`` — the caller owns the session.
"""

from __future__ import annotations

from .cdc import ChunkerConfig, chunk_rows  # noqa: F401
from .cdc.kernel import chunk_bytes  # noqa: F401
from .cdc.stream import StreamChunker, stream_chunks_async  # noqa: F401
from .pipelines.neardup import (  # noqa: F401
    neardup_clusters,
    neardup_clusters_distributed,
    representatives,
    split_by_cluster,
)
from .sources.transcripts import read_transcripts  # noqa: F401
from .stages.assemble import assemble, assemble_batch  # noqa: F401
from .stages.cc import (  # noqa: F401
    connected_components_bsp,
    connected_components_driver,
)
from .stages.chunk import ChunkStage, chunk  # noqa: F401
from .stages.dedup import (  # noqa: F401
    exact_dedup,
    ngram_jaccard_pairs,
    normalized_dedup,
    simhash_pairs,
    simhash_signatures,
)

__all__ = [
    "ChunkerConfig", "chunk_bytes", "chunk_rows", "StreamChunker",
    "ChunkStage", "chunk", "read_transcripts", "assemble",
    "assemble_batch", "chunk_table",
    "neardup_clusters", "neardup_clusters_distributed",
    "representatives", "split_by_cluster",
    "exact_dedup", "normalized_dedup",
    "simhash_signatures", "simhash_pairs", "ngram_jaccard_pairs",
    "connected_components_driver", "connected_components_bsp",
]


def chunk_table(transcripts_ds, cfg: ChunkerConfig | None = None,
                num_partitions: int = 16):
    """Parquet transcripts -> chunk rows (conv_id, chunk_idx, hash,
    offset, length): the reference's slice-source entry point
    (src/v2020/mod.rs:516) lifted to a whole distributed table."""
    return chunk(assemble(transcripts_ds, num_partitions=num_partitions),
                 cfg or ChunkerConfig())
