"""Pin the iter_batches driver-merge audit (docs/ITER_BATCHES_AUDIT.md).

Round 4's embed_outliers red row came from a driver merge that assumed
one iter_batches batch never coalesces two partial blocks' rows for the
same key.  The audit classified every iter_batches consumer that does
not pass batch_size=None; this test pins the per-file site counts so a
NEW unclassified site (or a moved one) fails until the audit doc is
updated — turning a proven failure mode into a checked invariant
(VERDICT r4 item 3).
"""

from __future__ import annotations

import glob
import os
import re

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# file (relative to fastcdc_rs_ray/) -> expected count of iter_batches
# call sites WITHOUT batch_size=None on the same line.  Keep in sync
# with the table in docs/ITER_BATCHES_AUDIT.md.
AUDITED = {
    "pipelines/neardup.py": 2,
    "pipelines/release.py": 3,
    "pipelines/queries.py": 7,
    "sources/bloomskip.py": 1,
    "sources/bucketed.py": 1,
    "sources/columnar.py": 1,
    "sources/inverted.py": 1,
    "sources/textio.py": 3,
    "sources/zonemap.py": 2,
    "stages/aggregate.py": 19,
    "stages/ann.py": 2,
    "stages/balance.py": 3,
    "stages/bloomjoin.py": 2,
    "stages/bm25.py": 1,
    "stages/bpe.py": 1,
    "stages/cc.py": 1,
    "stages/chunk.py": 1,
    "stages/coreset.py": 2,
    "stages/datacard.py": 1,
    "stages/decontam.py": 2,
    "stages/dedup.py": 2,
    "stages/delta.py": 1,
    "stages/editdist.py": 2,
    "stages/embed_lsh.py": 2,
    "stages/funnel.py": 1,
    "stages/gates.py": 15,
    "stages/hierarchy.py": 1,
    "stages/invariants.py": 1,
    "stages/joins.py": 13,
    "stages/kcore.py": 2,
    "stages/kmeans.py": 2,
    "stages/linkage.py": 1,
    "stages/locality.py": 1,
    "stages/msf.py": 2,
    "stages/packing.py": 1,
    "stages/pagerank.py": 1,
    "stages/sample.py": 3,
    "stages/sessions.py": 12,
    "stages/sketch.py": 6,
    "stages/skyline.py": 1,
    "stages/store.py": 1,
    "stages/suffixarray.py": 1,
    "stages/tfidf.py": 1,
    "stages/topics.py": 1,
    "stages/vecagg.py": 6,
    "stages/watermark.py": 2,
    "stages/winnow.py": 1,
    "stages/wordcount.py": 1,
}


def _count_sites():
    counts: dict[str, int] = {}
    pkg = os.path.join(REPO, "fastcdc_rs_ray")
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        rel = os.path.relpath(path, pkg)
        n = 0
        with open(path) as fh:
            for line in fh:
                if "iter_batches" in line and "batch_size=None" not in line:
                    n += 1
        if n:
            counts[rel] = n
    return counts


def test_every_iter_batches_site_is_audited():
    got = _count_sites()
    new = {f: n for f, n in got.items() if f not in AUDITED}
    assert not new, (
        f"unclassified iter_batches sites {new}: classify them in "
        "docs/ITER_BATCHES_AUDIT.md (safe pattern A-F or fix with "
        "batch_size=None / concat-then-reduce), then update AUDITED")
    changed = {f: (AUDITED[f], got.get(f, 0))
               for f in AUDITED if got.get(f, 0) != AUDITED[f]}
    assert not changed, (
        f"iter_batches site counts changed {changed} (expected, got): "
        "re-audit the file against docs/ITER_BATCHES_AUDIT.md and "
        "update both")


def test_no_fancy_index_augmented_merge_in_batch_loops():
    """The literal bug signature: numpy fancy-index `+=` with an integer
    index ARRAY inside an iter_batches consumer drops duplicate indices.
    np.add.at, boolean masks, scalars, and dict accumulators are fine —
    this scans a narrow window after each iter_batches loop header for
    `x[ivar] += ...` where ivar is a bare name also read from a batch
    column via to_numpy in the same window (the vecagg.py:370 shape)."""
    pkg = os.path.join(REPO, "fastcdc_rs_ray")
    hits = []
    pat = re.compile(r"^\s*(\w+)\[(\w+)\]\s*\+=")
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        lines = open(path).read().splitlines()
        for i, line in enumerate(lines):
            if "iter_batches" not in line or "batch_size=None" in line:
                continue
            window = lines[i:i + 15]
            numpy_vars = set()
            for w in window:
                m = re.search(r"(\w+)\s*=\s*\w+\[\"\w+\"\].*to_numpy", w)
                if m:
                    numpy_vars.add(m.group(1))
            for j, w in enumerate(window):
                m = pat.match(w)
                if m and m.group(2) in numpy_vars:
                    hits.append(f"{path}:{i + j + 1}: {w.strip()}")
    assert not hits, (
        "possible fancy-index += merges over batch-derived index arrays "
        f"(the embed_outliers bug class): {hits} — use np.add.at")
