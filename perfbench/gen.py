"""Input generator and reference answers for the benchmark.

One process, no Ray, no threads of its own.  Everything is a function of
the workload name and the seed; outputs are cached under the benchmark's
work directory, keyed by workload, seed and a digest of the parameters.

Rebuild one workload's inputs and expected answers from scratch::

    python3 perfbench/gen.py --workload flagship_auto --seed 1 --rebuild

Flagship corpora (``flagship_auto``, ``flagship_resumable``) are
conversations in the engine's transcript schema.  A share of them belong
to planted near-duplicate families: a base conversation plus variants
made by controlled edits (exact copy, a few word substitutions, one turn
replaced, dropped or appended, or half the turns rewritten).  Every other
conversation is independent random text.  The reference answers are the
family of each conversation, the exact chunk-shingle Jaccard of every
within-family pair (computed with :mod:`cdc_ref`), and the expected chunk
rows of a sample of payloads.

``registry_floor`` gets a ``documents`` table and a ``lineitem`` table whose co-purchase graph has a dense core
and a sparse fringe, plus each selected registry entry's expected result
computed by DuckDB (:mod:`oracles`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cdc_ref  # noqa: E402
import oracles  # noqa: E402
from checks import HIGH_J  # noqa: E402

VERSION = 3

VOCAB = (
    "river stone cloud amber signal harbor lantern meadow copper violet "
    "engine pocket thunder marble orbit canyon willow falcon ember quartz "
    "garden basket velvet summit glacier parcel tunnel beacon ribbon cinder "
    "harvest island jungle kettle ladder mirror needle oyster pepper quiver "
    "rocket saddle timber umbrella vessel walnut yonder zephyr anchor bridge "
    "candle dragon feather goblet hammer igloo jacket kitten lemon magnet "
    "nectar olive pillow quarry raven shadow tiger utopia valley wagon "
    "yellow zigzag acorn bubble cactus dolphin eclipse fossil guitar hollow "
    "inkwell jigsaw kayak lotus meteor nomad onion puzzle quill ripple "
    "sprout thistle urchin vortex whistle xenon yarrow zenith arch bloom "
    "crest dune ferry grove haze inlet jade knot loom mist nook opal pine "
    "quay reef sage tide vale wren yak zinc alloy brisk chord drift flint "
    "gleam husk ivory jolt kiln lilac moss nimbus ochre plume rustic slate "
    "tulip umber verge wisp yeast zest agent token batch stream shard query "
    "index vector tensor kernel buffer socket thread cursor schema record"
).split()

WORKLOADS = {
    # conversations, share in families, family sizes, files
    "flagship_auto": dict(kind="corpus", n_convs=8000, fam_share=0.4,
                          fam_lo=2, fam_hi=6, n_files=8),
    "flagship_resumable": dict(kind="corpus", n_convs=3000, fam_share=0.4,
                               fam_lo=2, fam_hi=6, n_files=4),
    "registry_floor": dict(kind="registry", n_docs=500,
                           core_parts=50, core_orders=600, fringe_orders=400),
}
CORPUS_SHAPE = dict(turns_lo=8, turns_hi=16, words_lo=40, words_hi=140)
N_SAMPLE = 40
_ROLES = ("user", "assistant", "tool")
_EPOCH_US = 1_700_000_000_000_000


def params_for(workload: str) -> dict:
    p = dict(WORKLOADS[workload])
    if p["kind"] == "corpus":
        p.update(CORPUS_SHAPE)
    p["version"] = VERSION
    return p


def cache_dir(work_dir: str, workload: str, seed: int) -> str:
    digest = hashlib.sha256(
        json.dumps(params_for(workload), sort_keys=True).encode()).hexdigest()[:12]
    return os.path.join(work_dir, "cache", f"{workload}-s{seed}-{digest}")


def ensure_inputs(work_dir: str, workload: str, seed: int,
                  rebuild: bool = False) -> str:
    """Directory holding the workload's inputs and reference answers;
    generated unless a complete cached copy exists."""
    out = cache_dir(work_dir, workload, seed)
    if rebuild and os.path.exists(out):
        shutil.rmtree(out)
    if os.path.exists(os.path.join(out, "meta.json")):
        return out
    tmp = out + ".tmp"
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp)
    p = params_for(workload)
    if p["kind"] == "corpus":
        meta = _gen_corpus(tmp, seed, p)
    else:
        meta = _gen_registry(tmp, seed, p)
    meta.update(workload=workload, seed=seed, params=p)
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    if os.path.exists(out):
        shutil.rmtree(out)
    os.replace(tmp, out)
    return out


# --------------------------------------------------------------------------
# flagship corpora
# --------------------------------------------------------------------------


def _words(rng, n_lo, n_hi):
    return rng.integers(0, len(VOCAB), int(rng.integers(n_lo, n_hi + 1)))


def _conversation(rng, p):
    n_turns = int(rng.integers(p["turns_lo"], p["turns_hi"] + 1))
    return [_words(rng, p["words_lo"], p["words_hi"]) for _ in range(n_turns)]


def _variant(rng, base, p):
    """An edited copy of ``base`` (a list of word-id arrays)."""
    conv = [t.copy() for t in base]
    kind = int(rng.choice(6, p=[0.15, 0.35, 0.2, 0.1, 0.1, 0.1]))
    if kind == 1:  # a few word substitutions in one turn
        t = conv[int(rng.integers(len(conv)))]
        for _ in range(int(rng.integers(1, 5))):
            t[int(rng.integers(len(t)))] = int(rng.integers(len(VOCAB)))
    elif kind == 2:  # one turn replaced
        conv[int(rng.integers(len(conv)))] = _words(rng, p["words_lo"], p["words_hi"])
    elif kind == 3 and len(conv) > 2:  # one turn dropped
        conv.pop(int(rng.integers(len(conv))))
    elif kind == 4:  # one turn appended
        conv.append(_words(rng, p["words_lo"], p["words_hi"]))
    elif kind == 5:  # about half the turns rewritten
        for i in rng.choice(len(conv), size=(len(conv) + 1) // 2, replace=False):
            conv[int(i)] = _words(rng, p["words_lo"], p["words_hi"])
    return conv


def _texts(turns: list[np.ndarray]) -> pa.Array:
    vocab = pa.array(VOCAB, pa.string())
    counts = np.fromiter((len(t) for t in turns), np.int64, len(turns))
    flat = np.concatenate(turns) if turns else np.empty(0, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int64()),
                                   vocab.take(pa.array(flat, pa.int64())))
    return pc.binary_join(lst, " ")


def _gen_corpus(out: str, seed: int, p: dict) -> dict:
    rng = np.random.default_rng([seed, 1])
    n = p["n_convs"]
    convs: list[list[np.ndarray]] = []
    family: list[int] = []
    fam_target = int(n * p["fam_share"])
    f = 0
    while len(convs) < fam_target:
        size = min(int(rng.integers(p["fam_lo"], p["fam_hi"] + 1)),
                   max(2, fam_target - len(convs)))
        base = _conversation(rng, p)
        convs.append(base)
        family.append(f)
        for _ in range(size - 1):
            convs.append(_variant(rng, base, p))
            family.append(f)
        f += 1
    # independent conversations, drawn in bulk
    k = n - len(convs)
    n_turns = rng.integers(p["turns_lo"], p["turns_hi"] + 1, k)
    n_words = rng.integers(p["words_lo"], p["words_hi"] + 1, int(n_turns.sum()))
    turns = np.split(rng.integers(0, len(VOCAB), int(n_words.sum())), np.cumsum(n_words)[:-1])
    t_bounds = np.concatenate([[0], np.cumsum(n_turns)])
    convs += [turns[t_bounds[i]:t_bounds[i + 1]] for i in range(k)]
    family += [-1] * k
    n = len(convs)
    family_arr = np.asarray(family, np.int64)
    # ids and file order carry no trace of the family structure
    perm = rng.permutation(n)
    conv_ids = np.array([f"conv-{i:07d}" for i in range(n)], dtype=object)
    id_of = np.empty(n, dtype=object)
    id_of[perm] = conv_ids

    turn_counts = np.fromiter((len(c) for c in convs), np.int64, n)
    order = np.argsort(perm)  # write conversations in id order
    turns = [t for ci in order for t in convs[ci]]
    texts = _texts(turns)
    cnt = turn_counts[order]
    conv_col = np.repeat(id_of[order], cnt)
    turn_idx = (np.arange(len(turns)) - np.repeat(np.cumsum(cnt) - cnt, cnt)).astype(np.int32)
    roles = np.array(_ROLES)[turn_idx % 3]
    ts = (_EPOCH_US + np.repeat(np.arange(n, dtype=np.int64), cnt) * 60_000_000
          + turn_idx.astype(np.int64) * 1_000_000).astype("datetime64[us]")
    table = pa.table({
        "conv_id": pa.array(conv_col, pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": texts,
        "tool": pa.array(np.where(roles == "tool", "lookup", ""), pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    corpus = os.path.join(out, "corpus")
    os.makedirs(corpus)
    bounds = np.linspace(0, n, p["n_files"] + 1).astype(np.int64)
    row_bounds = np.concatenate([[0], np.cumsum(cnt)])[bounds]
    for i in range(p["n_files"]):
        lo, hi = int(row_bounds[i]), int(row_bounds[i + 1])
        pq.write_table(table.slice(lo, hi - lo),
                       os.path.join(corpus, f"part-{i:03d}.parquet"))

    # payload bytes = the conversation's turn texts concatenated in order
    text_bytes = texts.buffers()[2].to_pybytes()
    t_off = np.frombuffer(texts.buffers()[1], np.int32)[: len(turns) + 1]
    conv_row0 = np.concatenate([[0], np.cumsum(cnt)])
    pos_of = np.empty(n, np.int64)
    pos_of[order] = np.arange(n)

    def payload(ci: int) -> bytes:
        k = pos_of[ci]
        return text_bytes[t_off[conv_row0[k]]:t_off[conv_row0[k + 1]]]

    members = np.flatnonzero(family_arr >= 0)
    sh = {int(ci): cdc_ref.shingles(h for _o, _l, h in cdc_ref.chunk_scalar(payload(int(ci))))
          for ci in members}
    pa_, pb_, pj = [], [], []
    by_fam: dict[int, list[int]] = {}
    for ci in members:
        by_fam.setdefault(int(family_arr[ci]), []).append(int(ci))
    for mem in by_fam.values():
        for i in range(len(mem)):
            for k in range(i + 1, len(mem)):
                a, b = mem[i], mem[k]
                pa_.append(id_of[a])
                pb_.append(id_of[b])
                pj.append(cdc_ref.jaccard(sh[a], sh[b]))
    pq.write_table(pa.table({
        "a": pa.array(pa_, pa.string()), "b": pa.array(pb_, pa.string()),
        "jaccard": pa.array(pj, pa.float64())}), os.path.join(out, "pairs.parquet"))
    pq.write_table(pa.table({
        "conv_id": pa.array(id_of, pa.string()),
        "family": pa.array(family_arr, pa.int64())}),
        os.path.join(out, "families.parquet"))

    # kernel sample: half family members, half independent conversations
    singles = np.flatnonzero(family_arr < 0)
    pick = np.concatenate([
        rng.choice(members, size=min(N_SAMPLE // 2, len(members)), replace=False),
        rng.choice(singles, size=min(N_SAMPLE // 2, len(singles)), replace=False)])
    sample_pays = [payload(int(ci)) for ci in pick]
    pq.write_table(pa.table({
        "conv_id": pa.array(id_of[pick], pa.string()),
        "payload": pa.array(sample_pays, pa.large_binary())}),
        os.path.join(out, "sample_payloads.parquet"))
    ec = {"conv_id": [], "chunk_idx": [], "offset": [], "length": [], "hash": []}
    for ci, pay in zip(id_of[pick], sample_pays):
        for i, (o, ln, h) in enumerate(cdc_ref.chunk_scalar(pay)):
            ec["conv_id"].append(ci)
            ec["chunk_idx"].append(i)
            ec["offset"].append(o)
            ec["length"].append(ln)
            ec["hash"].append(h)
    pq.write_table(pa.table({
        "conv_id": pa.array(ec["conv_id"], pa.string()),
        "chunk_idx": pa.array(ec["chunk_idx"], pa.int32()),
        "offset": pa.array(ec["offset"], pa.int64()),
        "length": pa.array(ec["length"], pa.int64()),
        "hash": pa.array(ec["hash"], pa.uint64())}),
        os.path.join(out, "expected_chunks.parquet"))
    pj_arr = np.asarray(pj)
    return {
        "n_convs": int(n), "n_turns": int(len(turns)),
        "n_bytes": int(len(text_bytes)), "n_families": len(by_fam),
        "n_pairs": int(len(pj_arr)),
        "n_pairs_high": int((pj_arr >= HIGH_J).sum()),
        "n_pairs_below_half": int((pj_arr < 0.5).sum()),
    }


# --------------------------------------------------------------------------
# registry tables
# --------------------------------------------------------------------------


# curation mix of the registry's documents: each kind meets or breaks one
# part of the curate rule (oracles.CURATED_COUNT)
_DOC_KINDS = ("english", "no_stopwords", "short", "punctuated", "german", "copy")
_DOC_KIND_P = (0.6, 0.08, 0.08, 0.08, 0.08, 0.08)
_EN_STOP = ("the", "and", "of", "to", "with", "in", "for")
_DE_STOP = ("der", "die", "und", "von", "mit")


def _documents(rng, n_docs: int) -> pa.Table:
    """``documents`` rows (doc_id, text, lang, source): mostly English-like
    text of 10-60 words with 0-25% English stopwords, plus documents with
    no stopword, fewer than 10 words, heavy punctuation, German stopwords,
    or the text of an earlier document."""
    texts: list[str] = []
    for _ in range(n_docs):
        kind = _DOC_KINDS[int(rng.choice(len(_DOC_KINDS), p=_DOC_KIND_P))]
        if kind == "copy" and texts:
            texts.append(texts[int(rng.integers(len(texts)))])
            continue
        lo, hi = (3, 9) if kind == "short" else (10, 60)
        words = [VOCAB[i] for i in _words(rng, lo, hi)]
        stops = {"no_stopwords": (), "german": _DE_STOP}.get(kind, _EN_STOP)
        rate = rng.uniform(0.0, 0.25) if kind != "german" else 0.3
        if stops:
            for i in np.flatnonzero(rng.random(len(words)) < rate):
                words[i] = stops[int(rng.integers(len(stops)))]
            if kind == "german":  # one English stopword, outnumbered
                words[0] = _EN_STOP[0]
        sep = "!! " if kind == "punctuated" else " "
        texts.append(sep.join(words) + ".")
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(rng.choice(["en", "de", "fr"], n_docs), pa.string()),
        "source": pa.array(rng.choice(["web", "books", "code"], n_docs), pa.string())})


def _gen_registry(out: str, seed: int, p: dict) -> dict:
    rng = np.random.default_rng([seed, 2])
    n_docs = p["n_docs"]
    pq.write_table(_documents(rng, n_docs), os.path.join(out, "documents.parquet"))

    # co-purchase graph: dense core orders (every core part keeps well over
    # k=30 distinct core neighbours) plus fringe orders that attach
    # low-degree parts to one core part each, so k-core peeling removes the
    # fringe in one round and then settles
    ok, pk, ln = [], [], []
    core = np.arange(1, p["core_parts"] + 1)
    order_key = 1
    for _ in range(p["core_orders"]):
        for line, part in enumerate(rng.choice(core, size=5, replace=False)):
            ok.append(order_key)
            pk.append(int(part))
            ln.append(line + 1)
        order_key += 1
    fringe = rng.permutation(np.arange(1000, 1000 + 2 * p["fringe_orders"]))
    for i in range(p["fringe_orders"]):
        parts = [int(rng.choice(core)), int(fringe[2 * i]), int(fringe[2 * i + 1])]
        for line, part in enumerate(rng.permutation(parts)):
            ok.append(order_key)
            pk.append(int(part))
            ln.append(line + 1)
        order_key += 1
    perm = rng.permutation(len(ok))
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.asarray(ok)[perm], pa.int64()),
        "l_partkey": pa.array(np.asarray(pk)[perm], pa.int64()),
        "l_linenumber": pa.array(np.asarray(ln)[perm], pa.int32())}),
        os.path.join(out, "lineitem.parquet"))

    meta = oracles.write_expected(out)
    return meta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".work"))
    ap.add_argument("--rebuild", action="store_true",
                    help="discard the cached copy and generate again")
    a = ap.parse_args()
    out = ensure_inputs(a.work_dir, a.workload, a.seed, rebuild=a.rebuild)
    with open(os.path.join(out, "meta.json")) as f:
        print(out)
        print(f.read())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
