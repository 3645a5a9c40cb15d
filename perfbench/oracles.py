"""DuckDB answers for the registry entries ``registry_floor`` runs.

Written from each entry's documented meaning, apart from the engine's own
oracle SQL.  Results are compared the way the engine's query gate does:
row count plus an order-insensitive hash of the rows (columns sorted by
name, floats to 9 significant digits).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow.parquet as pq

# registry entries in the timed operation: one that pays a single Dataset
# execution, a graph exchange arm, and ten broadcast PageRank rounds
ENTRIES = ("transcripts", "part_kcore_x", "part_pagerank")
# run once per traced run only (``pipelines.release``, about 40 s a call)
TRACED_ENTRIES = ("curation_release",)
KCORE_K = 30
PAGERANK_ITERS, PAGERANK_DAMPING_PCT, PAGERANK_SCALE = 10, 85, 10**12

# documents -> transcripts: document d is turn d % 4 of conversation d // 4
# (roles cycle user, assistant, tool; tool rows carry 'lookup'; ts is a
# fixed epoch plus d seconds).  Every tenth conversation has a twin one
# second later holding its first three turns, or all four when the
# conversation number is a multiple of twenty.
_TURN = """
  CAST(doc_id % 4 AS INTEGER) AS turn_idx,
  ['user', 'assistant', 'tool'][doc_id % 4 % 3 + 1] AS role,
  text,
  CASE WHEN doc_id % 4 % 3 = 2 THEN 'lookup' ELSE '' END AS tool"""
TRANSCRIPTS = f"""
SELECT printf('conv-%08d', doc_id // 4) AS conv_id, {_TURN},
       make_timestamp(1700000000000000 + doc_id * 1000000) AS ts
FROM documents
UNION ALL
SELECT printf('twin-%08d', doc_id // 4) AS conv_id, {_TURN},
       make_timestamp(1700000000000000 + doc_id * 1000000 + 1000000) AS ts
FROM documents
WHERE (doc_id // 4) % 10 = 0 AND (doc_id % 4 < 3 OR (doc_id // 4) % 20 = 0)
"""

# consecutive lines of one order (by line number, then part) are co-purchase
# edges; the k-core is peeled below with one statement per round
KCORE_EDGES = """
CREATE OR REPLACE TEMP TABLE kc_e AS
SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b FROM (
  SELECT l_partkey AS src,
         lead(l_partkey) OVER (PARTITION BY l_orderkey
                               ORDER BY l_linenumber, l_partkey) AS dst
  FROM lineitem) WHERE dst IS NOT NULL AND src <> dst
"""
KCORE_ALIVE = "CREATE OR REPLACE TEMP TABLE kc_v AS SELECT a AS v FROM kc_e UNION SELECT b FROM kc_e"
KCORE_PEEL = f"""
DELETE FROM kc_v WHERE v NOT IN (
  SELECT x.v FROM (SELECT a AS v, b AS w FROM kc_e UNION ALL SELECT b, a FROM kc_e) x
  WHERE x.v IN (SELECT v FROM kc_v) AND x.w IN (SELECT v FROM kc_v)
  GROUP BY x.v HAVING count(*) >= {KCORE_K})
"""


# integer PageRank over the directed co-purchase edges (duplicates kept):
# every node starts at SCALE // n; a round gives each node
# (SCALE * (100 - d) // 100) // n plus, per in-edge, the source's
# (d * rank) // (100 * out-degree).  Rounds are run one statement each.
PAGERANK_SETUP = (
    """CREATE OR REPLACE TEMP TABLE pr_e AS SELECT src, dst FROM (
  SELECT l_partkey AS src,
         lead(l_partkey) OVER (PARTITION BY l_orderkey
                               ORDER BY l_linenumber, l_partkey) AS dst
  FROM lineitem) WHERE dst IS NOT NULL""",
    "CREATE OR REPLACE TEMP TABLE pr_n AS SELECT src AS node FROM pr_e UNION SELECT dst FROM pr_e",
    "CREATE OR REPLACE TEMP TABLE pr_d AS SELECT src AS node, count(*) AS deg FROM pr_e GROUP BY src",
    f"""CREATE OR REPLACE TEMP TABLE pr_r AS
SELECT node, CAST({PAGERANK_SCALE} // (SELECT count(*) FROM pr_n) AS BIGINT) AS r FROM pr_n""",
)
PAGERANK_ROUND = f"""
CREATE OR REPLACE TEMP TABLE pr_r AS
SELECT n.node,
       CAST(({PAGERANK_SCALE} * (100 - {PAGERANK_DAMPING_PCT}) // 100)
            // (SELECT count(*) FROM pr_n) + coalesce(c.s, 0) AS BIGINT) AS r
FROM pr_n n LEFT JOIN (
  SELECT e.dst AS node, sum(({PAGERANK_DAMPING_PCT} * r.r) // (100 * d.deg)) AS s
  FROM pr_e e JOIN pr_r r ON r.node = e.src JOIN pr_d d ON d.node = e.src
  GROUP BY e.dst) c ON c.node = n.node
"""

# curate_docs' keep rule, restated: at least 10 whitespace tokens; the
# language with the most stopword tokens is English (ties go to the
# smaller language code; no stopword at all is undetermined); English
# stopwords are at least 1/20 of the tokens; the characters .,;:!? are at
# most 1/5 of the bytes.  Exact copies among the survivors count once.
STOPWORDS = {
    "de": ["das", "den", "der", "die", "ein", "ist", "mit", "nicht", "und", "von"],
    "en": ["and", "for", "in", "is", "it", "of", "that", "the", "to", "with"],
    "es": ["de", "del", "el", "en", "la", "las", "los", "por", "que", "y"],
    "fr": ["des", "est", "et", "la", "le", "les", "pour", "que", "un", "une"],
    "la": ["ad", "cum", "dolor", "est", "et", "in", "non", "qui", "sed", "ut"],
}
_LANGS = ", ".join(f"('{k}', {v})" for k, v in sorted(STOPWORDS.items()))
CURATED_COUNT = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[^ \t\n\r\f]+')) AS tok FROM documents
), sw AS (
  SELECT t.doc_id, l.lang, count(*) AS c
  FROM toks t JOIN (SELECT lang, unnest(words) AS w FROM (VALUES {_LANGS}) v(lang, words)) l
    ON t.tok = l.w
  GROUP BY t.doc_id, l.lang
), best AS (
  SELECT doc_id, lang FROM sw
  QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, lang) = 1
), stats AS (
  SELECT d.doc_id, d.text, strlen(d.text) AS n_chars,
         (SELECT count(*) FROM toks t WHERE t.doc_id = d.doc_id) AS n_words,
         strlen(d.text) - strlen(regexp_replace(d.text, '[.,;:!?]', '', 'g')) AS n_punct,
         coalesce((SELECT c FROM sw WHERE sw.doc_id = d.doc_id AND sw.lang = 'en'), 0) AS n_en
  FROM documents d
)
SELECT count(DISTINCT s.text) FROM stats s JOIN best b USING (doc_id)
WHERE b.lang = 'en' AND s.n_words >= 10 AND 20 * s.n_en >= s.n_words
  AND 5 * s.n_punct <= s.n_chars
"""
# the release's own conservation flags (representatives, split, packing,
# data card) are 1 when the chain conserves every document
RELEASE = """
SELECT CAST((SELECT count(*) FROM documents) AS BIGINT) AS n_docs_in,
       CAST(? AS BIGINT) AS n_curated,
       CAST(1 AS BIGINT) AS keep_conserved, CAST(1 AS BIGINT) AS split_conserved,
       CAST(1 AS BIGINT) AS pack_conserved, CAST(1 AS BIGINT) AS card_consistent
"""


def connect(inputs: str):
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "lineitem"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                    f"'{os.path.join(inputs, t + '.parquet')}')")
    return con


def kcore(con) -> tuple[object, int]:
    """(survivors as an Arrow table, peel rounds that removed a vertex)."""
    con.execute(KCORE_EDGES)
    con.execute(KCORE_ALIVE)
    rounds = 0
    while True:
        before = con.execute("SELECT count(*) FROM kc_v").fetchone()[0]
        con.execute(KCORE_PEEL)
        after = con.execute("SELECT count(*) FROM kc_v").fetchone()[0]
        if after == before:
            break
        rounds += 1
    return con.execute("SELECT v AS p_partkey FROM kc_v ORDER BY v").arrow(), rounds


def pagerank(con):
    """(node, rank_q) after the fixed number of rounds, as an Arrow table."""
    for stmt in PAGERANK_SETUP:
        con.execute(stmt)
    for _ in range(PAGERANK_ITERS):
        con.execute(PAGERANK_ROUND)
    return con.execute("SELECT node, r AS rank_q FROM pr_r ORDER BY node").arrow()


def write_expected(inputs: str) -> dict:
    """Write ``expected_<entry>.parquet`` next to the inputs; return facts
    the run reports (transcript turns, k-core size and peel depth,
    PageRank nodes, curated documents)."""
    con = connect(inputs)
    pq.write_table(con.execute(TRANSCRIPTS).arrow(),
                   os.path.join(inputs, "expected_transcripts.parquet"))
    members, rounds = kcore(con)
    pq.write_table(members, os.path.join(inputs, "expected_part_kcore_x.parquet"))
    ranks = pagerank(con)
    pq.write_table(ranks, os.path.join(inputs, "expected_part_pagerank.parquet"))
    curated = con.execute(CURATED_COUNT).fetchone()[0]
    pq.write_table(con.execute(RELEASE, [curated]).arrow(),
                   os.path.join(inputs, "expected_curation_release.parquet"))
    turns = con.execute(f"SELECT count(*) FROM ({TRANSCRIPTS})").fetchone()[0]
    con.close()
    return {"n_turns": int(turns), "kcore_members": members.num_rows,
            "kcore_peel_rounds": rounds, "pagerank_nodes": ranks.num_rows,
            "n_curated": int(curated)}


def _norm(v) -> str:
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def value_hash(table) -> tuple[int, str]:
    """(rows, order-insensitive hash) of an Arrow table."""
    cols = sorted(table.column_names)
    data = [table.column(c).to_pylist() for c in cols]
    rows = sorted("|".join(_norm(v) for v in r) for r in zip(*data))
    return len(rows), hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
