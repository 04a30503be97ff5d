"""Driver-checkable query implementations + their ANSI-SQL oracles.

Every pair here is run by the driver at sf=0.01: the Ray pipeline result
and the DuckDB result must match on row count, schema and value hash
(column names are aligned on BOTH sides; floats are rounded identically
before returning).  Non-SQL-expressible pipelines (full tokenizer,
ranking, LSH) are registered rows-only in __ray_entry__.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from search_engine_ray.ops.rounding import round_half_away
from search_engine_ray.text.stopwords import NLTK_ENGLISH_STOPWORDS


_TOKS_SQL = ("list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'),"
             " x -> x <> '')")
_MIN_MATCH_TERMS = ("spark", "join", "merge")
_STOP_SQL = "[" + ", ".join(f"'{w}'" for w in sorted(NLTK_ENGLISH_STOPWORDS)
                            if "'" not in w) + "]"
_STOP_SET = frozenset(w for w in NLTK_ENGLISH_STOPWORDS if "'" not in w)


# ------------------------------------------------------------------ doc stats
def q_doc_token_stats(sf_dir: str):
    import ray.data

    from search_engine_ray.ops.textstats import doc_token_stats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(doc_token_stats, batch_format="pyarrow")


SQL_DOC_TOKEN_STATS = f"""
SELECT doc_id,
       length(text) AS n_chars,
       len({_TOKS_SQL}) AS n_tokens
FROM documents
"""


def q_bpe_token_stats(sf_dir: str):
    import ray.data

    from search_engine_ray.ops.textstats import bpe_token_stats

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(bpe_token_stats, batch_format="pyarrow")


def _sql_quote(s: str) -> str:
    return "'" + s.replace("'", "''") + "'"


def _bpe_sql() -> str:
    from search_engine_ray.ops.textstats import _BPE_PAT_SRC

    return f"""
SELECT doc_id,
       len(regexp_extract_all(lower(text), {_sql_quote(_BPE_PAT_SRC)}))
           AS n_bpe_tokens
FROM documents
"""


SQL_BPE_TOKEN_STATS = _bpe_sql()


def q_quality_counts(sf_dir: str):
    """Integer quality-feature counts (ratios derive from these; integers
    hash exactly)."""
    import ray.data

    from search_engine_ray.text.tokenizer import simple_tokenize

    def counts(batch: pa.Table) -> pa.Table:
        import re

        dig = re.compile(r"[0-9]")
        n_tok, n_stop, n_digit, sum_len = [], [], [], []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)
            n_tok.append(len(ts))
            n_stop.append(sum(1 for x in ts if x in _STOP_SET))
            n_digit.append(sum(1 for x in ts if dig.search(x)))
            sum_len.append(sum(len(x) for x in ts))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_stopword_tokens": pa.array(n_stop, pa.int64()),
            "n_digit_tokens": pa.array(n_digit, pa.int64()),
            "sum_token_len": pa.array(sum_len, pa.int64()),
        })

    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(counts, batch_format="pyarrow")


SQL_QUALITY_COUNTS = f"""
WITH toks AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents)
SELECT doc_id,
       len(ts) AS n_tokens,
       len(list_filter(ts, x -> list_contains({_STOP_SQL}, x)))
           AS n_stopword_tokens,
       len(list_filter(ts, x -> regexp_matches(x, '[0-9]')))
           AS n_digit_tokens,
       coalesce(list_sum(list_transform(ts, x -> length(x))), 0)::BIGINT
           AS sum_token_len
FROM toks
"""


# --------------------------------------------------------------------- terms
def q_term_df(sf_dir: str):
    from search_engine_ray.ops.textstats import term_df_simple

    return term_df_simple(sf_dir)


SQL_TERM_DF = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_TOKS_SQL})) AS term FROM documents)
SELECT term, count(*) AS df FROM toks GROUP BY term HAVING count(*) > 1
"""


def q_top_terms(sf_dir: str):
    from search_engine_ray.ops.textstats import top_terms_simple

    return top_terms_simple(sf_dir, k=100)


SQL_TOP_TERMS = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_TOKS_SQL})) AS term FROM documents),
df AS (SELECT term, count(*) AS df FROM toks GROUP BY term
       HAVING count(*) > 1)
SELECT term, df FROM df ORDER BY df DESC, term ASC LIMIT 100
"""


def q_token_count_total(sf_dir: str):
    from search_engine_ray.ops.textstats import token_count_total

    return token_count_total(sf_dir)


SQL_TOKEN_COUNT_TOTAL = f"""
SELECT coalesce(sum(len({_TOKS_SQL})), 0)::BIGINT AS total_tokens
FROM documents
"""


def q_min_match(sf_dir: str):
    """Docs containing >= 2 distinct terms of the fixed query set — the
    reference's min-match relevance gate (searcher.py:67-68) expressed
    standalone and SQL-checkably."""
    import ray.data

    from search_engine_ray.text.tokenizer import simple_tokenize

    terms = frozenset(_MIN_MATCH_TERMS)

    def match(batch: pa.Table) -> pa.Table:
        ids, nm = [], []
        for did, t in zip(batch.column("doc_id").to_pylist(),
                          batch.column("text").to_pylist()):
            n = len(terms & set(simple_tokenize(t)))
            if n >= 2:
                ids.append(did)
                nm.append(n)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_match": pa.array(nm, pa.int64())})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(match, batch_format="pyarrow")


_terms_sql = ", ".join(f"'{t}'" for t in _MIN_MATCH_TERMS)
SQL_MIN_MATCH = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_TOKS_SQL})) AS term FROM documents),
m AS (SELECT doc_id, count(*) AS n_match FROM toks
      WHERE term IN ({_terms_sql}) GROUP BY doc_id)
SELECT doc_id, n_match FROM m WHERE n_match >= 2
"""


# --------------------------------------------------------------------- dedup
def q_exact_dedup(sf_dir: str):
    from search_engine_ray.ops.dedup import exact_dedup

    return exact_dedup(sf_dir)


SQL_EXACT_DEDUP = """
SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
"""


def q_dup_rate_per_source(sf_dir: str):
    """Exact-duplicate pressure per source (fingerprint shuffle; the
    128-bit fp makes count-distinct collisions negligible at any
    corpus size)."""
    from search_engine_ray.ops.dedup import dup_rate_per_source

    return dup_rate_per_source(sf_dir)


SQL_DUP_RATE_PER_SOURCE = """
SELECT source,
       count(*) AS n_docs,
       count(DISTINCT text) AS n_distinct,
       count(*) - count(DISTINCT text) AS n_dup
FROM documents GROUP BY source ORDER BY source
"""


def q_lang_counts(sf_dir: str):
    from search_engine_ray.ops.textstats import lang_counts

    return lang_counts(sf_dir)


SQL_LANG_COUNTS = "SELECT lang, count(*) AS n FROM documents GROUP BY lang"


# ------------------------------------------------------------- bm25 in SQL
_BM25_QUERY_TERMS = ("spark", "join", "merge", "window", "batch")
_BM25_K1, _BM25_B = 1.2, 0.75


def q_bm25_topk(sf_dir: str, k: int = 20):
    """BM25 top-k over `documents` with the simple tokenizer — the whole
    scoring path (df, idf=log10(N/df), tf, dl, avgdl, k1/b normalization,
    (score desc, doc_id) ranking) value-checked against DuckDB SQL.
    Distributed shape: per-batch (doc,term,tf,dl) partials for the query
    terms only -> driver-side scoring of the (tiny) candidate set."""
    import os as _os

    import ray.data

    from search_engine_ray.text.tokenizer import simple_tokenize

    terms = set(_BM25_QUERY_TERMS)

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        d_ids, d_terms, d_tfs, d_dls = [], [], [], []
        stats_docs, stats_dl = 0, 0
        df_c = Counter()
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            ts = simple_tokenize(text)
            stats_docs += 1
            stats_dl += len(ts)
            c = Counter(ts)
            df_c.update(c.keys() & terms)
            for t in c.keys() & terms:
                d_ids.append(did)
                d_terms.append(t)
                d_tfs.append(c[t])
                d_dls.append(len(ts))
        # stats rows ride along (doc_id=-1)
        d_ids.append(-1)
        d_terms.append("\x00stats")
        d_tfs.append(stats_docs)
        d_dls.append(stats_dl)
        for t, n in df_c.items():
            d_ids.append(-2)
            d_terms.append(t)
            d_tfs.append(n)
            d_dls.append(0)
        return pa.table({
            "doc_id": pa.array(d_ids, pa.int64()),
            "term": pa.array(d_terms, pa.string()),
            "tf": pa.array(d_tfs, pa.int64()),
            "dl": pa.array(d_dls, pa.int64()),
        })

    ds = ray.data.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    t = ds.map_batches(partials, batch_format="pyarrow").to_arrow_refs()
    import ray as _ray

    rows = pa.concat_tables([_ray.get(r) for r in t]).to_pandas()
    stats = rows[rows["doc_id"] == -1]
    n_docs = int(stats["tf"].sum())
    avgdl = float(stats["dl"].sum()) / n_docs
    dfs = rows[rows["doc_id"] == -2].groupby("term")["tf"].sum()
    cand = rows[rows["doc_id"] >= 0].copy()
    idf = np.log10(n_docs / dfs)
    cand["contrib"] = (
        idf.reindex(cand["term"]).to_numpy()
        * cand["tf"].to_numpy() * (_BM25_K1 + 1)
        / (cand["tf"].to_numpy()
           + _BM25_K1 * (1 - _BM25_B + _BM25_B * cand["dl"].to_numpy()
                         / avgdl)))
    scores = cand.groupby("doc_id")["contrib"].sum().reset_index()
    scores = scores.sort_values(["contrib", "doc_id"],
                                ascending=[False, True]).head(k)
    return pa.table({
        "rank": pa.array(range(1, len(scores) + 1), pa.int64()),
        "doc_id": pa.array(scores["doc_id"].tolist(), pa.int64()),
        "score_e6": pa.array(
            round_half_away(scores["contrib"].to_numpy() * 1e6),
            pa.int64()),
    })


_bm25_terms_sql = ", ".join(f"'{t}'" for t in _BM25_QUERY_TERMS)
# the CTE chain shared by SQL_BM25_TOPK and the fusion mirrors
_BM25_CTES = f"""WITH toks AS (
  SELECT doc_id, unnest({_TOKS_SQL}) AS term FROM documents),
dl AS (SELECT doc_id, len({_TOKS_SQL}) AS dl FROM documents),
stats AS (SELECT count(*) AS n_docs,
                 sum(dl)::DOUBLE / count(*) AS avgdl FROM dl),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN ({_bm25_terms_sql}) GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM tf GROUP BY term),
contrib AS (
  SELECT tf.doc_id,
         log10(stats.n_docs / df.df) * tf.tf * ({_BM25_K1} + 1)
         / (tf.tf + {_BM25_K1} * (1 - {_BM25_B}
            + {_BM25_B} * dl.dl / stats.avgdl)) AS c
  FROM tf, stats
  JOIN df ON tf.term = df.term
  JOIN dl ON tf.doc_id = dl.doc_id),
scored AS (SELECT doc_id, sum(c) AS score FROM contrib GROUP BY doc_id),
ranked AS (SELECT doc_id, score,
                  row_number() OVER (ORDER BY score DESC, doc_id) AS rank
           FROM scored)"""

SQL_BM25_TOPK = f"""
{_BM25_CTES}
SELECT rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 20
"""


def q_hybrid_rrf(sf_dir: str, k: int = 10, rrf_k: int = 60):
    """Reciprocal-rank fusion of two retrieval signals — BM25 text
    relevance (top-20, the exact q_bm25_topk list) and a document
    quality prior (top-20 by n_chars desc) — the standard hybrid-search
    blend (Cormack et al. RRF): ``rrf = sum_lists 1/(60 + rank)``, here
    in exact integer e6 (``1000000 // (60 + rank)``) so the fused
    ranking is reduce-order-proof and SQL-hashable.  Docs on one list
    only get the other side as 0 — plain RRF over the union.

    Distributed shape: the BM25 side is the existing partials pipeline;
    the quality side is a per-batch local top-20 prefilter (each batch
    yields <= 20 candidate rows) merged once — nothing corpus-sized
    leaves the scan."""
    import os as _os

    import ray as _ray
    import ray.data

    bm = q_bm25_topk(sf_dir, k=20).to_pandas()

    ds = ray.data.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])

    def local_top(batch: pa.Table) -> pa.Table:
        d = batch.to_pandas().sort_values(
            ["n_chars", "doc_id"], ascending=[False, True]).head(20)
        return pa.Table.from_pandas(d, preserve_index=False)

    cand = pa.concat_tables(
        [r for r in (_ray.get(ref) for ref in
                     ds.map_batches(local_top, batch_format="pyarrow")
                     .to_arrow_refs()) if r.num_rows]).to_pandas()
    qual = cand.sort_values(["n_chars", "doc_id"],
                            ascending=[False, True]).head(20)
    qual = qual.assign(rank=np.arange(1, len(qual) + 1))

    contrib: dict[int, int] = {}
    for df_ in (bm[["doc_id", "rank"]], qual[["doc_id", "rank"]]):
        for did, r in zip(df_["doc_id"].astype(int),
                          df_["rank"].astype(int)):
            contrib[did] = contrib.get(did, 0) + 1_000_000 // (rrf_k + r)
    fused = sorted(contrib.items(), key=lambda x: (-x[1], x[0]))[:k]
    return pa.table({
        "rank": pa.array(range(1, len(fused) + 1), pa.int64()),
        "doc_id": pa.array([d for d, _ in fused], pa.int64()),
        "rrf_e6": pa.array([s for _, s in fused], pa.int64()),
    })


def q_bm25_diversified(sf_dir: str, k: int = 10, per_source: int = 2):
    """Result diversification: the BM25 top-20 list re-ranked with an
    at-most-``per_source`` cap per document source (the SERP rule that
    one site cannot fill the page).  Within a source docs keep their
    BM25 order; the capped survivors re-rank globally by (score desc,
    doc_id).  The source attach is a 20-row semi-join pushed into the
    scan (doc_id filter), not a corpus shuffle."""
    import os as _os

    import ray as _ray
    import ray.data

    bm = q_bm25_topk(sf_dir, k=20).to_pandas()
    want = set(bm["doc_id"].astype(int).tolist())

    ds = ray.data.read_parquet(_os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "source"])

    def pick(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(
            batch.column("doc_id"),
            value_set=pa.array(sorted(want), pa.int64())))

    src = pa.concat_tables(
        [r for r in (_ray.get(ref) for ref in
                     ds.map_batches(pick, batch_format="pyarrow")
                     .to_arrow_refs()) if r.num_rows]).to_pandas()
    m = bm.merge(src, on="doc_id").sort_values("rank")
    m["nsrc"] = m.groupby("source", sort=False).cumcount()
    kept = (m[m["nsrc"] < per_source]
            .sort_values(["score_e6", "doc_id"],
                         ascending=[False, True]).head(k))
    return pa.table({
        "rank": pa.array(range(1, len(kept) + 1), pa.int64()),
        "doc_id": pa.array(kept["doc_id"].astype(int).tolist(),
                           pa.int64()),
        "source": pa.array(kept["source"].astype(str).tolist(),
                           pa.string()),
        "score_e6": pa.array(kept["score_e6"].astype(int).tolist(),
                             pa.int64()),
    })


SQL_BM25_DIVERSIFIED = f"""
{_BM25_CTES},
bm AS (SELECT r.doc_id, r.rank,
              round(r.score * 1000000)::BIGINT AS score_e6, d.source
       FROM ranked r JOIN documents d ON r.doc_id = d.doc_id
       WHERE r.rank <= 20),
capped AS (SELECT doc_id, source, score_e6,
                  row_number() OVER (PARTITION BY source
                                     ORDER BY rank) AS nsrc
           FROM bm)
SELECT row_number() OVER (ORDER BY score_e6 DESC, doc_id) AS rank,
       doc_id, source, score_e6
FROM capped WHERE nsrc <= 2
QUALIFY rank <= 10
"""


SQL_HYBRID_RRF = f"""
{_BM25_CTES},
bm AS (SELECT doc_id, rank FROM ranked WHERE rank <= 20),
qual AS (SELECT doc_id,
                row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rank
         FROM documents QUALIFY rank <= 20),
u AS (SELECT doc_id, 1000000 // (60 + rank) AS c FROM bm
      UNION ALL
      SELECT doc_id, 1000000 // (60 + rank) AS c FROM qual),
fused AS (SELECT doc_id, sum(c)::BIGINT AS rrf_e6 FROM u GROUP BY doc_id)
SELECT row_number() OVER (ORDER BY rrf_e6 DESC, doc_id) AS rank,
       doc_id, rrf_e6
FROM fused QUALIFY rank <= 10
"""


# ----------------------------------------------------- embedding near-dups
def q_embedding_near_dups(sf_dir: str):
    """Value-checkable LSH near-dup pipeline: a deterministic ×2-scaled
    copy of every vector is unioned in (identical hyperplane signs →
    same LSH bucket, cosine 1.0 by construction), so the pipeline's
    output equals an exact all-pairs SQL oracle on the augmented table —
    LSH recall is exactly 1 for the pairs the oracle emits as long as the
    base corpus has no natural pair ≥ threshold (the fixture doesn't)."""
    from search_engine_ray.ops.dedup import embedding_near_dup_pairs

    ds = embedding_near_dup_pairs(sf_dir, augment_scaled=True)

    def scale(batch: pa.Table) -> pa.Table:
        c = round_half_away(
            np.asarray(batch.column("cosine").to_pylist(),
                       dtype=np.float64) * 1_000_000)
        batch = batch.drop_columns(["cosine"])
        return batch.append_column("cosine_e6", pa.array(c, pa.int64()))

    return ds.map_batches(scale, batch_format="pyarrow")


SQL_EMBEDDING_NEAR_DUPS = """
WITH aug AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000,
         list_transform(CAST(embedding AS DOUBLE[]), x -> x * 2)
  FROM embeddings),
pairs AS (
  SELECT x.vec_id AS a, y.vec_id AS b,
         list_cosine_similarity(x.e, y.e) AS cos
  FROM aug x JOIN aug y ON x.vec_id < y.vec_id)
SELECT a, b, round(cos * 1000000)::BIGINT AS cosine_e6
FROM pairs WHERE cos >= 0.95
"""


# -------------------------------------------- grouped top-k / sample / gate
def q_top_terms_per_lang(sf_dir: str):
    from search_engine_ray.ops.textstats import top_terms_per_lang

    return top_terms_per_lang(sf_dir, k=10)


SQL_TOP_TERMS_PER_LANG = f"""
WITH toks AS (SELECT lang, unnest({_TOKS_SQL}) AS term FROM documents),
counts AS (SELECT lang, term, count(*) AS n FROM toks GROUP BY lang, term),
ranked AS (SELECT lang, term, n,
                  row_number() OVER (PARTITION BY lang
                                     ORDER BY n DESC, term) AS rank
           FROM counts)
SELECT lang, term, n, rank FROM ranked WHERE rank <= 10
"""


def q_sample_mod(sf_dir: str):
    from search_engine_ray.ops.textstats import sample_mod

    return sample_mod(sf_dir, pct=10)


SQL_SAMPLE_MOD = """
SELECT doc_id FROM documents WHERE md5_number_lower(text) % 100 < 10
"""


def q_quality_filter(sf_dir: str):
    from search_engine_ray.ops.textstats import quality_filter_ids

    return quality_filter_ids(sf_dir)


SQL_QUALITY_FILTER = f"""
WITH t AS (SELECT doc_id, {_TOKS_SQL} AS toks FROM documents),
m AS (SELECT doc_id, len(toks) AS n_tokens,
             coalesce(list_sum(list_transform(toks, x -> length(x))), 0)
                 AS sum_len
      FROM t)
SELECT doc_id, n_tokens FROM m
WHERE n_tokens >= 30 AND sum_len >= 4 * n_tokens
"""


# ------------------------------------------------------- n-gram Jaccard
def q_ngram_jaccard(sf_dir: str):
    """Exact 3-gram-set Jaccard near-dups (threshold 0.6), e6-scaled."""
    from search_engine_ray.ops.dedup import ngram_jaccard_pairs

    ds = ngram_jaccard_pairs(sf_dir, threshold=0.6, ngram=3)

    def scale(batch: pa.Table) -> pa.Table:
        j = round_half_away(
            np.asarray(batch.column("jaccard").to_pylist(),
                       dtype=np.float64) * 1_000_000)
        batch = batch.drop_columns(["jaccard"])
        return batch.append_column("jaccard_e6", pa.array(j, pa.int64()))

    return ds.map_batches(scale, batch_format="pyarrow")


SQL_NGRAM_JACCARD = f"""
WITH tl AS (SELECT doc_id, {_TOKS_SQL} AS toks FROM documents),
toks AS (SELECT doc_id, unnest(toks) AS t,
                generate_subscripts(toks, 1) AS pos FROM tl),
grams AS (SELECT DISTINCT t1.doc_id,
                 t1.t || ' ' || t2.t || ' ' || t3.t AS g
          FROM toks t1
          JOIN toks t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
          JOIN toks t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2),
counts AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
          FROM grams x JOIN grams y
               ON x.g = y.g AND x.doc_id < y.doc_id
          GROUP BY 1, 2),
jac AS (SELECT a, b, i::DOUBLE / (ca.n + cb.n - i) AS j
        FROM inter JOIN counts ca ON ca.doc_id = a
        JOIN counts cb ON cb.doc_id = b)
SELECT a, b, round(j * 1000000)::BIGINT AS jaccard_e6
FROM jac WHERE j >= 0.6
"""


# ---------------------------------------------------- dedup apply (keep set)
def q_near_dup_keep(sf_dir: str):
    from search_engine_ray.ops.dedup import near_dup_keep_ids

    return near_dup_keep_ids(sf_dir, threshold=0.6)


# transitive closure by recursive CTE mirrors the distributed min-label
# propagation's fixpoint exactly (both converge to per-component minima)
# the recursive component-labelling chain shared by the near-dup keep
# and cluster-size mirrors
_NEARDUP_CTES = f"""WITH RECURSIVE
tl AS (SELECT doc_id, {_TOKS_SQL} AS toks FROM documents),
toks AS (SELECT doc_id, unnest(toks) AS t,
                generate_subscripts(toks, 1) AS pos FROM tl),
grams AS (SELECT DISTINCT t1.doc_id,
                 t1.t || ' ' || t2.t || ' ' || t3.t AS g
          FROM toks t1
          JOIN toks t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
          JOIN toks t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2),
counts AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
          FROM grams x JOIN grams y
               ON x.g = y.g AND x.doc_id < y.doc_id
          GROUP BY 1, 2),
pairs AS (SELECT a, b FROM inter
          JOIN counts ca ON ca.doc_id = a
          JOIN counts cb ON cb.doc_id = b
          WHERE i::DOUBLE / (ca.n + cb.n - i) >= 0.6),
und AS (SELECT a AS x, b AS y FROM pairs
        UNION ALL SELECT b, a FROM pairs),
walk(x, r) AS (
  SELECT x, x FROM (SELECT DISTINCT x FROM und)
  UNION
  SELECT u.x, w.r FROM und u JOIN walk w ON w.x = u.y),
roots AS (SELECT x, min(r) AS root FROM walk GROUP BY x)"""

SQL_NEAR_DUP_KEEP = f"""
{_NEARDUP_CTES}
SELECT d.doc_id FROM documents d
LEFT JOIN roots ON d.doc_id = roots.x
WHERE roots.x IS NULL OR roots.root = d.doc_id
"""


def q_near_dup_cluster_sizes(sf_dir: str):
    from search_engine_ray.ops.dedup import near_dup_cluster_sizes

    return near_dup_cluster_sizes(sf_dir)


SQL_NEAR_DUP_CLUSTER_SIZES = f"""
{_NEARDUP_CTES},
sizes AS (SELECT root, count(*)::BIGINT AS size FROM roots GROUP BY root),
alln AS (SELECT size FROM sizes
         UNION ALL
         SELECT 1::BIGINT AS size FROM documents d
         LEFT JOIN roots ON d.doc_id = roots.x WHERE roots.x IS NULL)
SELECT size, count(*)::BIGINT AS n_clusters FROM alln GROUP BY size
"""


# ------------------------------------------------ clean-corpus engine checks
# The REAL build+search path (adapter -> wrap_html -> extract -> Parser ->
# SPIMI shuffle -> postings -> SearchEngine) is value-checked end-to-end by
# running it over a CLEANED corpus: only purely-alphabetic simple tokens
# survive, none of which trigger the parser's non-SQL-expressible handlers
# (numbers, percent, kbm shorthand, https splice, capitals/entities are
# impossible on lowercase alpha text).  On that input the full pipeline's
# semantics collapse to: stopword filter -> df -> df>=2 prune -> BM25 —
# exactly expressible in DuckDB SQL.
_CLEAN_DROP = ("https", "http", "percent", "percentage")
# parser stopwords reachable from pure-alpha tokens: the NLTK list minus
# apostrophe'd entries, plus the reference extension's "rt"
_CLEAN_STOP_SQL = "[" + ", ".join(
    f"'{w}'" for w in sorted(set(_STOP_SET) | {"rt"} | set(_CLEAN_DROP))) + "]"
_CLEAN_TOKS_SQL = (
    "list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), "
    f"t -> regexp_matches(t, '^[a-z]+$') AND NOT list_contains("
    f"{_CLEAN_STOP_SQL}, t))")

_CLEAN_IDX_CACHE: dict[str, tuple[str, dict[int, int]]] = {}


def _clean_text(text: str) -> str:
    from search_engine_ray.text.tokenizer import simple_tokenize

    return " ".join(t for t in simple_tokenize(text)
                    if t.isalpha() and t not in _CLEAN_DROP)


def _clean_index(sf_dir: str) -> tuple[str, dict[int, int]]:
    """Build (once per process per sf_dir) the real index over the cleaned
    corpus; returns (index_dir, hashed-doc-id -> original-doc-id map).

    The id map exists because the engine keys docs by blake2(url)
    (ids.py) which SQL cannot compute; it is check-scale-only state (the
    driver gate runs at sf<=0.1) — production consumers keep hashed ids."""
    import hashlib as _h
    import tempfile

    import pyarrow.dataset as pads
    import ray.data

    from search_engine_ray.adapters import documents_batch_to_pages
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.index.build import build_index

    key = os.path.abspath(sf_dir)
    if key in _CLEAN_IDX_CACHE:
        return _CLEAN_IDX_CACHE[key]
    tag = _h.blake2b(key.encode(), digest_size=6).hexdigest()
    base = os.path.join(tempfile.gettempdir(), f"se_ray_cleanidx_{tag}")
    pages = os.path.join(base, "pages")
    index = os.path.join(base, "index")

    def clean_pages(batch: pa.Table) -> pa.Table:
        texts = [_clean_text(x) for x in batch.column("text").to_pylist()]
        batch = batch.drop_columns(["text"]).append_column(
            "text", pa.array(texts, pa.string()))
        return documents_batch_to_pages(batch)

    if not os.path.exists(os.path.join(pages, "_DONE")):
        os.makedirs(pages, exist_ok=True)
        (ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
         .map_batches(clean_pages, batch_format="pyarrow")
         .write_parquet(pages))
        open(os.path.join(pages, "_DONE"), "w").close()
    build_index(pages, index,
                EngineConfig(tokenizer="simple", harvest_page_url=False))
    t = pads.dataset(os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["doc_id", "source"])
    idmap = {doc_id_for_url(f"{s}/{d}"): d
             for d, s in zip(t.column("doc_id").to_pylist(),
                             t.column("source").to_pylist())}
    _CLEAN_IDX_CACHE[key] = (index, idmap)
    return index, idmap


def q_index_dict_clean(sf_dir: str):
    """Dictionary (term, df) from the REAL index built over the cleaned
    corpus — value-checks S5/A1/A6 (dict build, df aggregation, df==1
    prune) through the actual SPIMI+shuffle pipeline."""
    from search_engine_ray.query.engine import SearchEngine

    index, _ = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    items = sorted(eng.df_map.items())
    return pa.table({
        "term": pa.array([t for t, _ in items], pa.string()),
        "df": pa.array([d for _, d in items], pa.int64()),
    })


SQL_INDEX_DICT_CLEAN = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents)
SELECT term, count(DISTINCT doc_id) AS df
FROM toks GROUP BY term HAVING count(DISTINCT doc_id) >= 2
ORDER BY term
"""


_CLEAN_SEARCH_QUERIES = [
    (0, "spark join merge"),
    (1, "data window stream query"),
    (2, "the and a"),               # stopword-only -> no rows
    (3, "zzzabsentzzz hash table"),  # unknown + known terms
]


def _clean_query_terms(q: str) -> list[str]:
    """Query-side token derivation, shared with the embedded SQL lists:
    mirrors Parser.parse_sentence on pure-alpha lowercase input (stopword
    filter) + the engine's dict.fromkeys term dedup."""
    from search_engine_ray.text.stopwords import STOPWORDS
    from search_engine_ray.text.tokenizer import simple_tokenize

    toks = [t for t in simple_tokenize(q)
            if t.isalpha() and t not in _CLEAN_DROP]
    return list(dict.fromkeys(t for t in toks if t not in STOPWORDS))


def _ranked_table(pairs, idmap: dict[int, int],
                  key: str = "query_id") -> pa.Table:
    """Shared (key, rank, doc_id, score_e6) result table for every
    engine-vs-SQL ranked-search mirror: ``pairs`` is an iterable of
    (group_id, best-first result tuples, start_rank) — one schema and
    one e6 rounding rule, so the mirrors cannot diverge."""
    rows = {key: [], "rank": [], "doc_id": [], "score_e6": []}
    for gid, ranked, start in pairs:
        for rank, (score, did, _ts) in enumerate(ranked, start=start):
            rows[key].append(gid)
            rows["rank"].append(rank)
            rows["doc_id"].append(idmap[did])
            rows["score_e6"].append(int(round_half_away(
                np.array([score * 1e6]))[0]))
    return pa.table({
        key: pa.array(rows[key], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "score_e6": pa.array(rows["score_e6"], pa.int64()),
    })


def q_search_bm25_clean(sf_dir: str, mode: str = "bm25", k: int = 10):
    """BM25 top-k through the REAL engine (posting decode, df_map, tf_norm,
    (score, ts, id) ranking) over the clean index; SQL-checked."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search(q, k=k, mode=mode))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


def _clean_qterms_values() -> str:
    vals = []
    for qid, q in _CLEAN_SEARCH_QUERIES:
        for t in _clean_query_terms(q):
            vals.append(f"({qid}, '{t}')")
    return ", ".join(vals)


SQL_SEARCH_BM25_CLEAN = f"""
WITH kept AS (SELECT doc_id, {_CLEAN_TOKS_SQL} AS toks FROM documents),
docs AS (SELECT doc_id, len(toks) AS dl, toks FROM kept WHERE len(toks) > 0),
stats AS (SELECT count(*) AS n_docs,
                 sum(dl)::DOUBLE / count(*) AS avgdl FROM docs),
toks AS (SELECT doc_id, unnest(toks) AS term FROM docs),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       GROUP BY term HAVING count(DISTINCT doc_id) >= 2),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term),
qterms(query_id, term) AS (VALUES {{QTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         log10(stats.n_docs / df.df) * tf.tf * (1.2 + 1)
         / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * d.dl / stats.avgdl)) AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_BM25_CLEAN = SQL_SEARCH_BM25_CLEAN.replace(
    "{QTERMS}", _clean_qterms_values())


# ---------------------------------------------- contextual retrieval tier
# Time-filtered search, more-like-this, and pseudo-relevance feedback all
# reuse the clean-index BM25 mirror; the shared CTE prefix and contrib
# expression are factored once so the scorer cannot diverge between them.
def _bm25_core_ctes(prune_df1: bool = True,
                    toks_sql: "str | None" = None) -> str:
    """ONE source for the BM25 CTE prefix across every mirror (the
    scorer cannot diverge between them); ``prune_df1=False`` drops only
    the df>=2 HAVING (the NRT and raw-positional-index configs);
    ``toks_sql`` overrides the token derivation (default: the cleaned
    corpus; the phrase/proximity mirrors pass the raw-token rule)."""
    having = (" HAVING count(DISTINCT doc_id) >= 2" if prune_df1 else "")
    toks = _CLEAN_TOKS_SQL if toks_sql is None else toks_sql
    return f"""kept AS (SELECT doc_id, {toks} AS toks FROM documents),
docs AS (SELECT doc_id, len(toks) AS dl, toks FROM kept WHERE len(toks) > 0),
stats AS (SELECT count(*) AS n_docs,
                 sum(dl)::DOUBLE / count(*) AS avgdl FROM docs),
toks AS (SELECT doc_id, unnest(toks) AS term FROM docs),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       GROUP BY term{having}),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term)"""


_BM25_CORE_CTES = _bm25_core_ctes(True)

_BM25_C_EXPR = """log10(stats.n_docs / df.df) * tf.tf * (1.2 + 1)
         / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * d.dl / stats.avgdl))"""

# inclusive original-doc-id window for the temporal filter query; the
# adapter maps warc_ts = BASE + doc_id seconds, so the SQL mirror filters
# doc_id while the ENGINE filters real docmeta timestamps (ts_range)
_TS_WINDOW_IDS = (10, 350)


def _clean_tf(text: str):
    """Per-doc term frequencies under the clean-corpus token rule —
    the Python mirror of the SQL ``tf`` CTE (``_CLEAN_TOKS_SQL``)."""
    from collections import Counter

    from search_engine_ray.text.tokenizer import simple_tokenize

    return Counter(t for t in simple_tokenize(text)
                   if t.isalpha() and t not in _CLEAN_DROP
                   and t not in _STOP_SET and t != "rt")


def _read_doc_texts(sf_dir: str, ids) -> dict[int, str]:
    """Row-group-pruned point read of a handful of doc texts — the
    'stored fields' fetch of a serving stack (Lucene MLT reads term
    vectors the same way); never a full-corpus materialization."""
    import pyarrow.dataset as pads

    d = pads.dataset(os.path.join(sf_dir, "documents.parquet"))
    t = d.to_table(columns=["doc_id", "text"],
                   filter=pads.field("doc_id").isin(list(ids)))
    return dict(zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist()))


def q_search_bm25_time_range(sf_dir: str, k: int = 10):
    """BM25 top-k restricted to a warc_ts window (the date-range filter
    of a search API) through the REAL engine: candidates are masked by
    docmeta timestamp while idf/avgdl stay corpus-wide (Lucene
    filter-query convention — scores identical with and without the
    filter), then the usual (score, ts, id) top-k."""
    from search_engine_ray.adapters import _BASE_TS_US
    from search_engine_ray.query.engine import SearchEngine

    lo_id, hi_id = _TS_WINDOW_IDS
    ts_range = (_BASE_TS_US + lo_id * 1_000_000,
                _BASE_TS_US + hi_id * 1_000_000)
    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search(q, k=k, mode="bm25",
                                        ts_range=ts_range))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


SQL_SEARCH_BM25_TIME_RANGE = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats
  WHERE tf.doc_id BETWEEN {_TS_WINDOW_IDS[0]} AND {_TS_WINDOW_IDS[1]}),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
""".replace("{QTERMS}", _clean_qterms_values())

_MLT_SEEDS = (0, 1, 2)


def q_more_like_this(sf_dir: str, m: int = 5, k: int = 10):
    """More-like-this (Lucene MoreLikeThis shape): for each seed doc,
    its top-``m`` dictionary terms by (tf desc, term asc) become the
    query; BM25 over the clean index ranks the corpus with the seed
    itself excluded.  The seed's term vector comes from a pruned
    point read of its stored text (_read_doc_texts) — an inverted
    index has no forward index, exactly as in the reference."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    inv = {orig: hashed for hashed, orig in idmap.items()}
    eng = SearchEngine(index)
    texts = _read_doc_texts(sf_dir, _MLT_SEEDS)
    pairs = []
    for seed in _MLT_SEEDS:
        text = texts.get(seed)
        if text is None:
            continue
        cands = [(t, c) for t, c in _clean_tf(text).items()
                 if t in eng.df_map]
        cands.sort(key=lambda tc: (-tc[1], tc[0]))
        terms = [t for t, _ in cands[:m]]
        if not terms:
            continue
        res = eng.search(" ".join(terms), k=k + 1, mode="bm25")
        seed_hashed = inv.get(seed)
        pairs.append((seed,
                      [r for r in reversed(res)
                       if r[1] != seed_hashed][:k], 1))
    return _ranked_table(pairs, idmap, key="seed")


SQL_MORE_LIKE_THIS = f"""
WITH {_BM25_CORE_CTES},
seeds(seed) AS (VALUES {", ".join(f"({s})" for s in _MLT_SEEDS)}),
qsel AS (
  SELECT seed, term FROM (
    SELECT s.seed, t.term,
           row_number() OVER (PARTITION BY s.seed
                              ORDER BY t.tf DESC, t.term ASC) AS rn
    FROM seeds s
    JOIN tf t ON t.doc_id = s.seed
    JOIN df ON df.term = t.term)
  WHERE rn <= 5),
contrib AS (
  SELECT q.seed, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qsel q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT seed, doc_id, sum(c) AS score
           FROM contrib WHERE doc_id <> seed GROUP BY seed, doc_id),
ranked AS (SELECT seed, doc_id, score,
                  row_number() OVER (PARTITION BY seed
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT seed, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""


def q_search_prf(sf_dir: str, r: int = 3, m: int = 3, k: int = 10):
    """Pseudo-relevance feedback (Rocchio shape, rank-exact): BM25
    round 1 takes the top-``r`` docs per query; the ``m`` strongest
    new dictionary terms across those docs (summed tf desc, term asc;
    original terms excluded) expand the query; BM25 round 2 returns
    the final top-``k``.  Term selection is integer (summed tf), so
    both rounds stay value-identical to the SQL mirror."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    pairs = []
    for qid, q in _CLEAN_SEARCH_QUERIES:
        orig = _clean_query_terms(q)
        res1 = eng.search(q, k=r, mode="bm25")
        top_ids = [idmap[did] for (_s, did, _ts) in reversed(res1)]
        terms = list(orig)
        if top_ids:
            texts = _read_doc_texts(sf_dir, top_ids)
            stf: dict[str, int] = {}
            for t_ in texts.values():
                for term, c in _clean_tf(t_).items():
                    if term in eng.df_map and term not in orig:
                        stf[term] = stf.get(term, 0) + c
            exp = sorted(stf.items(), key=lambda tc: (-tc[1], tc[0]))[:m]
            terms += [t for t, _ in exp]
        if not terms:
            continue
        res = eng.search(" ".join(terms), k=k, mode="bm25")
        pairs.append((qid, list(reversed(res)), 1))
    return _ranked_table(pairs, idmap)


SQL_SEARCH_PRF = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
contrib1 AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored1 AS (SELECT query_id, doc_id, sum(c) AS score
            FROM contrib1 GROUP BY query_id, doc_id),
top_r AS (SELECT query_id, doc_id FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, doc_id DESC) AS rn
    FROM scored1) WHERE rn <= 3),
exp_tf AS (SELECT r.query_id, t.term, sum(t.tf) AS stf
           FROM top_r r
           JOIN tf t ON t.doc_id = r.doc_id
           JOIN df ON df.term = t.term
           LEFT JOIN qterms q2 ON q2.query_id = r.query_id
                              AND q2.term = t.term
           WHERE q2.term IS NULL
           GROUP BY r.query_id, t.term),
expansion AS (SELECT query_id, term FROM (
    SELECT query_id, term,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY stf DESC, term ASC) AS rn
    FROM exp_tf) WHERE rn <= 3),
allq AS (SELECT query_id, term FROM qterms
         UNION SELECT query_id, term FROM expansion),
contrib2 AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM allq q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored2 AS (SELECT query_id, doc_id, sum(c) AS score
            FROM contrib2 GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored2)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
""".replace("{QTERMS}", _clean_qterms_values())


def q_search_page2(sf_dir: str, k: int = 10):
    """Cursor deep paging (Elasticsearch search_after shape): page 1 is
    the BM25 top-k; its LAST tuple becomes the cursor and page 2 is the
    next k strictly below it in exact ranking order.  Stateless — no
    from+size re-materialization; strictly-higher scores are pruned
    before any tie-break metadata is touched."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    pairs = []
    for qid, q in _CLEAN_SEARCH_QUERIES:
        page1 = eng.search(q, k=k, mode="bm25")
        if not page1:
            continue
        res = eng.search(q, k=k, mode="bm25", search_after=page1[0])
        pairs.append((qid, list(reversed(res)), k + 1))
    return _ranked_table(pairs, idmap)


SQL_SEARCH_PAGE2 = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank BETWEEN 11 AND 20
""".replace("{QTERMS}", _clean_qterms_values())

# query-time term boosts (Lucene term^w): shared between the engine call
# and the SQL VALUES list; integer weights keep c*w bit-identical on both
# sides before the e6 rounding
_QUERY_BOOSTS = {"spark": 3, "merge": 2, "data": 2, "hash": 4}


def _boosted_qterms_values() -> str:
    vals = []
    for qid, q in _CLEAN_SEARCH_QUERIES:
        for t in _clean_query_terms(q):
            vals.append(f"({qid}, '{t}', {_QUERY_BOOSTS.get(t, 1)})")
    return ", ".join(vals)


def q_search_boosted(sf_dir: str, k: int = 10):
    """Query-time term boosting (Lucene ``term^w``) through the REAL
    engine: each term's BM25 contribution is scaled by its weight before
    accumulation, idf/avgdl untouched."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    boosts = {t: float(w) for t, w in _QUERY_BOOSTS.items()}
    return _ranked_table(
        ((qid, list(reversed(eng.search(q, k=k, mode="bm25",
                                        boosts=boosts))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


SQL_SEARCH_BOOSTED = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term, w) AS (VALUES {{BQTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         ({_BM25_C_EXPR}) * q.w AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
""".replace("{BQTERMS}", _boosted_qterms_values())


def q_result_facets(sf_dir: str):
    """Per-query facet counts over the MATCH SET (the Elasticsearch
    aggregations-on-hits shape): for every query, the number of matching
    docs (boolean OR over its dictionary terms, straight off the posting
    lists) per source.  The match-id arrays ride ONE ray.put broadcast
    into a streaming (doc_id, source) scan — per-batch sorted-array
    membership (searchsorted) then a dimension-sized (query, source)
    count merge; the corpus never collects on the driver."""
    import ray
    import ray.data

    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    # one covering batched read for every term of every query (the
    # engine's own prefetch convention) instead of per-term misses
    eng.prefetch([t for _qid, q in _CLEAN_SEARCH_QUERIES
                  for t in _clean_query_terms(q)])
    match_ids: dict[int, np.ndarray] = {}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        parts = []
        for t in _clean_query_terms(q):
            p = eng.postings(t)
            if p is not None:
                parts.append(p["doc_ids"])
        if not parts:
            continue
        hashed = np.unique(np.concatenate(parts))
        match_ids[qid] = np.sort(np.array(
            [idmap[h] for h in hashed], np.int64))
    ref = ray.put(match_ids)

    def facet_partials(batch: pa.Table) -> pa.Table:
        mids = ray.get(ref)
        ids = batch.column("doc_id").to_numpy()
        src = batch.column("source")
        out_q, out_s, out_n = [], [], []
        for qid, arr in mids.items():
            pos = np.searchsorted(arr, ids)
            pos[pos == len(arr)] = 0
            hit = arr[pos] == ids
            if not hit.any():
                continue
            t = pa.table({"source": src.filter(pa.array(hit))})
            for row in t.group_by("source").aggregate(
                    [("source", "count")]).to_pylist():
                out_q.append(qid)
                out_s.append(row["source"])
                out_n.append(row["source_count"])
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "source": pa.array(out_s, pa.string()),
            "n_docs": pa.array(out_n, pa.int64()),
        })

    parts = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
    ).map_batches(facet_partials, batch_format="pyarrow").to_pandas()
    final = (parts.groupby(["query_id", "source"], as_index=False,
                           dropna=False)["n_docs"].sum())
    return pa.table({
        "query_id": pa.array(final["query_id"], pa.int64()),
        "source": pa.array(final["source"], pa.string()),
        "n_docs": pa.array(final["n_docs"], pa.int64()),
    })


SQL_RESULT_FACETS = f"""
WITH kept AS (SELECT doc_id, {_CLEAN_TOKS_SQL} AS toks FROM documents),
docs AS (SELECT doc_id, toks FROM kept WHERE len(toks) > 0),
toks AS (SELECT doc_id, unnest(toks) AS term FROM docs),
df AS (SELECT term FROM toks GROUP BY term
       HAVING count(DISTINCT doc_id) >= 2),
qterms(query_id, term) AS (VALUES {{QTERMS}}),
matched AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM qterms q
            JOIN df ON df.term = q.term
            JOIN toks t ON t.term = q.term)
SELECT m.query_id, d.source, count(*) AS n_docs
FROM matched m JOIN documents d ON d.doc_id = m.doc_id
GROUP BY m.query_id, d.source
""".replace("{QTERMS}", _clean_qterms_values())

# query-time synonym map (Lucene SynonymFilter at the query side), shared
# between the engine call and the SQL expansion; "stream" is already a
# term of query 1, exercising the order-preserving dedup
_SYNONYMS = {"spark": ["batch"], "data": ["stream", "batch"]}


def _synonym_qterms_values() -> str:
    vals = []
    for qid, q in _CLEAN_SEARCH_QUERIES:
        seen = []
        for t in _clean_query_terms(q):
            for x in (t, *_SYNONYMS.get(t, ())):
                if x not in seen:
                    seen.append(x)
                    vals.append(f"({qid}, '{x}')")
    return ", ".join(vals)


def q_search_synonyms(sf_dir: str, k: int = 10):
    """Query-time synonym expansion through the REAL engine: each parsed
    term is OR-expanded with its alternates at equal weight before
    retrieval (a pure query rewrite — Lucene SynonymFilter shape), then
    the usual BM25 (score, ts, id) top-k."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search(q, k=k, mode="bm25",
                                        synonyms=_SYNONYMS))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


SQL_SEARCH_SYNONYMS = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{SQTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
""".replace("{SQTERMS}", _synonym_qterms_values())

# did-you-mean fixtures: typos one edit from corpus vocab, a clean dict
# term, an ambiguous typo (df decides), and a hopeless token
_DYM_QUERIES = [
    (0, "spak joim merge"),     # two typos + a dict term
    (1, "dta window"),          # ambiguous + one-edit
    (2, "zzzabsentzzz hash"),   # hopeless + dict term
]


def q_did_you_mean(sf_dir: str):
    """Did-you-mean suggestion per query term (the search-box spell
    check): dictionary terms pass through; a missing term takes its best
    one-edit correction — highest df, ties lexicographic — or stays
    as-is when nothing is that close.  Runs the engine's own
    FuzzyCorrector (length-bucketed vectorized one-edit kernel) against
    the real dict."""
    from search_engine_ray.query.engine import SearchEngine

    index, _ = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    rows = {"query_id": [], "pos": [], "term": [], "suggestion": []}
    for qid, q in _DYM_QUERIES:
        for pos, t in enumerate(_clean_query_terms(q)):
            sug = t if t in eng.df_map else (eng.fuzzy_correct(t) or t)
            rows["query_id"].append(qid)
            rows["pos"].append(pos)
            rows["term"].append(t)
            rows["suggestion"].append(sug)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "pos": pa.array(rows["pos"], pa.int64()),
        "term": pa.array(rows["term"], pa.string()),
        "suggestion": pa.array(rows["suggestion"], pa.string()),
    })


def _dym_qtok_values() -> str:
    vals = []
    for qid, q in _DYM_QUERIES:
        for pos, t in enumerate(_clean_query_terms(q)):
            vals.append(f"({qid}, {pos}, '{t}')")
    return ", ".join(vals)


SQL_DID_YOU_MEAN = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
       GROUP BY term HAVING count(DISTINCT doc_id) >= 2),
qtok(query_id, pos, term) AS (VALUES {{QTOK}}),
miss AS (SELECT q.* FROM qtok q
         LEFT JOIN df ON df.term = q.term WHERE df.term IS NULL),
best AS (SELECT query_id, pos, sug FROM (
    SELECT m.query_id, m.pos, d.term AS sug,
           row_number() OVER (PARTITION BY m.query_id, m.pos
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM miss m JOIN df d ON levenshtein(m.term, d.term) <= 1)
  WHERE rn = 1)
SELECT q.query_id, q.pos, q.term,
       coalesce(b.sug, q.term) AS suggestion
FROM qtok q
LEFT JOIN best b ON b.query_id = q.query_id AND b.pos = q.pos
""".replace("{QTOK}", _dym_qtok_values())


_NRT_CACHE: dict[str, tuple] = {}


def _nrt_engine(sf_dir: str):
    """NRT fixture: base index over 80% of the cleaned corpus
    (doc_id % 5 != 0, prune_df1=False for delta-stable dict verdicts),
    the held-out 20% added through NrtSearchEngine.add_pages — the
    combined view must equal full-corpus BM25 exactly."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.nrt import NrtSearchEngine

    key = os.path.abspath(sf_dir)
    if key in _NRT_CACHE:
        return _NRT_CACHE[key]
    idx_full, idmap = _clean_index(sf_dir)
    base = os.path.dirname(idx_full)
    pages = pads.dataset(os.path.join(base, "pages")).to_table(
        columns=["url", "warc_ts", "html", "text", "lang"])
    orig = np.array([int(u.rsplit("/", 1)[-1])
                     for u in pages.column("url").to_pylist()])
    mask = pa.array(orig % 5 != 0)
    base_pages_dir = os.path.join(base, "nrt_base_pages")
    nrt_idx = os.path.join(base, "nrt_base_index")
    if not os.path.exists(os.path.join(base_pages_dir, "_DONE")):
        os.makedirs(base_pages_dir, exist_ok=True)
        pq.write_table(pages.filter(mask),
                       os.path.join(base_pages_dir, "p.parquet"))
        open(os.path.join(base_pages_dir, "_DONE"), "w").close()
    build_index(base_pages_dir, nrt_idx,
                EngineConfig(tokenizer="simple", harvest_page_url=False,
                             prune_df1=False))
    eng = NrtSearchEngine(nrt_idx)
    # exercise the API's own Arrow-table ingest path, not a hand zip
    eng.add_pages(pages.filter(pa.compute.invert(mask)))
    _NRT_CACHE[key] = (eng, idmap)
    return eng, idmap


def q_search_nrt(sf_dir: str, k: int = 10):
    """Near-real-time serving (query/nrt.py): BM25 top-k where 20% of
    the corpus lives ONLY in the in-memory NRT segment — base+segment
    scored with combined corpus statistics, so the result equals
    full-corpus BM25 (the SQL mirror, no df-prune) exactly."""
    eng, idmap = _nrt_engine(sf_dir)
    return _ranked_table(
        ((qid, list(reversed(eng.search(q, k=k))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


# same BM25 mirror as SQL_SEARCH_BM25_CLEAN but over the no-prune core
# CTEs (the NRT fixture runs prune_df1=False so segment adds can never
# resurrect a pruned base posting)
SQL_SEARCH_NRT = f"""
WITH {_bm25_core_ctes(False)},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
""".replace("{QTERMS}", _clean_qterms_values())


def q_date_histogram(sf_dir: str):
    """Date-histogram facet over the MATCH SET (the Kibana timeline):
    per query, matching-doc counts bucketed by MINUTE of the docmeta
    timestamp (the adapter's synthetic clock spans minutes at check
    scale; the bucket constant is the only thing a day/hour variant
    changes).  Match ids come off the posting lists (boolean OR over
    dictionary terms), buckets from the engine's own mmap docmeta ts —
    the real serving metadata, not a corpus rescan; output is
    dimension-sized (queries x distinct buckets)."""
    from search_engine_ray.query.engine import SearchEngine

    index, _ = _clean_index(sf_dir)
    eng = SearchEngine(index)
    eng.prefetch([t for _qid, q in _CLEAN_SEARCH_QUERIES
                  for t in _clean_query_terms(q)])
    bucket_us = 60_000_000
    rows = {"query_id": [], "bucket": [], "n_docs": []}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        parts = [eng.postings(t)["doc_ids"]
                 for t in _clean_query_terms(q)
                 if t in eng.df_map]
        if not parts:
            continue
        hashed = np.unique(np.concatenate(parts))
        pos, found = eng._meta_for(hashed)
        ts = eng._meta["ts"][pos][found]
        buckets, counts = np.unique(ts // bucket_us, return_counts=True)
        for b, n in zip(buckets, counts):
            rows["query_id"].append(qid)
            rows["bucket"].append(int(b))
            rows["n_docs"].append(int(n))
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "bucket": pa.array(rows["bucket"], pa.int64()),
        "n_docs": pa.array(rows["n_docs"], pa.int64()),
    })


# the adapter maps warc_ts = _BASE_TS_US + doc_id seconds (adapters.py),
# so the SQL mirror derives the same epoch-day bucket from doc_id
_BASE_TS_US_SQL = "1595808000000000"  # adapters._BASE_TS_US

SQL_DATE_HISTOGRAM = f"""
WITH kept AS (SELECT doc_id, {_CLEAN_TOKS_SQL} AS toks FROM documents),
docs AS (SELECT doc_id, toks FROM kept WHERE len(toks) > 0),
toks AS (SELECT doc_id, unnest(toks) AS term FROM docs),
df AS (SELECT term FROM toks GROUP BY term
       HAVING count(DISTINCT doc_id) >= 2),
qterms(query_id, term) AS (VALUES {{QTERMS}}),
matched AS (SELECT DISTINCT q.query_id, t.doc_id
            FROM qterms q
            JOIN df ON df.term = q.term
            JOIN toks t ON t.term = q.term)
SELECT query_id,
       (({_BASE_TS_US_SQL} + doc_id * 1000000) // 60000000) AS bucket,
       count(*) AS n_docs
FROM matched
GROUP BY query_id, bucket
""".replace("{QTERMS}", _clean_qterms_values())


def q_ranking_eval(sf_dir: str, k: int = 10):
    """Ranking-quality evaluation of the engine's own BM25 top-k (the
    offline relevance harness of a search team): gold grade of a doc =
    number of DISTINCT dictionary query terms it contains (straight off
    the posting lists); relevant = grade >= min(2, known terms), so
    multi-term queries demand co-occurrence.  Integer-exact metrics per
    query so the SQL mirror hashes identically: ``n_results``,
    ``graded_p10`` (grade sum over the top-k), ``mrr_e6``
    (round(1e6 / first relevant rank), 0 if none), ``recall10_e6``
    (round(1e6 * relevant-in-top-k / total relevant))."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    eng.prefetch([t for _qid, q in _CLEAN_SEARCH_QUERIES
                  for t in _clean_query_terms(q)])
    rows = {"query_id": [], "n_results": [], "graded_p10": [],
            "mrr_e6": [], "recall10_e6": []}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        terms = [t for t in _clean_query_terms(q) if t in eng.df_map]
        plists = {t: eng.postings(t)["doc_ids"] for t in terms}
        if not plists:
            continue
        thr = min(2, len(plists))
        _ids, counts = np.unique(
            np.concatenate(list(plists.values())), return_counts=True)
        total_rel = int((counts >= thr).sum())
        res = list(reversed(eng.search(q, k=k, mode="bm25")))
        grades = [sum(1 for ids in plists.values()
                      if ids[np.searchsorted(ids, did) % len(ids)] == did)
                  for (_s, did, _ts) in res]
        rel_ranks = [r for r, g in enumerate(grades, start=1)
                     if g >= thr]
        mrr = (int(round_half_away(
            np.array([1e6 / rel_ranks[0]]))[0]) if rel_ranks else 0)
        recall = (int(round_half_away(
            np.array([1e6 * len(rel_ranks) / total_rel]))[0])
            if total_rel else 0)
        rows["query_id"].append(qid)
        rows["n_results"].append(len(res))
        rows["graded_p10"].append(sum(grades))
        rows["mrr_e6"].append(mrr)
        rows["recall10_e6"].append(recall)
    return pa.table({k_: pa.array(v, pa.int64())
                     for k_, v in rows.items()})


SQL_RANKING_EVAL = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
known AS (SELECT q.query_id, q.term FROM qterms q
          JOIN df ON df.term = q.term),
thr AS (SELECT query_id, least(2, count(*)) AS thr FROM known
        GROUP BY query_id),
-- gold grades: distinct known query terms contained per (query, doc)
grade AS (SELECT k.query_id, t.doc_id,
                 count(DISTINCT k.term) AS g
          FROM known k JOIN toks t ON t.term = k.term
          GROUP BY k.query_id, t.doc_id),
total_rel AS (SELECT g.query_id, count(*) AS n
              FROM grade g JOIN thr ON thr.query_id = g.query_id
              WHERE g.g >= thr.thr GROUP BY g.query_id),
contrib AS (
  SELECT q.query_id, tf.doc_id,
         {_BM25_C_EXPR} AS c
  FROM qterms q
  JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term
  JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
topk AS (SELECT query_id, doc_id, rank FROM (
    SELECT query_id, doc_id,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY score DESC, doc_id DESC) AS rank
    FROM scored) WHERE rank <= 10),
judged AS (SELECT t.query_id, t.rank, g.g, th.thr
           FROM topk t
           JOIN grade g ON g.query_id = t.query_id
                       AND g.doc_id = t.doc_id
           JOIN thr th ON th.query_id = t.query_id)
SELECT j.query_id,
       count(*) AS n_results,
       sum(j.g)::BIGINT AS graded_p10,
       coalesce(round(1000000.0
                      / min(j.rank) FILTER (WHERE j.g >= j.thr)), 0)
           ::BIGINT AS mrr_e6,
       coalesce(round(1000000.0 * (count(*) FILTER (WHERE j.g >= j.thr))
                      / nullif(any_value(r.n), 0)), 0)
           ::BIGINT AS recall10_e6
FROM judged j
LEFT JOIN total_rel r ON r.query_id = j.query_id
GROUP BY j.query_id
""".replace("{QTERMS}", _clean_qterms_values())


# -------------------------------------------------------------- lang-id SQL
def q_langid_pred(sf_dir: str):
    import ray.data

    from search_engine_ray.ops.textstats import LangId

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(LangId, batch_format="pyarrow", concurrency=2)


def _langid_profile_values() -> str:
    from search_engine_ray.ops.textstats import _LANG_PROFILES

    vals = []
    for ord_, (lang, words) in enumerate(_LANG_PROFILES.items()):
        for w in sorted(words):
            vals.append(f"('{lang}', {ord_}, '{w}')")
    return ", ".join(vals)


SQL_LANGID_PRED = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_TOKS_SQL})) AS term FROM documents),
prof(lang, ord, term) AS (VALUES {{PROFILES}}),
scores AS (SELECT t.doc_id, p.lang, p.ord, count(*) AS n
           FROM toks t JOIN prof p ON t.term = p.term
           GROUP BY t.doc_id, p.lang, p.ord),
best AS (SELECT doc_id, lang,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY n DESC, ord) AS rn
         FROM scores WHERE n > 0)
SELECT d.doc_id, coalesce(b.lang, 'unknown') AS lang_pred
FROM documents d
LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b USING (doc_id)
"""
SQL_LANGID_PRED = SQL_LANGID_PRED.replace(
    "{PROFILES}", _langid_profile_values())


# -------------------------------------------------------- md5 fingerprint
def q_fingerprint_md5(sf_dir: str):
    """64-bit md5-based content fingerprint (DuckDB md5_number_lower
    parity: bytes 8..16 of the digest, little-endian, unsigned)."""
    import hashlib as _h

    import ray.data

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        fps = [int.from_bytes(_h.md5(t.encode("utf-8")).digest()[8:],
                              "little") for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "fp64": pa.array(fps, pa.uint64()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(fp, batch_format="pyarrow")


SQL_FINGERPRINT_MD5 = """
SELECT doc_id, md5_number_lower(text) AS fp64 FROM documents
"""


# ------------------------------------------------- winnowing fingerprints
def q_winnow_fingerprints(sf_dir: str):
    import ray.data

    from search_engine_ray.ops.textstats import winnow_fingerprints

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(winnow_fingerprints, batch_format="pyarrow")


def _winnow_sql() -> str:
    """Same k-gram polynomial hash + per-window min as the Ray op, same
    B/M/k/w constants, HUGEINT intermediates (exact)."""
    from search_engine_ray.ops.textstats import (
        WINNOW_B,
        WINNOW_K,
        WINNOW_M,
        WINNOW_W,
    )

    k, w, m = WINNOW_K, WINNOW_W, WINNOW_M
    terms = " + ".join(
        f"unicode(substr(t, (i + {j})::BIGINT, 1))::HUGEINT"
        f" * {pow(WINNOW_B, k - 1 - j, m)}"
        for j in range(k))
    return f"""
WITH docs AS (
  SELECT doc_id, lower(text) AS t FROM documents
  WHERE length(text) >= {k}),
grams AS (
  SELECT doc_id,
         unnest(range(1, length(t) - {k} + 2)) AS i,
         t,
         length(t) - {k} + 1 AS n
  FROM docs),
hashes AS (
  SELECT doc_id, i, n, ({terms}) % {m} AS h FROM grams),
wins AS (
  SELECT doc_id, i, n,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {w - 1} FOLLOWING) AS mh
  FROM hashes)
SELECT DISTINCT doc_id, mh::BIGINT AS fp
FROM wins
WHERE i <= greatest(n - {w} + 1, 1)
"""


SQL_WINNOW_FINGERPRINTS = _winnow_sql()


def q_pii_scan(sf_dir: str):
    from search_engine_ray.ops.textstats import pii_scan

    return pii_scan(sf_dir)


def _pii_sql() -> str:
    from search_engine_ray.ops.textstats import PII_EMAIL_SRC, PII_IP_SRC

    em, ip = _sql_quote(PII_EMAIL_SRC), _sql_quote(PII_IP_SRC)
    return f"""
WITH aug AS (
  SELECT lang,
         text
         || CASE WHEN doc_id % 7 = 0
                 THEN ' contact user' || doc_id || '@example.com now'
                 ELSE '' END
         || CASE WHEN doc_id % 11 = 0
                 THEN ' from 10.0.' || (doc_id % 256) || '.' || (doc_id % 100)
                 ELSE '' END AS t
  FROM documents),
m AS (
  SELECT lang,
         len(regexp_extract_all(t, {em})) AS ne,
         len(regexp_extract_all(t, {ip})) AS ni
  FROM aug)
SELECT lang,
       sum(ne)::BIGINT AS n_emails,
       sum(ni)::BIGINT AS n_ips,
       sum(CASE WHEN ne > 0 OR ni > 0 THEN 1 ELSE 0 END)::BIGINT
           AS n_docs_with_pii,
       count(*) AS n_docs
FROM m GROUP BY lang
"""


SQL_PII_SCAN = _pii_sql()


def q_repetition_stats(sf_dir: str):
    from search_engine_ray.ops.textstats import repetition_stats

    return repetition_stats(sf_dir)


SQL_REPETITION_STATS = f"""
WITH base AS (
  SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
tc AS (
  SELECT doc_id, tok, count(*) AS c
  FROM (SELECT doc_id, unnest(ts) AS tok FROM base)
  GROUP BY doc_id, tok),
ut AS (
  SELECT doc_id, sum(c)::BIGINT AS n_tokens, count(*)::BIGINT AS n_unique,
         max(c)::BIGINT AS top_tf
  FROM tc GROUP BY doc_id),
bc AS (
  SELECT doc_id, max(c)::BIGINT AS top_bigram_tf
  FROM (SELECT doc_id, g, count(*) AS c
        FROM (SELECT doc_id,
                     unnest(list_transform(range(1, len(ts)),
                            i -> ts[i] || ' ' || ts[i + 1])) AS g
              FROM base)
        GROUP BY doc_id, g)
  GROUP BY doc_id)
SELECT b.doc_id,
       coalesce(ut.n_tokens, 0) AS n_tokens,
       coalesce(ut.n_unique, 0) AS n_unique,
       coalesce(ut.top_tf, 0) AS top_tf,
       coalesce(bc.top_bigram_tf, 0) AS top_bigram_tf
FROM base b
LEFT JOIN ut ON b.doc_id = ut.doc_id
LEFT JOIN bc ON b.doc_id = bc.doc_id
"""


def q_contamination(sf_dir: str):
    from search_engine_ray.ops.textstats import contamination_check

    return contamination_check(sf_dir)


SQL_CONTAMINATION = f"""
WITH base AS (
  SELECT doc_id, lang, {_TOKS_SQL} AS ts FROM documents),
bg AS (
  SELECT DISTINCT unnest(list_transform(range(1, len(ts) - 2),
                         i -> array_to_string(ts[i:i + 3], ' '))) AS g
  FROM base WHERE doc_id % 97 = 0),
dg AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ts) - 2),
                        i -> array_to_string(ts[i:i + 3], ' '))) AS g
  FROM base WHERE doc_id % 97 <> 0),
flag AS (
  SELECT doc_id, max(CASE WHEN g IN (SELECT g FROM bg)
                          THEN 1 ELSE 0 END) AS c
  FROM dg GROUP BY doc_id)
SELECT b.lang,
       sum(coalesce(f.c, 0))::BIGINT AS n_contaminated,
       count(*) AS n_docs
FROM base b LEFT JOIN flag f ON b.doc_id = f.doc_id
WHERE b.doc_id % 97 <> 0
GROUP BY b.lang
"""


def q_source_mix(sf_dir: str):
    from search_engine_ray.ops.textstats import source_mix_sample

    return source_mix_sample(sf_dir)


def _source_mix_sql() -> str:
    from search_engine_ray.ops.textstats import MIX_DEFAULT, MIX_WEIGHTS

    case = " ".join(f"WHEN '{s}' THEN {w}"
                    for s, w in sorted(MIX_WEIGHTS.items()))
    return f"""
SELECT doc_id, source FROM documents
WHERE md5_number_lower(text) % 100 <
      CASE source {case} ELSE {MIX_DEFAULT} END
"""


SQL_SOURCE_MIX = _source_mix_sql()


def q_packing_plan(sf_dir: str):
    from search_engine_ray.ops.textstats import packing_plan

    return packing_plan(sf_dir)


SQL_PACKING_PLAN = f"""
WITH t AS (SELECT doc_id, len({_TOKS_SQL}) AS n FROM documents),
s AS (SELECT doc_id, n,
        coalesce(sum(n) OVER (ORDER BY doc_id
                              ROWS BETWEEN UNBOUNDED PRECEDING
                              AND 1 PRECEDING), 0)::BIGINT AS tok_start
      FROM t)
SELECT doc_id, tok_start,
       (tok_start // 512)::BIGINT AS chunk_first,
       ((tok_start + greatest(n, 1) - 1) // 512)::BIGINT AS chunk_last
FROM s
"""


def q_norm_fingerprint(sf_dir: str):
    from search_engine_ray.ops.textstats import norm_fingerprint

    return norm_fingerprint(sf_dir)


def _norm_fp_sql() -> str:
    from search_engine_ray.ops.textstats import WS_CLASS_SRC

    return f"""
SELECT doc_id,
       md5(trim(regexp_replace(lower(text), {_sql_quote(WS_CLASS_SRC)},
                               ' ', 'g'), ' ')) AS norm_md5
FROM documents
"""


SQL_NORM_FINGERPRINT = _norm_fp_sql()


def q_curate_summary(sf_dir: str):
    from search_engine_ray.pipelines.curate import curate_summary

    return curate_summary(sf_dir)


def _curate_sql() -> str:
    from search_engine_ray.ops.textstats import MIX_DEFAULT, MIX_WEIGHTS

    case = " ".join(f"WHEN '{s}' THEN {w}"
                    for s, w in sorted(MIX_WEIGHTS.items()))
    return f"""
WITH RECURSIVE
tl AS (SELECT doc_id, {_TOKS_SQL} AS toks FROM documents),
m AS (SELECT doc_id, len(toks) AS n_tokens,
             coalesce(list_sum(list_transform(toks, x -> length(x))), 0)
                 AS sum_len
      FROM tl),
q AS (SELECT doc_id FROM m
      WHERE n_tokens >= 30 AND sum_len >= 4 * n_tokens),
e AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY text),
toks AS (SELECT doc_id, unnest(toks) AS t,
                generate_subscripts(toks, 1) AS pos FROM tl),
grams AS (SELECT DISTINCT t1.doc_id,
                 t1.t || ' ' || t2.t || ' ' || t3.t AS g
          FROM toks t1
          JOIN toks t2 ON t2.doc_id = t1.doc_id AND t2.pos = t1.pos + 1
          JOIN toks t3 ON t3.doc_id = t1.doc_id AND t3.pos = t1.pos + 2),
counts AS (SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id),
inter AS (SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
          FROM grams x JOIN grams y
               ON x.g = y.g AND x.doc_id < y.doc_id
          GROUP BY 1, 2),
pairs AS (SELECT a, b FROM inter
          JOIN counts ca ON ca.doc_id = a
          JOIN counts cb ON cb.doc_id = b
          WHERE i::DOUBLE / (ca.n + cb.n - i) >= 0.6),
und AS (SELECT a AS x, b AS y FROM pairs
        UNION ALL SELECT b, a FROM pairs),
walk(x, r) AS (
  SELECT x, x FROM (SELECT DISTINCT x FROM und)
  UNION
  SELECT u.x, w.r FROM und u JOIN walk w ON w.x = u.y),
roots AS (SELECT x, min(r) AS root FROM walk GROUP BY x),
nd AS (SELECT d.doc_id FROM documents d
       LEFT JOIN roots ON d.doc_id = roots.x
       WHERE roots.x IS NULL OR roots.root = d.doc_id),
mx AS (SELECT doc_id FROM documents
       WHERE md5_number_lower(text) % 100 <
             CASE source {case} ELSE {MIX_DEFAULT} END),
bgrams AS (
  SELECT DISTINCT unnest(list_transform(range(1, len(toks) - 2),
                         i -> array_to_string(toks[i:i + 3], ' '))) AS g
  FROM tl WHERE doc_id % 97 = 0),
dgrams AS (
  SELECT doc_id, unnest(list_transform(range(1, len(toks) - 2),
                        i -> array_to_string(toks[i:i + 3], ' '))) AS g
  FROM tl WHERE doc_id % 97 <> 0),
contaminated AS (SELECT DISTINCT doc_id FROM dgrams
                 WHERE g IN (SELECT g FROM bgrams)),
dc AS (SELECT doc_id FROM tl
       WHERE doc_id % 97 <> 0
         AND doc_id NOT IN (SELECT doc_id FROM contaminated)),
keep AS (SELECT q.doc_id FROM q
         JOIN e ON e.doc_id = q.doc_id
         JOIN nd ON nd.doc_id = q.doc_id
         JOIN dc ON dc.doc_id = q.doc_id
         JOIN mx ON mx.doc_id = q.doc_id)
SELECT d.lang,
       count(*) AS docs_in,
       count(k.doc_id)::BIGINT AS docs_kept,
       coalesce(sum(CASE WHEN k.doc_id IS NOT NULL
                         THEN m.n_tokens END), 0)::BIGINT AS tokens_kept
FROM documents d
JOIN m ON m.doc_id = d.doc_id
LEFT JOIN keep k ON k.doc_id = d.doc_id
GROUP BY d.lang
"""


SQL_CURATE_SUMMARY = _curate_sql()


# ------------------------------------------------------- round-3 ops
def q_stratified_sample(sf_dir: str):
    from search_engine_ray.ops.textstats import stratified_sample_k

    return stratified_sample_k(sf_dir, k=20)


SQL_STRATIFIED_SAMPLE = """
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source
                            ORDER BY md5_number_lower(text), doc_id) AS rn
  FROM documents) WHERE rn <= 20
"""


def q_corpus_freq_score(sf_dir: str):
    from search_engine_ray.ops.textstats import corpus_freq_doc_score

    return corpus_freq_doc_score(sf_dir, vocab_k=16)


SQL_CORPUS_FREQ_SCORE = f"""
WITH toks AS (
  SELECT doc_id, unnest({_TOKS_SQL}) AS term FROM documents),
cnt AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
voc AS (SELECT term, c FROM cnt ORDER BY c DESC, term LIMIT 16),
per AS (
  SELECT t.doc_id, count(*) AS n_tokens, count(v.term) AS n_invocab,
         coalesce(sum(v.c), 0)::BIGINT AS sum_freq
  FROM toks t LEFT JOIN voc v ON t.term = v.term GROUP BY t.doc_id)
SELECT d.doc_id, coalesce(p.n_tokens, 0)::BIGINT AS n_tokens,
       coalesce(p.n_invocab, 0)::BIGINT AS n_invocab,
       coalesce(p.sum_freq, 0)::BIGINT AS sum_freq
FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id
"""


def q_decontaminate(sf_dir: str):
    from search_engine_ray.ops.textstats import decontaminate_ids

    return decontaminate_ids(sf_dir)


SQL_DECONTAMINATE = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
bg AS (
  SELECT DISTINCT unnest(list_transform(range(1, len(ts) - 2),
                         i -> array_to_string(ts[i:i + 3], ' '))) AS g
  FROM base WHERE doc_id % 97 = 0),
dg AS (
  SELECT doc_id, unnest(list_transform(range(1, len(ts) - 2),
                        i -> array_to_string(ts[i:i + 3], ' '))) AS g
  FROM base WHERE doc_id % 97 <> 0),
bad AS (SELECT DISTINCT doc_id FROM dg WHERE g IN (SELECT g FROM bg))
SELECT doc_id FROM base
WHERE doc_id % 97 <> 0 AND doc_id NOT IN (SELECT doc_id FROM bad)
"""


def q_search_bool_and_clean(sf_dir: str, k: int = 10):
    """Strict boolean-AND retrieval through the REAL engine (posting
    intersection over the clean index), SQL-checked: first k ascending
    doc ids containing every query term; any unknown/pruned term
    empties the query."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    rows = {"query_id": [], "rank": [], "doc_id": []}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        # the engine ranks by its (hashed) ids; rank by ORIGINAL id here
        # so the SQL mirror's ordering is comparable — fetch the full
        # intersection, map, then cut to k
        res = eng.search(q, k=1_000_000_000, mode="bool_and")
        for rank, did in enumerate(sorted(idmap[d] for d in res),
                                   start=1):
            if rank > k:
                break
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(did)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
    })


SQL_SEARCH_BOOL_AND_CLEAN = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_CLEAN_TOKS_SQL})) AS term
  FROM documents),
dict AS (SELECT term FROM toks GROUP BY term HAVING count(*) >= 2),
qterms AS (SELECT * FROM (VALUES __QTERMS__) AS v(query_id, term)),
qn AS (SELECT query_id, count(*) AS n FROM qterms GROUP BY query_id),
qok AS (
  SELECT q.query_id FROM qterms q
  GROUP BY q.query_id
  HAVING count(*) = sum(CASE WHEN q.term IN (SELECT term FROM dict)
                             THEN 1 ELSE 0 END)),
hits AS (
  SELECT q.query_id, t.doc_id
  FROM qterms q
  JOIN toks t ON t.term = q.term
  JOIN qn ON qn.query_id = q.query_id
  WHERE q.query_id IN (SELECT query_id FROM qok)
  GROUP BY q.query_id, t.doc_id, qn.n
  HAVING count(DISTINCT t.term) = qn.n),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY doc_id) AS rank
  FROM hits)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_BOOL_AND_CLEAN = SQL_SEARCH_BOOL_AND_CLEAN.replace(
    "__QTERMS__", _clean_qterms_values())


def q_winnow_shared_pairs(sf_dir: str):
    from search_engine_ray.ops.textstats import winnow_shared_pairs

    return winnow_shared_pairs(sf_dir, min_shared=20, max_fp_df=64)


SQL_WINNOW_SHARED_PAIRS = f"""
WITH fps AS ({SQL_WINNOW_FINGERPRINTS.strip()}),
okfp AS (SELECT fp FROM fps GROUP BY fp HAVING count(*) BETWEEN 2 AND 64),
pairs AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM fps a JOIN fps b ON a.fp = b.fp AND a.doc_id < b.doc_id
  WHERE a.fp IN (SELECT fp FROM okfp))
SELECT id_a, id_b, count(*) AS shared
FROM pairs GROUP BY id_a, id_b HAVING count(*) >= 20
"""


def q_prefix_dup_groups(sf_dir: str):
    from search_engine_ray.ops.textstats import prefix_dup_groups

    return prefix_dup_groups(sf_dir)


SQL_PREFIX_DUP_GROUPS = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
pre AS (SELECT doc_id, array_to_string(ts[1:20], ' ') AS p FROM base)
SELECT min(doc_id) AS rep_doc_id, count(*)::BIGINT AS n_docs
FROM pre GROUP BY p HAVING count(*) >= 2
"""


def q_token_entropy(sf_dir: str):
    from search_engine_ray.ops.textstats import token_entropy_scores

    return token_entropy_scores(sf_dir)


SQL_TOKEN_ENTROPY = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
tot AS (SELECT doc_id, len(ts)::BIGINT AS n_tokens FROM base),
tok AS (SELECT doc_id, unnest(ts) AS t FROM base),
cnt AS (SELECT doc_id, t, count(*)::DOUBLE AS c FROM tok
        GROUP BY doc_id, t),
e AS (SELECT cnt.doc_id,
             -sum((c / n_tokens) * log2(c / n_tokens)) AS ent
      FROM cnt JOIN tot ON cnt.doc_id = tot.doc_id
      GROUP BY cnt.doc_id)
SELECT tot.doc_id, tot.n_tokens,
       coalesce(round(e.ent * 10000), 0)::BIGINT AS entropy_e4
FROM tot LEFT JOIN e ON tot.doc_id = e.doc_id
"""


def q_length_percentile_filter(sf_dir: str):
    from search_engine_ray.ops.textstats import length_percentile_filter

    return length_percentile_filter(sf_dir)


SQL_LENGTH_PERCENTILE_FILTER = """
WITH n AS (SELECT count(*)::BIGINT AS n FROM documents),
cf AS (SELECT n_chars, count(*)::BIGINT AS c FROM documents GROUP BY 1),
cum AS (SELECT n_chars,
               sum(c) OVER (ORDER BY n_chars)::BIGINT AS cum
        FROM cf),
t AS (SELECT min(n_chars)::BIGINT AS thr FROM cum, n
      WHERE cum * 100 >= 90 * n.n)
SELECT lang, count(*)::BIGINT AS n_kept,
       (SELECT thr FROM t) AS threshold
FROM documents WHERE n_chars >= (SELECT thr FROM t)
GROUP BY lang
"""


def q_longest_docs(sf_dir: str):
    from search_engine_ray.ops.textstats import longest_docs

    return longest_docs(sf_dir)


SQL_LONGEST_DOCS = """
SELECT doc_id, lang, n_chars FROM documents
ORDER BY n_chars DESC, doc_id LIMIT 100
"""


def q_source_quality_gate(sf_dir: str):
    from search_engine_ray.ops.textstats import source_quality_gate

    return source_quality_gate(sf_dir)


SQL_SOURCE_QUALITY_GATE = """
WITH ok AS (SELECT source FROM documents GROUP BY source
            HAVING sum(n_chars) >= 290 * count(*))
SELECT doc_id FROM documents
WHERE source IN (SELECT source FROM ok)
"""


def q_doc_salient_term(sf_dir: str):
    from search_engine_ray.ops.textstats import doc_salient_term

    return doc_salient_term(sf_dir)


SQL_DOC_SALIENT_TERM = f"""
WITH tok AS (SELECT doc_id, unnest({_TOKS_SQL}) AS t FROM documents),
tf AS (SELECT doc_id, t, count(*)::BIGINT AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT t, count(*)::BIGINT AS df FROM tf GROUP BY 1)
SELECT doc_id, t AS term, tf, df
FROM tf JOIN df USING (t)
QUALIFY row_number() OVER (PARTITION BY doc_id
                           ORDER BY tf DESC, df ASC, t ASC) = 1
"""


def q_bigram_lm_nll(sf_dir: str):
    from search_engine_ray.ops.textstats import bigram_lm_nll

    return bigram_lm_nll(sf_dir)


# add-one-smoothed bigram LM NLL; per-token log-probs floor(x*1e6+0.5)
# to int64 BEFORE summing (args always positive) so both engines sum
# exact integers — see textstats.bigram_lm_nll
SQL_BIGRAM_LM_NLL = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
toks AS (SELECT doc_id, unnest(ts) AS w FROM base),
uni AS (SELECT w, count(*)::BIGINT AS c FROM toks GROUP BY w),
v AS (SELECT count(*)::BIGINT AS v FROM uni),
db AS (SELECT doc_id, ts[i] AS w1, ts[i] || ' ' || ts[i + 1] AS g
       FROM (SELECT doc_id, ts, unnest(range(1, len(ts))) AS i
             FROM base)),
bc AS (SELECT g, count(*)::BIGINT AS c FROM db GROUP BY g),
lp AS (SELECT d.doc_id,
              floor(ln(b.c + 1) * 1000000 + 0.5)::BIGINT
            - floor(ln(u.c + (SELECT v FROM v)) * 1000000 + 0.5)::BIGINT
              AS l
       FROM db d JOIN bc b ON d.g = b.g JOIN uni u ON d.w1 = u.w),
per AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams,
               (-sum(l))::BIGINT AS nll_e6 FROM lp GROUP BY doc_id)
SELECT d.doc_id, coalesce(p.n_bigrams, 0)::BIGINT AS n_bigrams,
       coalesce(p.nll_e6, 0)::BIGINT AS nll_e6
FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id
"""


def q_dup_ngram_fraction(sf_dir: str):
    from search_engine_ray.ops.textstats import dup_ngram_fraction

    return dup_ngram_fraction(sf_dir)


SQL_DUP_NGRAM_FRACTION = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
pos AS (SELECT doc_id,
               unnest(list_transform(range(1, len(ts) - 3),
                      i -> array_to_string(ts[i:i + 4], ' '))) AS g
        FROM base),
df AS (SELECT g, count(DISTINCT doc_id)::BIGINT AS df FROM pos GROUP BY g),
per AS (SELECT p.doc_id, count(*)::BIGINT AS n_grams,
               sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END)::BIGINT AS n_dup
        FROM pos p JOIN df ON p.g = df.g GROUP BY p.doc_id)
SELECT d.doc_id, coalesce(per.n_grams, 0)::BIGINT AS n_grams,
       coalesce(per.n_dup, 0)::BIGINT AS n_dup
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


def q_dup_passages(sf_dir: str):
    from search_engine_ray.ops.textstats import dup_passages

    return dup_passages(sf_dir)


# gaps-and-islands over duplicated 5-gram positions: equal-length
# intervals sorted by start have sorted ends, so a new island begins
# exactly when p - lag(p) > 5 (the op's merge_islands uses the same law)
SQL_DUP_PASSAGES = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
pos AS (SELECT doc_id, p, array_to_string(ts[p:p + 4], ' ') AS g
        FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - 3)) AS p
              FROM base)),
df AS (SELECT g, count(DISTINCT doc_id)::BIGINT AS df FROM pos GROUP BY g),
dup AS (SELECT p.doc_id, p.p FROM pos p JOIN df ON p.g = df.g
        WHERE df.df >= 2),
brk AS (SELECT doc_id, p,
               CASE WHEN lag(p) OVER w IS NULL
                    OR p - lag(p) OVER w > 5 THEN 1 ELSE 0 END AS b
        FROM dup WINDOW w AS (PARTITION BY doc_id ORDER BY p)),
isl AS (SELECT doc_id, p,
               sum(b) OVER (PARTITION BY doc_id ORDER BY p
                            ROWS UNBOUNDED PRECEDING) AS island
        FROM brk),
spans AS (SELECT doc_id, island, max(p) - min(p) + 5 AS len
          FROM isl GROUP BY doc_id, island),
per AS (SELECT doc_id, count(*)::BIGINT AS n_passages,
               sum(len)::BIGINT AS dup_tokens,
               max(len)::BIGINT AS max_passage
        FROM spans GROUP BY doc_id)
SELECT d.doc_id, coalesce(per.n_passages, 0)::BIGINT AS n_passages,
       coalesce(per.dup_tokens, 0)::BIGINT AS dup_tokens,
       coalesce(per.max_passage, 0)::BIGINT AS max_passage
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


def q_strip_dup_passages(sf_dir: str):
    from search_engine_ray.ops.textstats import strip_dup_passages

    return strip_dup_passages(sf_dir)


SQL_STRIP_DUP_PASSAGES = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
pos AS (SELECT doc_id, p, array_to_string(ts[p:p + 4], ' ') AS g
        FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - 3)) AS p
              FROM base)),
df AS (SELECT g, count(DISTINCT doc_id)::BIGINT AS df FROM pos GROUP BY g),
dup AS (SELECT p.doc_id, p.p FROM pos p JOIN df ON p.g = df.g
        WHERE df.df >= 2),
covered AS (SELECT DISTINCT doc_id, tp FROM
            (SELECT doc_id, unnest(range(p, p + 5)) AS tp FROM dup)),
toks AS (SELECT doc_id, unnest(ts) AS tok,
                unnest(range(1, len(ts) + 1)) AS tp FROM base),
clean AS (SELECT t.doc_id,
                 string_agg(t.tok, ' ' ORDER BY t.tp) AS clean_text
          FROM toks t LEFT JOIN covered c
               ON t.doc_id = c.doc_id AND t.tp = c.tp
          WHERE c.tp IS NULL GROUP BY t.doc_id)
SELECT d.doc_id, coalesce(clean.clean_text, '') AS clean_text
FROM documents d LEFT JOIN clean ON d.doc_id = clean.doc_id
"""


def q_dsir_logratio(sf_dir: str):
    from search_engine_ray.ops.textstats import dsir_logratio

    return dsir_logratio(sf_dir)


SQL_DSIR_LOGRATIO = f"""
WITH base AS (SELECT doc_id, lang, {_TOKS_SQL} AS ts FROM documents),
toks AS (SELECT doc_id, lang, unnest(ts) AS w FROM base),
cc AS (SELECT w, count(*)::BIGINT AS c,
              sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS tc
       FROM toks GROUP BY w),
consts AS (SELECT floor(ln((SELECT sum(c) FROM cc)
                          + (SELECT count(*) FROM cc)) * 1000000
                        + 0.5)::BIGINT
                - floor(ln((SELECT sum(tc) FROM cc)
                          + (SELECT count(*) FROM cc)) * 1000000
                        + 0.5)::BIGINT AS k),
lp AS (SELECT t.doc_id,
              floor(ln(cc.tc + 1) * 1000000 + 0.5)::BIGINT
            - floor(ln(cc.c + 1) * 1000000 + 0.5)::BIGINT AS l
       FROM toks t JOIN cc ON t.w = cc.w),
per AS (SELECT doc_id, count(*)::BIGINT AS n_tokens, sum(l)::BIGINT AS s
        FROM lp GROUP BY doc_id)
SELECT d.doc_id, coalesce(per.n_tokens, 0)::BIGINT AS n_tokens,
       (coalesce(per.s, 0) + coalesce(per.n_tokens, 0)
        * (SELECT k FROM consts))::BIGINT AS llr_e6
FROM documents d LEFT JOIN per ON d.doc_id = per.doc_id
"""


def q_token_budget_mix(sf_dir: str):
    from search_engine_ray.ops.textstats import token_budget_mix

    return token_budget_mix(sf_dir)


def _token_budget_sql() -> str:
    from search_engine_ray.ops.textstats import (
        TOKEN_BUDGET_DEFAULT,
        TOKEN_BUDGETS,
    )

    cases = " ".join(f"WHEN '{s}' THEN {b}"
                     for s, b in sorted(TOKEN_BUDGETS.items()))
    return f"""
WITH base AS (SELECT doc_id, source,
                     len({_TOKS_SQL})::BIGINT AS n_tokens,
                     md5_number_lower(text) % 1000000 AS h
              FROM documents),
w AS (SELECT doc_id, source, n_tokens,
             sum(n_tokens) OVER (PARTITION BY source ORDER BY h, doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum
      FROM base)
SELECT doc_id, source, n_tokens FROM w
WHERE cum <= CASE source {cases} ELSE {TOKEN_BUDGET_DEFAULT} END
"""


SQL_TOKEN_BUDGET_MIX = _token_budget_sql()


def q_weighted_sample(sf_dir: str):
    from search_engine_ray.ops.textstats import weighted_sample_topk

    return weighted_sample_topk(sf_dir)


SQL_WEIGHTED_SAMPLE = """
SELECT doc_id, n_chars FROM (
  SELECT doc_id, n_chars,
         ln((md5_number_lower(text) % 1000000 + 1) / 1000001.0)
           / greatest(n_chars, 1) AS k
  FROM documents ORDER BY k DESC, doc_id LIMIT 50)
"""


def q_phrase_match(sf_dir: str):
    from search_engine_ray.ops.matching import phrase_match_docs

    return phrase_match_docs(sf_dir)


SQL_PHRASE_MATCH = f"""
SELECT doc_id FROM documents
WHERE position(' query scan ' IN
               ' ' || array_to_string({_TOKS_SQL}, ' ') || ' ') > 0
"""


def q_proximity_match(sf_dir: str):
    from search_engine_ray.ops.matching import proximity_match_docs

    return proximity_match_docs(sf_dir)


def q_phrase_match_indexed(sf_dir: str):
    """Same phrase semantics served from the POSITIONAL index (raw
    simple-token positions in the posting encoding) — checked against
    the identical SQL as the scan op."""
    from search_engine_ray.ops.matching import phrase_match_indexed

    return phrase_match_indexed(sf_dir)


def q_proximity_match_indexed(sf_dir: str):
    from search_engine_ray.ops.matching import proximity_match_indexed

    return proximity_match_indexed(sf_dir)


SQL_PROXIMITY_MATCH = f"""
WITH base AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
p1 AS (SELECT doc_id, unnest(list_filter(range(1, len(ts) + 1),
                                         i -> ts[i] = 'query')) AS i
       FROM base),
p2 AS (SELECT doc_id, unnest(list_filter(range(1, len(ts) + 1),
                                         i -> ts[i] = 'scan')) AS i
       FROM base)
SELECT doc_id, min_gap FROM (
  SELECT p1.doc_id, min(abs(p1.i - p2.i))::BIGINT AS min_gap
  FROM p1 JOIN p2 USING (doc_id) GROUP BY p1.doc_id)
WHERE min_gap <= 3
"""


def q_term_cooccurrence_pmi(sf_dir: str):
    from search_engine_ray.ops.textstats import term_cooccurrence_pmi

    return term_cooccurrence_pmi(sf_dir)


SQL_TERM_COOCCURRENCE_PMI = f"""
WITH dt AS (SELECT DISTINCT doc_id, unnest({_TOKS_SQL}) AS t
            FROM documents),
tdc AS (SELECT t, count(*)::BIGINT AS n FROM dt GROUP BY t),
nd AS (SELECT count(*)::BIGINT AS n_docs FROM documents),
voc AS (SELECT t, n FROM tdc ORDER BY n DESC, t LIMIT 24),
pr AS (SELECT x.t AS a, y.t AS b, count(*)::BIGINT AS n_ab
       FROM dt x JOIN dt y ON x.doc_id = y.doc_id AND x.t < y.t
       WHERE x.t IN (SELECT t FROM voc) AND y.t IN (SELECT t FROM voc)
       GROUP BY 1, 2 HAVING count(*) >= 5)
SELECT a, b, n_ab,
       (floor(ln(n_ab) * 1000000 + 0.5)::BIGINT
        + floor(ln((SELECT n_docs FROM nd)) * 1000000 + 0.5)::BIGINT
        - floor(ln(va.n) * 1000000 + 0.5)::BIGINT
        - floor(ln(vb.n) * 1000000 + 0.5)::BIGINT) AS pmi_e6
FROM pr JOIN voc va ON pr.a = va.t JOIN voc vb ON pr.b = vb.t
"""


# ------------------------------------------------- fulltext serving ops
# Prefix / fuzzy lookups serve from the REAL index dictionary (the same
# clean index as index_dict_clean, so dict<->SQL parity is already the
# gated invariant); snippets / facets are streaming corpus scans.

def q_prefix_search(sf_dir: str):
    """Wildcard query 's*' over the index dictionary — a distributed
    scan of the bucketed dict parquet, never a full dict load."""
    from search_engine_ray.ops.fulltext import prefix_search

    return prefix_search(sf_dir, prefix="s")


SQL_PREFIX_SEARCH = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents)
SELECT term, count(DISTINCT doc_id) AS df
FROM toks WHERE term LIKE 's%'
GROUP BY term HAVING count(DISTINCT doc_id) >= 2
ORDER BY term
"""


def q_fuzzy_terms(sf_dir: str):
    """Typo expansion: dictionary terms within edit distance 1 of
    'sow' (vectorized one-edit filter over the distributed dict scan),
    value-checked against DuckDB's levenshtein()."""
    from search_engine_ray.ops.fulltext import fuzzy_terms

    return fuzzy_terms(sf_dir, q="sow")


SQL_FUZZY_TERMS = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents),
dict AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM toks GROUP BY term HAVING count(DISTINCT doc_id) >= 2)
SELECT term, levenshtein(term, 'sow')::BIGINT AS dist, df
FROM dict WHERE levenshtein(term, 'sow') <= 1
ORDER BY term
"""


def q_doc_snippets(sf_dir: str):
    """KWIC snippets: the 3-token window around the first 'spark' in
    each matching doc (vectorized contains-prefilter, then per-match
    window extraction)."""
    from search_engine_ray.ops.fulltext import doc_snippets

    return doc_snippets(sf_dir, term="spark", window=3)


SQL_DOC_SNIPPETS = f"""
WITH toks AS (SELECT doc_id, {_TOKS_SQL} AS ts FROM documents),
pos AS (SELECT doc_id, ts, list_position(ts, 'spark') AS i FROM toks)
SELECT doc_id,
       array_to_string(ts[greatest(1, i - 3):least(len(ts), i + 3)],
                       ' ') AS snippet
FROM pos WHERE i > 0
ORDER BY doc_id
"""


def q_facet_counts(sf_dir: str):
    """Facet sidebar: (source, lang) doc counts for the docs matching
    'spark' — streaming scan, per-batch partial counts, one vectorized
    dimension-sized merge."""
    from search_engine_ray.ops.fulltext import facet_counts

    return facet_counts(sf_dir, term="spark")


SQL_FACET_COUNTS = f"""
SELECT source, lang, count(*) AS n_docs
FROM documents
WHERE list_contains({_TOKS_SQL}, 'spark')
GROUP BY source, lang
ORDER BY source, lang
"""


def q_autocomplete(sf_dir: str):
    """Search-box autocomplete: top-5 dictionary completions per prefix
    by df DESC (ties term ASC), served from the clean index dictionary
    through the term-bucketed winner-rule shuffle."""
    from search_engine_ray.ops.fulltext import autocomplete

    return autocomplete(sf_dir, prefixes=("s", "qu", "w"), k=5)


SQL_AUTOCOMPLETE = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents),
dict AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM toks GROUP BY term HAVING count(DISTINCT doc_id) >= 2),
ranked AS (
  SELECT p.prefix, d.term, d.df,
         row_number() OVER (PARTITION BY p.prefix
                            ORDER BY d.df DESC, d.term) AS rank
  FROM dict d
  JOIN (SELECT * FROM (VALUES ('s'), ('qu'), ('w')) v(prefix)) p
    ON d.term LIKE p.prefix || '%')
SELECT prefix, rank, term, df FROM ranked WHERE rank <= 5
ORDER BY prefix, rank
"""


def q_search_bool_or_clean(sf_dir: str, k: int = 10):
    """Boolean-OR retrieval through the REAL engine (posting-list union
    over the clean index), SQL-checked: first k ascending doc ids
    containing ANY query term; unknown/pruned terms are skipped."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    rows = {"query_id": [], "rank": [], "doc_id": []}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        res = eng.search(q, k=1_000_000_000, mode="bool_or")
        for rank, did in enumerate(sorted(idmap[d] for d in res),
                                   start=1):
            if rank > k:
                break
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(did)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
    })


SQL_SEARCH_BOOL_OR_CLEAN = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_CLEAN_TOKS_SQL})) AS term
  FROM documents),
dict AS (SELECT term FROM toks GROUP BY term HAVING count(*) >= 2),
qterms AS (SELECT * FROM (VALUES __QTERMS__) AS v(query_id, term)),
hits AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM qterms q JOIN toks t ON t.term = q.term
  WHERE q.term IN (SELECT term FROM dict)),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY doc_id) AS rank
  FROM hits)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_BOOL_OR_CLEAN = SQL_SEARCH_BOOL_OR_CLEAN.replace(
    "__QTERMS__", _clean_qterms_values())


# must/must-not filter queries: (query_id, include terms, exclude terms)
_CLEAN_ANDNOT_QUERIES = [
    (0, ["table", "row"], ["spark"]),
    (1, ["data"], ["window", "stream"]),
    (2, ["hash", "join"], ["zzzabsentzzz"]),  # unknown exclude = no-op
    (3, ["zzzabsentzzz"], ["table"]),         # unknown include -> empty
]


def _andnot_values(side: int) -> str:
    vals = []
    for qid, inc, exc in _CLEAN_ANDNOT_QUERIES:
        for t in (inc, exc)[side]:
            vals.append(f"({qid}, '{t}')")
    return ", ".join(vals)


def q_search_and_not_clean(sf_dir: str, k: int = 10):
    """Must/must-not retrieval through the REAL engine: docs containing
    every include term and none of the exclude terms (posting-list
    intersection minus exclude posting lists), SQL-checked."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index, preload_docmeta=False)
    rows = {"query_id": [], "rank": [], "doc_id": []}
    for qid, inc, exc in _CLEAN_ANDNOT_QUERIES:
        res = eng.search_bool_and_not(inc, exc, k=1_000_000_000)
        for rank, did in enumerate(sorted(idmap[d] for d in res),
                                   start=1):
            if rank > k:
                break
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(did)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
    })


SQL_SEARCH_AND_NOT_CLEAN = f"""
WITH toks AS (
  SELECT doc_id, unnest(list_distinct({_CLEAN_TOKS_SQL})) AS term
  FROM documents),
dict AS (SELECT term FROM toks GROUP BY term HAVING count(*) >= 2),
iterms AS (SELECT * FROM (VALUES __ITERMS__) AS v(query_id, term)),
xterms AS (SELECT * FROM (VALUES __XTERMS__) AS v(query_id, term)),
qn AS (SELECT query_id, count(*) AS n FROM iterms GROUP BY query_id),
qok AS (
  SELECT q.query_id FROM iterms q
  GROUP BY q.query_id
  HAVING count(*) = sum(CASE WHEN q.term IN (SELECT term FROM dict)
                             THEN 1 ELSE 0 END)),
base AS (
  SELECT q.query_id, t.doc_id
  FROM iterms q
  JOIN toks t ON t.term = q.term
  JOIN qn ON qn.query_id = q.query_id
  WHERE q.query_id IN (SELECT query_id FROM qok)
  GROUP BY q.query_id, t.doc_id, qn.n
  HAVING count(DISTINCT t.term) = qn.n),
excl AS (
  SELECT DISTINCT q.query_id, t.doc_id
  FROM xterms q JOIN toks t ON t.term = q.term
  WHERE q.term IN (SELECT term FROM dict)),
hits AS (
  SELECT b.query_id, b.doc_id FROM base b
  WHERE NOT EXISTS (SELECT 1 FROM excl e
                    WHERE e.query_id = b.query_id
                      AND e.doc_id = b.doc_id)),
ranked AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY doc_id) AS rank
  FROM hits)
SELECT query_id::BIGINT AS query_id, rank::BIGINT AS rank, doc_id
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_AND_NOT_CLEAN = (SQL_SEARCH_AND_NOT_CLEAN
                            .replace("__ITERMS__", _andnot_values(0))
                            .replace("__XTERMS__", _andnot_values(1)))


# -------------------------------------------------- index merge (r5)
_MERGED_IDX_CACHE: dict[str, str] = {}


def _merged_clean_index(sf_dir: str) -> str:
    """Split the cleaned corpus into two deltas by doc parity, build
    each into its own index, and merge_indexes them (once per process
    per sf_dir).  prune_df1=False is the merge's exact-parity mode, so
    the merged dictionary must equal the SQL df computation over the
    WHOLE corpus — which is what SQL_INDEX_DICT_MERGED checks."""
    import hashlib as _h
    import tempfile

    import ray.data

    from search_engine_ray.adapters import documents_batch_to_pages
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import merge_indexes

    key = os.path.abspath(sf_dir)
    if key in _MERGED_IDX_CACHE:
        return _MERGED_IDX_CACHE[key]
    tag = _h.blake2b(key.encode(), digest_size=6).hexdigest()
    base = os.path.join(tempfile.gettempdir(), f"se_ray_mergeidx_{tag}")
    cfg = EngineConfig(tokenizer="simple", harvest_page_url=False,
                       prune_df1=False)

    def clean_half(parity: int):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            batch = batch.filter(pc.equal(
                pc.bit_wise_and(batch.column("doc_id"), 1), parity))
            texts = [_clean_text(x)
                     for x in batch.column("text").to_pylist()]
            batch = batch.drop_columns(["text"]).append_column(
                "text", pa.array(texts, pa.string()))
            return documents_batch_to_pages(batch)
        return fn

    for parity in (0, 1):
        pages = os.path.join(base, f"pages{parity}")
        if not os.path.exists(os.path.join(pages, "_DONE")):
            import shutil

            shutil.rmtree(pages, ignore_errors=True)
            os.makedirs(pages, exist_ok=True)
            (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"))
             .map_batches(clean_half(parity), batch_format="pyarrow")
             .write_parquet(pages))
            open(os.path.join(pages, "_DONE"), "w").close()
        build_index(pages, os.path.join(base, f"idx{parity}"), cfg)
    merged = os.path.join(base, "merged")
    merge_indexes([os.path.join(base, "idx0"),
                   os.path.join(base, "idx1")], merged)
    _MERGED_IDX_CACHE[key] = merged
    return merged


def q_index_dict_merged(sf_dir: str):
    """Dictionary (term, df) of a MERGED index (two per-delta builds
    folded by merge_indexes) — value-checks the incremental-ingest path
    end-to-end against the same whole-corpus SQL a direct build is
    checked against (no df-prune HAVING: prune_df1=False is the merge's
    exact-parity mode)."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(_merged_clean_index(sf_dir),
                       preload_docmeta=False)
    items = sorted(eng.df_map.items())
    return pa.table({
        "term": pa.array([t for t, _ in items], pa.string()),
        "df": pa.array([d for _, d in items], pa.int64()),
    })


SQL_INDEX_DICT_MERGED = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents)
SELECT term, count(DISTINCT doc_id) AS df
FROM toks GROUP BY term
ORDER BY term
"""


def q_index_dict_deleted(sf_dir: str):
    """Dictionary (term, df) after delete_docs removes every doc with
    original id % 10 == 0 from the clean index — value-checks the
    takedown path end-to-end: df recomputed from surviving postings,
    the df==1 prune re-applied to the new df, corpus stats re-derived.
    The oracle is the clean-dict SQL over the surviving documents (the
    clean corpus has no capitals/entity terms, so the delete path's
    documented caps boundary cannot bite)."""
    import tempfile

    from search_engine_ray.index.merge import delete_docs
    from search_engine_ray.query.engine import SearchEngine

    key = os.path.abspath(sf_dir)
    out = _DELETED_IDX_CACHE.get(key)
    if out is None:
        index, idmap = _clean_index(sf_dir)
        kill = [hashed for hashed, orig in idmap.items()
                if orig % 10 == 0]
        import hashlib as _h

        tag = _h.blake2b(key.encode(), digest_size=6).hexdigest()
        out = os.path.join(tempfile.gettempdir(),
                           f"se_ray_delidx_{tag}")
        delete_docs(index, kill, out)
        _DELETED_IDX_CACHE[key] = out
    eng = SearchEngine(out, preload_docmeta=False)
    items = sorted(eng.df_map.items())
    return pa.table({
        "term": pa.array([t for t, _ in items], pa.string()),
        "df": pa.array([d for _, d in items], pa.int64()),
    })


_DELETED_IDX_CACHE: dict[str, str] = {}


SQL_INDEX_DICT_DELETED = f"""
WITH toks AS (
  SELECT doc_id, unnest({_CLEAN_TOKS_SQL}) AS term FROM documents
  WHERE doc_id % 10 != 0)
SELECT term, count(DISTINCT doc_id) AS df
FROM toks GROUP BY term HAVING count(DISTINCT doc_id) >= 2
ORDER BY term
"""


def _click_edges_ctes() -> str:
    """ONE source for the click-graph edge derivation CTEs (ev -> evk
    -> pairs -> edges) shared by the PageRank and triangle mirrors —
    the edge rule cannot diverge between them."""
    return """ev AS (
  -- integer-token gate: TRY_CAST alone would ROUND float tokens
  -- ('1.5' -> 2), diverging from the op's ints-only node rule
  SELECT user_id, ts, event_id,
         CASE WHEN regexp_matches(
                json_extract_string(props, '$.k'), '^-?[0-9]+$')
              THEN TRY_CAST(
                json_extract_string(props, '$.k') AS BIGINT) END AS k
  FROM events
), evk AS (SELECT * FROM ev WHERE k IS NOT NULL),
pairs AS (
  SELECT k AS src,
         lead(k) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dst
  FROM evk
), edges AS (
  SELECT src, dst, count(*) AS w FROM pairs WHERE dst IS NOT NULL
  GROUP BY src, dst
)"""


def _pagerank_sql(iters: int = 10, scale: int = 10**12,
                  damping_pct: int = 85) -> str:
    """Unrolled fixed-iteration PageRank mirror (recursive CTEs cannot
    aggregate over the recursive reference, so each step is its own
    CTE).  Same integer arithmetic as ops/graph.pagerank_from_edges:
    the per-edge contribution identity (r//wout)*w + ((r%wout)*w)//wout
    equals floor(r*w/wout) exactly, and DuckDB's BIGINT sums promote to
    HUGEINT, so both sides are order-free and hash-identical."""
    jump = 100 - damping_pct
    steps = []
    prev = "pr0"
    for t in range(1, iters + 1):
        steps.append(f"""pr{t} AS (
  SELECT nodes.node,
         ({jump} * {scale}) // (100 * (SELECT n FROM const))
         + ({damping_pct} * COALESCE(c.s, 0)) // 100 AS r
  FROM nodes LEFT JOIN (
    SELECT e.dst AS node,
           sum((p.r // o.wout) * e.w + ((p.r % o.wout) * e.w) // o.wout)
             AS s
    FROM edges e JOIN {prev} p ON p.node = e.src
    JOIN outdeg o ON o.src = e.src
    GROUP BY e.dst) c ON c.node = nodes.node
)""")
        prev = f"pr{t}"
    return f"""
WITH {_click_edges_ctes()}, nodes AS (
  SELECT DISTINCT node FROM
    (SELECT src AS node FROM edges UNION ALL SELECT dst FROM edges)
), outdeg AS (SELECT src, sum(w) AS wout FROM edges GROUP BY src),
const AS (SELECT count(*) AS n FROM nodes),
pr0 AS (
  SELECT node, {scale} // (SELECT n FROM const) AS r FROM nodes
), {', '.join(steps)}
SELECT node, CAST(r AS BIGINT) AS rank_e12 FROM {prev} ORDER BY node
"""


SQL_CLICK_PAGERANK = _pagerank_sql()


def q_substring_search(sf_dir: str):
    """Infix search served from the trigram index (rarest-first posting
    intersection + exact verify); the scan op is the same contract."""
    from search_engine_ray.ops.substring import substring_search

    return substring_search(sf_dir, needle="ter scan")


SQL_SUBSTRING_SEARCH = """
SELECT doc_id FROM documents WHERE contains(text, 'ter scan')
ORDER BY doc_id
"""


def q_chunk_documents(sf_dir: str):
    """Per-doc sliding-window chunking (chunk=32, stride=24): one
    streaming map, no shuffle; tails kept, doc boundaries respected."""
    from search_engine_ray.ops.textstats import chunk_documents

    return chunk_documents(sf_dir, chunk=32, stride=24)


SQL_CHUNK_DOCUMENTS = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS t FROM documents
)
SELECT doc_id,
       CAST(i // 24 AS BIGINT) AS chunk_idx,
       CAST(least(i + 32, len(t)) - i AS BIGINT) AS n_tokens,
       array_to_string(t[i + 1 : least(i + 32, len(t))], ' ')
         AS chunk_text
FROM toks, UNNEST(range(0, len(t), 24)) AS u(i)
"""


def q_regex_search(sf_dir: str):
    """Regex search from the trigram index: mandatory-literal trigram
    prune + RE2 verify (pyarrow and DuckDB share the RE2 engine)."""
    from search_engine_ray.ops.substring import regex_search

    return regex_search(sf_dir, pattern="ter (scan|merge)")


SQL_REGEX_SEARCH = """
SELECT doc_id FROM documents
WHERE regexp_matches(text, 'ter (scan|merge)')
ORDER BY doc_id
"""


def q_epoch_order(sf_dir: str):
    """Deterministic epoch shuffle: global rank under a seeded md5 key
    (two-phase hash-range prefix scan; no global sort-and-enumerate)."""
    from search_engine_ray.ops.textstats import epoch_order

    return epoch_order(sf_dir, seed=0)


SQL_EPOCH_ORDER = """
SELECT doc_id,
       CAST(row_number() OVER (
         ORDER BY md5(concat('0:', doc_id)), doc_id) - 1 AS BIGINT) AS pos
FROM documents
"""


SQL_HASHED_BOW = """
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
)
SELECT doc_id,
       CAST(CAST('0x' || substr(md5(tok), 1, 8) AS BIGINT) % 64
            AS BIGINT) AS dim,
       CAST(count(*) AS BIGINT) AS tf
FROM toks WHERE tok <> ''
GROUP BY doc_id, dim
"""


SQL_TEXT_KNN_HASHED = """
WITH v AS (
  SELECT doc_id,
         CAST(CAST('0x' || substr(md5(tok), 1, 8) AS BIGINT) % 64
              AS BIGINT) AS dim,
         count(*) AS tf
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS tok
        FROM documents)
  WHERE tok <> '' GROUP BY doc_id, dim
), q AS (SELECT dim, tf FROM v WHERE doc_id = 3)
SELECT v.doc_id, CAST(sum(v.tf * q.tf) AS BIGINT) AS dot
FROM v JOIN q USING (dim)
WHERE v.doc_id <> 3
GROUP BY v.doc_id
ORDER BY dot DESC, v.doc_id LIMIT 10
"""


SQL_FUZZY_NAME_PAIRS = """
SELECT a.c_custkey AS k1, b.c_custkey AS k2
FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
ORDER BY k1, k2
"""


def q_percolate(sf_dir: str):
    """Standing-query percolation: which stored boolean-AND queries
    match each doc (broadcast registry, one streaming corpus pass)."""
    from search_engine_ray.ops.matching import percolate

    return percolate(sf_dir)


SQL_PERCOLATE = f"""
WITH t AS (
  SELECT doc_id,
         ' ' || array_to_string({_TOKS_SQL}, ' ') || ' ' AS j
  FROM documents)
SELECT doc_id, CAST(1 AS BIGINT) AS query_id FROM t
WHERE position(' spark ' IN j) > 0 AND position(' data ' IN j) > 0
UNION ALL
SELECT doc_id, CAST(2 AS BIGINT) FROM t
WHERE position(' query ' IN j) > 0 AND position(' scan ' IN j) > 0
UNION ALL
SELECT doc_id, CAST(3 AS BIGINT) FROM t
WHERE position(' zzznope ' IN j) > 0
"""


# ---------------------------------------------- quoted-phrase ranked search
# Lucene's `"exact phrase" rest` query shape: every result doc must
# contain each double-quoted span as an exact token sequence (served
# from the POSITIONAL postings — phrase_docs, no corpus scan); scoring
# stays plain BM25 over ALL query terms (quoted words score too), so a
# doc's score is filter-invariant (same convention as ts_range).  Runs
# over the raw-token positional index (prune_df1=False), so the mirror
# is the no-prune raw-token BM25 CTE + a position() phrase gate.
_PHRASE_RANKED_QUERIES = [
    (0, '"query scan" table'),
    (1, '"spark data"'),
    (2, '"data" "table scan"'),     # two phrases -> intersection
    (3, '"zzznope query" spark'),   # absent phrase -> no rows
]


def q_search_phrase_ranked(sf_dir: str, k: int = 10):
    """Quoted-phrase ranked search through the REAL engine (positional
    posting decode, packed-key phrase kernel, BM25 TAAT, (score, ts,
    id) ranking); SQL-checked."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.engine import parse_quoted_query

    eng, idmap = positional_index(sf_dir)
    pairs = []
    for qid, q in _PHRASE_RANKED_QUERIES:
        text, phrases = parse_quoted_query(q)
        res = eng.search(text, k=k, mode="bm25", phrases=phrases)
        pairs.append((qid, list(reversed(res)), 1))
    return _ranked_table(pairs, idmap)


def _phrase_ranked_qterms_values() -> str:
    from search_engine_ray.query.engine import parse_quoted_query
    from search_engine_ray.text.tokenizer import simple_tokenize

    vals = []
    for qid, q in _PHRASE_RANKED_QUERIES:
        text, _ = parse_quoted_query(q)
        for t in dict.fromkeys(simple_tokenize(text)):
            vals.append(f"({qid}, '{t}')")
    return ", ".join(vals)


def _phrase_ranked_qphrase_values() -> str:
    from search_engine_ray.query.engine import parse_quoted_query
    from search_engine_ray.text.tokenizer import simple_tokenize

    vals = []
    for qid, q in _PHRASE_RANKED_QUERIES:
        _, phrases = parse_quoted_query(q)
        for ph in phrases:
            joined = " ".join(simple_tokenize(ph))
            vals.append(f"({qid}, ' {joined} ')")
    return ", ".join(vals)


SQL_SEARCH_PHRASE_RANKED = f"""
WITH {_bm25_core_ctes(False, toks_sql=_TOKS_SQL)},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
qphrase(query_id, ph) AS (VALUES {{QPHRASES}}),
nph AS (SELECT query_id, count(*) AS n FROM qphrase GROUP BY query_id),
hit AS (SELECT p.query_id, d.doc_id
        FROM qphrase p JOIN docs d
        ON position(p.ph IN ' ' || array_to_string(d.toks, ' ') || ' ') > 0),
mtch AS (SELECT h.query_id, h.doc_id
         FROM hit h JOIN nph USING (query_id)
         GROUP BY h.query_id, h.doc_id, nph.n HAVING count(*) = nph.n),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qterms q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT c.query_id, c.doc_id, sum(c.c) AS score
           FROM contrib c JOIN mtch m
           ON m.query_id = c.query_id AND m.doc_id = c.doc_id
           GROUP BY c.query_id, c.doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_PHRASE_RANKED = (SQL_SEARCH_PHRASE_RANKED
                            .replace("{QTERMS}",
                                     _phrase_ranked_qterms_values())
                            .replace("{QPHRASES}",
                                     _phrase_ranked_qphrase_values()))


# ------------------------------------------- champion-list tiered retrieval
# Tiered-index approximate top-k (IIR §7.1 champion lists): per query
# term only its m highest-tf postings (ties -> oldest doc, ts asc)
# enter the candidate set; candidates score with FULL BM25 from every
# query term.  The champion rule is deterministic, so the mirror
# reproduces the approximation EXACTLY (value-hash, not recall-only);
# recall-vs-exact is property-tested in the suite.
_TIERED_M = 8


def q_search_tiered(sf_dir: str, k: int = 10):
    """Champion-list tiered BM25 through the REAL engine over the clean
    index; SQL-checked (same queries as the exact-BM25 mirror, so the
    two rows also document what the m=8 approximation changes)."""
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search_tiered(q, k=k, m=_TIERED_M))), 1)
         for qid, q in _CLEAN_SEARCH_QUERIES), idmap)


# the champ CTE orders by (tf desc, doc_id asc) while the engine's
# champion rule (engine.champion_order) is (tf desc, ts asc, doc_id asc):
# doc_id ASC stands in for ts ASC only because the adapter maps
# warc_ts = BASE + doc_id seconds, so ts order IS original-doc-id order
# here (same mapping as _TS_WINDOW_IDS)
SQL_SEARCH_TIERED = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
champ AS (SELECT term, doc_id FROM (
    SELECT tf.term, tf.doc_id,
           row_number() OVER (PARTITION BY tf.term
                              ORDER BY tf.tf DESC, tf.doc_id ASC) AS rn
    FROM tf JOIN df ON tf.term = df.term
    WHERE tf.term IN (SELECT DISTINCT term FROM qterms))
  WHERE rn <= {_TIERED_M}),
cand AS (SELECT DISTINCT q.query_id, c.doc_id
         FROM qterms q JOIN champ c ON q.term = c.term),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qterms q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT co.query_id, co.doc_id, sum(co.c) AS score
           FROM contrib co JOIN cand
           ON cand.query_id = co.query_id AND cand.doc_id = co.doc_id
           GROUP BY co.query_id, co.doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_TIERED = SQL_SEARCH_TIERED.replace(
    "{QTERMS}", _clean_qterms_values())


# --------------------------------------------------- total-hit counts
# The Elasticsearch track_total_hits surface: exact OR/AND match counts
# per query straight off the posting lists — no scoring, no ranking, no
# metadata gather.  n_and is 0 when any term is unknown/df-pruned
# (boolean-AND semantics; the SQL needs no special case — an unknown
# term keeps every doc below the full term count).
def q_search_hit_counts(sf_dir: str):
    from search_engine_ray.query.engine import SearchEngine

    index, _ = _clean_index(sf_dir)
    eng = SearchEngine(index)
    rows = {"query_id": [], "n_or": [], "n_and": []}
    for qid, q in _CLEAN_SEARCH_QUERIES:
        c = eng.match_counts(q)
        rows["query_id"].append(qid)
        rows["n_or"].append(c["n_or"])
        rows["n_and"].append(c["n_and"])
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "n_or": pa.array(rows["n_or"], pa.int64()),
        "n_and": pa.array(rows["n_and"], pa.int64()),
    })


SQL_SEARCH_HIT_COUNTS = f"""
WITH {_BM25_CORE_CTES},
qids(query_id) AS (VALUES (0), (1), (2), (3)),
qterms(query_id, term) AS (VALUES {{QTERMS}}),
qn AS (SELECT query_id, count(DISTINCT term) AS nt
       FROM qterms GROUP BY query_id),
dt AS (SELECT q.query_id, tf.doc_id, q.term
       FROM qterms q JOIN df ON q.term = df.term
       JOIN tf ON tf.term = q.term),
per AS (SELECT query_id, doc_id, count(*) AS nterm
        FROM dt GROUP BY query_id, doc_id),
agg AS (SELECT p.query_id, count(*) AS n_or,
               count(*) FILTER (WHERE p.nterm = qn.nt) AS n_and
        FROM per p JOIN qn USING (query_id) GROUP BY p.query_id)
SELECT q.query_id, COALESCE(a.n_or, 0)::BIGINT AS n_or,
       COALESCE(a.n_and, 0)::BIGINT AS n_and
FROM qids q LEFT JOIN agg a USING (query_id)
ORDER BY q.query_id
"""
SQL_SEARCH_HIT_COUNTS = SQL_SEARCH_HIT_COUNTS.replace(
    "{QTERMS}", _clean_qterms_values())


# ----------------------------------------- proximity-boosted BM25 ranking
# Proximity-integrated BM25 (Rasolofo & Savoy 2003 shape): BM25 plus a
# weight/(1+min_gap) bonus per adjacent query-term pair co-occurring
# within the window — served from the positional postings.  Queries are
# kept to <=3 terms (<=2 pairs) so the engine's single vector add of
# the boost matches SQL's sum() without float-association drift (a
# two-value sum is a single IEEE add on both sides).
_PROX_BOOST_QUERIES = [
    (0, "query scan table"),
    (1, "spark data"),
    (2, "slow query scan"),
    (3, "data zzznope"),        # pair with an unknown term -> no boost
]
_PROX_WINDOW, _PROX_WEIGHT = 8, 0.5


def q_search_prox_boosted(sf_dir: str, k: int = 10):
    """Proximity-boosted BM25 through the REAL engine (positional
    posting decode, proximity kernel min gaps, one-vector-add boost);
    SQL-checked over the raw-token positional index."""
    from search_engine_ray.ops.matching import positional_index

    eng, idmap = positional_index(sf_dir)
    return _ranked_table(
        ((qid, list(reversed(eng.search_proximity_boosted(
            q, k=k, window=_PROX_WINDOW, weight=_PROX_WEIGHT))), 1)
         for qid, q in _PROX_BOOST_QUERIES), idmap)


def _prox_boost_qterms_values() -> str:
    from search_engine_ray.text.tokenizer import simple_tokenize

    vals = []
    for qid, q in _PROX_BOOST_QUERIES:
        for t in dict.fromkeys(simple_tokenize(q)):
            vals.append(f"({qid}, '{t}')")
    return ", ".join(vals)


def _prox_boost_qpairs_values() -> str:
    from search_engine_ray.query.engine import adjacent_term_pairs
    from search_engine_ray.text.tokenizer import simple_tokenize

    vals = []
    for qid, q in _PROX_BOOST_QUERIES:
        for t1, t2 in adjacent_term_pairs(simple_tokenize(q)):
            vals.append(f"({qid}, '{t1}', '{t2}')")
    return ", ".join(vals)


SQL_SEARCH_PROX_BOOSTED = f"""
WITH {_bm25_core_ctes(False, toks_sql=_TOKS_SQL)},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
qpairs(query_id, t1, t2) AS (VALUES {{QPAIRS}}),
pterms AS (SELECT DISTINCT t1 AS t FROM qpairs
           UNION SELECT DISTINCT t2 FROM qpairs),
ppos AS (SELECT d.doc_id, p.t,
                unnest(list_filter(range(1, len(d.toks) + 1),
                                   i -> d.toks[i] = p.t)) AS i
         FROM docs d, pterms p),
gaps AS (SELECT q.query_id, q.t1, q.t2, a.doc_id,
                min(abs(a.i - b.i))::BIGINT AS g
         FROM qpairs q
         JOIN ppos a ON a.t = q.t1
         JOIN ppos b ON b.t = q.t2 AND b.doc_id = a.doc_id
         GROUP BY 1, 2, 3, 4),
boost AS (SELECT query_id, doc_id,
                 sum({_PROX_WEIGHT} / (1 + g)) AS bst
          FROM gaps WHERE g <= {_PROX_WINDOW} GROUP BY 1, 2),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qterms q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT c.query_id, c.doc_id,
                  sum(c.c) + COALESCE(any_value(b.bst), 0) AS score
           FROM contrib c LEFT JOIN boost b
           ON b.query_id = c.query_id AND b.doc_id = c.doc_id
           GROUP BY c.query_id, c.doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_PROX_BOOSTED = (SQL_SEARCH_PROX_BOOSTED
                           .replace("{QTERMS}",
                                    _prox_boost_qterms_values())
                           .replace("{QPAIRS}",
                                    _prox_boost_qpairs_values()))


# ------------------------------------------------- indexed SERP snippets
# Ranked SERP with snippets and ZERO corpus scan: top-k off the
# positional index, first-occurrence position from the POSITIONAL
# POSTINGS, texts point-read for the k hits only — the cost shape for a
# 10^12-doc corpus (the scan-based doc_snippets op streams the whole
# store).  Snippet rule: window tokens around the first occurrence of
# the FIRST query term (query order) the doc contains.
_SERP_SNIPPET_QUERIES = [
    (0, "query scan"),
    (1, "data table fast"),
    (2, "zzznope"),             # unknown -> no rows
]
_SERP_WINDOW = 3


def q_serp_snippets_indexed(sf_dir: str, k: int = 10):
    from search_engine_ray.ops.fulltext import serp_snippets_indexed

    return serp_snippets_indexed(
        sf_dir, [q for _, q in _SERP_SNIPPET_QUERIES], k=k,
        window=_SERP_WINDOW)


def _serp_qorder_values() -> str:
    from search_engine_ray.text.tokenizer import simple_tokenize

    vals = []
    for qid, q in _SERP_SNIPPET_QUERIES:
        for ordn, t in enumerate(dict.fromkeys(simple_tokenize(q))):
            vals.append(f"({qid}, {ordn}, '{t}')")
    return ", ".join(vals)


SQL_SERP_SNIPPETS_INDEXED = f"""
WITH {_bm25_core_ctes(False, toks_sql=_TOKS_SQL)},
qorder(query_id, ord, term) AS (VALUES {{QORDER}}),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qorder q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored),
hits AS (SELECT * FROM ranked WHERE rank <= 10),
ft AS (SELECT h.query_id, h.doc_id, min(o.ord) AS ord
       FROM hits h JOIN qorder o ON o.query_id = h.query_id
       JOIN docs d ON d.doc_id = h.doc_id
       WHERE list_contains(d.toks, o.term)
       GROUP BY h.query_id, h.doc_id),
sn AS (SELECT f.query_id, f.doc_id,
              list_position(d.toks, o.term) AS pos, d.toks
       FROM ft f
       JOIN qorder o ON o.query_id = f.query_id AND o.ord = f.ord
       JOIN docs d ON d.doc_id = f.doc_id)
SELECT h.query_id, h.rank, h.doc_id,
       round(h.score * 1000000)::BIGINT AS score_e6,
       COALESCE(array_to_string(
         s.toks[greatest(1, s.pos - {_SERP_WINDOW}):
                least(len(s.toks), s.pos + {_SERP_WINDOW})], ' '),
         '') AS snippet
FROM hits h LEFT JOIN sn s
ON s.query_id = h.query_id AND s.doc_id = h.doc_id
"""
SQL_SERP_SNIPPETS_INDEXED = SQL_SERP_SNIPPETS_INDEXED.replace(
    "{QORDER}", _serp_qorder_values())


def q_c4_quality_flags(sf_dir: str):
    """C4-style doc-level quality flags (boilerplate markers + banned
    lexicon count + keep rule)."""
    from search_engine_ray.ops.textstats import c4_quality_flags

    return c4_quality_flags(sf_dir)


SQL_C4_QUALITY_FLAGS = f"""
WITH t AS (
  SELECT doc_id, text, {_TOKS_SQL} AS toks,
         ' ' || array_to_string({_TOKS_SQL}, ' ') || ' ' AS j
  FROM documents)
SELECT doc_id,
       contains(text, '{{') AS has_brace,
       contains(lower(text), 'lorem ipsum') AS has_lorem,
       contains(j, ' javascript ') AS has_js,
       len(list_filter(toks, x -> x IN ('slow', 'legacy')))::BIGINT
         AS banned_n,
       (NOT contains(text, '{{') AND NOT contains(lower(text),
        'lorem ipsum') AND NOT contains(j, ' javascript ')
        AND len(list_filter(toks, x -> x IN ('slow', 'legacy'))) = 0)
         AS keep
FROM t
"""


# ------------------------------------------------ rare-first retrieval
# Lucene CommonTermsQuery: low-df terms (df * 2 < n_docs) drive the
# candidate set, every term scores.  The mirror queries each contain at
# least one low-df term, so the engine's no-low-term fallback (plain
# BM25) never fires here — it is unit-gated instead.
_COMMON_TERMS_QUERIES = [
    (0, "dup table scan"),
    (1, "dup data"),
    (2, "dup"),
    (3, "zzznope dup query"),
]


def q_search_common_terms(sf_dir: str, k: int = 10):
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search_common_terms(q, k=k))), 1)
         for qid, q in _COMMON_TERMS_QUERIES), idmap)


def _common_terms_qterms_values() -> str:
    vals = []
    for qid, q in _COMMON_TERMS_QUERIES:
        for t in _clean_query_terms(q):
            vals.append(f"({qid}, '{t}')")
    return ", ".join(vals)


SQL_SEARCH_COMMON_TERMS = f"""
WITH {_BM25_CORE_CTES},
qterms(query_id, term) AS (VALUES {{QTERMS}}),
low AS (SELECT q.query_id, q.term FROM qterms q
        JOIN df ON q.term = df.term, stats
        WHERE df.df * 2 < stats.n_docs),
cand AS (SELECT DISTINCT l.query_id, tf.doc_id
         FROM low l JOIN tf ON tf.term = l.term),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qterms q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT co.query_id, co.doc_id, sum(co.c) AS score
           FROM contrib co JOIN cand
           ON cand.query_id = co.query_id AND cand.doc_id = co.doc_id
           GROUP BY co.query_id, co.doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
SQL_SEARCH_COMMON_TERMS = SQL_SEARCH_COMMON_TERMS.replace(
    "{QTERMS}", _common_terms_qterms_values())


def q_train_test_split(sf_dir: str):
    """Deterministic hash split (doc-keyed)."""
    from search_engine_ray.ops.dedup import train_test_split

    return train_test_split(sf_dir)


SQL_TRAIN_TEST_SPLIT = """
WITH b AS (
  SELECT doc_id,
         CAST('0x' || substr(md5(concat('s1:', doc_id)), 1, 8)
              AS BIGINT) % 100 AS bucket
  FROM documents)
SELECT doc_id, bucket,
       CASE WHEN bucket < 10 THEN 'test'
            WHEN bucket < 20 THEN 'val' ELSE 'train' END AS split
FROM b
"""


def q_leakage_safe_split(sf_dir: str):
    """Leakage-safe split: hash keyed by near-dup component root, so
    near-duplicates never straddle train/test."""
    from search_engine_ray.ops.dedup import train_test_split

    return train_test_split(sf_dir, leakage_safe=True)


SQL_LEAKAGE_SAFE_SPLIT = f"""
{_NEARDUP_CTES},
keyd AS (SELECT d.doc_id, COALESCE(roots.root, d.doc_id) AS key
         FROM documents d LEFT JOIN roots ON d.doc_id = roots.x),
b AS (SELECT doc_id,
             CAST('0x' || substr(md5(concat('s1:', key)), 1, 8)
                  AS BIGINT) % 100 AS bucket
      FROM keyd)
SELECT doc_id, bucket,
       CASE WHEN bucket < 10 THEN 'test'
            WHEN bucket < 20 THEN 'val' ELSE 'train' END AS split
FROM b
"""


def q_ngram_diversity(sf_dir: str):
    """Distinct-n corpus diversity report (n=1..3)."""
    from search_engine_ray.ops.textstats import ngram_diversity

    return ngram_diversity(sf_dir)


SQL_NGRAM_DIVERSITY = f"""
WITH tl AS (SELECT doc_id, {_TOKS_SQL} AS t FROM documents),
tk AS (SELECT doc_id, unnest(t) AS x,
              generate_subscripts(t, 1) AS pos FROM tl),
g1 AS (SELECT x AS g FROM tk),
g2 AS (SELECT a.x || ' ' || b.x AS g FROM tk a
       JOIN tk b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1),
g3 AS (SELECT a.x || ' ' || b.x || ' ' || c.x AS g FROM tk a
       JOIN tk b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
       JOIN tk c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2),
u AS (
  SELECT 1 AS n, count(*)::BIGINT AS total,
         count(DISTINCT g)::BIGINT AS n_distinct FROM g1
  UNION ALL
  SELECT 2, count(*), count(DISTINCT g) FROM g2
  UNION ALL
  SELECT 3, count(*), count(DISTINCT g) FROM g3)
SELECT n::BIGINT AS n, total, n_distinct,
       CASE WHEN total > 0 THEN (1000000 * n_distinct) // total
            ELSE 0 END::BIGINT AS ratio_e6
FROM u ORDER BY n
"""


# ----------------------------------------------- search-as-you-type
# Instant search: the last token is a prefix being typed, OR-expanded
# to its top-3 dictionary completions by (df desc, term asc); head
# terms score as usual.  Fully deterministic, so the composition is
# value-hash-checked end to end.
_SAYT_QUERIES = [
    (0, "spark jo"),
    (1, "data quer"),
    (2, "zz"),          # no completion, unknown prefix -> no rows
    (3, "merge"),       # single token: pure prefix query
]


def q_search_as_you_type(sf_dir: str, k: int = 10):
    from search_engine_ray.query.engine import SearchEngine

    index, idmap = _clean_index(sf_dir)
    eng = SearchEngine(index)
    return _ranked_table(
        ((qid, list(reversed(eng.search_as_you_type(q, k=k))), 1)
         for qid, q in _SAYT_QUERIES), idmap)


def _sayt_values() -> tuple[str, str]:
    from search_engine_ray.text.stopwords import STOPWORDS
    from search_engine_ray.text.tokenizer import simple_tokenize

    heads, pres = [], []
    for qid, q in _SAYT_QUERIES:
        # split head/prefix BEFORE dedup — the engine expands the
        # actual LAST-TYPED token even when it repeats an earlier one
        toks = [t for t in simple_tokenize(q)
                if t.isalpha() and t not in _CLEAN_DROP
                and t not in STOPWORDS]
        if not toks:
            continue
        *head, pre = toks
        for t in dict.fromkeys(head):
            heads.append(f"({qid}, '{t}')")
        pres.append(f"({qid}, '{pre}')")
    return (", ".join(heads) or "(-1, '')",
            ", ".join(pres) or "(-1, '')")


SQL_SEARCH_AS_YOU_TYPE = f"""
WITH {_BM25_CORE_CTES},
qhead(query_id, term) AS (VALUES {{QHEAD}}),
qpre(query_id, pre) AS (VALUES {{QPRE}}),
comp AS (SELECT q.query_id, d.term,
                row_number() OVER (PARTITION BY q.query_id
                                   ORDER BY d.df DESC, d.term ASC)
                    AS rn
         FROM qpre q JOIN df d ON d.term LIKE q.pre || '%'
         WHERE q.query_id >= 0),
qterms AS (SELECT query_id, term FROM qhead WHERE query_id >= 0
           UNION
           SELECT query_id, term FROM comp WHERE rn <= 3),
contrib AS (
  SELECT q.query_id, tf.doc_id, {_BM25_C_EXPR} AS c
  FROM qterms q JOIN df ON q.term = df.term
  JOIN tf ON tf.term = q.term JOIN docs d ON d.doc_id = tf.doc_id, stats),
scored AS (SELECT query_id, doc_id, sum(c) AS score
           FROM contrib GROUP BY query_id, doc_id),
ranked AS (SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id DESC)
                      AS rank
           FROM scored)
SELECT query_id, rank, doc_id, round(score * 1000000)::BIGINT AS score_e6
FROM ranked WHERE rank <= 10
"""
_H, _P = _sayt_values()
SQL_SEARCH_AS_YOU_TYPE = (SQL_SEARCH_AS_YOU_TYPE
                          .replace("{QHEAD}", _H).replace("{QPRE}", _P))
