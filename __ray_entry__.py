"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship pipeline (full index build + BM25 search) over
/root/testdata/sf0.001.  ``queries()`` — one entry per driver-checked
index, search or curation pipeline; ``oracle_sql()`` — DuckDB-equivalent
SQL for every SQL-expressible entry (same column names, floats rounded
identically on both sides).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections.abc import Callable
from typing import Any

_FLAGSHIP_QUERIES = [
    "spark join merge",
    "customer order line",
    "window agg stream",
    "vector batch",
    "slow query scan",
    "hash table",
    "data",
    "the and a",            # stopword-only -> empty
    "zzzabsentzzz spark",   # unknown + known term
]

_INDEX_CACHE: dict[str, str] = {}


def _built_index(sf_dir: str) -> str:
    """Build (once per sf_dir per process) the full index over the adapted
    documents table; returns the index dir."""
    from search_engine_ray.adapters import documents_to_pages_parquet
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.index.build import build_index

    key = os.path.abspath(sf_dir)
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    tag = hashlib.blake2b(key.encode(), digest_size=6).hexdigest()
    base = os.path.join(tempfile.gettempdir(), f"se_ray_idx_{tag}")
    pages = os.path.join(base, "pages")
    index = os.path.join(base, "index")
    if not os.path.exists(os.path.join(pages, "_DONE")):
        # clean slate: the adapter's ray.data path APPENDS uuid-named
        # files, so a crash between a partial write and the _DONE
        # marker would otherwise leave duplicates a rerun builds over
        import shutil

        shutil.rmtree(pages, ignore_errors=True)
        documents_to_pages_parquet(sf_dir, pages)
        open(os.path.join(pages, "_DONE"), "w").close()
    build_index(pages, index, EngineConfig())  # resumes if complete
    _INDEX_CACHE[key] = index
    return index


def _search_explain_stats(sf_dir: str):
    """Rows-only: block-max WAND pruning counters per fixture query
    (results are parity-gated against mode="bm25" by the suite)."""
    import pyarrow as pa

    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(_built_index(sf_dir))
    rows = {k: [] for k in ("query_id", "terms", "postings_total",
                            "full_evals", "bm_skips", "pivot_advances",
                            "heap_inserts")}
    for qid, q in enumerate(_FLAGSHIP_QUERIES):
        _, st = eng.search_explain(q, k=10)
        rows["query_id"].append(qid)
        for k in ("terms", "postings_total", "full_evals", "bm_skips",
                  "pivot_advances", "heap_inserts"):
            rows[k].append(int(st.get(k, 0)))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def _search_topk(sf_dir: str, mode: str):
    import pyarrow as pa

    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(_built_index(sf_dir))
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": []}
    for qi, q in enumerate(_FLAGSHIP_QUERIES):
        res = eng.search(q, k=10, mode=mode)
        # results ascending (score, ts, id); rank 1 = best
        for rank, (score, doc_id, ts) in enumerate(reversed(res), start=1):
            rows["query_id"].append(qi)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(round(score, 6))
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "score": pa.array(rows["score"], pa.float64()),
    })


def _bpe_train(sf_dir: str):
    from search_engine_ray.ops.textstats import bpe_merges_table

    return bpe_merges_table(sf_dir)


def _bpe_encode(sf_dir: str):
    """Apply the learned BPE merges back over the corpus (the serving
    half of bpe_train_merges); parity-gated by an independent encoder
    in the suite — iterative rank-argmin merging is not SQL."""
    from search_engine_ray.ops.textstats import bpe_encode_counts

    return bpe_encode_counts(sf_dir)


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents (adapter
    -> parse -> dict -> sharded postings -> docmeta) and run the BM25
    query set; returns the top-k result table."""
    return _search_topk("/root/testdata/sf0.001", "bm25")


def queries() -> dict[str, Callable[[str], Any]]:
    from search_engine_ray.ops import sqlcheck as sq

    def index_dictionary(sf_dir: str):
        import pyarrow as pa

        from search_engine_ray.query.engine import SearchEngine

        eng = SearchEngine(_built_index(sf_dir), preload_docmeta=False)
        items = sorted(eng.df_map.items())
        return pa.table({
            "term": pa.array([t for t, _ in items], pa.string()),
            "df": pa.array([d for _, d in items], pa.int64()),
        })

    from search_engine_ray.ops.dedup import (
        minhash_near_dup_pairs,
        simhash_near_dup_pairs,
    )

    return {
        # --- SQL-checked (value-hash vs DuckDB) ---
        # Rows run in priority order: the driver records at most ~50 rows
        # in insertion order, and tests/test_entry.py runs every one.
        # The REAL build+search pipeline (adapter -> parse -> SPIMI shuffle
        # -> postings -> SearchEngine) value-checked over a cleaned corpus
        # whose semantics are SQL-expressible comes FIRST: these are the
        # entries that value-check the actual engine.
        "index_dict_clean": sq.q_index_dict_clean,
        # incremental ingest: two per-delta builds folded by
        # merge_indexes must match the whole-corpus SQL
        "index_dict_merged": sq.q_index_dict_merged,
        "search_bm25_clean_top10": lambda sf: sq.q_search_bm25_clean(
            sf, "bm25"),
        "search_wand_clean_top10": lambda sf: sq.q_search_bm25_clean(
            sf, "bm25_wand"),
        "search_bool_and_clean": sq.q_search_bool_and_clean,
        # contextual retrieval: date-range filtered BM25 (docmeta ts mask,
        # corpus-wide stats), Lucene-style more-like-this (seed doc's
        # top-tf dict terms -> BM25, seed excluded) and rank-exact
        # pseudo-relevance feedback (top-r docs -> integer summed-tf
        # expansion terms -> round 2)
        "search_bm25_time_range": sq.q_search_bm25_time_range,
        "more_like_this_top10": sq.q_more_like_this,
        "search_prf_top10": sq.q_search_prf,
        "doc_token_stats": sq.q_doc_token_stats,
        "quality_counts": sq.q_quality_counts,
        "term_df": sq.q_term_df,
        "min_match_candidates": sq.q_min_match,
        "exact_dedup": sq.q_exact_dedup,
        "top_terms_per_lang": sq.q_top_terms_per_lang,
        "embedding_near_dups": sq.q_embedding_near_dups,
        "ngram_jaccard_dups": sq.q_ngram_jaccard,
        "near_dup_keep_ids": sq.q_near_dup_keep,
        "langid_pred": sq.q_langid_pred,
        "winnow_shared_pairs": sq.q_winnow_shared_pairs,
        "bigram_lm_nll": sq.q_bigram_lm_nll,
        "decontaminate_ids": sq.q_decontaminate,
        "weighted_sample_50": sq.q_weighted_sample,
        "curate_summary": sq.q_curate_summary,
        "source_quality_gate": sq.q_source_quality_gate,
        "dup_passages": sq.q_dup_passages,
        "dsir_logratio": sq.q_dsir_logratio,
        "token_budget_mix": sq.q_token_budget_mix,
        "term_cooccurrence_pmi": sq.q_term_cooccurrence_pmi,
        # trigram substring index: infix search served from (tri -> doc)
        # postings with exact verification
        "substring_search": sq.q_substring_search,
        # quoted-phrase ranked search: '"exact phrase" rest' queries —
        # positional phrase gate BEFORE the BM25 top-k boundary
        "search_phrase_ranked": sq.q_search_phrase_ranked,
        # proximity-boosted BM25: weight/(1+min_gap) bonus per adjacent
        # query-term pair off the positional postings
        "search_prox_boosted": sq.q_search_prox_boosted,
        "prefix_search": sq.q_prefix_search,
        "search_nrt_top10": sq.q_search_nrt,
        "ranking_eval": sq.q_ranking_eval,
        # indexed SERP snippets: ranked hits + snippets with ZERO corpus
        # scan — positions off the positional postings, texts point-read
        # for the k hits only
        "serp_snippets_indexed": sq.q_serp_snippets_indexed,
        # champion-list tiered retrieval: per-term top-m-by-tf candidate
        # pruning (IIR §7.1), deterministic champion rule so the
        # approximation itself is value-hash-checked
        "search_tiered_top10": sq.q_search_tiered,
        "near_dup_cluster_sizes": sq.q_near_dup_cluster_sizes,
        "bm25_diversified_top10": sq.q_bm25_diversified,
        "doc_snippets": sq.q_doc_snippets,
        "phrase_match_indexed": sq.q_phrase_match_indexed,
        "proximity_match_indexed": sq.q_proximity_match_indexed,
        "search_hit_counts": sq.q_search_hit_counts,
        "strip_dup_passages": sq.q_strip_dup_passages,
        # serving options over the clean-BM25 path: cursor deep paging,
        # query-time term boosts, facets-on-hits
        "search_page2": sq.q_search_page2,
        "search_boosted_top10": sq.q_search_boosted,
        "result_facets": sq.q_result_facets,
        "search_synonyms_top10": sq.q_search_synonyms,
        "did_you_mean": sq.q_did_you_mean,
        "date_histogram": sq.q_date_histogram,
        "fuzzy_terms": sq.q_fuzzy_terms,
        "facet_counts": sq.q_facet_counts,
        "prefix_dup_groups": sq.q_prefix_dup_groups,
        "doc_salient_term": sq.q_doc_salient_term,
        "length_percentile_filter": sq.q_length_percentile_filter,
        "dup_ngram_fraction": sq.q_dup_ngram_fraction,
        "autocomplete_top5": sq.q_autocomplete,
        "dup_rate_per_source": sq.q_dup_rate_per_source,
        "proximity_match": sq.q_proximity_match,
        "phrase_match": sq.q_phrase_match,
        "chunk_documents": sq.q_chunk_documents,
        "regex_search": sq.q_regex_search,
        "epoch_order": sq.q_epoch_order,
        "c4_quality_flags": sq.q_c4_quality_flags,
        "search_common_terms": sq.q_search_common_terms,
        "train_test_split": sq.q_train_test_split,
        "leakage_safe_split": sq.q_leakage_safe_split,
        "ngram_diversity": sq.q_ngram_diversity,
        "search_as_you_type": sq.q_search_as_you_type,
        "percolate": sq.q_percolate,
        "index_dict_deleted": sq.q_index_dict_deleted,
        "search_bool_or_clean": sq.q_search_bool_or_clean,
        "search_and_not_clean": sq.q_search_and_not_clean,
        "stratified_sample_20": sq.q_stratified_sample,
        "packing_plan_512": sq.q_packing_plan,
        "pii_scan": sq.q_pii_scan,
        "corpus_freq_score": sq.q_corpus_freq_score,
        "token_entropy": sq.q_token_entropy,
        "longest_docs_top100": sq.q_longest_docs,
        "bpe_token_stats": sq.q_bpe_token_stats,
        "repetition_stats": sq.q_repetition_stats,
        "lang_counts": sq.q_lang_counts,
        "bm25_topk_simple": sq.q_bm25_topk,
        "hybrid_rrf_top10": sq.q_hybrid_rrf,
        "winnow_fingerprints": sq.q_winnow_fingerprints,
        "contamination_4gram": sq.q_contamination,
        "source_mix_sample": sq.q_source_mix,
        "quality_filter": sq.q_quality_filter,
        "fingerprint_md5": sq.q_fingerprint_md5,
        "norm_fingerprint": sq.q_norm_fingerprint,
        "sample_mod100": sq.q_sample_mod,
        "top_terms": sq.q_top_terms,
        "token_count_total": sq.q_token_count_total,
        # --- rows-only (non-SQL-expressible semantics: full tokenizer,
        # glove-blended reference scoring, LSH approximation, BPE) ---
        "index_dictionary_full": index_dictionary,
        "search_explain_stats": _search_explain_stats,
        "search_reference_top10": lambda sf: _search_topk(sf, "reference"),
        "minhash_near_dups": lambda sf: minhash_near_dup_pairs(sf),
        "simhash_near_dups": lambda sf: simhash_near_dup_pairs(sf),
        "bpe_train_merges": _bpe_train,
        "bpe_encode_counts": _bpe_encode,
    }


def oracle_sql() -> dict[str, str]:
    from search_engine_ray.ops import sqlcheck as sq

    return {
        "doc_token_stats": sq.SQL_DOC_TOKEN_STATS,
        "bpe_token_stats": sq.SQL_BPE_TOKEN_STATS,
        "quality_counts": sq.SQL_QUALITY_COUNTS,
        "term_df": sq.SQL_TERM_DF,
        "top_terms": sq.SQL_TOP_TERMS,
        "token_count_total": sq.SQL_TOKEN_COUNT_TOTAL,
        "min_match_candidates": sq.SQL_MIN_MATCH,
        "exact_dedup": sq.SQL_EXACT_DEDUP,
        "lang_counts": sq.SQL_LANG_COUNTS,
        "top_terms_per_lang": sq.SQL_TOP_TERMS_PER_LANG,
        "sample_mod100": sq.SQL_SAMPLE_MOD,
        "quality_filter": sq.SQL_QUALITY_FILTER,
        "bm25_topk_simple": sq.SQL_BM25_TOPK,
        "hybrid_rrf_top10": sq.SQL_HYBRID_RRF,
        "bm25_diversified_top10": sq.SQL_BM25_DIVERSIFIED,
        "embedding_near_dups": sq.SQL_EMBEDDING_NEAR_DUPS,
        "ngram_jaccard_dups": sq.SQL_NGRAM_JACCARD,
        "near_dup_keep_ids": sq.SQL_NEAR_DUP_KEEP,
        "near_dup_cluster_sizes": sq.SQL_NEAR_DUP_CLUSTER_SIZES,
        "langid_pred": sq.SQL_LANGID_PRED,
        "fingerprint_md5": sq.SQL_FINGERPRINT_MD5,
        "winnow_fingerprints": sq.SQL_WINNOW_FINGERPRINTS,
        "pii_scan": sq.SQL_PII_SCAN,
        "repetition_stats": sq.SQL_REPETITION_STATS,
        "contamination_4gram": sq.SQL_CONTAMINATION,
        "source_mix_sample": sq.SQL_SOURCE_MIX,
        "packing_plan_512": sq.SQL_PACKING_PLAN,
        "norm_fingerprint": sq.SQL_NORM_FINGERPRINT,
        "curate_summary": sq.SQL_CURATE_SUMMARY,
        "index_dict_clean": sq.SQL_INDEX_DICT_CLEAN,
        "search_bm25_clean_top10": sq.SQL_SEARCH_BM25_CLEAN,
        "search_wand_clean_top10": sq.SQL_SEARCH_BM25_CLEAN,
        "stratified_sample_20": sq.SQL_STRATIFIED_SAMPLE,
        "corpus_freq_score": sq.SQL_CORPUS_FREQ_SCORE,
        "decontaminate_ids": sq.SQL_DECONTAMINATE,
        "search_bool_and_clean": sq.SQL_SEARCH_BOOL_AND_CLEAN,
        "search_bm25_time_range": sq.SQL_SEARCH_BM25_TIME_RANGE,
        "more_like_this_top10": sq.SQL_MORE_LIKE_THIS,
        "search_prf_top10": sq.SQL_SEARCH_PRF,
        "winnow_shared_pairs": sq.SQL_WINNOW_SHARED_PAIRS,
        "prefix_dup_groups": sq.SQL_PREFIX_DUP_GROUPS,
        "token_entropy": sq.SQL_TOKEN_ENTROPY,
        "length_percentile_filter": sq.SQL_LENGTH_PERCENTILE_FILTER,
        "source_quality_gate": sq.SQL_SOURCE_QUALITY_GATE,
        "longest_docs_top100": sq.SQL_LONGEST_DOCS,
        "doc_salient_term": sq.SQL_DOC_SALIENT_TERM,
        "bigram_lm_nll": sq.SQL_BIGRAM_LM_NLL,
        "dup_ngram_fraction": sq.SQL_DUP_NGRAM_FRACTION,
        "dup_passages": sq.SQL_DUP_PASSAGES,
        "strip_dup_passages": sq.SQL_STRIP_DUP_PASSAGES,
        "search_page2": sq.SQL_SEARCH_PAGE2,
        "search_boosted_top10": sq.SQL_SEARCH_BOOSTED,
        "result_facets": sq.SQL_RESULT_FACETS,
        "search_synonyms_top10": sq.SQL_SEARCH_SYNONYMS,
        "did_you_mean": sq.SQL_DID_YOU_MEAN,
        "ranking_eval": sq.SQL_RANKING_EVAL,
        "date_histogram": sq.SQL_DATE_HISTOGRAM,
        "search_nrt_top10": sq.SQL_SEARCH_NRT,
        "dsir_logratio": sq.SQL_DSIR_LOGRATIO,
        "token_budget_mix": sq.SQL_TOKEN_BUDGET_MIX,
        "weighted_sample_50": sq.SQL_WEIGHTED_SAMPLE,
        "phrase_match": sq.SQL_PHRASE_MATCH,
        "proximity_match": sq.SQL_PROXIMITY_MATCH,
        "phrase_match_indexed": sq.SQL_PHRASE_MATCH,
        "proximity_match_indexed": sq.SQL_PROXIMITY_MATCH,
        "search_phrase_ranked": sq.SQL_SEARCH_PHRASE_RANKED,
        "search_tiered_top10": sq.SQL_SEARCH_TIERED,
        "search_prox_boosted": sq.SQL_SEARCH_PROX_BOOSTED,
        "search_hit_counts": sq.SQL_SEARCH_HIT_COUNTS,
        "serp_snippets_indexed": sq.SQL_SERP_SNIPPETS_INDEXED,
        "c4_quality_flags": sq.SQL_C4_QUALITY_FLAGS,
        "search_common_terms": sq.SQL_SEARCH_COMMON_TERMS,
        "train_test_split": sq.SQL_TRAIN_TEST_SPLIT,
        "leakage_safe_split": sq.SQL_LEAKAGE_SAFE_SPLIT,
        "ngram_diversity": sq.SQL_NGRAM_DIVERSITY,
        "search_as_you_type": sq.SQL_SEARCH_AS_YOU_TYPE,
        "term_cooccurrence_pmi": sq.SQL_TERM_COOCCURRENCE_PMI,
        "index_dict_merged": sq.SQL_INDEX_DICT_MERGED,
        "index_dict_deleted": sq.SQL_INDEX_DICT_DELETED,
        "search_bool_or_clean": sq.SQL_SEARCH_BOOL_OR_CLEAN,
        "search_and_not_clean": sq.SQL_SEARCH_AND_NOT_CLEAN,
        "prefix_search": sq.SQL_PREFIX_SEARCH,
        "autocomplete_top5": sq.SQL_AUTOCOMPLETE,
        "dup_rate_per_source": sq.SQL_DUP_RATE_PER_SOURCE,
        "substring_search": sq.SQL_SUBSTRING_SEARCH,
        "chunk_documents": sq.SQL_CHUNK_DOCUMENTS,
        "regex_search": sq.SQL_REGEX_SEARCH,
        "epoch_order": sq.SQL_EPOCH_ORDER,
        "percolate": sq.SQL_PERCOLATE,
        "fuzzy_terms": sq.SQL_FUZZY_TERMS,
        "doc_snippets": sq.SQL_DOC_SNIPPETS,
        "facet_counts": sq.SQL_FACET_COUNTS,
    }
