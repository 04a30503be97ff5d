"""Round-5 features: positional postings + indexed phrase/proximity
serving (round-4 verdict #2)."""

import os

import numpy as np
import pyarrow as pa
import pytest


def test_position_lists_roundtrip():
    from search_engine_ray.index.encoding import (
        decode_position_lists,
        encode_position_lists,
    )

    rng = np.random.default_rng(5)
    counts = rng.integers(1, 9, size=200).astype(np.int64)
    # ascending positions within each sublist
    pos = np.concatenate([
        np.sort(rng.choice(10_000, size=c, replace=False))
        for c in counts]).astype(np.int64)
    buf = encode_position_lists(pos, counts)
    got, off = decode_position_lists(buf, counts)
    assert np.array_equal(got, pos)
    assert np.array_equal(off, np.concatenate([[0], np.cumsum(counts)]))
    # empty stream
    assert encode_position_lists(np.zeros(0, np.int64),
                                 np.zeros(0, np.int64)) == b""


def test_encode_postings_with_positions_roundtrip():
    from search_engine_ray.index.encoding import (
        decode_postings,
        encode_postings,
    )

    doc_ids = np.array([3, 17, 99, 1000], np.int64)
    tfs = np.array([2, 1, 3, 1], np.int64)
    dls = np.array([10, 5, 30, 8], np.int64)
    pos = np.array([0, 7, 4, 1, 5, 29, 2], np.int64)  # sublists 2/1/3/1
    dec = decode_postings(encode_postings(doc_ids, tfs, dls, tfs.copy(),
                                          positions=pos))
    assert np.array_equal(dec["doc_ids"], doc_ids)
    assert np.array_equal(dec["pos"], pos)
    assert np.array_equal(dec["pos_off"], [0, 2, 3, 6, 7])
    # without positions: no pos key, everything else intact
    dec2 = decode_postings(encode_postings(doc_ids, tfs, dls, tfs.copy()))
    assert "pos" not in dec2
    assert np.array_equal(dec2["doc_ids"], doc_ids)


@pytest.fixture(scope="module")
def pos_sf(ray_session):
    return "/root/testdata/sf0.001"


def test_phrase_indexed_matches_scan(pos_sf):
    from search_engine_ray.ops.matching import (
        phrase_match_docs,
        phrase_match_indexed,
    )

    scan = sorted(phrase_match_docs(pos_sf).to_pandas()["doc_id"])
    idx = phrase_match_indexed(pos_sf).to_pandas()["doc_id"].tolist()
    assert len(idx) > 0
    assert scan == idx


def test_proximity_indexed_matches_scan(pos_sf):
    from search_engine_ray.ops.matching import (
        proximity_match_docs,
        proximity_match_indexed,
    )

    ps = (proximity_match_docs(pos_sf).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    pi = proximity_match_indexed(pos_sf).to_pandas()
    assert len(pi) > 0
    assert ps["doc_id"].tolist() == pi["doc_id"].tolist()
    assert ps["min_gap"].tolist() == pi["min_gap"].tolist()


def test_phrase_indexed_beats_scan_latency(pos_sf):
    """The point of positional postings: a warm indexed phrase query must
    beat re-scanning the corpus (verdict #2's latency criterion)."""
    import time

    from search_engine_ray.ops.matching import (
        phrase_match_docs,
        phrase_match_indexed,
        positional_index,
    )

    positional_index(pos_sf)  # build + warm outside the timed window
    phrase_match_indexed(pos_sf)
    t0 = time.perf_counter()
    phrase_match_indexed(pos_sf)
    t_idx = time.perf_counter() - t0
    t0 = time.perf_counter()
    phrase_match_docs(pos_sf).to_pandas()
    t_scan = time.perf_counter() - t0
    assert t_idx < t_scan, (t_idx, t_scan)


def test_phrase_multi_term_and_misses(pos_sf):
    from search_engine_ray.ops.matching import positional_index

    eng, _ = positional_index(pos_sf)
    # unknown term -> empty; empty phrase -> empty
    assert len(eng.phrase_docs(["zzznotaterm", "query"])) == 0
    assert len(eng.phrase_docs([])) == 0
    # single term == docs containing it (phrase of length 1)
    p = eng.postings("query")
    one = eng.phrase_docs(["query"])
    assert np.array_equal(one, p["doc_ids"])
    # a 3-term phrase is a subset of the 2-term prefix's matches
    two = set(eng.phrase_docs(["query", "scan"]).tolist())
    assert set(eng.phrase_docs(["slow", "query", "scan"]).tolist()) <= two


def test_treebank_positions_phrase(ray_session, tmp_path):
    """positions=True on the REAL parser path (treebank tokens, stopword
    filtering): phrase_docs agrees with a direct per-doc recompute from
    the same Parser's token stream."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.text.extract import extract_text
    from search_engine_ray.text.parser import Parser

    d = tmp_path / "pages"
    d.mkdir()
    t = gen_pages(400)
    pq.write_table(t, str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    cfg = EngineConfig(positions=True)
    build_index(str(d), idx, cfg, overwrite=True)
    eng = SearchEngine(idx)

    parser = Parser(tokenizer=cfg.tokenizer,
                    harvest_page_url=cfg.harvest_page_url)
    want = []
    phrase = None
    for url, html in zip(t.column("url").to_pylist(),
                         t.column("html").to_pylist()):
        doc = parser.parse_page(url, extract_text(html))
        if doc is None:
            continue
        if phrase is None and len(doc.tokens) >= 5:
            phrase = doc.tokens[2:4]  # a real bigram from the corpus
    assert phrase is not None
    for url, html in zip(t.column("url").to_pylist(),
                         t.column("html").to_pylist()):
        doc = parser.parse_page(url, extract_text(html))
        if doc is None:
            continue
        toks = doc.tokens
        if any(toks[i:i + 2] == phrase for i in range(len(toks) - 1)):
            want.append(doc_id_for_url(url))
    got = eng.phrase_docs(phrase).tolist()
    assert sorted(want) == got
    assert len(got) > 0


# ------------------------------------------------------------ JPEG codec
def test_distributed_phrase_matches_inprocess(pos_sf):
    """Shard-actor phrase/proximity serving returns exactly the
    in-process positional engine's results (doc-sharding makes phrase
    evaluation shard-local; the driver merge is a union)."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.distributed import DistributedSearchEngine

    eng, _ = positional_index(pos_sf)
    dist = DistributedSearchEngine(eng._out_dir, num_actors=3)
    for phrase in (["query", "scan"], ["slow", "query", "scan"],
                   ["query"], ["zzznotaterm", "query"]):
        assert dist.phrase_docs(phrase) == eng.phrase_docs(phrase).tolist(), \
            phrase
    docs, gaps = eng.proximity_docs("query", "scan", window=3)
    assert dist.proximity_docs("query", "scan", window=3) == list(
        zip(docs.tolist(), gaps.tolist()))
    # BM25 over the positional index still matches too (pos_vb columns
    # are inert for scoring)
    r_in = eng.search("query scan", k=5, mode="bm25")
    r_dist = dist.search("query scan", k=5, mode="bm25")
    assert r_in == r_dist


def test_query_parser_honors_raw_tokens(pos_sf):
    """Engines serving a raw_tokens index must tokenize queries RAW too
    (regression: SearchEngine/DistributedSearchEngine built their parser
    without forwarding cfg.raw_tokens, so stopwords were dropped and
    capitals rewritten against an index that stores tokens verbatim)."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.distributed import DistributedSearchEngine
    from search_engine_ray.query.engine import SearchEngine

    eng, _ = positional_index(pos_sf)
    assert eng.cfg.raw_tokens
    fresh = SearchEngine(eng._out_dir)
    # 'the' is a stopword for the normalizing parser but a real token in
    # a raw index; raw parse must keep it and keep case handling off
    assert fresh.parser.parse_sentence("the query scan")[0] == [
        "the", "query", "scan"]
    dist = DistributedSearchEngine(eng._out_dir, num_actors=2)
    assert dist.parser.parse_sentence("the query scan")[0] == [
        "the", "query", "scan"]


def test_distributed_phrase_without_positions_raises(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import pytest as _pytest

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.distributed import DistributedSearchEngine

    d = tmp_path / "pages"
    d.mkdir()
    pq.write_table(gen_pages(120), str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, EngineConfig(positions=False), overwrite=True)
    dist = DistributedSearchEngine(idx, num_actors=2)
    with _pytest.raises(ValueError, match="without positions"):
        dist.phrase_docs(["new", "york"])
    with _pytest.raises(ValueError, match="without positions"):
        dist.proximity_docs("new", "york")


def test_hll_distinct_empty_table(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.sketches import hll_distinct

    pq.write_table(
        pa.table({"user_id": pa.array([], pa.int64())}),
        str(tmp_path / "events.parquet"))
    out = hll_distinct(str(tmp_path), table="events", column="user_id")
    assert out.column("n_distinct_est").to_pylist() == [0]


def test_positional_index_cache_tracks_content(ray_session, tmp_path):
    """Regenerating documents.parquet at the same path must invalidate
    the /tmp positional-index cache (regression: the cache keyed on the
    path only and served the OLD corpus's doc ids)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.matching import phrase_match_indexed

    def write(docs):
        pq.write_table(pa.table({
            "doc_id": pa.array(list(range(1, len(docs) + 1)), pa.int64()),
            "text": pa.array(docs),
            "lang": pa.array(["en"] * len(docs)),
            "source": pa.array(["s0"] * len(docs)),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
        }), str(tmp_path / "documents.parquet"))

    write(["alpha query scan beta", "nothing here", "query scan again"])
    first = phrase_match_indexed(str(tmp_path)).column("doc_id").to_pylist()
    assert first == [1, 3]
    import time

    time.sleep(0.01)  # ensure a distinct mtime_ns even on coarse clocks
    write(["nothing", "query scan moved", "also nothing", "x"])
    second = phrase_match_indexed(str(tmp_path)).column("doc_id").to_pylist()
    assert second == [2]


def test_distributed_lazy_positions_refetch(pos_sf):
    """A bm25 search caches postings WITHOUT positions (lazy pos_vb);
    a later phrase query on the same terms must transparently re-fetch
    them with positions and agree with the in-process engine."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.distributed import DistributedSearchEngine

    eng, _ = positional_index(pos_sf)
    dist = DistributedSearchEngine(eng._out_dir, num_actors=2)
    assert dist.search("query scan", k=5, mode="bm25") == \
        eng.search("query scan", k=5, mode="bm25")
    assert dist.phrase_docs(["query", "scan"]) == \
        eng.phrase_docs(["query", "scan"]).tolist()


# ------------------------------------------------------------- GIF codec
def test_bpe_encode_counts_matches_reference_encoder(ray_session):
    """bpe_encode_counts (distributed, memoized word-level encode) must
    equal an independent single-process BPE encoder applying the same
    learned merges, doc by doc."""
    import os

    from search_engine_ray.ops.textstats import (
        bpe_encode_counts,
        bpe_train_merges,
    )
    from search_engine_ray.text.tokenizer import simple_tokenize

    sf = "/root/testdata/sf0.001"
    if not os.path.exists(sf):
        pytest.skip("driver testdata absent")
    mt = bpe_train_merges(sf, n_merges=8)
    merges = list(zip(mt.column("left").to_pylist(),
                      mt.column("right").to_pylist()))
    ranks = {p: i for i, p in enumerate(merges)}

    def ref_encode_len(word):
        syms = list(word)
        while len(syms) > 1:
            cand = [(ranks[(a, b)], i)
                    for i, (a, b) in enumerate(zip(syms, syms[1:]))
                    if (a, b) in ranks]
            if not cand:
                break
            _, i = min(cand)
            syms[i:i + 2] = [syms[i] + syms[i + 1]]
        return len(syms)

    got = (bpe_encode_counts(sf, n_merges=8).to_pandas()
           .set_index("doc_id")["n_bpe_merged_tokens"])
    import duckdb

    docs = duckdb.sql(
        f"SELECT doc_id, text FROM '{sf}/documents.parquet'").df()
    assert len(got) == len(docs)
    for _, row in docs.iterrows():
        want = sum(ref_encode_len(w) for w in simple_tokenize(row["text"]))
        assert got[row["doc_id"]] == want, row["doc_id"]
    # zero merges degenerate: every token splits to characters
    got0 = (bpe_encode_counts(sf, n_merges=0).to_pandas()
            .set_index("doc_id")["n_bpe_merged_tokens"])
    for _, row in docs.head(20).iterrows():
        want = sum(len(w) for w in simple_tokenize(row["text"]))
        assert got0[row["doc_id"]] == want


def test_dup_rate_per_source_planted(ray_session, tmp_path):
    """Planted exact duplicates: counts must be exact per source (the
    sf corpora have no dups, so this is the real exercise)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.dedup import dup_rate_per_source

    rows = (
        [("a", "alpha beta")] * 3 + [("a", "gamma")] +
        [("b", "alpha beta")] +          # same text, other source
        [("b", f"doc {i}") for i in range(4)] + [("b", "doc 0")] +
        [("c", "solo")] +
        [(None, "nul dup")] * 2 + [(None, "nul solo")])  # NULL group
    tbl = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([t for _, t in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
        "source": pa.array([s for s, _ in rows], pa.string()),
        "n_chars": pa.array([len(t) for _, t in rows], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = dup_rate_per_source(str(tmp_path)).to_pandas()
    want = duckdb.sql(f"""
        SELECT source, count(*) AS n_docs,
               count(DISTINCT text) AS n_distinct,
               count(*) - count(DISTINCT text) AS n_dup
        FROM '{tmp_path}/documents.parquet'
        GROUP BY source ORDER BY source""").df()
    # SQL keeps a NULL-source group (pandas' default groupby would
    # silently drop those docs) — normalize NULL for the comparison
    got["source"] = got["source"].fillna("<null>")
    want["source"] = want["source"].fillna("<null>")
    assert (got.values == want.values).all()
    assert got.set_index("source")["n_dup"].to_dict() == {
        "a": 2, "b": 1, "c": 0, "<null>": 1}


def test_autocomplete_consistent_with_prefix_search():
    """autocomplete's bucketed top-k must equal brute-force ranking of
    the (winner-resolved) prefix_search result for every prefix."""
    from search_engine_ray.ops.fulltext import autocomplete, prefix_search

    sf = "/root/testdata/sf0.01"
    got = autocomplete(sf, prefixes=("s", "w"), k=3).to_pandas()
    for p in ("s", "w"):
        full = prefix_search(sf, prefix=p).to_pandas()
        want = (full.sort_values(["df", "term"],
                                 ascending=[False, True]).head(3))
        sub = got[got["prefix"] == p].sort_values("rank")
        assert sub["term"].tolist() == want["term"].tolist()
        assert sub["df"].tolist() == want["df"].tolist()
        assert sub["rank"].tolist() == list(range(1, len(want) + 1))


def test_click_pagerank_planted_and_sql(ray_session, tmp_path):
    """Planted click graph: a hub page every session returns to must
    out-rank leaf pages; values match the unrolled-CTE DuckDB mirror
    exactly (integer arithmetic on both sides).  Includes a null-k
    event (dropped before pairing) and a single-event user (no edge)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.graph import click_pagerank
    from search_engine_ray.ops.sqlcheck import SQL_CLICK_PAGERANK

    # user 1: 0->1->0->2->0->3->0 (hub 0, every leaf returns to it);
    # user 2: 1->2->3; user 3: solo;
    # user 4 has a null-k event between 2 and 3 -> edge 2->3 still forms
    rows = [(1, k) for k in (0, 1, 0, 2, 0, 3, 0)] + \
           [(2, k) for k in (1, 2, 3)] + [(3, 7)] + \
           [(4, 2), (4, None), (4, 3)]
    props = ["{}" if k is None else '{"k": %d}' % k for _, k in rows]
    # user 5 exercises the k-extraction rule: int, nested (dropped),
    # string-int, float (dropped), bool (dropped), int -> edges
    # 1->5 and 5->2 only
    tricky = ['{"k": 1}', '{"a": {"k": 9}}', '{"k": "5"}',
              '{"k": 1.5}', '{"k": true}', '{"k": 2}']
    rows += [(5, None)] * len(tricky)
    props += tricky
    n = len(rows)
    tbl = pa.table({
        "event_id": pa.array(range(n), pa.int64()),
        "ts": pa.array([1_700_000_000_000_000 + i * 1_000_000
                        for i in range(n)], pa.timestamp("us")),
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "event_type": pa.array(["view"] * n, pa.string()),
        "value": pa.array([1.0] * n, pa.float64()),
        "props": pa.array(props, pa.string()),
    })
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = click_pagerank(str(tmp_path), iters=10).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"'{tmp_path}/events.parquet'")
    want = con.execute(SQL_CLICK_PAGERANK).df()
    assert got["node"].tolist() == want["node"].tolist()
    assert got["rank_e12"].tolist() == want["rank_e12"].tolist()
    r = got.set_index("node")["rank_e12"]
    assert 7 not in r.index          # solo user contributes no node
    assert 9 not in r.index          # nested {"a":{"k":9}} is NOT a k
    assert 5 in r.index              # string-int "5" IS a k
    assert r[0] > r[1] and r[0] > r[2] and r[0] > r[3]  # hub wins
    assert r.sum() <= 10**12         # mass never exceeds the scale


def test_click_pagerank_cycle_symmetry():
    """A 2-cycle with equal weights converges to equal ranks, and the
    empty edge set returns the typed empty table."""
    import pandas as pd

    from search_engine_ray.ops.graph import pagerank_from_edges

    out = pagerank_from_edges(pd.DataFrame(
        {"src": [10, 20], "dst": [20, 10], "w": [3, 3]})).to_pandas()
    assert out["rank_e12"].nunique() == 1
    empty = pagerank_from_edges(pd.DataFrame(
        {"src": [], "dst": [], "w": []}))
    assert empty.num_rows == 0
    assert empty.column_names == ["node", "rank_e12"]


def test_substring_index_matches_scan_and_sql(ray_session):
    """Trigram-index infix search == streaming scan == DuckDB contains()
    on sf0.001, including a needle with an absent trigram (early exit)
    and a short (<3-byte) needle that falls back to the scan."""
    import duckdb

    from search_engine_ray.ops.substring import (
        substring_scan,
        substring_search,
    )

    sf = "/root/testdata/sf0.001"
    for needle in ("ter scan", "am merge", "spark"):
        idx = substring_search(sf, needle).to_pandas()["doc_id"].tolist()
        scan = substring_scan(sf, needle).to_pandas()["doc_id"].tolist()
        want = duckdb.sql(
            f"SELECT doc_id FROM '{sf}/documents.parquet' "
            f"WHERE contains(text, '{needle}') ORDER BY doc_id"
        ).df()["doc_id"].tolist()
        assert idx == scan == want and len(want) > 0, needle
    assert substring_search(sf, "zzqéxx").num_rows == 0
    short = substring_search(sf, "ag").to_pandas()["doc_id"].tolist()
    want = duckdb.sql(
        f"SELECT doc_id FROM '{sf}/documents.parquet' "
        "WHERE contains(text, 'ag') ORDER BY doc_id").df()["doc_id"]
    assert short == want.tolist()


def test_substring_index_beats_scan_latency(ray_session):
    """The point of the trigram index: a warm indexed infix query beats
    re-scanning the corpus."""
    import time

    from search_engine_ray.ops.substring import (
        substring_scan,
        substring_search,
        trigram_index,
    )

    sf = "/root/testdata/sf0.001"
    trigram_index(sf)               # build outside the timed window
    substring_search(sf, "am merge")  # warm the dataset handles
    t0 = time.perf_counter()
    substring_search(sf, "ter scan")
    t_idx = time.perf_counter() - t0
    t0 = time.perf_counter()
    substring_scan(sf, "ter scan")
    t_scan = time.perf_counter() - t0
    assert t_idx < t_scan, (t_idx, t_scan)


def test_substring_unicode_needle(ray_session, tmp_path):
    """UTF-8 multibyte needles: byte-trigram matching must agree with
    character-level contains (UTF-8 self-synchronization)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.substring import substring_search

    texts = ["der straße entlang gehen", "no match here at all",
             "straßenbahn kommt", "stras se split tokens"]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["de"] * 4, pa.string()),
        "source": pa.array(["t"] * 4, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = substring_search(
        str(tmp_path), "straße").to_pandas()["doc_id"].tolist()
    assert got == [0, 2]


def test_chunk_documents_sql_and_invariants(ray_session):
    """Sliding-window chunking == the string_split SQL mirror at
    sf0.001; every token lands in >=1 chunk, no chunk crosses a doc,
    tails are kept."""
    import duckdb

    from search_engine_ray.ops.sqlcheck import SQL_CHUNK_DOCUMENTS
    from search_engine_ray.ops.textstats import chunk_documents

    sf = "/root/testdata/sf0.001"
    got = (chunk_documents(sf, chunk=32, stride=24).to_pandas()
           .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = (con.execute(SQL_CHUNK_DOCUMENTS).df()
            .sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True))
    assert got.equals(want.astype(got.dtypes.to_dict()))
    # invariants: chunk_idx dense from 0 per doc; full chunks are 32
    # tokens; strides overlap by 8 (32-24) except the tail
    for _, g in got.groupby("doc_id"):
        assert g["chunk_idx"].tolist() == list(range(len(g)))
        # exact window law: chunk i holds min(32, N - 24*i) tokens
        n_tok = g["n_tokens"].to_numpy()
        total = 24 * (len(g) - 1) + n_tok[-1]
        want_n = np.minimum(32, total - 24 * np.arange(len(g)))
        assert np.array_equal(n_tok, want_n)
        assert 1 <= n_tok[-1] <= 32


def test_regex_search_matches_scan_and_sql(ray_session):
    """Trigram-pruned regex search == streaming RE2 scan == DuckDB
    regexp_matches, for literal-prunable patterns, no-literal fallback
    patterns, and a no-match pattern."""
    import duckdb

    from search_engine_ray.ops.substring import regex_scan, regex_search

    sf = "/root/testdata/sf0.001"
    pats = ["ter (scan|merge)", "fast [a-z]*er",   # prunable literal
            "(query|scan) stream",                  # literal after group
            "a|bcd",                                # top-level alt: scan
            "zz(q|x)nope"]                          # no match
    for p in pats:
        idx = regex_search(sf, p).to_pandas()["doc_id"].tolist()
        scan = regex_scan(sf, p).to_pandas()["doc_id"].tolist()
        want = duckdb.sql(
            f"SELECT doc_id FROM '{sf}/documents.parquet' "
            f"WHERE regexp_matches(text, '{p}') ORDER BY doc_id"
        ).df()["doc_id"].tolist()
        assert idx == scan == want, p
    assert regex_search(sf, "ter (scan|merge)").num_rows > 0


def test_required_literal_properties():
    """Every extracted literal really is mandatory: any string matching
    the pattern (RE2 semantics via Python re on these constructs) must
    contain the literal."""
    import re

    from search_engine_ray.ops.substring import _required_literal

    cases = {
        "ter (scan|merge)": "ter ",
        "fast [a-z]*er": "fast ",
        "(query|scan) stream": " stream",
        "a|bcd": None,
        "colou?r": "colo",
        r"ab\.cde": "ab.cde",
        "x{2,3}yzw": "yzw",
        "(?i)abcdef": None,   # inline flag: abc is NOT mandatory
        "ab": None,           # too short
    }
    for pat, want in cases.items():
        assert _required_literal(pat) == want, pat
    # property check on matchable examples
    probes = {
        "ter (scan|merge)": ["xxter scanyy", "ter merge"],
        "colou?r": ["color", "colour"],
        "x{2,3}yzw": ["xxyzw", "xxxyzw"],
    }
    for pat, strs in probes.items():
        lit = _required_literal(pat)
        for s in strs:
            assert re.search(pat, s), (pat, s)
            assert lit in s, (pat, lit, s)


def test_epoch_order_sql_and_seed_properties(ray_session):
    """Global hash-shuffle rank == SQL row_number mirror; a permutation
    of 0..N-1; different seeds give different orders, same seed is
    stable across runs."""
    import duckdb

    from search_engine_ray.ops.sqlcheck import SQL_EPOCH_ORDER
    from search_engine_ray.ops.textstats import epoch_order

    sf = "/root/testdata/sf0.001"
    got = (epoch_order(sf, seed=0).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = (con.execute(SQL_EPOCH_ORDER).df()
            .sort_values("doc_id").reset_index(drop=True))
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["pos"].tolist() == want["pos"].tolist()
    assert sorted(got["pos"]) == list(range(len(got)))  # permutation
    again = (epoch_order(sf, seed=0).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert got["pos"].tolist() == again["pos"].tolist()  # reproducible
    other = (epoch_order(sf, seed=1).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
    assert got["pos"].tolist() != other["pos"].tolist()  # fresh epoch
    assert sorted(other["pos"]) == list(range(len(other)))


def test_hashed_bow_matches_sql(ray_session):
    """Feature-hashed BoW == the md5 SQL mirror at sf0.001; norms are
    token counts (mass conservation)."""
    import duckdb

    from search_engine_ray.ops.similarity import hashed_bow
    from search_engine_ray.ops.sqlcheck import SQL_HASHED_BOW

    sf = "/root/testdata/sf0.001"
    got = (hashed_bow(sf).to_pandas()
           .sort_values(["doc_id", "dim"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = (con.execute(SQL_HASHED_BOW).df()
            .sort_values(["doc_id", "dim"]).reset_index(drop=True))
    assert got.values.tolist() == want.values.tolist()
    # per-doc tf mass == non-empty token count
    tok = duckdb.sql(
        f"SELECT doc_id, len(list_filter(string_split(text, ' '), "
        f"x -> x <> '')) AS n FROM '{sf}/documents.parquet'"
    ).df().set_index("doc_id")["n"]
    mass = got.groupby("doc_id")["tf"].sum()
    assert (mass == tok.loc[mass.index]).all()


def test_text_knn_hashed_matches_sql(ray_session):
    """Hashed-BoW integer-dot kNN == the SQL self-join mirror, and a
    missing query doc returns the typed empty table."""
    import duckdb

    from search_engine_ray.ops.similarity import text_knn_hashed
    from search_engine_ray.ops.sqlcheck import SQL_TEXT_KNN_HASHED

    sf = "/root/testdata/sf0.001"
    got = text_knn_hashed(sf, query_doc_id=3, k=10).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = con.execute(SQL_TEXT_KNN_HASHED).df()
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["dot"].tolist() == want["dot"].tolist()
    assert len(got) == 10 and got["dot"].is_monotonic_decreasing
    missing = text_knn_hashed(sf, query_doc_id=10**12)
    assert missing.num_rows == 0
    assert missing.column_names == ["doc_id", "dot"]


def test_fuzzy_name_pairs_matches_brute_sql(ray_session):
    """Deletion-signature blocked edit<=1 self-join == the brute-force
    cross-join oracle (recall 1.0 by the signature property; precision
    1.0 by the exact verify)."""
    import duckdb

    from search_engine_ray.ops.linkage import fuzzy_name_pairs
    from search_engine_ray.ops.sqlcheck import SQL_FUZZY_NAME_PAIRS

    sf = "/root/testdata/sf0.001"
    got = (fuzzy_name_pairs(sf).to_pandas()
           .sort_values(["k1", "k2"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT * FROM "
                f"'{sf}/customer.parquet'")
    want = con.execute(SQL_FUZZY_NAME_PAIRS).df()
    assert got["k1"].tolist() == want["k1"].tolist()
    assert got["k2"].tolist() == want["k2"].tolist()
    assert len(got) > 0


def test_ed1_identity_vs_brute_dp():
    """The lcp+lcs one-edit identity == real levenshtein<=1 on random
    short strings (property check, incl. transpositions which are 2)."""
    from search_engine_ray.ops.linkage import _ed1

    def lev(a, b):
        m, n = len(a), len(b)
        d = list(range(n + 1))
        for i in range(1, m + 1):
            prev, d[0] = d[0], i
            for j in range(1, n + 1):
                cur = min(d[j] + 1, d[j - 1] + 1,
                          prev + (a[i - 1] != b[j - 1]))
                prev, d[j] = d[j], cur
        return d[n]

    rng = np.random.default_rng(11)
    alpha = "abc"
    for _ in range(300):
        la, lb = rng.integers(0, 6, size=2)
        a = "".join(rng.choice(list(alpha), size=la))
        b = "".join(rng.choice(list(alpha), size=lb))
        assert _ed1(a, b) == (lev(a, b) <= 1), (a, b)


def test_percolate_matches_sql(ray_session):
    """Standing-query percolation == the per-query position() SQL; the
    never-matching stored query contributes zero rows; a custom
    registry behaves."""
    import duckdb

    from search_engine_ray.ops.matching import percolate
    from search_engine_ray.ops.sqlcheck import SQL_PERCOLATE

    sf = "/root/testdata/sf0.001"
    got = (percolate(sf).to_pandas()
           .sort_values(["query_id", "doc_id"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = (con.execute(SQL_PERCOLATE).df()
            .sort_values(["query_id", "doc_id"]).reset_index(drop=True))
    assert got.values.tolist() == want.values.tolist()
    assert (got["query_id"] == 3).sum() == 0   # zzznope never matches
    assert (got["query_id"] == 1).sum() > 0
    custom = percolate(sf, {7: ["spark"]}).to_pandas()
    assert set(custom["query_id"]) == {7} and len(custom) > 0


def test_dup_passages_planted_spans(ray_session, tmp_path):
    """Maximal-span law on planted data: overlapping duplicated 5-grams
    merge into ONE maximal passage; two shared spans separated by unique
    text stay separate islands; singleton text reports zeros."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import dup_passages

    shared = "alpha bravo charlie delta echo foxtrot golf hotel " \
             "india juliet kilo lima"                      # 12 tokens
    span2 = "one two three four five six"                  # 6 tokens
    texts = [
        # doc 0: shared passage embedded in unique text
        "zz0 qq0 " + shared + " ww0 yy0",
        # doc 1: same passage, different surroundings + second span
        "aa1 " + shared + " bb1 cc1 dd1 ee1 ff1 " + span2,
        # doc 2: carries only the second span
        span2 + " gg2 hh2",
        # doc 3: no duplicated text at all
        "totally unique words nothing shared anywhere here",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 4, pa.string()),
        "source": pa.array(["t"] * 4, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = (dup_passages(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    rows = {int(r.doc_id): (int(r.n_passages), int(r.dup_tokens),
                            int(r.max_passage))
            for r in got.itertuples()}
    # doc 0: the 12-token passage = 8 overlapping 5-grams -> ONE island
    assert rows[0] == (1, 12, 12)
    # doc 1: 12-token passage + 6-token span -> two islands
    assert rows[1] == (2, 18, 12)
    assert rows[2] == (1, 6, 6)
    assert rows[3] == (0, 0, 0)
    assert len(got) == 4


def test_strip_dup_passages_planted(ray_session, tmp_path):
    """APPLY law on the planted-span fixture: removed-token count per
    doc equals dup_passages' dup_tokens, surviving text keeps original
    token order, and fully-unique docs round-trip unchanged."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import dup_passages
    from search_engine_ray.ops.textstats import strip_dup_passages
    from search_engine_ray.text.tokenizer import simple_tokenize

    shared = "alpha bravo charlie delta echo foxtrot golf hotel " \
             "india juliet kilo lima"
    texts = [
        "zz0 qq0 " + shared + " ww0 yy0",
        "aa1 " + shared + " bb1",
        "totally unique words nothing shared anywhere here",
        "",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 4, pa.string()),
        "source": pa.array(["t"] * 4, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    clean = {int(r.doc_id): r.clean_text
             for r in strip_dup_passages(str(tmp_path)).to_pandas()
             .itertuples()}
    spans = {int(r.doc_id): int(r.dup_tokens)
             for r in dup_passages(str(tmp_path)).to_pandas()
             .itertuples()}
    assert len(clean) == 4
    for i, t in enumerate(texts):
        orig = simple_tokenize(t)
        kept = clean[i].split(" ") if clean[i] else []
        assert len(orig) - len(kept) == spans[i], i
        # surviving tokens preserve original order (subsequence check)
        it = iter(orig)
        assert all(k in it for k in kept), i
    assert clean[0] == "zz0 qq0 ww0 yy0"
    assert clean[2] == texts[2]
    assert clean[3] == ""


def test_dsir_logratio_prefers_target_lang(ray_session, tmp_path):
    """Planted DSIR sanity: docs made of target-language-only vocabulary
    score strictly higher than docs of never-in-target vocabulary, and
    empty docs land at exactly 0."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import dsir_logratio

    texts = ["the quick brown fox jumps over the lazy dog",
             "the quick brown fox likes the brown dog",
             "der schnelle braune fuchs springt gerne hoch",
             ""]
    langs = ["en", "en", "de", "en"]
    tbl = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(["t"] * 4, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = {int(r.doc_id): (int(r.n_tokens), int(r.llr_e6))
           for r in dsir_logratio(str(tmp_path)).to_pandas().itertuples()}
    assert len(got) == 4
    assert got[3] == (0, 0)
    # per-token ratio: en-only vocab > de-only vocab
    assert got[0][1] / got[0][0] > got[2][1] / got[2][0]
    assert got[1][1] / got[1][0] > got[2][1] / got[2][0]
    assert got[2][1] < 0


def test_semdedup_keeps_one_per_planted_group(ray_session, tmp_path):
    """Planted SemDeDup: two groups of (near-)identical vectors in far
    corners keep only their min vec_id; distinct singletons all
    survive; scaled copies (cos == 1) dedup regardless of norm."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.similarity import semdedup_keep_ids

    # the k=4 seeds are the 4 SMALLEST vec_ids — keep those in four
    # distinct directions so each planted dup group lands in one cluster
    base_a = np.array([10.0, 0.0, 0.0, 0.0])
    base_b = np.array([0.0, 10.0, 0.0, 0.0])
    vecs = {
        0: base_a, 8: base_a * 2.0, 9: base_a + 1e-4,   # group A
        1: base_b, 7: base_b * 0.5,                      # group B
        2: np.array([0.0, 0.0, 10.0, 0.0]),              # singletons
        4: np.array([0.0, 0.0, 0.0, 10.0]),
        5: np.array([5.0, 5.0, 0.0, 0.0]),
    }
    ids = sorted(vecs)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, vecs[i])) for i in ids],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(ids), pa.int32()),
    })
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    kept = sorted(semdedup_keep_ids(str(tmp_path), k=4, threshold=0.95)
                  .to_pandas()["vec_id"].tolist())
    assert 0 in kept and 8 not in kept and 9 not in kept
    assert 1 in kept and 7 not in kept
    assert {2, 4, 5} <= set(kept)
    assert kept == [0, 1, 2, 4, 5]


def test_semdedup_keep_first_chain(ray_session, tmp_path):
    """Keep-first greedy law: in a chain a~b, b~c, a!~c (ids 0<20<21),
    b drops against kept a, but c SURVIVES because its only near-dup b
    was itself dropped — transitive chains must not collapse."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.similarity import semdedup_keep_ids

    d15, d30 = np.deg2rad(15.0), np.deg2rad(30.0)
    vecs = {
        0: np.array([10.0, 0.0, 0.0, 0.0]),                      # a
        1: np.array([0.0, 10.0, 0.0, 0.0]),                      # seed
        2: np.array([0.0, 0.0, 10.0, 0.0]),                      # seed
        4: np.array([0.0, 0.0, 0.0, 10.0]),                      # seed
        20: 10 * np.array([np.cos(d15), np.sin(d15), 0.0, 0.0]),  # b
        21: 10 * np.array([np.cos(d30), np.sin(d30), 0.0, 0.0]),  # c
    }
    # cos(a,b)=cos(b,c)=cos15=0.966>=0.95; cos(a,c)=cos30=0.866<0.95
    ids = sorted(vecs)
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, vecs[i])) for i in ids],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(ids), pa.int32()),
    })
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    kept = sorted(semdedup_keep_ids(str(tmp_path), k=4, threshold=0.95)
                  .to_pandas()["vec_id"].tolist())
    assert 20 not in kept          # near kept 0
    assert 21 in kept              # near only the DROPPED 20
    assert {0, 1, 2, 4} <= set(kept)


def test_near_dup_cluster_sizes_all_singletons(ray_session, tmp_path):
    """A corpus with no near-dup pair collapses to one histogram row:
    (size=1, n_clusters=n_docs)."""
    import pyarrow.parquet as pq

    from search_engine_ray.ops.dedup import near_dup_cluster_sizes

    texts = ["alpha beta gamma delta epsilon zeta",
             "one two three four five six seven",
             "red orange yellow green blue indigo"]
    tbl = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 3, pa.string()),
        "source": pa.array(["t"] * 3, pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = near_dup_cluster_sizes(str(tmp_path)).to_pandas()
    assert got.values.tolist() == [[1, 3]]


def test_search_explain_parity_and_counter_laws(ray_session, built_index):
    """search_explain returns EXACTLY mode="bm25_wand" results (the
    counters are observation, not behavior) and its counters obey the
    pruning laws: full_evals <= postings_total, heap_inserts <=
    full_evals, empty parse -> empty stats."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    for q in ["covid vaccine", "nasa launch rocket", "the",
              "zzznope covid", "water"]:
        res, st = eng.search_explain(q, k=10)
        assert res == eng.search(q, k=10, mode="bm25_wand"), q
        assert res == eng.search(q, k=10, mode="bm25"), q
        if st:
            assert st["full_evals"] <= st["postings_total"], q
            assert st["heap_inserts"] <= st["full_evals"], q
            # no posting stream at all (unknown/pruned terms) -> no hits
            if st["terms"] == 0:
                assert res == [], q
    res, st = eng.search_explain("the and of", k=10)  # stopword-only
    assert res == [] and st == {}


# ------------------------------------------------ contextual retrieval tier
def test_ts_range_is_a_pure_candidate_filter(engine):
    """ts_range semantics (Lucene filter-query convention): scores are
    unchanged per doc, membership is exactly the docmeta-ts window, and
    the top-k equals the unfiltered FULL ranked list filtered then
    re-cut — for every window tried."""
    from search_engine_ray.fixtures import gen_queries

    for q in gen_queries():
        full = engine.search(q, k=0, mode="bm25")  # full ranked list
        if not full:
            continue
        tss = sorted(r[2] for r in full)
        windows = [(tss[0], tss[-1]),                 # everything
                   (tss[len(tss) // 3], tss[2 * len(tss) // 3]),
                   (tss[-1] + 1, tss[-1] + 2)]        # nothing
        for lo, hi in windows:
            got = engine.search(q, k=10, mode="bm25", ts_range=(lo, hi))
            want = [r for r in full if lo <= r[2] <= hi][-10:]
            assert got == want, (q, lo, hi)


def test_ts_range_rejected_outside_bm25(engine):
    with pytest.raises(ValueError):
        engine.search("covid", k=10, mode="bm25_wand", ts_range=(0, 1))
    with pytest.raises(ValueError):
        engine.search("covid", k=10, mode="reference", ts_range=(0, 1))


# --------------------------------------------- cursor paging + term boosts
def test_search_after_pagination_laws(engine):
    """Pages stitched with search_after reproduce the full ranked list
    exactly: no overlap, no gap, order preserved — for every fixture
    query and a non-divisor page size."""
    from search_engine_ray.fixtures import gen_queries

    for q in gen_queries():
        full = engine.search(q, k=0, mode="bm25")  # full ranked list
        want = list(reversed(full))                # rank 1 first
        pages, cursor = [], None
        while True:
            res = engine.search(q, k=7, mode="bm25", search_after=cursor)
            if not res:
                break
            pages.extend(reversed(res))
            cursor = res[0]                        # last hit of the page
        assert pages == want, q
        # cursor past the end returns []
        if want:
            assert engine.search(q, k=7, mode="bm25",
                                 search_after=want[-1]) == [], q


def test_search_after_composes_with_ts_range(engine):
    q = "covid vaccine"
    full = engine.search(q, k=0, mode="bm25")
    if len(full) >= 4:
        tss = sorted(r[2] for r in full)
        win = (tss[1], tss[-2])
        filt = [r for r in reversed(full) if win[0] <= r[2] <= win[1]]
        page1 = engine.search(q, k=2, mode="bm25", ts_range=win)
        page2 = engine.search(q, k=len(filt), mode="bm25", ts_range=win,
                              search_after=page1[0])
        assert list(reversed(page1)) + list(reversed(page2)) == filt


def test_boosts_laws(engine):
    """boost==1 everywhere is a no-op; scaling ALL boosts by 2 doubles
    every score exactly (power-of-two FP) and preserves the ranking."""
    from search_engine_ray.fixtures import gen_queries

    for q in gen_queries():
        terms, _, _ = engine.parser.parse_sentence(q)
        base = engine.search(q, k=10, mode="bm25")
        ones = engine.search(q, k=10, mode="bm25",
                             boosts={t: 1.0 for t in terms})
        assert ones == base, q
        twos = engine.search(q, k=10, mode="bm25",
                             boosts={t: 2.0 for t in terms})
        assert [(s * 2, d, t) for s, d, t in base] == twos, q


def test_boosts_reweight_ranking(engine):
    """A large boost on one term pulls that term's docs to the top:
    every returned doc must contain the boosted term once the boost
    dominates (fixture vocab guarantees multi-term candidates)."""
    q = "covid vaccine"
    res = engine.search(q, k=5, mode="bm25", boosts={"covid": 1000.0})
    p = engine.postings("covid")
    assert res and p is not None
    covid_ids = set(p["doc_ids"].tolist())
    assert all(d in covid_ids for _s, d, _t in res)


def test_after_boosts_rejected_outside_bm25(engine):
    with pytest.raises(ValueError):
        engine.search("covid", mode="bm25_wand",
                      search_after=(1.0, 0, 0))
    with pytest.raises(ValueError):
        engine.search("covid", mode="reference", boosts={"covid": 2.0})


# ------------------------------------------------------- synonym expansion
def test_synonyms_equal_rewritten_query(engine):
    """Synonym expansion is a pure query rewrite: searching with the
    map equals searching the expanded text directly, in every mode."""
    q = "covid vaccine"
    syn = {"covid": ["virus"], "vaccine": ["masks", "virus"]}
    rewritten = "covid virus vaccine masks"
    for mode in ("bm25", "bm25_wand", "bool_and", "bool_or", "reference"):
        got = engine.search(q, k=10, mode=mode, synonyms=syn)
        want = engine.search(rewritten, k=10, mode=mode)
        assert got == want, mode
    # alternates already in the query dedup to a no-op
    assert engine.search(q, k=10, mode="bm25",
                         synonyms={"covid": ["vaccine", "covid"]}) \
        == engine.search(q, k=10, mode="bm25")
    # unknown-term alternates behave like any unknown term
    assert engine.search(q, k=10, mode="bm25",
                         synonyms={"covid": ["zzqqxv"]}) \
        == engine.search(q, k=10, mode="bm25")
    # a synonyms map touching NO query term is an exact no-op in every
    # mode — including reference mode with a REPEATED query term, whose
    # duplicate weighting must survive the rewrite untouched
    dup_q = "covid covid vaccine"
    for mode in ("bm25", "reference", "bm25_wand"):
        assert engine.search(dup_q, k=10, mode=mode,
                             synonyms={"zzz": ["qqq"]}) \
            == engine.search(dup_q, k=10, mode=mode), mode


def test_synonyms_compose_with_boosts(engine):
    """The rewrite happens before scoring, so boosts address the
    EXPANDED term set."""
    q = "covid"
    syn = {"covid": ["vaccine"]}
    got = engine.search(q, k=10, mode="bm25", synonyms=syn,
                        boosts={"covid": 2.0, "vaccine": 2.0})
    base = engine.search("covid vaccine", k=10, mode="bm25")
    assert got == [(s * 2, d, t) for s, d, t in base]


# ---------------------------------------- distributed serving-option parity
def test_distributed_serving_options_parity(engine, built_index):
    """The distributed engine supports the same bm25 serving options as
    the in-process engine — ts_range, search_after, boosts, synonyms —
    with identical results (shard-local filters + exact merge)."""
    from search_engine_ray.query.distributed import DistributedSearchEngine

    dist = DistributedSearchEngine(built_index[0], num_actors=2)
    q = "covid vaccine"
    full = engine.search(q, k=0, mode="bm25")
    tss = sorted(r[2] for r in full)
    win = (tss[len(tss) // 4], tss[3 * len(tss) // 4])
    terms, _, _ = engine.parser.parse_sentence(q)
    boosts = {terms[0]: 3.0}
    syn = {terms[0]: ["masks"]}

    for kw in ({"ts_range": win},
               {"boosts": boosts},
               {"synonyms": syn},
               {"ts_range": win, "boosts": boosts, "synonyms": syn}):
        a = engine.search(q, k=10, mode="bm25", **kw)
        b = dist.search(q, k=10, mode="bm25", **kw)
        assert a == b, kw

    # cursor paging stitches identically across both engines
    page1 = engine.search(q, k=7, mode="bm25")
    assert dist.search(q, k=7, mode="bm25") == page1
    a2 = engine.search(q, k=7, mode="bm25", search_after=page1[0])
    b2 = dist.search(q, k=7, mode="bm25", search_after=page1[0])
    assert a2 == b2 and a2
    # cursor COMBINED with each other option (the composite mask path
    # in search_local)
    for kw in ({"ts_range": win}, {"boosts": boosts},
               {"synonyms": syn},
               {"ts_range": win, "boosts": boosts, "synonyms": syn}):
        p1 = engine.search(q, k=4, mode="bm25", **kw)
        assert dist.search(q, k=4, mode="bm25", **kw) == p1, kw
        if not p1:
            continue
        a3 = engine.search(q, k=4, mode="bm25", search_after=p1[0], **kw)
        b3 = dist.search(q, k=4, mode="bm25", search_after=p1[0], **kw)
        assert a3 == b3, kw
    # option guard matches the in-process contract
    with pytest.raises(ValueError):
        dist.search(q, k=5, mode="reference", boosts=boosts)
    # synonyms allowed in non-scored modes too
    assert dist.search(q, k=50, mode="bool_or", synonyms=syn) \
        == engine.search(q, k=50, mode="bool_or", synonyms=syn)


# ------------------------------------------------------------- NRT serving
@pytest.fixture(scope="module")
def nrt_setup(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index.build import build_index

    root = tmp_path_factory.mktemp("nrt")
    cfg = EngineConfig(tokenizer="simple", harvest_page_url=False,
                       prune_df1=False)
    d1 = root / "p_base"; d1.mkdir()
    pq.write_table(gen_pages(300), str(d1 / "p.parquet"))
    d2 = root / "p_all"; d2.mkdir()
    pq.write_table(gen_pages(300), str(d2 / "a.parquet"))
    pq.write_table(gen_pages(60, start=300), str(d2 / "b.parquet"))
    base_idx = str(root / "idx_base"); all_idx = str(root / "idx_all")
    build_index(str(d1), base_idx, cfg)
    build_index(str(d2), all_idx, cfg)
    return root, base_idx, all_idx


def test_nrt_equals_rebuild_exactly(nrt_setup):
    """The NRT law: base index + in-memory segment scored with combined
    corpus statistics == a full rebuild over base+delta, bit-exact
    (scores, ts, ids), for every fixture query."""
    from search_engine_ray.fixtures import gen_pages, gen_queries
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.query.nrt import NrtSearchEngine

    _root, base_idx, all_idx = nrt_setup
    nrt = NrtSearchEngine(base_idx)
    assert nrt.add_pages(gen_pages(60, start=300)) == 60
    rebuilt = SearchEngine(all_idx)
    for q in gen_queries():
        assert nrt.search(q, k=10) == rebuilt.search(q, k=10,
                                                     mode="bm25"), q
    # full-list law too (k=0 quirk)
    q = "covid vaccine"
    assert nrt.search(q, k=0) == rebuilt.search(q, k=0, mode="bm25")
    # segment docs are genuinely served (a seg-only doc can rank)
    seg_ids = set(nrt._segment().ids.tolist())
    full = nrt.search(q, k=0)
    assert any(d in seg_ids for _s, d, _t in full)


def _page_rows(table):
    return list(zip(table.column("url").to_pylist(),
                    [x.value for x in table.column("warc_ts")],
                    table.column("text").to_pylist()))


def test_nrt_refresh_caches_follow_every_add(nrt_setup):
    """The per-refresh segment view is dropped by every add: after each
    of four batches the NRT answers equal an oracle built over base +
    everything added so far (k = 1, 10 and the k=0 full list), a query
    repeated inside one refresh answers the same from the same view, and
    a term first seen in a later batch (searched, unknown, before it) is
    served."""
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages, gen_queries
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.nrt import NrtSearchEngine

    _root, base_idx, _all_idx = nrt_setup
    cfg = EngineConfig(tokenizer="simple", harvest_page_url=False,
                       prune_df1=False)
    rows = _page_rows(gen_pages(300))
    new_term = "zyzzogeton"
    batches = [_page_rows(gen_pages(20, start=300 + 20 * i))
               for i in range(3)]
    batches.append([("https://nrt.example/late/0", 1_600_000_000_000_000,
                     f"{new_term} covid vaccine news"),
                    ("https://nrt.example/late/1", 1_600_000_000_000_001,
                     f"{new_term} {new_term} virus")])
    queries = gen_queries() + [new_term, f"covid {new_term}"]
    nrt = NrtSearchEngine(base_idx)
    assert nrt.search(new_term, k=10) == []
    for batch in batches:
        assert nrt.add_pages(batch) == len(batch)
        rows += batch
        oracle = OracleIndex(cfg).build(rows)
        for q in queries:
            for k in (1, 10, 0):
                got = nrt.search(q, k=k)
                want = oracle.search(q, k=k, mode="bm25")
                assert [(d, ts) for _, d, ts in got] \
                    == [(d, ts) for _, d, ts in want], (q, k)
                assert all(abs(a[0] - b[0]) < 1e-9
                           for a, b in zip(got, want)), (q, k)
                # the repeat is served from this refresh's view
                assert nrt.search(q, k=k) == got, (q, k)
        # bit-identical to an engine that saw every page in one batch
        # (nothing cached across refreshes)
        fresh = NrtSearchEngine(base_idx)
        fresh.add_pages(rows[300:])
        for q in queries:
            assert fresh.search(q, k=10) == nrt.search(q, k=10), q
    late = nrt.search(new_term, k=10)
    assert [d for _, d, _ in late] and all(
        d in set(nrt._segment().ids) for _, d, _ in late)


def test_oracle_lazy_glove_centroid_equals_eager_sum():
    """The centroid computed on first use equals the sum of the doc's
    distinct-term GloVe vectors over their count, built eagerly from an
    independent parse of the page."""
    import numpy as np

    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.glove import glove_vector
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.oracle import OracleIndex

    rows = _page_rows(gen_pages(60))
    oracle = OracleIndex().build(rows)
    for url, _ts, text in rows[::7]:
        parsed = oracle.parser.parse_page(url, text)
        eager = np.zeros(oracle.config.glove_dim)
        for term in parsed.term_tfs:
            g = glove_vector(term)
            if g is not None:
                eager = eager + g
        eager = eager / len(parsed.term_tfs)
        assert np.array_equal(oracle.doc_vector(doc_id_for_url(url)),
                              eager), url


def test_nrt_empty_segment_equals_base(nrt_setup):
    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.query.nrt import NrtSearchEngine

    _root, base_idx, _all_idx = nrt_setup
    nrt = NrtSearchEngine(base_idx)
    be = SearchEngine(base_idx)
    for q in gen_queries()[:5]:
        assert nrt.search(q, k=10) == be.search(q, k=10, mode="bm25")


def test_nrt_flush_persists_and_rejects_dups(nrt_setup, tmp_path):
    from search_engine_ray.fixtures import gen_pages, gen_queries
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.query.nrt import NrtSearchEngine

    _root, base_idx, _all_idx = nrt_setup
    nrt = NrtSearchEngine(base_idx)
    nrt.add_pages(gen_pages(60, start=300))
    pre = {q: nrt.search(q, k=10) for q in gen_queries()[:5]}
    merged = nrt.flush(str(tmp_path / "flush"))
    assert nrt.segment_docs == 0
    eng = SearchEngine(merged)
    for q, want in pre.items():
        assert eng.search(q, k=10, mode="bm25") == want, q
        # the NRT engine REPOINTED to the merged index: flushed docs
        # keep serving through the same object (Lucene commit contract)
        assert nrt.search(q, k=10) == want, q
    # a flushed url stays dup-protected after the repoint
    with pytest.raises(ValueError):
        nrt.add_pages(gen_pages(2, start=300))
    # a url in the base index is rejected; so is a url in the segment
    nrt2 = NrtSearchEngine(base_idx)
    with pytest.raises(ValueError):
        nrt2.add_pages(gen_pages(2))
    nrt2.add_pages(gen_pages(2, start=400))
    with pytest.raises(ValueError):
        nrt2.add_pages(gen_pages(2, start=400))
    # flush with empty segment is a no-op returning the base dir
    assert NrtSearchEngine(base_idx).flush(str(tmp_path / "f2")) \
        == base_idx


def test_nrt_add_pages_batch_is_atomic(nrt_setup):
    """A batch containing ANY duplicate url must leave the engine
    exactly as it was — no half-applied docs, no stale cached view."""
    from search_engine_ray.fixtures import gen_pages, gen_queries
    from search_engine_ray.query.nrt import NrtSearchEngine

    _root, base_idx, _all_idx = nrt_setup
    nrt = NrtSearchEngine(base_idx)
    nrt.add_pages(gen_pages(10, start=300))
    q = gen_queries()[0]
    before = nrt.search(q, k=10)
    n_before = nrt.segment_docs
    import pyarrow as pa

    good = gen_pages(12, start=310)
    dup = gen_pages(1, start=305)     # already in the segment
    bad_batch = pa.concat_tables([good, dup])
    with pytest.raises(ValueError):
        nrt.add_pages(bad_batch)
    assert nrt.segment_docs == n_before
    assert nrt.search(q, k=10) == before
    # an intra-batch duplicate is rejected too
    twice = pa.concat_tables([gen_pages(1, start=350),
                              gen_pages(1, start=350)])
    with pytest.raises(ValueError):
        nrt.add_pages(twice)
    # the good rows are still addable afterwards (nothing half-applied)
    assert nrt.add_pages(good) == 12


# ----------------------------------------- quoted-phrase ranked search
def test_parse_quoted_query():
    from search_engine_ray.query.engine import parse_quoted_query

    text, phrases = parse_quoted_query('"query scan" table')
    assert phrases == ["query scan"]
    assert "query" in text and "table" in text and '"' not in text
    # two phrases, empty span dropped, unbalanced trailing quote closes
    # at end-of-string
    assert parse_quoted_query('"a b" "" c "d')[1] == ["a b", "d"]
    assert parse_quoted_query("no quotes")[1] == []


def test_phrase_gated_bm25_laws(pos_sf):
    """Score filter-invariance (the Lucene filter-query convention):
    every doc in the phrase-gated top-k keeps its plain-BM25 score, and
    the gated result == plain result restricted to phrase matches."""
    from search_engine_ray.ops.matching import positional_index

    eng, _ = positional_index(pos_sf)
    plain = eng.search("query scan table", k=0, mode="bm25")
    gated = eng.search("query scan table", k=0, mode="bm25",
                       phrases=[["query", "scan"]])
    allowed = set(eng.phrase_docs(["query", "scan"]).tolist())
    assert gated == [r for r in plain if r[1] in allowed]
    assert len(gated) > 0
    # absent phrase -> empty; no phrases -> identical to plain
    assert eng.search("query scan", k=5, mode="bm25",
                      phrases=[["zzznope", "query"]]) == []
    assert eng.search("query scan", k=5, mode="bm25",
                      phrases=[]) == eng.search("query scan", k=5,
                                                mode="bm25")
    # two phrases intersect
    both = eng.search("query scan data", k=0, mode="bm25",
                      phrases=["query scan", "data"])
    a2 = set(eng.phrase_docs(["data"]).tolist())
    assert {r[1] for r in both} == {r[1] for r in gated
                                    if r[1] in a2 and "data"}
    # phrases outside bm25 mode is an error
    with pytest.raises(ValueError):
        eng.search("query scan", mode="bm25_wand", phrases=["query"])


def test_phrase_gate_composes_with_cursor(pos_sf):
    """search_after pages through the PHRASE-GATED ranking."""
    from search_engine_ray.ops.matching import positional_index

    eng, _ = positional_index(pos_sf)
    full = list(reversed(eng.search("query scan table", k=0, mode="bm25",
                                    phrases=["query scan"])))
    if len(full) > 3:
        page1 = list(reversed(eng.search(
            "query scan table", k=2, mode="bm25", phrases=["query scan"])))
        page2 = list(reversed(eng.search(
            "query scan table", k=2, mode="bm25", phrases=["query scan"],
            search_after=(page1[-1][0], page1[-1][1], page1[-1][2]))))
        assert page1 + page2 == full[:4]


# ------------------------------------------- champion-list tiered search
def test_tiered_equals_exact_with_large_m(built_index):
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    for q in ("virus covid news", "the health people"):
        exact = eng.search(q, k=10, mode="bm25")
        assert eng.search_tiered(q, k=10, m=10**9) == exact


def test_tiered_candidates_bounded_and_ranked(built_index):
    """With small m: every result doc is a champion of some query term,
    result size <= m * |terms|, and scores are FULL BM25 (each returned
    doc's score equals its plain-BM25 score — champion pruning changes
    candidate membership, never a kept doc's score)."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    q, m = "virus covid news", 3
    res = eng.search_tiered(q, k=0, m=m)
    assert 0 < len(res) <= 3 * m
    plain = {d: s for s, d, _ in eng.search(q, k=0, mode="bm25")}
    for s, d, _ in res:
        assert abs(plain[d] - s) < 1e-12


def test_match_counts_vs_posting_sets(built_index):
    import numpy as np

    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    c = eng.match_counts("virus covid")
    p1, p2 = eng.postings("virus"), eng.postings("covid")
    s1 = set(p1["doc_ids"].tolist()) if p1 else set()
    s2 = set(p2["doc_ids"].tolist()) if p2 else set()
    assert c == {"n_or": len(s1 | s2), "n_and": len(s1 & s2)}
    # unknown term: OR counts the known side, AND empties
    c2 = eng.match_counts("virus zzznotaterm")
    assert c2 == {"n_or": len(s1), "n_and": 0}
    assert eng.match_counts("") == {"n_or": 0, "n_and": 0}


def test_distributed_phrase_gated_search_parity(pos_sf):
    """search(phrases=) on the shard actors == the in-process engine:
    phrase gating is shard-local (a doc's positions live entirely in
    its shard), so the gated merge stays exact."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.distributed import DistributedSearchEngine

    eng, _ = positional_index(pos_sf)
    dist = DistributedSearchEngine(eng._out_dir, num_actors=3)
    cases = [("query scan table", ["query scan"]),
             ("data query", ["data", "query"]),       # two phrases
             ("query scan", [["zzznope"]]),           # absent -> []
             ("query scan", [])]                      # no-op gate
    for q, phs in cases:
        a = eng.search(q, k=10, mode="bm25", phrases=phs)
        b = dist.search(q, k=10, mode="bm25", phrases=phs)
        assert [(d, ts) for _, d, ts in a] == [(d, ts) for _, d, ts in b], q
        for (sa, _, _), (sb, _, _) in zip(a, b):
            assert abs(sa - sb) < 1e-9, q
    with pytest.raises(ValueError):
        dist.search("query", mode="reference", phrases=["query scan"])


def test_prox_boosted_laws(pos_sf):
    """weight=0 == plain BM25; boosts are bounded by weight x n_pairs
    and strictly positive exactly for docs where some adjacent pair
    co-occurs within the window."""
    import numpy as np

    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.engine import adjacent_term_pairs

    eng, _ = positional_index(pos_sf)
    q = "query scan table"
    plain = {d: s for s, d, _ in eng.search(q, k=0, mode="bm25")}
    zero = eng.search_proximity_boosted(q, k=0, weight=0.0)
    assert {d: s for s, d, _ in zero} == plain
    boosted = eng.search_proximity_boosted(q, k=0, window=8, weight=0.5)
    pairs = adjacent_term_pairs(eng.parser.parse_sentence(q)[0])
    assert len(pairs) == 2
    prox_docs = set()
    for t1, t2 in pairs:
        docs, _ = eng.proximity_docs(t1, t2, window=8)
        prox_docs |= set(docs.tolist())
    for s, d, _ in boosted:
        delta = s - plain[d]
        assert -1e-12 <= delta <= 0.5 * len(pairs) + 1e-12
        assert (delta > 1e-12) == (d in prox_docs)
    # a degenerate self-pair query has no pairs at all
    assert adjacent_term_pairs(["data", "data"]) == []


# ------------------------------------------------ image dHash near-dup
def test_distributed_prox_boosted_parity(pos_sf):
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.query.distributed import DistributedSearchEngine

    eng, _ = positional_index(pos_sf)
    dist = DistributedSearchEngine(eng._out_dir, num_actors=3)
    for q in ("query scan table", "spark data", "data zzznope", "data"):
        a = eng.search_proximity_boosted(q, k=10)
        b = dist.search_proximity_boosted(q, k=10)
        assert [(d, ts) for _, d, ts in a] == [(d, ts) for _, d, ts in b], q
        for (sa, _, _), (sb, _, _) in zip(a, b):
            assert abs(sa - sb) < 1e-12, q


def test_tiered_m_nonpositive_and_cli_validation(built_index):
    """m<=0 returns [] in BOTH engines (review: the in-process path used
    to IndexError and negative m inverted the champion rule)."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    assert eng.search_tiered("virus covid", k=5, m=0) == []
    assert eng.search_tiered("virus covid", k=5, m=-2) == []


def test_parse_quoted_query_properties():
    """Property: for any text, (a) the returned text contains no double
    quote, (b) every returned phrase is non-empty and appeared between
    quotes, (c) token multiset of text is preserved (quotes only become
    separators)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from search_engine_ray.query.engine import parse_quoted_query
    from search_engine_ray.text.tokenizer import simple_tokenize

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet='ab c"', max_size=40))
    def check(q):
        text, phrases = parse_quoted_query(q)
        assert '"' not in text
        assert all(p for p in phrases)
        assert simple_tokenize(text) == simple_tokenize(q.replace('"', ' '))
        for p in phrases:
            assert p in q

    check()


def test_tiered_subset_property(built_index):
    """Property over a range of m: tiered results are always a subset of
    the exact-BM25 candidate set with UNCHANGED per-doc scores, and the
    result set grows monotonically (as sets) with m."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    q = "virus covid news people"
    plain = {d: s for s, d, _ in eng.search(q, k=0, mode="bm25")}
    prev: set = set()
    for m in (1, 2, 4, 8, 16, 64, 10**9):
        res = eng.search_tiered(q, k=0, m=m)
        got = {d for _, d, _ in res}
        for s, d, _ in res:
            assert abs(plain[d] - s) < 1e-12
        assert prev <= got, m
        prev = got
    assert prev == set(plain)  # m >= max df covers every candidate


def test_serp_snippets_indexed_laws(ray_session):
    """Every hit's snippet (a) holds <= 2*window+1 tokens, (b) contains
    the first query term the doc matches, (c) equals the window slice
    recomputed INDEPENDENTLY from the raw text around that term's first
    occurrence."""
    from search_engine_ray.ops.fulltext import serp_snippets_indexed
    from search_engine_ray.ops.sqlcheck import _read_doc_texts
    from search_engine_ray.text.tokenizer import simple_tokenize

    sf = "/root/testdata/sf0.001"
    w = 3
    out = serp_snippets_indexed(sf, ["query scan", "data"], k=8,
                                window=w).to_pandas()
    assert len(out) > 0
    texts = _read_doc_texts(sf, sorted(set(out["doc_id"])))
    qterms = {0: ["query", "scan"], 1: ["data"]}
    for _, r in out.iterrows():
        toks = simple_tokenize(texts[r["doc_id"]])
        first = next(t for t in qterms[r["query_id"]] if t in toks)
        pos = toks.index(first) + 1
        a, b = max(1, pos - w), min(len(toks), pos + w)
        assert r["snippet"] == " ".join(toks[a - 1:b])
        assert len(r["snippet"].split()) <= 2 * w + 1
        assert first in r["snippet"].split()


def test_click_triangles_planted(ray_session, tmp_path):
    """A user whose clicks walk 1-2-3-1 plants exactly one triangle
    (each corner counted once); a pure path user plants none."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.graph import click_triangles

    rows = []
    eid = 0
    # triangle walk: 1 2 3 1  -> edges (1,2),(2,3),(1,3)
    for k in (1, 2, 3, 1):
        rows.append(("u1", eid, json.dumps({"k": k}))); eid += 1
    # path walk: 10 11 12 -> no closing edge
    for k in (10, 11, 12):
        rows.append(("u2", eid, json.dumps({"k": k}))); eid += 1
    t = pa.table({
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(list(range(len(rows))), pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.string()),
        "props": pa.array([r[2] for r in rows], pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = click_triangles(str(tmp_path)).to_pandas()
    assert dict(zip(out["node"], out["n_tri"])) == {1: 1, 2: 1, 3: 1}


def test_related_items_planted(ray_session, tmp_path):
    """Two users sharing items {1,2} -> pair (1,2) with co=2 and
    jaccard 1e6*2/(2+2-2)=1000000; item 3 seen by only one user forms
    pairs below min_co and drops."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.graph import related_items

    rows, eid = [], 0
    for u, ks in (("u1", [1, 2, 3]), ("u2", [1, 2])):
        for k in ks:
            rows.append((u, eid, json.dumps({"k": k}))); eid += 1
    t = pa.table({
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(list(range(len(rows))), pa.int64()),
        "user_id": pa.array([r[0] for r in rows], pa.string()),
        "props": pa.array([r[2] for r in rows], pa.string()),
    })
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = related_items(str(tmp_path)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["a"], r["b"], r["co"], r["jaccard_e6"]) == (1, 2, 2, 1000000)


def test_fsck_green_and_detects_corruption(ray_session, built_index,
                                           tmp_path):
    """fsck passes on a healthy index; a tampered dictionary df and a
    truncated postings file are both detected as fails, not crashes."""
    import shutil

    import pyarrow.parquet as pq

    from search_engine_ray.index.fsck import check_index

    rep = check_index(built_index[0]).to_pandas()
    assert (rep["status"] == "ok").all(), rep.to_string()

    # corrupt copy: bump one dict row's df
    bad = str(tmp_path / "badidx")
    shutil.copytree(built_index[0], bad)
    import glob as g
    dict_files = g.glob(os.path.join(bad, "dict", "**", "*.parquet"),
                        recursive=True)
    t = pq.read_table(dict_files[0])
    df = t.to_pandas()
    real = df[~df["term"].str.startswith("\x01")]
    df.loc[real.index[0], "df"] = int(real["df"].iloc[0]) + 1
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   dict_files[0])
    rep2 = check_index(bad, sample_terms=10**9).to_pandas()
    assert (rep2.set_index("check")["status"]["postings:df"]
            == "fail"), rep2.to_string()

    # corrupt copy 2: truncate a postings file -> fail row, no crash
    bad2 = str(tmp_path / "badidx2")
    shutil.copytree(built_index[0], bad2)
    pfiles = g.glob(os.path.join(bad2, "postings", "**", "*.parquet"),
                    recursive=True)
    with open(pfiles[0], "r+b") as fh:
        fh.truncate(100)
    rep3 = check_index(bad2, sample_terms=10**9).to_pandas()
    assert (rep3["status"] == "fail").any()



def test_c4_quality_flags_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import c4_quality_flags

    docs = ["clean text here", "code { weird }", "Lorem Ipsum dolor",
            "enable javascript now", "slow slow legacy path"]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = (c4_quality_flags(str(tmp_path)).to_pandas()
           .set_index("doc_id").sort_index())
    assert list(out["keep"]) == [True, False, False, False, False]
    assert list(out["has_brace"]) == [False, True, False, False, False]
    assert list(out["has_lorem"]) == [False, False, True, False, False]
    assert list(out["has_js"]) == [False, False, False, True, False]
    # EXACT token counts: 'slow slow' counts twice (substring counting
    # on the space-joined string would miss the overlapped second one)
    assert list(out["banned_n"]) == [0, 0, 0, 0, 3]


def test_common_terms_laws(built_index):
    """Rare-first results are plain-BM25 results restricted to docs
    containing a low-df term (unchanged scores); with no low-df term in
    the query it falls back to exact BM25."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    # every fixture head term is high-df -> fallback == plain bm25
    q = "virus covid news"
    assert eng.search_common_terms(q, k=10) == eng.search(q, k=10,
                                                          mode="bm25")
    # rare + high-df pair: the head term must not drive candidates
    rare = min(eng.df_map, key=lambda t: eng.df_map[t])
    his = [t for t in eng.df_map
           if eng.df_map[t] * 2 >= eng.n_docs]
    if eng.df_map[rare] * 2 < eng.n_docs and his:
        hi = max(his, key=lambda t: eng.df_map[t])
        q2 = f"{rare} {hi}"
        got = eng.search_common_terms(q2, k=0)
        plain = eng.search(q2, k=0, mode="bm25")
        allowed = set(eng.postings(rare)["doc_ids"].tolist())
        assert len(allowed) < len({r[1] for r in plain})  # real pruning
        assert got == [r for r in plain if r[1] in allowed]


def test_candidate_stats_laws(built_index):
    """tiered and rare_first candidate volumes never exceed plain, and
    a small m really prunes a multi-term head query."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    st = eng.candidate_stats("virus covid news people", m=3)
    assert 0 < st["tiered"] <= st["plain"]
    assert 0 < st["rare_first"] <= st["plain"]
    assert st["tiered"] <= 4 * 3
    assert eng.candidate_stats("") == {"plain": 0, "tiered": 0,
                                       "rare_first": 0}
    # tiered candidate count equals the distinct docs search_tiered scores
    res = eng.search_tiered("virus covid news people", k=0, m=3)
    assert st["tiered"] == len({d for _, d, _ in res})


def test_train_test_split_laws(ray_session):
    """Reproducible; ratios roughly honored; reseed changes the split;
    leakage-safe puts every near-dup component entirely in ONE split."""
    from search_engine_ray.ops.dedup import (
        connected_min_labels,
        minhash_near_dup_pairs,
        train_test_split,
    )

    sf = "/root/testdata/sf0.001"
    a = train_test_split(sf).to_pandas().sort_values("doc_id")
    b = train_test_split(sf).to_pandas().sort_values("doc_id")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    frac = (a["split"] == "train").mean()
    assert 0.6 < frac < 0.95
    c = train_test_split(sf, seed="other").to_pandas().sort_values(
        "doc_id")
    assert not (a["split"].to_numpy()
                == c["split"].to_numpy()).all()

    safe = train_test_split(sf, leakage_safe=True).to_pandas()
    smap = dict(zip(safe["doc_id"], safe["split"]))
    labels = connected_min_labels(
        minhash_near_dup_pairs(sf, threshold=0.6)).to_pandas()
    comp: dict = {}
    for n, l in zip(labels["node"], labels["label"]):
        comp.setdefault(l, []).append(n)
    n_multi = 0
    for l, members in comp.items():
        splits = {smap[m] for m in members} | {smap[l]}
        assert len(splits) == 1, (l, splits)
        n_multi += len(members) > 0
    assert n_multi > 0  # the fixture corpus really has near-dups


def test_ngram_diversity_planted(ray_session, tmp_path):
    """'a a a a' has 4 unigrams/1 distinct, 3 bigrams/1 distinct; a
    fully distinct doc scores ratio 1e6."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import ngram_diversity

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["a a a a", "w x y z"], pa.string())})
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = (ngram_diversity(str(tmp_path)).to_pandas()
           .set_index("n").sort_index())
    assert (out.loc[1, "total"], out.loc[1, "n_distinct"]) == (8, 5)
    assert (out.loc[2, "total"], out.loc[2, "n_distinct"]) == (6, 4)
    assert (out.loc[3, "total"], out.loc[3, "n_distinct"]) == (4, 3)
    assert out.loc[1, "ratio_e6"] == (1_000_000 * 5) // 8


def test_search_as_you_type_laws(built_index):
    """A complete last word equals plain BM25 when it is its own best
    completion; an impossible prefix degrades to the head ranking."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    # 'virus' is a dict term; with itself ranked among top completions
    # of 'virus' (exact prefix match), expansion = {virus, ...} —
    # results must be a superset-ranking over plain; with a UNIQUE
    # completion it must equal plain exactly
    full = min((t for t in eng.df_map), key=len)
    comps = [t for t in eng.df_map if t.startswith(full)]
    if len(comps) == 1:
        assert eng.search_as_you_type(full, k=5) == eng.search(
            full, k=5, mode="bm25")
    # impossible prefix: equals the head-only ranking
    assert eng.search_as_you_type("virus zzqx", k=5) == eng.search(
        "virus", k=5, mode="bm25")
    assert eng.search_as_you_type("zzqx", k=5) == []


def test_search_as_you_type_prefix_range_equals_full_scan(built_index):
    """The sorted-vocabulary prefix range gives exactly the completions
    a scan of the whole dictionary gives, for every 1-3-char prefix of
    the fixture vocabulary (and for prefixes sorting past its ends)."""
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    prefixes = {t[:n] for t in eng.df_map for n in (1, 2, 3)}
    prefixes |= {"\x00", "\U0010ffff", "zzzz"}
    for pre in sorted(prefixes):
        want = sorted((t for t in eng.df_map if t.startswith(pre)),
                      key=lambda t: (-eng.df_map[t], t))
        got = eng._with_prefix(pre)
        assert sorted(got) == sorted(want), pre
        assert sorted(got, key=lambda t: (-eng.df_map[t], t))[:3] \
            == want[:3], pre
    # end to end: the last token expands to the full scan's top 3
    for q in ("virus cov", "covid vacc", "peo", "zzqx"):
        *head, pre = eng.parser.parse_sentence(q)[0]
        top = sorted((t for t in eng.df_map if t.startswith(pre)),
                     key=lambda t: (-eng.df_map[t], t))[:3]
        assert eng.search_as_you_type(q, k=10) == eng._search_bm25_taat(
            list(dict.fromkeys(head + (top or [pre]))), 10), q
