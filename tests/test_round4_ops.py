"""Non-default-parameter and invariant tests for the late round-4 ops
(the driver/mirror gate only exercises default arguments)."""

import duckdb
import numpy as np
import pytest

SF01 = "/root/testdata/sf0.01"


def test_token_budget_mix_invariants(ray_session):
    import os

    from search_engine_ray.ops.textstats import (
        TOKEN_BUDGET_DEFAULT,
        TOKEN_BUDGETS,
        token_budget_mix,
    )

    kept = token_budget_mix(SF01).to_pandas()
    sums = kept.groupby("source")["n_tokens"].sum()
    for src, tot in sums.items():
        assert tot <= TOKEN_BUDGETS.get(src, TOKEN_BUDGET_DEFAULT)
    # determinism across shuffle widths (cluster-size independence)
    os.environ["SE_RAY_N_BUCKETS"] = "17"
    try:
        kept2 = token_budget_mix(SF01).to_pandas()
    finally:
        del os.environ["SE_RAY_N_BUCKETS"]
    a = kept.sort_values(["source", "doc_id"]).reset_index(drop=True)
    b = kept2.sort_values(["source", "doc_id"]).reset_index(drop=True)
    assert a[["doc_id", "source", "n_tokens"]].equals(
        b[["doc_id", "source", "n_tokens"]])


def test_dup_ngram_fraction_planted_pair(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.textstats import dup_ngram_fraction

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lamda mu")
    uniq = "one two three four five six seven eight nine ten"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([base, base, uniq], pa.string()),
        "lang": pa.array(["en"] * 3), "source": pa.array(["s"] * 3),
        "n_chars": pa.array([len(base), len(base), len(uniq)],
                            pa.int64())})
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")
    out = dup_ngram_fraction(str(d)).to_pandas().set_index("doc_id")
    # the two identical docs share every 5-gram; the unique doc none
    assert out.loc[1, "n_dup"] == out.loc[1, "n_grams"] > 0
    assert out.loc[2, "n_dup"] == out.loc[2, "n_grams"]
    assert out.loc[3, "n_dup"] == 0 and out.loc[3, "n_grams"] > 0


def _pages_table(texts):
    import pyarrow as pa

    from search_engine_ray.fixtures import wrap_html

    urls = [f"https://ex.com/{i}" for i in range(len(texts))]
    ts = [1_700_000_000_000_000 + i for i in range(len(texts))]
    return urls, ts, pa.table({
        "url": pa.array(urls),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array([wrap_html(x, f"t{i}")
                          for i, x in enumerate(texts)], pa.binary()),
        "text": pa.array(texts),
        "lang": pa.array(["de"] * len(texts))})


def _build_and_engine(tmp_path, table, cfg):
    import os

    import pyarrow.parquet as pq_

    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.engine import SearchEngine

    d = tmp_path / "pages"
    d.mkdir()
    idx = tmp_path / "idx"
    pq_.write_table(table, os.path.join(d, "p.parquet"))
    man = build_index(str(d), str(idx), cfg, overwrite=True)
    return man, SearchEngine(str(idx))


def test_capitals_rewrite_collision_matches_oracle(ray_session, tmp_path):
    """'Straße'/'Strasse' both caps-rewrite to 'STRASSE'; with ONE term
    bucket they collide in the same dict/postings partition.  The build
    must survive and serve the oracle's last-sorted-orig-wins result
    (reference indexer.py:161-166), not raise."""
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.oracle import OracleIndex

    texts = ["Die Strasse ist lang und breit heute",
             "Die Straße ist kurz und schmal heute",
             "Eine Straße und eine Strasse treffen sich hier"]
    cfg = EngineConfig(term_buckets=1, num_shards=1)
    urls, ts, table = _pages_table(texts)
    man, eng = _build_and_engine(tmp_path, table, cfg)
    o = OracleIndex(cfg).build(zip(urls, ts, texts))
    assert dict(eng.df_map) == dict(o.df)
    for q in ["Straße", "Strasse", "heute", "und"]:
        a = [(round(s, 9), d) for s, d, _ in eng.search(q, k=5,
                                                        mode="bm25")]
        b = [(round(s, 9), d) for s, d, _ in o.search(q, k=5,
                                                      mode="bm25")]
        assert a == b, q


def test_capitals_collision_across_buckets_matches_oracle(
        ray_session, tmp_path):
    """'straße' and 'strasse' hash to DIFFERENT term buckets at
    term_buckets=2, so their caps-rewritten 'STRASSE' rows are written by
    separate reduce tasks into separate files of the final tbucket dir.
    The read side must keep only the greatest orig term's postings
    (mirroring load_df_map / reference indexer.py:161-166) — serving
    both rows double-counts the term and breaks parity."""
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.ids import term_bucket
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.distributed import DistributedSearchEngine

    assert term_bucket("straße", 2) != term_bucket("strasse", 2)
    texts = ["Die Strasse ist lang und breit heute",
             "Die Straße ist kurz und schmal heute",
             "Eine Straße und eine Strasse treffen sich hier",
             "Die Strasse bleibt frei morgen"]
    cfg = EngineConfig(term_buckets=2, num_shards=2)
    urls, ts, table = _pages_table(texts)
    man, eng = _build_and_engine(tmp_path, table, cfg)
    o = OracleIndex(cfg).build(zip(urls, ts, texts))
    assert dict(eng.df_map) == dict(o.df)
    # the query parse lowercases (matching the reference searcher, which
    # also can't reach capitals-rewritten terms by text), so the bug
    # shows through the postings/df agreement, not search():
    # pre-fix, prefetch merged BOTH origs' rows → 4 doc ids vs df 2
    oracle_ids = sorted(t[0] for t in o.postings["STRASSE"])
    p = eng.postings("STRASSE")
    assert sorted(int(x) for x in p["doc_ids"]) == oracle_ids
    assert len(p["doc_ids"]) == eng.df_map["STRASSE"] == 2
    for q in ["heute", "und", "ist"]:
        a = [(round(s, 9), d) for s, d, _ in eng.search(q, k=5,
                                                        mode="bm25")]
        b = [(round(s, 9), d) for s, d, _ in o.search(q, k=5,
                                                      mode="bm25")]
        assert a == b, q
    # the shard actors apply the same max-orig rule per shard
    import ray

    from search_engine_ray.index import manifest as mf

    assert mf.load_df_and_orig(str(tmp_path / "idx"))[1] == {
        "STRASSE": "straße"}
    dist = DistributedSearchEngine(str(tmp_path / "idx"), num_actors=2)
    parts = ray.get([a.postings.remote("STRASSE") for a in dist.actors])
    got = []
    for pp in parts:
        if pp is not None:
            got.extend(int(x) for x in pp["doc_ids"])
    assert sorted(got) == oracle_ids


def test_reserved_stats_keys_survive_single_bucket(ray_session, tmp_path):
    """With term_buckets=1 both reserved corpus-stat keys land in ONE
    dict partition; pandas' khash string grouping truncates object
    strings at NUL bytes, so the old \\x00-prefixed keys silently merged
    (n_docs absorbed sum_dl).  The \\x01 keys must survive."""
    from search_engine_ray.config import EngineConfig

    texts = ["the quick brown fox jumps high today",
             "the slow green turtle walks low today",
             "a fox and a turtle meet right here"]
    cfg = EngineConfig(term_buckets=1, num_shards=1)
    _, _, table = _pages_table(texts)
    man, eng = _build_and_engine(tmp_path, table, cfg)
    assert man["n_docs"] == 3
    assert man["avg_doc_length"] > 0
    assert eng.avg_dl == man["avg_doc_length"]


def test_lsh_short_docs_never_pair(ray_session, tmp_path):
    """Docs shorter than the shingle n have NO grams in the exact
    backbone and the SQL closure; the LSH backbone must agree (it used
    to give them a whole-doc gram and jaccard 1.0)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.ops.dedup import (
        minhash_near_dup_pairs,
        ngram_jaccard_pairs,
    )

    long_a = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["foo bar", "foo bar", long_a, long_a, ""],
                         pa.string()),
        "lang": pa.array(["en"] * 5), "source": pa.array(["s"] * 5),
        "n_chars": pa.array([7, 7, len(long_a), len(long_a), 0],
                            pa.int64())})
    d = tmp_path / "short"
    d.mkdir()
    pq_.write_table(t, d / "documents.parquet")
    lsh = minhash_near_dup_pairs(str(d)).to_pandas()
    exact = ngram_jaccard_pairs(str(d)).to_pandas()
    lsh_pairs = set(zip(lsh["a"], lsh["b"]))
    exact_pairs = set(zip(exact["a"], exact["b"]))
    assert (1, 2) not in lsh_pairs and (1, 2) not in exact_pairs
    assert (3, 4) in lsh_pairs and (3, 4) in exact_pairs
    assert not any(5 in p for p in lsh_pairs | exact_pairs)


def test_kmeans_fewer_vectors_than_clusters(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.ops.similarity import kmeans_assign

    t = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([[float(i)] * 64 for i in range(3)],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 1, 2], pa.int32())})
    d = tmp_path / "tiny_emb"
    d.mkdir()
    pq_.write_table(t, d / "embeddings.parquet")
    out = kmeans_assign(str(d), k=8, iters=2).to_pandas()
    assert len(out) == 3  # no IndexError; every vector assigned


def test_approx_quantiles_empty_table(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.ops.sketches import approx_quantiles_hist

    t = pa.table({"value": pa.array([], pa.float64()),
                  "ts": pa.array([], pa.timestamp("us")),
                  "event_type": pa.array([], pa.string())})
    dd = tmp_path / "empty_ev"
    dd.mkdir()
    pq_.write_table(t, dd / "events.parquet")
    out = approx_quantiles_hist(str(dd))
    if hasattr(out, "to_pandas"):
        out = out.to_pandas()
    assert (out["est_e4"] == 0).all()


def test_input_fingerprint_same_size_mtime_content_change(tmp_path):
    """A same-size rewrite with a pinned mtime must still rotate the
    stage fingerprint (the footer digest catches it) — otherwise
    build_index silently serves a stale index."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.index import manifest as mf

    p = tmp_path / "in.parquet"
    pq_.write_table(pa.table({"x": pa.array([1, 2, 3], pa.int64())}), p)
    st = os.stat(p)
    fp1 = mf.input_fingerprint([str(p)])
    pq_.write_table(pa.table({"x": pa.array([1, 2, 4], pa.int64())}), p)
    os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))  # pin mtime back
    st2 = os.stat(p)
    fp2 = mf.input_fingerprint([str(p)])
    if st2.st_size == st.st_size:     # the interesting collision case
        assert fp1 != fp2
    else:                              # size moved: still must differ
        assert fp1 != fp2


def test_curate_write_rerun_no_duplication(ray_session, tmp_path):
    """Re-running curate_write into the same out_dir must produce the
    same row count, not append a second copy."""
    from search_engine_ray.pipelines.curate import curate_write

    out = tmp_path / "curated"
    n1 = curate_write("/root/testdata/sf0.001", str(out))
    n2 = curate_write("/root/testdata/sf0.001", str(out))
    assert n1 == n2 > 0


def test_k_zero_returns_full_list_quirk(ray_session, tmp_path):
    """The reference's retrieve_top_k(docs, 0) returns the FULL ranked
    list (list[-0:] quirk, ranker.py:63); oracle and engine mirror it."""
    from search_engine_ray.config import EngineConfig
    from search_engine_ray.oracle import OracleIndex

    texts = ["the quick brown fox jumps high today",
             "the slow green turtle walks low today",
             "a fox and a turtle meet right here"]
    cfg = EngineConfig(term_buckets=4, num_shards=2)
    urls, ts, table = _pages_table(texts)
    _, eng = _build_and_engine(tmp_path, table, cfg)
    o = OracleIndex(cfg).build(zip(urls, ts, texts))
    ro = o.search("fox turtle", k=0)
    re_ = eng.search("fox turtle", k=0)
    assert len(ro) == len(re_) > 1          # full candidate list
    assert [d for _, d, _ in ro] == [d for _, d, _ in re_]
    assert o.search("fox", k=-1) == [] and eng.search("fox", k=-1) == []


def test_bloom_membership_bounds(ray_session):
    """Bloom filters never false-negative; false positives stay within
    a loose multiple of the theoretical (1 - e^{-kn/m})^k bound."""
    import numpy as np

    from search_engine_ray.ops.sketches import (
        _BLOOM_K,
        _BLOOM_M,
        bloom_doc_membership,
    )

    out = bloom_doc_membership(SF01, n_absent=500).to_pandas()
    row = out.set_index("probe_kind")
    assert row.loc["present", "n_hits"] == row.loc["present", "n_probes"]
    n = int(row.loc["present", "n_probes"])
    fpr_bound = (1 - np.exp(-_BLOOM_K * n / _BLOOM_M)) ** _BLOOM_K
    fpr = row.loc["absent", "n_hits"] / row.loc["absent", "n_probes"]
    assert fpr <= max(3 * fpr_bound, 0.02)


def test_curate_write_refuses_foreign_dir(ray_session, tmp_path):
    """curate_write must not rmtree a pre-existing directory that does
    not look like prior curate output (pk=* hive layout)."""
    import pytest

    from search_engine_ray.pipelines.curate import curate_write

    out = tmp_path / "precious"
    out.mkdir()
    (out / "keep_me.txt").write_text("not curate output")
    with pytest.raises(ValueError, match="refusing"):
        curate_write("/root/testdata/sf0.001", str(out))
    assert (out / "keep_me.txt").exists()


def test_weighted_sample_zero_char_docs_match_oracle(ray_session,
                                                     tmp_path):
    """Empty docs (n_chars=0) must not divide-by-zero and must select
    the same set as the SQL mirror's greatest(n_chars, 1) clamp."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from search_engine_ray.ops.sqlcheck import SQL_WEIGHTED_SAMPLE
    from search_engine_ray.ops.textstats import weighted_sample_topk

    texts = [""] * 4 + [f"doc body {i} with some words" for i in range(8)]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
        "n_chars": pa.array([len(x) for x in texts], pa.int64())})
    pq_.write_table(t, tmp_path / "documents.parquet")
    got = weighted_sample_topk(str(tmp_path), k=6).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(SQL_WEIGHTED_SAMPLE.replace("LIMIT 50",
                                                   "LIMIT 6")).df()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])


def test_docmeta_sidecar_shared_not_replicated(ray_session, tmp_path):
    """Round-5 scale fix: query-tier docmeta is a sorted mmap sidecar
    shared via the OS page cache, not a private numpy copy per engine.
    BM25/WAND must never map the 8x-larger glove file; a second engine
    must reuse (not rewrite) the sidecar; an incremental re-build must
    invalidate it."""
    import os

    import numpy as np
    import pyarrow.parquet as pq_

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.engine import SearchEngine

    d = tmp_path / "pages"
    d.mkdir()
    pq_.write_table(gen_pages(300), str(d / "a.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(d), idx, EngineConfig(), overwrite=True)

    eng = SearchEngine(idx)
    assert eng._meta is None  # lazy: no docmeta state until a query
    r1 = eng.search("covid vaccine news", k=5, mode="bm25")
    assert len(r1) > 0
    # plain ndarray views whose base is the mapping, not private copies
    assert isinstance(eng._meta["ids"].base, np.memmap)
    assert isinstance(eng._meta["ts"].base, np.memmap)
    assert eng._meta_glove is None  # bm25 never touches glove pages
    eng.search("covid vaccine news", k=5, mode="bm25_wand")
    assert eng._meta_glove is None

    ids_p = os.path.join(idx, "cache", "docmeta_ids.npy")
    mtime = os.path.getmtime(ids_p)
    eng2 = SearchEngine(idx)
    r2 = eng2.search("covid vaccine news", k=5, mode="bm25")
    assert r2 == r1
    assert os.path.getmtime(ids_p) == mtime  # reused, not rewritten

    # reference mode maps glove lazily and still matches itself
    rr = eng2.search("covid vaccine news", k=5, mode="reference")
    assert isinstance(eng2._meta_glove.base, np.memmap)
    assert len(rr) > 0

    # incremental re-build changes the docmeta fingerprint -> rebuild
    pq_.write_table(gen_pages(50, seed=7), str(d / "b.parquet"))
    build_index(str(d), idx, EngineConfig())
    eng3 = SearchEngine(idx)
    eng3.search("covid vaccine news", k=5, mode="bm25")
    assert len(eng3._meta["ids"]) == len(eng._meta["ids"]) + 50


