"""Batch query mode: search_many == per-query distributed search; query
file reader; CSV sink."""

import pytest

from search_engine_ray.fixtures import gen_queries


@pytest.fixture(scope="module")
def dist_engine(ray_session, built_index):
    from search_engine_ray.query.distributed import DistributedSearchEngine

    return DistributedSearchEngine(built_index[0], num_actors=2)


def test_search_many_matches_sequential(dist_engine):
    from search_engine_ray.query.batch import search_many

    queries = gen_queries()[:10]
    table = search_many(dist_engine, queries, k=5, mode="bm25")
    df = table.to_pandas()
    for qi, q in enumerate(queries):
        seq = dist_engine.search(q, k=5, mode="bm25")
        got = df[df["query_id"] == qi].sort_values("rank")
        # seq ascending (score, ts, id); table rank 1 = best
        assert got["doc_id"].tolist() == [d for _, d, _ in reversed(seq)], q


def test_queries_file_roundtrip(tmp_path):
    from search_engine_ray.query.batch import read_queries_file

    p = tmp_path / "queries.txt"
    p.write_text("covid vaccine\n\nmasks\n", encoding="utf-8")
    qs = read_queries_file(str(p))
    assert qs == ["covid vaccine\n", "masks\n"]  # unstripped, like reference


def test_csv_sink(dist_engine, tmp_path):
    from search_engine_ray.query.batch import search_many, write_results_csv

    table = search_many(dist_engine, ["covid"], k=3)
    out = write_results_csv(table, str(tmp_path / "results.csv"))
    text = open(out).read()
    assert text.splitlines()[0].startswith('"query_id","rank","doc_id"')
    assert len(text.splitlines()) == table.num_rows + 1


def test_search_many_partitioned_matches_inprocess(built_index, engine):
    """Query-partitioned batch mode returns exactly the in-process
    engine's results for every query."""
    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.batch import search_many_partitioned

    queries = [q for q in gen_queries()][:8]
    t = search_many_partitioned(built_index[0], queries, k=10,
                                mode="bm25", concurrency=2)
    df = t.to_pandas()
    for qi, q in enumerate(queries):
        want = engine.search(q, k=10, mode="bm25")
        got = df[df["query_id"] == qi].sort_values("rank")
        assert [(d, ts) for _, d, ts in reversed(want)] == list(
            zip(got["doc_id"], got["warc_ts"])), q


def test_pool_workers_share_driver_warmed_sidecar(built_index):
    """BatchQueryPool warms the docmeta sidecar ONCE on the driver;
    worker engines mmap it without rewriting — per-worker docmeta state
    is shared OS page cache, not N private copies (round-4 verdict #1)."""
    import os

    from search_engine_ray.query.batch import BatchQueryPool

    idx = built_index[0]
    pool = BatchQueryPool(idx, num_workers=2, k=5, mode="bm25")
    ids_p = os.path.join(idx, "cache", "docmeta_ids.npy")
    assert os.path.exists(ids_p)  # warmed at pool construction
    mtime = os.path.getmtime(ids_p)
    t = pool.run(["covid vaccine", "election news"])
    pool.shutdown()
    assert t.num_rows > 0
    assert os.path.getmtime(ids_p) == mtime  # workers reused, not rebuilt


def test_pool_empty_query_list(built_index):
    """BatchQueryPool.run([]) returns a typed empty table instead of
    crashing in pa.concat_tables (regression)."""
    from search_engine_ray.query.batch import BatchQueryPool

    pool = BatchQueryPool(built_index[0], num_workers=2, k=3)
    try:
        out = pool.run([])
        assert out.num_rows == 0
        assert out.schema.names == ["query_id", "rank", "doc_id",
                                    "score", "warc_ts"]
    finally:
        pool.shutdown()


def test_pool_serving_options_parity(ray_session, built_index):
    """BatchQueryPool.run(**opts) == the in-process engine with the same
    options, per query — boosts, synonyms, phrase gating is positional-
    index-only so here: tier + fuzzy + boosts."""
    from search_engine_ray.query.batch import BatchQueryPool
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(built_index[0])
    pool = BatchQueryPool(built_index[0], num_workers=2, k=5)
    queries = ["virus covid news", "health people", "covvid vaccine"]
    try:
        for opts in ({"boosts": {"covid": 2.0}},
                     {"synonyms": {"virus": ["vaccine"]}},
                     {"fuzzy": True},
                     {"tier": 3},
                     {"tier": 10**9, "fuzzy": True}):
            got = pool.run(queries, **opts).to_pandas()
            for qid, q in enumerate(queries):
                if "tier" in opts:
                    res = eng.search_tiered(q, k=5, m=opts["tier"],
                                            fuzzy=opts.get("fuzzy",
                                                           False))
                else:
                    res = eng.search(q, k=5, mode="bm25", **opts)
                sub = got[got["query_id"] == qid].sort_values("rank")
                assert list(sub["doc_id"]) == [d for _, d, _ in
                                               reversed(res)], (q, opts)
    finally:
        pool.shutdown()


def test_engine_worker_rejects_tier_outside_bm25(built_index):
    """Champion-list tiers are a BM25 strategy: a worker serving another
    mode refuses ``tier`` instead of silently answering in tiered BM25."""
    import pyarrow as pa

    from search_engine_ray.query.batch import _EngineWorker

    batch = pa.table({"query_id": pa.array([0], pa.int64()),
                      "text": pa.array(["covid vaccine"], pa.string())})
    with pytest.raises(ValueError, match="tier"):
        _EngineWorker(built_index[0], 5, "reference")(batch, {"tier": 3})
    # the bm25 worker still serves tiers, and the reference one plain
    assert _EngineWorker(built_index[0], 5, "bm25")(
        batch, {"tier": 3}).num_rows > 0
    assert _EngineWorker(built_index[0], 5, "reference")(
        batch).num_rows > 0
