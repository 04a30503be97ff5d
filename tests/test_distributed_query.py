"""Distributed (shard-actor) query serving must be rank-identical to the
in-process engine in both scorer modes."""

import pytest

from search_engine_ray.fixtures import gen_queries


@pytest.fixture(scope="module")
def dist_engine(ray_session, built_index):
    from search_engine_ray.query.distributed import DistributedSearchEngine

    return DistributedSearchEngine(built_index[0], num_actors=2)


@pytest.mark.parametrize("mode", ["bm25", "reference"])
def test_distributed_matches_inprocess(dist_engine, engine, mode):
    for q in gen_queries():
        a = engine.search(q, k=10, mode=mode)
        b = dist_engine.search(q, k=10, mode=mode)
        assert [(d, ts) for _, d, ts in a] == [(d, ts) for _, d, ts in b], q
        for (sa, _, _), (sb, _, _) in zip(a, b):
            assert abs(sa - sb) < 1e-9, q


def test_meta_positions_found_mask():
    """A doc id absent from docmeta must come back found=False (callers
    zero its ts/glove) instead of borrowing a neighbor's row."""
    import numpy as np

    from search_engine_ray.query.engine import SearchEngine

    def meta_for(meta_ids, doc_ids):
        eng = SearchEngine.__new__(SearchEngine)  # docmeta only
        eng._meta = {"ids": meta_ids, "ts": np.zeros(len(meta_ids))}
        return eng._meta_for(doc_ids)

    ids = np.array([10, 20, 30], dtype=np.int64)
    pos, found = meta_for(ids, np.array([5, 20, 25, 40]))
    assert found.tolist() == [False, True, False, False]
    assert ids[pos[1]] == 20
    # empty docmeta: nothing found, no crash
    pos, found = meta_for(np.zeros(0, np.int64), np.array([1, 2]))
    assert found.tolist() == [False, False]
    assert pos.tolist() == [0, 0]


def test_repeated_term_missing_from_shard_parity(ray_session,
                                                 tmp_path_factory):
    """Reference-mode qtf must use GLOBAL term knownness: a query repeating
    a term whose postings live in only one shard must score identically on
    actors that hold none of its postings (ADVICE r1: local-presence qtf
    changed the query-vector norm on those actors)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.index.build import build_index
    from search_engine_ray.query.distributed import DistributedSearchEngine
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.text.extract import wrap_html

    S = 4
    # find two urls whose hashed doc ids land in the SAME shard, and
    # filler urls spread over the others
    rare, fillers = [], []
    i = 0
    while len(rare) < 2 or len(fillers) < 12:
        url = f"ex.com/p{i}"
        if doc_id_for_url(url) % S == 0 and len(rare) < 2:
            rare.append(url)
        elif doc_id_for_url(url) % S != 0 and len(fillers) < 12:
            fillers.append(url)
        i += 1
    urls = rare + fillers
    # 'merge'/'data' must have df < N (nonzero idf) or every local dvec
    # zeroes out and the qtf bug is invisible
    texts = (["the qwxzebra molecule binds the merge protein data"] * 2
             + ["common merge data protein words appear here often"] * 6
             + ["common protein words appear here generally today"] * 6)
    t = pa.table({
        "url": pa.array(urls),
        "warc_ts": pa.array([1595808000_000_000 + j * 1_000_000
                             for j in range(len(urls))],
                            pa.timestamp("us")),
        "html": pa.array([wrap_html(x, f"t{j}")
                          for j, x in enumerate(texts)], pa.binary()),
    })
    data_dir = tmp_path_factory.mktemp("skewpages")
    out_dir = str(tmp_path_factory.mktemp("skewindex"))
    pq.write_table(t, str(data_dir / "pages.parquet"))
    build_index(str(data_dir), out_dir,
                EngineConfig(num_shards=S, term_buckets=4,
                             parser_concurrency=2))
    eng = SearchEngine(out_dir)
    dist = DistributedSearchEngine(out_dir, num_actors=S)
    # 'qwxzebra' df=2 (survives the df==1 prune), all postings in shard 0;
    # repeating it makes qtf degenerate on shards 1..3 under the old code
    for q in ("qwxzebra qwxzebra merge", "qwxzebra qwxzebra qwxzebra data"):
        a = eng.search(q, k=10, mode="reference")
        b = dist.search(q, k=10, mode="reference")
        assert [(d, ts) for _, d, ts in a] == [(d, ts) for _, d, ts in b], q
        for (sa, _, _), (sb, _, _) in zip(a, b):
            assert abs(sa - sb) < 1e-9, q


@pytest.mark.parametrize("mode", ["bool_and", "bool_or"])
def test_distributed_boolean_matches_inprocess(dist_engine, engine, mode):
    for q in gen_queries():
        assert dist_engine.search(q, k=10, mode=mode) == \
            engine.search(q, k=10, mode=mode), (q, mode)
    # k smaller than the local result sets still yields the global
    # ascending first-k
    assert dist_engine.search("covid", k=3, mode="bool_and") == \
        engine.search("covid", k=3, mode="bool_and")


def test_distributed_and_not_matches_inprocess(dist_engine, engine):
    cases = [(["covid", "vaccine"], []),
             (["covid", "vaccine"], ["data"]),
             (["covid"], ["zzznope"]),       # unknown exclude = no-op
             (["zzznope"], ["covid"]),       # unknown include -> []
             (["covid"], ["covid"]),         # self-exclusion -> []
             ([], ["covid"])]                # empty include -> []
    for inc, exc in cases:
        assert dist_engine.search_bool_and_not(inc, exc, k=10) == \
            engine.search_bool_and_not(inc, exc, k=10), (inc, exc)


def test_distributed_fuzzy_matches_inprocess(dist_engine, engine):
    for q in ("covit vaccine", "qqqqqqqq", "covid"):
        for mode in ("bm25", "bool_and"):
            assert dist_engine.search(q, k=10, mode=mode, fuzzy=True) == \
                engine.search(q, k=10, mode=mode, fuzzy=True), (q, mode)


def test_bool_and_not_negative_k(dist_engine, engine):
    assert engine.search_bool_and_not(["covid"], [], k=-1) == []
    assert dist_engine.search_bool_and_not(["covid"], [], k=-1) == []


def test_distributed_tiered_matches_inprocess(dist_engine, engine):
    """Two-round champion protocol (local prefixes -> global re-select
    -> must_ids-masked fan-out) is rank-identical to the in-process
    search_tiered at both a pruning m and an exact-equivalent m."""
    for q in gen_queries():
        for m in (3, 10**9):
            a = engine.search_tiered(q, k=10, m=m)
            b = dist_engine.search_tiered(q, k=10, m=m)
            assert [(d, ts) for _, d, ts in a] \
                == [(d, ts) for _, d, ts in b], (q, m)
            for (sa, _, _), (sb, _, _) in zip(a, b):
                assert abs(sa - sb) < 1e-9, (q, m)


def test_distributed_match_counts(dist_engine, engine):
    for q in list(gen_queries()) + ["zzznotaterm virus", "", "the"]:
        assert dist_engine.match_counts(q) == engine.match_counts(q), q


def test_distributed_common_terms_matches_inprocess(dist_engine, engine):
    rare = min(engine.df_map, key=lambda t: engine.df_map[t])
    for q in list(gen_queries()) + [f"{rare} virus covid", rare,
                                    "zzznotaterm"]:
        a = engine.search_common_terms(q, k=10)
        b = dist_engine.search_common_terms(q, k=10)
        assert [(d, ts) for _, d, ts in a] == [(d, ts) for _, d, ts in b], q
        for (sa, _, _), (sb, _, _) in zip(a, b):
            assert abs(sa - sb) < 1e-9, q


@pytest.fixture(scope="module")
def pos_index4(ray_session, tmp_path_factory):
    """A positional 4-shard index, so phrase gates run in the
    differential test below."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index.build import build_index

    data = tmp_path_factory.mktemp("pos4_pages")
    pq.write_table(gen_pages(300, seed=5), str(data / "pages.parquet"))
    out = str(tmp_path_factory.mktemp("pos4_index"))
    build_index(str(data), out, EngineConfig(
        num_shards=4, term_buckets=4, positions=True, parser_concurrency=2))
    return out


def _random_calls(eng, seed: int, per_cell: int = 4):
    """Seeded (query, k, mode, options) draws: every mode x k cell gets
    ``per_cell`` random queries (fixture queries or random dictionary
    words), bm25 draws a random subset of its serving options."""
    import numpy as np

    rng = np.random.default_rng(seed)
    fixture = gen_queries()
    vocab = sorted(eng.df_map)
    eng._ensure_meta()
    ts_all = np.asarray(eng._meta["ts"])

    def query():
        if rng.random() < 0.5:
            return fixture[rng.integers(len(fixture))]
        words = [vocab[i] for i in rng.integers(0, len(vocab),
                                                 rng.integers(1, 5))]
        if rng.random() < 0.3:
            words.append("zzzunseen")
        return " ".join(words)

    for mode in ("bm25", "reference", "bool_and", "bool_or"):
        for k in (0, 1, 10):
            for _ in range(per_cell):
                q = query()
                terms = eng.parser.parse_sentence(q)[0] or ["covid"]
                kw = {}
                if rng.random() < 0.3:
                    kw["fuzzy"] = True
                if rng.random() < 0.3:
                    kw["synonyms"] = {terms[0]: [
                        vocab[rng.integers(len(vocab))]]}
                if mode == "bm25":
                    if rng.random() < 0.4 and len(ts_all):
                        lo, hi = np.sort(rng.choice(ts_all, 2))
                        kw["ts_range"] = (int(lo), int(hi))
                    if rng.random() < 0.4:
                        kw["boosts"] = {terms[-1]: float(
                            rng.choice([0.5, 2.0, 3.0]))}
                    if rng.random() < 0.4:
                        kw["phrases"] = ([" ".join(terms[:2])]
                                         if rng.random() < 0.5
                                         else [terms[-2:]])
                    if rng.random() < 0.4:
                        full = eng.search(q, k=0, mode="bm25", **kw)
                        if full:
                            kw["search_after"] = full[
                                rng.integers(len(full))]
                yield q, k, mode, kw


@pytest.mark.parametrize("num_actors", [1, 3])
def test_randomized_differential_inprocess_vs_distributed(pos_index4,
                                                          num_actors):
    """Seeded random queries x modes x bm25 option combinations x k:
    the shard actors' merged answer equals the in-process engine's,
    exactly (same floats, same order)."""
    from search_engine_ray.query.distributed import DistributedSearchEngine
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(pos_index4)
    dist = DistributedSearchEngine(pos_index4, num_actors=num_actors)
    assert len(dist.actors) == num_actors
    n = 0
    for q, k, mode, kw in _random_calls(eng, seed=num_actors):
        want = eng.search(q, k=k, mode=mode, **kw)
        got = dist.search(q, k=k, mode=mode, **kw)
        assert got == want, (q, k, mode, kw)
        n += bool(want)
    assert n >= 10  # the draws are not all empty answers


def test_rare_first_drive_set_is_global(pos_index4):
    """A shard without postings for a query's rare term must not widen
    its rare-first drive set to the head terms: knownness is the global
    dictionary's, so every shard gates on the same drive terms."""
    from search_engine_ray.query.distributed import DistributedSearchEngine
    from search_engine_ray.query.engine import SearchEngine

    eng = SearchEngine(pos_index4)
    dist = DistributedSearchEngine(pos_index4, num_actors=3)
    by_df = sorted((t for t in eng.df_map
                    if eng.parser.parse_sentence(t)[0] == [t]),
                   key=lambda t: (eng.df_map[t], t))
    heads = by_df[-40:]
    for rare in by_df[:6]:
        for head in heads[::8]:
            q = f"{rare} {head}"
            # the smallest df_den that leaves the head term high-df, so
            # the rare term alone drives
            den = -(-eng.n_docs // eng.df_map[head])
            assert eng.df_map[rare] * den < eng.n_docs
            want = eng.search_common_terms(q, k=10, df_den=den)
            assert dist.search_common_terms(q, k=10, df_den=den) == want, q
            assert 0 < len(want) <= eng.df_map[rare], q
