"""Training-data ops: dedup families find planted duplicates; text
statistics and fingerprints match their SQL-checkable definitions on
edge cases; IVF ANN recalls most of brute-force."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def dup_corpus_dir(ray_session, tmp_path_factory):
    """documents.parquet with planted exact + near duplicates."""
    base_words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                  "eta", "theta", "iota", "kappa"]
    rng = np.random.default_rng(7)
    texts, ids = [], []
    for i in range(80):
        words = [base_words[j] for j in rng.integers(0, 10, size=30)]
        texts.append(" ".join(words))
        ids.append(i)
    # exact duplicates: 100<-0, 101<-1
    texts += [texts[0], texts[1]]
    ids += [100, 101]
    # near duplicate of doc 2: one word changed
    w = texts[2].split()
    w[5] = "CHANGED"
    texts.append(" ".join(w))
    ids.append(102)
    d = tmp_path_factory.mktemp("dupdocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
        "source": pa.array(["s"] * len(ids), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(d / "documents.parquet"))
    return str(d)


def test_exact_dedup_keeps_min_id(dup_corpus_dir):
    from search_engine_ray.ops.dedup import exact_dedup

    out = exact_dedup(dup_corpus_dir).to_pandas()
    assert len(out) == 81  # 83 docs, 2 exact dupes removed
    assert 100 not in set(out["doc_id"])
    assert 101 not in set(out["doc_id"])
    assert 0 in set(out["doc_id"]) and 1 in set(out["doc_id"])


def test_minhash_finds_planted_near_dups(dup_corpus_dir):
    from search_engine_ray.ops.dedup import minhash_near_dup_pairs

    pairs = minhash_near_dup_pairs(dup_corpus_dir, threshold=0.5).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))
    assert (0, 100) in found      # exact dup -> jaccard 1.0
    assert (1, 101) in found
    assert (2, 102) in found      # near dup
    j = dict(zip(zip(pairs["a"], pairs["b"]), pairs["jaccard"]))
    assert j[(0, 100)] == 1.0
    assert 0.5 <= j[(2, 102)] < 1.0


def test_simhash_finds_exact_dups(dup_corpus_dir):
    from search_engine_ray.ops.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(dup_corpus_dir, max_hamming=3).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))
    assert (0, 100) in found and (1, 101) in found


def test_embedding_near_dups_selfconsistent(ray_session, tmp_path_factory):
    from search_engine_ray.ops.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(3)
    E = rng.standard_normal((60, 16)).astype(np.float32)
    E[50] = E[0] + rng.standard_normal(16).astype(np.float32) * 0.01
    d = tmp_path_factory.mktemp("emb")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * 60, pa.int32()),
    }), str(d / "embeddings.parquet"))
    pairs = embedding_near_dup_pairs(str(d), threshold=0.98).to_pandas()
    assert (0, 50) in set(zip(pairs["a"], pairs["b"]))


def test_knn_ivf_recall(ray_session):
    from search_engine_ray.ops.similarity import knn_brute, knn_ivf

    sf = "/root/testdata/sf0.001"
    brute = knn_brute(sf, (0, 1, 2), k=10).to_pandas()
    ivf = knn_ivf(sf, (0, 1, 2), k=10, n_centroids=8, nprobe=4).to_pandas()
    recalls = []
    for q in (0, 1, 2):
        b = set(brute[brute["query_id"] == q]["vec_id"])
        a = set(ivf[ivf["query_id"] == q]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.5  # nprobe=4/8 buckets


def test_knn_pq_recall(ray_session):
    """PQ-ADC shortlist + exact re-rank recalls the exact L2 top-10."""
    import pyarrow.parquet as pq_

    from search_engine_ray.ops.similarity import knn_pq

    sf = "/root/testdata/sf0.01"
    t = pq_.read_table(sf + "/embeddings.parquet")
    ids = t.column("vec_id").to_numpy()
    E = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    res = knn_pq(sf, (0, 1, 2), k=10).to_pandas()
    recalls = []
    for q in (0, 1, 2):
        qv = E[ids == q][0]
        d = ((E - qv) ** 2).sum(1)
        truth = set(ids[np.lexsort((ids, d))[:10]].tolist())
        got = set(res[res["query_id"] == q]["vec_id"])
        # re-ranked dists must be the EXACT L2 of the returned ids
        sub = res[res["query_id"] == q]
        exact = ((E[np.searchsorted(ids, sub["vec_id"].to_numpy())]
                  - qv) ** 2).sum(1)
        assert np.allclose(sub["dist"].to_numpy(), exact)
        recalls.append(len(truth & got) / 10)
    assert np.mean(recalls) >= 0.8  # measured 1.0; margin for data drift


def test_bpe_train_merges_parity(ray_session):
    """Distributed BPE training learns the exact same merge sequence as
    a single-process reference trainer (same tie-breaks)."""
    from collections import Counter

    import pyarrow.parquet as pq_

    from search_engine_ray.ops.textstats import bpe_train_merges
    from search_engine_ray.text.tokenizer import simple_tokenize

    sf = "/root/testdata/sf0.001"
    got = bpe_train_merges(sf, n_merges=10).to_pandas()

    words = Counter()
    for t in pq_.read_table(sf + "/documents.parquet",
                            columns=["text"]).column("text").to_pylist():
        words.update(simple_tokenize(t))
    vocab = {tuple(w): c for w, c in words.items()}
    expect = []
    for rank in range(10):
        pc = Counter()
        for syms, c in vocab.items():
            for a, b in zip(syms[:-1], syms[1:]):
                pc[(a, b)] += c
        if not pc:
            break
        best = min(pc.items(), key=lambda kv: (-kv[1], kv[0]))
        (l, r), cnt = best
        expect.append((rank, l, r, cnt))
        nv = {}
        for syms, c in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == l and syms[i + 1] == r:
                    out.append(l + r)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            nv[key] = nv.get(key, 0) + c
        vocab = nv
    assert [tuple(x) for x in got.itertuples(index=False)] == expect


def test_simhash_vectorized_matches_reference_loop():
    """Golden check: the vectorized SimHasher equals a straightforward
    per-token reference implementation bit for bit."""
    import numpy as np

    from search_engine_ray.ops.dedup import SimHasher, _hash64
    from search_engine_ray.text.tokenizer import simple_tokenize

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "completely different content here entirely",
        "",
        "repeated repeated repeated words words",
    ]

    def simhash_loop(text):
        toks = simple_tokenize(text)
        acc = np.zeros(64, dtype=np.int64)
        shifts = np.arange(64, dtype=np.uint64)
        for t in toks:
            h = np.uint64(_hash64(t.encode()))
            bits = (h >> shifts) & np.uint64(1)
            acc += np.where(bits == 1, 1, -1)
        return int((np.left_shift((acc > 0).astype(np.uint64),
                                  shifts)).sum(dtype=np.uint64))

    got, has_toks = SimHasher().simhash_batch(texts)
    want = [simhash_loop(t) for t in texts]
    assert [int(x) for x in got] == want
    assert has_toks.tolist() == [True, True, True, False, True]


def test_ngram_jaccard_planted_pairs(ray_session, tmp_path):
    """Exact 3-gram Jaccard finds a planted near-dup pair with the right
    value, and nothing for unrelated docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.dedup import ngram_jaccard_pairs

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lamda mu nu xi omicron pi rho sigma tau upsilon")
    near = base.replace("upsilon", "phi")  # differs in the final token
    texts = [base, near,
             "one two three four five six seven eight nine ten",
             "eleven twelve thirteen fourteen fifteen sixteen"]
    p = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), p)
    out = ngram_jaccard_pairs(str(tmp_path), threshold=0.5).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    # 20 tokens -> 18 grams each; the changed token is LAST so it breaks
    # exactly one gram: inter = 17, union = 18 + 18 - 17 = 19
    assert (row["a"], row["b"]) == (0, 1)
    assert abs(row["jaccard"] - 17 / 19) < 1e-12


def test_minhash_recall_vs_exact_ngram_ground_truth(ray_session):
    """Cross-validation of the two near-dup pipelines on the driver
    corpus: exact n-gram Jaccard is ground truth; MinHash+LSH (same
    shingle width, same threshold) must find essentially all of it and
    must not claim pairs the exact verifier would reject."""
    import os

    import pytest

    sf = "/root/testdata/sf0.01"
    if not os.path.exists(sf):
        pytest.skip("driver testdata absent")

    from search_engine_ray.ops.dedup import (
        minhash_near_dup_pairs,
        ngram_jaccard_pairs,
    )

    truth = ngram_jaccard_pairs(sf, threshold=0.6, ngram=3).to_pandas()
    got = minhash_near_dup_pairs(sf, threshold=0.6).to_pandas()
    truth_pairs = set(zip(truth["a"], truth["b"]))
    got_pairs = set(zip(got["a"], got["b"]))
    assert truth_pairs, "fixture should contain planted near-dups"
    # recall: banding (16 bands x 8 rows) catches >=0.95-probability
    # pairs at j=0.6; the fixture's dups are far above threshold
    recall = len(truth_pairs & got_pairs) / len(truth_pairs)
    assert recall >= 0.9, (recall, truth_pairs - got_pairs)
    # precision: minhash verifies with exact (hashed-shingle) Jaccard,
    # so false positives can only come from hash-set edge effects near
    # the threshold — allow at most one borderline extra
    assert len(got_pairs - truth_pairs) <= 1, got_pairs - truth_pairs


def test_connected_components_long_chain(ray_session):
    """A 30-node path (diameter 29 > the old 20-iteration cap) must
    still converge to the component minimum — pointer jumping folds the
    chain in O(log d) rounds, and a genuinely non-converged run RAISES
    instead of silently returning wrong labels."""
    import ray.data

    from search_engine_ray.ops.dedup import connected_min_labels

    n = 30
    pairs = ray.data.from_arrow(pa.table({
        "a": pa.array(range(n - 1), pa.int64()),
        "b": pa.array(range(1, n), pa.int64()),
    }))
    # force the DISTRIBUTED pointer-jumping path (the small-graph
    # union-find fast path would trivially pass)
    out = connected_min_labels(pairs, single_task_edges=0).to_pandas()
    assert sorted(out["node"]) == list(range(n))
    assert set(out["label"]) == {0}
    # the fast path must agree exactly
    fast = connected_min_labels(pairs).to_pandas()
    assert (fast.sort_values("node").reset_index(drop=True)
            .equals(out.sort_values("node").reset_index(drop=True)))
    # and the loud-failure path: 1 round cannot converge a 30-chain
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_min_labels(pairs, max_iters=1, single_task_edges=0)


def test_embedding_lsh_multitable_recall(ray_session, tmp_path_factory):
    """Recall of the multi-table embedding LSH vs exact all-pairs cosine
    on planted clusters: R=4 independent tables must recover >=90% of
    the true >=0.9-cosine pairs and strictly beat a single table."""
    from search_engine_ray.ops.dedup import embedding_near_dup_pairs

    rng = np.random.default_rng(11)
    dim, n_base, copies = 16, 40, 3
    base = rng.standard_normal((n_base, dim))
    rows = []
    for i in range(n_base):
        rows.append(base[i])
        for c in range(copies - 1):
            rows.append(base[i] + rng.standard_normal(dim) * 0.15)
    E = np.asarray(rows)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    C = En @ En.T
    iu = np.triu_indices(len(E), k=1)
    thr = 0.9
    truth = {(int(a), int(b)) for a, b in zip(iu[0][C[iu] >= thr],
                                              iu[1][C[iu] >= thr])}
    assert len(truth) >= n_base  # planted clusters exist

    d = tmp_path_factory.mktemp("emb_recall")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(E)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in E],
                              pa.list_(pa.float64())),
    }), str(d / "embeddings.parquet"))

    recalls = {}
    for r_tables in (1, 4):
        got = embedding_near_dup_pairs(str(d), threshold=thr,
                                       num_planes=12,
                                       num_tables=r_tables).to_pandas()
        found = set(zip(got["a"].astype(int), got["b"].astype(int)))
        assert found <= truth  # in-bucket cosine is exact: no false pairs
        recalls[r_tables] = len(found & truth) / len(truth)
    assert recalls[4] >= 0.9, recalls
    assert recalls[4] > recalls[1], recalls


def test_near_dup_keep_chain_components(ray_session, tmp_path):
    """Dedup apply keeps the component-minimum id even across CHAINS
    (0~1~2 where 0 and 2 are not directly near-dups), plus all
    non-duplicated docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.ops.dedup import near_dup_keep_ids

    texts = {
        0: ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lamda mu"),
        5: "one two three four five six seven eight nine ten eleven twelve",
        7: "unrelated words entirely different from all other docs here",
        8: "another totally distinct document with its own words here",
    }
    texts[1] = texts[0].replace("mu", "nu")
    texts[2] = texts[1].replace("alpha", "omega")
    texts[6] = texts[5].replace("twelve", "zzz")
    ids = sorted(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    kept = sorted(near_dup_keep_ids(str(tmp_path),
                                    threshold=0.5).to_pandas()["doc_id"])
    assert kept == [0, 5, 7, 8]


def test_winnow_fingerprints_shift_robust():
    """A doc and a copy with a shifted prefix share most fingerprints
    (the winnowing guarantee); an unrelated doc shares almost none."""
    import pyarrow as pa

    from search_engine_ray.ops.textstats import winnow_fingerprints

    base = ("the quick brown fox jumps over the lazy dog and keeps "
            "running through the forest until the river bends north")
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([base,
                          "PREFIX INSERTED >>> " + base,
                          "completely different content about database "
                          "query planners and vectorized execution"],
                         pa.string()),
    })
    out = winnow_fingerprints(tbl).to_pandas()
    sets = {d: set(g["fp"]) for d, g in out.groupby("doc_id")}
    j01 = len(sets[0] & sets[1]) / len(sets[0] | sets[1])
    j02 = len(sets[0] & sets[2]) / len(sets[0] | sets[2])
    assert j01 > 0.6, j01
    assert j02 < 0.1, j02
    # short-doc rules: < k chars -> absent; >= k but < k+w-1 grams -> one fp
    short = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": pa.array(["tiny", "exactly8"], pa.string()),
    })
    s = winnow_fingerprints(short).to_pandas()
    assert s["doc_id"].tolist() == [11] and len(s) == 1


def _events_table(rows):
    """rows: list of (event_id, ts_s, user_id, event_type, value)."""
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] * 1_000_000 for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })


def test_asof_join_ties_and_unmatched(ray_session, tmp_path):
    from search_engine_ray.ops.joins import asof_join_last_value

    rows = [
        # user 1: purchase tie at ts=100 (event_id 3 wins), click after
        (1, 100, 1, "purchase", 2.0),
        (3, 100, 1, "purchase", 5.0),
        (4, 150, 1, "click", 0.0),
        # click exactly AT a purchase ts matches it (<=)
        (5, 100, 1, "click", 0.0),
        # user 2: click BEFORE any purchase -> sentinel
        (6, 50, 2, "click", 0.0),
        (7, 60, 2, "purchase", -3.25),
        (8, 70, 2, "click", 0.0),
        # user 3: clicks only (empty right side in the group)
        (9, 10, 3, "click", 0.0),
    ]
    pq.write_table(_events_table(rows), str(tmp_path / "events.parquet"))
    out = (asof_join_last_value(str(tmp_path)).to_pandas()
           .set_index("event_id").sort_index())
    assert out.loc[4, "last_value_e4"] == 50000          # tie -> id 3
    assert out.loc[5, "last_value_e4"] == 50000          # ts == match
    assert out.loc[6, "last_value_e4"] == -1             # before any
    assert out.loc[6, "last_ts_us"] == -1
    assert out.loc[8, "last_value_e4"] == -32500         # negative value
    assert out.loc[9, "last_value_e4"] == -1             # no right side
    assert len(out) == 5


def test_range_join_window_edges(ray_session, tmp_path):
    from search_engine_ray.ops.joins import range_join_counts

    w = 100
    rows = [
        (1, 1000, 1, "purchase", 0.0),
        (2, 900, 1, "click", 0.0),    # exactly at lower edge: counted
        (3, 899, 1, "click", 0.0),    # just outside
        (4, 1000, 1, "click", 0.0),   # exactly at upper edge: counted
        (5, 1001, 1, "click", 0.0),   # after: not counted
        (6, 500, 2, "purchase", 0.0), # no clicks for user 2
    ]
    pq.write_table(_events_table(rows), str(tmp_path / "events.parquet"))
    out = (range_join_counts(str(tmp_path), window_s=w).to_pandas()
           .set_index("event_id"))
    assert out.loc[1, "n_right_in_window"] == 2
    assert out.loc[6, "n_right_in_window"] == 0
    assert len(out) == 2


def test_heavy_hitters_boundary_and_soundness(ray_session, tmp_path):
    from search_engine_ray.ops.sketches import heavy_hitters

    # 'hot' appears exactly 40x, 'warm' 39x, scattered across many docs
    # mixed with unique junk so no single batch holds the full count
    docs = []
    for i in range(40):
        docs.append(f"hot junk{i}a junk{i}b")
    for i in range(39):
        docs.append(f"warm junk{i}c junk{i}d")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
        "lang": pa.array(["en"] * len(docs), pa.string()),
        "source": pa.array(["t"] * len(docs), pa.string()),
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    }), str(tmp_path / "documents.parquet"))
    out = heavy_hitters(str(tmp_path), min_count=40,
                        k_counters=2048).to_pandas()
    assert dict(zip(out["term"], out["n"])) == {"hot": 40}

    with pytest.raises(ValueError):
        # N ~ 237 tokens, N/k = 237/2 > min_count -> must refuse
        heavy_hitters(str(tmp_path), min_count=40, k_counters=2)


def test_hll_distinct_accuracy(ray_session, tmp_path):
    from search_engine_ray.ops.sketches import hll_distinct

    n = 30000
    rows = [(i, 1000 + i, int(i * 37 % 20011), "x", 0.0)
            for i in range(n)]  # 20011 distinct user ids (prime modulus)
    pq.write_table(_events_table(rows), str(tmp_path / "events.parquet"))
    out = hll_distinct(str(tmp_path)).to_pandas()
    est = int(out["n_distinct_est"].iloc[0])
    assert abs(est - 20011) / 20011 < 0.03


@pytest.fixture(scope="module")
def edge_docs_dir(ray_session, tmp_path_factory):
    """documents.parquet with degenerate texts (empty, punct-only,
    single-token) for the round-2 op edge cases."""
    texts = ["", "...", "solo", "a b a b a b", "x " * 600]
    ids = list(range(len(texts)))
    d = tmp_path_factory.mktemp("edgedocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([t.strip() if t != "" else t for t in texts],
                         pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
        "source": pa.array(["src0"] * len(ids), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(d / "documents.parquet"))
    return str(d)


def test_repetition_stats_degenerate_docs(edge_docs_dir):
    from search_engine_ray.ops.textstats import repetition_stats

    out = (repetition_stats(edge_docs_dir).to_pandas()
           .set_index("doc_id").sort_index())
    # empty + punct-only docs: all zeros
    for did in (0, 1):
        assert out.loc[did].tolist() == [0, 0, 0, 0]
    # single token: one unique, no bigrams
    assert out.loc[2].tolist() == [1, 1, 1, 0]
    # 'a b a b a b': 6 tokens, 2 unique, top tf 3, top bigram 'a b' x3
    assert out.loc[3].tolist() == [6, 2, 3, 3]


def test_packing_plan_chunks_and_prefix(edge_docs_dir):
    from search_engine_ray.ops.textstats import packing_plan

    out = (packing_plan(edge_docs_dir, chunk_tokens=512)
           .to_pandas().set_index("doc_id").sort_index())
    # prefix order follows doc_id: 0,0,1,2,8 tokens then the 600-token doc
    assert out["tok_start"].tolist() == [0, 0, 0, 1, 7]
    # zero-token docs occupy their start chunk (first == last)
    assert (out.loc[0, "chunk_first"] == out.loc[0, "chunk_last"] == 0)
    # the 600-token doc straddles chunk 0 -> 1 (starts at 7, ends at 606)
    assert out.loc[4, "chunk_first"] == 0
    assert out.loc[4, "chunk_last"] == 1


def test_packing_plan_group_size_invariance(edge_docs_dir):
    from search_engine_ray.ops.textstats import packing_plan

    a = (packing_plan(edge_docs_dir, group_size=2).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    b = (packing_plan(edge_docs_dir, group_size=1000).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_contamination_planted(ray_session, tmp_path, mode):
    from search_engine_ray.ops.textstats import contamination_check

    # doc 0 (id 0 % 97 == 0) is the benchmark; doc 5 shares its 4-gram
    texts = {0: "one two three four tail",
             5: "prefix one two three four",
             6: "totally different words here now"}
    ids = sorted(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = contamination_check(str(tmp_path), mode=mode).to_pandas()
    assert out["n_docs"].tolist() == [2]
    assert out["n_contaminated"].tolist() == [1]


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_decontaminate_ids_both_paths(ray_session, tmp_path, mode):
    """The broadcast and shuffle decontamination plans must agree: only
    the uncontaminated non-benchmark docs survive."""
    from search_engine_ray.ops.textstats import decontaminate_ids

    texts = {0: "one two three four tail",
             5: "prefix one two three four",       # contaminated
             6: "totally different words here now",  # clean
             7: "short"}                             # no 4-grams: clean
    ids = sorted(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([texts[i] for i in ids], pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
    }), str(tmp_path / "documents.parquet"))
    out = sorted(decontaminate_ids(str(tmp_path), mode=mode)
                 .to_pandas()["doc_id"].tolist())
    assert out == [6, 7]


def test_curate_write_roundtrip(ray_session, tmp_path):
    """curate_write keeps exactly the docs the summary counts, writes
    partitioned parquet with a chunk column from the packing plan."""
    import pyarrow.dataset as pads

    from search_engine_ray.pipelines.curate import (
        curate_summary,
        curate_write,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    n = curate_write(sf, out)
    summ = curate_summary(sf).to_pandas()
    assert n == int(summ["docs_kept"].sum())
    tbl = pads.dataset(out).to_table()
    assert set(tbl.column_names) >= {"doc_id", "lang", "source",
                                     "text", "chunk"}
    assert tbl.num_rows == n
    import pyarrow.compute as _pc

    assert _pc.min(tbl.column("chunk")).as_py() >= 0


def test_kmeans_deterministic_and_nontrivial(ray_session):
    """Lloyd's over sf0.001 embeddings: deterministic across reruns,
    assignments cover >1 cluster, and every row is assigned."""
    from search_engine_ray.ops.similarity import kmeans_assign

    sf = "/root/testdata/sf0.001"
    a = kmeans_assign(sf, k=4, iters=3).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    b = kmeans_assign(sf, k=4, iters=3).to_pandas().sort_values(
        "vec_id").reset_index(drop=True)
    assert (a["cluster"] == b["cluster"]).all()
    assert a["cluster"].between(0, 3).all()
    assert a["cluster"].nunique() > 1
    import pyarrow.parquet as _pq

    n = _pq.ParquetFile(f"{sf}/embeddings.parquet").metadata.num_rows
    assert len(a) == n


def test_kmeans_improves_over_iterations(ray_session):
    """More Lloyd iterations must not increase within-cluster SSE."""
    import pyarrow.dataset as pads

    from search_engine_ray.ops.similarity import kmeans_assign

    sf = "/root/testdata/sf0.001"
    t = pads.dataset(f"{sf}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"]).to_pandas()
    x = np.array([np.asarray(v, dtype=np.float64)
                  for v in t["embedding"]])
    vid_pos = {int(v): i for i, v in enumerate(t["vec_id"])}

    def sse(assign_df):
        cost = 0.0
        for c, grp in assign_df.groupby("cluster"):
            xs = x[[vid_pos[int(v)] for v in grp["vec_id"]]]
            mu = xs.mean(axis=0)
            cost += ((xs - mu) ** 2).sum()
        return cost

    c1 = sse(kmeans_assign(sf, k=4, iters=1).to_pandas())
    c4 = sse(kmeans_assign(sf, k=4, iters=4).to_pandas())
    assert c4 <= c1 + 1e-6


def test_cms_bounds_vs_exact(ray_session, tmp_path):
    """CMS guarantee on a skewed corpus: every estimate >= true count,
    and overestimation is bounded by the sketch's eps*N (here 2N/w,
    far looser than the min-of-d expectation)."""
    from collections import Counter

    from search_engine_ray.ops.sketches import _CMS_W, cms_term_estimates
    from search_engine_ray.text.tokenizer import simple_tokenize

    docs = []
    for i in range(120):
        # heavy head terms + a long unique tail to force collisions
        docs.append(f"alpha beta alpha tail{i}a tail{i}b tail{i}c")
    for i in range(80):
        docs.append(f"beta gamma tail{i}d tail{i}e")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
        "lang": pa.array(["en"] * len(docs), pa.string()),
        "source": pa.array(["t"] * len(docs), pa.string()),
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    }), str(tmp_path / "documents.parquet"))

    exact = Counter()
    for d in docs:
        exact.update(simple_tokenize(d))
    n_total = sum(exact.values())

    out = cms_term_estimates(str(tmp_path), probe_min_count=80)
    df = out.to_pandas()
    assert set(df["term"]) == {"alpha", "beta", "gamma"}
    for _, r in df.iterrows():
        assert r["n_exact"] == exact[r["term"]]
        assert r["n_est"] >= r["n_exact"]          # never underestimates
        assert r["n_est"] - r["n_exact"] <= 2 * n_total // _CMS_W


def test_embedding_pca_matches_numpy(ray_session):
    """Distributed moment-partial PCA equals single-machine numpy PCA on
    the full table (up to the fixed e6 quantization of the partials)."""
    import pyarrow.dataset as pads

    from search_engine_ray.ops.similarity import embedding_pca_projection

    sf = "/root/testdata/sf0.001"
    out = embedding_pca_projection(sf).to_pandas().sort_values("vec_id")

    t = pads.dataset(f"{sf}/embeddings.parquet").to_table(
        columns=["vec_id", "embedding"]).to_pandas().sort_values("vec_id")
    x = np.array([np.asarray(v, dtype=np.float64) for v in t["embedding"]])
    mu = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, bias=True)
    w, v = np.linalg.eigh(cov)
    pc = v[:, -1]
    nz = np.flatnonzero(np.abs(pc) > 1e-12)
    if len(nz) and pc[nz[0]] < 0:
        pc = -pc
    ref = (x - mu) @ pc

    got = out["pc1_e6"].to_numpy(np.int64) / 1e6
    # sign of the whole projection may flip only if the eigvec sign rule
    # resolved differently under quantization — accept either
    err = min(np.abs(got - ref).max(), np.abs(got + ref).max())
    assert err < 1e-3
    # and it is a real component: projections are not all equal
    assert got.std() > 1e-3


def _write_docs(d, ids, texts):
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(ids), pa.string()),
        "source": pa.array(["s"] * len(ids), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), str(d / "documents.parquet"))


def test_simhash_tokenless_docs_never_pair(ray_session, tmp_path):
    """Token-less docs (non-Latin/punctuation-only) all simhash to 0;
    they must NOT be emitted as hamming-0 dup pairs (regression: they
    collided in every band and deduped unrelated documents)."""
    from search_engine_ray.ops.dedup import simhash_near_dup_pairs

    _write_docs(tmp_path, [1, 2, 3, 4],
                ["!!!", "???", "...", "alpha beta gamma delta"])
    pairs = simhash_near_dup_pairs(str(tmp_path)).to_pandas()
    assert len(pairs) == 0


def test_simhash_degenerate_bucket_chain_links(ray_session, tmp_path):
    """A bucket past max_bucket switches to chain-linking: identical
    docs stay transitively connected at hamming 0 while the pair count
    stays O(n), not O(n^2)."""
    from search_engine_ray.ops.dedup import simhash_near_dup_pairs

    n = 40
    _write_docs(tmp_path, list(range(n)),
                ["identical boilerplate text here"] * n)
    pairs = simhash_near_dup_pairs(str(tmp_path),
                                   max_bucket=8).to_pandas()
    assert (pairs["hamming"] == 0).all()
    # chain connectivity: union-find over the pairs links all n docs
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a"], pairs["b"]):
        parent[find(int(a))] = find(int(b))
    assert len({find(i) for i in range(n)}) == 1
    # O(n) pairs, not O(n^2): 4 bands x (n-1) consecutive links max
    assert len(pairs) <= 4 * (n - 1)


def test_knn_tie_break_keeps_smallest_vec_ids(ray_session, tmp_path):
    """Duplicate embeddings: partial top-k must keep the smallest
    vec_ids among equal cosines (regression: argpartition kept an
    arbitrary subset of the tied candidates)."""
    from search_engine_ray.ops.similarity import knn_brute

    rng = np.random.default_rng(3)
    base = rng.normal(size=8)
    # 30 identical vectors (ids 0..29) + 10 distinct others
    embs = [base.copy() for _ in range(30)] + \
        [rng.normal(size=8) for _ in range(10)]
    pq.write_table(pa.table({
        "vec_id": pa.array(list(range(40)), pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in embs],
                              pa.list_(pa.float64())),
    }), str(tmp_path / "embeddings.parquet"))
    out = knn_brute(str(tmp_path), query_vec_ids=(0,), k=10).to_pandas()
    # all 30 dups have cosine 1.0 with the query; ranks 1..10 must be
    # vec_ids 0..9 exactly
    assert out["vec_id"].tolist() == list(range(10))


def test_topk_ties_by_id_unit():
    from search_engine_ray.ops.similarity import _topk_ties_by_id

    vals = np.array([0.5, 0.9, 0.9, 0.9, 0.1])
    ids = np.array([50, 40, 30, 20, 10])
    top = _topk_ties_by_id(vals, ids, 2, ascending=False)
    assert sorted(ids[top].tolist()) == [20, 30]  # ties -> smallest ids
    top = _topk_ties_by_id(vals, ids, 2, ascending=True)
    assert sorted(ids[top].tolist()) == [10, 50]
    assert len(_topk_ties_by_id(vals, ids, 9, ascending=True)) == 5
