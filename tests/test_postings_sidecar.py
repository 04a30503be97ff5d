"""Postings by pointer: SearchEngine reads cold postings from a per-bucket
sidecar under <index>/cache/ (a term-sorted directory + a varbyte blob)
derived from the posting Parquet files on first use."""

import glob
import os
import shutil

import numpy as np
import pytest

# 'straße' and 'strasse' both rewrite to the capitals term 'STRASSE' and
# hash to different term buckets at term_buckets=2
COLLIDE = ["Die Strasse ist lang und breit heute",
           "Die Straße ist kurz und schmal heute",
           "Eine Straße und eine Strasse treffen sich hier",
           "Die Strasse bleibt frei morgen"]


def _table(n, seed, start, extra=()):
    import pyarrow as pa

    from search_engine_ray.fixtures import gen_pages, wrap_html

    t = gen_pages(n, seed=seed, start=start)
    if not extra:
        return t
    urls = [f"https://collide.example/{start}/{i}"
            for i in range(len(extra))]
    ts = [1_600_000_000_000_000 + start + i for i in range(len(extra))]
    return pa.concat_tables([t, pa.table({
        "url": pa.array(urls),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array([wrap_html(x, f"c{i}")
                          for i, x in enumerate(extra)], pa.binary()),
        "text": pa.array(list(extra)),
        "lang": pa.array(["de"] * len(extra))})])


def _rows(tables):
    return [(u, ts.value, x) for t in tables
            for u, ts, x in zip(t.column("url").to_pylist(),
                                t.column("warc_ts"),
                                t.column("text").to_pylist())]


def _sidecar_files(idx):
    return sorted(glob.glob(os.path.join(idx, "cache", "postings-*")))


def _cfg():
    from search_engine_ray.config import EngineConfig

    return EngineConfig(num_shards=2, term_buckets=2, positions=True)


def _queries(tables, seed, n=24):
    words = sorted({w for t in tables
                    for x in t.column("text").to_pylist()
                    for w in x.split()})
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = [words[i] for i in rng.integers(0, len(words),
                                            size=rng.integers(1, 5))]
        if rng.random() < 0.2:
            q.append("zzzunseen")
        out.append(" ".join(q))
    return out


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq

    from search_engine_ray.ids import term_bucket
    from search_engine_ray.index.build import build_index

    assert term_bucket("straße", 2) != term_bucket("strasse", 2)
    data = tmp_path_factory.mktemp("side_pages")
    t = _table(300, 11, 0, COLLIDE)
    pq.write_table(t, str(data / "a.parquet"))
    idx = str(tmp_path_factory.mktemp("side_idx"))
    build_index(str(data), idx, _cfg())
    return idx, t


def _same(got, want, q):
    assert [(d, ts) for _, d, ts in got] == [(d, ts) for _, d, ts in want], q
    for (a, _, _), (b, _, _) in zip(got, want):
        assert abs(a - b) < 1e-9, q


def test_cold_answers_equal_oracle(pos_index):
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.engine import SearchEngine
    from search_engine_ray.text.extract import extract_text

    idx, t = pos_index
    oracle = OracleIndex(_cfg()).build(_rows([t]))
    for mode in ("bm25", "reference"):
        for q in _queries([t], seed=3):
            eng = SearchEngine(idx)  # every query cold
            _same(eng.search(q, k=10, mode=mode),
                  oracle.search(q, k=10, mode=mode), (mode, q))

    # capitals collision: only the winning orig's rows are served
    eng = SearchEngine(idx)
    p = eng.postings("STRASSE")
    want = sorted(d for d, *_ in oracle.postings["STRASSE"])
    assert p["doc_ids"].tolist() == want
    assert len(want) == eng.df_map["STRASSE"]

    # phrase on the positional index vs a scan of the parser's tokens
    eng = SearchEngine(idx)
    docs = [(u, eng.parser.parse_page(u, extract_text(h)))
            for u, h in zip(t.column("url").to_pylist(),
                            t.column("html").to_pylist())]
    docs = [(u, d) for u, d in docs if d is not None]
    phrase = next(d.tokens[2:4] for _, d in docs if len(d.tokens) >= 5)
    want = sorted(doc_id_for_url(u) for u, d in docs
                  if any(d.tokens[i:i + 2] == phrase
                         for i in range(len(d.tokens) - 1)))
    assert eng.phrase_docs(phrase).tolist() == want
    assert want


def test_second_engine_does_not_rebuild(pos_index):
    from search_engine_ray.query.engine import SearchEngine

    idx, _ = pos_index
    first = SearchEngine(idx)
    first.prefetch(list(first.df_map))
    files = _sidecar_files(idx)
    assert len(files) == 4  # blob + directory per term bucket
    mtimes = [os.stat(f).st_mtime_ns for f in files]
    again = SearchEngine(idx)
    again.prefetch(list(again.df_map))
    assert _sidecar_files(idx) == files
    assert [os.stat(f).st_mtime_ns for f in files] == mtimes
    for t in list(first.df_map)[:200]:
        a, b = first.postings(t), again.postings(t)
        assert a["doc_ids"].tolist() == b["doc_ids"].tolist(), t


def test_incremental_rebuild_makes_sidecar_stale(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from search_engine_ray.index.build import build_index
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.engine import SearchEngine

    data = tmp_path / "pages"
    data.mkdir()
    tables = [_table(150, 31 + i, 150 * i) for i in range(2)]
    for i, t in enumerate(tables):
        pq.write_table(t, str(data / f"pages_{i}.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(data), idx, _cfg())
    eng = SearchEngine(idx)
    eng.prefetch(list(eng.df_map))
    before = _sidecar_files(idx)

    tables.append(_table(150, 33, 300, COLLIDE))
    pq.write_table(tables[-1], str(data / "pages_2.parquet"))
    build_index(str(data), idx, _cfg())
    oracle = OracleIndex(_cfg()).build(_rows(tables))
    for q in _queries(tables, seed=4):
        _same(SearchEngine(idx).search(q, k=10, mode="bm25"),
              oracle.search(q, k=10, mode="bm25"), q)
    after = _sidecar_files(idx)
    assert len(after) == 4 and not set(after) & set(before)


def test_truncated_postings_file_fails_loudly(pos_index, tmp_path):
    from search_engine_ray.index.fsck import check_index
    from search_engine_ray.query.engine import SearchEngine

    src, _ = pos_index
    idx = str(tmp_path / "idx")
    shutil.copytree(src, idx)
    eng = SearchEngine(idx)
    terms = list(eng.df_map)
    eng.prefetch(terms)
    assert len(_sidecar_files(idx)) == 4
    victim = sorted(glob.glob(os.path.join(idx, "postings", "**",
                                           "*.parquet"), recursive=True))[0]
    with open(victim, "r+b") as fh:
        fh.truncate(os.path.getsize(victim) // 2)
    with pytest.raises(Exception, match="(?i)parquet"):
        SearchEngine(idx).prefetch(terms)
    fsck = check_index(idx)
    status = dict(zip(fsck.column("check").to_pylist(),
                      fsck.column("status").to_pylist()))
    assert status.get("postings:sample") == "fail"


def test_fsck_checks_sidecar_against_dictionary(pos_index, tmp_path):
    from search_engine_ray.index.fsck import check_index

    def status(idx):
        t = check_index(idx, sample_terms=10_000)
        return dict(zip(t.column("check").to_pylist(),
                        t.column("status").to_pylist()))

    src, _ = pos_index
    assert set(status(src).values()) == {"ok"}
    assert status(src)["postings:sidecar"] == "ok"

    idx = str(tmp_path / "idx")
    shutil.copytree(src, idx)
    assert status(idx)["postings:sidecar"] == "ok"
    dir_p = [f for f in _sidecar_files(idx) if f.endswith(".dir.npy")][0]
    d = np.load(dir_p)
    d["len"][-1, 0] += 1 << 30  # an extent past the end of the blob
    np.save(dir_p, d)
    assert status(idx)["postings:sidecar"] == "fail"


def test_restricted_engines_partition_postings(pos_index):
    """Engines restricted to the shards of a partition serve disjoint
    postings whose union is the unrestricted engine's, capitals-
    collision term included; each holds only its own shards' docs."""
    from search_engine_ray.query.engine import SearchEngine

    idx, _ = pos_index
    full = SearchEngine(idx)
    S = full.cfg.num_shards
    parts = [SearchEngine(idx, shards=[s]) for s in range(S)]
    rng = np.random.default_rng(0)
    vocab = sorted(full.df_map)
    sample = [vocab[i] for i in rng.choice(len(vocab), 150, replace=False)]
    for t in sample + ["STRASSE"]:
        want = full.postings(t)
        got = {s: e.postings(t) for s, e in enumerate(parts)}
        ids = np.concatenate([p["doc_ids"] for p in got.values()
                              if p is not None])
        assert len(np.unique(ids)) == len(ids), t  # disjoint
        assert np.sort(ids).tolist() == want["doc_ids"].tolist(), t
        for s, p in got.items():
            if p is not None:
                assert (p["doc_ids"] % S == s).all(), (t, s)
                pos = np.searchsorted(want["doc_ids"], p["doc_ids"])
                assert p["tfs"].tolist() == want["tfs"][pos].tolist(), t
    # a term with no postings in a shard is None there, not empty
    assert any(e.postings("STRASSE") is None for e in parts) or S == 1


def test_sidecar_of_older_format_is_not_read(pos_index, tmp_path,
                                             monkeypatch):
    """A postings sidecar in the previous format (a directory without
    the per-entry shard column) left in cache/ has another fingerprinted
    name: engines derive the current format instead of reading it."""
    from search_engine_ray.query import engine as engine_mod
    from search_engine_ray.query.engine import SearchEngine

    src, t = pos_index
    idx = str(tmp_path / "idx")
    shutil.copytree(src, idx)
    for f in _sidecar_files(idx):
        os.unlink(f)
    queries = _queries([t], seed=9)
    want = [SearchEngine(src).search(q, k=10, mode="bm25")
            for q in queries]

    nb = SearchEngine(idx).cfg.term_buckets
    monkeypatch.setattr(engine_mod, "_SIDECAR_FORMAT",
                        b"postings-sidecar-1")
    old = [engine_mod.postings_sidecar_paths(idx, b)[1:]
           for b in range(nb)]
    monkeypatch.undo()
    full = SearchEngine(idx)
    for b, (blob_p, dir_p) in enumerate(old):
        # the old directory layout, every extent pointing at junk
        terms = full._bucket(b).terms
        N = len(terms)
        d = np.zeros((), dtype=[
            ("term", terms.dtype, (N,)), ("file", np.int32, (N,)),
            ("n", np.int64, (N,)), ("off", np.int64, (N, 5)),
            ("len", np.int64, (N, 5))])
        d["term"], d["n"], d["len"] = terms, 1, 1
        np.save(dir_p, d)
        with open(blob_p, "wb") as fh:
            fh.write(b"\xff" * 64)
    for f in _sidecar_files(idx):
        if f not in {p for pair in old for p in pair}:
            os.unlink(f)

    eng = SearchEngine(idx)
    for q, w in zip(queries, want):
        assert eng.search(q, k=10, mode="bm25") == w, q
    new = _sidecar_files(idx)
    assert len(new) == 2 * nb
    assert not set(new) & {p for pair in old for p in pair}
