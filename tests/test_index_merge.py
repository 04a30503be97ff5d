"""Index merge (incremental ingest): merge_indexes over per-delta
builds must equal a full rebuild over the union corpus — dictionary,
capitals verdicts, corpus stats, postings, phrase serving — and must
resume from a mid-merge kill to identical output."""

import glob
import os

import numpy as np
import pyarrow as pa
import pytest


def _docmeta_ids(index_dir):
    import pyarrow.dataset as pads

    from search_engine_ray.index import manifest as mf

    ds = pads.dataset(mf.stage_dir(index_dir, "docmeta"),
                      partitioning="hive")
    return set(ds.to_table(columns=["doc_id"]).column("doc_id").to_pylist())


def _file_map(root, sub):
    out = {}
    for p in glob.glob(os.path.join(root, sub, "**", "*.parquet"),
                       recursive=True):
        with open(p, "rb") as f:
            out[os.path.relpath(p, root)] = f.read()
    return out


@pytest.fixture(scope="module")
def merged_setup(ray_session, tmp_path_factory):
    """Two delta corpora (disjoint docs via gen_pages ``start``), their
    per-delta indexes, a full rebuild over the union, and the merge."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import merge_indexes

    base = tmp_path_factory.mktemp("merge")
    dirs = {"a": str(base / "pages_a"), "b": str(base / "pages_b"),
            "all": str(base / "pages_all")}
    for d in dirs.values():
        os.makedirs(d)
    ta = gen_pages(300, seed=3)
    tb = gen_pages(250, seed=3, start=10_000)
    pq.write_table(ta, os.path.join(dirs["a"], "a.parquet"),
                   row_group_size=64)
    pq.write_table(tb, os.path.join(dirs["b"], "b.parquet"),
                   row_group_size=64)
    pq.write_table(ta, os.path.join(dirs["all"], "a.parquet"),
                   row_group_size=64)
    pq.write_table(tb, os.path.join(dirs["all"], "b.parquet"),
                   row_group_size=64)

    # prune_df1=False = the exact-parity mode (module docstring);
    # positions=True so phrase serving parity is covered too
    cfg = EngineConfig(num_shards=4, term_buckets=8, prune_df1=False,
                       positions=True, parse_part_rows=128,
                       parser_concurrency=2)
    idx = {k: str(base / f"idx_{k}") for k in ("a", "b", "all", "merged")}
    build_index(dirs["a"], idx["a"], cfg)
    build_index(dirs["b"], idx["b"], cfg)
    build_index(dirs["all"], idx["all"], cfg)
    man = merge_indexes([idx["a"], idx["b"]], idx["merged"])
    return idx, man, cfg


def test_merge_dict_and_stats_equal_full_rebuild(merged_setup):
    from search_engine_ray.index import manifest as mf

    idx, man, _ = merged_setup
    full = mf.read_manifest(idx["all"])
    assert man["n_docs"] == full["n_docs"] == 550
    assert man["sum_doc_length"] == full["sum_doc_length"]
    assert man["avg_doc_length"] == pytest.approx(full["avg_doc_length"])
    df_m, caps_m = mf.load_df_and_orig(idx["merged"])
    df_f, caps_f = mf.load_df_and_orig(idx["all"])
    assert df_m == df_f
    assert caps_m == caps_f


def test_merge_postings_byte_identical_to_full_rebuild(merged_setup):
    """finalize output is a pure function of each partition's posting
    multiset, and the merge feeds the SAME multiset through the same
    reduce — dict and postings files match the full rebuild byte for
    byte."""
    idx, _, _ = merged_setup
    for stage in ("dict", "postings"):
        fm = _file_map(idx["merged"], stage)
        ff = _file_map(idx["all"], stage)
        assert fm.keys() == ff.keys(), stage
        diff = [k for k in ff if fm[k] != ff[k]]
        assert not diff, (stage, diff[:5])


def test_merge_search_parity_all_modes(merged_setup):
    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.engine import SearchEngine

    idx, _, _ = merged_setup
    em = SearchEngine(idx["merged"])
    ef = SearchEngine(idx["all"])
    for q in gen_queries():
        for mode in ("bm25", "bm25_wand", "reference", "bool_and",
                     "bool_or"):
            assert em.search(q, k=10, mode=mode) == \
                ef.search(q, k=10, mode=mode), (q, mode)
    # phrase/proximity serve from the merged positional postings
    for phrase in (["covid", "vaccine"], ["south", "korea"]):
        assert sorted(em.phrase_docs(phrase)) == \
            sorted(ef.phrase_docs(phrase)), phrase
    dm, gm = em.proximity_docs("covid", "vaccine", window=4)
    df_, gf = ef.proximity_docs("covid", "vaccine", window=4)
    assert sorted(zip(dm, gm)) == sorted(zip(df_, gf))


def test_merge_rederives_capitals_verdict_globally(ray_session, tmp_path):
    """A term ALWAYS capitalized inside delta A (-> UPPER there) but
    lowercase in delta B must come back DOWN to lowercase in the merge,
    exactly as a full rebuild decides; a term capitalized in both stays
    UPPER.  The flipped term's postings re-route to the lowercase
    term's bucket and keep every doc."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import wrap_html
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import merge_indexes

    def pages(texts, start):
        return pa.table({
            "url": pa.array([f"https://m.example/{start + i:06d}"
                             for i in range(len(texts))], pa.string()),
            "warc_ts": pa.array([1_600_000_000_000_000 + (start + i) * 1000
                                 for i in range(len(texts))],
                                pa.timestamp("us")),
            "html": pa.array([wrap_html(t, f"t{start + i}")
                              for i, t in enumerate(texts)], pa.binary()),
        })

    # Flipterm: capitalized everywhere in A, lowercase once in B.
    # Bothcaps: capitalized everywhere in both deltas.
    a_texts = ["Flipterm alpha data", "Flipterm Bothcaps beta data",
               "gamma Bothcaps data"]
    b_texts = ["flipterm delta words", "Bothcaps epsilon words"]
    base = str(tmp_path)
    for name, texts, start in (("a", a_texts, 0), ("b", b_texts, 100)):
        os.makedirs(f"{base}/p_{name}")
        pq.write_table(pages(texts, start),
                       f"{base}/p_{name}/f.parquet")
    os.makedirs(f"{base}/p_all")
    pq.write_table(pages(a_texts, 0), f"{base}/p_all/fa.parquet")
    pq.write_table(pages(b_texts, 100), f"{base}/p_all/fb.parquet")

    cfg = EngineConfig(num_shards=2, term_buckets=4, prune_df1=False)
    for k in ("a", "b", "all"):
        build_index(f"{base}/p_{k}", f"{base}/i_{k}", cfg)
    # sanity: the deltas really disagree on the verdict
    assert "FLIPTERM" in mf.load_df_map(f"{base}/i_a")
    assert "flipterm" in mf.load_df_map(f"{base}/i_b")
    merge_indexes([f"{base}/i_a", f"{base}/i_b"], f"{base}/i_m")

    df_m, _ = mf.load_df_and_orig(f"{base}/i_m")
    df_f, _ = mf.load_df_and_orig(f"{base}/i_all")
    assert df_m == df_f
    assert df_m["flipterm"] == 3 and "FLIPTERM" not in df_m
    assert df_m["BOTHCAPS"] == 3 and "bothcaps" not in df_m

    from search_engine_ray.query.engine import SearchEngine

    em = SearchEngine(f"{base}/i_m", preload_docmeta=False)
    ef = SearchEngine(f"{base}/i_all", preload_docmeta=False)
    pm, pf = em.postings("flipterm"), ef.postings("flipterm")
    assert np.array_equal(pm["doc_ids"], pf["doc_ids"])
    assert len(pm["doc_ids"]) == 3  # A's re-routed rows + B's row


def test_merge_prune_df1_counts_surviving_rows(ray_session, tmp_path):
    """With the reference's destructive df==1 prune, a term pruned
    inside one delta is unrecoverable: the merged df counts surviving
    posting rows (documented boundary), and the rule re-applies to the
    merged df."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import wrap_html
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import merge_indexes

    def pages(texts, start):
        return pa.table({
            "url": pa.array([f"https://p.example/{start + i:06d}"
                             for i in range(len(texts))], pa.string()),
            "warc_ts": pa.array([1_600_000_000_000_000 + (start + i) * 1000
                                 for i in range(len(texts))],
                                pa.timestamp("us")),
            "html": pa.array([wrap_html(t, f"t{start + i}")
                              for i, t in enumerate(texts)], pa.binary()),
        })

    # lostone: df==1 in A (pruned there), df==2 in B -> merged df 2
    # goner:   df==1 in each delta -> pruned in both, absent merged
    a = ["lostone goner alpha words", "beta gamma words"]
    b = ["lostone lostone words delta", "lostone goner words epsilon"]
    base = str(tmp_path)
    for name, texts, start in (("a", a, 0), ("b", b, 100)):
        os.makedirs(f"{base}/p_{name}")
        pq.write_table(pages(texts, start), f"{base}/p_{name}/f.parquet")
    cfg = EngineConfig(num_shards=2, term_buckets=4, prune_df1=True)
    build_index(f"{base}/p_a", f"{base}/i_a", cfg)
    build_index(f"{base}/p_b", f"{base}/i_b", cfg)
    merge_indexes([f"{base}/i_a", f"{base}/i_b"], f"{base}/i_m")
    df_m = mf.load_df_map(f"{base}/i_m")
    assert df_m.get("lostone") == 2  # B's two docs; A's row was pruned
    assert "goner" not in df_m       # df==1 everywhere -> still pruned


def test_merge_resumes_after_kill(merged_setup, tmp_path):
    """A merge killed between postings-partition commits resumes to
    byte-identical output."""
    import time

    from search_engine_ray.index.build import InjectedCrash
    from search_engine_ray.index.merge import merge_indexes

    idx, _, _ = merged_setup
    out = str(tmp_path / "idx_killed")
    os.environ["GRAFT_CRASH_MERGE_POSTINGS_AFTER"] = "2"
    try:
        with pytest.raises(InjectedCrash):
            merge_indexes([idx["a"], idx["b"]], out)
    finally:
        del os.environ["GRAFT_CRASH_MERGE_POSTINGS_AFTER"]
    time.sleep(1.0)  # let force-cancelled in-flight tasks settle
    merge_indexes([idx["a"], idx["b"]], out)
    for stage in ("dict", "postings"):
        assert _file_map(out, stage) == _file_map(idx["merged"], stage)


def test_merge_rejects_mismatched_configs(merged_setup, tmp_path):
    from search_engine_ray.index.merge import merge_indexes

    idx, _, _ = merged_setup
    with pytest.raises(ValueError):
        merge_indexes([idx["a"]], str(tmp_path / "x"))


@pytest.fixture(scope="module")
def delete_setup(ray_session, tmp_path_factory):
    """A corpus, its index, a deletion set (every 7th doc), and the
    ground-truth rebuild over the surviving pages."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import delete_docs

    base = tmp_path_factory.mktemp("delete")
    t = gen_pages(300, seed=5)
    urls = t.column("url").to_pylist()
    ids = [doc_id_for_url(u) for u in urls]
    kill = set(ids[::7])
    keep_mask = pa.array([i not in kill for i in ids])

    os.makedirs(base / "pages_all")
    os.makedirs(base / "pages_kept")
    pq.write_table(t, str(base / "pages_all" / "f.parquet"),
                   row_group_size=64)
    pq.write_table(t.filter(keep_mask),
                   str(base / "pages_kept" / "f.parquet"),
                   row_group_size=64)
    cfg = EngineConfig(num_shards=4, term_buckets=8, prune_df1=False,
                       positions=True, parse_part_rows=128)
    idx = {k: str(base / f"idx_{k}") for k in ("all", "kept", "deleted")}
    build_index(str(base / "pages_all"), idx["all"], cfg)
    build_index(str(base / "pages_kept"), idx["kept"], cfg)
    man = delete_docs(idx["all"], sorted(kill), idx["deleted"])
    return idx, man, sorted(kill)


def test_delete_docs_matches_rebuild_over_survivors(delete_setup):
    from search_engine_ray.index import manifest as mf

    idx, man, kill = delete_setup
    full = mf.read_manifest(idx["kept"])
    # (the parse stage drops a doc that normalizes to zero tokens, so
    # compare against the rebuild, not raw page arithmetic)
    assert man["n_docs"] == full["n_docs"]
    assert man["n_docs"] == mf.read_manifest(idx["all"])["n_docs"] - len(
        set(kill) & _docmeta_ids(idx["all"]))
    assert man["sum_doc_length"] == full["sum_doc_length"]
    df_d, caps_d = mf.load_df_and_orig(idx["deleted"])
    df_k, caps_k = mf.load_df_and_orig(idx["kept"])
    assert df_d == df_k
    assert caps_d == caps_k


def test_delete_docs_search_and_phrase_parity(delete_setup):
    import numpy as np

    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.engine import SearchEngine

    idx, _, kill = delete_setup
    ed = SearchEngine(idx["deleted"])
    ek = SearchEngine(idx["kept"])
    for q in gen_queries():
        for mode in ("bm25", "bm25_wand", "reference", "bool_and"):
            got = ed.search(q, k=10, mode=mode)
            assert got == ek.search(q, k=10, mode=mode), (q, mode)
            docs = got if mode == "bool_and" else [d for _, d, _ in got]
            assert not (set(docs) & set(kill)), (q, mode)
    assert sorted(ed.phrase_docs(["covid", "vaccine"])) == \
        sorted(ek.phrase_docs(["covid", "vaccine"]))
    # postings parity term by term for a few dict terms
    for t in list(ek.df_map)[:25]:
        pd_, pk = ed.postings(t), ek.postings(t)
        assert np.array_equal(pd_["doc_ids"], pk["doc_ids"]), t
        assert np.array_equal(pd_["tfs"], pk["tfs"]), t


def test_delete_docs_reapplies_df1_prune(ray_session, tmp_path):
    """With prune_df1=True, a term whose df drops to 1 after the delete
    is pruned from the dictionary, exactly as a rebuild would."""
    import pyarrow.parquet as pq

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.fixtures import wrap_html
    from search_engine_ray.ids import doc_id_for_url
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import delete_docs

    texts = ["raretoken alpha words here", "raretoken beta words there",
             "gamma delta words everywhere"]
    urls = [f"https://d.example/{i:06d}" for i in range(len(texts))]
    t = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([1_600_000_000_000_000 + i * 1000
                             for i in range(len(texts))],
                            pa.timestamp("us")),
        "html": pa.array([wrap_html(x, f"t{i}")
                          for i, x in enumerate(texts)], pa.binary()),
    })
    base = str(tmp_path)
    os.makedirs(f"{base}/pages")
    pq.write_table(t, f"{base}/pages/f.parquet")
    cfg = EngineConfig(num_shards=2, term_buckets=4, prune_df1=True)
    build_index(f"{base}/pages", f"{base}/idx", cfg)
    assert mf.load_df_map(f"{base}/idx")["raretoken"] == 2
    delete_docs(f"{base}/idx", [doc_id_for_url(urls[0])], f"{base}/out")
    df = mf.load_df_map(f"{base}/out")
    assert "raretoken" not in df  # df fell to 1 -> pruned again
    assert df["words"] == 2


def test_posting_format_is_what_readers_read(merged_setup, delete_setup):
    """Build, merge and delete write the same posting columns: the
    doc-id/tf/dl/max-tf/position streams the engine's sidecar and
    fsck decode, and no per-posting unique-term count or stored
    block-max metadata.  The SPIMI spill carries no unique-term
    stream either."""
    import pyarrow.parquet as pq

    from search_engine_ray.index.build import RUN_SCHEMA

    want = {"shard", "term", "orig", "df_global", "n", "docids_vb",
            "tf_vb", "dl_vb", "mtf_vb", "pos_vb"}
    midx, _, _ = merged_setup
    didx, _, _ = delete_setup
    for label, root in (("build", midx["all"]), ("merge", midx["merged"]),
                        ("delete", didx["deleted"])):
        files = glob.glob(os.path.join(root, "postings", "**", "*.parquet"),
                          recursive=True)
        assert files, label
        for f in files:
            assert set(pq.read_schema(f).names) == want, (label, f)
    assert "uniqs" not in RUN_SCHEMA.names


def test_delete_all_docs_yields_empty_index(delete_setup, tmp_path):
    import pyarrow.dataset as pads

    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.merge import delete_docs
    from search_engine_ray.query.engine import SearchEngine

    idx, _, _ = delete_setup
    dm = pads.dataset(mf.stage_dir(idx["all"], "docmeta"),
                      partitioning="hive")
    all_ids = dm.to_table(columns=["doc_id"]).column("doc_id").to_pylist()
    out = str(tmp_path / "empty")
    man = delete_docs(idx["all"], all_ids, out)
    assert man["n_docs"] == 0
    eng = SearchEngine(out, preload_docmeta=False)
    assert eng.search("covid vaccine", k=5) == []
    assert eng.df_map == {}


def test_merge_is_transitive_and_serves_lookups(merged_setup, tmp_path):
    """Merging a MERGED index with a third delta equals the flat
    3-corpus rebuild (merged indexes are first-class merge inputs), and
    the fulltext dictionary lookups serve straight off the merged
    index's dict files."""
    import pyarrow.parquet as pq

    from search_engine_ray.fixtures import gen_pages
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.merge import merge_indexes
    from search_engine_ray.ops.fulltext import (
        fuzzy_terms_index,
        prefix_search_index,
    )

    idx, _, cfg = merged_setup
    base = str(tmp_path)
    os.makedirs(f"{base}/p_c")
    tc = gen_pages(150, seed=3, start=20_000)
    pq.write_table(tc, f"{base}/p_c/c.parquet", row_group_size=64)
    build_index(f"{base}/p_c", f"{base}/i_c", cfg)
    merge_indexes([idx["merged"], f"{base}/i_c"], f"{base}/i_abc")

    # flat rebuild over all three deltas
    os.makedirs(f"{base}/p_all3")
    import shutil as _sh

    for src in (idx["a"].replace("idx_a", "pages_a"),
                idx["b"].replace("idx_b", "pages_b")):
        for f in glob.glob(os.path.join(src, "*.parquet")):
            _sh.copy2(f, f"{base}/p_all3/{os.path.basename(f)}")
    _sh.copy2(f"{base}/p_c/c.parquet", f"{base}/p_all3/c.parquet")
    build_index(f"{base}/p_all3", f"{base}/i_full3", cfg)

    df_m, caps_m = mf.load_df_and_orig(f"{base}/i_abc")
    df_f, caps_f = mf.load_df_and_orig(f"{base}/i_full3")
    assert df_m == df_f and caps_m == caps_f
    for stage in ("dict", "postings"):
        assert _file_map(f"{base}/i_abc", stage) == \
            _file_map(f"{base}/i_full3", stage), stage

    # dictionary lookups over the merged index
    pt = prefix_search_index(f"{base}/i_abc", "cov")
    assert "covid" in pt.column("term").to_pylist()
    got = dict(zip(pt.column("term").to_pylist(),
                   pt.column("df").to_pylist()))
    assert got["covid"] == df_f["covid"]
    ft = fuzzy_terms_index(f"{base}/i_abc", "covis")
    assert ("covid", 1) in zip(ft.column("term").to_pylist(),
                               ft.column("dist").to_pylist())
