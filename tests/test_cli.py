"""End-to-end CLI coverage (reference analogue: search_engine.main,
/root/reference/search_engine.py:99-112): build/search/phrase/batch
subcommands invoked in-process via main(argv).

main() must NOT shut down the session-scoped Ray it did not start
(cli._ensure_ray ownership contract) — every test here would break the
rest of the suite otherwise.
"""

import csv

import pytest

from search_engine_ray.cli import main


@pytest.fixture(scope="module")
def cli_index(ray_session, tmp_path_factory, small_pages):
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    corpus.mkdir()
    pq.write_table(small_pages, str(corpus / "pages.parquet"))
    idx = str(root / "idx")
    rc = main(["build", str(corpus), idx, "--positions", "--overwrite"])
    assert rc == 0
    return idx


def test_build_prints_manifest_json(cli_index, capsys):
    # re-run build over the same dir to capture its stdout line
    import json

    rc = main(["build", cli_index.replace("idx", "corpus"),
               cli_index + "2", "--positions", "--overwrite"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    man = json.loads(out)
    assert man["n_docs"] > 0 and man["avg_doc_length"] > 0


def test_search_prints_ranked_docs(cli_index, capsys):
    rc = main(["search", cli_index, "new", "york", "--k", "5"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("doc id: ")]
    assert 0 < len(lines) <= 5
    # reference prints best-first: scores non-increasing down the page
    scores = [float(ln.rsplit("score: ", 1)[1]) for ln in lines]
    assert scores == sorted(scores, reverse=True)


def test_phrase_matches_engine(cli_index, capsys):
    from search_engine_ray.query.engine import SearchEngine

    rc = main(["phrase", cli_index, "new", "york"])
    assert rc == 0
    got = [int(ln.split("doc id: ")[1])
           for ln in capsys.readouterr().out.splitlines()
           if ln.startswith("doc id: ")]
    eng = SearchEngine(cli_index)
    want = eng.phrase_docs(["new", "york"]).tolist()
    assert got == want and len(got) > 0


def test_phrase_proximity_window(cli_index, capsys):
    rc = main(["phrase", cli_index, "world", "health", "--window", "5"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("doc id: ")]
    assert lines
    gaps = [int(ln.rsplit("min gap: ", 1)[1]) for ln in lines]
    assert all(1 <= g <= 5 for g in gaps)


def test_phrase_window_needs_two_terms(cli_index):
    with pytest.raises(SystemExit):
        main(["phrase", cli_index, "york", "--window", "3"])


def test_batch_writes_csv(cli_index, tmp_path, capsys):
    qf = tmp_path / "queries.txt"
    qf.write_text("new york\nworld health\n")
    out_csv = str(tmp_path / "res.csv")
    rc = main(["batch", cli_index, str(qf), out_csv, "--k", "3"])
    assert rc == 0
    with open(out_csv) as f:
        rows = list(csv.reader(f))
    assert len(rows) >= 2  # at least one result per query


def test_ray_session_survives_cli(ray_session):
    # the ownership contract: none of the main() calls above shut down
    # the suite's session
    import ray

    assert ray.is_initialized()


def test_lookup_complete_ranks_by_df(cli_index, capsys):
    from search_engine_ray.ops.fulltext import prefix_search_index

    rc = main(["lookup", cli_index, "--complete", "n", "-k", "3"])
    assert rc == 0
    lines = [ln.split("\t") for ln in
             capsys.readouterr().out.strip().splitlines() if ln]
    assert 0 < len(lines) <= 3
    assert [int(r) for r, _, _ in lines] == list(range(1, len(lines) + 1))
    dfs = [int(df) for _, _, df in lines]
    assert dfs == sorted(dfs, reverse=True)
    # equals brute-force ranking of the full prefix result
    full = prefix_search_index(cli_index, "n").to_pandas()
    want = (full.sort_values(["df", "term"], ascending=[False, True])
            .head(3))
    assert [t for _, t, _ in lines] == want["term"].tolist()


def test_grep_substring_and_regex(ray_session, capsys):
    """grep serves infix and regex queries over a corpus dir; indexed
    and --scan paths agree."""
    sf = "/root/testdata/sf0.001"
    rc = main(["grep", sf, "ter scan"])
    assert rc == 0
    idx_out = capsys.readouterr().out
    rc = main(["grep", sf, "ter scan", "--scan"])
    assert rc == 0
    assert capsys.readouterr().out == idx_out
    assert idx_out.count("doc id: ") == 32  # oracle count (test above)
    rc = main(["grep", sf, "ter (scan|merge)", "--regex"])
    assert rc == 0
    assert capsys.readouterr().out.count("doc id: ") == 64


def test_search_serving_flags(cli_index, capsys):
    """--pages stitches to one big page; --boost/--synonym/--since are
    accepted and --pages>1 is rejected outside bm25."""
    rc = main(["search", cli_index, "covid", "vaccine", "--k", "4",
               "--pages", "3"])
    assert rc == 0
    paged = capsys.readouterr().out.strip().splitlines()
    rc = main(["search", cli_index, "covid", "vaccine", "--k", "12"])
    assert rc == 0
    assert paged == capsys.readouterr().out.strip().splitlines()

    rc = main(["search", cli_index, "covid", "--synonym",
               "covid=vaccine", "--k", "3"])
    assert rc == 0
    syn = capsys.readouterr().out.strip().splitlines()
    rc = main(["search", cli_index, "covid", "vaccine", "--k", "3"])
    assert rc == 0
    assert syn == capsys.readouterr().out.strip().splitlines()

    rc = main(["search", cli_index, "covid", "--boost", "covid^2",
               "--since", "0", "--k", "3"])
    assert rc == 0 and len(capsys.readouterr().out.strip().splitlines()) == 3

    with pytest.raises(SystemExit):
        main(["search", cli_index, "covid", "--pages", "2",
              "--mode", "reference"])
    capsys.readouterr()


def test_search_quoted_tier_count(cli_index, capsys):
    """--count totals, --quoted phrase gating, --tier champion lists."""
    rc = main(["search", cli_index, "covid", "vaccine", "--count"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "any-term matches:" in out and "all-terms matches:" in out

    # --tier with a huge M equals plain bm25
    rc = main(["search", cli_index, "covid", "vaccine",
               "--tier", "1000000", "--k", "5"])
    assert rc == 0
    tier = capsys.readouterr().out.strip().splitlines()
    rc = main(["search", cli_index, "covid", "vaccine", "--k", "5"])
    assert rc == 0
    assert tier == capsys.readouterr().out.strip().splitlines()

    # --quoted: phrase-gated ranking is a subset of the plain ranking
    rc = main(["search", cli_index, '"covid vaccine"', "--quoted",
               "--k", "200"])
    assert rc == 0
    gated = set(capsys.readouterr().out.strip().splitlines())
    rc = main(["search", cli_index, "covid", "vaccine", "--k", "200"])
    assert rc == 0
    plain = set(capsys.readouterr().out.strip().splitlines())
    assert gated <= plain

    with pytest.raises(SystemExit):
        main(["search", cli_index, "covid", "--quoted",
              "--mode", "reference"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["search", cli_index, "covid", "--tier", "3", "--quoted"])
    capsys.readouterr()


def test_search_quoted_rejects_fuzzy(cli_index, capsys):
    """A typo inside quotes is never fuzzy-corrected, so --quoted with
    --fuzzy is refused rather than silently returning no hits."""
    with pytest.raises(SystemExit):
        main(["search", cli_index, '"covvid vaccine"', "--quoted",
              "--fuzzy"])
    assert "--quoted and --fuzzy" in capsys.readouterr().err
    # each flag alone still serves
    assert main(["search", cli_index, "covvid", "--fuzzy"]) == 0
    assert capsys.readouterr().out.strip()


def test_fsck_cli(cli_index, capsys):
    rc = main(["fsck", cli_index])
    assert rc == 0
    out = capsys.readouterr().out
    assert "postings:df" in out and "fail" not in out


def test_search_rare_first_flag(cli_index, capsys):
    rc = main(["search", cli_index, "covid", "vaccine", "--rare-first",
               "--k", "5"])
    assert rc == 0
    assert capsys.readouterr().out.strip()
    with pytest.raises(SystemExit):
        main(["search", cli_index, "covid", "--rare-first", "--tier", "3"])
    capsys.readouterr()
