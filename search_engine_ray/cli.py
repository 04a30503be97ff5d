"""CLI entry points (reference analogue: search_engine.main(corpus_path,
output_path, stemming, queries, num_docs_to_retrieve),
/root/reference/search_engine.py:99-112).

    python -m search_engine_ray.cli build  <corpus_dir> <index_dir> [--stemming] [--tweets] [--positions]
    python -m search_engine_ray.cli search <index_dir> <query...> [--k N] [--mode bm25|reference|bm25_wand]
        [--fuzzy] [--since US] [--until US] [--boost term^w]... [--synonym term=alt,alt]... [--pages N]
    python -m search_engine_ray.cli batch  <index_dir> <queries_file> <out_csv> [--k N]
    python -m search_engine_ray.cli phrase <index_dir> <term...> [--window N]
    python -m search_engine_ray.cli grep   <corpus_dir> <pattern> [--regex] [--scan]
    python -m search_engine_ray.cli merge  <index_dir>... <out_dir>

Owns its Ray session (guarded init), unlike the library/driver contract.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> bool:
    """Guarded init; returns True iff THIS call started the session (so
    main() only shuts down a session it owns — in-process callers with a
    live session, e.g. tests, keep theirs)."""
    import ray

    started = not ray.is_initialized()
    if started:
        # no explicit address: inside `ray job submit` / a cluster this
        # attaches to the running cluster (RAY_ADDRESS or job context);
        # standalone it starts a local instance — same code path both ways
        ray.init(include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="search_engine_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("corpus_dir")
    b.add_argument("index_dir")
    b.add_argument("--stemming", action="store_true")
    b.add_argument("--tweets", action="store_true",
                   help="input is the reference's 8-column tweet shape")
    b.add_argument("--positions", action="store_true",
                   help="store term positions (phrase/proximity serving)")
    b.add_argument("--overwrite", action="store_true")

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("query", nargs="+")
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--mode", default="bm25",
                   choices=["bm25", "reference", "bm25_wand",
                            "bool_and", "bool_or"])
    s.add_argument("--fuzzy", action="store_true",
                   help="typo tolerance: unknown query terms are "
                        "replaced by their best one-edit dictionary "
                        "correction")
    s.add_argument("--since", type=int, metavar="US",
                   help="bm25 only: keep docs with timestamp >= US "
                        "(microseconds; scores stay filter-invariant)")
    s.add_argument("--until", type=int, metavar="US",
                   help="bm25 only: keep docs with timestamp <= US")
    s.add_argument("--boost", action="append", default=[],
                   metavar="TERM^W",
                   help="bm25 only: per-term weight, repeatable "
                        "(Lucene term^w)")
    s.add_argument("--synonym", action="append", default=[],
                   metavar="TERM=ALT[,ALT...]",
                   help="query-time synonym expansion, repeatable")
    s.add_argument("--pages", type=int, default=1, metavar="N",
                   help="bm25 only: print N pages of k results, deep "
                        "paging via search_after cursors")
    s.add_argument("--quoted", action="store_true",
                   help='bm25 + positional index only: honor "..." '
                        "spans in the query as exact-phrase "
                        "constraints (quote them from your shell; "
                        "not with --fuzzy)")
    s.add_argument("--tier", type=int, metavar="M",
                   help="champion-list tiered retrieval: candidates "
                        "come from each term's top-M-by-tf posting "
                        "prefix (approximate, bounded work)")
    s.add_argument("--count", action="store_true",
                   help="print exact OR/AND total-hit counts instead "
                        "of ranked results")
    s.add_argument("--rare-first", action="store_true",
                   help="CommonTermsQuery: only low-df terms drive "
                        "the candidate set (head terms still score)")

    ex = sub.add_parser("explain",
                        help="run a query through block-max WAND and "
                             "print results plus pruning counters")
    ex.add_argument("index_dir")
    ex.add_argument("query", nargs="+")
    ex.add_argument("--k", type=int, default=10)

    q = sub.add_parser("batch")
    q.add_argument("index_dir")
    q.add_argument("queries_file")
    q.add_argument("out_csv")
    q.add_argument("--k", type=int, default=10)
    q.add_argument("--mode", default="bm25",
                   choices=["bm25", "reference"])
    q.add_argument("--snippets-from", metavar="PAGES_DIR",
                   help="attach a KWIC snippet column from the pages "
                        "store (one scan amortized over all queries)")

    p = sub.add_parser("phrase",
                       help="exact token-sequence match from positional "
                            "postings (index built with --positions)")
    p.add_argument("index_dir")
    p.add_argument("terms", nargs="+")
    p.add_argument("--window", type=int, default=0,
                   help=">0: proximity mode over the FIRST TWO terms "
                        "(min gap <= window) instead of exact phrase")

    lk = sub.add_parser("lookup",
                        help="dictionary lookups: --prefix p (wildcard "
                             "p*), --fuzzy q (edit distance <= 1), or "
                             "--complete p (top-k completions by df)")
    lk.add_argument("index_dir")
    g = lk.add_mutually_exclusive_group(required=True)
    g.add_argument("--prefix")
    g.add_argument("--fuzzy")
    g.add_argument("--complete")
    lk.add_argument("-k", type=int, default=5,
                    help="completions per prefix (--complete only)")

    gp = sub.add_parser("grep",
                        help="substring (default) or --regex search over "
                             "a corpus dir's documents.parquet, served "
                             "from the trigram index (--scan bypasses "
                             "it); prints matching doc ids")
    gp.add_argument("corpus_dir")
    gp.add_argument("pattern")
    gp.add_argument("--regex", action="store_true")
    gp.add_argument("--scan", action="store_true")

    dl = sub.add_parser("delete",
                        help="new index without the given doc ids "
                             "(takedown path; no re-parse, no tombstones)")
    dl.add_argument("index_dir")
    dl.add_argument("out_dir")
    dl.add_argument("--ids-file", required=True,
                    help="file with one engine doc id per line")

    fk = sub.add_parser("fsck",
                        help="index integrity check (manifest, stage "
                             "layout, sampled dict<->postings "
                             "reconciliation, docmeta, corpus stats); "
                             "exit 1 on any failure")
    fk.add_argument("index_dir")
    fk.add_argument("--sample-terms", type=int, default=64)

    m = sub.add_parser("merge",
                       help="merge delta indexes into one (incremental "
                            "ingest; no re-parse — see index/merge.py)")
    m.add_argument("index_dirs", nargs="+",
                   help="two or more source index dirs, then the output "
                        "dir last")

    args = ap.parse_args(argv)
    owns_ray = _ensure_ray()

    if args.cmd == "build":
        from search_engine_ray.config import EngineConfig
        from search_engine_ray.index.build import build_index

        man = build_index(
            args.corpus_dir, args.index_dir,
            EngineConfig(stemming=args.stemming,
                         positions=args.positions),
            overwrite=args.overwrite,
            input_format="tweets" if args.tweets else "pages")
        print(json.dumps({"n_docs": man["n_docs"],
                          "avg_doc_length": man["avg_doc_length"]}))
    elif args.cmd == "search":
        from search_engine_ray.query.engine import SearchEngine

        eng = SearchEngine(args.index_dir)
        if args.mode != "bm25" and (args.since is not None
                                    or args.until is not None
                                    or args.boost or args.pages > 1):
            ap.error("--since/--until/--boost/--pages need --mode bm25")
        ts_range = None
        if args.since is not None or args.until is not None:
            lo = args.since if args.since is not None else 0
            hi = args.until if args.until is not None else (1 << 62)
            ts_range = (lo, hi)
        boosts = None
        if args.boost:
            boosts = {}
            for spec in args.boost:
                term, sep, w = spec.rpartition("^")
                try:
                    boosts[term] = float(w)
                except ValueError:
                    sep = ""
                if not sep or not term:
                    ap.error(f"--boost expects TERM^W, got {spec!r}")
        synonyms = None
        if args.synonym:
            synonyms = {}
            for spec in args.synonym:
                term, _, alts = spec.partition("=")
                synonyms[term] = [a for a in alts.split(",") if a]
        qtext = " ".join(args.query)
        if args.count:
            # loud rejection of silently-unsupported combos (same
            # convention as the --since/--pages validation above)
            if (args.mode != "bm25" or args.fuzzy or args.tier is not None
                    or args.quoted or ts_range is not None or boosts
                    or synonyms or args.pages > 1 or args.rare_first):
                ap.error("--count takes no other serving flags")
            c = eng.match_counts(qtext)
            print(f"any-term matches: {c['n_or']}, "
                  f"all-terms matches: {c['n_and']}")
            return 0
        if args.tier is not None:
            if (args.mode != "bm25" or args.quoted or args.pages > 1
                    or ts_range is not None or boosts or synonyms):
                ap.error("--tier supports only --mode bm25 [--fuzzy] "
                         "(no --quoted/--pages/--since/--until/--boost/"
                         "--synonym)")
            if args.tier <= 0:
                ap.error("--tier M must be a positive champion-list size")
            if args.rare_first:
                ap.error("--tier and --rare-first are exclusive "
                         "candidate-pruning strategies")
            res = eng.search_tiered(qtext, k=args.k, m=args.tier,
                                    fuzzy=args.fuzzy)
            for score, doc_id, ts in reversed(res):
                print(f"doc id: {doc_id}, score: {score}")
            return 0
        if args.rare_first:
            if (args.mode != "bm25" or args.quoted or args.pages > 1
                    or ts_range is not None or boosts or synonyms
                    or args.fuzzy):
                ap.error("--rare-first supports only plain --mode bm25")
            res = eng.search_common_terms(qtext, k=args.k)
            for score, doc_id, ts in reversed(res):
                print(f"doc id: {doc_id}, score: {score}")
            return 0
        phrases = None
        if args.quoted:
            if args.mode != "bm25":
                ap.error("--quoted needs --mode bm25")
            if args.fuzzy:
                # phrase terms match positions exactly: a typo inside
                # quotes would silently gate every doc out
                ap.error("--quoted and --fuzzy are exclusive")
            from search_engine_ray.query.engine import parse_quoted_query

            qtext, phrases = parse_quoted_query(qtext)
        if args.mode.startswith("bool_"):
            res = eng.search(qtext, k=args.k, mode=args.mode,
                             fuzzy=args.fuzzy, synonyms=synonyms)
            for doc_id in res:  # boolean modes return plain ids
                print(f"doc id: {doc_id}")
        else:
            cursor = None
            for _page in range(max(args.pages, 1)):
                res = eng.search(qtext, k=args.k, mode=args.mode,
                                 fuzzy=args.fuzzy, ts_range=ts_range,
                                 search_after=cursor, boosts=boosts,
                                 synonyms=synonyms, phrases=phrases)
                if not res:
                    break
                # print best-first, like the reference's output loop
                # (search_engine.py:109-112)
                for score, doc_id, ts in reversed(res):
                    print(f"doc id: {doc_id}, score: {score}")
                cursor = res[0]
    elif args.cmd == "explain":
        from search_engine_ray.query.engine import SearchEngine

        eng = SearchEngine(args.index_dir)
        res, st = eng.search_explain(" ".join(args.query), k=args.k)
        for score, doc_id, ts in reversed(res):
            print(f"doc id: {doc_id}, score: {score}")
        tot = max(st.get("postings_total", 0), 1)
        print(f"-- terms: {st.get('terms', 0)}, "
              f"postings: {st.get('postings_total', 0)}, "
              f"scored: {st.get('full_evals', 0)} "
              f"({100.0 * st.get('full_evals', 0) / tot:.1f}%), "
              f"block-max skips: {st.get('bm_skips', 0)}, "
              f"pivot advances: {st.get('pivot_advances', 0)}, "
              f"heap inserts: {st.get('heap_inserts', 0)}")
    elif args.cmd == "phrase":
        from search_engine_ray.query.engine import SearchEngine

        eng = SearchEngine(args.index_dir)
        # phrase terms are matched as engine tokens: normalize each the
        # same way queries are
        terms = [t for arg in args.terms
                 for t in eng.parser.parse_sentence(arg)[0]]
        if args.window > 0:
            if len(terms) < 2:
                ap.error("--window needs two terms that survive "
                         "normalization (stopwords are dropped)")
            docs, gaps = eng.proximity_docs(terms[0], terms[1],
                                            window=args.window)
            for d, g in zip(docs, gaps):
                print(f"doc id: {d}, min gap: {g}")
        else:
            for d in eng.phrase_docs(terms):
                print(f"doc id: {d}")
    elif args.cmd == "lookup":
        from search_engine_ray.index import manifest as _mf
        from search_engine_ray.ops.fulltext import (
            fuzzy_terms_index,
            prefix_search_index,
        )

        # fail loudly on a wrong path (a legitimately empty index still
        # has a manifest; zero dict files then mean zero results)
        _mf.read_manifest(args.index_dir)
        if args.prefix is not None:
            t = prefix_search_index(args.index_dir, args.prefix)
            for term, df in zip(t.column("term").to_pylist(),
                                t.column("df").to_pylist()):
                print(f"{term}\t{df}")
        elif args.complete is not None:
            from search_engine_ray.ops.fulltext import autocomplete_index

            t = autocomplete_index(args.index_dir, [args.complete],
                                   k=args.k)
            for rank, term, df in zip(t.column("rank").to_pylist(),
                                      t.column("term").to_pylist(),
                                      t.column("df").to_pylist()):
                print(f"{rank}\t{term}\t{df}")
        else:
            t = fuzzy_terms_index(args.index_dir, args.fuzzy)
            for term, dist, df in zip(t.column("term").to_pylist(),
                                      t.column("dist").to_pylist(),
                                      t.column("df").to_pylist()):
                print(f"{term}\t{dist}\t{df}")
    elif args.cmd == "grep":
        from search_engine_ray.ops import substring as _ss

        fn = ((_ss.regex_scan if args.scan else _ss.regex_search)
              if args.regex else
              (_ss.substring_scan if args.scan else _ss.substring_search))
        for d in fn(args.corpus_dir, args.pattern).column(
                "doc_id").to_pylist():
            print(f"doc id: {d}")
    elif args.cmd == "delete":
        from search_engine_ray.index.merge import delete_docs

        with open(args.ids_file) as f:
            ids = [int(line) for line in f if line.strip()]
        man = delete_docs(args.index_dir, ids, args.out_dir)
        print(json.dumps({"n_docs": man["n_docs"],
                          "deleted_ids": man["counters"]["deleted_ids"],
                          "out": args.out_dir}))
    elif args.cmd == "fsck":
        from search_engine_ray.index.fsck import check_index

        rep = check_index(args.index_dir,
                          sample_terms=args.sample_terms)
        bad = 0
        for c, st, d in zip(rep.column("check").to_pylist(),
                            rep.column("status").to_pylist(),
                            rep.column("detail").to_pylist()):
            print(f"{st:4s}  {c}: {d}")
            bad += st != "ok"
        return 1 if bad else 0
    elif args.cmd == "merge":
        from search_engine_ray.index.merge import merge_indexes

        if len(args.index_dirs) < 3:
            ap.error("merge needs >=2 source index dirs plus an output dir")
        man = merge_indexes(args.index_dirs[:-1], args.index_dirs[-1])
        print(json.dumps({"n_docs": man["n_docs"],
                          "merged_indexes":
                              man["counters"]["merged_indexes"],
                          "out": args.index_dirs[-1]}))
    elif args.cmd == "batch":
        from search_engine_ray.query.batch import (
            read_queries_file,
            search_many,
            write_results_csv,
        )
        from search_engine_ray.query.distributed import DistributedSearchEngine

        eng = DistributedSearchEngine(args.index_dir)
        qs = read_queries_file(args.queries_file)
        table = search_many(eng, qs, k=args.k, mode=args.mode)
        if args.snippets_from:
            from search_engine_ray.ops.fulltext import attach_snippets

            table = attach_snippets(args.index_dir, args.snippets_from,
                                    table, qs)
        write_results_csv(table, args.out_csv)
        print(json.dumps({"queries": len(set(table.column('query_id')
                                             .to_pylist())),
                          "rows": table.num_rows, "csv": args.out_csv}))
    if owns_ray:
        import ray

        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
