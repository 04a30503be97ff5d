"""nrt: writes beside reads through NrtSearchEngine.

Set-up (repeated SETUP_REPS times; the median counts, plus one Ray start
and stop): generate and write the base corpus, build it with the
delta-stable config (tokenizer="simple", prune_df1=False, under which NRT
answers equal a rebuild), build the docmeta sidecar; after Ray is shut
down, open an NrtSearchEngine and warm it.  The pages to add are seeded
too, with doc identities disjoint from the base.
Timed: cycles until --seconds have passed.  A cycle opens
OPENS_PER_CYCLE fresh NrtSearchEngine instances over the base (timed, for
``open_ms``), prefetches the base postings its queries need with the
last one (untimed), then ADDS times adds a batch of BATCH pages and runs
SEARCHES BM25 queries; the segment grows to ADDS * BATCH docs through
the cycle, and the first search after each add pays the segment's
re-finalization.  Every cycle adds the same batches and issues the same
queries, so each add and search is repeated once per cycle.
"""

from __future__ import annotations

import numpy as np

import layers
from common import (SETUP_REPS, UNSEEN_START, BuiltIndex, best_p50,
                    engine_config, gen_corpus, median, now, page_rows, pct,
                    same_answer, workload_seed)
from streams import query_stream

BATCH = 20
ADDS = 25
SEARCHES = 8
OPENS_PER_CYCLE = 3   # timed NrtSearchEngine() opens; the last one is used
ORACLE_SAMPLE = 40


def _cycles(index, batches, stream, seconds, tracer):
    """Run whole cycles until ``seconds`` pass.  In a traced run every
    other cycle's engines are instrumented, so traced and untraced cycles
    share the host's windows.  Returns per-add (seconds, docs), search
    latencies (s) as {(traced, first search after an add): [...]}, every
    add's and every search's latencies over the cycles, engine open
    times, the number of cycles and the last cycle's engine."""
    from search_engine_ray.query.nrt import NrtSearchEngine

    adds, opens = [], []
    lat = {(t, f): [] for t in (False, True) for f in (False, True)}
    qs = stream[:ADDS * SEARCHES]
    add_times = [[] for _ in batches]
    search_times = [[] for _ in qs]
    deadline = now() + seconds
    c = 0
    nrt = None
    while c == 0 or now() < deadline:
        traced = tracer.enabled and c % 2 == 1
        for _ in range(OPENS_PER_CYCLE):
            t0 = now()
            if traced:
                nrt = tracer.call("NrtSearchEngine()", NrtSearchEngine, index)
            else:
                nrt = NrtSearchEngine(index)
            opens.append(now() - t0)
        nrt.base.prefetch([t for q in qs
                           for t in nrt.base.parser.parse_sentence(q)[0]])
        if traced:
            tracer.instrument_nrt(nrt)
        for a, batch in enumerate(batches):
            t0 = now()
            added = nrt.add_pages(batch)
            dt = now() - t0
            adds.append((dt, added))
            add_times[a].append(dt)
            for s in range(SEARCHES):
                j = a * SEARCHES + s
                t0 = now()
                nrt.search(qs[j], k=10)
                dt = now() - t0
                lat[traced, s == 0].append(dt)
                search_times[j].append(dt)
        c += 1
    return adds, lat, add_times, search_times, opens, c, nrt


def run(r) -> dict:
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.nrt import NrtSearchEngine

    tr = r.tracer
    cfg = engine_config(tokenizer="simple", prune_df1=False)
    seed = workload_seed(r.seed, "nrt")
    tr.install()

    # ---- set-up
    built = BuiltIndex(r, cfg, seed)
    index = built.index
    warm_s = []
    for _ in range(SETUP_REPS):
        t0 = now()
        nrt = tr.call("NrtSearchEngine()", NrtSearchEngine, index)
        stream = query_stream(nrt.base.df_map,
                              np.random.default_rng([seed, 1]), 4096)
        add_rows = page_rows(gen_corpus(seed + 202, n=BATCH * ADDS,
                                        start=UNSEEN_START))
        batches = [add_rows[j:j + BATCH]
                   for j in range(0, len(add_rows), BATCH)]
        warm_s.append(now() - t0)
    setup_s = built.setup_s + median(warm_s)

    # ---- timed
    adds, lat, add_times, search_times, opens, cycles, nrt = _cycles(
        index, batches, stream, r.seconds, tr)
    searches = [x * 1000 for v in lat.values() for x in v]
    r.attempted += len(adds) + len(searches) + len(opens)

    # ---- correctness (outside set-up and timing): the last cycle's
    # engine holds base + every batch, like a rebuild over both
    tr.close()   # the checks below are not traffic
    short = [n for _, n in adds if n != BATCH]
    r.check(not short, f"add_pages parsed fewer than {BATCH}: {short[:5]}")
    base_rows = page_rows(built.tables)
    oracle = OracleIndex(cfg).build(base_rows + add_rows)
    pick = np.random.default_rng([seed, 2]).choice(
        len(stream), size=ORACLE_SAMPLE, replace=False)
    for j in pick:
        q = stream[j]
        r.check(same_answer(nrt.search(q, k=10),
                            oracle.search(q, k=10, mode="bm25")),
                f"nrt bm25 {q!r} vs oracle")

    e2e = {
        "setup_s": setup_s,
        "ingest_docs_per_s": BATCH / best_p50(add_times),
        "index_bytes_per_input_byte": built.bytes_per_input_byte(),
        "search_p50_best_ms": best_p50(search_times) * 1000,
        "search_p50_ms": pct(searches, 50),
        "search_p99_ms": pct(searches, 99),
    }
    info = [
        f"nrt_add_docs_per_s {e2e['ingest_docs_per_s']:.1f} doc/s "
        f"({BATCH} pages over the median of the {ADDS} adds' best of "
        f"{cycles} cycles; median over all {len(adds)} adds "
        f"{median([n / s for s, n in adds]):.1f} doc/s)",
        f"nrt_search_p50_ms {e2e['search_p50_ms']:.4f} ms, "
        f"nrt_search_p99_ms {e2e['search_p99_ms']:.4f} ms "
        f"({len(searches)} searches)",
        f"nrt_search_p50_best_ms {e2e['search_p50_best_ms']:.4f} ms "
        f"(median over {ADDS * SEARCHES} searches of each one's best of "
        f"{cycles} cycles)",
        f"open_ms {median(opens) * 1000:.3f} ms "
        f"(median of {len(opens)} opens)",
    ]
    out = {"e2e": e2e, "info": info, "ray_start_s": built.ray_start_s}
    if tr.enabled:
        out["layers"] = layers.collect(
            r, manifests=built.manifests, index_dir=index, rows=base_rows,
            cfg=cfg,
            bm25_queries=stream, wand_queries=None,
            segment_docs=nrt.segment_docs,
            overhead_pct=100.0 * (median(lat[True, False] + lat[True, True])
                                  / median(lat[False, False]
                                           + lat[False, True]) - 1.0))
    return out
