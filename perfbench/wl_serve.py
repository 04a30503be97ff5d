"""serve: warm, read-only search from one closed-loop client.

Set-up (repeated SETUP_REPS times; the median counts, plus one Ray start
and stop): generate and write the corpus, build it with Ray, build the
docmeta sidecar; after Ray is shut down, open the engine, draw the query
stream and prefetch every stream term, so the timed loop reads no
parquet.
Timed: the stream in order, pass after pass, for --seconds, one query
at a time; mode ``reference`` at position 7 and ``bm25_wand`` at
position 17 of every 20, ``bm25`` elsewhere, so a query keeps its mode
in every pass; every OPEN_EVERY seconds a fresh engine is opened
instead, for ``open_ms``.
"""

from __future__ import annotations

import numpy as np

import layers
from common import (SETUP_REPS, BuiltIndex, best_p50, engine_config, median,
                    now, page_rows, pct, same_answer, workload_seed)
from streams import query_stream

STREAM = 2000      # a multiple of the 20-query mode cycle
MODE_CYCLE = {7: "reference", 17: "bm25_wand"}   # position % 20 -> mode
OPEN_EVERY = 0.4   # seconds of the timed loop between two timed opens
CHUNK = 256        # traced runs: queries per traced or untraced chunk
ORACLE_SAMPLE = 40
MODES = ("bm25", "reference", "bm25_wand")


def mode_at(i: int) -> str:
    return MODE_CYCLE.get(i % 20, "bm25")


def _loop(eng, index, stream, seconds, tracer):
    """Issue the stream in order until ``seconds`` pass, one query at a
    time, and time a fresh engine open every OPEN_EVERY seconds, so the
    opens sample the same host windows as the queries.  In a traced run,
    chunks of CHUNK queries alternate between the bare and the
    instrumented engine, so traced and untraced queries share the host's
    windows too.  Returns latencies (s) by (traced, mode), every stream
    position's latencies over the passes, the bm25_wand (query, answer)
    pairs, the open times, the number of queries issued and the number
    that raised."""
    from search_engine_ray.query.engine import SearchEngine

    lat = {(t, m): [] for t in (False, True) for m in MODES}
    times = [[] for _ in stream]
    wand_answers, opens = [], []
    deadline = now() + seconds
    next_open = now()
    i = failed = 0
    traced = False
    while True:
        t0 = now()
        if t0 >= deadline:
            break
        if t0 >= next_open:
            if traced:
                tracer.call("SearchEngine()", SearchEngine, index)
            else:
                SearchEngine(index)
            opens.append(now() - t0)
            next_open = t0 + OPEN_EVERY
            continue
        if tracer.enabled and i % CHUNK == 0:
            traced = (i // CHUNK) % 2 == 1
            if traced:
                tracer.instrument_engine(eng)
            else:
                tracer.close()
                tracer.install()
        pos = i % len(stream)
        q = stream[pos]
        mode = mode_at(pos)
        t0 = now()
        try:
            res = eng.search(q, k=10, mode=mode)
        except Exception as e:  # noqa: BLE001 - counted, run continues
            failed += 1
            print(f"serve: {mode} {q!r} raised {e!r}")
            res = None
        dt = now() - t0
        lat[traced, mode].append(dt)
        times[pos].append(dt)
        if mode == "bm25_wand" and res is not None:
            wand_answers.append((q, res))
        i += 1
    return lat, times, wand_answers, opens, i, failed


def run(r) -> dict:
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.engine import SearchEngine

    tr = r.tracer
    cfg = engine_config()
    seed = workload_seed(r.seed, "serve")
    tr.install()

    # ---- set-up
    built = BuiltIndex(r, cfg, seed)
    index = built.index
    warm_s = []
    for _ in range(SETUP_REPS):
        t0 = now()
        eng = tr.call("SearchEngine()", SearchEngine, index)
        stream = query_stream(eng.df_map, np.random.default_rng([seed, 1]),
                              STREAM)
        eng.prefetch([t for q in stream
                      for t in eng.parser.parse_sentence(q)[0]])
        for mode in MODES:
            eng.search(stream[0], k=10, mode=mode)
        warm_s.append(now() - t0)
    setup_s = built.setup_s + median(warm_s)

    # ---- timed
    lat, times, wand_answers, opens, n, failed = _loop(eng, index, stream,
                                                       r.seconds, tr)
    r.attempted += n + len(opens)
    r.failed += failed

    # ---- correctness (outside set-up and timing)
    tr.close()   # the checks below are not traffic
    check = SearchEngine(index)
    rows = page_rows(built.tables)
    oracle = OracleIndex(cfg).build(rows)
    issued = stream[:min(n, len(stream))]
    pick = np.random.default_rng([seed, 2]).choice(
        len(issued), size=min(ORACLE_SAMPLE, len(issued)), replace=False)
    for j in pick:
        q = issued[j]
        for mode in ("bm25", "reference"):
            r.check(same_answer(check.search(q, k=10, mode=mode),
                                oracle.search(q, k=10, mode=mode)),
                    f"{mode} {q!r} vs oracle")
    bm25_of: dict = {}
    for q, res in wand_answers:
        if q not in bm25_of:
            bm25_of[q] = check.search(q, k=10, mode="bm25")
        r.check(same_answer(res, bm25_of[q]), f"bm25_wand {q!r} vs bm25")

    ms = {m: [x * 1000 for x in lat[False, m] + lat[True, m]]
          for m in MODES}
    best = {m: best_p50([ts for pos, ts in enumerate(times)
                         if mode_at(pos) == m]) * 1000 for m in MODES}
    passes = f"{n // len(stream)}-{-(-n // len(stream))} passes"
    e2e = {
        "setup_s": setup_s,
        "ingest_docs_per_s": median(built.rates),
        "index_bytes_per_input_byte": built.bytes_per_input_byte(),
        "search_p50_best_ms": best["bm25"],
        "search_p50_ms": pct(ms["bm25"], 50),
        "search_p99_ms": pct(ms["bm25"], 99),
    }
    info = [
        f"bm25_p50_ms {e2e['search_p50_ms']:.4f} ms, bm25_p99_ms "
        f"{e2e['search_p99_ms']:.4f} ms ({len(ms['bm25'])} queries)",
        f"reference_p50_ms {pct(ms['reference'], 50):.4f} ms "
        f"({len(ms['reference'])} queries)",
        f"wand_p50_ms {pct(ms['bm25_wand'], 50):.4f} ms "
        f"({len(ms['bm25_wand'])} queries)",
    ] + [
        f"{m}_p50_best_ms {best[m]:.4f} ms (median over the stream's "
        f"{m} queries of each one's best of {passes})" for m in MODES
    ] + [
        f"open_ms {median(opens) * 1000:.3f} ms "
        f"(median of {len(opens)} opens)",
        f"build_docs_per_s {e2e['ingest_docs_per_s']:.1f} doc/s "
        f"(median of {len(built.rates)} set-up builds)",
    ]
    out = {"e2e": e2e, "info": info, "ray_start_s": built.ray_start_s}
    if tr.enabled:
        out["layers"] = layers.collect(
            r, manifests=built.manifests, index_dir=index, rows=rows, cfg=cfg,
            bm25_queries=[stream[j % len(stream)] for j in range(n)
                          if mode_at(j) == "bm25"],
            wand_queries=[q for q, _ in wand_answers], segment_docs=None,
            overhead_pct=100.0 * (median(lat[True, "bm25"])
                                  / median(lat[False, "bm25"]) - 1.0))
    return out
