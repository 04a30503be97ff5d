"""build: index a seeded corpus through the Ray build several times, then
open the index cold many times.

Set-up: start a Ray session sized to the host, generate and write the
corpus (repeated SETUP_REPS times; the median counts) and run one small
warm-up build so the timed builds do not pay worker start-up.
Timed: builds until BUILD_SHARE of --seconds has passed (at least
MIN_BUILDS); Ray is then shut down, the docmeta sidecar is built once,
and for the rest of --seconds a fixed set of BURSTS bursts is answered
in passes: each burst is BURST BM25 queries that share no term, answered
by a fresh SearchEngine, so every posting comes off parquet.  Every
query is thus repeated once per pass, each time cold.
"""

from __future__ import annotations

import shutil

import numpy as np

import layers
from common import (PAGES, SETUP_REPS, RaySession, best_p50, dir_bytes,
                    engine_config, gen_corpus, index_bytes, median, now,
                    page_rows, pct, same_answer, warmup_build, workload_seed,
                    write_corpus)
from streams import cold_bursts

BUILD_SHARE = 0.5
MIN_BUILDS = 3
BURSTS = 16
BURST = 16
ORACLE_SAMPLE = 40


def _cold_phase(index, bursts, seconds, tracer):
    """Go round ``bursts`` in passes until ``seconds`` pass (at least one
    pass), opening a fresh engine per burst.  In a traced run every other
    burst's engine is instrumented, so traced and untraced bursts share
    the host's windows.  Returns open times, per-query latencies (s) of
    the untraced and of the traced bursts, every query's latencies over
    the passes, and the first pass's (query, answer) pairs."""
    from search_engine_ray.query.engine import SearchEngine

    opens, lat, answers = [], ([], []), []
    times = [[[] for _ in b] for b in bursts]
    deadline = now() + seconds
    n = 0
    while n < len(bursts) or now() < deadline:
        b = n % len(bursts)
        traced = tracer.enabled and n % 2 == 1
        t0 = now()
        if traced:
            eng = tracer.call("SearchEngine()", SearchEngine, index)
            tracer.instrument_engine(eng)
        else:
            eng = SearchEngine(index)
        opens.append(now() - t0)
        for j, q in enumerate(bursts[b]):
            t0 = now()
            res = eng.search(q, k=10, mode="bm25")
            dt = now() - t0
            lat[traced].append(dt)
            times[b][j].append(dt)
            if n < len(bursts):
                answers.append((q, res))
        n += 1
    return opens, lat, times, answers


def run(r) -> dict:
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.build import build_index
    from search_engine_ray.index.fsck import check_index
    from search_engine_ray.oracle import OracleIndex
    from search_engine_ray.query.engine import warm_docmeta_sidecar

    tr = r.tracer
    cfg = engine_config()
    seed = workload_seed(r.seed, "build")
    tr.install()
    ray = RaySession()
    try:
        # ---- set-up
        ray.start()
        gen_s = []
        for _ in range(SETUP_REPS):
            t0 = now()
            tables = gen_corpus(seed)
            pages = write_corpus(tables, r.path("pages"))
            gen_s.append(now() - t0)
        warm_s = warmup_build(r, cfg, seed + 101)
        setup_s = ray.start_s + median(gen_s) + warm_s

        # ---- timed: builds
        deadline = now() + BUILD_SHARE * r.seconds
        rates, manifests, index = [], [], None
        while len(rates) < MIN_BUILDS or now() < deadline:
            out = r.path(f"index{len(rates)}")
            t0 = now()
            man = tr.call("build_index", build_index, pages, out, cfg)
            rates.append(man["n_docs"] / (now() - t0))
            manifests.append(man)
            r.attempted += 1
            if index:
                shutil.rmtree(index)
            index = out
    finally:
        ray.stop()

    # ---- timed: cold opens + bursts
    tr.call("warm_docmeta_sidecar", warm_docmeta_sidecar, index)
    rng = np.random.default_rng([seed, 1])
    bursts = cold_bursts(mf.load_df_map(index), rng, BURSTS, BURST)
    opens, (lat0, lat1), times, answers = _cold_phase(
        index, bursts, (1 - BUILD_SHARE) * r.seconds, tr)
    lat = lat0 + lat1
    r.attempted += len(lat)

    # ---- correctness (outside set-up and timing)
    tr.close()   # the checks below are not traffic
    fsck = check_index(index)
    bad = [c for c, s in zip(fsck.column("check").to_pylist(),
                             fsck.column("status").to_pylist()) if s != "ok"]
    r.check(not bad, f"fsck: {bad}")
    n_docs = manifests[-1]["n_docs"]
    r.check(n_docs == PAGES, f"manifest n_docs {n_docs} != {PAGES}")
    rows = page_rows(tables)
    oracle = OracleIndex(cfg).build(rows)
    pick = np.random.default_rng([seed, 2]).choice(
        len(answers), size=min(ORACLE_SAMPLE, len(answers)), replace=False)
    for i in pick:
        q, res = answers[i]
        r.check(same_answer(res, oracle.search(q, k=10, mode="bm25")),
                f"cold bm25 {q!r}")

    ib = index_bytes(index)
    e2e = {
        "setup_s": setup_s,
        "ingest_docs_per_s": median(rates),
        "index_bytes_per_input_byte": sum(ib.values()) / dir_bytes(pages),
        "search_p50_best_ms": best_p50([t for b in times for t in b]) * 1000,
        "search_p50_ms": pct(lat, 50) * 1000,
        "search_p99_ms": pct(lat, 99) * 1000,
    }
    info = [
        f"build_docs_per_s {e2e['ingest_docs_per_s']:.1f} doc/s "
        f"(median of {len(rates)} builds of {n_docs} docs)",
        f"open_ms {median(opens) * 1000:.3f} ms "
        f"(median of {len(opens)} opens)",
        f"cold_query_p50_ms {e2e['search_p50_ms']:.3f} ms, "
        f"p99 {e2e['search_p99_ms']:.3f} ms ({len(lat)} queries)",
        f"cold_query_p50_best_ms {e2e['search_p50_best_ms']:.3f} ms "
        f"(median over {BURSTS * BURST} queries of each one's best of "
        f"{len(opens) // BURSTS}-{-(-len(opens) // BURSTS)} passes)",
        f"index_bytes_per_input_byte "
        f"{e2e['index_bytes_per_input_byte']:.6f} ratio (exact)",
    ]
    out = {"e2e": e2e, "info": info, "ray_start_s": ray.start_s}
    if tr.enabled:
        out["layers"] = layers.collect(
            r, manifests=manifests, index_dir=index, rows=rows, cfg=cfg,
            bm25_queries=[q for q, _ in answers], wand_queries=None,
            segment_docs=None,
            overhead_pct=100.0 * (median(lat1) / median(lat0) - 1.0))
    return out
