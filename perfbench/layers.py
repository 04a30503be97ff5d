"""Per-layer metrics of a traced run.

Three sources, in order of preference:

1. the workload's own spans (``tracing.Tracer``): query parse, dictionary
   load, engine open, prefetch, scoring self time, NRT add and search;
2. counters the program already records: the build manifest's
   ``counters.stage_seconds`` and the postings stage marker's spill and
   partition counts;
3. probes run after the workload on its own corpus and index: parser
   throughput over a corpus slice, varbyte decode/encode over the index's
   real posting blobs, and - for a layer the workload's traffic does not
   reach - the F3 fixture queries on a warm engine or a short NRT burst.
   ``README.md`` lists which workload takes which metric from a probe.
"""

from __future__ import annotations

import numpy as np

from common import (UNSEEN_START, gen_corpus, index_bytes, median, now,
                    page_rows, stage_counters)
from tracing import SpanIndex, Tracer

MODES = ("bm25", "reference", "bm25_wand")
SCORE_METRIC = {"bm25": "engine.score_bm25_ms",
                "reference": "engine.score_reference_ms",
                "bm25_wand": "engine.score_wand_ms"}
SAMPLE = 200   # traffic queries re-run for candidate and WAND counts


def build_layers(manifests: list[dict], index_dir: str) -> dict:
    """build.* (median over the run's builds) and index.* byte counts."""
    out = {}
    for stage in ("parsed", "spill", "dict", "postings", "docmeta",
                  "docmeta_join_wait"):
        out[f"build.{stage}_s"] = median(
            [m["counters"]["stage_seconds"][stage] for m in manifests])
    pc = stage_counters(index_dir, "postings")
    out["build.spill_bytes"] = pc["spill_total_bytes"]
    out["build.spill_max_partition_bytes"] = pc["spill_max_partition_bytes"]
    out["build.shuffle_partitions"] = pc["shuffle_partitions"]
    for stage, n in index_bytes(index_dir).items():
        out[f"index.{stage}_bytes"] = n
    return out


def parse_probe(rows, cfg, n: int = 1000, reps: int = 3) -> float:
    """Parser.parse_page docs/s over a slice of the corpus."""
    from search_engine_ray.text.parser import Parser

    p = Parser(stemming=cfg.stemming, tokenizer=cfg.tokenizer,
               harvest_page_url=cfg.harvest_page_url,
               raw_tokens=cfg.raw_tokens)
    part = rows[:n]
    rates = []
    for _ in range(reps):
        t0 = now()
        for url, _ts, text in part:
            p.parse_page(url, text)
        rates.append(len(part) / (now() - t0))
    return median(rates)


def encoding_probe(index_dir: str, reps: int = 5) -> tuple[float, float]:
    """varbyte decode and encode MB/s (of encoded bytes) over the index's
    real posting streams: each of the doc-id delta, tf and doc-length
    columns concatenated into one stream, so the figure is the kernel's
    throughput rather than per-call overhead."""
    import pyarrow.dataset as pads

    from search_engine_ray.index import manifest as mf
    from search_engine_ray.index.encoding import (varbyte_decode,
                                                  varbyte_encode)

    t = pads.dataset(mf.stage_dir(index_dir, "postings"),
                     partitioning="hive").to_table(
        columns=["docids_vb", "tf_vb", "dl_vb"])
    streams = [b"".join(c.to_pylist()) for c in t.columns]
    mb = sum(len(b) for b in streams) / 1e6
    dec, enc = [], []
    for _ in range(reps):
        t0 = now()
        vals = [varbyte_decode(b) for b in streams]
        dec.append(mb / (now() - t0))
        t0 = now()
        for v in vals:
            varbyte_encode(v)
        enc.append(mb / (now() - t0))
    return median(dec), median(enc)


def _score_self_ms(ix: SpanIndex, i: int) -> float:
    return ix.dur_ms(i) - ix.child_ms(i, "Parser.parse_sentence") \
        - ix.child_ms(i, "SearchEngine.prefetch")


def _engine_probe(index_dir: str, tracer: Tracer, reps: int = 3) -> None:
    """F3 fixture queries in every mode on a warm, traced engine."""
    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.engine import SearchEngine

    eng = tracer.call("SearchEngine()", SearchEngine, index_dir)
    for mode in MODES:
        for q in gen_queries():
            eng.search(q, k=10, mode=mode)
    tracer.instrument_engine(eng)
    for _ in range(reps):
        for mode in MODES:
            for q in gen_queries():
                eng.search(q, k=10, mode=mode)


def _nrt_probe(index_dir: str, tracer: Tracer, seed: int,
               adds: int = 5, batch: int = 20, searches: int = 4) -> int:
    """A short NRT burst over the workload's index: ``adds`` batches of
    unseen pages, each followed by ``searches`` F3 BM25 queries.
    Returns the segment's size."""
    from search_engine_ray.fixtures import gen_queries
    from search_engine_ray.query.nrt import NrtSearchEngine

    rows = page_rows(gen_corpus(seed, n=adds * batch, start=UNSEEN_START))
    nrt = NrtSearchEngine(index_dir)
    qs = gen_queries()
    nrt.base.prefetch([t for q in qs
                       for t in nrt.base.parser.parse_sentence(q)[0]])
    tracer.instrument_nrt(nrt)
    qi = 0
    for j in range(adds):
        nrt.add_pages(rows[j * batch:(j + 1) * batch])
        for _ in range(searches):
            nrt.search(qs[qi % len(qs)], k=10)
            qi += 1
    return nrt.segment_docs


def _nrt_layers(ix: SpanIndex) -> dict:
    adds = ix.named("NrtSearchEngine.add_pages")
    refresh, steady = [], []
    prev = None
    for i, s in enumerate(ix.spans):
        if s[3] is not None:
            continue
        if s[0] == "NrtSearchEngine.search":
            (refresh if prev == "NrtSearchEngine.add_pages"
             else steady).append(ix.dur_ms(i))
        prev = s[0]
    return {
        "nrt.add_ms_per_doc": median(
            [ix.dur_ms(i) / ix.spans[i][5]["docs"] for i in adds]),
        "nrt.refresh_search_ms": median(refresh),
        "nrt.steady_search_ms": median(steady),
    }


def span_layers(ix: SpanIndex, probe: SpanIndex) -> dict:
    """text.query_parse_us, manifest.*, engine.* (open, prefetch,
    postings decoded, scoring self time) and nrt.* from spans: the
    workload's own where its traffic reaches the layer, else the probe's."""
    out = {}
    roots = [i for i in ix.named("SearchEngine.search")
             + ix.named("NrtSearchEngine.search") if ix.spans[i][3] is None]
    parses = ix.named("Parser.parse_sentence")
    out["text.query_parse_us"] = median(
        [ix.dur_ms(i) * 1000 for i in parses])
    own = ix.named("SearchEngine()") or ix.named("NrtSearchEngine()")
    out["engine.open_ms"] = median([ix.dur_ms(i) for i in own])
    opens = ix.named("SearchEngine()") or probe.named("SearchEngine()")
    src = ix if ix.named("SearchEngine()") else probe
    loads = src.named("load_df_and_orig", "SearchEngine()")
    out["manifest.dict_load_ms"] = median([src.dur_ms(i) for i in loads])
    out["engine.open_self_ms"] = median(
        [src.dur_ms(i) - src.child_ms(i, "load_df_and_orig") for i in opens])
    out["engine.sidecar_build_ms"] = median(
        [ix.dur_ms(i) for i in ix.named("warm_docmeta_sidecar")])
    out["engine.prefetch_ms"] = median(
        [ix.child_ms(i, "SearchEngine.prefetch") for i in roots])
    out["engine.postings_decoded"] = float(np.mean(
        [ix.subtree_count(i, "decoded") for i in roots]))
    for mode, name in SCORE_METRIC.items():
        own = [i for i in ix.named("SearchEngine.search")
               if ix.spans[i][5]["mode"] == mode]
        src = ix if own else probe
        sel = own or [i for i in probe.named("SearchEngine.search")
                      if probe.spans[i][5]["mode"] == mode]
        out[name] = median([_score_self_ms(src, i) for i in sel])
    out.update(_nrt_layers(ix if ix.named("NrtSearchEngine.add_pages")
                           else probe))
    return out


def collect(run, *, manifests, index_dir, rows, cfg, bm25_queries,
            wand_queries, segment_docs, overhead_pct: float) -> dict:
    """Every per-layer metric except host.*, which run.py adds.
    ``segment_docs`` is None when the workload adds no pages; the NRT
    probe then supplies the nrt.* metrics."""
    from search_engine_ray.query.engine import SearchEngine

    run.tracer.close()
    out = build_layers(manifests, index_dir)
    out["text.parse_docs_per_s"] = parse_probe(rows, cfg)
    dec, enc = encoding_probe(index_dir)
    out["encoding.decode_mb_per_s"] = dec
    out["encoding.encode_mb_per_s"] = enc

    probe = Tracer()
    probe.install()
    try:
        _engine_probe(index_dir, probe)
        if segment_docs is None:
            segment_docs = _nrt_probe(index_dir, probe, run.seed)
    finally:
        probe.close()
    out.update(span_layers(SpanIndex(run.tracer.spans),
                           SpanIndex(probe.spans)))

    eng = SearchEngine(index_dir)
    out["manifest.dict_terms"] = len(eng.df_map)
    sample = bm25_queries[:SAMPLE]
    out["engine.candidates_per_query"] = float(np.mean(
        [eng.match_counts(q)["n_or"] for q in sample]))
    if not wand_queries:
        from search_engine_ray.fixtures import gen_queries

        wand_queries = gen_queries()
    tot = {"postings_total": 0, "full_evals": 0, "bm_skips": 0}
    for q in wand_queries[:SAMPLE]:
        _, st = eng.search_explain(q, k=10)
        for key in tot:
            tot[key] += st.get(key, 0)
    out["wand.eval_ratio"] = tot["full_evals"] / tot["postings_total"]
    out["wand.bm_skip_ratio"] = tot["bm_skips"] / tot["postings_total"]
    out["nrt.segment_docs"] = segment_docs
    out["trace.overhead_pct"] = overhead_pct
    return out
