"""Near-real-time (NRT) serving: make newly-added docs searchable
IMMEDIATELY, without a rebuild or merge.

``NrtSearchEngine`` wraps a built on-disk index (`SearchEngine`) plus an
in-memory delta segment (an `OracleIndex` accumulator — the same trusted
token/dict derivation the build pipeline is conformance-tested against,
oracle.py).  ``add_pages`` parses into the segment; ``search`` scores
base+segment candidates with COMBINED corpus statistics (n_docs, sum of
doc lengths, per-term df), so a doc's BM25 score — and therefore the
ranking — is exactly what a full rebuild over base+delta would produce.
The public model is Lucene's NRT reader (IndexWriter.getReader); the
reference has no NRT path at all — it rebuilds per run
(/root/reference/search_engine.py:29-72).

Exact-rebuild parity holds when the dict verdicts are delta-stable:
tokenizer="simple"-class configs (no capitals/entity rules reachable)
with prune_df1=False — gated by tests/test_round5_ops.py against a real
rebuild.  Under the full reference config the segment applies
capitals/entity rules segment-locally and the df==1 prune on the
COMBINED df, so NRT is eventually-consistent until ``flush`` (exactly
Lucene's posture: global decisions re-derive at merge time).

Cost model.  An add is a duplicate check (one vectorized docmeta
lookup per batch) plus the parse and the accumulator's dict appends; no
GloVe centroid is built (only the oracle's reference scorer reads one,
on first use).  The first search after an add refreshes the segment: one
dict-rules pass over the segment's terms and the sorted (doc id, ts)
arrays, O(segment terms + segment docs), with no posting conversion; it
is all a refresh keeps, so its state is bounded by the segment.  A
search converts and scores only the terms it touches: each touched
term's segment postings are converted and joined to its base postings
(read through the engine's bounded posting cache) on every search, so
each term is two doc-sorted runs, base then segment.  The terms are
joined by ``SearchEngine``'s union kernel (``union_scores``, which
merges the runs with a stable sort and sums in query-term order), and
candidates are pruned by score before the ts gather, as in
``SearchEngine``'s TAAT path.

At cluster scale the segment is per-ingest-actor state (the same
placement as ST4's accumulators-turned-shuffles): deltas stay small
because ``flush`` periodically persists them through the build's own
spill+reduce via index/merge.py (no re-parse of the base corpus).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from search_engine_ray.ids import doc_id_for_url
from search_engine_ray.index import manifest as mf
from search_engine_ray.index.encoding import tf_norm
from search_engine_ray.oracle import OracleIndex
from search_engine_ray.query.engine import (SearchEngine, _topk_by_score,
                                           union_scores)


class _Segment(NamedTuple):
    """One refresh of the segment, valid until the next add."""
    terms: dict          # final term -> orig accumulator term (rules pass)
    ids: np.ndarray      # segment doc ids, sorted
    ts: np.ndarray       # their ts, aligned with ``ids``


class NrtSearchEngine:
    def __init__(self, out_dir: str):
        self.base = SearchEngine(out_dir)
        self.out_dir = out_dir
        man = mf.read_manifest(out_dir)
        # integer sum from the manifest — reconstructing it as
        # avg*n would be off by an ulp and break exact rebuild parity
        self._base_sum_dl = int(man["sum_doc_length"])
        self._raw = OracleIndex(self.base.cfg)
        self._pages: list[tuple[str, int, str]] = []
        self._view: _Segment | None = None

    # ------------------------------------------------------------ ingest
    @property
    def n_docs(self) -> int:
        return self.base.n_docs + self._raw.n_docs

    @property
    def segment_docs(self) -> int:
        return self._raw.n_docs

    def add_pages(self, pages) -> int:
        """Add documents; returns how many parsed (visible to the very
        next ``search``).  ``pages``: iterable of (url, warc_ts_us,
        text) or a pages Arrow table (url/warc_ts/text columns).  A url
        already present in the base index or the segment is rejected —
        an update is delete+add, exactly as in the reference's
        id-keyed world (and Lucene's updateDocument)."""
        import pyarrow as pa

        if isinstance(pages, pa.Table):
            pages = zip(pages.column("url").to_pylist(),
                        [x.value for x in pages.column("warc_ts")],
                        pages.column("text").to_pylist())
        # validate the WHOLE batch before mutating anything: a dup-url
        # reject must leave the engine exactly as it was (no
        # half-applied batch, no stale cached view)
        batch = [(url, int(ts), text) for url, ts, text in pages]
        dids = [doc_id_for_url(url) for url, _ts, _text in batch]
        _pos, in_base = self.base._meta_for(np.array(dids, np.int64))
        seen: set[int] = set()
        for (url, _ts, _text), did, dup in zip(batch, dids,
                                               in_base.tolist()):
            if dup or did in self._raw.doc_ts or did in seen:
                raise ValueError(f"url already indexed: {url!r}")
            seen.add(did)
        added = 0
        try:
            for url, ts, text in batch:
                if self._raw.add_page(url, ts, text):
                    self._pages.append((url, ts, text))
                    added += 1
        finally:
            self._view = None
        return added

    # ----------------------------------------------------------- segment
    def _segment(self) -> _Segment:
        """The segment as of the last add, built on the first search
        after it WITHOUT mutating the accumulator (OracleIndex.finalize
        is one-shot; NRT keeps accepting adds).  Only the dict rules
        pass and the sorted (ids, ts) arrays are built here; a term's
        postings are converted when a query first touches it
        (``_term_contrib``).  Dict rules are applied segment-locally
        except the df==1 prune, which must see the COMBINED df."""
        if self._view is None:
            o = self._raw
            ids = np.fromiter(o.doc_ts.keys(), np.int64, len(o.doc_ts))
            ts = np.fromiter(o.doc_ts.values(), np.int64, len(o.doc_ts))
            order = np.argsort(ids)
            # the oracle's own non-mutating rules pass (prune deferred to
            # the combined df) so the segment can never drift from the
            # build semantics it mirrors
            self._view = _Segment(o.final_terms(prune_df1=False),
                                  ids[order], ts[order])
        return self._view

    def _term_contrib(self, term: str, seg: _Segment):
        """(ids, idf * tf_norm) over base + segment for one final term
        with the COMBINED corpus statistics, or None when a rebuild would
        not index the term."""
        o, cfg = self._raw, self.base.cfg
        orig = seg.terms.get(term)
        df = self.base.df_map.get(term, 0) + (
            o.df[orig] if orig is not None else 0)
        # unknown everywhere, or the rebuild would df==1-prune
        if not df or (cfg.prune_df1 and df < 2):
            return None
        ids, tfs, dls = [], [], []
        bp = self.base.postings(term)
        if bp is not None and len(bp["doc_ids"]):
            ids.append(bp["doc_ids"])
            tfs.append(bp["tfs"])
            dls.append(bp["dls"])
        if orig is not None:
            pl = o.sorted_postings(orig)
            for parts, f in ((ids, 0), (tfs, 4), (dls, 1)):
                parts.append(np.fromiter((p[f] for p in pl), np.int64,
                                         len(pl)))
        if not ids:
            return None
        N = self.n_docs
        avgdl = (self._base_sum_dl + o.sum_dl) / N
        # tf_norm is elementwise, so one call over base+segment gives the
        # per-posting values two separate calls would
        return np.concatenate(ids), math.log10(N / df) * tf_norm(
            np.concatenate(tfs), np.concatenate(dls).astype(np.float64),
            avgdl, cfg.bm25_k1, cfg.bm25_b)

    def _ts_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """ts per doc id: the segment's where it holds the doc, else the
        base docmeta's."""
        ts = self.base._ts_of(doc_ids)
        seg = self._segment()
        if len(seg.ids):
            p = np.minimum(np.searchsorted(seg.ids, doc_ids),
                           len(seg.ids) - 1)
            ts = np.where(seg.ids[p] == doc_ids, seg.ts[p], ts)
        return ts

    # ------------------------------------------------------------ search
    def search(self, query_text: str, k: int = 10, mode: str = "bm25"):
        """BM25 (score, doc_id, ts) top-k over base+segment with
        combined corpus statistics — rank-identical to a rebuild under
        delta-stable dict verdicts (module docstring)."""
        if mode != "bm25":
            raise ValueError("NRT serving supports mode='bm25'")
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.base.parser.parse_sentence(query_text)
        if not query:
            return []
        seg = self._segment()
        terms = list(dict.fromkeys(query))
        # one batched posting read (prefetch skips cached and unknown
        # terms)
        self.base.prefetch(terms)
        parts = [c for c in (self._term_contrib(t, seg) for t in terms)
                 if c is not None]
        if not parts:
            return []
        # each part lists a doc once (base and segment are disjoint), as
        # two doc-sorted runs; a single part's ids stay in that order,
        # which the top-k does not need sorted
        cand, scores = union_scores([p[0] for p in parts],
                                    [p[1] for p in parts])
        return _topk_by_score(scores, cand, k, self._ts_of)

    # ------------------------------------------------------------- flush
    def flush(self, work_dir: str) -> str:
        """Persist the segment through the build's own pipeline and fold
        it into the base via index/merge.py (no re-parse of the base
        corpus); returns the merged index dir.  The engine REPOINTS to
        the merged index and clears the segment, so serving continues
        seamlessly over the same documents (the Lucene NRT-commit
        contract) and flushed urls stay dup-protected.  ``work_dir``
        receives pages/, delta/ and merged/ subdirs."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from search_engine_ray.index.build import build_index
        from search_engine_ray.index.merge import merge_indexes
        from search_engine_ray.text.extract import wrap_html

        if not self._pages:
            return self.out_dir
        pages_dir = os.path.join(work_dir, "pages")
        delta_dir = os.path.join(work_dir, "delta")
        merged_dir = os.path.join(work_dir, "merged")
        os.makedirs(pages_dir, exist_ok=True)
        urls, tss, texts = zip(*self._pages)
        pq.write_table(pa.table({
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(list(tss), pa.timestamp("us")),
            # the parse stage extracts from html (input_hint contract);
            # the F1 wrap is its byte-identical inverse
            "html": pa.array([wrap_html(t, "seg") for t in texts],
                             pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(urls), pa.string()),
        }), os.path.join(pages_dir, "segment.parquet"))
        build_index(pages_dir, delta_dir, self.base.cfg)
        merge_indexes([self.out_dir, delta_dir], merged_dir)
        self.base = SearchEngine(merged_dir)
        self.out_dir = merged_dir
        self._base_sum_dl = int(
            mf.read_manifest(merged_dir)["sum_doc_length"])
        self._raw = OracleIndex(self.base.cfg)
        self._pages = []
        self._view = None
        return merged_dir
