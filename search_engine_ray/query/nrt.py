"""Near-real-time (NRT) serving: make newly-added docs searchable
IMMEDIATELY, without a rebuild or merge.

``NrtSearchEngine`` wraps a built on-disk index (`SearchEngine`) plus an
in-memory delta segment (``Segment``: columnar postings and the dict-rule
state the reference's merge reads).  ``add_pages`` parses into the
segment; ``search`` scores base+segment candidates with COMBINED corpus
statistics (n_docs, sum of doc lengths, per-term df), so a doc's BM25
score — and therefore the ranking — is exactly what a full rebuild over
base+delta would produce.  The public model is Lucene's NRT reader
(IndexWriter.getReader); the reference has no NRT path at all — it
rebuilds per run (the reference's search_engine.py:29-72).

Exact-rebuild parity holds when the dict verdicts are delta-stable:
tokenizer="simple"-class configs (no capitals/entity rules reachable)
with prune_df1=False — gated by tests/test_round5_ops.py against a real
rebuild.  Under the full reference config the segment applies
capitals/entity rules segment-locally and the df==1 prune on the
COMBINED df, so NRT is eventually-consistent until ``flush`` (exactly
Lucene's posture: global decisions re-derive at merge time).

Cost model.
- Add: a duplicate check (one vectorized docmeta lookup per batch and a
  set probe per doc), the parse, then the batch goes in as arrays.  One
  ``vocab.setdefault`` pass maps its terms to segment term ids, one
  ``bincount`` adds them to ``df``, and one ``lexsort`` makes the batch
  a single (term, doc)-sorted run.  Capitals verdicts (AND over docs)
  and entity counts merge per doc, as the reference's accumulator does.
  No per-posting Python object is kept.
- Refresh (the first search after an add): the pending runs merge into
  the consolidated columns with one stable argsort on term id (timsort
  merges the runs), then the CSR offsets and the sorted (doc id, ts)
  arrays are rebuilt; O(segment postings), with no vocabulary-wide rules
  pass.  The refresh's view is all a search reads, so its state is
  bounded by the segment.
- Verdicts: a query term's orig term is resolved at lookup
  (``Segment.orig``, the rules of ``final_terms`` with the df==1 prune
  deferred to the combined df): one ``uppers`` probe and a max over the
  few origs it lists.
- Search: a touched term's segment postings are CSR slices of the
  columns, joined to its base postings (read through the engine's
  bounded posting cache), so each term is the base run plus one
  doc-sorted run per add batch that holds it.  The terms are joined by
  ``SearchEngine``'s union kernel (``union_scores``, which merges the
  runs with a stable sort and sums in query-term order), and candidates
  are pruned by score before the ts gather, as in ``SearchEngine``'s
  TAAT path.

At cluster scale the segment is per-ingest-actor state (the same
placement as ST4's accumulators-turned-shuffles): deltas stay small
because ``flush`` periodically persists them through the build's own
spill+reduce via index/merge.py (no re-parse of the base corpus).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from search_engine_ray.ids import doc_id_for_url
from search_engine_ray.index.encoding import tf_norm
from search_engine_ray.query.engine import (SearchEngine, _topk_by_score,
                                           union_scores)
from search_engine_ray.text.parser import Parser


class _View(NamedTuple):
    """One refresh of the segment, valid until the next add."""
    ids: np.ndarray      # segment doc ids, sorted
    ts: np.ndarray       # their ts, aligned with ``ids``
    off: np.ndarray      # CSR: term id t's postings are [off[t], off[t+1])
    doc: np.ndarray      # posting doc ids, by term id, then add batch
    tf: np.ndarray       # posting tfs, aligned with ``doc``
    dl: np.ndarray       # posting doc lengths, aligned with ``doc``


_NO_COLS = (np.zeros(0, np.int32), np.zeros(0, np.int64),
            np.zeros(0, np.int32), np.zeros(0, np.int32),
            np.zeros(0, np.int64), np.zeros(0, np.int64))


class Segment:
    """The in-memory delta: columnar postings (term id, doc id, tf, doc
    length), per-doc (doc id, ts) and the state the reference's merge
    rules read (capitals verdicts, entity counts; indexer.py:156-169)."""

    def __init__(self, cfg):
        # its own parser: the base engine's serves queries only
        self.parser = Parser.from_config(cfg)
        self.vocab: dict[str, int] = {}       # orig term -> term id
        self.df = np.zeros(0, np.int64)       # per term id
        self.caps: dict[str, bool] = {}       # AND of the docs' flags
        self.uppers: dict[str, list[str]] = {}  # upper -> origs caps-True
        self.entities = Counter()
        self.doc_ids: set[int] = set()
        self.sum_dl = 0
        # consolidated (tid, doc, tf, dl, ids, ts) and the pending runs
        # added since the last refresh, one per batch
        self._cols = _NO_COLS
        self._runs: list[tuple] = []
        self._view: _View | None = None

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def add(self, docs) -> None:
        """Append ``docs``, a list of (doc id, ts, ParsedDoc), as one
        (term, doc)-sorted run."""
        if not docs:
            return
        caps, uppers = self.caps, self.uppers
        terms, tfs, counts, dls = [], [], [], []
        for _did, _ts, d in docs:
            for term, cap in d.capitals.items():
                if term not in caps:
                    caps[term] = cap
                    if cap:
                        uppers.setdefault(term.upper(), []).append(term)
                elif not cap:
                    caps[term] = False
            self.entities.update(d.entities)
            terms.extend(d.term_tfs)
            tfs.extend(d.term_tfs.values())
            counts.append(len(d.term_tfs))
            dls.append(d.doc_length)
        vocab = self.vocab
        tid = np.array([vocab.setdefault(t, len(vocab)) for t in terms],
                       np.int32)
        df = np.bincount(tid, minlength=len(vocab))
        df[:len(self.df)] += self.df
        self.df = df
        ids = np.array([did for did, _ts, _d in docs], np.int64)
        ts = np.array([t for _did, t, _d in docs], np.int64)
        doc = np.repeat(ids, counts)
        dl = np.repeat(np.array(dls, np.int32), counts)
        o = np.lexsort((doc, tid))
        self._runs.append((tid[o], doc[o], np.array(tfs, np.int32)[o],
                           dl[o], ids, ts))
        self.doc_ids.update(ids.tolist())
        self.sum_dl += sum(dls)
        self._view = None

    def view(self) -> _View:
        """The segment as of the last add: built on the first call after
        it, by merging the pending runs into the consolidated columns."""
        if self._view is None:
            if self._runs:
                cols = [np.concatenate(c)
                        for c in zip(self._cols, *self._runs)]
                o = cols[0].argsort(kind="stable")
                cols[:4] = [c[o] for c in cols[:4]]
                o = cols[4].argsort()
                cols[4:] = [c[o] for c in cols[4:]]
                self._cols, self._runs = tuple(cols), []
            tid, doc, tf, dl, ids, ts = self._cols
            off = np.zeros(len(self.vocab) + 1, np.int64)
            np.cumsum(np.bincount(tid, minlength=len(self.vocab)),
                      out=off[1:])
            self._view = _View(ids, ts, off, doc, tf, dl)
        return self._view

    def orig(self, term: str) -> str | None:
        """The orig term whose postings and df the final ``term`` carries
        (``OracleIndex.final_terms(prune_df1=False)``, one term at a
        time): the greatest live orig (in ``vocab``, not entity-pruned)
        that is ``term`` with a False capitals verdict, or whose upper is
        ``term`` with a True one.  A verdict only flips True->False, so
        ``uppers`` (appended when an orig first enters ``caps`` as True)
        holds every orig that can rewrite to ``term``."""
        caps, ents = self.caps, self.entities
        cands = [o for o in self.uppers.get(term, ()) if caps[o]]
        if not caps.get(term, False):
            cands.append(term)
        return max((o for o in cands if o in self.vocab
                    and not (o in ents and ents[o] < 2)), default=None)

    def postings(self, term: str):
        """(df, doc ids, tfs, doc lengths) of a final term in the
        segment, or None; the arrays are slices of the view's columns."""
        o = self.orig(term)
        if o is None:
            return None
        v, tid = self.view(), self.vocab[o]
        a, z = v.off[tid], v.off[tid + 1]
        return int(self.df[tid]), v.doc[a:z], v.tf[a:z], v.dl[a:z]


class NrtSearchEngine:
    def __init__(self, out_dir: str):
        self.base = SearchEngine(out_dir)
        self.out_dir = out_dir
        self._seg = Segment(self.base.cfg)
        self._pages: list[tuple[str, int, str]] = []

    # ------------------------------------------------------------ ingest
    @property
    def n_docs(self) -> int:
        return self.base.n_docs + self._seg.n_docs

    @property
    def segment_docs(self) -> int:
        return self._seg.n_docs

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
                        pages.column("warc_ts").cast(pa.int64()).to_pylist(),
                        pages.column("text").to_pylist())
        # validate and parse the WHOLE batch before mutating anything: a
        # dup-url reject must leave the engine exactly as it was (no
        # half-applied batch, no stale cached view)
        batch = [(url, int(ts), text) for url, ts, text in pages]
        dids = [doc_id_for_url(url) for url, _ts, _text in batch]
        _pos, in_base = self.base._meta_for(np.array(dids, np.int64))
        seen: set[int] = set()
        for (url, _ts, _text), did, dup in zip(batch, dids,
                                               in_base.tolist()):
            if dup or did in self._seg.doc_ids or did in seen:
                raise ValueError(f"url already indexed: {url!r}")
            seen.add(did)
        parse = self._seg.parser.parse_page
        docs, kept = [], []
        for (url, ts, text), did in zip(batch, dids):
            d = parse(url, text)
            if d is not None:
                docs.append((did, ts, d))
                kept.append((url, ts, text))
        self._seg.add(docs)
        self._pages += kept
        return len(docs)

    # ----------------------------------------------------------- segment
    def _segment(self) -> _View:
        return self._seg.view()

    def _term_contrib(self, term: str):
        """(ids, idf * tf_norm) over base + segment for one final term
        with the COMBINED corpus statistics, or None when a rebuild would
        not index the term."""
        seg, cfg = self._seg, self.base.cfg
        sp = seg.postings(term)
        df = self.base.df_map.get(term, 0) + (sp[0] if sp else 0)
        # unknown everywhere, or the rebuild would df==1-prune
        if not df or (cfg.prune_df1 and df < 2):
            return None
        ids, tfs, dls = [], [], []
        bp = self.base.postings(term)
        if bp is not None and len(bp["doc_ids"]):
            ids.append(bp["doc_ids"])
            tfs.append(bp["tfs"])
            dls.append(bp["dls"])
        if sp is not None:
            ids.append(sp[1])
            tfs.append(sp[2])
            dls.append(sp[3])
        if not ids:
            return None
        N = self.n_docs
        avgdl = (self.base.sum_doc_length + seg.sum_dl) / N
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
        terms = list(dict.fromkeys(query))
        # one batched posting read (prefetch skips cached and unknown
        # terms)
        self.base.prefetch(terms)
        parts = [c for c in map(self._term_contrib, terms) if c is not None]
        if not parts:
            return []
        # each part lists a doc once (base and segment are disjoint), as
        # doc-sorted runs (base, then one per add batch); a single
        # part's ids stay in that order, which the top-k does not need
        # sorted
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
        self._seg = Segment(self.base.cfg)
        self._pages = []
        return merged_dir
