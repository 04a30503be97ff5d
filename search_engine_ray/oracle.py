"""Single-process oracle: the reference's semantics, reimplemented plainly.

This is the test ground truth (SURVEY.md §5.1): a straightforward
dict/loop implementation of the reference's index build
(/root/reference/indexer.py) and query path (/root/reference/searcher.py,
ranker.py), run over the same fixture corpus as the Ray engine.  It shares
ONLY the deterministic leaf functions (tokenizer/parser, glove, doc ids)
with the engine; all indexing/merging/scoring machinery here is
independent, so it cross-checks the distributed shuffle, encoding and
pruning logic.

As-written reference quirks reproduced (see also text/parser.py docstring):
- scoring tf is ``max_tf / doc_length`` for every term — the reference's
  ``calculate_tf`` reads tuple index 2 (max_tf), not 4 (tf)
  (/root/reference/searcher.py:113-124 vs indexer.py:89-94);
- entity<2 prune compares lowercase posting terms against original-case
  entity chunks, so it (almost) never fires (/root/reference/indexer.py:156-159);
- capitals-AND then UPPER rewrite makes those terms unreachable by
  lowercase queries (/root/reference/indexer.py:161-165);
- df==1 prune applied after the rewrite (/root/reference/indexer.py:167-169);
- top-k: ascending (score, date, doc_id), take last k
  (/root/reference/ranker.py:46-63 — bisect.insort of (score, id, date)
  then a stable sort keyed (score, date)).
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from search_engine_ray.config import EngineConfig
from search_engine_ray.glove import GloveCache
from search_engine_ray.ids import doc_id_for_url
from search_engine_ray.text.parser import Parser


class OracleIndex:
    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.parser = Parser.from_config(self.config)
        self.glove = GloveCache(self.config.glove_path,
                                self.config.glove_dim)
        # term -> list[(doc_id, doc_length, max_tf, unique_terms, tf)]
        self.postings: dict[str, list[tuple]] = {}
        self.df: dict[str, int] = {}
        self.global_capitals: dict[str, bool] = {}
        self.entities = Counter()
        self.doc_ts: dict[int, int] = {}  # doc_id -> ts_us
        # doc_id -> its distinct terms in parse order; the GloVe centroid
        # is derived from them on first use (doc_vector), since only the
        # reference scorer reads it
        self.doc_terms: dict[int, tuple[str, ...]] = {}
        self._doc_vec: dict[int, np.ndarray] = {}
        self.n_docs = 0
        self.sum_dl = 0

    # ------------------------------------------------------------- build
    def add_page(self, url: str, warc_ts_us: int, text: str) -> bool:
        parsed = self.parser.parse_page(url, text)
        if parsed is None:
            return False
        return self._add_parsed(doc_id_for_url(url), url, warc_ts_us, parsed)

    def add_tweet_row(self, row: list) -> bool:
        """Native tweet-row shape (F2): positional parse + reference date
        format (/root/reference/parser_module.py:104-191)."""
        from datetime import datetime

        parsed = self.parser.parse_tweet_row(row)
        if parsed is None:
            return False
        try:
            ts = int(datetime.strptime(
                row[1], "%a %b %d %X %z %Y").timestamp() * 1_000_000)
        except (ValueError, TypeError):
            return False
        doc_id = int(row[0])
        return self._add_parsed(doc_id, str(doc_id), ts, parsed)

    def _add_parsed(self, doc_id, url, warc_ts_us, parsed) -> bool:
        self.n_docs += 1
        self.sum_dl += parsed.doc_length
        for term, cap in parsed.capitals.items():
            if term not in self.global_capitals:
                self.global_capitals[term] = cap
            elif not cap:
                self.global_capitals[term] = False
        for ent in parsed.entities:
            self.entities[ent] += 1
        self.doc_ts[doc_id] = warc_ts_us
        self.doc_terms[doc_id] = tuple(parsed.term_tfs)
        self._doc_vec.pop(doc_id, None)
        for term, tf in parsed.term_tfs.items():
            self.df[term] = self.df.get(term, 0) + 1
            self.postings.setdefault(term, []).append(
                (doc_id, parsed.doc_length, parsed.max_tf,
                 parsed.unique_terms, tf)
            )
        return True

    def doc_vector(self, doc_id: int) -> np.ndarray:
        """The doc's GloVe centroid (indexer.py:54-61): the sum of its
        distinct terms' vectors in parse order over the distinct-term
        count, computed on first use and kept."""
        vec = self._doc_vec.get(doc_id)
        if vec is None:
            terms = self.doc_terms[doc_id]
            vec = np.zeros(self.config.glove_dim)
            for term in terms:
                g = self.glove.get(term)
                if g is not None:
                    vec = vec + g
            vec = vec / len(terms)
            self._doc_vec[doc_id] = vec
        return vec

    def build_tweets(self, rows) -> "OracleIndex":
        for row in rows:
            self.add_tweet_row(list(row))
        self.finalize()
        return self

    def final_terms(self, prune_df1: bool) -> dict[str, str]:
        """The reference's merge-time rules (indexer.py:156-169) applied
        WITHOUT mutating the accumulator: final term -> the orig term
        whose postings and df it carries.  ``finalize`` passes the
        config's ``prune_df1``.  The NRT segment (query/nrt.py) does not
        call this: it resolves one query term at a time
        (``Segment.orig``), with the df==1 prune deferred to the
        COMBINED base+segment df, and ``final_terms(prune_df1=False)``
        is the reference tests/test_nrt_segment.py checks it against.
        The prune runs inside the loop, per ORIG term, so a pruned orig
        can never displace an earlier rewrite winner (the reference's
        exact insert-order semantics)."""
        out: dict[str, str] = {}
        for term in sorted(self.postings):
            out_term = term
            if term in self.entities and self.entities[term] < 2:
                continue
            if self.global_capitals.get(term, False):
                out_term = term.upper()
            if prune_df1 and self.df[term] == 1:
                continue
            out[out_term] = term
        return out

    def sorted_postings(self, term: str) -> list[tuple]:
        """An orig term's postings sorted by doc id."""
        return sorted(self.postings[term], key=lambda t: t[0])

    def finalize(self):
        """Apply the reference's merge-time rules (indexer.py:156-169)."""
        terms = self.final_terms(self.config.prune_df1)
        self.postings, self.df = (
            {o: self.sorted_postings(t) for o, t in terms.items()},
            {o: self.df[t] for o, t in terms.items()})
        self.avg_dl = self.sum_dl / self.n_docs if self.n_docs else 0.0

    def build(self, pages) -> "OracleIndex":
        """pages: iterable of (url, warc_ts_us, text)."""
        for url, ts, text in pages:
            self.add_page(url, ts, text)
        self.finalize()
        return self

    # ------------------------------------------------------------- query
    def search(self, query_text: str, k: int = 10, mode: str = "reference"):
        """Returns list of (score, doc_id, ts_us) ascending (score, ts, id),
        last-k — the reference's exact output order (ranker.py:51-63)."""
        if k < 0:
            return []
        if k == 0:
            # the reference's retrieve_top_k list[-0:] quirk: k=0 means
            # the FULL ranked candidate list (ranker.py:63)
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        if mode == "bm25":
            return self._search_bm25(query, k)
        return self._search_reference(query, k)

    def _search_reference(self, query: list[str], k: int):
        cfg = self.config
        n = self.n_docs
        # query glove vec: sum per occurrence / len(query)  (searcher.py:29-33,65)
        qg = np.zeros(cfg.glove_dim)
        for t in query:
            g = self.glove.get(t)
            if g is not None:
                qg = qg + g
        qg = qg / len(query)

        # term -> (set of query positions, posting list or None)
        term_pos: dict[str, set] = {}
        idf: dict[str, float] = {}
        for i, t in enumerate(query):
            if t in self.df:
                idf[t] = math.log10(n / self.df[t])
                term_pos.setdefault(t, set()).add(i)
            else:
                idf[t] = 0.0
                term_pos[t] = {i}  # reference resets the set per occurrence

        min_match = int(len(query) * cfg.min_match_ratio)
        match_count = Counter()
        doc_info: dict[int, tuple] = {}  # doc_id -> (doc_length, max_tf)
        doc_terms: dict[int, set] = {}
        any_posting = False
        for t, positions in term_pos.items():
            plist = self.postings.get(t)
            if plist is None:
                continue
            any_posting = True
            for doc_id, dl, mtf, uniq, tf in plist:
                match_count[doc_id] += 1
                doc_info[doc_id] = (dl, mtf)
                doc_terms.setdefault(doc_id, set()).add(t)

        if not any_posting:
            return []

        qtf = np.zeros(len(query))
        qidf = np.zeros(len(query))
        for i, t in enumerate(query):
            qtf[i] = len(term_pos[t]) / len(query)
            qidf[i] = idf[t]

        ranked = []
        for doc_id, cnt in match_count.items():
            if cnt < min_match and min_match > 0:
                continue
            dl, mtf = doc_info[doc_id]
            tf_quirk = mtf / dl  # the calculate_tf quirk
            dtf = np.array([
                tf_quirk if query[i] in doc_terms.get(doc_id, ()) else 0.0
                for i in range(len(query))
            ])
            wcos = _cosine(dtf * qidf, qtf * qidf)
            bm25 = 0.0
            for i in range(len(query)):
                denom = dtf[i] + cfg.bm25_k1 * (
                    1 - cfg.bm25_b + cfg.bm25_b * dl / self.avg_dl
                )
                bm25 += qidf[i] * dtf[i] * (cfg.bm25_k1 + 1) / denom
            gcos = _cosine(self.doc_vector(doc_id), qg)
            score = (cfg.w_cos_weight * wcos + cfg.bm25_weight * bm25
                     + cfg.glove_weight * gcos)
            ranked.append((score, doc_id, self.doc_ts[doc_id]))

        # reference order: insort by (score, id, date) then stable sort by
        # (score, date) -> net ascending (score, date, id); last k
        ranked.sort(key=lambda t: (t[0], t[2], t[1]))
        return ranked[-k:] if k <= len(ranked) else ranked

    def _search_bm25(self, query: list[str], k: int):
        """Pure BM25 (real tf, same log10 idf) — the scale-path scorer."""
        cfg = self.config
        n = self.n_docs
        scores: dict[int, float] = {}
        meta: dict[int, int] = {}
        for t in set(query):
            plist = self.postings.get(t)
            if not plist:
                continue
            t_idf = math.log10(n / self.df[t])
            for doc_id, dl, mtf, uniq, tf in plist:
                denom = tf + cfg.bm25_k1 * (
                    1 - cfg.bm25_b + cfg.bm25_b * dl / self.avg_dl
                )
                scores[doc_id] = scores.get(doc_id, 0.0) + (
                    t_idf * tf * (cfg.bm25_k1 + 1) / denom
                )
                meta[doc_id] = self.doc_ts[doc_id]
        ranked = [(s, d, meta[d]) for d, s in scores.items()]
        ranked.sort(key=lambda t: (t[0], t[2], t[1]))
        return ranked[-k:] if k <= len(ranked) else ranked


def _cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    num = float(np.dot(v1, v2))
    den = float(np.linalg.norm(v1) * np.linalg.norm(v2))
    if den == 0 or num == 0:
        return 0.0
    return num / den
