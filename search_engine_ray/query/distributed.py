"""Distributed query serving: per-shard actors + driver merge.

The single-node ``SearchEngine`` reads postings in-process; at cluster
scale query serving is an ACTOR POOL where each actor owns a disjoint set
of doc shards — its slice of docmeta in memory and a lazy posting cache
(the reference's posting/doc caches, searcher.py:39-51 / ranker.py:30-36,
promoted to per-shard server state).

Doc-sharding makes this exact: a document's postings live entirely in its
shard, so each actor computes complete per-doc scores locally using the
GLOBAL corpus stats (N, avg_dl, df) from the manifest; the driver merges
per-shard top-k with the same (score, ts, doc_id) tie-break.  Results are
rank-identical to the in-process engine.
"""

from __future__ import annotations

import math

import numpy as np

import ray


def meta_positions(meta_ids: np.ndarray, doc_ids: np.ndarray):
    """Positions into a sorted docmeta id array + found mask; callers must
    treat not-found rows as (ts=0, glove=0) rather than attributing a
    neighbor's metadata (mirrors SearchEngine._meta_for, engine.py)."""
    n = len(meta_ids)
    if n == 0:
        return (np.zeros(len(doc_ids), np.int64),
                np.zeros(len(doc_ids), bool))
    pos = np.clip(np.searchsorted(meta_ids, doc_ids), 0, n - 1)
    found = meta_ids[pos] == doc_ids
    return pos, found


@ray.remote
class QueryShardActor:
    """Serves a subset of shards of one index."""

    def __init__(self, out_dir: str, shards: list[int]):
        import pyarrow.dataset as pads

        from search_engine_ray.config import EngineConfig
        from search_engine_ray.index import manifest as mf

        import glob
        import os

        man = mf.read_manifest(out_dir)
        self.cfg = EngineConfig(**man["config"])
        self.n_docs = man["n_docs"]
        self.avg_dl = man["avg_doc_length"]
        self.shards = set(shards)

        def _maybe_dataset(stage):  # degenerate indexes may have 0 files
            d = mf.stage_dir(out_dir, stage)
            if glob.glob(os.path.join(d, "**", "*.parquet"),
                         recursive=True):
                return pads.dataset(d, partitioning="hive")
            return None

        self._postings_ds = _maybe_dataset("postings")
        self._pcache: dict[str, dict | None] = {}

        meta_ds = _maybe_dataset("docmeta")
        if meta_ds is None:
            self._meta_ids = np.zeros(0, np.int64)
            self._meta_ts = np.zeros(0, np.int64)
            self._meta_glove = np.zeros((0, self.cfg.glove_dim))
            return
        meta = meta_ds.to_table(
            columns=["doc_id", "warc_ts", "shard", "glove"],
            filter=pads.field("shard").isin(list(self.shards)))
        ids = meta.column("doc_id").to_numpy()
        order = np.argsort(ids)
        self._meta_ids = ids[order]
        self._meta_ts = meta.column("warc_ts").to_numpy()[order]
        glove = np.asarray(meta.column("glove").combine_chunks().flatten()
                           .to_numpy(zero_copy_only=False)).reshape(
            len(ids), self.cfg.glove_dim)
        self._meta_glove = glove[order]

    def _postings(self, terms: list[str], df_map: dict,
                  caps_orig: dict | None = None,
                  want_positions: bool = False):
        import pyarrow.dataset as pads

        from search_engine_ray.ids import term_bucket
        from search_engine_ray.index.encoding import decode_postings

        # positions are fetched/decoded ONLY for phrase/proximity calls
        # (want_positions) — a bm25/reference search on a positional
        # index must not pay the pos_vb read (it is roughly the size of
        # all other streams combined) or the decode+merge.  A term
        # cached without positions is re-fetched when a phrase query
        # later needs it.
        def _misses_pos(t):
            e = self._pcache.get(t)
            return e is not None and "pos" not in e

        need = [t for t in terms if t in df_map
                and (t not in self._pcache
                     or (want_positions and _misses_pos(t)))]
        if self._postings_ds is None:
            for t in need:
                self._pcache[t] = None
            need = []
        if need:
            buckets = sorted({term_bucket(t, self.cfg.term_buckets)
                              for t in need})
            keys = ["n", "docids_vb", "tf_vb", "dl_vb", "mtf_vb"]
            if self.cfg.positions and want_positions:
                keys.append("pos_vb")
            t = self._postings_ds.to_table(
                columns=["term", "orig"] + keys,
                filter=(pads.field("tbucket").isin(buckets)
                        & pads.field("term").isin(need)
                        & pads.field("shard").isin(list(self.shards))))
            by_term = {x: [] for x in need}
            term_col = t.column("term").to_pylist()
            orig_col = t.column("orig").to_pylist()
            cols = {k: t.column(k).to_pylist() for k in keys}
            for i, term in enumerate(term_col):
                by_term[term].append(
                    (orig_col[i],
                     decode_postings({k: cols[k][i] for k in cols})))
            for term, tagged in by_term.items():
                # capitals collisions: keep only the GLOBAL winning
                # orig's rows (the winner is decided by the whole dict —
                # a per-shard max would wrongly serve a loser whose
                # winner has no docs in this actor's shards); mirrors
                # load_df_and_orig / engine.prefetch
                win = (caps_orig or {}).get(term)
                parts = [p for o, p in tagged
                         if win is None or o == win]
                if not parts:
                    self._pcache[term] = None
                    continue
                ids = np.concatenate([p["doc_ids"] for p in parts])
                order = np.argsort(ids, kind="stable")
                tfs = np.concatenate([p["tfs"] for p in parts])
                entry = {
                    "doc_ids": ids[order],
                    "tfs": tfs[order],
                    "dls": np.concatenate([p["dls"] for p in parts])[order],
                    "mtfs": np.concatenate(
                        [p["mtfs"] for p in parts])[order],
                }
                if want_positions and all("pos" in p for p in parts):
                    # merge per-posting position sublists across shard
                    # segments: gather sublists into the merged doc order
                    # (already on decoded absolutes here)
                    from search_engine_ray.index.encoding import (
                        sublist_gather,
                    )

                    pos = np.concatenate([p["pos"] for p in parts])
                    gather, out_off = sublist_gather(tfs, order)
                    entry["pos"] = pos[gather]
                    entry["pos_off"] = out_off
                self._pcache[term] = entry
        return {t: self._pcache.get(t) for t in terms}

    def phrase_local(self, terms: list[str],
                     df_map: dict[str, int],
                     caps_orig: dict | None = None) -> list[int]:
        """Doc ids in THIS actor's shards containing the exact token
        sequence — complete per shard (a doc's postings + positions live
        entirely in its shard), so the driver merge is a plain union."""
        from search_engine_ray.query.engine import (
            intersect_candidates,
            phrase_from_postings,
        )

        uniq = list(dict.fromkeys(terms))
        plists = self._postings(uniq, df_map, caps_orig,
                                want_positions=True)
        if any(plists.get(t) is None for t in uniq) or not uniq:
            return []
        cand = intersect_candidates([plists[t]["doc_ids"] for t in uniq])
        docs = phrase_from_postings(plists, cand, terms)
        return [int(d) for d in docs]

    def proximity_local(self, t1: str, t2: str, window: int,
                        df_map: dict[str, int],
                        caps_orig: dict | None = None):
        from search_engine_ray.query.engine import (
            intersect_candidates,
            proximity_from_postings,
        )

        uniq = list(dict.fromkeys([t1, t2]))
        plists = self._postings(uniq, df_map, caps_orig,
                                want_positions=True)
        if any(plists.get(t) is None for t in uniq):
            return []
        cand = intersect_candidates([plists[t]["doc_ids"] for t in uniq])
        docs, gaps = proximity_from_postings(plists[t1], plists[t2],
                                             cand, window)
        return [(int(d), int(g)) for d, g in zip(docs, gaps)]

    def bool_local(self, include: list[str], exclude: list[str], k: int,
                   df_map: dict[str, int],
                   caps_orig: dict | None = None) -> list[int]:
        """First ``k`` ascending doc ids in THIS actor's shards
        containing every include term and none of the exclude terms.
        Global term knownness (AND emptied by an unknown include) is the
        driver's job; locally a known term with no postings in these
        shards simply intersects to empty."""
        inc = list(dict.fromkeys(include))
        exc = list(dict.fromkeys(exclude))
        plists = self._postings(inc + [t for t in exc if t not in inc],
                                df_map, caps_orig)
        cur = None
        for t in inc:
            p = plists.get(t)
            ids = (p["doc_ids"] if p is not None
                   else np.zeros(0, np.int64))
            cur = (ids if cur is None
                   else cur[np.isin(cur, ids, assume_unique=True)])
            if len(cur) == 0:
                return []
        if cur is None:
            return []
        for t in exc:
            p = plists.get(t)
            if p is not None and len(cur):
                cur = cur[~np.isin(cur, p["doc_ids"],
                                   assume_unique=True)]
        return [int(x) for x in cur[:k]]

    def bool_or_local(self, terms: list[str], k: int,
                      df_map: dict[str, int],
                      caps_orig: dict | None = None) -> list[int]:
        """First ``k`` ascending doc ids in THIS actor's shards
        containing ANY of the terms."""
        plists = self._postings(list(dict.fromkeys(terms)), df_map,
                                caps_orig)
        lists = [p["doc_ids"] for p in plists.values() if p is not None]
        if not lists:
            return []
        ids = np.unique(np.concatenate(lists))
        return [int(x) for x in ids[:k]]

    def champions_local(self, terms: list[str], m: int,
                        df_map: dict[str, int],
                        caps_orig: dict | None = None):
        """Per-term LOCAL champion prefix for tiered retrieval: this
        actor's top-m postings by (tf desc, ts asc, doc_id asc).  The
        driver merges per-shard prefixes and re-selects the global
        top-m — correct because the global champion set is always
        inside the union of per-shard champion sets."""
        out = {}
        plists = self._postings(list(dict.fromkeys(terms)), df_map,
                                caps_orig)
        for t, p in plists.items():
            if p is None or len(p["doc_ids"]) == 0:
                continue
            ids, tfs = p["doc_ids"], p["tfs"]
            pos, found = meta_positions(self._meta_ids, ids)
            ts = self._meta_ts[pos] * found
            if len(ids) > m:
                order = np.lexsort((ids, ts, -tfs))[:m]
                ids, tfs, ts = ids[order], tfs[order], ts[order]
            out[t] = (ids.tolist(), tfs.tolist(), ts.tolist())
        return out

    def counts_local(self, terms: list[str], df_map: dict[str, int],
                     caps_orig: dict | None = None):
        """(n_or, n_and) over THIS actor's shards — disjoint shards
        make the global counts plain sums.  Global AND knownness (an
        unknown term zeroing n_and) is the driver's job."""
        from search_engine_ray.query.engine import intersect_candidates

        plists = self._postings(list(dict.fromkeys(terms)), df_map,
                                caps_orig)
        lists = [p["doc_ids"] for p in plists.values() if p is not None]
        n_or = (len(np.unique(np.concatenate(lists))) if lists else 0)
        if len(lists) < len(plists) or not lists:
            n_and = 0  # a term with no postings in these shards
        else:
            # smallest-first intersection (cost bounded by rarest df)
            n_and = len(intersect_candidates(lists))
        return int(n_or), int(n_and)

    def search_local(self, query: list[str], k: int, mode: str,
                     df_map: dict[str, int],
                     caps_orig: dict | None = None,
                     ts_range: tuple[int, int] | None = None,
                     after: tuple[float, int, int] | None = None,
                     boosts: dict[str, float] | None = None,
                     phrase_terms: list[list[str]] | None = None,
                     must_ids: np.ndarray | None = None,
                     prox_pairs: list[tuple[str, str]] | None = None,
                     prox_window: int = 8, prox_weight: float = 0.5,
                     drive_terms: list[str] | None = None):
        """Local top-k over this actor's shards; returns (score, ts, id)
        tuples (at most k).  ``ts_range``/``after``/``boosts`` mirror
        the in-process bm25 options (engine.py search): shards hold
        disjoint docs, so applying the filters locally BEFORE the local
        top-k keeps the merged global result exact.  ``phrase_terms``
        gates candidates on exact token sequences evaluated SHARD-
        LOCALLY from the positional postings (a doc's positions live
        entirely in its shard); ``must_ids`` is a pre-computed global
        allow-set (the tiered champion set) — both are bm25-only."""
        from search_engine_ray.index.encoding import tf_norm

        cfg = self.cfg
        terms = list(dict.fromkeys(query))
        plists = self._postings(terms, df_map, caps_orig)

        def idf(t):
            df = df_map.get(t)
            return math.log10(self.n_docs / df) if df else 0.0

        meta_pos = None
        if mode == "bm25":
            id_parts, contrib = [], []
            for t in terms:
                p = plists.get(t)
                if p is None or len(p["doc_ids"]) == 0:
                    continue
                tn = tf_norm(p["tfs"], p["dls"].astype(np.float64),
                             self.avg_dl, cfg.bm25_k1, cfg.bm25_b)
                w = boosts.get(t, 1.0) if boosts else 1.0
                id_parts.append(p["doc_ids"])
                # (idf*tn)*w association matches the in-process engine
                # (_bm25_contrib caches idf*tn, then scales) — bit-exact
                contrib.append((idf(t) * tn) * w if w != 1.0
                               else idf(t) * tn)
            if not id_parts:
                return []
            ids = np.concatenate(id_parts)
            contribs = np.concatenate(contrib)
            cand, inv = np.unique(ids, return_inverse=True)
            scores = np.bincount(inv, weights=contribs, minlength=len(cand))
            if drive_terms is not None:
                # rare-first gate (CommonTermsQuery): candidates must
                # hold a drive term — shard-local union, since a doc's
                # postings live wholly in its shard
                lists = [plists[t]["doc_ids"] for t in drive_terms
                         if plists.get(t) is not None]
                if not lists:
                    return []
                must_d = np.unique(np.concatenate(lists))
                keep = np.isin(cand, must_d, assume_unique=True)
                if not keep.any():
                    return []
                cand, scores = cand[keep], scores[keep]
            if phrase_terms:
                from search_engine_ray.query.engine import (
                    intersect_candidates,
                    phrase_from_postings,
                )

                must = None
                for terms_ph in phrase_terms:
                    uniq = list(dict.fromkeys(terms_ph))
                    pl = self._postings(uniq, df_map, caps_orig,
                                        want_positions=True)
                    if any(pl.get(t) is None for t in uniq):
                        must = np.zeros(0, np.int64)
                        break
                    c2 = intersect_candidates(
                        [pl[t]["doc_ids"] for t in uniq])
                    docs = phrase_from_postings(pl, c2, terms_ph)
                    must = docs if must is None else must[
                        np.isin(must, docs, assume_unique=True)]
                    if len(must) == 0:
                        break
                if must is not None:
                    keep = np.isin(cand, must, assume_unique=True)
                    if not keep.any():
                        return []
                    cand, scores = cand[keep], scores[keep]
            if must_ids is not None:
                keep = np.isin(cand, must_ids, assume_unique=True)
                if not keep.any():
                    return []
                cand, scores = cand[keep], scores[keep]
            if prox_pairs:
                # shard-local proximity bonus (a doc's positions live
                # entirely in its shard); separate accumulator + ONE
                # vector add — the in-process engine's float-association
                # rule, so the merged ranking is bit-identical
                from search_engine_ray.query.engine import (
                    proximity_from_postings,
                )

                boost = np.zeros(len(cand))
                for t1, t2 in prox_pairs:
                    pl = self._postings([t1, t2], df_map, caps_orig,
                                        want_positions=True)
                    p1, p2 = pl.get(t1), pl.get(t2)
                    if p1 is None or p2 is None:
                        continue
                    pcand = p1["doc_ids"][np.isin(
                        p1["doc_ids"], p2["doc_ids"],
                        assume_unique=True)]
                    docs, gaps = proximity_from_postings(
                        p1, p2, pcand, prox_window)
                    if len(docs):
                        # membership-checked scatter: composing
                        # prox_pairs with phrase_terms/must_ids shrinks
                        # cand, so a boosted doc may have been filtered
                        # out — it must not crash or credit a neighbor
                        pos = np.searchsorted(cand, docs)
                        pos_c = np.minimum(pos, max(len(cand) - 1, 0))
                        hit = cand[pos_c] == docs
                        np.add.at(boost, pos_c[hit],
                                  prox_weight / (1.0 + gaps[hit]))
                scores = scores + boost
            if ts_range is not None or after is not None:
                pos, found = meta_positions(self._meta_ids, cand)
                ts_all = self._meta_ts[pos] * found
                m = np.ones(len(cand), bool)
                if ts_range is not None:
                    lo, hi = ts_range
                    m &= found & (ts_all >= lo) & (ts_all <= hi)
                if after is not None:
                    a_score, a_id, a_ts = after
                    m &= (scores < a_score) | (
                        (scores == a_score)
                        & ((ts_all < a_ts)
                           | ((ts_all == a_ts) & (cand < a_id))))
                if not m.any():
                    return []
                cand, scores = cand[m], scores[m]
                # the tail's ts gather reuses this (same mechanism as
                # reference mode) — no second searchsorted pass
                meta_pos = (pos[m], found[m])
        elif mode == "reference":
            Q = len(query)
            from search_engine_ray.glove import GloveCache

            if not hasattr(self, "_glove"):
                self._glove = GloveCache(cfg.glove_path, cfg.glove_dim)
            qg = np.zeros(cfg.glove_dim)
            for t in query:
                g = self._glove.get(t)
                if g is not None:
                    qg = qg + g
            qg = qg / Q
            known = [t for t in terms if plists.get(t) is not None]
            if not known:
                return []
            all_ids = np.concatenate([plists[t]["doc_ids"] for t in known])
            all_dls = np.concatenate([plists[t]["dls"] for t in known])
            all_mtfs = np.concatenate([plists[t]["mtfs"] for t in known])
            cand, first_idx, counts = np.unique(
                all_ids, return_index=True, return_counts=True)
            min_match = int(Q * cfg.min_match_ratio)
            if min_match > 0:
                keep = counts >= min_match
                cand, first_idx = cand[keep], first_idx[keep]
            if len(cand) == 0:
                return []
            dl = all_dls[first_idx].astype(np.float64)
            mtf = all_mtfs[first_idx].astype(np.float64)
            tf_quirk = mtf / dl
            qidf = np.array([idf(t) for t in query])
            pos_count: dict[str, int] = {}
            for t in query:
                pos_count[t] = pos_count.get(t, 0) + 1
            # knownness is GLOBAL (term in the shipped dictionary slice),
            # not local posting presence: a known term with no postings in
            # this actor's shards must still contribute its true query tf,
            # or the query-vector norm (and thus wcos) diverges from the
            # in-process engine (engine.py: postings() is None iff the
            # term is absent from the dictionary)
            qtf = np.array([
                (pos_count[t] if t in df_map else 1) / Q
                for t in query])
            member = np.zeros((len(cand), Q))
            for i, t in enumerate(query):
                p = plists.get(t)
                if p is not None:
                    member[:, i] = np.isin(cand, p["doc_ids"])
            dtf = member * tf_quirk[:, None]
            dvec = dtf * qidf[None, :]
            qvec = qtf * qidf
            num = dvec @ qvec
            den = np.linalg.norm(dvec, axis=1) * np.linalg.norm(qvec)
            wcos = np.where((den == 0) | (num == 0), 0.0,
                            num / np.where(den == 0, 1, den))
            denom = dtf + cfg.bm25_k1 * (
                1 - cfg.bm25_b + cfg.bm25_b * dl[:, None] / self.avg_dl)
            bm25 = ((qidf[None, :] * dtf * (cfg.bm25_k1 + 1))
                    / denom).sum(axis=1)
            meta_pos = meta_positions(self._meta_ids, cand)
            pos, found = meta_pos
            gmat = self._meta_glove[pos] * found[:, None]
            gnum = gmat @ qg
            gden = np.linalg.norm(gmat, axis=1) * np.linalg.norm(qg)
            gcos = np.where((gden == 0) | (gnum == 0), 0.0,
                            gnum / np.where(gden == 0, 1, gden))
            scores = (cfg.w_cos_weight * wcos + cfg.bm25_weight * bm25
                      + cfg.glove_weight * gcos)
        else:
            raise ValueError(mode)

        # reference mode already did this lookup for the glove cosine —
        # reuse it instead of a second identical searchsorted pass
        pos, found = (meta_pos if meta_pos is not None
                      else meta_positions(self._meta_ids, cand))
        ts = self._meta_ts[pos] * found
        order = np.lexsort((cand, ts, scores))
        order = order[-k:] if k <= len(order) else order
        return [(float(scores[i]), int(ts[i]), int(cand[i])) for i in order]


class DistributedSearchEngine:
    """Driver-side facade: parse once, fan out, merge shard top-ks."""

    def __init__(self, out_dir: str, num_actors: int = 4):
        from search_engine_ray.config import EngineConfig
        from search_engine_ray.index import manifest as mf

        man = mf.read_manifest(out_dir)
        self.cfg = EngineConfig(**man["config"])
        self.n_docs = man["n_docs"]
        from search_engine_ray.text.parser import Parser

        self.parser = Parser(
            stemming=self.cfg.stemming, tokenizer=self.cfg.tokenizer,
            harvest_page_url=self.cfg.harvest_page_url,
            raw_tokens=self.cfg.raw_tokens)
        import pyarrow.dataset as pads

        self.df_map, self._caps_orig = mf.load_df_and_orig(out_dir)
        self._fuzzy = None  # lazy ops/fulltext.FuzzyCorrector
        S = self.cfg.num_shards
        num_actors = min(num_actors, S)
        assignment = [list(range(i, S, num_actors))
                      for i in range(num_actors)]
        self.actors = [QueryShardActor.remote(out_dir, sh)
                       for sh in assignment]

    def fuzzy_correct(self, term: str):
        """Same did-you-mean rule as the in-process engine — literally
        the same ops/fulltext.FuzzyCorrector (driver-side: the
        dictionary lives here, not on the actors)."""
        if self._fuzzy is None:
            from search_engine_ray.ops.fulltext import FuzzyCorrector

            self._fuzzy = FuzzyCorrector(self.df_map)
        return self._fuzzy(term)

    def search(self, query_text: str, k: int = 10, mode: str = "bm25",
               fuzzy: bool = False,
               ts_range: tuple[int, int] | None = None,
               search_after: tuple[float, int, int] | None = None,
               boosts: dict[str, float] | None = None,
               synonyms: dict[str, list[str]] | None = None,
               phrases: list[list[str] | str] | None = None):
        """Same serving options as the in-process engine (engine.py
        search): ts_range/search_after/boosts/phrases are bm25-only and
        applied SHARD-LOCALLY before each actor's top-k (disjoint
        shards keep the merge exact — a doc's positions live entirely
        in its shard, so phrase gating needs no cross-shard traffic);
        synonyms is the same pure query rewrite."""
        if mode != "bm25" and (ts_range is not None
                               or search_after is not None
                               or boosts is not None
                               or phrases is not None):
            raise ValueError(
                "ts_range/search_after/boosts/phrases are only "
                "supported in bm25 mode")
        ph_terms = None
        if phrases is not None:
            ph_terms = []
            for ph in phrases:
                terms_ph = (self.parser.parse_sentence(ph)[0]
                            if isinstance(ph, str) else list(ph))
                if terms_ph:
                    ph_terms.append(terms_ph)
            if ph_terms:
                self._require_positions()
            else:
                ph_terms = None
        if k < 0:
            return []
        if k == 0:
            # the reference's retrieve_top_k list[-0:] quirk: k=0 means
            # the FULL ranked candidate list (ranker.py:63)
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        if fuzzy:
            query = [t if t in self.df_map
                     else (self.fuzzy_correct(t) or t) for t in query]
        if synonyms:
            from search_engine_ray.query.engine import expand_synonyms

            query = expand_synonyms(query, synonyms)
        if mode == "bool_and":
            return self._bool_fanout(query, [], k)
        if mode == "bool_or":
            known = [t for t in dict.fromkeys(query) if t in self.df_map]
            if not known:
                return []
            df_small, orig_small = self._ship_maps(known)
            futures = [a.bool_or_local.remote(known, k, df_small,
                                              orig_small)
                       for a in self.actors]
            ids = sorted(i for part in ray.get(futures) for i in part)
            return ids[:k]
        # ship only the df entries the query (and phrase gate) needs
        df_small, orig_small = self._ship_maps(
            query + [t for p in (ph_terms or []) for t in p])
        b_small = ({t: boosts[t] for t in dict.fromkeys(query)
                    if t in boosts} or None) if boosts else None
        futures = [a.search_local.remote(query, k, mode, df_small,
                                         orig_small, ts_range=ts_range,
                                         after=search_after,
                                         boosts=b_small,
                                         phrase_terms=ph_terms)
                   for a in self.actors]
        merged = [t for part in ray.get(futures) for t in part]
        merged.sort(key=lambda t: (t[0], t[1], t[2]))  # (score, ts, id)
        top = merged[-k:] if k <= len(merged) else merged
        return [(s, d, ts) for s, ts, d in top]

    def search_tiered(self, query_text: str, k: int = 10, m: int = 32,
                      fuzzy: bool = False):
        """Distributed champion-list tiered retrieval — rank-identical
        to the in-process SearchEngine.search_tiered.  Two rounds: (1)
        each shard returns its LOCAL per-term champion prefix (top-m by
        tf desc, ts asc — the global prefix is inside the union of
        local prefixes, so the driver merge re-selecting the global
        top-m is exact and driver traffic is bounded by shards×terms×m
        rows); (2) the usual shard-local BM25 fan-out masked to the
        champion set (``must_ids``).  ``m <= 0`` returns [] (same
        contract as the in-process engine)."""
        if k < 0 or m <= 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        if fuzzy:
            query = [t if t in self.df_map
                     else (self.fuzzy_correct(t) or t) for t in query]
        terms = list(dict.fromkeys(query))
        df_small, orig_small = self._ship_maps(terms)
        futures = [a.champions_local.remote(terms, m, df_small,
                                            orig_small)
                   for a in self.actors]
        per_term: dict[str, list] = {}
        for part in ray.get(futures):
            for t, (ids, tfs, ts) in part.items():
                per_term.setdefault(t, []).append((ids, tfs, ts))
        champ = []
        for t, parts in per_term.items():
            ids = np.concatenate([np.asarray(p[0], np.int64)
                                  for p in parts])
            tfs = np.concatenate([np.asarray(p[1]) for p in parts])
            ts = np.concatenate([np.asarray(p[2], np.int64)
                                 for p in parts])
            if len(ids) > m:
                order = np.lexsort((ids, ts, -tfs))[:m]
                ids = ids[order]
            champ.append(ids)
        if not champ:
            return []
        must = np.unique(np.concatenate(champ))
        futures = [a.search_local.remote(query, k, "bm25", df_small,
                                         orig_small, must_ids=must)
                   for a in self.actors]
        merged = [t for part in ray.get(futures) for t in part]
        merged.sort(key=lambda t: (t[0], t[1], t[2]))
        top = merged[-k:] if k <= len(merged) else merged
        return [(s, d, ts) for s, ts, d in top]

    def search_proximity_boosted(self, query_text: str, k: int = 10,
                                 window: int = 8, weight: float = 0.5):
        """Distributed proximity-boosted BM25 — rank-identical to the
        in-process SearchEngine.search_proximity_boosted (positions and
        BM25 state are both shard-local, so the bonus is too)."""
        from search_engine_ray.query.engine import adjacent_term_pairs

        self._require_positions()
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        pairs = adjacent_term_pairs(query)
        df_small, orig_small = self._ship_maps(
            query + [t for p in pairs for t in p])
        futures = [a.search_local.remote(query, k, "bm25", df_small,
                                         orig_small, prox_pairs=pairs,
                                         prox_window=window,
                                         prox_weight=weight)
                   for a in self.actors]
        merged = [t for part in ray.get(futures) for t in part]
        merged.sort(key=lambda t: (t[0], t[1], t[2]))
        top = merged[-k:] if k <= len(merged) else merged
        return [(s, d, ts) for s, ts, d in top]

    def search_common_terms(self, query_text: str, k: int = 10,
                            df_den: int = 2):
        """Distributed rare-first retrieval — rank-identical to the
        in-process SearchEngine.search_common_terms.  The low-df
        classification uses the GLOBAL dictionary at the driver; the
        candidate gate is shard-local (a doc's postings live wholly in
        its shard), so the merged result is exact."""
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        terms = list(dict.fromkeys(query))
        known = [t for t in terms if t in self.df_map]
        if not known:
            return []
        low = [t for t in known
               if self.df_map[t] * df_den < self.n_docs]
        drive = low or known
        df_small, orig_small = self._ship_maps(terms)
        futures = [a.search_local.remote(query, k, "bm25", df_small,
                                         orig_small, drive_terms=drive)
                   for a in self.actors]
        merged = [t for part in ray.get(futures) for t in part]
        merged.sort(key=lambda t: (t[0], t[1], t[2]))
        top = merged[-k:] if k <= len(merged) else merged
        return [(s, d, ts) for s, ts, d in top]

    def match_counts(self, query_text: str) -> dict:
        """Distributed total-hit counts — identical to the in-process
        SearchEngine.match_counts (disjoint shards make the global
        OR/AND counts plain sums of per-shard counts)."""
        query, _, _ = self.parser.parse_sentence(query_text)
        terms = list(dict.fromkeys(query))
        if not terms:
            return {"n_or": 0, "n_and": 0}
        known_all = all(t in self.df_map for t in terms)
        df_small, orig_small = self._ship_maps(terms)
        futures = [a.counts_local.remote(terms, df_small, orig_small)
                   for a in self.actors]
        parts = ray.get(futures)
        return {"n_or": int(sum(p[0] for p in parts)),
                "n_and": (int(sum(p[1] for p in parts))
                          if known_all else 0)}

    def _bool_fanout(self, include: list[str], exclude: list[str],
                     k: int) -> list[int]:
        """Fan a must/must-not filter across the shard actors; shards
        hold disjoint docs, so the global first-k is inside the union
        of per-shard first-ks.  Same knownness rules as the in-process
        engine: an unknown include term empties the result, unknown
        exclude terms exclude nothing."""
        if k < 0:
            return []
        inc = list(dict.fromkeys(include))
        if not inc or any(t not in self.df_map for t in inc):
            return []
        exc = [t for t in dict.fromkeys(exclude) if t in self.df_map]
        df_small, orig_small = self._ship_maps(inc + exc)
        futures = [a.bool_local.remote(inc, exc, k, df_small, orig_small)
                   for a in self.actors]
        ids = sorted(i for part in ray.get(futures) for i in part)
        return ids[:k]

    def search_bool_and_not(self, include: list[str],
                            exclude: list[str], k: int = 10) -> list[int]:
        """Distributed must/must-not filter — rank-identical to the
        in-process SearchEngine.search_bool_and_not."""
        return self._bool_fanout(include, exclude, k)

    def _ship_maps(self, terms: list[str]):
        tset = set(terms)
        return ({t: self.df_map[t] for t in tset if t in self.df_map},
                {t: self._caps_orig[t] for t in tset
                 if t in self._caps_orig})

    def phrase_docs(self, terms: list[str]) -> list[int]:
        """Sorted doc ids containing the exact token sequence, fanned out
        across the shard actors (phrase evaluation is shard-local by
        doc-sharding; the merge is a union).  Rank-identical to the
        in-process SearchEngine.phrase_docs."""
        if not terms:
            return []
        self._require_positions()
        df_small, orig_small = self._ship_maps(terms)
        futures = [a.phrase_local.remote(terms, df_small, orig_small)
                   for a in self.actors]
        return sorted(d for part in ray.get(futures) for d in part)

    def _require_positions(self):
        # same contract as SearchEngine._positional_candidates — fail at
        # the driver with a clear message, not a KeyError('pos') inside
        # a shard actor
        if not self.cfg.positions:
            raise ValueError("index was built without positions "
                             "(EngineConfig.positions=False)")

    def proximity_docs(self, t1: str, t2: str, window: int = 3):
        """Sorted (doc_id, min_gap) pairs across the shard actors."""
        self._require_positions()
        df_small, orig_small = self._ship_maps([t1, t2])
        futures = [a.proximity_local.remote(t1, t2, window, df_small,
                                            orig_small)
                   for a in self.actors]
        return sorted(p for part in ray.get(futures) for p in part)
