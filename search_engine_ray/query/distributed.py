"""Distributed query serving: shard-restricted engines in actors + a
driver merge.

At cluster scale query serving is an ACTOR POOL where each actor owns a
disjoint set of doc shards (the reference's posting/doc caches,
searcher.py:39-51 / ranker.py:30-36, promoted to per-shard server
state).  Each actor hosts the in-process engine itself,
``SearchEngine(out_dir, shards=...)``: it reads only its shards' posting
entries from the shared ``<index>/cache/`` sidecars, and keeps the
GLOBAL dictionary, corpus stats (N, avg_dl, df) and docmeta.

Doc-sharding makes this exact: a document's postings live entirely in
its shard, so every actor scores its docs exactly as one unrestricted
engine would.  The driver parses nothing for the actors: it sends each
call with the caller's arguments to every actor (the method call is the
plan) and merges by one of four rules — ranked lists by the reference's
(score, ts, doc_id) order, ascending id lists as a sorted union, counts
as sums, and doc sets as a sorted union.  Option errors raise inside
the actors; Ray re-raises them as ``RayTaskError`` subclasses of the
original type, so callers still catch ``ValueError``.
"""

from __future__ import annotations

import numpy as np

import ray

from search_engine_ray.query.engine import SearchEngine, champion_order


def merge_ranked(parts: list, k: int) -> list:
    """Merge per-shard ranked lists of (score, doc_id, ts): ascending
    (score, ts, doc_id), last k.  ``k == 0`` keeps everything (the
    engines return the full list for it, the reference's list[-0:]
    quirk); a negative k has empty parts."""
    merged = sorted((r for part in parts for r in part),
                    key=lambda r: (r[0], r[2], r[1]))
    return merged[-k:]


def _first_ids(parts: list, k: int) -> list[int]:
    """Merge per-shard ascending id lists: the global first k (all of
    them when the engines were asked for k == 0)."""
    ids = sorted(i for part in parts for i in part)
    return ids[:k] if k else ids


class DistributedSearchEngine:
    """Driver-side facade: fan each call out to the shard actors and
    merge.  Same methods, arguments and results as ``SearchEngine``
    (phrase and proximity doc sets come back as lists)."""

    def __init__(self, out_dir: str, num_actors: int = 4):
        from search_engine_ray.config import EngineConfig
        from search_engine_ray.index import manifest as mf
        from search_engine_ray.text.parser import Parser

        man = mf.read_manifest(out_dir)
        self.cfg = EngineConfig(**man["config"])
        self.n_docs = man["n_docs"]
        self.parser = Parser(
            stemming=self.cfg.stemming, tokenizer=self.cfg.tokenizer,
            harvest_page_url=self.cfg.harvest_page_url,
            raw_tokens=self.cfg.raw_tokens)
        S = self.cfg.num_shards
        num_actors = min(num_actors, S)
        actor = ray.remote(SearchEngine)
        self.actors = [actor.remote(out_dir,
                                    shards=list(range(i, S, num_actors)))
                       for i in range(num_actors)]

    def _fanout(self, method: str, *args, **kwargs) -> list:
        return ray.get([getattr(a, method).remote(*args, **kwargs)
                        for a in self.actors])

    def search(self, query_text: str, k: int = 10, mode: str = "bm25",
               **options):
        """``SearchEngine.search`` (fuzzy / ts_range / search_after /
        boosts / synonyms / phrases) on every shard, merged.  Filters
        and phrase gates apply shard-locally before each actor's top-k;
        disjoint shards keep the merge exact."""
        parts = self._fanout("search", query_text, k, mode, **options)
        if mode in ("bool_and", "bool_or"):
            return _first_ids(parts, k)
        return merge_ranked(parts, k)

    def search_tiered(self, query_text: str, k: int = 10, m: int = 32,
                      fuzzy: bool = False):
        """Champion-list tiered retrieval in two rounds: (1) every shard
        returns each term's LOCAL champion prefix, and the driver
        re-selects the global top-m per term with the same rule (the
        global prefix is inside the union of local ones, and traffic is
        bounded by shards × terms × m rows); (2) every shard runs the
        engine's BM25 restricted to the champion set."""
        if k < 0 or m <= 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        rounds = self._fanout("tier_champions", query_text, m, fuzzy)
        per_term: dict[str, list] = {}
        for _, champs in rounds:
            for t, c in champs.items():
                per_term.setdefault(t, []).append(c)
        champ = []
        for cs in per_term.values():
            ids, tfs, ts = (np.concatenate(x) for x in zip(*cs))
            champ.append(ids[champion_order(ids, tfs, ts, m)])
        if not champ:
            return []
        must = np.unique(np.concatenate(champ))
        return merge_ranked(self._fanout("_search_bm25_taat",
                                         rounds[0][0], k, must=must), k)

    def search_proximity_boosted(self, query_text: str, k: int = 10,
                                 window: int = 8, weight: float = 0.5):
        """Positions and BM25 state are both shard-local, so the
        proximity bonus is too."""
        return merge_ranked(self._fanout("search_proximity_boosted",
                                         query_text, k, window, weight), k)

    def search_common_terms(self, query_text: str, k: int = 10,
                            df_den: int = 2):
        """The low-df classification uses the global dictionary every
        actor holds; the candidate gate is shard-local."""
        return merge_ranked(self._fanout("search_common_terms",
                                         query_text, k, df_den), k)

    def search_bool_and_not(self, include: list[str],
                            exclude: list[str], k: int = 10) -> list[int]:
        return _first_ids(self._fanout("search_bool_and_not", include,
                                       exclude, k), k)

    def match_counts(self, query_text: str) -> dict:
        """Disjoint shards make the global OR/AND counts plain sums."""
        parts = self._fanout("match_counts", query_text)
        return {key: sum(p[key] for p in parts) for key in ("n_or", "n_and")}

    def phrase_docs(self, terms: list[str]) -> list[int]:
        """Sorted doc ids containing the exact token sequence."""
        return sorted(int(d) for part in self._fanout("phrase_docs", terms)
                      for d in part)

    def proximity_docs(self, t1: str, t2: str, window: int = 3):
        """Sorted (doc_id, min_gap) pairs."""
        return sorted((int(d), int(g)) for docs, gaps in
                      self._fanout("proximity_docs", t1, t2, window)
                      for d, g in zip(docs, gaps))
