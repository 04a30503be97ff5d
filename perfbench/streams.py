"""Seeded query streams drawn from an index's own dictionary."""

from __future__ import annotations

import numpy as np

from common import STOPWORD_QUERY_TERMS

ZIPF_S = 1.0            # term weight ~ 1 / df-rank**ZIPF_S
UNKNOWN_SHARE = 0.03    # queries of one term absent from the index
STOPWORD_SHARE = 0.03   # queries of stopwords only
FIXTURE_EVERY = 40      # every 40th query is the next F3 fixture query


class ZipfTerms:
    """Dictionary terms by falling df, drawn with Zipf weights over the
    ranks, so head terms (df in the thousands) come up in proportion."""

    def __init__(self, df_map: dict, rng: np.random.Generator):
        self.terms = sorted(df_map, key=lambda t: (-df_map[t], t))
        w = np.arange(1, len(self.terms) + 1, dtype=np.float64) ** -ZIPF_S
        self.cdf = np.cumsum(w / w.sum())
        self.rng = rng

    def draw(self) -> list[str]:
        """1-5 terms."""
        k = int(self.rng.integers(1, 6))
        idx = np.searchsorted(self.cdf, self.rng.random(k) * self.cdf[-1])
        return [self.terms[j] for j in idx]


def query_stream(df_map: dict, rng: np.random.Generator, n: int) -> list[str]:
    """1-5 Zipf-weighted dictionary terms per query, plus fixed shares of
    unknown-term and stopword-only queries and the F3 fixture queries."""
    from search_engine_ray.fixtures import gen_queries

    zipf = ZipfTerms(df_map, rng)
    fixture = gen_queries()
    out = []
    for i in range(n):
        if i % FIXTURE_EVERY == FIXTURE_EVERY - 1:
            out.append(fixture[(i // FIXTURE_EVERY) % len(fixture)])
            continue
        r = rng.random()
        if r < UNKNOWN_SHARE:
            out.append(f"zzq{int(rng.integers(1 << 30))}xq")
        elif r < UNKNOWN_SHARE + STOPWORD_SHARE:
            k = int(rng.integers(1, 4))
            out.append(" ".join(rng.choice(STOPWORD_QUERY_TERMS, size=k)))
        else:
            out.append(" ".join(zipf.draw()))
    return out


def cold_bursts(df_map: dict, rng: np.random.Generator, n_bursts: int,
                burst: int) -> list[list[str]]:
    """Bursts of ``burst`` BM25 queries (1-5 Zipf-weighted terms each) in
    which no term repeats, so on a fresh engine every posting a query
    needs comes off parquet."""
    zipf = ZipfTerms(df_map, rng)
    out = []
    for _ in range(n_bursts):
        used: set[str] = set()
        qs = []
        while len(qs) < burst:
            q = [t for t in dict.fromkeys(zipf.draw()) if t not in used]
            if q:
                used.update(q)
                qs.append(" ".join(q))
        out.append(qs)
    return out
