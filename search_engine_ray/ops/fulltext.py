"""Classic full-text serving ops beyond ranked retrieval: prefix
(wildcard) term search, fuzzy (edit-distance) term matching, KWIC
snippet extraction, and faceted result counts.

The term-level ops serve from the real index DICTIONARY (the same
bucketed ``dict/part-kbucket=*.parquet`` files the query engine loads,
built by ``sqlcheck._clean_index`` for oracle parity) as a DISTRIBUTED
parquet scan — a prefix or fuzzy lookup over a 10^9-term dictionary
must not load the whole dictionary into one process the way the
engine's own ``df_map`` (reference ``searcher.py`` full dict load,
S5) legitimately does for its in-memory serving tier.  Each batch
filter is vectorized (Arrow ``starts_with`` / numpy fixed-width byte
matrices); only the query-result-sized survivor set reaches the
driver, where the reference's capitals-collision winner rule
(``manifest.load_df_and_orig``: max ``orig_term`` per final term,
reference indexer.py:161-166) is applied.

The document-level ops (snippets, facets) are single streaming corpus
scans with a vectorized contains-prefilter per batch — the per-row
work (token window extraction) runs only on matching docs.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from search_engine_ray.text.tokenizer import simple_tokenize


def dict_files_of(index_dir: str) -> list[str]:
    """The dictionary parquet files of a built index."""
    from search_engine_ray.index.manifest import stage_dir

    return sorted(glob.glob(
        os.path.join(stage_dir(index_dir, "dict"), "**", "*.parquet"),
        recursive=True))


def _resolve_winners(parts: list[pd.DataFrame]) -> pa.Table:
    """Apply the dictionary's duplicate-final-term rule to the
    (query-result-sized) filtered rows: keep the lexicographically
    greatest ``orig_term``'s entry per final term, exactly as
    ``manifest.load_df_and_orig`` does for the full dict."""
    if not parts:
        return pa.table({"term": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64())})
    df = pd.concat(parts, ignore_index=True)
    df = (df.sort_values(["term", "orig_term"])
            .groupby("term", sort=True).last().reset_index())
    return pa.table({"term": pa.array(df["term"], pa.string()),
                     "df": pa.array(df["df"], pa.int64())})


def prefix_search_index(index_dir: str, prefix: str):
    """(term, df) for every dictionary term of a BUILT index starting
    with ``prefix`` — the wildcard query ``prefix*`` of a search
    engine, served by a distributed scan of the bucketed dict parquet
    with a vectorized ``starts_with`` filter per batch."""
    import pyarrow.compute as pc
    import ray.data

    files = dict_files_of(index_dir)
    if not files:
        return _resolve_winners([])

    def part(batch: pa.Table) -> pa.Table:
        terms = batch.column("term")
        reserved = pc.or_(pc.starts_with(terms, "\x00"),
                          pc.starts_with(terms, "\x01"))
        keep = pc.and_(pc.starts_with(terms, prefix),
                       pc.invert(reserved))
        return batch.filter(keep)

    hits = (ray.data.read_parquet(
        files, columns=["term", "orig_term", "df"])
        .map_batches(part, batch_format="pyarrow"))
    parts = [b.to_pandas() for b in hits.iter_batches(
        batch_format="pyarrow")]
    return _resolve_winners(parts)


def prefix_search(sf_dir: str, prefix: str = "s"):
    """prefix_search_index over the clean index built from the sf_dir
    documents table (the SQL-oracled driver entry)."""
    from search_engine_ray.ops.sqlcheck import _clean_index

    return prefix_search_index(_clean_index(sf_dir)[0], prefix)


def _one_edit_mask(terms: list[str], q: str) -> np.ndarray:
    """Vectorized ``levenshtein(term, q) <= 1`` over a batch of terms.

    A pair is within one edit iff the length gap is <= 1 and
    ``lcp + lcs >= max(len) - 1`` (longest common prefix + suffix):
    the uncovered middle is then at most one substitution / insertion
    / deletion.  Computed on a fixed-width CODE-POINT matrix (UTF-32
    scatter, 4 bytes/char) — character-exact for any Unicode term,
    matching DuckDB's character-based levenshtein, with no Python loop
    over terms."""
    n = len(terms)
    if n == 0:
        return np.zeros(0, dtype=bool)
    qb = np.frombuffer(q.encode("utf-32-le"), dtype=np.uint32)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    width = max(int(lens.max()), len(qb)) + 1
    mat = np.zeros((n, width), dtype=np.uint32)
    flat = np.frombuffer("".join(terms).encode("utf-32-le"),
                         dtype=np.uint32)
    # scatter each term's code points into its padded row
    rows = np.repeat(np.arange(n), lens)
    cols = np.arange(len(flat)) - np.repeat(
        np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
    mat[rows, cols] = flat
    qpad = np.zeros(width, dtype=np.uint32)
    qpad[:len(qb)] = qb
    # lcp: first mismatching column, counting only real (unpadded)
    # positions of BOTH strings
    valid = (np.arange(width) < lens[:, None]) & (np.arange(width) < len(qb))
    eq = (mat == qpad) & valid
    lcp = np.argmin(np.pad(eq, ((0, 0), (0, 1))), axis=1)
    # lcs: same on the reversed strings
    rmat = np.zeros_like(mat)
    rcols = lens[rows] - 1 - cols
    rmat[rows, rcols] = flat
    rqpad = np.zeros(width, dtype=np.uint32)
    rqpad[:len(qb)] = qb[::-1]
    req = (rmat == rqpad) & valid
    lcs = np.argmin(np.pad(req, ((0, 0), (0, 1))), axis=1)
    gap = np.abs(lens - len(qb))
    return (gap <= 1) & (lcp + lcs >= np.maximum(lens, len(qb)) - 1)


def best_one_edit(terms: list[str], df_lookup, q: str) -> str | None:
    """The best one-edit correction for ``q`` among ``terms``: highest
    df wins, ties break lexicographically; None when nothing is within
    one edit."""
    if not terms:
        return None
    mask = _one_edit_mask(terms, q)
    scored = sorted((-df_lookup[t], t)
                    for t, m in zip(terms, mask) if m)
    return scored[0][1] if scored else None


class FuzzyCorrector:
    """Memoizing did-you-mean corrector over an engine dictionary —
    the ONE implementation behind SearchEngine.fuzzy_correct, which the
    distributed engine's shard actors run too (a change to the
    correction rule cannot diverge between them).

    The dictionary is immutable per engine, so terms are bucketed by
    CHARACTER length once; a one-edit neighbor differs in length by at
    most 1, so each miss runs the vectorized kernel over just the
    three adjacent length buckets instead of the whole dictionary."""

    def __init__(self, df_map: dict):
        self.df_map = df_map
        self._by_len: dict[int, list[str]] | None = None
        self._cache: dict[str, str | None] = {}

    def _buckets(self) -> dict[int, list[str]]:
        if self._by_len is None:
            by_len: dict[int, list[str]] = {}
            for t in self.df_map:
                if not t.startswith(("\x00", "\x01")):
                    by_len.setdefault(len(t), []).append(t)
            self._by_len = by_len
        return self._by_len

    def __call__(self, term: str) -> str | None:
        hit = self._cache.get(term, ...)
        if hit is not ...:
            return hit
        by_len = self._buckets()
        L = len(term)
        cands = [t for d in (L - 1, L, L + 1)
                 for t in by_len.get(d, ())]
        best = best_one_edit(cands, self.df_map, term)
        if len(self._cache) >= 10_000:
            self._cache.clear()  # bound memo size
        self._cache[term] = best
        return best


def fuzzy_terms_index(index_dir: str, q: str):
    """(term, dist, df) for dictionary terms of a BUILT index within
    edit distance 1 of ``q`` — a search engine's did-you-mean / typo
    expansion, served by a distributed dict scan with the vectorized
    one-edit filter (no per-term DP, no Python loop)."""
    import ray.data

    files = dict_files_of(index_dir)

    def part(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column("term")
        mask = _one_edit_mask(col.to_pylist(), q)
        reserved = pc.or_(pc.starts_with(col, "\x00"),
                          pc.starts_with(col, "\x01"))
        mask &= ~reserved.to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(mask))

    if files:
        hits = (ray.data.read_parquet(
            files, columns=["term", "orig_term", "df"])
            .map_batches(part, batch_format="pyarrow"))
        parts = [b.to_pandas() for b in hits.iter_batches(
            batch_format="pyarrow")]
    else:
        parts = []
    out = _resolve_winners(parts)
    dist = [0 if t == q else 1 for t in out.column("term").to_pylist()]
    return pa.table({
        "term": out.column("term"),
        "dist": pa.array(dist, pa.int64()),
        "df": out.column("df")})


def fuzzy_terms(sf_dir: str, q: str = "sow"):
    """fuzzy_terms_index over the clean index built from the sf_dir
    documents table (the SQL-oracled driver entry)."""
    from search_engine_ray.ops.sqlcheck import _clean_index

    return fuzzy_terms_index(_clean_index(sf_dir)[0], q)


def autocomplete_index(index_dir: str, prefixes, k: int = 5):
    """Search-box autocomplete: the top-``k`` dictionary completions per
    prefix ranked by df DESC (ties: term ASC), served from the bucketed
    dict parquet of a BUILT index.

    Scale shape: one distributed dict scan filters matches for ALL
    prefixes at once; the collision winner rule + per-prefix top-k run
    inside a term-keyed bucket shuffle (complete final-term groups per
    bucket, so the max-``orig_term`` winner is decided before ranking —
    a per-batch top-k could keep a loser row whose df differs), and only
    ``n_buckets x len(prefixes) x k`` partial rows reach the driver.
    """
    import pyarrow.compute as pc
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    prefixes = list(prefixes)
    empty = pa.table({"prefix": pa.array([], pa.string()),
                      "rank": pa.array([], pa.int64()),
                      "term": pa.array([], pa.string()),
                      "df": pa.array([], pa.int64())})
    files = dict_files_of(index_dir)
    # k <= 0 completes nothing (pandas head(-1) would instead return
    # all-but-last — garbage ranks), matching the engine's k<0 => []
    if not files or not prefixes or k <= 0:
        return empty

    def part(batch: pa.Table) -> pa.Table:
        terms = batch.column("term")
        keep = pc.invert(pc.or_(pc.starts_with(terms, "\x00"),
                                pc.starts_with(terms, "\x01")))
        any_p = None
        for p in prefixes:
            m = pc.starts_with(terms, p)
            any_p = m if any_p is None else pc.or_(any_p, m)
        # per-batch pre-combine: the winner rule keeps the row of the
        # max orig_term per final term — associative, so a partial max
        # inside the batch is sound and shrinks the shuffle
        df = batch.filter(pc.and_(keep, any_p)).to_pandas()
        df = (df.sort_values(["term", "orig_term"])
                .groupby("term", sort=False).last().reset_index())
        # explicit types: a 0-match batch must not emit null-typed
        # columns into the shuffle
        return pa.table({
            "term": pa.array(df["term"], pa.string()),
            "orig_term": pa.array(df["orig_term"], pa.string()),
            "df": pa.array(df["df"], pa.int64())})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        winners = (g.sort_values(["term", "orig_term"])
                     .groupby("term", sort=False).last().reset_index())
        outs = []
        for p in prefixes:
            sub = winners[winners["term"].str.startswith(p)]
            top = sub.sort_values(["df", "term"],
                                  ascending=[False, True]).head(k)
            outs.append(pd.DataFrame({
                "prefix": p, "term": top["term"], "df": top["df"]}))
        return pd.concat(outs, ignore_index=True)

    matches = (ray.data.read_parquet(
        files, columns=["term", "orig_term", "df"])
        .map_batches(part, batch_format="pyarrow"))
    parts = bucketed_apply(matches, ["term"], per_bucket).to_pandas()
    if parts.empty:
        return empty
    rows = []
    for p in prefixes:
        top = (parts[parts["prefix"] == p]
               .sort_values(["df", "term"], ascending=[False, True])
               .head(k).reset_index(drop=True))
        top["rank"] = np.arange(1, len(top) + 1)
        rows.append(top)
    out = pd.concat(rows, ignore_index=True)
    return pa.table({
        "prefix": pa.array(out["prefix"], pa.string()),
        "rank": pa.array(out["rank"], pa.int64()),
        "term": pa.array(out["term"], pa.string()),
        "df": pa.array(out["df"], pa.int64())})


def autocomplete(sf_dir: str, prefixes=("s", "qu", "w"), k: int = 5):
    """autocomplete_index over the clean index built from the sf_dir
    documents table (the SQL-oracled driver entry)."""
    from search_engine_ray.ops.sqlcheck import _clean_index

    return autocomplete_index(_clean_index(sf_dir)[0], prefixes, k=k)


def doc_snippets(sf_dir: str, term: str = "spark", window: int = 3):
    """(doc_id, snippet): the ``window``-token context around the FIRST
    occurrence of ``term`` in each matching doc — keyword-in-context
    result presentation, as one streaming corpus scan.  A vectorized
    substring prefilter (tokens contain no spaces, so the space-joined
    token string contains ' term ' iff the token occurs) skips
    non-matching docs; the window slice runs only on matches."""
    import pyarrow.compute as pc
    import ray.data

    needle = f" {term} "

    def snip(batch: pa.Table) -> pa.Table:
        toks = [simple_tokenize(t)
                for t in batch.column("text").to_pylist()]
        joined = pa.array([" " + " ".join(ts) + " " for ts in toks],
                          pa.string())
        mask = pc.match_substring(joined, needle).to_numpy(
            zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy()
        out_id, out_sn = [], []
        for i in np.flatnonzero(mask):
            ts = toks[i]
            pos = ts.index(term) + 1  # 1-based, mirrors list_position
            a, b = max(1, pos - window), min(len(ts), pos + window)
            out_id.append(int(ids[i]))
            out_sn.append(" ".join(ts[a - 1:b]))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "snippet": pa.array(out_sn, pa.string())})

    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(snip, batch_format="pyarrow"))


def facet_counts(sf_dir: str, term: str = "spark"):
    """(source, lang, n_docs): how many docs matching ``term`` each
    (source, lang) facet holds — the facet sidebar of a search UI.
    One streaming scan with a vectorized contains-filter and a
    per-batch partial count; only dimension-sized partials (facets x
    batches rows) reach the driver, merged with one vectorized pandas
    groupby."""
    import pyarrow.compute as pc
    import ray.data

    needle = f" {term} "

    def part(batch: pa.Table) -> pa.Table:
        joined = pa.array(
            [" " + " ".join(simple_tokenize(t)) + " "
             for t in batch.column("text").to_pylist()], pa.string())
        mask = pc.match_substring(joined, needle)
        hit = batch.select(["source", "lang"]).filter(mask).to_pandas()
        # dropna=False: SQL GROUP BY keeps NULL source/lang groups;
        # pandas' default would silently drop those docs (same rule as
        # dup_rate_per_source)
        out = (hit.groupby(["source", "lang"], sort=False, dropna=False)
                  .size().rename("n_docs").reset_index())
        # explicit types: an all-NULL source/lang batch must not decay
        # to float64 and poison Ray's schema unification
        return pa.table({
            "source": pa.array(out["source"], pa.string(),
                               from_pandas=True),
            "lang": pa.array(out["lang"], pa.string(), from_pandas=True),
            "n_docs": pa.array(out["n_docs"], pa.int64())})

    partials = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["text", "source", "lang"])
        .map_batches(part, batch_format="pyarrow")).to_pandas()
    if partials.empty:
        return pa.table({"source": pa.array([], pa.string()),
                         "lang": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64())})
    out = (partials.groupby(["source", "lang"], sort=True,
                            dropna=False)["n_docs"]
           .sum().reset_index())
    return pa.table({
        "source": pa.array(out["source"], pa.string(), from_pandas=True),
        "lang": pa.array(out["lang"], pa.string(), from_pandas=True),
        "n_docs": pa.array(out["n_docs"], pa.int64())})


class SnippetExtractor:
    """Actor-pool UDF for attach_snippets: parser built once per actor;
    each pages batch emits (query_id, doc_id, snippet) for the ranked
    docs it contains."""

    def __init__(self, cfg, wanted: dict, terms: dict, window: int):
        from search_engine_ray.text.parser import Parser

        self.parser = Parser.from_config(cfg)
        self.wanted = wanted      # doc_id -> [query_id, ...]
        self.terms = terms        # query_id -> parsed term list
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        from search_engine_ray.ids import doc_id_for_url
        from search_engine_ray.text.extract import extract_text

        out_q, out_d, out_s = [], [], []
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        for url, html in zip(urls, htmls):
            did = doc_id_for_url(url)
            qids = self.wanted.get(did)
            if qids is None:
                continue
            doc = self.parser.parse_page(url, extract_text(html))
            toks = doc.tokens if doc is not None else []
            for qid in qids:
                pos = next((i for i, t in enumerate(toks)
                            if t in self.terms[qid]), None)
                if pos is None:
                    snippet = ""
                else:
                    a = max(0, pos - self.window)
                    snippet = " ".join(toks[a:pos + self.window + 1])
                out_q.append(qid)
                out_d.append(did)
                out_s.append(snippet)
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
            "snippet": pa.array(out_s, pa.string())})


def attach_snippets(index_dir: str, pages_path: str, results: pa.Table,
                    queries: "list[str]", window: int = 3) -> pa.Table:
    """SERP rendering: the ``window``-token context around the first
    query-term hit for EVERY (query_id, doc_id) row of a batch result
    table — ONE streaming scan of the pages store amortized over all
    queries (never a scan per query), with the index's OWN parser
    config so snippet tokens are exactly the tokens the engine matched.
    Docs outside the result set are skipped after a doc-id hash, so
    per-batch work is membership + parse-only-the-hits; the broadcast
    state is result-sized (k x |queries|), not corpus-sized.

    Returns ``results`` with a ``snippet`` column appended ("" when a
    ranked doc shows none of the query's terms — possible only in the
    glove-blended reference mode)."""
    import ray.data

    from search_engine_ray.config import EngineConfig
    from search_engine_ray.index import manifest as mf
    from search_engine_ray.text.parser import Parser

    cfg = EngineConfig(**mf.read_manifest(index_dir)["config"])
    parser = Parser.from_config(cfg)
    terms = {qi: set(parser.parse_sentence(q)[0])
             for qi, q in enumerate(queries)}
    wanted: dict[int, list[int]] = {}
    for qid, did in zip(results.column("query_id").to_pylist(),
                        results.column("doc_id").to_pylist()):
        wanted.setdefault(int(did), []).append(int(qid))

    snips = (ray.data.read_parquet(pages_path, columns=["url", "html"])
             .map_batches(SnippetExtractor,
                          fn_constructor_kwargs={
                              "cfg": cfg,
                              "wanted": wanted, "terms": terms,
                              "window": window},
                          batch_format="pyarrow", concurrency=2)
             ).to_pandas()
    import pandas as pd

    res = results.to_pandas()
    # a crash-interrupted pages store can hold the same url twice
    # (append-then-marker write protocol) — collapse to one snippet per
    # (query_id, doc_id) so the left-merge never duplicates ranked rows
    snips = snips.drop_duplicates(["query_id", "doc_id"])
    out = res.merge(snips, on=["query_id", "doc_id"], how="left")
    out["snippet"] = out["snippet"].fillna("")
    return pa.Table.from_pandas(out, preserve_index=False)


def serp_snippets_indexed(sf_dir: str, queries: "list[str]",
                          k: int = 10, window: int = 3) -> pa.Table:
    """Ranked SERP with snippets and ZERO corpus scan: BM25 top-k off
    the positional index, then for each hit the ``window``-token
    context around the first occurrence of the FIRST query term the doc
    contains (query order) — the occurrence position comes from the
    POSITIONAL POSTINGS (no text search), and only the k result docs'
    texts are fetched, by row-group-pruned point reads.  The scan-based
    doc_snippets/attach_snippets ops stream the whole pages store once
    per batch; this path touches index rows + k texts per query, the
    right cost shape when the corpus is 10^12 docs and k is 10.

    Returns (query_id, rank, doc_id, score_e6, snippet), rank 1 = best,
    ids in ORIGINAL documents-table space."""
    from search_engine_ray.ops.matching import positional_index
    from search_engine_ray.ops.rounding import round_half_away
    from search_engine_ray.ops.sqlcheck import _read_doc_texts

    eng, idmap = positional_index(sf_dir)
    per_query = []
    need_ids = set()
    for qid, qtext in enumerate(queries):
        res = list(reversed(eng.search(qtext, k=k, mode="bm25")))
        q, _, _ = eng.parser.parse_sentence(qtext)
        per_query.append((qid, list(dict.fromkeys(q)), res))
        need_ids.update(idmap[d] for _, d, _ in res)
    texts = _read_doc_texts(sf_dir, sorted(need_ids))
    rows = {"query_id": [], "rank": [], "doc_id": [], "score_e6": [],
            "snippet": []}
    for qid, terms, res in per_query:
        # decoded positions for the query's terms, once per query
        byterm = {}
        for t in terms:
            p = eng.postings(t)
            if p is not None:
                eng._positions_of(p)
                byterm[t] = p
        for rank, (score, did, _ts) in enumerate(res, start=1):
            snippet = ""
            for t in terms:  # first query term the doc contains
                p = byterm.get(t)
                if p is None:
                    continue
                loc = int(np.searchsorted(p["doc_ids"], did))
                if loc >= len(p["doc_ids"]) or p["doc_ids"][loc] != did:
                    continue
                pos = int(p["pos"][p["pos_off"][loc]]) + 1  # 1-based
                toks = simple_tokenize(texts[idmap[did]])
                a, b = max(1, pos - window), min(len(toks), pos + window)
                snippet = " ".join(toks[a - 1:b])
                break
            rows["query_id"].append(qid)
            rows["rank"].append(rank)
            rows["doc_id"].append(idmap[did])
            rows["score_e6"].append(int(round_half_away(
                np.array([score * 1e6]))[0]))
            rows["snippet"].append(snippet)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "score_e6": pa.array(rows["score_e6"], pa.int64()),
        "snippet": pa.array(rows["snippet"], pa.string()),
    })
