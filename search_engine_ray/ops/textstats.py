"""Text-analysis operators for training-data pipelines.

All operators are vectorized ``map_batches`` stages over the `documents`
table; the SQL-checkable ones use the `simple` tokenizer whose semantics
are exactly DuckDB's ``regexp_split_to_array(lower(text),'[^a-z0-9]+')``
minus empties, so the driver's DuckDB oracle verifies values.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from search_engine_ray.ops.rounding import round_half_away
from search_engine_ray.text.tokenizer import simple_tokenize

# GPT-2-style pre-tokenizer, simplified to the RE2-compatible subset
# (no lookahead; explicit whitespace class so Python `re` and DuckDB's
# RE2 interpret the IDENTICAL pattern source identically — the SQL
# oracle interpolates this same string).  Alternation is leftmost-first
# in both engines, so contraction suffixes win over the punct run.
_BPE_PAT_SRC = ("'(?:s|t|re|ve|m|ll|d)"
                "| ?[a-z]+| ?[0-9]+"
                "| ?[^a-z0-9 \\t\\n\\r\\f\\x0b]+"
                "|[ \\t\\n\\r\\f\\x0b]+")
_BPE_RE = re.compile(_BPE_PAT_SRC)

# tiny per-language stopword profiles for heuristic language ID
_LANG_PROFILES = {
    "en": {"the", "and", "of", "to", "is", "in", "that", "it", "for", "was"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "los", "se", "por"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "von", "mit", "den", "zu"},
    "fr": {"le", "la", "et", "les", "des", "est", "un", "une", "que", "pour"},
}


def doc_token_stats(batch: pa.Table) -> pa.Table:
    """Per-doc simple-token count + char count.  SQL-equivalent:
    len(list_filter(regexp_split_to_array(lower(text),'[^a-z0-9]+'),
    x -> x <> ''))."""
    texts = batch.column("text").to_pylist()
    toks = [simple_tokenize(t) for t in texts]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        "n_tokens": pa.array([len(ts) for ts in toks], pa.int64()),
    })


def bpe_token_stats(batch: pa.Table) -> pa.Table:
    """Per-doc BPE-ish token count: matches of the GPT-2-style
    pre-tokenizer regex over lower(text).  The LLM-training 'how many
    tokens is this corpus' estimator (whitespace runs and punctuation
    runs count as tokens, contraction suffixes split off)."""
    texts = batch.column("text").to_pylist()
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_bpe_tokens": pa.array(
            [len(_BPE_RE.findall(t.lower())) for t in texts], pa.int64()),
    })


class LangId:
    """Heuristic language ID (stopword-profile voting) — an actor-pool
    stage; profiles compiled once per actor."""

    def __init__(self):
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        preds = []
        for t in texts:
            ts = set(simple_tokenize(t))
            best, best_n = "unknown", 0
            for lang, prof in self.profiles.items():
                n = len(ts & prof)
                if n > best_n:
                    best, best_n = lang, n
            preds.append(best)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang_pred": pa.array(preds, pa.string()),
        })


# winnowing fingerprint constants (shared verbatim with the SQL oracle):
# Karp-Rabin polynomial base/modulus chosen so every intermediate fits
# exact uint64 arithmetic (products < M * max_codepoint < 2^52)
WINNOW_B = 263
WINNOW_M = (1 << 31) - 1
WINNOW_K = 8   # character k-gram length
WINNOW_W = 4   # winnowing window (grams per window)


def winnow_fingerprints(batch: pa.Table) -> pa.Table:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, MOSS):
    polynomial rolling-hash every character k-gram of lower(text), then
    keep the DISTINCT per-window minima over w consecutive gram hashes —
    the near-dup fingerprint set whose overlap is position-robust.
    Vectorized: one sliding-window matmul per doc, exact uint64.  Docs
    shorter than k emit nothing; docs with fewer than w grams emit the
    single min (the standard short-doc rule)."""
    from numpy.lib.stride_tricks import sliding_window_view

    k, w, m = WINNOW_K, WINNOW_W, WINNOW_M
    pows = np.array([pow(WINNOW_B, k - 1 - j, m) for j in range(k)],
                    dtype=np.uint64)
    ids_out: list[int] = []
    fps_out: list[int] = []
    for did, t in zip(batch.column("doc_id").to_pylist(),
                      batch.column("text").to_pylist()):
        codes = np.frombuffer(t.lower().encode("utf-32-le"),
                              dtype=np.uint32).astype(np.uint64)
        if codes.size < k:
            continue
        grams = (sliding_window_view(codes, k) * pows).sum(axis=1) % m
        if grams.size >= w:
            mins = sliding_window_view(grams, w).min(axis=1)
        else:
            mins = grams.min(keepdims=True)
        for fp in np.unique(mins):
            ids_out.append(did)
            fps_out.append(int(fp))
    return pa.table({
        "doc_id": pa.array(ids_out, pa.int64()),
        "fp": pa.array(fps_out, pa.int64()),
    })


def md5_fp64(texts: "list[str]") -> np.ndarray:
    """Upper-8-bytes-little-endian md5 content fingerprint per text, as
    uint64 — THE deterministic sampling/probe key every mod-residue and
    priority sampler (and their SQL oracle mirrors) rank on.  Single
    point of truth: six ops used to carry private copies; a digest-slice
    or endianness drift in one would silently break cross-op and
    Ray-vs-SQL consistency."""
    import hashlib as _h

    return np.array(
        [int.from_bytes(_h.md5(t.encode("utf-8")).digest()[8:], "little")
         for t in texts], dtype=np.uint64)


# ---------------------------------------------------------------- pipelines
def term_df_simple(sf_dir: str):
    """df per simple-tokenizer term over `documents`, df > 1 — the A1
    aggregation expressed SQL-checkably.  Pre-aggregates per batch before
    the groupby (partial combine), as at scale."""
    import ray.data

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(set(simple_tokenize(t)))
        return pa.table({
            "term": pa.array(list(c.keys()), pa.string()),
            "df_part": pa.array(list(c.values()), pa.int64()),
        })

    from search_engine_ray.ops.shuffle import bucketed_sum

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])
    agg = bucketed_sum(ds.map_batches(partials, batch_format="pyarrow"),
                       ["term"], ["df_part"], rename={"df_part": "df"})
    return agg.filter(expr="df > 1")


def top_terms_simple(sf_dir: str, k: int = 100):
    """Top-k terms by (df desc, term asc)."""
    ds = term_df_simple(sf_dir)
    return ds.sort(["df", "term"], descending=[True, False]).limit(k)


def token_count_total(sf_dir: str):
    """Corpus-wide token count (simple tokenizer) — one-row scalar."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    stats = ds.map_batches(doc_token_stats, batch_format="pyarrow")
    total = stats.aggregate(Sum("n_tokens"))
    # Dataset.aggregate returns None for an empty dataset
    val = int(next(iter(total.values()))) if total else 0
    return pa.table({"total_tokens": pa.array([val], pa.int64())})


def lang_counts(sf_dir: str):
    import ray.data
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n"))


def top_terms_per_lang(sf_dir: str, k: int = 10):
    """Per-language top-k terms by total occurrences — the grouped-top-k
    operator (partial combine per (lang, term) inside map_batches, one
    groupby sum, then a tiny per-lang top-k in map_groups).
    Tie-break (n desc, term asc); rank 1 = most frequent."""
    import pandas as pd
    import ray.data

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for lang, t in zip(batch.column("lang").to_pylist(),
                           batch.column("text").to_pylist()):
            for tok in simple_tokenize(t):
                c[(lang, tok)] += 1
        return pa.table({
            "lang": pa.array([x for x, _ in c.keys()], pa.string()),
            "term": pa.array([x for _, x in c.keys()], pa.string()),
            "n_part": pa.array(list(c.values()), pa.int64()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["lang", "text"])
    from search_engine_ray.ops.shuffle import bucketed_sum

    agg = bucketed_sum(ds.map_batches(partials, batch_format="pyarrow"),
                       ["lang", "term"], ["n_part"],
                       rename={"n_part": "n"})

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "term"],
                          ascending=[False, True]).head(k).copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return agg.groupby("lang").map_groups(topk, batch_format="pandas")


def sample_mod(sf_dir: str, pct: int = 10):
    """Deterministic corpus sample: keep docs whose 64-bit md5 content
    hash falls in ``pct`` of 100 residue classes — the reproducible,
    coordination-free sampling a training-data pipeline uses for held-out
    splits (same rows on every run and every cluster size)."""
    import hashlib as _h

    import ray.data

    def pick(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keep = (md5_fp64(texts) % np.uint64(100)) < pct
        return batch.select(["doc_id"]).filter(pa.array(keep))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(pick, batch_format="pyarrow")


def quality_filter_ids(sf_dir: str, min_tokens: int = 30,
                       min_mean_len_x: int = 4):
    """Quality-gate filter: keep docs with >= min_tokens simple tokens
    AND mean token length >= min_mean_len_x (integer predicate:
    sum_token_len >= min_mean_len_x * n_tokens) — the shape of a
    pre-training corpus filter.  Returns (doc_id, n_tokens)."""
    import ray.data

    def pick(batch: pa.Table) -> pa.Table:
        n_tok, sum_len = [], []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)
            n_tok.append(len(ts))
            sum_len.append(sum(len(x) for x in ts))
        n = np.asarray(n_tok, dtype=np.int64)
        s = np.asarray(sum_len, dtype=np.int64)
        keep = (n >= min_tokens) & (s >= min_mean_len_x * n)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n, pa.int64()),
        }).filter(pa.array(keep))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(pick, batch_format="pyarrow")


# PII patterns: RE2-compatible sources shared verbatim with the SQL
# oracle (character classes + bounded repeats only; \b is an ASCII word
# boundary in both Python `re` and DuckDB's RE2).
PII_EMAIL_SRC = r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}"
PII_IP_SRC = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"


class PiiScanner:
    """Actor-pool PII scanner: compiled patterns once per actor,
    per-batch partial combine per lang (email/IP match counts, docs
    with any hit).  The synthetic corpus carries no PII, so a
    DETERMINISTIC augmentation (doc_id-keyed email / IP suffixes) is
    applied identically on the Ray and SQL sides — the op's regex path
    is what's under test."""

    def __init__(self, augment: bool = True):
        self.email = re.compile(PII_EMAIL_SRC)
        self.ip = re.compile(PII_IP_SRC)
        self.augment = augment

    @staticmethod
    def _augmented(doc_id: int, text: str) -> str:
        if doc_id % 7 == 0:
            text += f" contact user{doc_id}@example.com now"
        if doc_id % 11 == 0:
            text += f" from 10.0.{doc_id % 256}.{doc_id % 100}"
        return text

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # typed empty: [] lists decay to float64
            return pa.table({"lang": pa.array([], pa.string()),
                             "ne": pa.array([], pa.int64()),
                             "ni": pa.array([], pa.int64()),
                             "hit": pa.array([], pa.int64()),
                             "one": pa.array([], pa.int64())})
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        if self.augment:
            texts = [self._augmented(int(i), t)
                     for i, t in zip(ids, texts)]
        ne = np.array([len(self.email.findall(t)) for t in texts],
                      dtype=np.int64)
        ni = np.array([len(self.ip.findall(t)) for t in texts],
                      dtype=np.int64)
        df = pd.DataFrame({
            "lang": batch.column("lang").to_pylist(),
            "ne": ne, "ni": ni,
            "hit": ((ne > 0) | (ni > 0)).astype(np.int64),
            "one": np.ones(len(ne), dtype=np.int64)})
        g = df.groupby("lang", sort=False).agg(
            ne=("ne", "sum"), ni=("ni", "sum"),
            hit=("hit", "sum"), one=("one", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)


def pii_scan(sf_dir: str):
    """Per-lang PII exposure: email/IP regex match counts and the number
    of documents with any hit (deterministically augmented corpus)."""
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang", "text"])
    return (ds.map_batches(PiiScanner, batch_format="pyarrow",
                           concurrency=2)
              .groupby("lang")
              .aggregate(Sum("ne", alias_name="n_emails"),
                         Sum("ni", alias_name="n_ips"),
                         Sum("hit", alias_name="n_docs_with_pii"),
                         Sum("one", alias_name="n_docs")))


def repetition_stats(sf_dir: str):
    """Gopher-style repetition signals per doc over simple tokens:
    total tokens, unique tokens, the top token's frequency and the top
    adjacent-bigram's frequency.  All integers — exact SQL check."""
    import ray.data

    def per_doc(batch: pa.Table) -> pa.Table:
        n_tok, n_uniq, top_tf, top_bg = [], [], [], []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)
            n_tok.append(len(ts))
            if ts:
                _, cnt = np.unique(ts, return_counts=True)
                n_uniq.append(len(cnt))
                top_tf.append(int(cnt.max()))
            else:
                n_uniq.append(0)
                top_tf.append(0)
            if len(ts) >= 2:
                bg = [ts[i] + " " + ts[i + 1] for i in range(len(ts) - 1)]
                _, bcnt = np.unique(bg, return_counts=True)
                top_bg.append(int(bcnt.max()))
            else:
                top_bg.append(0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_unique": pa.array(n_uniq, pa.int64()),
            "top_tf": pa.array(top_tf, pa.int64()),
            "top_bigram_tf": pa.array(top_bg, pa.int64()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(per_doc, batch_format="pyarrow")


# -------------------------------------------------- decontamination
# Two plans behind one mode switch:
#   "broadcast" — collect the benchmark's n-gram set on the driver and
#     ray.put it (ONE copy in the object store, read by every task).
#     Right whenever the benchmark is a real eval suite: KBs-MBs next
#     to a 100-TB corpus.
#   "shuffle" — a gram-keyed tagged-union anti-join: benchmark grams
#     (side 1) and corpus (gram, doc_id) rows (side 0) co-partitioned
#     by gram hash; contaminated ids fall out of a vectorized isin per
#     bucket.  Right when the "benchmark" scales with the corpus (the
#     fixture's doc_id % mod slice is ~1% OF THE CORPUS) — nothing is
#     ever materialized on the driver.
#   "auto" — count the benchmark docs with a column-pruned doc_id scan
#     and broadcast only below ``broadcast_max_bench_docs``.
# Grams travel as 63-bit blake2 hashes in the shuffle plan: collision
# odds are |bench|x|corpus|/2^63 (negligible), and the broadcast plan
# (which the SQL oracle mirrors exactly) uses the strings themselves.

_BROADCAST_MAX_BENCH_DOCS = 100_000


def _gram_hashes(ts: list[str], n: int) -> np.ndarray:
    """Distinct 63-bit hashes of the n-token shingles of one doc."""
    import hashlib

    gs = {" ".join(ts[j:j + n]) for j in range(len(ts) - n + 1)}
    if not gs:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.fromiter(
        (int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8)
                        .digest(), "little") & 0x7FFF_FFFF_FFFF_FFFF
         for g in gs), dtype=np.int64, count=len(gs)))


def _contaminated_ids_shuffled(sf_dir: str, n: int, mod: int):
    """Distributed contaminated-id detection: Dataset of doc_ids (with
    possible duplicates across gram buckets) of non-benchmark docs that
    share at least one n-gram with any benchmark doc."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    path = os.path.join(sf_dir, "documents.parquet")

    def gram_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        g_parts, id_parts, side_parts = [], [], []
        for i, t in zip(ids, batch.column("text").to_pylist()):
            hs = _gram_hashes(simple_tokenize(t), n)
            if not len(hs):
                continue
            g_parts.append(hs)
            id_parts.append(np.full(len(hs), int(i), dtype=np.int64))
            side_parts.append(np.full(
                len(hs), 1 if int(i) % mod == 0 else 0, dtype=np.int8))
        if not g_parts:
            return pa.table({"g": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "side": pa.array([], pa.int8())})
        return pa.table({
            "g": pa.array(np.concatenate(g_parts)),
            "doc_id": pa.array(np.concatenate(id_parts)),
            "side": pa.array(np.concatenate(side_parts))})

    rows = (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(gram_rows, batch_format="pyarrow"))

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        bench = g["g"].to_numpy()[side == 1]
        cor_g = g["g"].to_numpy()[side == 0]
        cor_id = g["doc_id"].to_numpy()[side == 0]
        hit = np.isin(cor_g, bench)
        return pd.DataFrame({"doc_id": pd.Series(
            np.unique(cor_id[hit]), dtype="int64")})

    return bucketed_apply(rows, ["g"], mark)


def _bench_gram_set_ref(sf_dir: str, n: int, mod: int):
    """Broadcast plan's benchmark gram set: collected once, ray.put."""
    import ray
    import ray.data

    path = os.path.join(sf_dir, "documents.parquet")

    def bench_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        out = set()
        for i, t in zip(ids, batch.column("text").to_pylist()):
            if int(i) % mod != 0:
                continue
            ts = simple_tokenize(t)
            for j in range(len(ts) - n + 1):
                out.add(" ".join(ts[j:j + n]))
        return pa.table({"g": pa.array(sorted(out), pa.string())})

    grams_ds = (ray.data.read_parquet(path, columns=["doc_id", "text"])
                .map_batches(bench_grams, batch_format="pyarrow"))
    return ray.put(frozenset(grams_ds.to_pandas()["g"].tolist()))


def _decontam_mode(sf_dir: str, mod: int, mode: str) -> str:
    if mode != "auto":
        return mode
    import ray.data

    def bench_count(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        return pa.table({"n": pa.array(
            [int(((ids % mod) == 0).sum())], pa.int64())})

    n_bench = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
        .map_batches(bench_count, batch_format="pyarrow").sum("n"))
    return ("broadcast" if n_bench <= _BROADCAST_MAX_BENCH_DOCS
            else "shuffle")


def contamination_check(sf_dir: str, n: int = 4, mod: int = 97,
                        mode: str = "broadcast"):
    """Benchmark-contamination scan: the 'benchmark' is every doc with
    doc_id % mod == 0; every other doc is flagged if it shares any
    n-token shingle with it.  Returns per-lang doc/contaminated counts.
    ``mode``: "broadcast" (default — real eval suites are tiny),
    "shuffle" (gram-keyed anti-join, for corpus-scaled benchmark sets),
    or "auto" (count benchmark docs, then pick)."""
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    path = os.path.join(sf_dir, "documents.parquet")
    mode = _decontam_mode(sf_dir, mod, mode)

    if mode == "broadcast":
        grams_ref = _bench_gram_set_ref(sf_dir, n, mod)

        def flag(batch: pa.Table) -> pa.Table:
            gs = ray.get(grams_ref)
            ids = batch.column("doc_id").to_numpy()
            langs = batch.column("lang").to_pylist()
            rows = {"lang": [], "c": [], "one": []}
            for i, lang, t in zip(ids, langs,
                                  batch.column("text").to_pylist()):
                if int(i) % mod == 0:
                    continue
                ts = simple_tokenize(t)
                hit = any(" ".join(ts[j:j + n]) in gs
                          for j in range(len(ts) - n + 1))
                rows["lang"].append(lang)
                rows["c"].append(int(hit))
                rows["one"].append(1)
            if not rows["lang"]:
                # typed empty frame: plain [] lists carry float64 dtypes
                # and an all-benchmark block would poison Ray's schema
                # unification (lang double vs string)
                return pa.table({"lang": pa.array([], pa.string()),
                                 "c": pa.array([], pa.int64()),
                                 "one": pa.array([], pa.int64())})
            g = pd.DataFrame(rows).groupby("lang", sort=False).agg(
                c=("c", "sum"), one=("one", "sum")).reset_index()
            return pa.Table.from_pandas(g, preserve_index=False)

        ds = ray.data.read_parquet(path,
                                   columns=["doc_id", "lang", "text"])
        return (ds.map_batches(flag, batch_format="pyarrow")
                  .groupby("lang")
                  .aggregate(Sum("c", alias_name="n_contaminated"),
                             Sum("one", alias_name="n_docs")))

    # shuffle plan: contaminated ids (side 1) anti-join the corpus'
    # (doc_id, lang) rows (side 0), co-partitioned on doc_id — then a
    # tiny per-lang aggregate
    from search_engine_ray.ops.shuffle import bucketed_apply

    cont = _contaminated_ids_shuffled(sf_dir, n, mod)

    def cont_side(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "lang": pa.array([""] * batch.num_rows, pa.string()),
            "side": pa.array(np.ones(batch.num_rows, dtype=np.int8))})

    def corpus_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keep = (ids % mod) != 0
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "lang": batch.column("lang").filter(pa.array(keep)),
            "side": pa.array(np.zeros(int(keep.sum()), dtype=np.int8))})

    docs = (ray.data.read_parquet(path, columns=["doc_id", "lang"])
            .map_batches(corpus_side, batch_format="pyarrow"))
    tagged = docs.union(cont.map_batches(cont_side,
                                         batch_format="pyarrow"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        bad = g["doc_id"].to_numpy()[side == 1]
        cor = g[side == 0]
        if not len(cor):
            return pd.DataFrame({"lang": pd.Series([], dtype="object"),
                                 "c": pd.Series([], dtype="int64"),
                                 "one": pd.Series([], dtype="int64")})
        hit = np.isin(cor["doc_id"].to_numpy(), bad)
        out = pd.DataFrame({"lang": cor["lang"].to_numpy(),
                            "c": hit.astype(np.int64),
                            "one": np.ones(len(cor), dtype=np.int64)})
        return (out.groupby("lang", sort=False)
                   .agg(c=("c", "sum"), one=("one", "sum"))
                   .reset_index())

    from ray.data.aggregate import Sum

    return (bucketed_apply(tagged, ["doc_id"], per_bucket)
            .groupby("lang")
            .aggregate(Sum("c", alias_name="n_contaminated"),
                       Sum("one", alias_name="n_docs")))


# per-source keep-percentages for the mixing op — the single source of
# truth; the SQL oracle's CASE expression is generated from this dict.
MIX_WEIGHTS = {f"src{i}": (7 * i + 13) % 101 for i in range(20)}
MIX_DEFAULT = 100


def source_mix_sample(sf_dir: str):
    """Source-weighted corpus mixing (the data-mixture step of a
    training pipeline): keep a doc iff its deterministic content-hash
    residue falls under its source's keep-percentage.  Coordination-free
    and reproducible at any cluster size — same rule as ``sample_mod``,
    weighted per source."""
    import hashlib as _h

    import ray.data

    def pick(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist()
        thresh = np.array([MIX_WEIGHTS.get(s, MIX_DEFAULT) for s in srcs],
                          dtype=np.uint64)
        keep = (md5_fp64(texts) % np.uint64(100)) < thresh
        return batch.select(["doc_id", "source"]).filter(pa.array(keep))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "source", "text"])
    return ds.map_batches(pick, batch_format="pyarrow")


def packing_plan(sf_dir: str, chunk_tokens: int = 512,
                 group_size: int = 1000):
    """GPT-style sequence-packing plan: concatenate all docs in doc_id
    order and slice fixed ``chunk_tokens`` windows; each doc maps to
    (tok_start, chunk_first, chunk_last).  Distributed as a two-phase
    EXCLUSIVE PREFIX SCAN: phase 1 reduces per-group token totals
    (group = doc_id // group_size) to a tiny table, the driver cumsums
    it (one row per group — KBs at any corpus size) and broadcasts the
    group offsets; phase 2 computes within-group prefixes under
    ``groupby(g).map_groups``.  Deterministic regardless of block
    order or cluster size because the scan order is doc_id, not
    partition arrival.  Size ``group_size`` so corpus/group_size rows
    fit the driver (~1e6 at cluster scale keeps the offsets table at
    one row per million docs); a third scan level would bound it
    further if ever needed."""
    import ray
    import ray.data

    path = os.path.join(sf_dir, "documents.parquet")

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        n = np.array([len(simple_tokenize(t))
                      for t in batch.column("text").to_pylist()],
                     dtype=np.int64)
        return pa.table({
            "g": pa.array(ids // group_size, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "n": pa.array(n, pa.int64())})

    base = (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(counts, batch_format="pyarrow"))

    from search_engine_ray.ops.shuffle import bucketed_sum, grouped_apply

    totals = (bucketed_sum(base, ["g"], ["n"], rename={"n": "tot"})
              .to_pandas().sort_values("g"))
    off = np.concatenate([[0], np.cumsum(totals["tot"].to_numpy())[:-1]])
    offsets = dict(zip(totals["g"].astype(int), off.astype(int)))
    off_ref = ray.put(offsets)

    def per_group(grp: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(off_ref)[int(grp["g"].iloc[0])]
        grp = grp.sort_values("doc_id").reset_index(drop=True)
        n = grp["n"].to_numpy()
        start = o + np.concatenate([[0], np.cumsum(n)[:-1]])
        last_tok = start + np.maximum(n, 1) - 1
        return pd.DataFrame({
            "doc_id": grp["doc_id"].astype("int64"),
            "tok_start": start.astype("int64"),
            "chunk_first": (start // chunk_tokens).astype("int64"),
            "chunk_last": (last_tok // chunk_tokens).astype("int64")})

    return grouped_apply(base, ["g"], per_group)


def chunk_documents(sf_dir: str, chunk: int = 32, stride: int = 24):
    """Per-doc sliding-window chunking (RAG / long-context training
    prep): doc tokens -> overlapping windows of ``chunk`` tokens every
    ``stride`` tokens.  Chunk i covers tokens [i*stride, i*stride+chunk)
    for every i*stride < n, so tails shorter than ``chunk`` are kept
    and every token lands in >=1 chunk.  Tokenization is a plain
    single-space split, mirrored verbatim by the SQL oracle's
    string_split — complementary to packing_plan (which packs ACROSS
    docs); this op never crosses a doc boundary.

    Scale shape: embarrassingly parallel — one streaming map_batches,
    no shuffle, output ~n/stride rows per doc.  Returns
    (doc_id, chunk_idx, n_tokens, chunk_text)."""
    import ray.data

    def chunks(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        out_id, out_ci, out_n, out_tx = [], [], [], []
        for i, t in enumerate(batch.column("text").to_pylist()):
            toks = t.split(" ")
            n = len(toks)
            for ci, s in enumerate(range(0, n, stride)):
                piece = toks[s:s + chunk]
                out_id.append(ids[i])
                out_ci.append(ci)
                out_n.append(len(piece))
                out_tx.append(" ".join(piece))
        return pa.table({
            "doc_id": pa.array(np.asarray(out_id, np.int64), pa.int64()),
            "chunk_idx": pa.array(np.asarray(out_ci, np.int64),
                                  pa.int64()),
            "n_tokens": pa.array(np.asarray(out_n, np.int64), pa.int64()),
            "chunk_text": pa.array(out_tx, pa.string())})

    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(chunks, batch_format="pyarrow"))


# whitespace class shared VERBATIM with the SQL oracle (RE2 and Python
# `re` agree on this explicit ASCII class; bare \s would not — Python's
# is unicode-wide on str).
WS_CLASS_SRC = "[ \\t\\n\\r\\f\\v]+"


def norm_fingerprint(sf_dir: str):
    """Normalization fingerprint: md5 hex of lower(text) with ASCII
    whitespace runs collapsed to single spaces and ends trimmed — the
    canonical-form dedup key (catches case/whitespace-only near-dups
    that byte-exact dedup misses)."""
    import hashlib as _h

    import ray.data

    ws = re.compile(WS_CLASS_SRC)

    def fp(batch: pa.Table) -> pa.Table:
        outs = []
        for t in batch.column("text").to_pylist():
            norm = ws.sub(" ", t.lower()).strip(" ")
            outs.append(_h.md5(norm.encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "norm_md5": pa.array(outs, pa.string())})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(fp, batch_format="pyarrow")


def epoch_order(sf_dir: str, seed: int = 0):
    """Deterministic epoch shuffle: the global training order
    (doc_id, pos) where pos is the doc's rank under
    ``md5(seed || ':' || doc_id)`` — a reproducible full-corpus shuffle
    with NO random state to ship (any worker, any epoch, any restart
    recomputes the same order from the seed alone; change the seed per
    epoch for a fresh permutation).  This is the data-ordering step of
    a training pipeline, mirrored exactly by SQL row_number over the
    same md5 key.

    Scale shape: a global rank without a global sort-and-enumerate —
    the hash key's FIRST BYTE partitions the order into 256 contiguous
    key ranges whose counts reach the driver (256 rows at any corpus
    size); the driver cumsums them into range offsets and each range
    sorts and enumerates independently (the packing_plan two-phase
    prefix-scan shape, keyed by hash range instead of doc group)."""
    import hashlib as _h

    import ray
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_sum, grouped_apply

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keys = [_h.md5(f"{seed}:{i}".encode()).hexdigest() for i in ids]
        return pa.table({
            "g": pa.array(np.array([int(k[:2], 16) for k in keys],
                                   np.int64), pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "key": pa.array(keys, pa.string()),
            "one": pa.array(np.ones(len(ids), np.int64), pa.int64())})

    base = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
        .map_batches(keyed, batch_format="pyarrow"))
    totals = (bucketed_sum(base.select_columns(["g", "one"]),
                           ["g"], ["one"], rename={"one": "tot"})
              .to_pandas().sort_values("g"))
    off = np.concatenate([[0], np.cumsum(totals["tot"].to_numpy())[:-1]])
    offsets = dict(zip(totals["g"].astype(int), off.astype(int)))
    off_ref = ray.put(offsets)

    def per_range(grp: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(off_ref)[int(grp["g"].iloc[0])]
        grp = grp.sort_values(["key", "doc_id"]).reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": grp["doc_id"].astype("int64"),
            "pos": (o + np.arange(len(grp))).astype("int64")})

    return grouped_apply(base.select_columns(["g", "doc_id", "key"]),
                         ["g"], per_range)


def stratified_sample_k(sf_dir: str, k: int = 20):
    """Stratified sampling: EXACTLY ``k`` docs per source, chosen by
    deterministic content-hash order (md5 low 64 bits, doc_id
    tie-break) — the reproducible per-stratum subset a training mix
    needs when residue sampling (``sample_mod``) can't hit an exact
    count.  Each batch prunes to its local k per source before the
    shuffle, so the groupby moves at most k rows per (batch, source)."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        ids = batch.column("doc_id").to_numpy()
        hs = md5_fp64(batch.column("text").to_pylist())
        df = pd.DataFrame({"source": srcs, "doc_id": ids, "h": hs})
        df = (df.sort_values(["source", "h", "doc_id"])
                .groupby("source", sort=False).head(k))
        return pa.Table.from_pandas(df, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id"]).head(k)
        return g[["source", "doc_id"]]

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "source", "text"])
    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("source").map_groups(final, batch_format="pandas"))


def corpus_freq_doc_score(sf_dir: str, vocab_k: int = 512):
    """Unigram corpus-frequency scoring (the integer-exact core of a
    perplexity-style quality filter): pass 1 aggregates total token
    counts and keeps the top ``vocab_k`` terms (count desc, term asc);
    pass 2 scores every doc against the BROADCAST vocabulary —
    (n_tokens, n_invocab, sum_freq), all int64, no float logs so the
    value-hash is exact.  Low n_invocab/n_tokens ≈ high surprisal."""
    import ray
    import ray.data

    path = os.path.join(sf_dir, "documents.parquet")

    def counts(batch: pa.Table) -> pa.Table:
        toks: dict[str, int] = {}
        for t in batch.column("text").to_pylist():
            for x in simple_tokenize(t):
                toks[x] = toks.get(x, 0) + 1
        return pa.table({"term": pa.array(list(toks), pa.string()),
                         "c": pa.array(list(toks.values()), pa.int64())})

    from search_engine_ray.ops.shuffle import bucketed_sum

    vocab_t = (bucketed_sum(
        ray.data.read_parquet(path, columns=["text"])
        .map_batches(counts, batch_format="pyarrow"), ["term"], ["c"])
        .sort(["c", "term"], descending=[True, False])
        .limit(vocab_k).to_pandas())
    vocab = dict(zip(vocab_t["term"], vocab_t["c"].astype("int64")))
    vocab_ref = ray.put(vocab)

    def score(batch: pa.Table) -> pa.Table:
        v = ray.get(vocab_ref)
        n_tok, n_in, s_freq = [], [], []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)
            freqs = [v[x] for x in ts if x in v]
            n_tok.append(len(ts))
            n_in.append(len(freqs))
            s_freq.append(sum(freqs))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_invocab": pa.array(n_in, pa.int64()),
            "sum_freq": pa.array(s_freq, pa.int64())})

    return (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(score, batch_format="pyarrow"))


def decontaminate_ids(sf_dir: str, n: int = 4, mod: int = 97,
                      mode: str = "auto"):
    """Decontamination APPLY: the doc_ids a training run may keep —
    non-benchmark docs sharing NO ``n``-gram with the benchmark set
    (doc_id % mod == 0 marks the benchmark, as in contamination_check).
    The output is the keep-list a curation write intersects with.
    ``mode`` as in contamination_check: broadcast for real (tiny)
    benchmark suites, a gram-keyed shuffle anti-join when the benchmark
    scales with the corpus, auto-picked by benchmark doc count."""
    import ray
    import ray.data

    path = os.path.join(sf_dir, "documents.parquet")
    mode = _decontam_mode(sf_dir, mod, mode)

    if mode == "broadcast":
        grams_ref = _bench_gram_set_ref(sf_dir, n, mod)

        def keep(batch: pa.Table) -> pa.Table:
            gs = ray.get(grams_ref)
            ids = batch.column("doc_id").to_numpy()
            mask = np.zeros(len(ids), dtype=bool)
            for r, (i, t) in enumerate(
                    zip(ids, batch.column("text").to_pylist())):
                if int(i) % mod == 0:
                    continue
                ts = simple_tokenize(t)
                mask[r] = not any(" ".join(ts[j:j + n]) in gs
                                  for j in range(len(ts) - n + 1))
            return batch.select(["doc_id"]).filter(pa.array(mask))

        return (ray.data.read_parquet(path, columns=["doc_id", "text"])
                .map_batches(keep, batch_format="pyarrow"))

    # shuffle plan: contaminated ids (side 1, from the gram-keyed
    # anti-join) drop out of the non-benchmark corpus ids (side 0) in a
    # doc_id-co-partitioned anti-join — nothing touches the driver
    from search_engine_ray.ops.shuffle import bucketed_apply

    cont = _contaminated_ids_shuffled(sf_dir, n, mod)

    def cont_side(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "side": pa.array(np.ones(batch.num_rows, dtype=np.int8))})

    def corpus_side(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keep = (ids % mod) != 0
        return pa.table({
            "doc_id": pa.array(ids[keep], pa.int64()),
            "side": pa.array(np.zeros(int(keep.sum()), dtype=np.int8))})

    docs = (ray.data.read_parquet(path, columns=["doc_id"])
            .map_batches(corpus_side, batch_format="pyarrow"))
    tagged = docs.union(cont.map_batches(cont_side,
                                         batch_format="pyarrow"))

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        side = g["side"].to_numpy()
        bad = g["doc_id"].to_numpy()[side == 1]
        ids = g["doc_id"].to_numpy()[side == 0].astype(np.int64)
        return pd.DataFrame({"doc_id": pd.Series(
            ids[~np.isin(ids, bad)], dtype="int64")})

    return bucketed_apply(tagged, ["doc_id"], anti)


def winnow_shared_pairs(sf_dir: str, min_shared: int = 20,
                        max_fp_df: int = 64):
    """Cross-document local-overlap detection (the MOSS use of winnowing):
    doc pairs sharing >= ``min_shared`` winnow fingerprints — catches
    copied PASSAGES that whole-document minhash misses.  Fingerprints
    shared by more than ``max_fp_df`` docs are boilerplate (stop-grams)
    and are skipped, exactly as df-capped terms in keyword search; the
    cap also bounds per-group pair emission at max_fp_df^2 (the SQL
    oracle applies the identical cap).  Two shuffles: fp -> in-group
    pairs, then (id_a, id_b) -> shared-count."""
    import ray.data

    from search_engine_ray.ops.shuffle import default_n_buckets

    n_buckets = default_n_buckets()  # cluster-width-scaled

    def with_bucket(batch: pa.Table) -> pa.Table:
        t = winnow_fingerprints(batch)
        bk = (t.column("fp").to_numpy() % n_buckets).astype(np.int64)
        return t.append_column("bucket", pa.array(bk, pa.int64()))

    fps = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(with_bucket, batch_format="pyarrow"))

    # ONE group per fp-hash bucket (not per fp): a per-fp map_groups at
    # corpus scale means millions of sub-millisecond UDF calls — the
    # group-dispatch overhead dominates (measured 232s -> ~10s at
    # sf0.01).  Inside a bucket, pair generation is segment-vectorized.
    def pairs_in_bucket(g):
        fp = g["fp"].to_numpy()
        ids = g["doc_id"].to_numpy()
        order = np.lexsort((ids, fp))
        fp, ids = fp[order], ids[order]
        starts = np.flatnonzero(np.r_[True, fp[1:] != fp[:-1]])
        ends = np.append(starts[1:], len(fp))
        a_parts, b_parts = [], []
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2 or n > max_fp_df:
                continue
            iu, ju = np.triu_indices(int(n), k=1)
            a_parts.append(ids[s:e][iu])
            b_parts.append(ids[s:e][ju])
        if not a_parts:
            # MUST match the non-empty path's schema exactly ("pb",
            # int64) or the downstream groupby("pb") hits schema
            # unification failures on all-singleton buckets
            return pd.DataFrame({"pb": pd.Series([], dtype="int64"),
                                 "id_a": pd.Series([], dtype="int64"),
                                 "id_b": pd.Series([], dtype="int64"),
                                 "c": pd.Series([], dtype="int64")})
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        # per-bucket pre-combine, then ONE single-key groupby: Ray's
        # multi-column groupby aggregate sorts on a composite key and is
        # ~80x slower than a single string key at this shape (measured
        # 261s vs ~3s on 589k pair rows)
        df = (pd.DataFrame({"id_a": a, "id_b": b})
              .groupby(["id_a", "id_b"], sort=False).size()
              .rename("c").reset_index())
        # second-stage shuffle key: pair-hash bucket.  Ray's groupby
        # aggregate walks distinct keys in Python, so a 100k+-key
        # aggregate costs minutes (measured 261s on 589k pair rows);
        # TWO bucketed map_groups with vectorized pandas inside cost
        # seconds and shuffle the identical volume.
        h = (df["id_a"].to_numpy().astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)
             ^ df["id_b"].to_numpy().astype(np.uint64))
        df["pb"] = (h % np.uint64(n_buckets)).astype(np.int64)
        return df[["pb", "id_a", "id_b", "c"]]

    pairs = fps.groupby("bucket").map_groups(pairs_in_bucket,
                                             batch_format="pandas")

    def count_in_bucket(g):
        out = (g.groupby(["id_a", "id_b"], sort=False)["c"].sum()
                .rename("shared").reset_index())
        return out[out["shared"] >= min_shared]

    return pairs.groupby("pb").map_groups(count_in_bucket,
                                          batch_format="pandas")


def prefix_dup_groups(sf_dir: str, k: int = 20):
    """Boilerplate-prefix duplicate groups: docs whose first ``k``
    simple tokens are identical (shorter docs group by their full token
    string) — the common-crawl 'same template header' signal that
    whole-document hashing misses.  Emits one row per group with >= 2
    docs: (rep_doc_id = min doc_id, n_docs).  The prefix travels as a
    63-bit blake2 hash (collision odds ~groups^2/2^63), so the shuffle
    carries 16 bytes/doc regardless of prefix length."""
    import hashlib

    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    def prefix_fp(batch: pa.Table) -> pa.Table:
        fps = []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)[:k]
            h = hashlib.blake2b(" ".join(ts).encode(), digest_size=8)
            fps.append(int.from_bytes(h.digest(), "little")
                       & 0x7FFF_FFFF_FFFF_FFFF)
        return pa.table({"pfp": pa.array(fps, pa.int64()),
                         "doc_id": batch.column("doc_id")})

    ds = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(prefix_fp, batch_format="pyarrow"))

    def groups(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby("pfp", sort=False)["doc_id"]
                .agg(rep_doc_id="min", n_docs="size").reset_index())
        out = out[out["n_docs"] >= 2]
        return pd.DataFrame({
            "rep_doc_id": out["rep_doc_id"].to_numpy(np.int64),
            "n_docs": out["n_docs"].to_numpy(np.int64)})

    return bucketed_apply(ds, ["pfp"], groups)


def token_entropy_scores(sf_dir: str):
    """Per-doc Shannon entropy over the simple-token distribution (in
    bits, e4-scaled) plus the token count — a repetitiveness / quality
    signal: boilerplate and keyword-stuffed docs sit far below normal
    prose.  entropy = -sum(p * log2(p)) over per-doc token frequencies;
    empty docs score 0.  The SQL mirror computes the identical
    double-precision expression; the per-doc sum runs over at most the
    doc's distinct tokens, so cross-engine float-association drift is
    ~1e-15 against an e-4 rounding grid."""
    import ray.data

    def per_doc(batch: pa.Table) -> pa.Table:
        n_tok, ent = [], []
        for t in batch.column("text").to_pylist():
            ts = simple_tokenize(t)
            n = len(ts)
            n_tok.append(n)
            if n == 0:
                ent.append(0)
                continue
            _, cnt = np.unique(ts, return_counts=True)
            p = cnt / n
            e = float(-(p * np.log2(p)).sum())
            ent.append(int(round_half_away(np.array([e * 1e4]))[0]))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "entropy_e4": pa.array(ent, pa.int64())})

    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(per_doc, batch_format="pyarrow"))


def length_percentile_filter(sf_dir: str, pct: int = 90):
    """Exact distributed percentile gate on an integer column: keep
    documents whose ``n_chars`` is at or above the corpus's exact
    ``pct``-th percentile, counted per language.

    The threshold ("smallest v with cum_count(v)*100 >= pct*n") comes
    from a VALUE-COUNT histogram — one bucketed integer sum over the
    pruned 1-column read — whose size is the column's distinct-value
    DOMAIN (lengths: ~1e6 rows even at 100 TB), not the corpus; only
    that bounded histogram reaches the driver.  Pass 2 re-scans with
    the scalar threshold folded into the batch filter.  Exact
    integer comparisons everywhere — no float quantile interpolation
    to drift between engines."""
    import ray.data
    from ray.data.aggregate import Sum

    from search_engine_ray.ops.shuffle import bucketed_sum

    def vc(batch: pa.Table) -> pa.Table:
        vals, counts = np.unique(
            batch.column("n_chars").to_numpy(), return_counts=True)
        return pa.table({"n_chars": pa.array(vals, pa.int64()),
                         "c": pa.array(counts.astype(np.int64))})

    hist = bucketed_sum(
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["n_chars"])
        .map_batches(vc, batch_format="pyarrow"),
        ["n_chars"], ["c"]).to_pandas()  # bounded by the value DOMAIN
    hist = hist.sort_values("n_chars")
    cum = hist["c"].to_numpy(np.int64).cumsum()
    n = int(cum[-1]) if len(cum) else 0
    idx = np.searchsorted(cum * 100, pct * n)
    threshold = int(hist["n_chars"].to_numpy(np.int64)[idx]) if n else 0

    def partials(batch: pa.Table) -> pa.Table:
        keep = batch.column("n_chars").to_numpy() >= threshold
        langs = np.asarray(batch.column("lang").to_pylist(),
                           dtype=object)[keep]
        uk, counts = np.unique(langs, return_counts=True)
        return pa.table({"lang": pa.array(list(uk), pa.string()),
                         "n": pa.array(counts.astype(np.int64))})

    out = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["lang", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("lang").aggregate(Sum("n", alias_name="n_kept")))

    def attach_thr(batch: pa.Table) -> pa.Table:
        return batch.append_column("threshold", pa.array(
            np.full(batch.num_rows, threshold, dtype=np.int64)))

    return out.map_batches(attach_thr, batch_format="pyarrow")


def longest_docs(sf_dir: str, k: int = 100):
    """Global top-``k`` longest documents via Ray Data's distributed
    SORT (range-partitioned all-to-all) + limit — the engine's ordered
    full-table showcase.  Columns are pruned at the read so the sort
    moves 3 narrow columns, never the text."""
    import ray.data

    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"])
        .sort(key=["n_chars", "doc_id"], descending=[True, False])
        .limit(k))


def source_quality_gate(sf_dir: str, min_mean_chars: int = 290):
    """Source-level (per-host) quality gate: drop EVERY document of a
    source whose mean length is below the bar — the standard web-corpus
    move of filtering whole domains, not documents.  ONE hash shuffle
    on ``source`` co-locates each source's docs; the per-bucket pandas
    transform computes the per-source aggregate and applies the gate as
    exact integer math (sum >= bar*count ⇔ mean >= bar), so no
    source->verdict map is ever built on the driver (hosts number in
    the millions at web scale)."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    def per_bucket(g):
        import pandas as pd

        t = g.groupby("source", sort=False)["n_chars"].agg(
            ["sum", "count"])
        ok = t.index[t["sum"].to_numpy(np.int64)
                     >= min_mean_chars * t["count"].to_numpy(np.int64)]
        keep = g[g["source"].isin(ok)]
        return pd.DataFrame(
            {"doc_id": keep["doc_id"].to_numpy(np.int64)})

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "n_chars"])
    return bucketed_apply(ds, ["source"], per_bucket)


def doc_salient_term(sf_dir: str):
    """Most DISTINCTIVE token per document — highest tf, rarest-df
    tie-break, then lexicographic: an integer-only tf-idf proxy (df
    ordering is idf ordering), so the ranking is exactly reproducible
    in SQL with no float log.

    Two hash shuffles, both through the bucketed primitive: (1) a
    TERM-keyed shuffle co-locates each term's (doc, tf) rows so df is a
    vectorized group size attached in-bucket — corpus-scale term join
    with no driver vocabulary; (2) a DOC-keyed shuffle picks each doc's
    winner with one sort + drop_duplicates per bucket."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply
    from search_engine_ray.text.tokenizer import simple_tokenize

    def tf_rows(batch: pa.Table) -> pa.Table:
        ids, terms, tfs = [], [], []
        for did, txt in zip(batch.column("doc_id").to_pylist(),
                            batch.column("text").to_pylist()):
            toks = simple_tokenize(txt)
            if not toks:
                continue
            uk, counts = np.unique(np.asarray(toks, dtype=object),
                                   return_counts=True)
            ids.extend([did] * len(uk))
            terms.extend(uk)
            tfs.extend(counts)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(np.asarray(tfs, dtype=np.int64))})

    rows = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(tf_rows, batch_format="pyarrow"))

    def attach_df(g):
        out = g.reset_index(drop=True)
        # rows are unique (doc, term) by construction, so the term's
        # group SIZE is its document frequency
        out["df"] = (out.groupby("term", sort=False)["doc_id"]
                     .transform("size").astype(np.int64))
        return out

    with_df = bucketed_apply(rows, ["term"], attach_df)

    def pick_winner(g):
        out = (g.sort_values(["doc_id", "tf", "df", "term"],
                             ascending=[True, False, True, True])
               .drop_duplicates("doc_id").reset_index(drop=True))
        return out[["doc_id", "term", "tf", "df"]]

    return bucketed_apply(with_df, ["doc_id"], pick_winner)


def bigram_lm_nll(sf_dir: str):
    """Train an add-one-smoothed bigram language model over the corpus
    and score every document's negative log-likelihood under it — the
    perplexity-style quality filter of an LLM data pipeline (CCNet-like,
    with the corpus itself as the LM training set).

    ``p(w2|w1) = (c(w1 w2) + 1) / (c(w1) + V)`` with V = distinct
    unigrams; per-token log-probs are scaled to integers BEFORE the sum
    (``fl6(x) = floor(x*1e6 + 0.5)``, args always positive) so the
    aggregate is exact int64 math in any reduce order and the DuckDB
    oracle hashes identically.

    Plan (all corpus-sized sides go through shuffles, nothing
    corpus-scaled is broadcast):
    - bigram counts: per-batch Counter pre-combine, then ONE bucketed
      sum keyed on the gram;
    - unigram counts: same shape; the vocab-sized result is
      materialized once (model side, bounded by vocabulary not corpus);
    - scoring: doc bigram rows attach c(w1 w2) via a gram-keyed
      tagged-union shuffle, then c(w1) via a w1-keyed one, pre-combining
      per doc inside the second bucket; a final doc_id-keyed sum
      finishes.  A per-doc sentinel row (m=0) rides the same shuffles so
      0/1-token docs appear with n_bigrams = 0 without a left join."""
    from collections import Counter

    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def doc_bigrams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id, out_g, out_w1, out_m = [], [], [], []
        for i, t in zip(ids, texts):
            out_id.append(int(i))
            out_g.append("")
            out_w1.append("")
            out_m.append(0)
            ts = simple_tokenize(t)
            if len(ts) >= 2:
                for (w1, w2), m in Counter(zip(ts[:-1], ts[1:])).items():
                    out_id.append(int(i))
                    out_g.append(w1 + " " + w2)
                    out_w1.append(w1)
                    out_m.append(int(m))
        return pa.table({
            "g": pa.array(out_g, pa.string()),
            "w1": pa.array(out_w1, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "m": pa.array(out_m, pa.int64())})

    def read_docs():
        return ray.data.read_parquet(path, columns=["doc_id", "text"])

    rows = read_docs().map_batches(doc_bigrams, batch_format="pyarrow")

    def uni_counts(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(simple_tokenize(t))
        items = list(c.items())
        return pa.table({
            "w1": pa.array([w for w, _ in items], pa.string()),
            "c": pa.array([n for _, n in items], pa.int64())})

    # model side: vocabulary-bounded, not corpus-bounded — safe to
    # materialize once and reuse for both V and the attach
    uni = bucketed_sum(
        read_docs().map_batches(uni_counts, batch_format="pyarrow"),
        ["w1"], ["c"]).materialize()
    v_size = uni.count()

    def bc_prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.greater(batch.column("m"), 0))
        return sub.select(["g", "m"])

    bcounts = bucketed_sum(
        rows.map_batches(bc_prep, batch_format="pyarrow"),
        ["g"], ["m"], rename={"m": "cnt"})

    def tag_counts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "g": batch.column("g"),
            "w1": pa.array([""] * n, pa.string()),
            "doc_id": pa.array(np.zeros(n, dtype=np.int64)),
            "m": pa.array(np.zeros(n, dtype=np.int64)),
            "cnt": batch.column("cnt").cast(pa.int64()),
            "side": pa.array(np.zeros(n, dtype=np.int8))})

    def tag_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return batch.append_column(
            "cnt", pa.array(np.zeros(n, dtype=np.int64))).append_column(
            "side", pa.array(np.ones(n, dtype=np.int8)))

    union1 = (bcounts.map_batches(tag_counts, batch_format="pyarrow")
              .union(rows.map_batches(tag_rows, batch_format="pyarrow")))

    def attach_bi(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.loc[g["side"] == 0, ["g", "cnt"]]
        d = g.loc[g["side"] == 1, ["g", "w1", "doc_id", "m"]]
        m_ = d.merge(cnt, on="g", how="left", suffixes=("", "_c"))
        c = m_["cnt"].fillna(0).to_numpy(dtype=np.int64)
        mm = m_["m"].to_numpy(dtype=np.int64)
        lp = mm * np.floor(np.log(c + 1) * 1e6 + 0.5).astype(np.int64)
        return pd.DataFrame({
            "w1": m_["w1"].to_numpy(),
            "doc_id": m_["doc_id"].to_numpy(dtype=np.int64),
            "m": mm, "lp": lp})

    scored1 = bucketed_apply(union1, ["g"], attach_bi)

    def tag_uni(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "w1": batch.column("w1"),
            "doc_id": pa.array(np.zeros(n, dtype=np.int64)),
            "m": pa.array(np.zeros(n, dtype=np.int64)),
            "lp": pa.array(np.zeros(n, dtype=np.int64)),
            "cnt": batch.column("c").cast(pa.int64()),
            "side": pa.array(np.zeros(n, dtype=np.int8))})

    def tag_scored(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return batch.append_column(
            "cnt", pa.array(np.zeros(n, dtype=np.int64))).append_column(
            "side", pa.array(np.ones(n, dtype=np.int8)))

    union2 = (uni.map_batches(tag_uni, batch_format="pyarrow")
              .union(scored1.map_batches(tag_scored,
                                         batch_format="pyarrow")))

    def attach_uni(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.loc[g["side"] == 0, ["w1", "cnt"]]
        d = g.loc[g["side"] == 1, ["w1", "doc_id", "m", "lp"]]
        m_ = d.merge(cnt, on="w1", how="left", suffixes=("", "_c"))
        c = m_["cnt"].fillna(0).to_numpy(dtype=np.int64)
        mm = m_["m"].to_numpy(dtype=np.int64)
        lp = (m_["lp"].to_numpy(dtype=np.int64)
              - mm * np.floor(np.log(c + v_size) * 1e6 + 0.5)
              .astype(np.int64))
        out = pd.DataFrame({"doc_id": m_["doc_id"].to_numpy(np.int64),
                            "n_bigrams": mm, "nll_e6": -lp})
        return (out.groupby("doc_id", sort=False)[["n_bigrams", "nll_e6"]]
                .sum().reset_index())

    scored2 = bucketed_apply(union2, ["w1"], attach_uni)
    return bucketed_sum(scored2, ["doc_id"], ["n_bigrams", "nll_e6"])


def dup_ngram_fraction(sf_dir: str, n: int = 5):
    """Duplicated-text fraction per document (the RefinedWeb/Gopher
    curation signal): how many of a doc's ``n``-gram positions occur in
    at least one OTHER document.  Cross-doc df is computed corpus-wide,
    so boilerplate shared across pages is caught even when no pair of
    docs is a near-dup.

    Plan: one scan emits per-doc distinct grams with their position
    multiplicities (plus an m=0 sentinel per doc so gram-less docs
    survive without a left join); gram df is ONE bucketed count (rows
    are already unique per (doc, gram)); df rides back onto the doc
    rows via a gram-keyed tagged-union shuffle whose buckets pre-combine
    per doc; a final doc_id-keyed sum finishes.  Never broadcasts
    anything corpus-scaled."""
    from collections import Counter

    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def doc_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id, out_g, out_m = [], [], []
        for i, t in zip(ids, texts):
            out_id.append(int(i))
            out_g.append("")
            out_m.append(0)
            ts = simple_tokenize(t)
            if len(ts) >= n:
                grams = Counter(" ".join(ts[j:j + n])
                                for j in range(len(ts) - n + 1))
                for g, m in grams.items():
                    out_id.append(int(i))
                    out_g.append(g)
                    out_m.append(int(m))
        return pa.table({
            "g": pa.array(out_g, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "m": pa.array(out_m, pa.int64())})

    rows = (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(doc_grams, batch_format="pyarrow"))

    def df_prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.greater(batch.column("m"), 0))
        return pa.table({
            "g": sub.column("g"),
            "one": pa.array(np.ones(sub.num_rows, dtype=np.int64))})

    # (doc, gram) rows are unique by construction -> df = row count
    dfs = bucketed_sum(rows.map_batches(df_prep, batch_format="pyarrow"),
                       ["g"], ["one"], rename={"one": "df"})

    def tag_df(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        return pa.table({
            "g": batch.column("g"),
            "doc_id": pa.array(np.zeros(nr, dtype=np.int64)),
            "m": pa.array(np.zeros(nr, dtype=np.int64)),
            "df": batch.column("df").cast(pa.int64()),
            "side": pa.array(np.zeros(nr, dtype=np.int8))})

    def tag_rows(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        return batch.append_column(
            "df", pa.array(np.zeros(nr, dtype=np.int64))).append_column(
            "side", pa.array(np.ones(nr, dtype=np.int8)))

    union = (dfs.map_batches(tag_df, batch_format="pyarrow")
             .union(rows.map_batches(tag_rows, batch_format="pyarrow")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.loc[g["side"] == 0, ["g", "df"]]
        d = g.loc[g["side"] == 1, ["g", "doc_id", "m"]]
        m_ = d.merge(cnt, on="g", how="left", suffixes=("", "_c"))
        mm = m_["m"].to_numpy(dtype=np.int64)
        df_ = m_["df_c" if "df_c" in m_ else "df"]
        dup = mm * (df_.fillna(0).to_numpy(dtype=np.int64) >= 2)
        out = pd.DataFrame({"doc_id": m_["doc_id"].to_numpy(np.int64),
                            "n_grams": mm, "n_dup": dup})
        return (out.groupby("doc_id", sort=False)[["n_grams", "n_dup"]]
                .sum().reset_index())

    per = bucketed_apply(union, ["g"], attach)
    return bucketed_sum(per, ["doc_id"], ["n_grams", "n_dup"])


# per-source TOKEN budgets for budgeted corpus mixing — the single
# source of truth; the SQL oracle's CASE expression is generated from it
TOKEN_BUDGETS = {f"src{i}": 400 + 61 * i for i in range(20)}
TOKEN_BUDGET_DEFAULT = 800


def token_budget_mix(sf_dir: str):
    """Token-budgeted corpus mixing (the data-mixture step when targets
    are TOKENS per source, not doc keep-rates): within each source,
    admit docs in a deterministic content-hash order until the source's
    token budget is exhausted.  Reproducible at any cluster size — the
    admission order is (md5(text) residue, doc_id), not arrival order.

    Distributed as a two-phase EXCLUSIVE PREFIX SCAN over hash-ordered
    range buckets (the ``packing_plan`` pattern applied across docs of a
    source instead of positions of a stream): phase 1 reduces per
    (source, range-bucket) token totals — sources x 256 rows to the
    driver at ANY corpus size; phase 2 re-scans with the broadcast
    bucket offsets and keeps docs whose inclusive running total fits
    the budget, sorting only within each (source, bucket) group."""
    import hashlib as _h

    import ray
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")
    _MOD = 1_000_000

    def prep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        srcs = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        h = (md5_fp64(texts) % np.uint64(_MOD)).astype(np.int64)
        nt = np.array([len(simple_tokenize(t)) for t in texts],
                      dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "source": pa.array(srcs, pa.string()),
            "h": pa.array(h, pa.int64()),
            "hb": pa.array(h * 256 // _MOD, pa.int64()),
            "n_tokens": pa.array(nt, pa.int64())})

    base = (ray.data.read_parquet(path,
                                  columns=["doc_id", "source", "text"])
            .map_batches(prep, batch_format="pyarrow"))

    totals = (bucketed_sum(base, ["source", "hb"], ["n_tokens"],
                           rename={"n_tokens": "tot"})
              .to_pandas().sort_values(["source", "hb"]))
    offs = {}
    for src, grp in totals.groupby("source", sort=False):
        run = 0
        for hb, tot in zip(grp["hb"], grp["tot"]):
            offs[(src, int(hb))] = run
            run += int(tot)
    off_ref = ray.put(offs)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        o = ray.get(off_ref)
        g = g.sort_values(["source", "hb", "h", "doc_id"]).reset_index(
            drop=True)
        cum = g.groupby(["source", "hb"], sort=False)["n_tokens"].cumsum()
        start = np.array([o.get((s, int(b)), 0)
                          for s, b in zip(g["source"], g["hb"])],
                         dtype=np.int64)
        budget = np.array([TOKEN_BUDGETS.get(s, TOKEN_BUDGET_DEFAULT)
                           for s in g["source"]], dtype=np.int64)
        keep = (start + cum.to_numpy()) <= budget
        out = g.loc[keep, ["doc_id", "source", "n_tokens"]]
        return out.reset_index(drop=True)

    return bucketed_apply(base, ["source", "hb"], per_bucket)


def bpe_train_merges(sf_dir: str, n_merges: int = 12):
    """Distributed BPE tokenizer TRAINING (Sennrich-style): learn the
    top ``n_merges`` merge rules from the corpus — the step that
    produces a tokenizer, not just applies one.

    The standard vocabulary compression makes this tractable at any
    corpus size: the corpus collapses to a (word, count) table via ONE
    bucketed sum (vocabulary-bounded, not corpus-bounded), and every
    merge iteration then runs over that small table — per-batch
    weighted pair counting pre-combined before a bucketed sum, a
    driver-side argmax over the pair-count table (symbol-pair-space
    sized), and a vectorizable merge application map.  Each iteration
    materializes the updated vocab table (vocab-bounded — the
    documented exception to no-mid-pipeline-materialize, since lazy
    re-execution would replay all prior merges every round).

    Ties break by (count desc, left asc, right asc) so the learned
    sequence is deterministic at any cluster size.  Returns
    (rank, left, right, pair_count).  Gated by exact parity with a
    single-process reference trainer (tests), not a SQL oracle —
    iterative argmax training is not SQL-expressible."""
    from collections import Counter

    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def word_counts(batch: pa.Table) -> pa.Table:
        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(simple_tokenize(t))
        items = list(c.items())
        return pa.table({
            "word": pa.array([w for w, _ in items], pa.string()),
            "c": pa.array([n for _, n in items], pa.int64())})

    vocab = bucketed_sum(
        ray.data.read_parquet(path, columns=["text"])
        .map_batches(word_counts, batch_format="pyarrow"),
        ["word"], ["c"])

    _SEP = "\x00"  # symbol separator inside the evolving word encoding

    def to_syms(batch: pa.Table) -> pa.Table:
        words = batch.column("word").to_pylist()
        return pa.table({
            "syms": pa.array([_SEP.join(w) for w in words], pa.string()),
            "c": batch.column("c")})

    cur = vocab.map_batches(to_syms, batch_format="pyarrow").materialize()

    merges = []
    for rank in range(n_merges):
        def pair_counts(batch: pa.Table) -> pa.Table:
            pc_ = Counter()
            for syms, c in zip(batch.column("syms").to_pylist(),
                               batch.column("c").to_numpy()):
                parts = syms.split(_SEP)
                for a, b in zip(parts[:-1], parts[1:]):
                    pc_[(a, b)] += int(c)
            items = list(pc_.items())
            return pa.table({
                "left": pa.array([a for (a, _), _ in items], pa.string()),
                "right": pa.array([b for (_, b), _ in items], pa.string()),
                "n": pa.array([n for _, n in items], pa.int64())})

        pairs = bucketed_sum(
            cur.map_batches(pair_counts, batch_format="pyarrow"),
            ["left", "right"], ["n"]).to_pandas()
        if not len(pairs):
            break
        # deterministic argmax: count desc, then (left, right) asc
        pairs = pairs.sort_values(["n", "left", "right"],
                                  ascending=[False, True, True])
        best = pairs.iloc[0]
        left, right, cnt = str(best["left"]), str(best["right"]), \
            int(best["n"])
        merges.append((rank, left, right, cnt))
        # boundary-guarded: (left, right) must each be WHOLE symbols —
        # lookarounds anchor both ends to string edge or the \x00
        # separator, so e.g. merging (b, c) cannot fire inside
        # ["ab", "c"]; re.sub's left-to-right non-overlap mirrors the
        # reference trainer's scan order
        pat = re.compile("(?<![^\x00])" + re.escape(left) + _SEP
                         + re.escape(right) + "(?![^\x00])")

        def apply_merge(batch: pa.Table, pat=pat,
                        repl=left + right) -> pa.Table:
            syms = batch.column("syms").to_pylist()
            return pa.table({
                "syms": pa.array([pat.sub(repl, s) for s in syms],
                                 pa.string()),
                "c": batch.column("c")})

        cur = cur.map_batches(apply_merge,
                              batch_format="pyarrow").materialize()

    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "pair_count": pa.array([m[3] for m in merges], pa.int64())})


def weighted_sample_topk(sf_dir: str, k: int = 50):
    """Distributed weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis): each doc gets priority ``ln(u) / w`` with a
    deterministic hash-derived u in (0,1) and weight w = n_chars; the
    global top-``k`` priorities ARE a weighted sample — the standard
    one-pass, coordination-free way to draw a weighted subset from a
    stream that no single node can hold.

    Plan: the priority is computed vectorized per batch and only a
    per-batch top-``k`` survives to the driver merge (k rows per batch,
    never the corpus).  Deterministic u makes the draw reproducible at
    any cluster size and lets a DuckDB oracle verify the exact selected
    set (ties broken by doc_id on both sides)."""
    import hashlib as _h

    import ray.data

    _MOD = 1_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        w = batch.column("n_chars").to_numpy().astype(np.float64)
        u = ((md5_fp64(batch.column("text").to_pylist())
              % np.uint64(_MOD)).astype(np.float64) + 1.0) / (_MOD + 1.0)
        # clamp zero-char docs to weight 1 in the KEY only (output keeps
        # the real n_chars): ln(u)/0 is a divide-by-zero whose
        # -inf/RuntimeWarning behavior differs from the SQL mirror's
        # x/0; SQL_WEIGHTED_SAMPLE applies greatest(n_chars, 1)
        key = np.log(u) / np.maximum(w, 1.0)
        kk = min(k, len(ids))
        if kk < len(ids):
            # keep ALL boundary ties (duplicate docs share u and w, so
            # equal keys are expected): an argpartition cut would pick
            # an arbitrary tied doc and the global (key, doc_id) merge
            # could no longer recover the one the oracle selects
            thresh = -np.partition(-key, kk - 1)[kk - 1]
            top = np.flatnonzero(key >= thresh)
        else:
            top = np.arange(len(ids))
        return pa.table({
            "doc_id": pa.array(ids[top], pa.int64()),
            "n_chars": pa.array(w[top].astype(np.int64), pa.int64()),
            "key": pa.array(key[top], pa.float64())})

    parts = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .to_pandas())  # <= k rows per batch
    parts = parts.sort_values(["key", "doc_id"],
                              ascending=[False, True]).head(k)
    return pa.table({
        "doc_id": pa.array(parts["doc_id"].to_numpy(np.int64), pa.int64()),
        "n_chars": pa.array(parts["n_chars"].to_numpy(np.int64),
                            pa.int64())})


def term_cooccurrence_pmi(sf_dir: str, vocab_k: int = 24,
                          min_pairs: int = 5):
    """Pointwise mutual information for term PAIRS co-occurring in the
    same document, over the corpus-frequency top-``vocab_k`` vocabulary
    — the classic collocation/corpus-analysis statistic.

    ``pmi = ln(n_ab * n_docs / (n_a * n_b))`` over DOC counts; the ln
    terms are e6-int rounded per factor (the bigram-LM parity recipe)
    so both engines sum exact integers.  Plan: the top-V vocab is a
    broadcast (vocab_k rows); each batch emits its docs' distinct
    in-vocab pairs (k^2/2 bounded per doc), ONE bucketed count per
    pair, per-term doc counts ride the same scan; the driver assembles
    the <= V^2/2 result rows."""
    import itertools

    import ray
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def term_doc_counts(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c = Counter()
        for t in batch.column("text").to_pylist():
            c.update(set(simple_tokenize(t)))
        items = list(c.items())
        return pa.table({
            "t": pa.array([w for w, _ in items], pa.string()),
            "n": pa.array([x for _, x in items], pa.int64())})

    tdc = bucketed_sum(
        ray.data.read_parquet(path, columns=["text"])
        .map_batches(term_doc_counts, batch_format="pyarrow"),
        ["t"], ["n"]).to_pandas()
    n_docs = int(ray.data.read_parquet(path, columns=["doc_id"]).count())
    top = (tdc.sort_values(["n", "t"], ascending=[False, True])
           .head(vocab_k))
    vocab = dict(zip(top["t"], top["n"].astype(int)))
    v_ref = ray.put(frozenset(vocab))

    def pair_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        voc = ray.get(v_ref)
        c = Counter()
        for t in batch.column("text").to_pylist():
            present = sorted(set(simple_tokenize(t)) & voc)
            for a, b in itertools.combinations(present, 2):
                c[(a, b)] += 1
        items = list(c.items())
        return pa.table({
            "a": pa.array([p[0] for p, _ in items], pa.string()),
            "b": pa.array([p[1] for p, _ in items], pa.string()),
            "n_ab": pa.array([x for _, x in items], pa.int64())})

    pairs = bucketed_sum(
        ray.data.read_parquet(path, columns=["text"])
        .map_batches(pair_rows, batch_format="pyarrow"),
        ["a", "b"], ["n_ab"]).to_pandas()  # <= vocab_k^2/2 rows
    pairs = pairs[pairs["n_ab"] >= min_pairs].copy()

    def fl6(x):
        return np.floor(np.log(x) * 1e6 + 0.5).astype(np.int64)

    n_ab = pairs["n_ab"].to_numpy(dtype=np.int64)
    n_a = pairs["a"].map(vocab).to_numpy(dtype=np.int64)
    n_b = pairs["b"].map(vocab).to_numpy(dtype=np.int64)
    pairs["pmi_e6"] = (fl6(n_ab) + fl6(np.full(len(pairs), n_docs))
                       - fl6(n_a) - fl6(n_b))
    pairs["n_ab"] = n_ab
    return pa.Table.from_pandas(
        pairs[["a", "b", "n_ab", "pmi_e6"]], preserve_index=False)


class BpeEncoder:
    """Actor-pool UDF: apply LEARNED BPE merges to documents and count
    the resulting tokens — the serving half of bpe_train_merges.

    Encoding is word-level and the word vocabulary is tiny next to the
    corpus, so a per-worker memo (word -> merged token count) makes the
    per-doc cost a dict lookup per token after warmup; only NOVEL words
    run the merge loop.  Merge ranks load once per actor (__init__),
    not per batch."""

    def __init__(self, merges: "list[tuple[str, str]]"):
        self.ranks = {(l, r): i for i, (l, r) in enumerate(merges)}
        self.memo: dict[str, int] = {}

    def _encode_len(self, word: str) -> int:
        n = self.memo.get(word)
        if n is not None:
            return n
        syms = list(word)
        # standard greedy BPE: repeatedly merge the LOWEST-rank pair
        while len(syms) > 1:
            best_i, best_rank = -1, None
            for i in range(len(syms) - 1):
                r = self.ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best_i, best_rank = i, r
            if best_rank is None:
                break
            syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
        if len(self.memo) >= 1_000_000:
            self.memo.clear()  # bound per-worker memory
        self.memo[word] = len(syms)
        return len(syms)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        counts = []
        for t in batch.column("text").to_pylist():
            counts.append(sum(self._encode_len(w)
                              for w in simple_tokenize(t)))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "n_bpe_merged_tokens": pa.array(counts, pa.int64())})


_BPE_MERGES_CACHE: dict[tuple, pa.Table] = {}


def bpe_merges_table(sf_dir: str, n_merges: int = 12) -> pa.Table:
    """bpe_train_merges, cached per (sf_dir, n_merges) per process —
    the train and encode driver entries share ONE training run."""
    key = (os.path.abspath(sf_dir), n_merges)
    t = _BPE_MERGES_CACHE.get(key)
    if t is None:
        t = bpe_train_merges(sf_dir, n_merges=n_merges)
        _BPE_MERGES_CACHE[key] = t
    return t


def bpe_encode_counts(sf_dir: str, n_merges: int = 12):
    """(doc_id, n_bpe_merged_tokens): the corpus re-encoded with the
    merges bpe_train_merges learns from it — train once (cached per
    process), then ONE streaming scan with the encoder as an actor
    pool.  The merge table is rank-ordered and tiny (n_merges rows), so
    it ships to each actor once via the constructor, never per batch.

    Gated by exact parity with an independent single-process encoder
    (tests) — merge application is iterative argmin over learned ranks,
    not SQL-expressible."""
    import ray.data

    t = bpe_merges_table(sf_dir, n_merges=n_merges)
    merges = list(zip(t.column("left").to_pylist(),
                      t.column("right").to_pylist()))
    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(BpeEncoder, fn_constructor_kwargs={"merges": merges},
                     batch_format="pyarrow", concurrency=2))


def _dup_gram_positions(sf_dir: str, n: int):
    """Shared front half of :func:`dup_passages` /
    :func:`strip_dup_passages`: a Dataset of (doc_id, p) rows, one per
    1-based position of a cross-doc-duplicated ``n``-gram.  REAL rows
    only — doc presence for gram-less docs is the caller's job on its
    own doc_id-keyed shuffle (a per-doc sentinel here would hash every
    document into the ONE bucket of the empty gram, a corpus-sized
    straggler in the exact dimension this shuffle bounds).

    Plan (no broadcasts, two bounded shuffles): one scan emits per-doc
    distinct grams with their 1-based POSITION LISTS; gram df is one
    bucketed count over the (unique) (doc, gram) rows; df rides back
    via a gram-keyed tagged union whose buckets explode only the
    DUPLICATED grams' positions.  Shuffle volume is bounded by the
    dup-position count — at web scale that is the boilerplate fraction
    of the corpus, not the corpus."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def doc_gram_positions(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id: list[int] = []
        out_g: list[str] = []
        out_ps: list[list[int]] = []
        for i, t in zip(ids, texts):
            ts = simple_tokenize(t)
            if len(ts) >= n:
                grams: dict[str, list[int]] = {}
                for j in range(len(ts) - n + 1):
                    grams.setdefault(" ".join(ts[j:j + n]),
                                     []).append(j + 1)  # 1-based like SQL
                for g, ps in grams.items():
                    out_id.append(int(i))
                    out_g.append(g)
                    out_ps.append(ps)
        return pa.table({
            "g": pa.array(out_g, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "ps": pa.array(out_ps, pa.list_(pa.int64()))})

    rows = (ray.data.read_parquet(path, columns=["doc_id", "text"])
            .map_batches(doc_gram_positions, batch_format="pyarrow"))

    def df_prep(batch: pa.Table) -> pa.Table:
        return pa.table({
            "g": batch.column("g"),
            "one": pa.array(np.ones(batch.num_rows, dtype=np.int64))})

    dfs = bucketed_sum(rows.map_batches(df_prep, batch_format="pyarrow"),
                       ["g"], ["one"], rename={"one": "df"})

    def tag_df(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        return pa.table({
            "g": batch.column("g"),
            "doc_id": pa.array(np.zeros(nr, dtype=np.int64)),
            "ps": pa.array([[]] * nr, pa.list_(pa.int64())),
            "df": batch.column("df").cast(pa.int64()),
            "side": pa.array(np.zeros(nr, dtype=np.int8))})

    def tag_rows(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        return batch.append_column(
            "df", pa.array(np.zeros(nr, dtype=np.int64))).append_column(
            "side", pa.array(np.ones(nr, dtype=np.int8)))

    union = (dfs.map_batches(tag_df, batch_format="pyarrow")
             .union(rows.map_batches(tag_rows, batch_format="pyarrow")))

    def explode_dup_positions(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g.loc[g["side"] == 0, ["g", "df"]]
        d = g.loc[g["side"] == 1, ["g", "doc_id", "ps"]]
        m_ = d.merge(cnt, on="g", how="left")
        dup = m_[m_["df"].fillna(0).to_numpy(dtype=np.int64) >= 2]
        lens = np.fromiter((len(x) for x in dup["ps"]),
                           dtype=np.int64, count=len(dup))
        out_ids = np.repeat(dup["doc_id"].to_numpy(np.int64), lens)
        out_ps = (np.concatenate([np.asarray(x, dtype=np.int64)
                                  for x in dup["ps"]])
                  if len(dup) else np.array([], dtype=np.int64))
        return pd.DataFrame({
            "doc_id": pd.Series(out_ids, dtype="int64"),
            "p": pd.Series(out_ps, dtype="int64")})

    return bucketed_apply(union, ["g"], explode_dup_positions)


def dup_passages(sf_dir: str, n: int = 5):
    """Maximal duplicated-PASSAGE spans per document — the positional
    refinement of :func:`dup_ngram_fraction` (which only counts dup
    n-gram positions): merge the positions of every cross-doc-duplicated
    ``n``-gram into maximal contiguous token spans (RefinedWeb's "exact
    substring" curation signal, passage granularity).  Output per doc:
    ``n_passages`` (maximal spans), ``dup_tokens`` (total tokens covered
    by spans), ``max_passage`` (longest span, tokens); zero rows for
    docs with no duplicated text.

    Adds ONE doc-keyed bucketed shuffle on top of
    :func:`_dup_gram_positions`: each doc's sorted positions merge into
    maximal islands (equal-length intervals sorted by start have sorted
    ends, so a span breaks exactly when p - prev_p > n) and reduce to
    the three stats.  Doc presence rides THIS shuffle as one p=0 row
    per doc from a doc_id-only scan — keyed by doc_id it spreads over
    every bucket, unlike a gram-side sentinel (one-bucket straggler)."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    def zero_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "p": pa.array(np.zeros(batch.num_rows, dtype=np.int64))})

    presence = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
        .map_batches(zero_rows, batch_format="pyarrow"))
    dup_pos = _dup_gram_positions(sf_dir, n).union(presence)

    def merge_islands(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["doc_id", "p"])
        ids = d["doc_id"].to_numpy(np.int64)
        p = d["p"].to_numpy(np.int64)
        real = p > 0
        ids_r, p_r = ids[real], p[real]
        if len(ids_r):
            brk = np.empty(len(ids_r), dtype=bool)
            brk[0] = True
            brk[1:] = (ids_r[1:] != ids_r[:-1]) | (p_r[1:] - p_r[:-1] > n)
            starts = np.flatnonzero(brk)
            ends = np.append(starts[1:], len(ids_r))
            span_len = (p_r[ends - 1] + n - 1) - p_r[starts] + 1
            per = pd.DataFrame({"doc_id": ids_r[starts], "len": span_len})
            stats = (per.groupby("doc_id", sort=False)["len"]
                     .agg(n_passages="count", dup_tokens="sum",
                          max_passage="max").reset_index())
        else:
            stats = pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "n_passages": pd.Series([], dtype="int64"),
                "dup_tokens": pd.Series([], dtype="int64"),
                "max_passage": pd.Series([], dtype="int64")})
        have = set(stats["doc_id"].tolist())
        miss = np.array(sorted(set(np.unique(ids).tolist()) - have),
                        dtype=np.int64)
        if len(miss):
            zeros = np.zeros(len(miss), dtype=np.int64)
            stats = pd.concat([stats, pd.DataFrame({
                "doc_id": miss, "n_passages": zeros,
                "dup_tokens": zeros, "max_passage": zeros})],
                ignore_index=True)
        for c in ("n_passages", "dup_tokens", "max_passage"):
            stats[c] = stats[c].astype("int64")
        return stats

    return bucketed_apply(dup_pos, ["doc_id"], merge_islands)


def strip_dup_passages(sf_dir: str, n: int = 5):
    """Dedup APPLY at passage granularity: rewrite every document's
    token stream with all cross-doc-duplicated spans REMOVED (the
    RefinedWeb/Lee-et-al. "exact substring deduplication" transform,
    symmetric variant: a span duplicated anywhere is dropped from every
    doc carrying it).  Output (doc_id, clean_text) for the whole corpus
    — clean_text is the space-joined surviving tokens of the `simple`
    tokenizer stream, possibly empty.

    Composition: :func:`_dup_gram_positions` (dup-position volume only)
    tagged-union-shuffled on doc_id against the token stream; each
    bucket expands dup positions to covered token indexes vectorized
    (np.repeat + offset ravel) and masks them out of the doc's tokens.
    The doc-keyed shuffle carries the corpus text once — inherent to a
    rewrite op whose OUTPUT is the corpus."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    dup_pos = _dup_gram_positions(sf_dir, n)

    def tag_dup(batch: pa.Table) -> pa.Table:
        nr = batch.num_rows
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "p": batch.column("p"),
            "toks": pa.array([""] * nr, pa.string()),
            "side": pa.array(np.zeros(nr, dtype=np.int8))})

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        nr = batch.num_rows
        return pa.table({
            "doc_id": pa.array(ids.astype(np.int64)),
            "p": pa.array(np.zeros(nr, dtype=np.int64)),
            "toks": pa.array([" ".join(simple_tokenize(t))
                              for t in texts], pa.string()),
            "side": pa.array(np.ones(nr, dtype=np.int8))})

    docs = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(tag_docs, batch_format="pyarrow"))
    union = dup_pos.map_batches(tag_dup, batch_format="pyarrow").union(docs)

    def rewrite(g: pd.DataFrame) -> pd.DataFrame:
        dup = g[g["side"] == 0]
        # expand each dup position to its n covered token indexes,
        # grouped into per-doc sorted unique arrays
        cov: dict[int, np.ndarray] = {}
        if len(dup):
            d_ids = np.repeat(dup["doc_id"].to_numpy(np.int64), n)
            tps = (dup["p"].to_numpy(np.int64)[:, None]
                   + np.arange(n, dtype=np.int64)).ravel()
            order = np.lexsort((tps, d_ids))
            d_ids, tps = d_ids[order], tps[order]
            starts = np.flatnonzero(
                np.concatenate([[True], d_ids[1:] != d_ids[:-1]]))
            ends = np.append(starts[1:], len(d_ids))
            for s, e in zip(starts, ends):
                cov[int(d_ids[s])] = np.unique(tps[s:e])
        rows = g[g["side"] == 1]
        out_id, out_txt = [], []
        for i, toks in zip(rows["doc_id"].to_numpy(np.int64),
                           rows["toks"]):
            ts = toks.split(" ") if toks else []
            c = cov.get(int(i))
            if c is not None and len(ts):
                keep = np.ones(len(ts), dtype=bool)
                keep[c - 1] = False        # positions are 1-based
                ts = [t for t, k in zip(ts, keep) if k]
            out_id.append(int(i))
            out_txt.append(" ".join(ts))
        return pd.DataFrame({
            "doc_id": pd.Series(out_id, dtype="int64"),
            "clean_text": pd.Series(out_txt, dtype="object")})

    return bucketed_apply(union, ["doc_id"], rewrite)


def dsir_logratio(sf_dir: str, target_lang: str = "en"):
    """Data Selection via Importance Resampling (DSIR, Xie et al. 2023)
    with unigram features: score every document by the log importance
    ratio ``sum_w m(w) * [ln P_target(w) - ln P_corpus(w)]`` where the
    target distribution is estimated from the ``lang == target_lang``
    subset and the raw distribution from the whole corpus, both add-one
    smoothed over the SHARED corpus vocabulary.  High scores = docs that
    look like the target domain; resample proportionally to curate.

    Per-token log-probs are e6-integer-rounded BEFORE the sum
    (``fl6(x) = floor(x*1e6 + 0.5)``, same exactness contract as
    :func:`bigram_lm_nll`) so reduce order cannot move the result and
    the DuckDB oracle hashes identically.

    Plan: per-doc distinct-token multiplicities from one scan; ONE
    bucketed sum produces the vocab-bounded
    (w, corpus_count, target_count) model side, materialized once (model
    scale = vocabulary, not corpus); scoring attaches counts via a
    w-keyed tagged-union shuffle with per-doc pre-combine, then a
    doc-keyed sum; the two corpus-wide constants fold in vectorized at
    the end (driver holds two scalars, never a table)."""
    from collections import Counter

    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, "documents.parquet")

    def fl6(x: np.ndarray) -> np.ndarray:
        return np.floor(np.log(x) * 1e6 + 0.5).astype(np.int64)

    def doc_tokens(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        langs = batch.column("lang").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_w, out_m, out_mt = [], [], [], []
        for i, lg, t in zip(ids, langs, texts):
            tgt = 1 if lg == target_lang else 0
            for w, m in Counter(simple_tokenize(t)).items():
                out_id.append(int(i))
                out_w.append(w)
                out_m.append(int(m))
                out_mt.append(int(m) * tgt)
        return pa.table({
            "w": pa.array(out_w, pa.string()),
            "doc_id": pa.array(out_id, pa.int64()),
            "m": pa.array(out_m, pa.int64()),
            "mt": pa.array(out_mt, pa.int64())})

    rows = (ray.data.read_parquet(path,
                                  columns=["doc_id", "lang", "text"])
            .map_batches(doc_tokens, batch_format="pyarrow"))

    def count_prep(batch: pa.Table) -> pa.Table:
        return batch.select(["w", "m", "mt"])

    counts = bucketed_sum(
        rows.map_batches(count_prep, batch_format="pyarrow"),
        ["w"], ["m", "mt"], rename={"m": "cc", "mt": "tc"}).materialize()
    v_size = counts.count()
    from ray.data.aggregate import Sum
    tot = counts.aggregate(Sum("cc", alias_name="ctot"),
                           Sum("tc", alias_name="ttot"))
    c_tot, t_tot = int(tot["ctot"]), int(tot["ttot"])
    # the two corpus constants of the smoothed log-ratio
    const_e6 = int(np.floor(np.log(c_tot + v_size) * 1e6 + 0.5)
                   - np.floor(np.log(t_tot + v_size) * 1e6 + 0.5))

    def tag_counts(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "w": batch.column("w"),
            "doc_id": pa.array(np.zeros(n, dtype=np.int64)),
            "m": pa.array(np.zeros(n, dtype=np.int64)),
            "cc": batch.column("cc").cast(pa.int64()),
            "tc": batch.column("tc").cast(pa.int64()),
            "side": pa.array(np.zeros(n, dtype=np.int8))})

    def tag_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "w": batch.column("w"),
            "doc_id": batch.column("doc_id"),
            "m": batch.column("m"),
            "cc": pa.array(np.zeros(n, dtype=np.int64)),
            "tc": pa.array(np.zeros(n, dtype=np.int64)),
            "side": pa.array(np.ones(n, dtype=np.int8))})

    union = (counts.map_batches(tag_counts, batch_format="pyarrow")
             .union(rows.map_batches(tag_rows, batch_format="pyarrow")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        model = g.loc[g["side"] == 0, ["w", "cc", "tc"]]
        d = g.loc[g["side"] == 1, ["w", "doc_id", "m"]]
        m_ = d.merge(model, on="w", how="left")
        mm = m_["m"].to_numpy(dtype=np.int64)
        cc_ = m_["cc"].fillna(0).to_numpy(dtype=np.int64)
        tc_ = m_["tc"].fillna(0).to_numpy(dtype=np.int64)
        part = mm * (fl6(tc_ + 1) - fl6(cc_ + 1))
        out = pd.DataFrame({"doc_id": m_["doc_id"].to_numpy(np.int64),
                            "n_tokens": mm, "part_e6": part})
        return (out.groupby("doc_id", sort=False)[["n_tokens", "part_e6"]]
                .sum().reset_index())

    per = bucketed_apply(union, ["w"], attach)
    # doc presence rides the doc_id-keyed shuffle as one zero row per
    # doc (a w="" sentinel would hash every document into ONE bucket of
    # the w-keyed shuffle above — a corpus-sized straggler)
    def zero_rows(batch: pa.Table) -> pa.Table:
        z = np.zeros(batch.num_rows, dtype=np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_tokens": pa.array(z), "part_e6": pa.array(z)})

    presence = (ray.data.read_parquet(path, columns=["doc_id"])
                .map_batches(zero_rows, batch_format="pyarrow"))
    summed = bucketed_sum(per.union(presence), ["doc_id"],
                          ["n_tokens", "part_e6"])

    def finish(batch: pa.Table) -> pa.Table:
        nt = batch.column("n_tokens").to_numpy().astype(np.int64)
        part = batch.column("part_e6").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_tokens": pa.array(nt, pa.int64()),
            "llr_e6": pa.array(part + nt * const_e6, pa.int64())})

    return summed.map_batches(finish, batch_format="pyarrow")


# C4-style document-level quality flags (Raffel et al. 2020 §2.2's
# cleanup rules, doc-level subset — the line-level rules need newline
# structure this corpus lacks): boilerplate markers (curly brace,
# "lorem ipsum", the word "javascript") and a banned-lexicon token
# count (C4 used a public blocklist; the default here is a small
# PLACEHOLDER lexicon — swap in the real list via ``banned``).
C4_DEFAULT_BANNED = ("slow", "legacy")


def c4_quality_flags(sf_dir: str, banned=C4_DEFAULT_BANNED):
    """(doc_id, has_brace, has_lorem, has_js, banned_n, keep) per doc —
    one streaming map, vectorized Arrow substring kernels, lexicon
    broadcast in the closure (ship-once; a large lexicon would ride
    ``ray.put`` identically).  ``keep`` = no marker and zero banned
    tokens — the C4 keep rule."""
    import pyarrow.compute as pc
    import ray.data

    from search_engine_ray.text.tokenizer import simple_tokenize

    banned = tuple(banned)

    def flags(batch: pa.Table) -> pa.Table:
        texts = batch.column("text")
        # tokenize ONCE per doc — both the joined string and the exact
        # banned TOKEN counts (a substring count would miss every
        # second occurrence in consecutive repeats) derive from it
        bset = frozenset(banned)
        n = np.zeros(batch.num_rows, np.int64)
        joined_l = []
        for i, t in enumerate(texts.to_pylist()):
            toks = simple_tokenize(t)
            joined_l.append(" " + " ".join(toks) + " ")
            n[i] = sum(1 for x in toks if x in bset)
        joined = pa.array(joined_l, pa.string())
        has_brace = pc.match_substring(texts, "{")
        has_lorem = pc.match_substring(
            pc.utf8_lower(texts), "lorem ipsum")
        has_js = pc.match_substring(joined, " javascript ")
        keep = (~(has_brace.to_numpy(zero_copy_only=False)
                  | has_lorem.to_numpy(zero_copy_only=False)
                  | has_js.to_numpy(zero_copy_only=False))
                & (n == 0))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "has_brace": has_brace,
            "has_lorem": has_lorem,
            "has_js": has_js,
            "banned_n": pa.array(n, pa.int64()),
            "keep": pa.array(keep, pa.bool_()),
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    return ds.map_batches(flags, batch_format="pyarrow")


def ngram_diversity(sf_dir: str, max_n: int = 3):
    """Corpus diversity report (distinct-n): per n in 1..max_n the
    total n-gram count, the EXACT distinct n-gram count, and
    floor(1e6·distinct/total) — the repetition/diversity health metric
    training-data pipelines track (synthetic-data mode collapse shows
    up as a falling distinct-2/3 ratio).  Distributed: per-batch
    DISTINCT (n, gram) rows into one gram-keyed bucket dedup (exact
    global distinct without a driver set), totals as integer partial
    sums; the driver sees buckets x n rows."""
    import pandas as pd
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply
    from search_engine_ray.text.tokenizer import simple_tokenize

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])

    def gram_rows(batch: pa.Table) -> pa.Table:
        ns, gs = [], []
        totals = np.zeros(max_n + 1, np.int64)
        for t in batch.column("text").to_pylist():
            toks = simple_tokenize(t)
            for n in range(1, max_n + 1):
                cnt = max(len(toks) - n + 1, 0)
                totals[n] += cnt
                if cnt:
                    seen = {" ".join(toks[i:i + n])
                            for i in range(cnt)}
                    gs.extend(seen)
                    ns.extend([n] * len(seen))
        # totals ride as reserved rows (gram='', one per n per batch)
        for n in range(1, max_n + 1):
            ns.append(-n)
            gs.append(str(totals[n]))
        return pa.table({"n": pa.array(ns, pa.int64()),
                         "gram": pa.array(gs, pa.string())})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g[g["n"] > 0].drop_duplicates(["n", "gram"])
        part = (cnt.groupby("n", sort=False).size()
                .rename("n_distinct").reset_index())
        tot = g[g["n"] < 0].copy()
        if len(tot):
            t2 = pd.DataFrame({
                "n": -tot["n"].to_numpy(),
                "total": tot["gram"].astype(np.int64).to_numpy()})
            t2 = t2.groupby("n", sort=False)["total"].sum().reset_index()
        else:
            t2 = pd.DataFrame({"n": pd.Series([], dtype="int64"),
                               "total": pd.Series([], dtype="int64")})
        out = part.merge(t2, on="n", how="outer").fillna(0)
        return out.astype({"n": np.int64, "n_distinct": np.int64,
                           "total": np.int64})

    parts = bucketed_apply(ds.map_batches(gram_rows,
                                          batch_format="pyarrow"),
                           ["n", "gram"], per_bucket).to_pandas()
    agg = parts.groupby("n")[["n_distinct", "total"]].sum().reset_index()
    agg = agg.sort_values("n")
    n_ = agg["n"].to_numpy()
    d_ = agg["n_distinct"].to_numpy()
    t_ = agg["total"].to_numpy()
    ratio = np.where(t_ > 0, (1_000_000 * d_) // np.maximum(t_, 1), 0)
    return pa.table({
        "n": pa.array(n_, pa.int64()),
        "total": pa.array(t_, pa.int64()),
        "n_distinct": pa.array(d_, pa.int64()),
        "ratio_e6": pa.array(ratio.astype(np.int64), pa.int64()),
    })
