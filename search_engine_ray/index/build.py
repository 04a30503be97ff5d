"""Distributed index build — the Ray-Data-native pipeline.

Replaces the reference's sequential SPIMI build + k-way disk merge
(/root/reference/search_engine.py:29-72, indexer.py:33-253) with four
checkpointed Dataset stages over zero-copy Arrow batches:

1. ``parsed``  — read_parquet(url, warc_ts, html) -> html extraction ->
   Parser actor pool -> forward-index parquet (one row per doc: doc stats +
   unique term/tf lists + capitals/entities).  This checkpoint is consumed
   by the three downstream stages so parsing runs ONCE (the reference
   parses once too), and is the resume point.
2. ``dict``    — term dictionary: per-batch partial rows (df partials,
   capitals-AND partials, entity-count partials, corpus stats) ->
   key-bucketed shuffle -> per-bucket aggregation + the reference's
   merge-time rules (entity<2 prune, capitals UPPER rewrite, df==1
   prune; /root/reference/indexer.py:156-169).
3. ``postings``— SPIMI partial runs per term built inside map_batches
   (the pre-shuffle combine; stats varbyte-compressed in flight), merged
   per term bucket and encoded into delta+varbyte posting blobs.  The
   dictionary verdicts are routed through the same shuffle as
   co-partitioned rows — no broadcast of vocab-sized state.
4. ``docmeta`` — GloVe doc centroids (/root/reference/indexer.py:54-69)
   + covid flag as an ordinary boolean column; one file per parse
   partition, rows sorted by (shard, doc_id) with small row groups so
   query actors' shard filters prune at the row-group level.

All four stages commit per PARTITION (_PARTS.jsonl; parse partitions are
deterministic row-group chunks, dict/postings partitions are spill
buckets, docmeta partitions are the parse partition files) — a killed
build resumes from the commit log to a byte-identical index.

INCREMENTAL INGESTION: parse and docmeta partitions are keyed by their
source FILE's fingerprint (path+size+mtime), not its position in the
input list, and their commit-log entries carry the PER_FILE_LINEAGE
constant instead of the global input fingerprint.  Adding new input
files to an existing index therefore re-runs only the NEW files through
the two per-doc stages (parse = the html/tokenize hot loop, docmeta =
GloVe centroids) and then re-reduces the dict/postings shuffles over
all forward-index rows — required, because the dictionary rules
(df==1 prune, capitals-AND, entity threshold) are global corpus
semantics, so Lucene-style pairwise segment merge cannot reproduce a
full rebuild's output under this reference.  The result is byte
identical to a from-scratch build on the union input
(tests/test_incremental.py).

Shuffles are EXPLICIT filesystem exchanges (write hash-partitioned by
bucket with every map task appending its own files, then one reduce task
per bucket): both phases are embarrassingly parallel, unlike Ray's
driver-coordinated sort at these block counts.  Spills live on tmpfs and
are deleted after the stage commits.  This is the reference's disk
spill + k-way merge (indexer.py:110-253) as a parallel external shuffle.

Skew: postings are DOC-SHARDED (shard = doc_id % S, carried as the
second shuffle key ``sshard``).  The spill partitions by
(tbucket, sshard), so a head term like the reference's 'rt' (df = 70% of
corpus) splits across S reducers that never see each other's rows — no
single blob ever holds a full head-term posting list, query actors serve
disjoint doc sets, and per-reducer volume is bounded by
total_postings / (term_buckets * num_shards) EVEN under zipf skew
(doc ids are url hashes, so a term's postings spread uniformly over
doc_id % S).  At cluster scale both knobs scale with nodes.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from search_engine_ray.config import EngineConfig
from search_engine_ray.glove import GloveCache
from search_engine_ray.ids import doc_id_for_url, term_bucket
from search_engine_ray.index import manifest as mf
from search_engine_ray.text.extract import extract_text
from search_engine_ray.text.parser import Parser

PARSED_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("url", pa.string()),
    ("warc_ts", pa.int64()),          # microseconds since epoch
    ("shard", pa.int32()),
    ("doc_length", pa.int32()),
    ("max_tf", pa.int32()),
    ("unique_terms", pa.int32()),
    ("is_covid", pa.bool_()),
    ("terms", pa.list_(pa.string())),  # unique terms per doc
    ("tfs", pa.list_(pa.int32())),
    # flat token positions, concatenated per term in `terms` order (the
    # i-th term's sublist length is tfs[i]); empty unless cfg.positions
    ("positions", pa.list_(pa.int32())),
    ("caps_terms", pa.list_(pa.string())),
    ("caps_flags", pa.list_(pa.bool_())),
    ("entities", pa.list_(pa.string())),
])

# reserved dictionary keys carrying corpus stats through the dict shuffle
# \x01 prefix, NOT \x00: pandas' khash-based string factorization
# (groupby / pd.util.hash_array) treats object strings as C strings and
# stops hashing/comparing at a NUL byte, so two distinct "\x00..."-keys
# GROUP AS EQUAL — with both stats keys in one dict bucket (always true
# at term_buckets=1) their partial sums silently merged.  \x01 is just
# as unreachable by real tokens and survives pandas grouping intact.
NDOCS_KEY = "\x01__ndocs__"
SUMDL_KEY = "\x01__sumdl__"

_RUN_FIELDS = [
    ("tbucket", pa.int32()),  # shuffle partition: hash(term) % term_buckets
    ("sshard", pa.int32()),   # second shuffle key: doc_id % num_shards —
                              # splits a head term across num_shards
                              # reducers (bounded per-reducer volume under
                              # zipf skew; the reference's 'rt' has df=70%).
                              # sshard == -1 marks a DICT PARTIAL row: the
                              # dict and posting stages share ONE scan of
                              # the forward index and ONE partitioned
                              # spill; dict rows land in their term's
                              # tbucket so the postings reducer for that
                              # bucket finds its verdicts co-partitioned.
    ("term", pa.string()),
    ("n", pa.int64()),
    ("docids", pa.binary()),            # raw int64 doc ids, doc-sorted
    ("tfs", pa.binary()), ("dls", pa.binary()),   # varbyte streams
    ("mtfs", pa.binary()),
    # per-posting position sublists (within-doc delta + varbyte; the
    # sublist for posting i holds tfs[i] values) — b"" unless
    # cfg.positions
    ("poss", pa.binary()),
    # dict-partial payload (null on posting runs): df / capitals-AND /
    # entity doc-count partials per key (reference merge inputs,
    # /root/reference/indexer.py:89-105)
    ("df_part", pa.int64()),
    ("caps_part", pa.int8()),
    ("ent_part", pa.int64()),
]
RUN_SCHEMA = pa.schema(_RUN_FIELDS)

# bump when the on-disk index layout changes — part of the checkpoint
# fingerprint so stale checkpoints rebuild instead of misloading
INDEX_FORMAT = 9


def _doc_positions_flat(d) -> list:
    """Flat position list for a parsed doc: token indices concatenated
    per term in ``term_tfs`` key order (sublist i has length tfs[i])."""
    pos_map: dict[str, list[int]] = {}
    for i, t in enumerate(d.tokens):
        pos_map.setdefault(t, []).append(i)
    flat: list[int] = []
    for t in d.term_tfs:
        flat.extend(pos_map[t])
    return flat


# --------------------------------------------------------------- stage 1
def _append_parsed_row(cols: dict, cfg: EngineConfig, d, doc_id: int,
                       url: str, ts: int) -> None:
    """Append one parsed doc to the PARSED_SCHEMA column lists."""
    cols["doc_id"].append(doc_id)
    cols["url"].append(url)
    cols["warc_ts"].append(ts)
    cols["shard"].append(doc_id % cfg.num_shards)
    cols["doc_length"].append(d.doc_length)
    cols["max_tf"].append(d.max_tf)
    cols["unique_terms"].append(d.unique_terms)
    cols["is_covid"].append("covid" in d.term_tfs)
    cols["terms"].append(list(d.term_tfs.keys()))
    cols["tfs"].append(list(d.term_tfs.values()))
    cols["positions"].append(_doc_positions_flat(d) if cfg.positions else [])
    cols["caps_terms"].append(list(d.capitals.keys()))
    cols["caps_flags"].append(list(d.capitals.values()))
    cols["entities"].append(sorted(d.entities))


def _parsed_table(cols: dict) -> pa.Table:
    return pa.table(
        {n: pa.array(cols[n], type=t)
         for n, t in zip(PARSED_SCHEMA.names, PARSED_SCHEMA.types)}
    )


class ParsePages:
    """Actor-pool UDF: html -> text -> parsed doc columns (ST1/ST2 state
    built once per actor; /root/reference/parser_module.py:13-38)."""

    def __init__(self, config: EngineConfig):
        self.cfg = config
        self.parser = Parser.from_config(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        tss = batch.column("warc_ts").cast(pa.int64()).to_pylist()
        htmls = batch.column("html").to_pylist()
        cols = {name: [] for name in PARSED_SCHEMA.names}
        for url, ts, html in zip(urls, tss, htmls):
            text = extract_text(html)
            d = self.parser.parse_page(url, text)
            if d is None:
                continue  # reference drops unparseable rows (parser_module.py:165-171)
            _append_parsed_row(cols, self.cfg, d, doc_id_for_url(url), url,
                               ts)
        return _parsed_table(cols)


class ParseTweets:
    """Actor-pool UDF for the reference's native tweet-row shape (F2):
    positional fields, JSON url dicts, quote-text concat, date strings
    '%a %b %d %X %z %Y' (/root/reference/parser_module.py:104-191).
    Rows are passed positionally — column ORDER in the parquet file is the
    contract, like the reference's df.values.tolist() (reader.py:17-19)."""

    def __init__(self, config: EngineConfig):
        self.cfg = config
        self.parser = Parser.from_config(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from datetime import datetime

        cols_in = [batch.column(i).to_pylist()
                   for i in range(batch.num_columns)]
        cols = {name: [] for name in PARSED_SCHEMA.names}
        for i in range(batch.num_rows):
            row = [c[i] for c in cols_in]
            d = self.parser.parse_tweet_row(row)
            if d is None:
                continue
            tweet_id = int(row[0])
            try:
                ts = int(datetime.strptime(
                    row[1], "%a %b %d %X %z %Y").timestamp() * 1_000_000)
            except (ValueError, TypeError):
                continue  # reference would raise; we drop the row
            _append_parsed_row(cols, self.cfg, d, tweet_id, str(tweet_id), ts)
        return _parsed_table(cols)


# --------------------------------------------------------------- stage 2
def _bucket_array(keys_list: list, nbuckets: int) -> pa.Array:
    """term_bucket per key, memoized in the per-worker-process cache (the
    hash is the same one BuildRuns uses, so run rows and dict rows for a
    term land in the same tbucket by construction)."""
    cache = _WORKER_BUCKET_CACHE
    out = np.empty(len(keys_list), np.int32)
    for i, k in enumerate(keys_list):
        ck = (nbuckets, k)
        b = cache.get(ck)
        if b is None:
            if len(cache) >= 2_000_000:
                cache.clear()  # bound per-worker memory
            b = term_bucket(k, nbuckets)
            cache[ck] = b
        out[i] = b
    return pa.array(out, pa.int32())


def dict_rows(keys, term_buckets: int, *, df=None, caps=None,
              ent=None) -> pa.Table:
    """Dictionary partial rows for ``keys`` shaped to RUN_SCHEMA:
    sshard=-1, the posting columns null, and the df / capitals-AND /
    entity doc-count partials the caller passes (the others null)."""
    keys = keys.cast(pa.string())
    n = len(keys)
    given = {"tbucket": _bucket_array(keys.to_pylist(), term_buckets),
             "sshard": np.full(n, -1, np.int32), "term": keys,
             "df_part": df, "caps_part": caps, "ent_part": ent}

    def col(f: pa.Field):
        v = given.get(f.name)
        if v is None:
            return pa.nulls(n, f.type)
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return v.cast(f.type)
        return pa.array(v, f.type)

    return pa.table([col(f) for f in RUN_SCHEMA], schema=RUN_SCHEMA)


def dict_partial_rows(batch: pa.Table, term_buckets: int) -> pa.Table:
    """Per-batch pre-aggregation for the dictionary groupby: df partials
    (terms are unique per doc so a flat value_count is a doc count),
    capitals-AND partials, entity doc-count partials.  Rows are shaped to
    RUN_SCHEMA with sshard=-1 so they ride the SAME partitioned spill as
    the posting runs (one scan, one shuffle)."""
    import pyarrow.compute as pc

    vc = pc.list_flatten(batch.column("terms")).value_counts()
    tables = [dict_rows(vc.field("values"), term_buckets,
                        df=vc.field("counts"))]

    # corpus stats ride the same shuffle as reserved "\x01" keys — saves a
    # separate full-scan aggregate execution (n_docs / sum(doc_length))
    tables.append(dict_rows(
        pa.array([NDOCS_KEY, SUMDL_KEY]), term_buckets,
        df=[batch.num_rows,
            int(pc.sum(batch.column("doc_length")).as_py() or 0)]))

    caps_t = pc.list_flatten(batch.column("caps_terms")).combine_chunks()
    if len(caps_t):
        caps_f = pc.list_flatten(batch.column("caps_flags")).to_numpy(
            zero_copy_only=False).astype(np.int8)
        denc = caps_t.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False)
        mins = np.ones(len(denc.dictionary), dtype=np.int8)
        np.minimum.at(mins, codes, caps_f)  # AND within batch
        tables.append(dict_rows(denc.dictionary, term_buckets, caps=mins))

    ents = pc.list_flatten(batch.column("entities"))
    if len(ents):
        vc = ents.value_counts()
        tables.append(dict_rows(vc.field("values"), term_buckets,
                                ent=vc.field("counts")))

    return pa.concat_tables(tables)


def apply_dict_rules(batch: pa.Table, prune_df1: bool) -> pa.Table:
    """The reference's merge-time pruning/rewrite rules, vectorized
    (/root/reference/indexer.py:156-169), over aggregated dictionary rows."""
    import pandas as pd

    df = batch.to_pandas()
    stats = df[df["key"].str.startswith("\x01")]
    df = df[~df["key"].str.startswith("\x01")]
    df = df[df["df"].notna() & (df["df"] > 0)]
    # entity<2 prune: posting term string equals an entity-chunk string
    # with doc-count < 2  (case mismatch makes this near-dead; as-written)
    keep = ~(df["ent"].notna() & (df["ent"] < 2))
    if prune_df1:
        keep &= df["df"] != 1
    df = df[keep]
    rewritten = df["caps"].astype("float64").fillna(0.0).astype(int) == 1
    final = df["key"].where(~rewritten, df["key"].str.upper())
    # str.upper() is not injective ('straße'/'strasse' -> 'STRASSE'):
    # when two orig keys in this bucket share a final term, the
    # reference's sorted-order merge overwrite keeps the GREATEST orig
    # key's entry (indexer.py:161-166; oracle.finalize mirrors it) — the
    # lesser key's row is dropped here, which also prunes its postings
    # (no verdict -> FinalizeBucket skips them), exactly last-wins.
    if final.duplicated().any():
        win = (pd.DataFrame({"f": final.to_numpy(),
                             "k": df["key"].to_numpy()})
               .sort_values("k").groupby("f")["k"].last())
        keepm = df["key"].to_numpy() == win.loc[final.to_numpy()].to_numpy()
        df = df[keepm]
        rewritten = rewritten[keepm]
        final = final[keepm]
    out = pa.table({
        "term": pa.array(final.tolist() + stats["key"].tolist(), pa.string()),
        "orig_term": pa.array(df["key"].tolist() + stats["key"].tolist(),
                              pa.string()),
        "df": pa.array(df["df"].astype(np.int64).tolist()
                       + stats["df"].astype(np.int64).tolist(), pa.int64()),
        "rewritten": pa.array(rewritten.tolist() + [False] * len(stats),
                              pa.bool_()),
    })
    # sorted output => dict bytes are a pure function of the partition's
    # row multiset (spill read order varies across resumed runs; the
    # byte-identical-resume guarantee needs this sort to be REAL, not
    # just claimed by the reduce docstring)
    return out.sort_by([("term", "ascending"), ("orig_term", "ascending")])


# Per-worker-process caches: stateless TASK UDFs reuse Ray worker
# processes, so module-level state gives the once-per-worker setup of an
# actor pool without per-stage actor spawn cost (significant when many
# short stages run back to back).
_WORKER_BUCKET_CACHE: dict[tuple[int, str], int] = {}
_WORKER_GLOVES: dict[str, GloveCache] = {}


def _worker_glove(cfg: EngineConfig) -> GloveCache:
    key = cfg.glove_path or ""
    g = _WORKER_GLOVES.get(key)
    if g is None:
        g = GloveCache(cfg.glove_path, cfg.glove_dim)
        _WORKER_GLOVES[key] = g
    return g


def build_runs_batch(batch: pa.Table, cfg: EngineConfig) -> pa.Table:
    return BuildRuns(cfg, _WORKER_BUCKET_CACHE)(batch)


def fused_spill_rows(batch: pa.Table, cfg: EngineConfig) -> pa.Table:
    """ONE pass over the forward index emits BOTH the SPIMI posting runs
    and the dictionary partial rows (sshard=-1), so the dict and postings
    stages share a single scan and a single (tbucket, sshard)-partitioned
    spill (VERDICT r2 item 6: stages 2 and 3 used to re-scan ``parsed``
    separately)."""
    return pa.concat_tables([
        BuildRuns(cfg, _WORKER_BUCKET_CACHE)(batch),
        dict_partial_rows(batch, cfg.term_buckets),
    ])


def finalize_group(group, term_map: dict, tbucket: int,
                   cfg: EngineConfig) -> pa.Table:
    return FinalizeBucket(cfg)(group, term_map, tbucket)


def doc_vec_batch(batch: pa.Table, cfg: EngineConfig) -> pa.Table:
    return DocVec(cfg, _worker_glove(cfg))(batch)


# --------------------------------------------------------------- stage 3
class BuildRuns:
    """SPIMI partial posting runs per (TERM, doc shard) within each batch
    — the pre-shuffle combine (reference analogue: the in-memory posting
    chunk, /root/reference/indexer.py:89-105).  Runs carry the doc shard
    (doc_id % num_shards) as a second shuffle key so the spill partitions
    by (tbucket, sshard): a head term like the reference's 'rt' (df = 70%
    of corpus) splits across num_shards reducers that never see each
    other's rows — per-reducer volume is bounded by
    total / (term_buckets * num_shards) even under zipf skew.  Row-count
    cost is modest: only terms present in >1 shard within a batch emit
    extra rows, and per-posting stats still ship varbyte-compressed."""

    def __init__(self, config: EngineConfig, bucket_cache=None):
        self.cfg = config
        self._bucket_cache = ({} if bucket_cache is None else bucket_cache)

    def _tbucket(self, term: str) -> int:
        key = (self.cfg.term_buckets, term)
        b = self._bucket_cache.get(key)
        if b is None:
            if len(self._bucket_cache) >= 2_000_000:
                self._bucket_cache.clear()  # bound per-worker memory
            b = term_bucket(term, self.cfg.term_buckets)
            self._bucket_cache[key] = b
        return b

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from search_engine_ray.index.encoding import (
            sublist_gather,
            varbyte_encode,
        )

        terms_col = batch.column("terms").combine_chunks()
        tfs_col = batch.column("tfs").combine_chunks()
        lens = pc.list_value_length(terms_col).to_numpy().astype(np.int64)
        flat = pc.list_flatten(terms_col)
        if len(flat) == 0:
            return pa.table({n: pa.array([], type=t) for n, t in _RUN_FIELDS})
        # Arrow-side dictionary encode: no Python string materialization
        denc = flat.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniques = denc.dictionary.to_pylist()
        flat_tfs = pc.list_flatten(tfs_col).to_numpy().astype(np.int64)
        doc_ids = np.repeat(batch.column("doc_id").to_numpy(), lens)
        dls = np.repeat(
            batch.column("doc_length").to_numpy(), lens).astype(np.int64)
        mtfs = np.repeat(
            batch.column("max_tf").to_numpy(), lens).astype(np.int64)
        shards = (doc_ids % self.cfg.num_shards).astype(np.int64)

        order = np.lexsort((doc_ids, shards, codes))
        codes_o = codes[order]
        shards_o = shards[order]
        doc_ids = doc_ids[order]
        boundary = np.empty(len(order), dtype=bool)
        boundary[0] = True
        boundary[1:] = (codes_o[1:] != codes_o[:-1]) | (
            shards_o[1:] != shards_o[:-1])
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], len(order))

        # ONE varbyte pass per stat stream over the whole batch, then
        # cheap per-segment byte slicing (same trick as finalize)
        tf_buf, tf_off = varbyte_encode(flat_tfs[order])
        dl_buf, dl_off = varbyte_encode(dls[order])
        mtf_buf, mtf_off = varbyte_encode(mtfs[order])

        if self.cfg.positions:
            # flat positions align with the NATURAL (doc, term) pair
            # order: pair i's sublist (length flat_tfs[i]) starts at the
            # exclusive prefix sum.  Gather sublists into sorted-pair
            # order, delta-encode WITHIN each sublist (first value
            # absolute), one varbyte pass, per-segment byte slicing.
            pos_flat = pc.list_flatten(
                batch.column("positions")).to_numpy().astype(np.int64)
            gather, out_off = sublist_gather(flat_tfs, order)
            pos_sorted = pos_flat[gather]
            pd_ = np.empty_like(pos_sorted)
            pd_[1:] = pos_sorted[1:] - pos_sorted[:-1]
            pd_[out_off[:-1]] = pos_sorted[out_off[:-1]]
            pos_buf, pos_boff = varbyte_encode(pd_)
        # zero-copy segment emission: every output binary column is the
        # big contiguous stream + int32 slice offsets, built with Arrow
        # from_buffers — no per-segment Python loop (was ~1.5 s per 16k
        # docs; segments are contiguous in the sorted order, so the
        # boundaries ARE the offsets)
        nseg = len(starts)
        npairs = len(order)
        bounds = np.append(starts, npairs)

        def bin_col(buf, byte_off: np.ndarray) -> pa.Array:
            return pa.Array.from_buffers(
                pa.binary(), nseg,
                [None, pa.py_buffer(byte_off.astype(np.int32).tobytes()),
                 pa.py_buffer(buf)])

        seg_codes = codes_o[starts]
        uniq_tb = np.fromiter(
            (self._tbucket(u) for u in uniques), dtype=np.int32,
            count=len(uniques))
        if self.cfg.positions:
            poss_col = bin_col(pos_buf, pos_boff[out_off[bounds]])
        else:
            poss_col = bin_col(b"", np.zeros(nseg + 1, np.int64))
        return pa.table({
            "tbucket": pa.array(uniq_tb[seg_codes], pa.int32()),
            "sshard": pa.array(shards_o[starts].astype(np.int32)),
            "term": denc.dictionary.take(pa.array(seg_codes)),
            "n": pa.array((ends - starts).astype(np.int64)),
            "docids": bin_col(doc_ids.tobytes(), bounds * 8),
            "tfs": bin_col(tf_buf, tf_off[bounds]),
            "dls": bin_col(dl_buf, dl_off[bounds]),
            "mtfs": bin_col(mtf_buf, mtf_off[bounds]),
            "poss": poss_col,
            "df_part": pa.nulls(nseg, pa.int64()),
            "caps_part": pa.nulls(nseg, pa.int8()),
            "ent_part": pa.nulls(nseg, pa.int64()),
        }, schema=RUN_SCHEMA)


class FinalizeBucket:
    """Merge runs per term within one (shard, tbucket) group, apply the
    dictionary verdicts, and encode final posting blobs (the reference's
    merge_chunks + save, /root/reference/indexer.py:118-220, without any
    k-way disk merge — the groupby shuffle did the routing).

    Verdicts arrive as ``term_map`` {orig_term: (final_term, df_global)},
    read by the reduce task from the dict stage's co-partitioned bucket
    file (same term hash, same bucket count — no broadcast, no
    replication through the shuffle)."""

    def __init__(self, config: EngineConfig):
        self.cfg = config

    _OUT_COLS = ("shard", "tbucket", "term", "orig", "df_global", "n",
                 "docids_vb", "tf_vb", "dl_vb", "mtf_vb", "pos_vb")

    def _empty(self) -> pa.Table:
        types = {"shard": pa.int32(), "tbucket": pa.int32(),
                 "term": pa.string(), "orig": pa.string(),
                 "df_global": pa.int64(), "n": pa.int64()}
        return pa.table({k: pa.array([], type=types.get(k, pa.binary()))
                         for k in self._OUT_COLS})

    def __call__(self, group, term_map: dict, tbucket: int) -> pa.Table:
        """Vectorized merge+encode: ONE lexsort and ONE varbyte pass per
        stream over the whole group, then cheap per-(term,shard) byte
        slicing — no per-term numpy call overhead."""
        import pandas as pd

        from search_engine_ray.index.encoding import (
            sublist_gather,
            varbyte_encode,
        )

        assert isinstance(group, pd.DataFrame)
        runs = group
        if len(runs) == 0:
            return self._empty()

        from search_engine_ray.index.encoding import varbyte_decode

        ids_parts = [np.frombuffer(b, dtype=np.int64)
                     for b in runs["docids"]]
        lens = np.fromiter((len(x) for x in ids_parts), dtype=np.int64,
                           count=len(ids_parts))
        ids = np.concatenate(ids_parts)
        total = len(ids)
        tfs = varbyte_decode(b"".join(runs["tfs"]), count=total)
        dls = varbyte_decode(b"".join(runs["dls"]), count=total)
        mtfs = varbyte_decode(b"".join(runs["mtfs"]), count=total)
        if self.cfg.positions:
            # per-posting position sublists (within-doc deltas) ride the
            # reorder ATOMICALLY — deltas never cross sublists, so no
            # decode-to-absolute is needed to merge
            cnt_pre = tfs.copy()
            pos_d = varbyte_decode(b"".join(runs["poss"]),
                                   count=int(cnt_pre.sum()))

        codes, uniques = pd.factorize(runs["term"].to_numpy())
        seg_term = np.repeat(codes, lens)
        # doc shard derived from the id — runs are term-keyed only
        seg_shard = (ids % self.cfg.num_shards).astype(np.int32)
        order = np.lexsort((ids, seg_shard, seg_term))  # indexer.py:219
        ids = ids[order]
        tfs = tfs[order]
        dls = dls[order]
        mtfs = mtfs[order]
        seg_term = seg_term[order]
        seg_shard = seg_shard[order]

        boundary = np.empty(len(ids), dtype=bool)
        boundary[0] = True
        boundary[1:] = (seg_term[1:] != seg_term[:-1]) | (
            seg_shard[1:] != seg_shard[:-1])
        seg_starts = np.flatnonzero(boundary)
        seg_ends = np.append(seg_starts[1:], len(ids))

        deltas = np.empty_like(ids)
        deltas[1:] = ids[1:] - ids[:-1]
        deltas[seg_starts] = ids[seg_starts]

        doc_buf, doc_off = varbyte_encode(deltas)
        tf_buf, tf_off = varbyte_encode(tfs)
        dl_buf, dl_off = varbyte_encode(dls)
        mtf_buf, mtf_off = varbyte_encode(mtfs)
        if self.cfg.positions:
            gather, pos_out_off = sublist_gather(cnt_pre, order)
            pos_buf, pos_boff = varbyte_encode(pos_d[gather])

        from search_engine_ray.ids import term_bucket as _tb

        out = {k: [] for k in self._OUT_COLS}
        for k in range(len(seg_starts)):
            term = uniques[seg_term[seg_starts[k]]]
            verdict = term_map.get(term)
            if verdict is None:
                continue  # pruned by dictionary rules
            s, e = seg_starts[k], seg_ends[k]
            out["shard"].append(int(seg_shard[s]))
            # bucket keyed by the FINAL term so query-side pruning finds
            # capitals-rewritten terms too
            out["tbucket"].append(
                tbucket if verdict[0] == term
                else _tb(verdict[0], self.cfg.term_buckets))
            out["term"].append(verdict[0])
            # orig rides along so the READ side can resolve capitals
            # collisions that span partitions: two orig terms in
            # DIFFERENT tbuckets can rewrite to the same final term, and
            # their rows land in separate files of the same final-tbucket
            # dir — prefetch keeps only the max-orig rows (mirroring
            # load_df_map / reference indexer.py:161-166)
            out["orig"].append(term)
            out["df_global"].append(int(verdict[1]))
            out["n"].append(int(e - s))
            out["docids_vb"].append(doc_buf[doc_off[s]:doc_off[e]])
            out["tf_vb"].append(tf_buf[tf_off[s]:tf_off[e]])
            out["dl_vb"].append(dl_buf[dl_off[s]:dl_off[e]])
            out["mtf_vb"].append(mtf_buf[mtf_off[s]:mtf_off[e]])
            out["pos_vb"].append(
                pos_buf[pos_boff[pos_out_off[s]]:pos_boff[pos_out_off[e]]]
                if self.cfg.positions else b"")
        # the capitals UPPER rewrite is not injective (two distinct orig
        # terms — e.g. 'straße' and 'strasse' — can share a final UPPER
        # term and, with 1/term_buckets probability, this partition).
        # The reference's merge overwrites the dict entry as it walks
        # terms in sorted order (indexer.py:161-166), i.e. the
        # lexicographically GREATEST orig term wins; oracle.finalize
        # mirrors that, and so must we — keep that row, drop the rest.
        if len(set(out["term"])) != len(out["term"]):
            best: dict[str, int] = {}
            for i, ft in enumerate(out["term"]):
                j = best.get(ft)
                if j is None or out["orig"][i] > out["orig"][j]:
                    best[ft] = i
            keep = sorted(best.values())
            out = {k: [v[i] for i in keep] for k, v in out.items()}
        types = {"shard": pa.int32(), "tbucket": pa.int32(),
                 "term": pa.string(), "orig": pa.string(),
                 "df_global": pa.int64(), "n": pa.int64()}
        tbl = pa.table({k: pa.array(v, type=types.get(k, pa.binary()))
                        for k, v in out.items()})
        # term-sorted rows => tight parquet row-group min/max stats for
        # readers that filter the Parquet files by term (the shard
        # actors' dataset filter).
        # INVARIANT the engine's postings sidecar relies on (engine.py
        # _write_postings_sidecar): each posting file holds at most ONE
        # row per term, so the sidecar's directory has one entry per
        # (term, posting file), each entry's extents cover one doc
        # shard's segment, and a term's entries sum to its df (fsck
        # checks this) — true because every reduce partition is a
        # single shard of one tbucket and rewrite collisions were deduped
        # above.  Assert it so a future multi-row-per-term writer fails
        # loudly at BUILD time instead of silently corrupting postings at
        # query time.
        terms = tbl.column("term").to_pylist()
        if len(terms) != len(set(terms)):
            raise AssertionError(
                "FinalizeBucket produced duplicate term rows in one "
                "partition — the engine's postings sidecar expects one "
                "row per term per posting file")
        return tbl.sort_by("term")


# --------------------------------------------------------------- stage 4
class DocVec:
    """GloVe doc centroid actor (ST3): sum of vectors over a doc's UNIQUE
    terms divided by unique-term count (/root/reference/indexer.py:54-61
    — divides by len(term_dict), not by the matched count)."""

    def __init__(self, config: EngineConfig, glove: GloveCache | None = None):
        self.cfg = config
        self.glove = glove or GloveCache()

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        terms_col = batch.column("terms").combine_chunks()
        lens = pc.list_value_length(terms_col).to_numpy().astype(np.int64)
        flat = pc.list_flatten(terms_col)
        dim = self.cfg.glove_dim
        vecs = np.zeros((len(lens), dim))
        row_idx = np.repeat(np.arange(len(lens)), lens)
        # lookup once per UNIQUE term in the batch, scatter by codes
        if len(flat):
            denc = flat.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False)
            uniq = denc.dictionary.to_pylist()
        else:
            codes, uniq = np.zeros(0, int), []
        get = self.glove.get
        uniq_vecs = np.zeros((len(uniq), dim))
        uniq_hit = np.zeros(len(uniq), dtype=bool)
        for i, t in enumerate(uniq):
            g = get(t)
            if g is not None:
                uniq_vecs[i] = g
                uniq_hit[i] = True
        hit = uniq_hit[codes]
        # segment-sum via reduceat: row_idx is sorted (repeat of arange),
        # so hit rows group contiguously — orders of magnitude faster than
        # np.add.at's unbuffered scatter on (rows x dim) gathers
        idx = row_idx[hit]
        if len(idx):
            vals = uniq_vecs[codes[hit]]
            starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
            vecs[idx[starts]] = np.add.reduceat(vals, starts, axis=0)
        vecs /= np.maximum(lens, 1)[:, None]

        keep = ["doc_id", "url", "warc_ts", "shard", "doc_length",
                "max_tf", "unique_terms", "is_covid"]
        tbl = batch.select(keep)
        glove_col = pa.FixedSizeListArray.from_arrays(
            pa.array(vecs.reshape(-1), pa.float64()), dim)
        return tbl.append_column("glove", glove_col)


def _spill_base(out_dir: str) -> str:
    """Transient shuffle spills go to tmpfs when available — concurrent
    partitioned writes from many tasks thrash a disk-backed /tmp."""
    if os.path.isdir("/dev/shm"):
        import hashlib

        tag = hashlib.blake2b(os.path.abspath(out_dir).encode(),
                              digest_size=4).hexdigest()
        return f"/dev/shm/se_ray_spill_{tag}"
    return out_dir


class InjectedCrash(RuntimeError):
    """Raised by the test-only crash hooks (GRAFT_CRASH_*_AFTER env vars)
    to simulate a driver death between partition commits."""


def _maybe_crash(env_var: str, n_committed: int) -> None:
    v = os.environ.get(env_var)
    if v and n_committed >= int(v):
        raise InjectedCrash(f"{env_var}={v} after {n_committed} commits")


# Lineage fingerprint for the per-FILE incremental stages (parse,
# docmeta): their partitions are keyed by the source file's own identity
# (path+size+mtime digest), so commit-log entries stay valid when OTHER
# input files are added or removed — an incremental ingest re-parses
# only the new files.  The stage markers still carry the global
# input_fp; only the per-partition log uses this constant.
PER_FILE_LINEAGE = "perfile-v1"


def _file_fingerprint(path: str) -> str:
    """Lineage key for incremental ingestion.  Uses st_mtime_ns (not
    whole seconds — a same-size rewrite within one second must change
    the fingerprint) plus the parquet footer bytes: the footer digests
    row-group layout and column statistics, so any content change that
    survives a size+mtime collision (e.g. copied-over file with mtime
    preserved) still rotates the lineage key."""
    import hashlib

    st = os.stat(path)
    h = hashlib.blake2b(
        f"{os.path.abspath(path)}:{st.st_size}:{st.st_mtime_ns}".encode(),
        digest_size=6)
    try:
        with open(path, "rb") as f:
            # parquet footer: last 8 bytes are <footer_len><'PAR1'>
            f.seek(max(0, st.st_size - 8))
            tail = f.read(8)
            if len(tail) == 8 and tail[4:] == b"PAR1":
                flen = int.from_bytes(tail[:4], "little")
                f.seek(max(0, st.st_size - 8 - flen))
                h.update(f.read(flen))
    except OSError:
        pass
    return h.hexdigest()


def _parse_partitions(in_files: list[str],
                      target_rows: int) -> list[tuple[str, str, list[int]]]:
    """Deterministic parse-partition plan: (part_key, file, row_groups).

    A pure function of the input parquet files and ``target_rows`` —
    independent of cluster size and scheduling, so a resumed run
    reproduces the identical partition set (and therefore identical
    output files).  Partition keys embed the source FILE's fingerprint
    (not its position in the input list), so adding or removing other
    input files never invalidates a file's committed partitions —
    the basis of incremental ingestion.  Row groups are never split; a
    file with one huge row group degrades to a single partition."""
    import pyarrow.parquet as pq

    parts: list[tuple[str, str, list[int]]] = []
    for f in in_files:
        ffp = _file_fingerprint(f)
        md = pq.ParquetFile(f).metadata
        cur: list[int] = []
        cur_rows = 0
        for rg in range(md.num_row_groups):
            cur.append(rg)
            cur_rows += md.row_group(rg).num_rows
            if cur_rows >= target_rows:
                parts.append((f"f{ffp}-rg{cur[0]:05d}", f, cur))
                cur, cur_rows = [], 0
        if cur:
            parts.append((f"f{ffp}-rg{cur[0]:05d}", f, cur))
        if md.num_row_groups == 0:
            parts.append((f"f{ffp}-rg00000", f, []))
    return parts


# per-worker-process parser cache for the task-based parse stage (workers
# are reused across tasks; the parser compiles regex/stopword state once)
_PARSE_UDF_CACHE: dict[tuple, object] = {}


def _parse_part(path: str, row_groups: list[int], out_path: str,
                cfg: EngineConfig, input_format: str) -> int:
    """Parse one partition (a row-group chunk of one input file) and
    atomically write its forward-index parquet; returns rows written.

    Output bytes are deterministic in (file, row_groups, config): batches
    iterate in row-group order with a fixed batch size, and the writer
    lays one row group per batch."""
    import pyarrow.parquet as pq

    key = (cfg.stemming, cfg.tokenizer, cfg.harvest_page_url,
           cfg.raw_tokens, cfg.positions, cfg.num_shards, input_format)
    udf = _PARSE_UDF_CACHE.get(key)
    if udf is None:
        udf = (ParsePages if input_format == "pages" else ParseTweets)(cfg)
        _PARSE_UDF_CACHE[key] = udf
    cols = ["url", "warc_ts", "html"] if input_format == "pages" else None
    import uuid

    pf = pq.ParquetFile(path)
    # unique tmp name: an orphaned task from a killed run may still be
    # writing its own attempt of the same partition
    tmp = out_path + f".tmp-{uuid.uuid4().hex[:8]}"
    rows = 0
    writer = pq.ParquetWriter(tmp, PARSED_SCHEMA)
    try:
        if row_groups:
            for batch in pf.iter_batches(batch_size=cfg.parse_batch_size,
                                         row_groups=row_groups,
                                         columns=cols):
                out = udf(pa.Table.from_batches([batch]))
                if out.num_rows:
                    writer.write_table(out)
                    rows += out.num_rows
    finally:
        writer.close()
        pf.close()
    os.replace(tmp, out_path)
    return {"rows": rows}


def _run_part_tasks(work, task_fn, *, out_dir: str, stage: str,
                    input_fp: str, config_fp: str, crash_env: str) -> None:
    """Run per-partition tasks, appending a commit-log entry as each
    partition's output lands.  ``work`` is [(part_key, args_tuple)];
    already-committed partitions must be filtered out by the caller."""
    import ray

    remote = ray.remote(num_cpus=1)(task_fn)
    refs = {remote.remote(*args): key for key, args in work}
    n_committed = 0
    try:
        while refs:
            ready, _ = ray.wait(list(refs), num_returns=1)
            for r in ready:
                key = refs.pop(r)
                meta = ray.get(r)
                mf.commit_part(out_dir, stage, key, input_fp=input_fp,
                               config_fp=config_fp, meta=meta)
                n_committed += 1
                _maybe_crash(crash_env, n_committed)
    except BaseException:
        # cancel in-flight work so it can't race a subsequent resume's
        # re-run of the same partitions (a real process kill takes the
        # whole local cluster down with it)
        for r in refs:
            ray.cancel(r, force=True)
        raise


def _reduce_postings_part(part_dir: str, dict_part_path: str,
                          postings_root: str,
                          cfg: EngineConfig) -> dict:
    """Reduce ONE (tbucket, sshard) spill partition into its final posting
    file(s), atomically renamed into place.  Output bytes are
    deterministic: finalize_group fully re-sorts by (term, doc), so the
    result is a pure function of the partition's row multiset, regardless
    of run segmentation or spill file order.

    The dictionary verdicts come from the dict stage's bucket file for
    the SAME tbucket (same term hash, same bucket count — a co-partitioned
    join read by the reducer, not a broadcast and not a second shuffle).

    Rows are written under their FINAL term's tbucket dir (the capitals
    UPPER rewrite can move a term to another bucket), so query-side
    directory pruning keeps working; file names encode the SOURCE
    partition so a resumed re-run overwrites its own files only."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    parent, shpart = os.path.split(part_dir.rstrip("/"))
    tb = int(os.path.basename(parent).rsplit("tbucket=", 1)[1])
    sh = int(shpart.rsplit("sshard=", 1)[1])
    dt = pq.read_table(dict_part_path, columns=["orig_term", "term", "df"])
    dt = dt.filter(pc.invert(pc.starts_with(dt.column("orig_term"),
                                            "\x01")))  # reserved stats rows
    term_map = dict(zip(dt.column("orig_term").to_pylist(),
                        zip(dt.column("term").to_pylist(),
                            dt.column("df").to_pylist())))
    df = pq.read_table(
        part_dir, columns=["term", "n", "docids", "tfs", "dls", "mtfs",
                           "poss"]).to_pandas()
    tbl = finalize_group(df, term_map, tb, cfg)
    rows = 0
    if tbl.num_rows:
        for out_tb in pc.unique(tbl.column("tbucket")).to_pylist():
            sub = tbl.filter(pc.equal(tbl.column("tbucket"), out_tb))
            sub = sub.drop_columns(["tbucket"])
            ddir = os.path.join(postings_root, f"tbucket={int(out_tb)}")
            os.makedirs(ddir, exist_ok=True)
            import uuid

            out_path = os.path.join(
                ddir, f"part-tb{tb:05d}-s{sh:05d}.parquet")
            tmp = out_path + f".tmp-{uuid.uuid4().hex[:8]}"
            # small row groups + term-sorted rows let query-side filters
            # skip groups; blobs are already varbyte-compressed, so a
            # parquet codec on top only slows query reads
            pq.write_table(sub, tmp, row_group_size=128,
                           compression="none")
            os.replace(tmp, out_path)
            rows += sub.num_rows
    return {"rows": rows}


def _reduce_dict_part(kdir: str, dict_root: str, prune_df1: bool,
                      tbucket: int) -> dict:
    """Reduce ONE dictionary bucket of the fused spill (the sshard=-1
    partition under tbucket=N): aggregate the partial rows and apply the
    reference merge rules, atomically writing dict/part-kbucket=N.parquet.
    Deterministic: apply_dict_rules sorts by key, so bytes are a pure
    function of the partition's rows."""
    import uuid

    import pyarrow.parquet as pq

    kb = f"kbucket={tbucket}"
    df = pq.read_table(
        kdir, columns=["term", "df_part", "caps_part", "ent_part"]
    ).rename_columns(["key", "df_part", "caps_part", "ent_part"]).to_pandas()
    g = df.groupby("key", sort=False)
    # min_count=1 keeps all-null groups null (a key with no entity rows
    # must NOT look like entity-count 0)
    import pandas as pd

    agg = pd.DataFrame({
        "df": g["df_part"].sum(min_count=1),
        "caps": g["caps_part"].min(),
        "ent": g["ent_part"].sum(min_count=1),
    }).reset_index()
    tbl = apply_dict_rules(
        pa.Table.from_pandas(agg, preserve_index=False), prune_df1)
    out_path = os.path.join(dict_root, f"part-{kb}.parquet")
    tmp = out_path + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, out_path)
    return {"rows": tbl.num_rows}


def _docmeta_part(parsed_path: str, out_path: str,
                  cfg: EngineConfig) -> dict:
    """Docmeta for ONE parsed partition file: glove centroids + metadata,
    rows sorted by shard with small row groups so query actors' shard
    filters prune at the row-group level (no hive dirs — one file per
    parse partition keeps the file count linear in partitions)."""
    import uuid

    import pyarrow.parquet as pq

    t = pq.read_table(parsed_path,
                      columns=["doc_id", "url", "warc_ts", "shard",
                               "doc_length", "max_tf", "unique_terms",
                               "is_covid", "terms"])
    out = doc_vec_batch(t, cfg).sort_by([("shard", "ascending"),
                                         ("doc_id", "ascending")])
    tmp = out_path + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(out, tmp, row_group_size=256)
    os.replace(tmp, out_path)
    return {"rows": t.num_rows}


def _row_count_from_metadata(parquet_dir: str) -> int:
    """Total rows from parquet footers only — no data scan."""
    import glob as _glob

    import pyarrow.parquet as pq

    total = 0
    for f in _glob.glob(os.path.join(parquet_dir, "**", "*.parquet"),
                        recursive=True):
        total += pq.ParquetFile(f).metadata.num_rows
    return total


# ------------------------------------------------------------------ driver
def build_index(input_path, out_dir: str, config: EngineConfig | None = None,
                *, overwrite: bool = False,
                input_format: str = "pages") -> dict:
    """Build the full index at ``out_dir``; resumes completed stages.

    ``input_path``: parquet file/dir with the F1 pages schema
    (url, warc_ts, html[, text, lang]).
    """
    import glob as globmod
    import os

    import ray.data

    cfg = config or EngineConfig()
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(input_path, (list, tuple)):
        in_files = list(input_path)
    elif os.path.isdir(input_path):
        in_files = sorted(globmod.glob(os.path.join(input_path, "**", "*.parquet"),
                                       recursive=True))
    else:
        in_files = [input_path]
    input_fp = mf.input_fingerprint(in_files)
    cfg_fp = f"{cfg.fingerprint()}-{input_format}-v{INDEX_FORMAT}"
    if overwrite:
        for st in ("parsed", "dict", "postings", "docmeta"):
            mf.clear_stage(out_dir, st)

    parsed_dir = mf.stage_dir(out_dir, "parsed")
    dict_dir = mf.stage_dir(out_dir, "dict")
    postings_dir = mf.stage_dir(out_dir, "postings")
    docmeta_dir = mf.stage_dir(out_dir, "docmeta")
    counters: dict = {"input_files": len(in_files)}
    stage_seconds: dict = {}
    counters["stage_seconds"] = stage_seconds
    import time as _time

    _t_prev = _time.perf_counter()

    def _mark(stage: str) -> None:
        nonlocal _t_prev
        now = _time.perf_counter()
        stage_seconds[stage] = round(now - _t_prev, 3)
        _t_prev = now


    # ---- stage 1: parse (checkpointed forward index).
    # One raw Ray task per deterministic row-group-chunk partition, each
    # atomically writing its own output file, with a per-partition commit
    # log — a build killed at 95% resumes by re-running only uncommitted
    # partitions (the Dataset API cannot commit mid-write, so this stage
    # drops to tasks; the hot parse loop is the same ParsePages UDF with
    # per-worker-process state).
    if not mf.stage_complete(out_dir, "parsed", input_fp, cfg_fp):
        parts = _parse_partitions(in_files, cfg.parse_part_rows)
        os.makedirs(parsed_dir, exist_ok=True)
        # per-FILE lineage: partitions committed for still-present,
        # unchanged input files survive input-set changes (incremental
        # ingest re-parses only new/changed files); a committed entry
        # only counts if its output file actually exists
        done = mf.committed_parts(out_dir, "parsed", PER_FILE_LINEAGE,
                                  cfg_fp)
        done &= {key for key, _, _ in parts}
        done = {key for key in done if os.path.exists(
            os.path.join(parsed_dir, f"part-{key}.parquet"))}
        # drop outputs whose source file was removed or changed, plus
        # partial writes from a killed run
        expected = {f"part-{key}.parquet" for key, _, _ in parts}
        for name in os.listdir(parsed_dir):
            p = os.path.join(parsed_dir, name)
            if ".tmp-" in name or (name.endswith(".parquet")
                                   and name not in expected):
                os.remove(p)
        work = [
            (key, (path, rgs, os.path.join(parsed_dir,
                                           f"part-{key}.parquet"),
                   cfg, input_format))
            for key, path, rgs in parts if key not in done]
        _run_part_tasks(work, _parse_part, out_dir=out_dir, stage="parsed",
                        input_fp=PER_FILE_LINEAGE, config_fp=cfg_fp,
                        crash_env="GRAFT_CRASH_PARSED_AFTER")
        mf.commit_stage(out_dir, "parsed", input_fp=input_fp,
                        config_fp=cfg_fp, counters={
                            "rows": _row_count_from_metadata(parsed_dir),
                            "input_files": len(in_files),
                            "partitions": len(parts),
                            "resumed_partitions": len(done)})
    _mark("parsed")

    # Effective batch size for the batch-combine stages: big enough to
    # amortize per-batch work, small enough that task count keeps every
    # core busy (rows known from parquet footers, no scan)
    parsed_rows = _row_count_from_metadata(parsed_dir)
    if parsed_rows == 0:
        # every row dropped at parse (reference drops unparseable rows
        # too); commit empty downstream stages and a zero-doc manifest
        from dataclasses import asdict as _asdict

        for st in ("dict", "postings", "docmeta"):
            os.makedirs(mf.stage_dir(out_dir, st), exist_ok=True)
            mf.commit_stage(out_dir, st, input_fp=input_fp,
                            config_fp=cfg_fp, counters={"rows": 0})
        payload = {"version": 1, "config": _asdict(cfg),
                   "config_fp": cfg_fp, "input_fp": input_fp,
                   "n_docs": 0, "sum_doc_length": 0,
                   "avg_doc_length": 0.0, "counters": counters}
        mf.write_manifest(out_dir, payload)
        return payload
    eff_batch = max(1024, min(cfg.run_batch_size,
                              parsed_rows // (2 * cfg.parser_concurrency)
                              or 1024))

    # ---- stage 4 (docmeta) OVERLAPS stages 2+3: it depends only on the
    # parsed forward index, so its per-file tasks are submitted from a
    # driver thread the moment parse commits and interleave with the
    # spill/dict/postings tasks on the same cluster.  The stages share no
    # state (separate commit logs, separate output dirs); the thread is
    # ALWAYS joined before build_index returns or re-raises, so a crash
    # in either side leaves the usual resumable partial commit logs and
    # the caller sees exactly one exception (main stage's first, else
    # docmeta's).  Map-only + map-reduce overlap is the cluster-scale
    # win: neither pass saturates scheduling end-to-end, and on a real
    # cluster the docmeta scan rides the same object-store reads.
    import threading as _threading

    _docmeta_err: list[BaseException] = []

    def _docmeta_stage() -> None:
        t0 = _time.perf_counter()
        try:
            if mf.stage_complete(out_dir, "docmeta", input_fp, cfg_fp):
                return
            os.makedirs(docmeta_dir, exist_ok=True)
            parsed_files = sorted(globmod.glob(
                os.path.join(parsed_dir, "*.parquet")))
            # per-FILE lineage, same contract as the parse stage: a doc's
            # centroid depends only on its own parsed partition + config,
            # so committed partitions survive input-set changes
            # (incremental ingest recomputes GloVe centroids only for
            # new files)
            done = mf.committed_parts(out_dir, "docmeta",
                                      PER_FILE_LINEAGE, cfg_fp)
            keys = {os.path.basename(pf)[:-len(".parquet")]
                    for pf in parsed_files}
            done &= keys
            done = {key for key in done if os.path.exists(
                os.path.join(docmeta_dir, f"{key}.docmeta.parquet"))}
            expected = {f"{key}.docmeta.parquet" for key in keys}
            for name in os.listdir(docmeta_dir):
                p = os.path.join(docmeta_dir, name)
                if ".tmp-" in name or (name.endswith(".parquet")
                                       and name not in expected):
                    os.remove(p)
            work = []
            for pf in parsed_files:
                key = os.path.basename(pf)[:-len(".parquet")]
                if key in done:
                    continue
                work.append((key, (pf, os.path.join(
                    docmeta_dir, f"{key}.docmeta.parquet"), cfg)))
            _run_part_tasks(work, _docmeta_part, out_dir=out_dir,
                            stage="docmeta", input_fp=PER_FILE_LINEAGE,
                            config_fp=cfg_fp,
                            crash_env="GRAFT_CRASH_DOCMETA_AFTER")
            mf.commit_stage(out_dir, "docmeta", input_fp=input_fp,
                            config_fp=cfg_fp, counters={
                                "rows":
                                    _row_count_from_metadata(docmeta_dir),
                                "partitions": len(parsed_files),
                                "resumed_partitions": len(done)})
        except BaseException as e:  # surfaced after join
            _docmeta_err.append(e)
        finally:
            stage_seconds["docmeta"] = round(
                _time.perf_counter() - t0, 3)

    _docmeta_thread = _threading.Thread(
        target=_docmeta_stage, name="docmeta-stage")
    _docmeta_thread.start()
    try:

        # ---- stages 2+3 phase A: ONE scan of the forward index emits both
        # the dict partial rows (sshard=-1) and the SPIMI posting runs into a
        # single (tbucket, sshard)-partitioned filesystem spill — the dict
        # reduce and the postings reduce then each consume their own
        # partitions of it (VERDICT r2 item 6: one ``parsed`` scan per build).
        import json as _json
        import shutil as _sh

        spill_dir = os.path.join(_spill_base(out_dir), "_fused_spill")
        spill_marker = os.path.join(spill_dir, "_SPILL_OK.json")

        def _spill_ok() -> bool:
            try:
                with open(spill_marker) as f:
                    m = _json.load(f)
                return (m.get("input_fp") == input_fp
                        and m.get("config_fp") == cfg_fp)
            except (OSError, ValueError):
                return False

        _SPILL_INPROC_ROWS = 10_000

        def _ensure_spill() -> None:
            """(Re)generate the fused spill — all-or-nothing behind a marker
            (spills are tmpfs-transient; partition reduces resume, the spill
            write itself reruns whole)."""
            if _spill_ok():
                return
            cols = ["doc_id", "doc_length", "max_tf", "unique_terms",
                    "terms", "tfs", "caps_terms", "caps_flags", "entities"]
            if cfg.positions:
                cols.append("positions")
            _sh.rmtree(spill_dir, ignore_errors=True)
            if parsed_rows <= _SPILL_INPROC_ROWS:
                # small-corpus fast path: the fused transform is milliseconds
                # at this size while the distributed pipeline costs seconds
                # of fixed execution overhead; identical rows + layout
                import pyarrow.dataset as _pads
                import pyarrow.parquet as _pq

                t = _pq.read_table(parsed_dir, columns=cols)
                rows_t = fused_spill_rows(t, cfg)
                _pads.write_dataset(
                    rows_t, spill_dir, format="parquet",
                    partitioning=["tbucket", "sshard"],
                    partitioning_flavor="hive",
                    file_options=_pads.ParquetFileFormat().make_write_options(
                        compression="none"))
            else:
                src = ray.data.read_parquet(parsed_dir, columns=cols)
                rows = src.map_batches(fused_spill_rows, fn_args=(cfg,),
                                       batch_format="pyarrow",
                                       batch_size=eff_batch)
                # two-level hive partitioning: a head term's rows split
                # across num_shards sibling dirs, so no reduce task ever
                # reads a full head-term posting list (skew bound in the
                # module docstring)
                rows.write_parquet(spill_dir,
                                   partition_cols=["tbucket", "sshard"],
                                   compression="none")  # tmpfs: skip codec
            with open(spill_marker + ".tmp", "w") as f:
                _json.dump({"input_fp": input_fp, "config_fp": cfg_fp}, f)
            os.replace(spill_marker + ".tmp", spill_marker)

        dict_complete = mf.stage_complete(out_dir, "dict", input_fp, cfg_fp)
        postings_complete = mf.stage_complete(out_dir, "postings", input_fp,
                                              cfg_fp)
        if not (dict_complete and postings_complete):
            _ensure_spill()
        _mark("spill")

        # ---- stage 2 phase B: term dictionary (corpus stats ride the same
        # shuffle as reserved "\x01" keys).  Each tbucket's sshard=-1 spill
        # partition aggregates + applies the merge rules independently.
        if not dict_complete:
            done = mf.committed_parts(out_dir, "dict", input_fp, cfg_fp)
            if not done:
                mf.clear_stage(out_dir, "dict")
            os.makedirs(dict_dir, exist_ok=True)
            for stray in globmod.glob(os.path.join(dict_dir, "*.tmp-*")):
                os.remove(stray)
            kdirs = sorted(
                (int(tb.split("=", 1)[1]), os.path.join(spill_dir, tb,
                                                        "sshard=-1"))
                for tb in os.listdir(spill_dir) if tb.startswith("tbucket=")
                if os.path.isdir(os.path.join(spill_dir, tb, "sshard=-1")))
            work = [(f"kbucket={tb}", (d, dict_dir, cfg.prune_df1, tb))
                    for tb, d in kdirs if f"kbucket={tb}" not in done]
            _run_part_tasks(work, _reduce_dict_part, out_dir=out_dir,
                            stage="dict", input_fp=input_fp, config_fp=cfg_fp,
                            crash_env="GRAFT_CRASH_DICT_AFTER")
            mf.commit_stage(out_dir, "dict", input_fp=input_fp,
                            config_fp=cfg_fp, counters={
                                "rows": _row_count_from_metadata(dict_dir),
                                "shuffle_partitions": len(kdirs),
                                "resumed_partitions": len(done)})
        _mark("dict")

        # corpus stats from the dict stage's reserved rows
        import pyarrow.dataset as pads

        # legacy \x00-prefixed keys accepted too: a resumed dict stage
        # written before the \x01 rename still carries them
        stats_t = pads.dataset(dict_dir).to_table(
            filter=pads.field("term").isin(
                [NDOCS_KEY, SUMDL_KEY,
                 "\x00__ndocs__", "\x00__sumdl__"]),
            columns=["term", "df"])
        stats_map = dict(zip(
            [t.replace("\x00", "\x01", 1)
             for t in stats_t.column("term").to_pylist()],
            stats_t.column("df").to_pylist()))
        n_docs = int(stats_map.get(NDOCS_KEY, 0))
        sum_dl = int(stats_map.get(SUMDL_KEY, 0))
        avg_dl = sum_dl / n_docs if n_docs else 0.0
        counters.update(n_docs=n_docs, sum_doc_length=sum_dl,
                        avg_doc_length=avg_dl)

        # ---- stage 3 phase B: postings reduce — one task per (tbucket,
        # sshard>=0) spill partition, each reading its co-partitioned dict
        # bucket file for the verdicts and atomically writing its own
        # deterministic output file with a per-partition commit-log entry —
        # a build killed mid-reduce resumes from the surviving spill (or
        # regenerates it), re-running only uncommitted partitions to
        # byte-identical output.
        if not postings_complete:
            done = mf.committed_parts(out_dir, "postings", input_fp, cfg_fp)
            if not done:
                mf.clear_stage(out_dir, "postings")
            os.makedirs(postings_dir, exist_ok=True)
            for stray in globmod.glob(
                    os.path.join(postings_dir, "**", "*.tmp-*"),
                    recursive=True):
                os.remove(stray)
            part_dirs = sorted(
                os.path.join(spill_dir, tb, sh)
                for tb in os.listdir(spill_dir) if tb.startswith("tbucket=")
                for sh in os.listdir(os.path.join(spill_dir, tb))
                if sh.startswith("sshard=") and not sh.endswith("=-1"))
            # per-partition spill volume (file bytes, no scan): the skew
            # evidence — max partition bounds any reduce task's input even
            # when one term dominates the corpus
            part_bytes = [
                sum(os.path.getsize(os.path.join(d, f))
                    for f in os.listdir(d) if f.endswith(".parquet"))
                for d in part_dirs]

            def part_key(d):
                parent, shpart = os.path.split(d.rstrip("/"))
                return f"{os.path.basename(parent)}/{shpart}"

            def dict_path(d):
                parent, _ = os.path.split(d.rstrip("/"))
                tb = int(os.path.basename(parent).rsplit("=", 1)[1])
                return os.path.join(dict_dir, f"part-kbucket={tb}.parquet")

            work = [(part_key(d), (d, dict_path(d), postings_dir, cfg))
                    for d in part_dirs if part_key(d) not in done]
            _run_part_tasks(work, _reduce_postings_part, out_dir=out_dir,
                            stage="postings", input_fp=input_fp,
                            config_fp=cfg_fp,
                            crash_env="GRAFT_CRASH_POSTINGS_AFTER")
            mf.commit_stage(out_dir, "postings", input_fp=input_fp,
                            config_fp=cfg_fp, counters={
                                "rows": _row_count_from_metadata(postings_dir),
                                "shuffle_partitions": len(part_dirs),
                                "resumed_partitions": len(done),
                                "spill_total_bytes": int(sum(part_bytes)),
                                "spill_max_partition_bytes":
                                    int(max(part_bytes, default=0))})
        # both consumers of the fused spill have committed — drop it (a crash
        # in this window just leaves a spill that the next invocation removes)
        _sh.rmtree(spill_dir, ignore_errors=True)
        try:  # remove the (now empty) tmpfs spill base
            os.rmdir(os.path.dirname(spill_dir))
        except OSError:
            pass
        _mark("postings")
    finally:
        # a failure anywhere in stages 2+3 must not orphan the
        # concurrent docmeta thread (an immediate re-invocation of
        # build_index would race it on the same commit log); join
        # unconditionally, then let the main exception propagate.
        # join_wait ≈ 0 means docmeta fully hid behind stages 2+3.
        _t_join = _time.perf_counter()
        _docmeta_thread.join()
        stage_seconds["docmeta_join_wait"] = round(
            _time.perf_counter() - _t_join, 3)

    # ---- stage 4 surfaced here: docmeta ran concurrently with stages 2+3
    if _docmeta_err:
        raise _docmeta_err[0]

    from dataclasses import asdict

    payload = {
        "version": 1,
        "config": asdict(cfg),
        "config_fp": cfg_fp,
        "input_fp": input_fp,
        "n_docs": n_docs,
        "sum_doc_length": sum_dl,
        "avg_doc_length": avg_dl,
        "counters": counters,
    }
    mf.write_manifest(out_dir, payload)
    return payload
