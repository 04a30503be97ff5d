"""Query engine: candidate fetch + scoring + top-k.

Two scorers over the same sharded index:

- ``mode="reference"`` — exact reproduction of the reference's blended
  scorer (0.9·tf-idf-cosine + 0.05·BM25 + 0.05·GloVe-cosine,
  /root/reference/ranker.py:65-102) including the as-written quirk that
  per-term tf is ``max_tf/doc_length`` (searcher.py:113-124 reads posting
  tuple index 2), the min-match gate ``count >= int(0.35·|q|)``
  (searcher.py:67-68) and idf=log10(N/df) with 0 for unknown terms
  (searcher.py:56-60, 126-136).  Vectorized over the candidate set.
- ``mode="bm25"`` — the scale-path scorer: pure BM25 with real tf,
  term-at-a-time vectorized accumulation.  ``union_scores`` is the one
  union kernel (TAAT, proximity-boosted and NRT search): a stable
  argsort merges the query terms' doc-sorted posting runs and
  ``bincount`` sums each doc's contributions in query-term order, bit
  for bit what ``np.unique`` + ``bincount`` gave.  The top-k prunes by
  score (``_score_keep``) before the docmeta ts gather.
- ``mode="bm25_wand"`` — same scores via block-max WAND (Ding & Suel's
  published BMW algorithm) over merged per-term streams with block
  bounds recomputed on the merged arrays at query time; rank-identical
  to ``bm25`` (property-tested).  On zipf-headed corpora with short
  queries the block maxima are flat and skipping rarely fires, so
  vectorized TAAT is the faster default.  The index stores no block
  metadata; ``EngineConfig.block_size`` sets the query-time block
  length.

Results are ``(score, doc_id, ts_us)`` ascending by (score, ts, id),
last k — the reference's exact output order (ranker.py:46-63).

Posting/doc-meta access: postings by pointer.  The first engine that
touches a term bucket derives a per-bucket sidecar under
``<index>/cache/`` from the bucket's posting Parquet files, decoding
their varbyte streams once: a flat blob of fixed-width arrays
(absolute doc ids as int64, tf/dl/max-tf as int32; positions stay
varbyte) and a term-sorted directory of (term, shard file, doc shard,
n, per-stream offset/length), holding only the capitals-collision
winner's rows.  A cold term is then a ``searchsorted`` in the
directory plus typed views of the memory-mapped blob: zero-copy when
the term has one entry in this engine's shards, one concatenation and
a stable argsort by doc id otherwise.  Cached arrays are read-only
(the reference finds a term's postings the same way, through
``inverted_idx``'s term -> posting-file pointer and a lazily filled
cache, searcher.py:39-51).
Doc metadata comes from a sorted memory-mapped docmeta sidecar in the
same directory.

``SearchEngine(out_dir, shards=[...])`` keeps only those doc shards'
directory entries when it reads; the dictionary, corpus stats and
docmeta stay global.  A doc's postings live wholly in its shard, so
engines over a shard partition score every doc exactly as one
unrestricted engine does: the distributed engine (distributed.py) runs
one per shard actor and only merges their answers.  All of them share
the same ``<index>/cache/`` files.
"""

from __future__ import annotations

import bisect
import heapq
import math
import os

import numpy as np
import pyarrow.dataset as pads

from search_engine_ray.config import EngineConfig
from search_engine_ray.glove import GloveCache
from search_engine_ray.index import manifest as mf
from search_engine_ray.index.encoding import tf_norm
from search_engine_ray.text.parser import Parser


def _sidecar_paths(out_dir: str):
    cache = os.path.join(out_dir, "cache")
    return (cache,
            os.path.join(cache, "docmeta_ids.npy"),
            os.path.join(cache, "docmeta_ts.npy"),
            os.path.join(cache, "docmeta_glove.npy"),
            os.path.join(cache, "docmeta_sidecar.json"))


def _docmeta_fingerprint(ds) -> str:
    """Cheap identity of the docmeta stage: file list + sizes + mtimes.
    An incremental re-build adds/rewrites partition files, so any change
    to the corpus changes the fingerprint and invalidates the sidecar."""
    import hashlib

    if ds is None:
        return "empty"
    parts = []
    for f in sorted(ds.files):
        st = os.stat(f)
        parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    return hashlib.sha1("|".join(parts).encode()).hexdigest()


def _sidecar_fresh(meta_p: str, kind: str, ds) -> bool:
    import json

    try:
        with open(meta_p) as fh:
            meta = json.load(fh)
    except (OSError, ValueError):
        return False
    if meta.get("fingerprint") != _docmeta_fingerprint(ds):
        return False
    if kind == "glove" and not meta.get("glove"):
        return False
    cache = os.path.dirname(meta_p)
    need = ["docmeta_ids.npy", "docmeta_ts.npy"]
    if kind == "glove":
        need.append("docmeta_glove.npy")
    return all(os.path.exists(os.path.join(cache, n)) for n in need)


def _write_sidecar(out_dir: str, ds, glove_dim: int, *,
                   with_glove: bool) -> None:
    """Materialize docmeta ONCE into sorted .npy arrays under
    <out_dir>/cache.  Writes are atomic (temp + rename) so concurrent
    first-touch engines race benignly — last writer wins, every reader
    maps a complete file.  The glove matrix (glove_dim × 8 bytes/doc) is
    a separate file so BM25/WAND workers never fault those pages in."""
    import json

    cache, ids_p, ts_p, glove_p, meta_p = _sidecar_paths(out_dir)
    os.makedirs(cache, exist_ok=True)
    fp = _docmeta_fingerprint(ds)
    if ds is None:
        ids = np.zeros(0, np.int64)
        ts = np.zeros(0, np.int64)
        glove = np.zeros((0, glove_dim), np.float64)
    else:
        cols = ["doc_id", "warc_ts"] + (["glove"] if with_glove else [])
        t = ds.to_table(columns=cols)
        raw_ids = t.column("doc_id").to_numpy()
        order = np.argsort(raw_ids)
        ids = raw_ids[order]
        ts = t.column("warc_ts").to_numpy()[order]
        if with_glove:
            glove = np.asarray(
                t.column("glove").combine_chunks().flatten()
                .to_numpy(zero_copy_only=False)
            ).reshape(len(raw_ids), glove_dim)[order]

    _atomic_write(ids_p, lambda fh: np.save(fh, ids))
    _atomic_write(ts_p, lambda fh: np.save(fh, ts))
    if with_glove:
        _atomic_write(glove_p, lambda fh: np.save(fh, glove))
    _atomic_write(meta_p, lambda fh: fh.write(json.dumps(
        {"fingerprint": fp, "glove": bool(with_glove),
         "n_docs": int(len(ids))}).encode()))


def _atomic_write(path: str, write) -> None:
    """``write(fh)`` into a temp file beside ``path``, then rename it
    over ``path``: a reader sees the old file or the whole new one."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------------ postings sidecar
# Per final term bucket: ``postings-b<bucket>-<fp>.blob`` holds, for each
# posting file in turn, the file's postings decoded once into
# fixed-width little-endian arrays: absolute doc ids (int64), then tf,
# dl and max-tf (int32), each region starting 8-byte aligned and holding
# the file's rows back to back; with positions, the rows' varbyte
# position streams follow as they are in Parquet.
# ``postings-b<bucket>-<fp>.dir.npy`` is the directory: one entry per
# (term, posting file) row, sorted by term, with the row's doc shard, n
# and each stream's byte offset and length in the blob.  ``fp``
# fingerprints the format, the bucket's posting files and the dictionary
# files, so a rebuilt index (or a sidecar written in an older format)
# gets new names.

_SIDECAR_FORMAT = b"postings-sidecar-3"
# (Parquet column, blob dtype) of the fixed-width streams, in directory
# stream order; positions (``pos_vb``) are stream 4 when present
_FIXED_STREAMS = (("docids_vb", "<i8"), ("tf_vb", "<i4"),
                  ("dl_vb", "<i4"), ("mtf_vb", "<i4"))


def postings_sidecar_paths(out_dir: str, bucket: int):
    """(posting files of ``bucket``, blob path, directory path) for the
    index as it is on disk now.  The fingerprint in the names covers
    the bucket's posting files and the dictionary files (name, size,
    mtime): the dictionary decides the capitals-collision winner whose
    rows the sidecar keeps."""
    import hashlib

    h = hashlib.sha1(_SIDECAR_FORMAT)
    files = []
    for sub in (os.path.join("postings", f"tbucket={bucket}"), "dict"):
        try:
            with os.scandir(os.path.join(out_dir, sub)) as it:
                found = sorted((e.name, e.path, e.stat()) for e in it
                               if e.name.endswith(".parquet"))
        except FileNotFoundError:
            found = []
        for name, path, st in found:
            h.update(f"|{sub}/{name}:{st.st_size}:{st.st_mtime_ns}"
                     .encode())
        if sub != "dict":
            files = [path for _, path, _ in found]
    stem = os.path.join(out_dir, "cache",
                        f"postings-b{bucket}-{h.hexdigest()[:16]}")
    return files, stem + ".blob", stem + ".dir.npy"


def _binary_values(col) -> tuple[np.ndarray, memoryview]:
    """(value offsets rebased to 0, concatenated value bytes) of a
    binary Arrow column, without a Python object per value."""
    import pyarrow as pa

    a = col.combine_chunks()
    wide = pa.types.is_large_binary(a.type)
    _, offs, data = a.buffers()
    off = np.frombuffer(offs, dtype=np.int64 if wide else np.int32)[
        a.offset:a.offset + len(a) + 1].astype(np.int64)
    if data is None:
        return off - off[0], memoryview(b"")
    return off - off[0], memoryview(data)[int(off[0]):int(off[-1])]


def _write_postings_sidecar(files: list[str], blob_p: str, dir_p: str,
                            winners: dict, positions: bool) -> None:
    """Write one bucket's blob and directory from its posting files.
    Each file's doc-id/tf/dl/max-tf streams are decoded once, with one
    ``varbyte_decode`` per column over the file's concatenated rows;
    the doc-id deltas restart at every row, so a per-row base
    correction of the cumsum gives absolute ids.  Only the dictionary's
    winning orig term keeps entries for a final term that several orig
    terms rewrite to (``winners``, from ``load_df_and_orig``).  One
    posting file is in memory at a time.  Both files go through temp +
    ``os.replace`` and the directory lands last, so a reader that finds
    the directory finds its blob; racing writers of the same
    fingerprint write identical bytes."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from search_engine_ray.index.encoding import varbyte_decode

    cols = [c for c, _ in _FIXED_STREAMS] + (["pos_vb"] if positions
                                             else [])
    os.makedirs(os.path.dirname(blob_p), exist_ok=True)
    terms, file_ix, shards, ns, offs, lens = [], [], [], [], [], []
    i32_max = np.iinfo(np.int32).max

    def write_blob(fh) -> None:
        pos = 0
        for fi, f in enumerate(files):
            t = pq.read_table(f, columns=["term", "orig", "shard", "n",
                                          *cols])
            if winners:
                keep = [winners.get(x, o) == o for x, o in zip(
                    t.column("term").to_pylist(),
                    t.column("orig").to_pylist())]
                t = t.filter(pa.array(keep, pa.bool_()))
            if t.num_rows == 0:
                continue
            n = t.column("n").to_numpy().astype(np.int64)
            start = np.zeros(len(n) + 1, np.int64)
            np.cumsum(n, out=start[1:])
            total = int(start[-1])
            o = np.empty((t.num_rows, len(cols)), np.int64)
            ln = np.empty_like(o)
            for k, (c, dt) in enumerate(_FIXED_STREAMS):
                v = varbyte_decode(_binary_values(t.column(c))[1],
                                   count=total)
                if len(v) != total:
                    raise RuntimeError(
                        f"{f}: column {c} holds {len(v)} values, its "
                        f"rows' n sum to {total}")
                if k == 0:
                    cs = np.zeros(total + 1, np.int64)
                    np.cumsum(v, out=cs[1:])
                    v = cs[1:] - np.repeat(cs[start[:-1]], n)
                elif total and int(v.max()) > i32_max:
                    raise ValueError(f"{f}: column {c} holds a value "
                                     "that does not fit int32")
                pad = -pos % 8
                fh.write(b"\0" * pad)
                pos += pad
                w = np.dtype(dt).itemsize
                o[:, k] = pos + w * start[:-1]
                ln[:, k] = w * n
                fh.write(v.astype(dt).tobytes())
                pos += w * total
            if positions:
                rel, data = _binary_values(t.column("pos_vb"))
                o[:, -1] = pos + rel[:-1]
                ln[:, -1] = np.diff(rel)
                fh.write(data)
                pos += len(data)
            offs.append(o)
            lens.append(ln)
            terms.append(t.column("term").cast(pa.binary())
                         .to_numpy(zero_copy_only=False))
            file_ix.append(np.full(t.num_rows, fi, np.int32))
            shards.append(t.column("shard").to_numpy())
            ns.append(n)

    _atomic_write(blob_p, write_blob)
    S, N = len(cols), sum(len(x) for x in terms)
    term_arr = np.array(np.concatenate(terms) if N else [], dtype="S")
    order = np.argsort(term_arr, kind="stable")
    # one 0-d record whose fields are whole columns, so every column is
    # contiguous in the file: a reader maps it and bisects the term
    # column, touching only the pages it probes
    d = np.zeros((), dtype=[
        ("term", term_arr.dtype, (N,)), ("file", np.int32, (N,)),
        ("shard", np.int32, (N,)), ("n", np.int64, (N,)),
        ("off", np.int64, (N, S)), ("len", np.int64, (N, S))])
    if N:
        d["term"] = term_arr[order]
        d["file"] = np.concatenate(file_ix)[order]
        d["shard"] = np.concatenate(shards)[order]
        d["n"] = np.concatenate(ns)[order]
        d["off"] = np.concatenate(offs)[order]
        d["len"] = np.concatenate(lens)[order]
    _atomic_write(dir_p, lambda fh: np.save(fh, d))
    # drop this bucket's sidecars of earlier builds (best effort: a
    # reader that already mapped one keeps its pages)
    cache = os.path.dirname(blob_p)
    stem = os.path.basename(blob_p).rsplit("-", 1)[0] + "-"
    for name in os.listdir(cache):
        p = os.path.join(cache, name)
        if (name.startswith(stem) and p not in (blob_p, dir_p)
                and name.endswith((".blob", ".dir.npy"))):
            try:
                os.unlink(p)
            except OSError:
                pass


class _BucketPostings:
    """One bucket's postings sidecar, opened: the directory's columns and
    the blob, both mapped read-only."""

    __slots__ = ("terms", "shard", "n", "off", "len", "blob", "_blob_p")

    def __init__(self, dir_p: str, blob_p: str):
        import mmap

        d = np.load(dir_p, mmap_mode="r").view(np.ndarray)
        self.terms, self.shard, self.n = d["term"], d["shard"], d["n"]
        self.off, self.len = d["off"], d["len"]
        self._blob_p = blob_p
        with open(blob_p, "rb") as fh:
            self.blob = (np.frombuffer(mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ), dtype=np.uint8)
                if os.fstat(fh.fileno()).st_size else np.zeros(0, np.uint8))

    def stream(self, sel, k: int, dtype=np.uint8) -> np.ndarray:
        """Stream ``k`` of the directory entries ``sel`` (a slice or an
        index array) as ``dtype``: a read-only view of the blob for one
        entry, a concatenated copy for several."""
        parts = []
        for o, n in zip(self.off[sel, k].tolist(),
                        self.len[sel, k].tolist()):
            if o < 0 or o + n > len(self.blob):
                raise RuntimeError(
                    f"postings sidecar {self._blob_p} is shorter than its "
                    "directory; delete it to rebuild")
            parts.append(self.blob[o:o + n])
        return (parts[0] if len(parts) == 1
                else np.concatenate(parts)).view(dtype)


_POS_M = np.int64(1) << np.int64(32)  # (cand, pos) key packing bound


def _cand_pos_keys(p: dict, cand: np.ndarray) -> np.ndarray:
    """Sorted ``cand_index * 2^32 + position`` keys for the postings of
    docs in ``cand`` (cand must be a sorted subset of p["doc_ids"]; p
    must carry decoded "pos"/"pos_off").  Positions are < 2^32 by
    construction (int32 in the parse schema)."""
    pos, off = p["pos"], p["pos_off"]
    loc = np.searchsorted(p["doc_ids"], cand)
    cnt = off[loc + 1] - off[loc]
    out_off = np.zeros(len(cnt) + 1, dtype=np.int64)
    np.cumsum(cnt, out=out_off[1:])
    gather = (np.repeat(off[loc] - out_off[:-1], cnt)
              + np.arange(int(out_off[-1]), dtype=np.int64))
    seg = np.repeat(np.arange(len(cand), dtype=np.int64), cnt)
    return seg * _POS_M + pos[gather]


def phrase_from_postings(byterm: dict, cand: np.ndarray,
                         terms: list[str]) -> np.ndarray:
    """Sorted doc ids of ``cand`` containing the exact sequence
    ``terms``; each byterm[t] must carry doc_ids + decoded positions.
    One searchsorted membership pass per phrase slot over packed
    (candidate, position) keys."""
    if len(cand) == 0:
        return cand
    keycache: dict[str, np.ndarray] = {}

    def keys(t: str) -> np.ndarray:
        k = keycache.get(t)
        if k is None:
            k = keycache[t] = _cand_pos_keys(byterm[t], cand)
        return k

    cur = keys(terms[0])
    for i, t in enumerate(terms[1:], start=1):
        ki = keys(t)
        want = cur + i  # same candidate iff position+i < 2^32
        j = np.searchsorted(ki, want)
        ok = (j < len(ki)) & (ki[np.minimum(j, len(ki) - 1)] == want)
        cur = cur[ok]
        if len(cur) == 0:
            return np.zeros(0, np.int64)
    return cand[np.unique(cur // _POS_M)]


def proximity_from_postings(p1: dict, p2: dict, cand: np.ndarray,
                            window: int):
    """(sorted doc ids of ``cand``, min position gap) where the two
    postings' terms occur within ``window`` tokens; min pairwise gap of
    two sorted position sets via searchsorted neighbors + scatter-min."""
    if len(cand) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    k1 = _cand_pos_keys(p1, cand)
    k2 = _cand_pos_keys(p2, cand)
    BIG = np.int64(1) << np.int64(62)
    j = np.searchsorted(k2, k1)
    lo = np.clip(j - 1, 0, len(k2) - 1)
    hi = np.clip(j, 0, len(k2) - 1)
    seg1 = k1 // _POS_M
    gap_lo = np.where(k2[lo] // _POS_M == seg1, np.abs(k1 - k2[lo]), BIG)
    gap_hi = np.where(k2[hi] // _POS_M == seg1, np.abs(k1 - k2[hi]), BIG)
    g = np.minimum(gap_lo, gap_hi)
    best = np.full(len(cand), BIG, dtype=np.int64)
    np.minimum.at(best, seg1, g)
    keep = best <= window
    return cand[keep], best[keep]


def intersect_candidates(plists: list[np.ndarray]) -> np.ndarray:
    """Sorted intersection of per-term doc-id arrays, smallest first, so
    cost is bounded by the rarest term's df."""
    plists = sorted(plists, key=len)
    cand = plists[0]
    for ids in plists[1:]:
        if len(cand) == 0:
            break
        cand = cand[np.isin(cand, ids, assume_unique=True)]
    return cand


def champion_order(ids: np.ndarray, tfs: np.ndarray, ts: np.ndarray,
                   m: int) -> np.ndarray:
    """Indices of the top-``m`` postings by (tf desc, ts asc — oldest
    doc wins ties; doc ids are url hashes, so hash order would be an
    arbitrary rule no mirror could reproduce — then doc id asc): the
    champion rule of tiered retrieval."""
    return np.lexsort((ids, ts, -tfs))[:m]


def warm_docmeta_sidecar(out_dir: str, *, with_glove: bool = False) -> None:
    """Build the docmeta sidecar once (no-op when fresh) WITHOUT
    constructing an engine — call from a driver before spawning a worker
    pool so N workers mmap a ready sidecar instead of racing to write
    it (each race leg re-reads the whole docmeta stage)."""
    import glob as _glob

    from search_engine_ray.index import manifest as mf

    man = mf.read_manifest(out_dir)
    d = mf.stage_dir(out_dir, "docmeta")
    ds = None
    if _glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True):
        ds = pads.dataset(d, partitioning="hive")
    kind = "glove" if with_glove else "ts"
    _, _, _, _, meta_p = _sidecar_paths(out_dir)
    if not _sidecar_fresh(meta_p, kind, ds):
        _write_sidecar(out_dir, ds, man["config"]["glove_dim"],
                       with_glove=with_glove)


def warm_postings_sidecars(out_dir: str) -> None:
    """Derive every term bucket's postings sidecar that does not match
    the index's current files, WITHOUT constructing an engine — call
    from a driver before spawning shard actors or workers, so they map
    ready sidecars instead of each deriving the buckets they touch.
    The dictionary is loaded only when some bucket needs writing."""
    from search_engine_ray.index import manifest as mf

    cfg = EngineConfig(**mf.read_manifest(out_dir)["config"])
    winners = None
    for b in range(cfg.term_buckets):
        files, blob_p, dir_p = postings_sidecar_paths(out_dir, b)
        if files and not os.path.exists(dir_p):
            if winners is None:
                winners = mf.load_df_and_orig(out_dir)[1]
            _write_postings_sidecar(files, blob_p, dir_p, winners,
                                    cfg.positions)


class SearchEngine:
    def __init__(self, out_dir: str, *, preload_docmeta: bool = False,
                 shards=None):
        """``shards`` restricts the engine to those doc shards' postings
        (default: all).  Everything global stays global — the
        dictionary, corpus stats and docmeta — so a restricted engine
        scores its docs exactly as the unrestricted one does, and
        engines over a shard partition answer disjoint slices of the
        same result (the distributed engine's shard actors)."""
        man = mf.read_manifest(out_dir)
        self.shards = None if shards is None else sorted(set(shards))
        self.cfg = EngineConfig(**man["config"])
        self.n_docs = man["n_docs"]
        self.avg_dl = man["avg_doc_length"]
        # the manifest's integer sum: avg_dl * n_docs can be an ulp off
        self.sum_doc_length = int(man["sum_doc_length"])
        self.parser = Parser.from_config(self.cfg)
        self.glove = GloveCache(self.cfg.glove_path, self.cfg.glove_dim)

        # the collision winners are read only when this engine writes a
        # bucket's postings sidecar
        self.df_map, self._orig_winner = mf.load_df_and_orig(out_dir)

        def _maybe_dataset(stage):
            # a stage dir may hold zero parquet files (e.g. every term
            # pruned by the df==1 rule on a degenerate corpus)
            import glob as _glob

            d = mf.stage_dir(out_dir, stage)
            if _glob.glob(os.path.join(d, "**", "*.parquet"),
                          recursive=True):
                ds = pads.dataset(d, partitioning="hive")
                ds.files  # force fragment discovery at init
                return ds
            return None

        self._buckets: dict[int, _BucketPostings | None] = {}
        self._pcache: dict[str, dict | None] = {}
        self._pcache_max_terms = 100_000  # FIFO eviction bound
        self._fuzzy = None  # lazy ops/fulltext.FuzzyCorrector
        self._terms_sorted = None  # lazy sorted vocabulary (prefixes)

        self._docmeta_ds = _maybe_dataset("docmeta")
        self._out_dir = out_dir
        self._meta = None          # {"ids","ts"} — mmap-backed
        self._meta_glove = None    # (n, dim) float64 — mmap-backed
        if preload_docmeta:
            self._ensure_meta()

    # --------------------------------------------------------- docmeta
    # Per-doc metadata is served from a SORTED memory-mapped sidecar
    # (ids.npy / ts.npy / glove.npy under <out_dir>/cache), created once
    # per index by the first engine that needs it.  Every engine process
    # on a node then maps the SAME pages — the OS page cache is the
    # shared store, so a 32-worker query pool holds ONE copy of
    # corpus-scaled state per node instead of 32 (the round-4 scale
    # flaw: _load_docmeta materialized ids+ts+glove as private numpy in
    # EVERY worker).  BM25/WAND touch only the ids/ts pages their
    # candidates hit; the 8x-larger glove matrix is a separate file
    # mapped only by the reference-mode scorer.  Shard-restricted
    # engines (the distributed engine's actors) map the same global
    # sidecar and only ever gather their own candidates' rows.

    def _ensure_meta(self):
        if self._meta is not None:
            return
        _, ids_p, ts_p, _, meta_p = _sidecar_paths(self._out_dir)
        if not _sidecar_fresh(meta_p, "ts", self._docmeta_ds):
            _write_sidecar(self._out_dir, self._docmeta_ds,
                           self.cfg.glove_dim, with_glove=False)
        # plain ndarray views of the mappings: np.memmap's Python
        # __getitem__/__array_finalize__ hooks would run on every gather
        self._meta = {"ids": np.load(ids_p, mmap_mode="r").view(np.ndarray),
                      "ts": np.load(ts_p, mmap_mode="r").view(np.ndarray)}

    def _ensure_glove(self):
        if self._meta_glove is not None:
            return
        _, _, _, glove_p, meta_p = _sidecar_paths(self._out_dir)
        if not _sidecar_fresh(meta_p, "glove", self._docmeta_ds):
            _write_sidecar(self._out_dir, self._docmeta_ds,
                           self.cfg.glove_dim, with_glove=True)
            self._meta = None
            self._ensure_meta()
        self._meta_glove = np.load(glove_p, mmap_mode="r").view(np.ndarray)

    # ---------------------------------------------------------- postings
    def _bucket(self, b: int) -> "_BucketPostings | None":
        """Term bucket ``b``'s postings sidecar, written first when the
        index has none matching its current files; None for a bucket
        without posting files."""
        if b not in self._buckets:
            files, blob_p, dir_p = postings_sidecar_paths(self._out_dir, b)
            side = None
            if files:
                if not os.path.exists(dir_p):
                    _write_postings_sidecar(files, blob_p, dir_p,
                                            self._orig_winner,
                                            self.cfg.positions)
                side = _BucketPostings(dir_p, blob_p)
            self._buckets[b] = side
        return self._buckets[b]

    def prefetch(self, terms) -> None:
        """Load postings for all uncached dictionary terms: per term
        bucket, one ``searchsorted`` of the terms in the sidecar
        directory, then each term's stream slices (of this engine's
        shards) out of the mapped blob (the reference's same-file
        prefetch generalized, searcher.py:47-51)."""
        need = [t for t in dict.fromkeys(terms)
                if t not in self._pcache and t in self.df_map]
        if not need:
            return
        from search_engine_ray.ids import term_bucket

        by_bucket: dict[int, list[str]] = {}
        for t in need:
            by_bucket.setdefault(
                term_bucket(t, self.cfg.term_buckets), []).append(t)
        for b, ts in by_bucket.items():
            side = self._bucket(b)
            if side is None:
                for t in ts:
                    self._pcache[t] = None
                continue
            keys = np.array([t.encode() for t in ts], dtype="S")
            lo = np.searchsorted(side.terms, keys, "left").tolist()
            hi = np.searchsorted(side.terms, keys, "right").tolist()
            for term, a, z in zip(ts, lo, hi):
                sel = slice(a, z)
                if self.shards is not None:
                    # a term has one entry per doc shard: keep this
                    # engine's shards only
                    sel = a + np.flatnonzero(
                        np.isin(side.shard[a:z], self.shards))
                while len(self._pcache) >= self._pcache_max_terms:
                    self._pcache.pop(next(iter(self._pcache)))  # FIFO
                self._pcache[term] = self._decode_entries(side, sel)

    def _decode_entries(self, side: "_BucketPostings",
                        sel) -> dict | None:
        """One term's cache entry from its directory entries ``sel`` (a
        slice or an index array; one entry per posting file, i.e. per
        doc shard); None when ``sel`` is empty.  The arrays are typed
        views of the blob for one entry; for several, their
        concatenation sorted by doc id.  Either way they are
        read-only."""
        ns = side.n[sel]
        if len(ns) == 0:
            return None
        cols = [side.stream(sel, k, dt)
                for k, (_, dt) in enumerate(_FIXED_STREAMS)]
        total = int(ns.sum())
        if any(len(c) != total for c in cols):
            raise RuntimeError(
                f"postings sidecar {side._blob_p} disagrees with its "
                "directory; delete it to rebuild")
        tfs_pre, order = cols[1], None
        if len(ns) > 1:
            order = np.argsort(cols[0], kind="stable")
            cols = [c[order] for c in cols]
            for c in cols:
                c.flags.writeable = False
        entry = dict(zip(("doc_ids", "tfs", "dls", "mtfs"), cols))
        if self.cfg.positions:
            # positions decode lazily (only phrase/proximity queries
            # pay): raw concatenated sublist stream + the pre-sort tf
            # counts + the doc-sort permutation (None: already sorted)
            entry["pos"] = None
            entry["_pos_raw"] = (side.stream(sel, 4), tfs_pre, order)
        return entry

    @staticmethod
    def _mtfs_of(p: dict) -> np.ndarray:
        """Max-tf stream of a cached posting entry."""
        return p["mtfs"]

    @staticmethod
    def _positions_of(p: dict) -> tuple[np.ndarray, np.ndarray]:
        """Lazy-decoded flat position stream of a cached posting entry +
        offsets aligned with p["doc_ids"] (sublist i = positions of the
        term in doc_ids[i], ascending)."""
        if p["pos"] is None:
            from search_engine_ray.index.encoding import (
                decode_position_lists,
                sublist_gather,
            )

            buf, tfs_pre, order = p.pop("_pos_raw")
            pos, off = decode_position_lists(buf, tfs_pre)
            if order is not None:
                # sublists move atomically into doc-sorted order
                gather, off = sublist_gather(tfs_pre, order)
                pos = pos[gather]
            p["pos"], p["pos_off"] = pos, off
        return p["pos"], p["pos_off"]

    def _positional_candidates(self, terms: list[str]):
        """(plists, cand) for a positional query: postings per term plus
        the sorted intersection of their doc ids."""
        if not self.cfg.positions:
            raise ValueError("index was built without positions "
                             "(EngineConfig.positions=False)")
        plists = []
        for t in dict.fromkeys(terms):
            p = self.postings(t)
            if p is None:
                return None, np.zeros(0, np.int64)
            plists.append(p["doc_ids"])
        cand = intersect_candidates(plists)
        byterm = {t: self.postings(t) for t in dict.fromkeys(terms)}
        for p in byterm.values():
            self._positions_of(p)  # decode before the shared kernels
        return byterm, cand

    def phrase_docs(self, terms: list[str]) -> np.ndarray:
        """Sorted doc ids containing the EXACT token sequence ``terms``
        — served from the positional index, never a corpus scan (the
        reference's query path also never rescans the corpus,
        /root/reference/searcher.py:22-111; the scan op in
        ops/matching.py remains the oracle).  Vectorized: candidate
        intersection, then one searchsorted membership pass per phrase
        slot over packed (candidate, position) keys."""
        if not terms:
            return np.zeros(0, np.int64)
        self.prefetch(list(dict.fromkeys(terms)))
        byterm, cand = self._positional_candidates(terms)
        return phrase_from_postings(byterm, cand, terms)

    def proximity_docs(self, t1: str, t2: str, window: int = 3):
        """(sorted doc ids, min position gap) for docs where ``t1`` and
        ``t2`` occur within ``window`` tokens — served from the
        positional index.  Min pairwise gap of two sorted position sets
        via searchsorted neighbors, per-doc min via a scatter-min."""
        self.prefetch([t1, t2])
        byterm, cand = self._positional_candidates([t1, t2])
        if byterm is None:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return proximity_from_postings(byterm[t1], byterm[t2], cand,
                                       window)

    def postings(self, term: str) -> dict | None:
        """Merged cross-shard postings for one (final) term, sorted by
        doc_id; None if the term is not in the dictionary or has no
        postings in this engine's shards."""
        if term not in self._pcache:
            self.prefetch([term])
        return self._pcache.get(term)

    def _meta_for(self, doc_ids: np.ndarray):
        """Positions into the docmeta arrays + found mask; callers must
        treat not-found rows as (ts=0, glove=0) rather than attributing a
        neighbor's metadata (possible only on corrupt/degenerate indexes
        or the documented doc-id hash-collision path, ids.py)."""
        self._ensure_meta()
        n = len(self._meta["ids"])
        if n == 0:
            return (np.zeros(len(doc_ids), np.int64),
                    np.zeros(len(doc_ids), bool))
        pos = np.minimum(np.searchsorted(self._meta["ids"], doc_ids), n - 1)
        found = self._meta["ids"][pos] == doc_ids
        return pos, found

    def _ts_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Docmeta ts per doc id; 0 for ids the docmeta lacks."""
        pos, found = self._meta_for(doc_ids)
        return self._meta["ts"][pos] * found

    # ------------------------------------------------------- did-you-mean
    def fuzzy_correct(self, term: str) -> str | None:
        """The best one-edit dictionary correction for ``term``: the
        highest-df dict term within edit distance 1 (ties break
        lexicographically), or None when nothing is that close.  Shared
        memoizing corrector (ops/fulltext.FuzzyCorrector): the kernel
        runs over just the adjacent term-length buckets per miss."""
        if self._fuzzy is None:
            from search_engine_ray.ops.fulltext import FuzzyCorrector

            self._fuzzy = FuzzyCorrector(self.df_map)
        return self._fuzzy(term)

    # ------------------------------------------------------------ search
    def search(self, query_text: str, k: int = 10, mode: str = "reference",
               fuzzy: bool = False,
               ts_range: tuple[int, int] | None = None,
               search_after: tuple[float, int, int] | None = None,
               boosts: dict[str, float] | None = None,
               synonyms: dict[str, list[str]] | None = None,
               phrases: list[list[str] | str] | None = None):
        """``fuzzy=True`` = typo tolerance: each parsed term absent from
        the dictionary is replaced by its best one-edit correction
        (fuzzy_correct) before retrieval; terms with no close neighbor
        stay as-is (and behave as unknown, per mode).

        ``ts_range=(lo_us, hi_us)`` (bm25 mode only) = temporal filter
        query: candidates are restricted to docs whose docmeta timestamp
        lies in the inclusive window, while corpus statistics (idf,
        avgdl) stay corpus-wide — the Lucene filter-query convention, so
        a doc's score is identical with and without the filter.

        ``search_after=(score, doc_id, ts)`` (bm25 mode only) = cursor
        deep paging (the Elasticsearch search_after shape): pass the
        LAST tuple of the previous page verbatim and get the next ``k``
        strictly below it in the exact ranking order (score, ts,
        doc_id) — stateless, and unlike from+size the engine never
        re-materializes earlier pages' tie-break metadata: candidates at
        a strictly higher score are pruned before the ts gather.

        ``boosts={term: weight}`` (bm25 mode only) = query-time term
        boosting (Lucene ``term^w``): each term's BM25 contribution is
        scaled by its weight before accumulation; absent terms weigh 1.

        ``synonyms={term: [alts]}`` (any mode) = query-time synonym
        expansion (Lucene SynonymFilter at the query side): each parsed
        term is OR-expanded with its alternates at equal weight BEFORE
        retrieval — a pure query rewrite, so it composes with every
        other option and with every mode's own semantics.

        ``phrases=[...]`` (bm25 mode, positional index only) = quoted-
        phrase constraints (Lucene ``"exact phrase" rest`` queries):
        each entry — a raw string (parsed with the engine's parser) or
        an already-tokenized term list — must occur as an exact token
        sequence in every result doc.  The phrase sets come off the
        POSITIONAL postings (phrase_docs, never a corpus scan) and gate
        the candidate set BEFORE the top-k boundary; scoring stays plain
        BM25 over the query terms, so a doc's score is identical with
        and without the constraint (the filter-query convention,
        matching ts_range).  Use ``parse_quoted_query`` to split a
        search-box string with double-quoted spans into (text,
        phrases)."""
        if mode != "bm25" and (ts_range is not None
                               or search_after is not None
                               or boosts is not None
                               or phrases is not None):
            raise ValueError(
                "ts_range/search_after/boosts/phrases are only "
                "supported in bm25 mode")
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
            query = expand_synonyms(query, synonyms)
        self.prefetch(query)
        if mode == "reference":
            return self._search_reference(query, k)
        if mode == "bm25":
            must = None
            if phrases is not None:
                must = self._phrase_must_docs(phrases)
                if must is not None and len(must) == 0:
                    return []
            return self._search_bm25_taat(query, k, ts_range=ts_range,
                                          after=search_after,
                                          boosts=boosts, must=must)
        if mode == "bm25_wand":
            return self._search_bm25_wand(query, k)
        if mode == "bool_and":
            return self._search_bool_and(query, k)
        if mode == "bool_or":
            return self._search_bool_or(query, k)
        raise ValueError(f"unknown mode {mode!r}")

    def _phrase_must_docs(self, phrases) -> np.ndarray | None:
        """Sorted doc ids satisfying EVERY phrase constraint (None when
        the list is empty — no constraint).  Cost per phrase is bounded
        by the rarest phrase term's df (candidate intersection inside
        phrase_docs)."""
        must = None
        for ph in phrases:
            terms = (self.parser.parse_sentence(ph)[0]
                     if isinstance(ph, str) else list(ph))
            if not terms:
                continue
            docs = self.phrase_docs(terms)
            must = docs if must is None else must[
                np.isin(must, docs, assume_unique=True)]
            if len(must) == 0:
                break
        return must

    def _bool_and_ids(self, terms: list[str]) -> np.ndarray:
        """The FULL sorted intersection of the terms' posting lists.
        Any term without postings (unknown or df-pruned) empties the
        result.  Intersections run smallest list first, so cost is
        bounded by the rarest term's df."""
        plists = []
        for t in dict.fromkeys(terms):
            p = self.postings(t)
            if p is None:
                return np.zeros(0, np.int64)
            plists.append(p["doc_ids"])  # sorted unique per term
        if not plists:
            return np.zeros(0, np.int64)
        plists.sort(key=len)
        cur = plists[0]
        for ids in plists[1:]:
            cur = cur[np.isin(cur, ids, assume_unique=True)]
            if len(cur) == 0:
                break
        return cur

    def _search_bool_and(self, query: list[str], k: int):
        """Strict boolean AND: the first ``k`` doc ids (ascending)
        containing EVERY query term — the filter-query shape
        (site/license/lang gating) a retrieval stack serves alongside
        ranked search."""
        return [int(x) for x in self._bool_and_ids(query)[:k]]

    def _search_bool_or(self, query: list[str], k: int):
        """Boolean OR: the first ``k`` doc ids (ascending) containing
        ANY query term.  Unknown/pruned terms match nothing and are
        skipped (they do not empty the result the way AND does)."""
        lists = []
        for t in dict.fromkeys(query):
            p = self.postings(t)
            if p is not None:
                lists.append(p["doc_ids"])
        if not lists:
            return []
        ids = np.unique(np.concatenate(lists))
        return [int(x) for x in ids[:k]]

    def search_bool_and_not(self, include: list[str],
                            exclude: list[str], k: int = 10):
        """Docs containing EVERY ``include`` term and NONE of the
        ``exclude`` terms, first ``k`` ascending — the must/must-not
        filter of a search API.  Unknown exclude terms exclude nothing;
        an unknown include term empties the result (same as AND).
        Exclusion subtracts posting lists from the (already rarest-
        term-bounded) intersection, so cost stays bounded by the
        include side's rarest df plus the exclude lists' lengths."""
        if k < 0:
            return []
        # one covering row-group read for ALL terms (same batch
        # prefetch every other search entry point gets)
        self.prefetch(list(dict.fromkeys(include))
                      + list(dict.fromkeys(exclude)))
        cur = self._bool_and_ids(include)
        for t in dict.fromkeys(exclude):
            if len(cur) == 0:
                break
            p = self.postings(t)
            if p is not None:
                cur = cur[~np.isin(cur, p["doc_ids"],
                                   assume_unique=True)]
        return [int(x) for x in cur[:k]]

    def search_proximity_boosted(self, query_text: str, k: int = 10,
                                 window: int = 8, weight: float = 0.5):
        """Proximity-integrated BM25 (the Rasolofo & Savoy 2003 /
        Büttcher et al. 2006 family): the usual BM25 score plus, for
        each ADJACENT pair of query terms co-occurring within
        ``window`` tokens, a term-proximity bonus ``weight / (1 +
        min_gap)`` — docs where the query words sit next to each other
        outrank bag-of-words matches.  Served entirely from the
        positional postings (min gaps via the proximity kernel, no
        corpus scan); the boost is accumulated separately and added to
        the BM25 array in ONE vector add, so the result is
        SQL-mirrorable without float-association drift.  Ranking is
        the engine's exact (score, ts, id) order."""
        if not self.cfg.positions:
            raise ValueError("index was built without positions "
                             "(EngineConfig.positions=False)")
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        terms = list(dict.fromkeys(query))
        self.prefetch(terms)
        id_parts, contrib_parts = [], []
        for t in terms:
            pc_ = self._bm25_contrib(t)
            if pc_ is None:
                continue
            id_parts.append(pc_[0])
            contrib_parts.append(pc_[1])
        if not id_parts:
            return []
        # a single term's cached contrib comes back zero-copy: `scores +
        # boost` below allocates the result, the cache is never mutated
        cand, scores = union_scores(id_parts, contrib_parts)
        boost = np.zeros(len(cand))
        for t1, t2 in adjacent_term_pairs(query):
            p1, p2 = self.postings(t1), self.postings(t2)
            if p1 is None or p2 is None:
                continue
            self._positions_of(p1)
            self._positions_of(p2)
            pcand = p1["doc_ids"][np.isin(p1["doc_ids"], p2["doc_ids"],
                                          assume_unique=True)]
            docs, gaps = proximity_from_postings(p1, p2, pcand, window)
            if len(docs):
                # membership-checked scatter: docs ⊆ cand holds today
                # (pair terms are query terms), but stay bounds-safe if
                # a future caller passes a pre-filtered candidate set
                pos = np.searchsorted(cand, docs)
                pos_c = np.minimum(pos, len(cand) - 1)
                hit = cand[pos_c] == docs
                np.add.at(boost, pos_c[hit],
                          weight / (1.0 + gaps[hit]))
        scores = scores + boost
        return _topk_by_score(scores, cand, k, self._ts_of)

    def search_common_terms(self, query_text: str, k: int = 10,
                            df_den: int = 2):
        """Rare-first retrieval (Lucene CommonTermsQuery): only the
        LOW-df query terms (``df * df_den < n_docs``) drive the
        candidate set — a head term like a stopword never unions its
        posting list into the candidates — while scoring keeps FULL
        BM25 contributions from every term over those candidates.
        Candidate volume is bounded by the rare terms' dfs instead of
        the head terms'.  A query with no low-df term falls back to
        plain BM25 (every term drives), so the method degrades to
        exact rather than empty."""
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        terms = list(dict.fromkeys(query))
        self.prefetch(terms)
        # knownness and the drive set come from the GLOBAL dictionary: a
        # shard-restricted engine without postings for a rare term must
        # not widen its drive set to the head terms
        known = [t for t in terms if t in self.df_map]
        drive = self._low_df_terms(known, df_den) or known
        lists = [p["doc_ids"] for p in map(self.postings, drive)
                 if p is not None]
        if not lists:
            return []
        # candidate-restricted scoring IS the TAAT scorer's must= gate —
        # one canonical accumulation path (bit-identical float order)
        return self._search_bm25_taat(terms, k,
                                      must=np.unique(np.concatenate(lists)))

    def search_as_you_type(self, query_text: str, k: int = 10,
                           max_expansions: int = 3):
        """Instant search (Elasticsearch search_as_you_type shape): the
        LAST query token is treated as a prefix still being typed and
        OR-expanded to its top-``max_expansions`` dictionary
        completions by (df desc, term asc — the autocomplete rule,
        X117); completed head terms score as usual.  A prefix with no
        completion behaves as an unknown term (results fall back to
        the head terms' ranking).  Deterministic, so the whole
        composition is SQL-mirrorable."""
        if k < 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return []
        *head, pre = query
        comps = heapq.nsmallest(max_expansions, self._with_prefix(pre),
                                key=lambda t: (-self.df_map[t], t))
        terms = list(dict.fromkeys(head + (comps or [pre])))
        return self._search_bm25_taat(terms, k)

    def _with_prefix(self, pre: str) -> list[str]:
        """Dictionary terms starting with ``pre``: one bisect into the
        sorted vocabulary (built on first use, so opening an engine does
        not pay for it), then a scan over the matches."""
        if self._terms_sorted is None:
            self._terms_sorted = sorted(self.df_map)
        terms = self._terms_sorted
        lo = hi = bisect.bisect_left(terms, pre)
        while hi < len(terms) and terms[hi].startswith(pre):
            hi += 1
        return terms[lo:hi]

    def candidate_stats(self, query_text: str, m: int = 32,
                        df_den: int = 2) -> dict:
        """Observability for the candidate-pruning strategies: how many
        docs each retrieval mode would SCORE for this query — ``plain``
        (full posting union), ``tiered`` (champion lists at ``m``),
        ``rare_first`` (low-df drive set at ``df_den``).  The tuning
        surface for --tier/--rare-first: a head-term query shows
        tiered/rare candidate volumes orders of magnitude below plain
        while the laws (tiered ⊆ plain, rare ⊆ plain) always hold."""
        query, _, _ = self.parser.parse_sentence(query_text)
        terms = list(dict.fromkeys(query))
        if not terms:
            return {"plain": 0, "tiered": 0, "rare_first": 0}
        self.prefetch(terms)
        lists = [self.postings(t)["doc_ids"] for t in terms
                 if self.postings(t) is not None]
        plain = (len(np.unique(np.concatenate(lists))) if lists else 0)
        # candidate sets directly (no scoring): champions + drive union
        champ = [self._champions(self.postings(t), m)[0]
                 for t in terms if self.postings(t) is not None]
        tiered = (len(np.unique(np.concatenate(champ))) if champ else 0)
        known = [t for t in terms if t in self.df_map]
        drive = [p["doc_ids"] for p in map(
            self.postings, self._low_df_terms(known, df_den) or known)
            if p is not None]
        rare = len(np.unique(np.concatenate(drive))) if drive else 0
        return {"plain": int(plain), "tiered": int(tiered),
                "rare_first": int(rare)}

    def match_counts(self, query_text: str) -> dict:
        """Total-hit counts for a query WITHOUT ranking (the
        Elasticsearch ``track_total_hits`` surface): ``n_or`` = docs
        containing any query term, ``n_and`` = docs containing every
        term, straight off the posting lists — no scoring, no metadata
        gather.  ``n_and`` is 0 when any term is unknown/pruned
        (boolean-AND semantics)."""
        query, _, _ = self.parser.parse_sentence(query_text)
        terms = list(dict.fromkeys(query))
        if not terms:
            return {"n_or": 0, "n_and": 0}
        self.prefetch(terms)
        lists = []
        for t in terms:
            p = self.postings(t)
            if p is not None:
                lists.append(p["doc_ids"])
        n_or = (len(np.unique(np.concatenate(lists))) if lists else 0)
        n_and = (len(self._bool_and_ids(terms))
                 if len(lists) == len(terms) else 0)
        return {"n_or": int(n_or), "n_and": int(n_and)}

    def _champions(self, p: dict, m: int):
        """The term's champion prefix as (doc ids, tfs, ts) in
        ``champion_order``, memoized per (term, m) in the posting cache
        entry.  ONE copy of the rule, shared by search_tiered,
        tier_champions and candidate_stats — a production index would
        persist this prefix at build time (impact-ordered posting
        heads)."""
        bym = p.setdefault("champ", {})
        got = bym.get(m)
        if got is None:
            ids, tfs = p["doc_ids"], p["tfs"]
            ts = self._ts_of(ids)
            o = champion_order(ids, tfs, ts, m)
            got = bym[m] = (ids[o], tfs[o], ts[o])
        return got

    def _low_df_terms(self, known: list, df_den: int) -> list:
        """The rare-first drive set rule (df * df_den < n_docs),
        shared by search_common_terms and candidate_stats."""
        return [t for t in known
                if self.df_map[t] * df_den < self.n_docs]

    def search_tiered(self, query_text: str, k: int = 10, m: int = 32,
                      fuzzy: bool = False):
        """Champion-list (tiered-index) approximate BM25 top-k — the
        classic index-pruning design (Manning/Raghavan/Schütze IIR §7.1
        champion lists): per query term, only that term's ``m``
        highest-tf postings (ties broken by ts ascending — oldest doc
        first — then doc_id; a DETERMINISTIC champion rule, so results
        are exactly reproducible and SQL-mirrorable) enter the
        candidate set;
        candidates then score with FULL BM25 contributions from every
        query term and rank in the engine's exact (score, ts, id)
        order.  At serving scale the champion prefix of each posting
        list is the only block a head-term query touches — candidate
        volume is bounded by ``m × |q|`` instead of the head term's df.
        With ``m >= max df`` this equals exact BM25 (property-tested);
        ``m <= 0`` admits no champions and returns [] (both engines)."""
        if k < 0 or m <= 0:
            return []
        if k == 0:
            k = max(self.n_docs, 1)
        terms, champs = self.tier_champions(query_text, m, fuzzy)
        if not champs:
            return []
        cand = np.unique(np.concatenate([c[0] for c in champs.values()]))
        return self._search_bm25_taat(terms, k, must=cand)

    def tier_champions(self, query_text: str, m: int,
                       fuzzy: bool = False):
        """Round 1 of tiered retrieval: the distinct parsed (and, with
        ``fuzzy``, corrected) query terms, and ``{term: (doc ids, tfs,
        ts)}`` — the champion prefix of every term with postings.  The
        global champion prefix of a term is inside the union of the
        prefixes of engines over a shard partition, so re-selecting
        with ``champion_order`` over that union is exact."""
        query, _, _ = self.parser.parse_sentence(query_text)
        if fuzzy:
            query = [t if t in self.df_map
                     else (self.fuzzy_correct(t) or t) for t in query]
        terms = list(dict.fromkeys(query))
        self.prefetch(terms)
        return terms, {t: self._champions(p, m) for t, p in
                       zip(terms, map(self.postings, terms))
                       if p is not None}

    def _idf(self, term: str) -> float:
        df = self.df_map.get(term)
        return math.log10(self.n_docs / df) if df else 0.0

    def _search_reference(self, query: list[str], k: int):
        cfg = self.cfg
        Q = len(query)
        qg = np.zeros(cfg.glove_dim)
        for t in query:
            g = self.glove.get(t)
            if g is not None:
                qg = qg + g
        qg = qg / Q

        uniq_terms = list(dict.fromkeys(query))
        plists = {t: self.postings(t) for t in uniq_terms}
        known = [t for t in uniq_terms if plists[t] is not None]
        if not known:
            return []

        # candidate union + match counts + per-doc (dl, mtf)
        all_ids = np.concatenate([plists[t]["doc_ids"] for t in known])
        all_dls = np.concatenate([plists[t]["dls"] for t in known])
        all_mtfs = np.concatenate([self._mtfs_of(plists[t])
                                   for t in known])
        cand, first_idx, counts = np.unique(
            all_ids, return_index=True, return_counts=True)
        min_match = int(Q * cfg.min_match_ratio)
        if min_match > 0:
            keep = counts >= min_match
            cand = cand[keep]
            first_idx = first_idx[keep]
        if len(cand) == 0:
            return []
        dl = all_dls[first_idx].astype(np.float64)
        mtf = all_mtfs[first_idx].astype(np.float64)
        tf_quirk = mtf / dl  # calculate_tf reads max_tf (searcher.py:121)

        qidf = np.array([self._idf(t) for t in query])
        pos_count = {t: 0 for t in uniq_terms}
        for t in query:
            pos_count[t] += 1
        # knownness is the GLOBAL dictionary's, not local posting
        # presence: a shard-restricted engine without postings for a
        # known term must still give it its true query tf, or the query
        # vector's norm (and so wcos) drifts from the unrestricted engine
        qtf = np.array([
            (pos_count[t] if t in self.df_map else 1) / Q
            for t in query
        ])

        member = np.zeros((len(cand), Q))
        for i, t in enumerate(query):
            p = plists.get(t)
            if p is None:
                continue
            member[:, i] = np.isin(cand, p["doc_ids"])
        dtf = member * tf_quirk[:, None]

        dvec = dtf * qidf[None, :]
        qvec = qtf * qidf
        num = dvec @ qvec
        den = np.linalg.norm(dvec, axis=1) * np.linalg.norm(qvec)
        wcos = np.where((den == 0) | (num == 0), 0.0, num / np.where(den == 0, 1, den))

        denom = dtf + cfg.bm25_k1 * (
            1 - cfg.bm25_b + cfg.bm25_b * dl[:, None] / self.avg_dl)
        bm25 = ((qidf[None, :] * dtf * (cfg.bm25_k1 + 1)) / denom).sum(axis=1)

        # glove first: on a cold index _meta_for would build the ids/ts
        # sidecar WITHOUT glove and _ensure_glove would then rebuild all
        # three files — two full docmeta scans instead of one
        self._ensure_glove()
        pos, found = self._meta_for(cand)
        gmat = self._meta_glove[pos] * found[:, None]
        ts = self._meta["ts"][pos] * found
        gnum = gmat @ qg
        gden = np.linalg.norm(gmat, axis=1) * np.linalg.norm(qg)
        gcos = np.where((gden == 0) | (gnum == 0), 0.0,
                        gnum / np.where(gden == 0, 1, gden))

        score = (cfg.w_cos_weight * wcos + cfg.bm25_weight * bm25
                 + cfg.glove_weight * gcos)
        return _topk_reference_order(score, cand, ts, k)

    def _bm25_contrib(self, term: str):
        """idf * tf-norm array for a term, cached (corpus-constant)."""
        p = self.postings(term)
        if p is None:
            return None
        c = p.get("contrib")
        if c is None:
            c = self._idf(term) * tf_norm(
                p["tfs"], p["dls"].astype(np.float64),
                self.avg_dl, self.cfg.bm25_k1, self.cfg.bm25_b)
            p["contrib"] = c
        return p["doc_ids"], c

    def _search_bm25_taat(self, query: list[str], k: int,
                          ts_range: tuple[int, int] | None = None,
                          after: tuple[float, int, int] | None = None,
                          boosts: dict[str, float] | None = None,
                          must: np.ndarray | None = None):
        terms = list(dict.fromkeys(query))
        id_parts, contrib_parts = [], []
        for t in terms:
            pc_ = self._bm25_contrib(t)
            if pc_ is None:
                continue
            w = boosts.get(t, 1.0) if boosts else 1.0
            id_parts.append(pc_[0])
            # w==1 keeps the cached contrib array zero-copy; any other
            # weight scales into a fresh array (never mutate the cache)
            contrib_parts.append(pc_[1] if w == 1.0 else pc_[1] * w)
        if not id_parts:
            return []
        cand, scores = union_scores(id_parts, contrib_parts)
        if must is not None:
            # phrase gate BEFORE the top-k boundary (both sides sorted
            # unique, so membership is one linear merge)
            m = np.isin(cand, must, assume_unique=True)
            if not m.any():
                return []
            cand, scores = cand[m], scores[m]
        if ts_range is not None:
            # temporal filter BEFORE the top-k prune: the k-th-best
            # boundary must be computed among in-window docs only.  This
            # gathers ts for every candidate (the unfiltered path below
            # avoids that); a serving deployment that filters by time
            # constantly would carry a quantized ts per posting block to
            # pre-skip, but correctness-first the docmeta gather is exact.
            pos, found = self._meta_for(cand)
            ts_all = self._meta["ts"][pos] * found
            lo, hi = ts_range
            m = found & (ts_all >= lo) & (ts_all <= hi)
            if not m.any():
                return []
            scores, cand, ts_pre = scores[m], cand[m], ts_all[m]
        else:
            ts_pre = None
        if after is not None:
            # cursor prune in ranking order (score, ts, doc_id): every
            # strictly-lower score survives with NO metadata touch; the
            # ts gather for the tie-break runs only over the (rare)
            # exact-score ties with the cursor.
            a_score, a_id, a_ts = after
            lt = scores < a_score
            eqm = np.flatnonzero(scores == a_score)
            if eqm.size:
                ts_eq = (ts_pre[eqm] if ts_pre is not None
                         else self._ts_of(cand[eqm]))
                keep_eq = (ts_eq < a_ts) | ((ts_eq == a_ts)
                                            & (cand[eqm] < a_id))
                lt[eqm[keep_eq]] = True
            keep = np.flatnonzero(lt)
            if keep.size == 0:
                return []
            scores, cand = scores[keep], cand[keep]
            if ts_pre is not None:
                ts_pre = ts_pre[keep]
        if ts_pre is not None:
            return _topk_reference_order(scores, cand, ts_pre, k)
        return _topk_by_score(scores, cand, k, self._ts_of)

    def search_explain(self, query_text: str, k: int = 10):
        """EXPLAIN for the block-max WAND path: run the query and return
        ``(results, stats)`` where stats counts the pruning work —
        ``terms``/``postings_total`` (candidate volume), ``full_evals``
        (docs actually scored), ``bm_skips`` (pivots rejected by the
        block-max refinement), ``pivot_advances`` (lists skipped forward
        past a pivot), ``heap_inserts``.  ``full_evals /
        postings_total`` is the fraction of the candidate space the
        dynamic pruning actually touched — the observability surface
        for block_size tuning."""
        if k <= 0:
            return [], {}
        query, _, _ = self.parser.parse_sentence(query_text)
        if not query:
            return [], {}
        self.prefetch(query)
        stats: dict[str, int] = {
            "terms": 0, "postings_total": 0, "full_evals": 0,
            "bm_skips": 0, "pivot_advances": 0, "heap_inserts": 0}
        return self._search_bm25_wand(query, k, stats=stats), stats

    def _search_bm25_wand(self, query: list[str], k: int,
                          stats: dict | None = None):
        """Block-max WAND over merged per-term streams (block metadata
        recomputed on the merged doc-sorted arrays); identical results to
        TAAT (same float contributions, summed per doc)."""
        cfg = self.cfg
        B = cfg.block_size
        terms = list(dict.fromkeys(query))
        streams = []  # one stream per term
        for t in terms:
            p = self.postings(t)
            if p is None or len(p["doc_ids"]) == 0:
                continue
            idf = self._idf(t)
            ids = p["doc_ids"]
            tn = tf_norm(p["tfs"], p["dls"].astype(np.float64),
                         self.avg_dl, cfg.bm25_k1, cfg.bm25_b)
            contrib = idf * tn
            n = len(ids)
            starts = np.arange(0, n, B)
            ends = np.minimum(starts + B, n)
            blk_ub = np.maximum.reduceat(contrib, starts)
            streams.append({
                "ids": ids,
                "contrib": contrib,
                "blk_last": ids[ends - 1],
                "blk_ub": blk_ub,
                "cur": 0,
            })
        if stats is not None:
            stats["terms"] = len(streams)
            stats["postings_total"] = int(sum(len(s["ids"])
                                              for s in streams))
        if not streams:
            return []
        import heapq

        for s in streams:
            s["max_ub"] = float(s["blk_ub"].max()) if len(s["blk_ub"]) else 0.0
        self._ensure_meta()
        meta_ids, meta_ts = self._meta["ids"], self._meta["ts"]

        def ts_of(doc: int) -> int:
            i = int(np.searchsorted(meta_ids, doc))
            return int(meta_ts[i]) if i < len(meta_ids) and meta_ids[i] == doc else 0

        # min-heap of (score, ts, doc_id) — the FULL reference tie-break
        # key, so boundary ties resolve identically to TAAT's lexsort
        heap: list[tuple] = []

        def theta():
            return heap[0][0] if len(heap) >= k else -math.inf

        while True:
            live = [s for s in streams if s["cur"] < len(s["ids"])]
            if not live:
                break
            live.sort(key=lambda s: s["ids"][s["cur"]])
            # pivot: first doc whose prefix upper-bound sum can reach theta
            ub_sum = 0.0
            pivot = None
            pivot_i = -1
            th = theta()
            for i, s in enumerate(live):
                ub_sum += s["max_ub"]
                if ub_sum >= th:
                    pivot = int(s["ids"][s["cur"]])
                    pivot_i = i
                    break
            if pivot is None:
                break  # no remaining doc can enter the top-k
            first_doc = int(live[0]["ids"][live[0]["cur"]])
            if first_doc == pivot:
                # every list up to pivot_i is AT pivot; block-max refine
                aligned = [s for s in live if s["cur"] < len(s["ids"])
                           and s["ids"][s["cur"]] == pivot]
                bm_sum = 0.0
                blk_ends = []
                for s in aligned:
                    bi = int(np.searchsorted(s["blk_last"], pivot))
                    if bi < len(s["blk_ub"]):
                        bm_sum += float(s["blk_ub"][bi])
                        blk_ends.append(int(s["blk_last"][bi]))
                if bm_sum >= th:
                    score = 0.0
                    for s in aligned:
                        score += float(s["contrib"][s["cur"]])
                        s["cur"] += 1
                    if stats is not None:
                        stats["full_evals"] += 1
                    entry = (score, ts_of(pivot), pivot)
                    if len(heap) < k:
                        heapq.heappush(heap, entry)
                        if stats is not None:
                            stats["heap_inserts"] += 1
                    elif entry > heap[0]:
                        heapq.heapreplace(heap, entry)
                        if stats is not None:
                            stats["heap_inserts"] += 1
                else:
                    if stats is not None:
                        stats["bm_skips"] += 1
                    # BMW skip: next candidate is bounded by the smallest
                    # aligned block end AND the next list's current doc,
                    # so no reachable scorer combination is skipped
                    candidate = min(blk_ends) + 1 if blk_ends else pivot + 1
                    for s in live:
                        d = int(s["ids"][s["cur"]])
                        if d > pivot:
                            candidate = min(candidate, d)
                            break
                    for s in aligned:
                        c = s["cur"]
                        s["cur"] = c + int(np.searchsorted(
                            s["ids"][c:], candidate))
            else:
                if stats is not None:
                    stats["pivot_advances"] += 1
                # advance lists before the pivot up to it
                for s in live[:pivot_i + 1]:
                    c = s["cur"]
                    if int(s["ids"][c]) >= pivot:
                        continue
                    s["cur"] = c + int(np.searchsorted(s["ids"][c:], pivot))
        if not heap:
            return []
        heap.sort()
        return [(float(sc), int(d), int(t)) for sc, t, d in heap]


def adjacent_term_pairs(query: list[str]) -> list[tuple[str, str]]:
    """Unordered-deduped ADJACENT term pairs of a parsed query, in
    first-occurrence order — the pair set the proximity-boosted scorer
    bonuses.  Shared with the SQL-mirror builder so the pair rule
    cannot diverge.  Self-pairs (repeated term) are skipped: the
    min-gap of a term with itself is degenerate."""
    seen: set[frozenset] = set()
    out = []
    for t1, t2 in zip(query, query[1:]):
        key = frozenset((t1, t2))
        if t1 == t2 or key in seen:
            continue
        seen.add(key)
        out.append((t1, t2))
    return out


def parse_quoted_query(query_text: str) -> tuple[str, list[str]]:
    """Split a search-box string with double-quoted spans into
    ``(text, phrases)``: ``'"query scan" table'`` -> ``('query scan
    table', ['query scan'])``.  The quoted words STAY in the text (they
    score like any other term — Lucene's phrase-query behavior); each
    non-empty quoted span becomes a phrase constraint for
    ``search(phrases=...)``.  An unbalanced trailing quote is treated
    as if closed at end-of-string."""
    import re as _re

    phrases = [p.strip() for p in
               _re.findall(r'"([^"]*)(?:"|$)', query_text)]
    return (query_text.replace('"', ' '),
            [p for p in phrases if p])


def expand_synonyms(query: list[str],
                    synonyms: dict[str, list[str]]) -> list[str]:
    """Pure query rewrite for query-time synonym expansion: original
    terms pass through UNTOUCHED (duplicates included — reference mode
    weights them); each alternate is inserted once, after its first
    term, unless it already occurs anywhere in the query."""
    present = set(query)
    expanded: list[str] = []
    for t in query:
        expanded.append(t)
        for a in synonyms.get(t, ()):
            if a not in present:
                present.add(a)
                expanded.append(a)
    return expanded


def union_scores(id_parts: list[np.ndarray],
                 contrib_parts: list[np.ndarray]):
    """``(cand, scores)``: the sorted union of the parts' doc ids and,
    per doc, the sum of its contributions in part order.

    Each part lists a doc at most once; it is one or a few doc-sorted
    runs (a SearchEngine posting list is one; an NRT term is the base
    run plus up to one run per add batch).  A stable argsort (timsort
    merges the runs) keeps a doc's postings in part order, and
    ``bincount`` adds them sequentially from 0.0, so every doc sums
    ``0 + c1 + c2 + ...`` in query-term order — bit-identical to
    ``np.unique(return_inverse=True)`` + ``bincount``, without
    re-sorting the runs.  (``np.add.reduceat``
    would add pairwise and drift in the last bits.)  A single part is
    returned as is, zero-copy."""
    if len(id_parts) == 1:
        return id_parts[0], contrib_parts[0]
    ids = np.concatenate(id_parts)
    o = ids.argsort(kind="stable")
    ids = ids[o]
    first = np.empty(len(ids), bool)
    first[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    cand = ids[first]
    scores = np.bincount(np.cumsum(first) - 1,
                         weights=np.concatenate(contrib_parts)[o],
                         minlength=len(cand))
    return cand, scores


def _score_keep(scores: np.ndarray, k: int) -> np.ndarray | None:
    """Indices of the candidates whose score >= the k-th-best score
    (the O(n) ``np.partition`` value at n-k; score-boundary TIES are all
    kept, so the (ts, doc_id) tie-break stays exact), or None when there
    are at most 4k candidates and a prune would not pay."""
    n = len(scores)
    if k <= 0 or n <= 4 * k:
        return None
    s_k = np.partition(scores, n - k)[n - k]
    return np.flatnonzero(scores >= s_k)


def _topk_by_score(scores: np.ndarray, doc_ids: np.ndarray, k: int,
                   ts_of):
    """``_topk_reference_order`` with the score prune run BEFORE the ts
    gather: scores alone decide membership above the k-th-best boundary,
    so ``ts_of(doc_ids)`` is asked for ~k docs, not every candidate."""
    keep = _score_keep(scores, k)
    if keep is not None:
        scores, doc_ids = scores[keep], doc_ids[keep]
    return _topk_reference_order(scores, doc_ids, ts_of(doc_ids), k)


def _topk_reference_order(scores: np.ndarray, doc_ids: np.ndarray,
                          ts: np.ndarray, k: int):
    """Ascending (score, ts, doc_id), last k (ranker.py:51-63).

    The ``_score_keep`` prune runs before the tie-breaking lexsort, so
    only the remainder is fully sorted — head-term queries carry 10k+
    candidates where only k survive."""
    if k <= 0:
        return []
    keep = _score_keep(scores, k)
    if keep is not None:
        scores, doc_ids, ts = scores[keep], doc_ids[keep], ts[keep]
    order = np.lexsort((doc_ids, ts, scores))
    order = order[-k:] if k <= len(order) else order
    return [(float(scores[i]), int(doc_ids[i]), int(ts[i])) for i in order]
