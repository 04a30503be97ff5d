"""Index integrity checker — ``fsck`` for a built index.

An operational tool for production indexes (bit rot, interrupted
copies, mixed-version merges): verifies the manifest, the stage
layout, the dictionary↔postings reconciliation on a deterministic term
sample, per-term posting invariants (sorted unique doc ids, tf ≥ 1,
tf ≤ dl, positions aligned with the tf stream), the docmeta row count
and id uniqueness, and the manifest's corpus statistics against the
docmeta stage.  Sampled checks read ONLY the sampled terms' postings
through the engine's own cold path (the per-bucket postings sidecar,
whose directory is also checked against the dictionary, and whose
fixed-width streams against their counts and doc shards); the docmeta pass
STREAMS per file with O(1) accumulators (global id uniqueness keeps
ids only below a bounded cap, degrading to per-file uniqueness above
it) — the driver never materializes a corpus-sized table, so the same
tool runs against a 10^12-doc index.

Every check is try/except-isolated: a corrupt file yields a ``fail``
row with the exception, never a crash (the quarantine convention,
X106).  Exposed on the CLI as ``fsck <index_dir>`` (exit 1 on any
fail).
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa


def _rows(out):
    return pa.table({
        "check": pa.array([r[0] for r in out], pa.string()),
        "status": pa.array([r[1] for r in out], pa.string()),
        "detail": pa.array([r[2] for r in out], pa.string()),
    })


def _check_postings_sidecar(out_dir: str, cfg: dict, df_map: dict,
                            pick: list[str], add) -> None:
    """The sampled terms against each fresh postings sidecar (the
    engine's cold-read layout, query/engine.py): every term has
    directory entries, their extents lie inside the blob, their posting
    counts sum to the term's df, each fixed-width stream is ``n``
    values long, and each entry's doc ids strictly increase and belong
    to the entry's doc shard.  Buckets without a sidecar matching their
    current files are skipped."""
    from search_engine_ray.ids import term_bucket
    from search_engine_ray.query.engine import (
        _FIXED_STREAMS,
        _BucketPostings,
        postings_sidecar_paths,
    )

    width = np.array([np.dtype(dt).itemsize for _, dt in _FIXED_STREAMS])
    S = cfg["num_shards"]
    by_bucket: dict[int, list[str]] = {}
    for t in pick:
        by_bucket.setdefault(term_bucket(t, cfg["term_buckets"]),
                             []).append(t)
    n_checked = n_missing = n_extent = n_df = n_width = n_ids = 0
    for b, ts in sorted(by_bucket.items()):
        _, blob_p, dir_p = postings_sidecar_paths(out_dir, b)
        if not os.path.exists(dir_p):
            continue
        side = _BucketPostings(dir_p, blob_p)
        size = len(side.blob)
        keys = np.array([t.encode() for t in ts], dtype="S")
        lo = np.searchsorted(side.terms, keys, "left")
        hi = np.searchsorted(side.terms, keys, "right")
        for t, a, z in zip(ts, lo.tolist(), hi.tolist()):
            n_checked += 1
            if z == a:
                n_missing += 1
                continue
            n, off, ln = side.n[a:z], side.off[a:z], side.len[a:z]
            if int(n.sum()) != df_map[t]:
                n_df += 1
            if (off < 0).any() or (ln < 0).any() or (off + ln > size).any():
                n_extent += 1
                continue
            if (ln[:, :len(width)] != n[:, None] * width).any():
                n_width += 1
                continue
            for i, s in zip(range(a, z), side.shard[a:z].tolist()):
                ids = side.stream(slice(i, i + 1), 0, _FIXED_STREAMS[0][1])
                if (np.diff(ids) <= 0).any() or (ids % S != s).any():
                    n_ids += 1
                    break
    add("postings:sidecar", n_missing + n_extent + n_df + n_width
        + n_ids == 0,
        f"{n_checked} sampled terms in fresh sidecars: {n_missing} "
        f"without entries, {n_extent} with extents outside the blob, "
        f"{n_df} df mismatches, {n_width} with a stream length other "
        f"than n values, {n_ids} with doc ids unsorted or outside "
        "their entry's shard")


def check_index(out_dir: str, sample_terms: int = 64,
                seed: int = 7) -> pa.Table:
    """Run all checks; returns (check, status, detail) rows with
    status ``ok`` / ``fail``."""
    from search_engine_ray.index import manifest as mf

    out: list[tuple[str, str, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        out.append((name, "ok" if ok else "fail", detail))

    # 1. manifest readable + required keys
    try:
        man = mf.read_manifest(out_dir)
        need = [k for k in ("n_docs", "avg_doc_length", "config")
                if k not in man]
        add("manifest", not need, f"missing keys: {need}" if need else
            f"n_docs={man['n_docs']}")
    except Exception as e:  # noqa: BLE001 — report, don't crash
        out.append(("manifest", "fail", f"{type(e).__name__}: {e}"))
        return _rows(out)

    # 2. stage layout
    for stage in ("dict", "postings", "docmeta"):
        d = mf.stage_dir(out_dir, stage)
        n = len(glob.glob(os.path.join(d, "**", "*.parquet"),
                          recursive=True))
        # zero files is legitimate only for an empty/pruned corpus
        add(f"stage:{stage}", n > 0 or man["n_docs"] == 0,
            f"{n} parquet files")

    # 3. dictionary loads; reserved rows dropped
    try:
        df_map, caps = mf.load_df_and_orig(out_dir)
        bad = [t for t, v in df_map.items() if v <= 0]
        add("dict:load", not bad,
            f"{len(df_map)} terms" if not bad
            else f"non-positive df for {bad[:5]}")
    except Exception as e:  # noqa: BLE001
        out.append(("dict:load", "fail", f"{type(e).__name__}: {e}"))
        return _rows(out)

    # 4. sampled dict<->postings reconciliation + posting invariants
    terms = sorted(df_map)
    if terms:
        rng = np.random.default_rng(seed)
        pick = [terms[i] for i in sorted(set(
            rng.integers(0, len(terms),
                         size=min(sample_terms, len(terms))).tolist()))]
        try:
            from search_engine_ray.query.engine import SearchEngine

            eng = SearchEngine(out_dir)
            eng.prefetch(pick)
            n_df_bad = n_sort_bad = n_tf_bad = n_pos_bad = 0
            for t in pick:
                p = eng.postings(t)
                if p is None or len(p["doc_ids"]) != df_map[t]:
                    n_df_bad += 1
                    continue
                ids = p["doc_ids"]
                if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
                    n_sort_bad += 1
                tfs, dls = p["tfs"], p["dls"]
                if (tfs < 1).any() or (tfs > dls).any():
                    n_tf_bad += 1
                if eng.cfg.positions:
                    eng._positions_of(p)
                    off = p["pos_off"]
                    if (len(off) != len(ids) + 1
                            or not (np.diff(off) == tfs).all()):
                        n_pos_bad += 1
            add("postings:df", n_df_bad == 0,
                f"{len(pick)} sampled terms, {n_df_bad} df mismatches")
            add("postings:sorted", n_sort_bad == 0,
                f"{n_sort_bad} unsorted posting lists")
            add("postings:tf", n_tf_bad == 0,
                f"{n_tf_bad} lists with tf<1 or tf>dl")
            if eng.cfg.positions:
                add("postings:positions", n_pos_bad == 0,
                    f"{n_pos_bad} lists with misaligned positions")
        except Exception as e:  # noqa: BLE001
            out.append(("postings:sample", "fail",
                        f"{type(e).__name__}: {e}"))
        try:
            _check_postings_sidecar(out_dir, man["config"], df_map,
                                    pick, add)
        except Exception as e:  # noqa: BLE001
            out.append(("postings:sidecar", "fail",
                        f"{type(e).__name__}: {e}"))

    # 5. docmeta: row count == manifest n_docs, ids unique — STREAMED
    # per file (the driver never holds the docmeta table: at crawl
    # scale docmeta is corpus-sized, index/merge.py's rule).  Row
    # counts and the dl sum are O(1) accumulators; global id
    # uniqueness keeps ids only up to ``unique_cap`` rows (64 MB at
    # the default) and degrades to per-file uniqueness + a total-count
    # cross-check above it, reported as such.
    unique_cap = 8_000_000
    try:
        import pyarrow.parquet as pq

        d = mf.stage_dir(out_dir, "docmeta")
        fs = sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                              recursive=True))
        if fs:
            n_rows = 0
            dl_sum = 0
            id_chunks: "list[np.ndarray] | None" = []
            per_file_dup = 0
            for f in fs:
                pf = pq.ParquetFile(f)
                file_ids = []
                for b in pf.iter_batches(columns=["doc_id",
                                                  "doc_length"]):
                    ids = b.column(0).to_numpy()
                    n_rows += len(ids)
                    dl_sum += int(b.column(1).to_numpy().sum())
                    file_ids.append(np.asarray(ids))
                if file_ids:
                    fid = np.concatenate(file_ids)
                    per_file_dup += int(len(fid) - len(np.unique(fid)))
                    if id_chunks is not None:
                        id_chunks.append(fid)
                        if n_rows > unique_cap:
                            id_chunks = None  # too big: bounded mode
            add("docmeta:rows", n_rows == man["n_docs"],
                f"{n_rows} rows vs manifest n_docs={man['n_docs']}")
            if id_chunks is not None:
                allids = np.concatenate(id_chunks)
                dup = len(allids) - len(np.unique(allids))
                add("docmeta:unique", dup == 0,
                    f"{dup} duplicate doc ids (exact)")
            else:
                add("docmeta:unique", per_file_dup == 0,
                    f"per-file check only (> {unique_cap} rows): "
                    f"{per_file_dup} intra-file duplicates")
            # 6. corpus stats reconcile (exact integer sum; the build
            # never emits doc_length == 0 rows, so the mean is over
            # all rows)
            want = (dl_sum / n_rows) if n_rows else 0.0
            got = float(man["avg_doc_length"])
            add("stats:avg_dl", abs(want - got) < 1e-9,
                f"manifest {got} vs docmeta {want}")
        else:
            add("docmeta:rows", man["n_docs"] == 0, "no docmeta files")
    except Exception as e:  # noqa: BLE001
        out.append(("docmeta", "fail", f"{type(e).__name__}: {e}"))

    return _rows(out)
