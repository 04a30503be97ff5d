"""Merge built indexes into one — the incremental-ingest path.

A corpus that grows by deltas should not re-run the expensive parse
stage over the whole history: build each delta into its own index
(``build_index``), then ``merge_indexes`` folds N indexes into one
whose dictionary, postings, corpus stats and docmeta equal a full
rebuild over the union corpus.  The merge never touches raw documents
— it regenerates the build's fused shuffle SPILL from the existing
indexes (posting rows decode back into SPIMI-run rows keyed by their
ORIG term; dict rows decompose back into (df, caps) partials) and then
runs the build's OWN phase-B reduce tasks (``_reduce_dict_part`` /
``_reduce_postings_part``) unchanged, so the output is produced by the
same deterministic code path as a direct build, with the same
per-partition commit log (a killed merge resumes).

Cost at cluster scale: ONE shuffle of the posting rows (index-sized,
typically 10-100x smaller than the raw corpus the parse stage would
re-read) plus a metadata-sized dict shuffle; docmeta partitions are
copied file-wise (disjoint doc sets concatenate).

Exactness: with ``prune_df1=False`` the merged index is semantically
identical to a full rebuild over the union corpus — the capitals
UPPER-rewrite verdict is re-derived globally (every term occurrence
writes a caps flag, so the per-generation verdicts AND together into
exactly the union verdict; rewritten postings re-route to the final
term's bucket through the shuffle).  Three reference quirk-rules are
destructive at build time and therefore CANNOT be re-evaluated across
generations (their pruned postings were never written):

- ``prune_df1=True``: a term df==1 inside one generation lost its
  posting row there; the merged df counts surviving rows only (the
  merged index equals a full rebuild over the SURVIVING postings, and
  the df==1 rule re-applies to the merged df).
- the entity<2 prune (near-dead as written, see apply_dict_rules): a
  term entity-pruned inside one generation stays gone; survivors are
  never newly pruned (entity counts only grow with more docs).
- the SAME-BUCKET capitals-collision drop: when two always-capitalized
  orig terms sharing one UPPER final term land in the same term bucket
  of one generation, that generation's build drops the lesser orig's
  dict row AND postings (apply_dict_rules last-wins).  If another
  generation would have DE-capitalized that orig (it occurs lowercase
  there), a full union rebuild would keep the dropped docs under the
  lowercase term; the merge cannot resurrect them.  Needs a same-gen
  same-bucket UPPER collision whose loser is lowercase elsewhere —
  strictly rarer than the df==1 case.

Preconditions: all source indexes share one config fingerprint, and
their doc-id sets are disjoint (delta semantics — the same document
indexed twice would duplicate its postings; ``doc_id_for_url`` makes
ids content-addressed, so disjoint input files give disjoint ids).
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa

from search_engine_ray.config import EngineConfig
from search_engine_ray.index import manifest as mf
from search_engine_ray.index.build import (
    NDOCS_KEY,
    RUN_SCHEMA,
    SUMDL_KEY,
    _bucket_array,
    _reduce_dict_part,
    _reduce_postings_part,
    _run_part_tasks,
    _spill_base,
    dict_rows,
)

_POSTING_COLS = ["shard", "term", "orig", "n", "docids_vb", "tf_vb",
                 "dl_vb", "mtf_vb", "pos_vb"]


def _rebase_docids(n: np.ndarray, docids_blobs: list
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-(term, shard) delta+varbyte doc-id blobs -> (flat absolute
    ids, per-row starts).  One flat decode + one segment-rebased
    cumulative sum for the whole batch."""
    from search_engine_ray.index.encoding import varbyte_decode

    flat = varbyte_decode(b"".join(docids_blobs), count=int(n.sum()))
    cs = np.cumsum(flat)
    starts = np.concatenate(([0], np.cumsum(n)[:-1])).astype(np.int64)
    base = np.where(starts > 0, cs[starts - 1], 0)
    return cs - np.repeat(base, n), starts


def _ensure_spill_marker(spill_dir: str, input_fp: str, cfg_fp: str,
                         regenerate) -> None:
    """Idempotent spill regeneration: reuse a spill whose marker matches
    (input_fp, cfg_fp), else wipe, run ``regenerate()``, and commit the
    marker atomically — the one resume protocol both merge and delete
    spills follow."""
    marker = os.path.join(spill_dir, "_SPILL_OK.json")
    if os.path.exists(marker):
        with open(marker) as f:
            m = json.load(f)
        if (m.get("input_fp") == input_fp
                and m.get("config_fp") == cfg_fp):
            return
    shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(spill_dir, exist_ok=True)
    regenerate()
    with open(marker + ".tmp", "w") as f:
        json.dump({"input_fp": input_fp, "config_fp": cfg_fp}, f)
    os.replace(marker + ".tmp", marker)


def _decode_run_rows(batch: pa.Table, term_buckets: int) -> pa.Table:
    """Final posting rows -> SPIMI-run rows keyed by ORIG term.

    The per-(term, doc-shard) delta+varbyte doc-id stream decodes back
    to absolute ids with ONE vectorized pass over the whole batch (flat
    decode, then a segment-rebased cumulative sum); the tf/dl/mtf/
    position varbyte streams are reused byte-for-byte (they encode
    plain per-posting values in the exact order FinalizeBucket will
    re-sort from)."""
    n = batch.column("n").to_numpy()
    ids, starts = _rebase_docids(n, batch.column("docids_vb").to_pylist())
    origs = batch.column("orig").to_pylist()
    rows = len(origs)
    docids = [ids[s:s + int(c)].tobytes()
              for s, c in zip(starts, n)]
    return pa.table({
        "tbucket": _bucket_array(origs, term_buckets),
        "sshard": batch.column("shard").cast(pa.int32()),
        "term": pa.array(origs, pa.string()),
        "n": batch.column("n").cast(pa.int64()),
        "docids": pa.array(docids, pa.binary()),
        "tfs": batch.column("tf_vb").cast(pa.binary()),
        "dls": batch.column("dl_vb").cast(pa.binary()),
        "mtfs": batch.column("mtf_vb").cast(pa.binary()),
        "poss": batch.column("pos_vb").cast(pa.binary()),
        "df_part": pa.nulls(rows, pa.int64()),
        "caps_part": pa.nulls(rows, pa.int8()),
        "ent_part": pa.nulls(rows, pa.int64()),
    }).cast(RUN_SCHEMA)


def _dict_partial_rows(batch: pa.Table, term_buckets: int) -> pa.Table:
    """Final dict rows -> (df, caps) partial rows keyed by ORIG term.

    Every term occurrence writes a caps flag at parse time, so a
    generation's ``rewritten`` verdict IS its caps-AND over its docs;
    re-emitting it as a caps partial makes the merged reduce's min()
    recompute exactly the union verdict.  Reserved ``\\x01`` corpus-stat
    rows ride through with summed df, same as in a direct build."""
    return dict_rows(batch.column("orig_term"), term_buckets,
                     df=batch.column("df"), caps=batch.column("rewritten"))


def _run_phase_b(out_dir: str, spill_dir: str, cfg: EngineConfig,
                 input_fp: str, cfg_fp: str,
                 crash_prefix: str) -> tuple[int, int, float]:
    """The build's phase-B reduces (dict per kbucket, postings per
    (tbucket, sshard)) over an already-regenerated spill; returns
    (n_docs, sum_dl, avg_dl) from the reduced dict's reserved rows.
    Shared by merge_indexes and delete_docs."""
    dict_dir = mf.stage_dir(out_dir, "dict")
    postings_dir = mf.stage_dir(out_dir, "postings")

    dict_complete = mf.stage_complete(out_dir, "dict", input_fp, cfg_fp)
    # ---- dict reduce: the build's own per-kbucket task, unchanged
    if not dict_complete:
        done = mf.committed_parts(out_dir, "dict", input_fp, cfg_fp)
        if not done:
            mf.clear_stage(out_dir, "dict")
        os.makedirs(dict_dir, exist_ok=True)
        for stray in glob.glob(os.path.join(dict_dir, "*.tmp-*")):
            os.remove(stray)
        kdirs = sorted(
            (int(tb.split("=", 1)[1]),
             os.path.join(spill_dir, tb, "sshard=-1"))
            for tb in os.listdir(spill_dir) if tb.startswith("tbucket=")
            if os.path.isdir(os.path.join(spill_dir, tb, "sshard=-1")))
        work = [(f"kbucket={tb}", (d, dict_dir, cfg.prune_df1, tb))
                for tb, d in kdirs if f"kbucket={tb}" not in done]
        _run_part_tasks(work, _reduce_dict_part, out_dir=out_dir,
                        stage="dict", input_fp=input_fp, config_fp=cfg_fp,
                        crash_env=f"GRAFT_CRASH_{crash_prefix}_DICT_AFTER")
        mf.commit_stage(out_dir, "dict", input_fp=input_fp,
                        config_fp=cfg_fp,
                        counters={"shuffle_partitions": len(kdirs),
                                  "resumed_partitions": len(done)})

    # corpus stats from the merged dict's reserved rows
    import pyarrow.dataset as pads

    stats_t = pads.dataset(dict_dir).to_table(
        filter=pads.field("term").isin([NDOCS_KEY, SUMDL_KEY]),
        columns=["term", "df"])
    stats = dict(zip(stats_t.column("term").to_pylist(),
                     stats_t.column("df").to_pylist()))
    n_docs = int(stats.get(NDOCS_KEY, 0))
    sum_dl = int(stats.get(SUMDL_KEY, 0))
    avg_dl = sum_dl / n_docs if n_docs else 0.0

    # ---- postings reduce: the build's own per-(tbucket, sshard) task
    if not mf.stage_complete(out_dir, "postings", input_fp, cfg_fp):
        done = mf.committed_parts(out_dir, "postings", input_fp, cfg_fp)
        if not done:
            mf.clear_stage(out_dir, "postings")
        os.makedirs(postings_dir, exist_ok=True)
        for stray in glob.glob(os.path.join(postings_dir, "**", "*.tmp-*"),
                               recursive=True):
            os.remove(stray)
        part_dirs = sorted(
            os.path.join(spill_dir, tb, sh)
            for tb in os.listdir(spill_dir) if tb.startswith("tbucket=")
            for sh in os.listdir(os.path.join(spill_dir, tb))
            if sh.startswith("sshard=") and not sh.endswith("=-1"))

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
                        crash_env=f"GRAFT_CRASH_{crash_prefix}"
                                  "_POSTINGS_AFTER")
        mf.commit_stage(out_dir, "postings", input_fp=input_fp,
                        config_fp=cfg_fp,
                        counters={"shuffle_partitions": len(part_dirs),
                                  "resumed_partitions": len(done)})
    shutil.rmtree(spill_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(spill_dir))
    except OSError:
        pass
    return n_docs, sum_dl, avg_dl


def merge_indexes(src_dirs: list[str], out_dir: str) -> dict:
    """Fold the indexes at ``src_dirs`` into one index at ``out_dir``;
    returns the merged manifest.  See the module docstring for
    semantics, cost and preconditions.  Resumable: the dict/postings
    stages commit per partition exactly like ``build_index``."""
    import ray.data

    if len(src_dirs) < 2:
        raise ValueError("merge_indexes needs at least two source indexes")
    mans = [mf.read_manifest(d) for d in src_dirs]
    fps = {m["config_fp"] for m in mans}
    if len(fps) != 1:
        raise ValueError(
            f"source indexes disagree on config fingerprint: {sorted(fps)}")
    cfg = EngineConfig(**mans[0]["config"])
    cfg_fp = mans[0]["config_fp"]
    # merge lineage: the sources' own input fingerprints, order-free
    input_fp = mf.input_fingerprint(sorted(
        os.path.join(d, "manifest.json") for d in src_dirs))

    os.makedirs(out_dir, exist_ok=True)
    docmeta_dir = mf.stage_dir(out_dir, "docmeta")
    counters: dict = {"merged_indexes": len(src_dirs)}

    spill_dir = os.path.join(_spill_base(out_dir), "_merge_spill")

    def _regenerate() -> None:
        B = cfg.term_buckets
        post_files = [f for d in src_dirs for f in sorted(glob.glob(
            os.path.join(mf.stage_dir(d, "postings"), "**", "*.parquet"),
            recursive=True))]
        if post_files:
            (ray.data.read_parquet(post_files, columns=_POSTING_COLS)
             .map_batches(lambda b: _decode_run_rows(b, B),
                          batch_format="pyarrow")
             .write_parquet(spill_dir, partition_cols=["tbucket", "sshard"],
                            compression="none"))
        dict_files = [f for d in src_dirs for f in sorted(glob.glob(
            os.path.join(mf.stage_dir(d, "dict"), "**", "*.parquet"),
            recursive=True))]
        if dict_files:
            (ray.data.read_parquet(
                dict_files, columns=["term", "orig_term", "df", "rewritten"])
             .map_batches(lambda b: _dict_partial_rows(b, B),
                          batch_format="pyarrow")
             .write_parquet(spill_dir, partition_cols=["tbucket", "sshard"],
                            compression="none"))

    if not (mf.stage_complete(out_dir, "dict", input_fp, cfg_fp)
            and mf.stage_complete(out_dir, "postings", input_fp, cfg_fp)):
        _ensure_spill_marker(spill_dir, input_fp, cfg_fp, _regenerate)
    n_docs, sum_dl, avg_dl = _run_phase_b(out_dir, spill_dir, cfg,
                                          input_fp, cfg_fp, "MERGE")
    counters.update(n_docs=n_docs, sum_doc_length=sum_dl,
                    avg_doc_length=avg_dl)

    # ---- docmeta: disjoint doc sets concatenate file-wise — one COPY
    # TASK per file under the stage commit log (file bytes move between
    # workers and storage, never through the driver); the g{i} prefix
    # keeps names collision-free when two generations were built from
    # same-named inputs
    if not mf.stage_complete(out_dir, "docmeta", input_fp, cfg_fp):
        done = mf.committed_parts(out_dir, "docmeta", input_fp, cfg_fp)
        if not done:
            mf.clear_stage(out_dir, "docmeta")
        os.makedirs(docmeta_dir, exist_ok=True)
        for stray in glob.glob(os.path.join(docmeta_dir, "*.tmp-*")):
            os.remove(stray)
        work = []
        n_files = 0
        for i, d in enumerate(src_dirs):
            for f in sorted(glob.glob(
                    os.path.join(mf.stage_dir(d, "docmeta"), "**",
                                 "*.parquet"), recursive=True)):
                name = f"g{i:03d}-{os.path.basename(f)}"
                n_files += 1
                if name not in done:
                    work.append((name, (f, os.path.join(docmeta_dir,
                                                        name))))
        _run_part_tasks(work, _copy_file_task, out_dir=out_dir,
                        stage="docmeta", input_fp=input_fp,
                        config_fp=cfg_fp,
                        crash_env="GRAFT_CRASH_MERGE_DOCMETA_AFTER")
        mf.commit_stage(out_dir, "docmeta", input_fp=input_fp,
                        config_fp=cfg_fp, counters={"files": n_files})

    payload = {
        "version": 1,
        "config": mans[0]["config"],
        "config_fp": cfg_fp,
        "input_fp": input_fp,
        "n_docs": n_docs,
        "sum_doc_length": sum_dl,
        "avg_doc_length": avg_dl,
        "counters": counters,
    }
    mf.write_manifest(out_dir, payload)
    return payload


def _filtered_run_rows(batch: pa.Table, del_ids: np.ndarray,
                       term_buckets: int) -> pa.Table:
    """Posting rows -> SPIMI-run rows with the deleted docs' postings
    masked out, plus a df partial per surviving row (df must be
    recomputed: it equals the surviving posting count).  Fully
    vectorized: one flat decode per stream, one boolean mask, one flat
    re-encode, then per-row byte slicing on the offset arrays."""
    from search_engine_ray.index.encoding import varbyte_decode, varbyte_encode

    n = batch.column("n").to_numpy()
    rows = len(n)
    total = int(n.sum())
    ids, starts = _rebase_docids(n, batch.column("docids_vb").to_pylist())
    keep = ~np.isin(ids, del_ids)
    new_n = np.add.reduceat(keep, starts) if rows else np.zeros(0, np.int64)
    new_n = new_n.astype(np.int64)

    tfs = varbyte_decode(b"".join(batch.column("tf_vb").to_pylist()),
                         count=total)
    streams = {}
    for name in ("dl_vb", "mtf_vb"):
        streams[name] = varbyte_decode(
            b"".join(batch.column(name).to_pylist()), count=total)
    enc = {"tfs": varbyte_encode(tfs[keep]),
           "dls": varbyte_encode(streams["dl_vb"][keep]),
           "mtfs": varbyte_encode(streams["mtf_vb"][keep])}
    ids_kept = ids[keep]
    nstarts = np.concatenate(([0], np.cumsum(new_n)[:-1])).astype(np.int64)
    nends = nstarts + new_n

    pos_blobs = batch.column("pos_vb").to_pylist()
    has_pos = any(b for b in pos_blobs)
    if has_pos:
        # per-posting position sublists: posting i holds tfs[i] values
        pos_flat = varbyte_decode(b"".join(pos_blobs), count=int(tfs.sum()))
        pkeep = np.repeat(keep, tfs)
        pos_buf, pos_off = varbyte_encode(pos_flat[pkeep])
        kept_ptf = (np.add.reduceat(np.where(keep, tfs, 0), starts)
                    if rows else np.zeros(0, np.int64))
        pstarts = np.concatenate(
            ([0], np.cumsum(kept_ptf)[:-1])).astype(np.int64)
        pends = pstarts + kept_ptf

    alive = new_n > 0
    origs = np.asarray(batch.column("orig").to_pylist(), object)[alive]
    a_idx = np.flatnonzero(alive)
    docids = [ids_kept[nstarts[i]:nends[i]].tobytes() for i in a_idx]

    def slice_stream(key):
        buf, off = enc[key]
        return [bytes(buf[off[nstarts[i]]:off[nends[i]]]) for i in a_idx]

    if has_pos:
        poss = [bytes(pos_buf[pos_off[pstarts[i]]:pos_off[pends[i]]])
                for i in a_idx]
    else:
        poss = [b""] * len(a_idx)
    k = len(a_idx)
    runs = pa.table({
        "tbucket": _bucket_array(list(origs), term_buckets),
        "sshard": batch.column("shard").take(
            pa.array(a_idx, pa.int64())).cast(pa.int32()),
        "term": pa.array(list(origs), pa.string()),
        "n": pa.array(new_n[alive], pa.int64()),
        "docids": pa.array(docids, pa.binary()),
        "tfs": pa.array(slice_stream("tfs"), pa.binary()),
        "dls": pa.array(slice_stream("dls"), pa.binary()),
        "mtfs": pa.array(slice_stream("mtfs"), pa.binary()),
        "poss": pa.array(poss, pa.binary()),
        "df_part": pa.nulls(k, pa.int64()),
        "caps_part": pa.nulls(k, pa.int8()),
        "ent_part": pa.nulls(k, pa.int64()),
    }).cast(RUN_SCHEMA)
    # df partials: surviving posting count per row (summed per orig term
    # by the dict reduce — each posting is one doc)
    dfp = dict_rows(runs.column("term"), term_buckets, df=new_n[alive])
    return pa.concat_tables([runs, dfp])


def _caps_partial_rows(batch: pa.Table, term_buckets: int) -> pa.Table:
    """Dict rows -> caps-only partials (df comes from the surviving
    postings; reserved stats rows are re-derived from docmeta), for the
    delete path."""
    import pyarrow.compute as pc

    batch = batch.filter(pc.invert(pc.starts_with(batch.column("orig_term"),
                                                  "\x01")))
    return dict_rows(batch.column("orig_term"), term_buckets,
                     caps=batch.column("rewritten"))


def _copy_file_task(src_f: str, dst_f: str) -> dict:
    """Copy ONE docmeta partition file (atomic temp + rename)."""
    import uuid

    tmp = dst_f + f".tmp-{uuid.uuid4().hex[:8]}"
    shutil.copy2(src_f, tmp)
    os.replace(tmp, dst_f)
    return {"bytes": os.path.getsize(dst_f)}


def _filter_docmeta_file(src_f: str, dst_f: str,
                         del_ids: np.ndarray) -> dict:
    """Filter ONE docmeta partition file, dropping the deleted doc
    ids; atomic write (temp + rename) under the stage commit log."""
    import uuid

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(src_f)
    t = t.filter(pc.invert(pc.is_in(
        t.column("doc_id"), value_set=pa.array(del_ids, pa.int64()))))
    tmp = dst_f + f".tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(t, tmp, row_group_size=256)
    os.replace(tmp, dst_f)
    return {"rows": t.num_rows}


def delete_docs(src_dir: str, doc_ids, out_dir: str) -> dict:
    """A new index at ``out_dir`` equal to ``src_dir`` with the given
    (hashed engine) doc ids REMOVED — the takedown / right-to-be-
    forgotten path, without re-parsing the surviving corpus and without
    tombstones at query time.

    Postings stream through the same spill + reduce as a build, with
    the deleted docs' rows masked out vectorized; per-term df is
    recomputed from the surviving postings (the df==1 prune re-applies
    to the new df when the config asks for it); corpus stats
    (n_docs / sum_dl, which set every BM25 length norm) come from
    the filtered docmeta.  Boundary (documented like the merge's): the
    capitals UPPER-verdict keeps the ORIGINAL corpus's decision — the
    caps flags of deleted docs are not un-counted (same class as
    Lucene-style deletes, which never re-run analysis)."""
    import hashlib

    import pyarrow.parquet as pq
    import ray.data

    man = mf.read_manifest(src_dir)
    cfg = EngineConfig(**man["config"])
    cfg_fp = man["config_fp"]
    del_ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    input_fp = (mf.input_fingerprint([os.path.join(src_dir,
                                                   "manifest.json")])
                + "-del-"
                + hashlib.blake2b(del_ids.tobytes(),
                                  digest_size=8).hexdigest())

    os.makedirs(out_dir, exist_ok=True)
    docmeta_dir = mf.stage_dir(out_dir, "docmeta")
    counters: dict = {"deleted_ids": int(len(del_ids))}

    # ---- docmeta first: the filtered copy also yields the new corpus
    # stats that must ride the dict shuffle as reserved rows.  One
    # DISTRIBUTED task per source file (same commit-log resume as every
    # other stage); the driver never holds a docmeta table — at crawl
    # scale docmeta is corpus-sized (ids + glove per doc).
    if not mf.stage_complete(out_dir, "docmeta", input_fp, cfg_fp):
        done = mf.committed_parts(out_dir, "docmeta", input_fp, cfg_fp)
        if not done:
            mf.clear_stage(out_dir, "docmeta")
        os.makedirs(docmeta_dir, exist_ok=True)
        for stray in glob.glob(os.path.join(docmeta_dir, "*.tmp-*")):
            os.remove(stray)
        src_files = sorted(glob.glob(
            os.path.join(mf.stage_dir(src_dir, "docmeta"), "**",
                         "*.parquet"), recursive=True))
        work = [(os.path.basename(f),
                 (f, os.path.join(docmeta_dir, os.path.basename(f)),
                  del_ids))
                for f in src_files if os.path.basename(f) not in done]
        _run_part_tasks(work, _filter_docmeta_file, out_dir=out_dir,
                        stage="docmeta", input_fp=input_fp,
                        config_fp=cfg_fp,
                        crash_env="GRAFT_CRASH_DELETE_DOCMETA_AFTER")
        mf.commit_stage(out_dir, "docmeta", input_fp=input_fp,
                        config_fp=cfg_fp,
                        counters={"files": len(src_files)})
    # new corpus stats as a DISTRIBUTED aggregate over the filtered
    # docmeta (scalars reach the driver, never the rows)
    out_files = sorted(glob.glob(os.path.join(docmeta_dir, "*.parquet")))
    if out_files:
        dl = ray.data.read_parquet(out_files, columns=["doc_length"])
        n_docs = int(dl.count())
        sum_dl = int(dl.sum("doc_length") or 0)
    else:
        n_docs, sum_dl = 0, 0

    spill_dir = os.path.join(_spill_base(out_dir), "_delete_spill")

    def _regenerate() -> None:
        B = cfg.term_buckets
        post_files = sorted(glob.glob(
            os.path.join(mf.stage_dir(src_dir, "postings"), "**",
                         "*.parquet"), recursive=True))
        if post_files:
            (ray.data.read_parquet(post_files, columns=_POSTING_COLS)
             .map_batches(
                 lambda b: _filtered_run_rows(b, del_ids, B),
                 batch_format="pyarrow")
             .write_parquet(spill_dir,
                            partition_cols=["tbucket", "sshard"],
                            compression="none"))
        dict_files = sorted(glob.glob(
            os.path.join(mf.stage_dir(src_dir, "dict"), "**",
                         "*.parquet"), recursive=True))
        if dict_files:
            (ray.data.read_parquet(
                dict_files,
                columns=["term", "orig_term", "df", "rewritten"])
             .map_batches(lambda b: _caps_partial_rows(b, B),
                          batch_format="pyarrow")
             .write_parquet(spill_dir,
                            partition_cols=["tbucket", "sshard"],
                            compression="none"))
        # re-derived corpus stats ride the dict shuffle like any
        # other reserved row (written into their keys' buckets)
        for name, key, val in (("ndocs", NDOCS_KEY, n_docs),
                               ("sumdl", SUMDL_KEY, sum_dl)):
            tb = int(_bucket_array([key], B)[0].as_py())
            d = os.path.join(spill_dir, f"tbucket={tb}", "sshard=-1")
            os.makedirs(d, exist_ok=True)
            pq.write_table(pa.table({
                "term": pa.array([key], pa.string()),
                "df_part": pa.array([val], pa.int64()),
                "caps_part": pa.nulls(1, pa.int8()),
                "ent_part": pa.nulls(1, pa.int64()),
            }), os.path.join(d, f"stats-{name}.parquet"))

    if not (mf.stage_complete(out_dir, "dict", input_fp, cfg_fp)
            and mf.stage_complete(out_dir, "postings", input_fp, cfg_fp)):
        _ensure_spill_marker(spill_dir, input_fp, cfg_fp, _regenerate)

    n2, s2, avg_dl = _run_phase_b(out_dir, spill_dir, cfg, input_fp,
                                  cfg_fp, "DELETE")
    assert (n2, s2) == (n_docs, sum_dl), "stats rows diverged from docmeta"
    counters.update(n_docs=n_docs, sum_doc_length=sum_dl,
                    avg_doc_length=avg_dl)
    payload = {
        "version": 1,
        "config": man["config"],
        "config_fp": cfg_fp,
        "input_fp": input_fp,
        "n_docs": n_docs,
        "sum_doc_length": sum_dl,
        "avg_doc_length": avg_dl,
        "counters": counters,
    }
    mf.write_manifest(out_dir, payload)
    return payload
