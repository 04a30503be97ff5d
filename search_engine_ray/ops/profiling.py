"""Table utilities every production engine ships: column profiling and
snapshot diffing (CDC), both as single-shuffle Dataset pipelines.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

_PROFILE_COLS = ("event_id", "user_id", "event_type", "value")


def dataset_profile(sf_dir: str, table: str = "events",
                    columns=_PROFILE_COLS):
    """Per-column profile of a table: row count, null count, exact
    distinct count — the schema-discovery step before any pipeline
    touches unfamiliar data.

    Plan: ONE scan emits, per column, a per-batch partial (rows, nulls)
    row plus the batch's DISTINCT canonical values keyed (column,
    value); one bucket shuffle then counts uniques per column
    vectorized and a driver-side merge of the two tiny aggregates
    finishes.  Canonical value encoding is exact (float64 hex, int
    repr), so the distinct count is the true one, not a sketch — use
    ``hll_distinct`` when an estimate is enough."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum

    path = os.path.join(sf_dir, f"{table}.parquet")
    columns = list(columns)

    def canon(col: pa.ChunkedArray | pa.Array) -> list:
        vals = col.to_pylist()
        out = []
        for v in vals:
            if v is None:
                continue
            if isinstance(v, float):
                # +0.0 so -0.0 canonicalizes to +0.0 — SQL's DISTINCT
                # treats them equal and so must we
                out.append(np.float64(v + 0.0).hex())
            else:
                out.append(str(v))
        return out

    def prep(batch: pa.Table) -> pa.Table:
        cols, kinds, vals, ns = [], [], [], []
        for c in columns:
            arr = batch.column(c)
            # partial (rows, nulls) as two tagged count rows
            cols.extend([c, c])
            kinds.extend(["rows", "nulls"])
            vals.extend(["", ""])
            ns.extend([batch.num_rows, arr.null_count])
            for v in set(canon(arr)):
                cols.append(c)
                kinds.append("val")
                vals.append(v)
                ns.append(1)
        return pa.table({
            "col_name": pa.array(cols, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "v": pa.array(vals, pa.string()),
            "n": pa.array(np.asarray(ns, dtype=np.int64))})

    rows = (ray.data.read_parquet(path, columns=columns)
            .map_batches(prep, batch_format="pyarrow"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        counts = (g[g["kind"] != "val"]
                  .groupby(["col_name", "kind"], sort=False)["n"].sum()
                  .reset_index())
        dv = g[g["kind"] == "val"].drop_duplicates(["col_name", "v"])
        dvc = (dv.groupby("col_name", sort=False).size()
               .rename("n").reset_index())
        dvc["kind"] = "distinct"
        out = pd.concat([counts, dvc[["col_name", "kind", "n"]]],
                        ignore_index=True)
        out["n"] = out["n"].astype("int64")
        return out

    # (col, v) pairs co-locate because v="" for the count rows rides
    # the same key space; per-bucket dedup is exact since the shuffle
    # key includes v
    agg = (bucketed_apply(rows, ["col_name", "v"], per_bucket)
           .to_pandas())  # <= 3 rows per column — dimension-sized
    piv = (agg.groupby(["col_name", "kind"])["n"].sum().unstack()
           .fillna(0).astype("int64"))
    # degenerate inputs (empty table, all-null columns) drop whole
    # kinds from the pivot — reindex both axes so they report zeros
    piv = piv.reindex(index=columns,
                      columns=["rows", "nulls", "distinct"], fill_value=0)
    return pa.table({
        "col_name": pa.array(list(piv.index), pa.string()),
        "n_rows": pa.array(piv["rows"].to_numpy(), pa.int64()),
        "n_null": pa.array(piv["nulls"].to_numpy(), pa.int64()),
        "n_distinct": pa.array(piv["distinct"].to_numpy(), pa.int64())})


def snapshot_diff(sf_dir: str):
    """CDC-style diff of two corpus snapshots (added / removed /
    changed doc ids).  The "new" snapshot is derived deterministically
    from the documents table so the op is oracle-checkable: docs with
    ``doc_id % 13 == 0`` are deleted, ``% 7 == 0`` have edited text,
    and ``% 11 == 0`` are re-inserted under ``doc_id + 1_000_000``.

    Plan: both snapshots reduce to (doc_id, content-hash) rows in the
    scan, and ONE tagged-union doc_id shuffle compares sides per
    bucket — the textbook two-snapshot reconciliation, no driver sets.
    At 100 TB the same shape holds because only ids + 32-byte hashes
    ride the shuffle, never text."""
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    path = os.path.join(sf_dir, "documents.parquet")

    def _h(t: str) -> str:
        return hashlib.md5(t.encode("utf-8")).hexdigest()

    def both_sides(batch: pa.Table) -> pa.Table:
        """ONE scan emits the old snapshot's rows AND the synthetic new
        snapshot's: each doc's text is md5'd once and the digest reused
        on every side that carries it unchanged (two separate branch
        scans would read the parquet and hash every unedited doc
        twice)."""
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_id, out_h, out_side = [], [], []
        for i, t in zip(ids, texts):
            h = _h(t)
            out_id.append(int(i))
            out_h.append(h)
            out_side.append(0)
            if i % 13 != 0:
                out_id.append(int(i))
                out_h.append(_h(t + " v2") if i % 7 == 0 else h)
                out_side.append(1)
            if i % 11 == 0:
                out_id.append(int(i) + 1_000_000)
                out_h.append(h)
                out_side.append(1)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "h": pa.array(out_h, pa.string()),
            "side": pa.array(np.array(out_side, dtype=np.int8))})

    union = (ray.data.read_parquet(path, columns=["doc_id", "text"])
             .map_batches(both_sides, batch_format="pyarrow"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        o = g.loc[g["side"] == 0, ["doc_id", "h"]]
        n = g.loc[g["side"] == 1, ["doc_id", "h"]]
        m = o.merge(n, on="doc_id", how="outer",
                    suffixes=("_o", "_n"), indicator=True)
        status = np.where(m["_merge"] == "right_only", "added",
                          np.where(m["_merge"] == "left_only", "removed",
                                   "changed"))
        keep = (m["_merge"] != "both") | (m["h_o"] != m["h_n"])
        out = pd.DataFrame({
            "doc_id": m["doc_id"].to_numpy(dtype=np.int64)[
                keep.to_numpy()],
            "status": status[keep.to_numpy()]})
        return out

    return bucketed_apply(union, ["doc_id"], per_bucket)


def compact_parquet(src_dir: str, dst_dir: str,
                    target_rows_per_file: int = 250_000):
    """Small-files compaction: rewrite a parquet dataset into files of
    ~``target_rows_per_file`` rows (the maintenance op that keeps a
    landing zone readable after many small incremental writes).

    Plan: a streaming read + ``repartition`` sized from the dataset's
    OWN metadata row count (no data pass to count), then a parquet
    write — Ray's repartition is the only shuffle and it moves each row
    once.  Returns (n_files_in, n_files_out, n_rows); content equality
    is the caller's/test's check."""
    import glob

    import pyarrow.dataset as pads
    import ray.data

    # '**' with recursive=True also matches top-level files
    files_in = glob.glob(os.path.join(src_dir, "**", "*.parquet"),
                         recursive=True)
    # ONE dataset over the whole file list: footer-metadata count with
    # batched IO, not a per-file discovery loop on the driver
    n_rows = pads.dataset(files_in).count_rows()
    n_out = max(1, -(-n_rows // target_rows_per_file))
    ds = ray.data.read_parquet(src_dir)
    ds.repartition(n_out).write_parquet(dst_dir)
    files_out = glob.glob(os.path.join(dst_dir, "**", "*.parquet"),
                          recursive=True)
    return pa.table({
        "n_files_in": pa.array([len(files_in)], pa.int64()),
        "n_files_out": pa.array([len(files_out)], pa.int64()),
        "n_rows": pa.array([n_rows], pa.int64())})


def index_storage_profile(index_dir: str):
    """Per-TBUCKET storage profile of a built inverted index — the
    observability surface for the build's central partitioning
    assumption (term-hash buckets x doc shards bound reducer volume and
    head-term skew; see index/build.py module docstring).  One row per
    tbucket: posting SEGMENTS (term x doc-shard rows), total postings,
    bytes per varbyte stream family (docids / per-posting tf, doc
    length and max-tf stats / positions), and the docid compression ratio
    ``cr_docids_e4 = floor(docids_bytes * 1e4 / (8 * postings))``
    (varbyte+delta vs raw int64, e4 fixed-point).  A skewed tbucket —
    postings far above the mean — is the signal to raise term_buckets
    or re-salt before it becomes a straggler at cluster scale.

    Plan: one columns-pruned scan of the postings parquet (hive tbucket
    rides along), per-batch vectorized reduceat partials, then ONE
    Ray-native groupby over the tbucket-bounded key domain (= the
    partition grid width, never corpus-scaled)."""
    import ray.data
    from ray.data.aggregate import Sum

    import pyarrow.compute as pc

    stats_cols = ("tf_vb", "dl_vb", "mtf_vb")
    need = ["n", "docids_vb", "pos_vb", *stats_cols]

    ds = ray.data.read_parquet(os.path.join(index_dir, "postings"),
                               columns=need + ["tbucket"])

    out_fields = [("tbucket", pa.int64()), ("segments", pa.int64()),
                  ("postings", pa.int64()), ("docids_bytes", pa.int64()),
                  ("stats_bytes", pa.int64()),
                  ("pos_bytes", pa.int64())]

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({nm: pa.array([], type=t)
                             for nm, t in out_fields})
        tb = batch.column("tbucket").to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = batch.column("n").to_numpy().astype(np.int64)

        def blen(c: str) -> np.ndarray:
            return pc.binary_length(batch.column(c)).to_numpy().astype(
                np.int64)

        dby = blen("docids_vb")
        sby = np.zeros(len(tb), dtype=np.int64)
        for c in stats_cols:
            sby += blen(c)
        pby = blen("pos_vb")
        order = np.argsort(tb, kind="stable")
        tb_o = tb[order]
        starts = np.flatnonzero(
            np.concatenate([[True], tb_o[1:] != tb_o[:-1]]))
        red = lambda a: np.add.reduceat(a[order], starts)  # noqa: E731
        return pa.table({
            "tbucket": pa.array(tb_o[starts], pa.int64()),
            "segments": pa.array(np.diff(
                np.append(starts, len(tb_o))).astype(np.int64)),
            "postings": pa.array(red(n), pa.int64()),
            "docids_bytes": pa.array(red(dby), pa.int64()),
            "stats_bytes": pa.array(red(sby), pa.int64()),
            "pos_bytes": pa.array(red(pby), pa.int64())})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("tbucket")
           .aggregate(Sum("segments", alias_name="segments"),
                      Sum("postings", alias_name="postings"),
                      Sum("docids_bytes", alias_name="docids_bytes"),
                      Sum("stats_bytes", alias_name="stats_bytes"),
                      Sum("pos_bytes", alias_name="pos_bytes")))

    def finish(batch: pa.Table) -> pa.Table:
        p = batch.column("postings").to_numpy().astype(np.int64)
        d = batch.column("docids_bytes").to_numpy().astype(np.int64)
        cr = np.zeros(len(p), dtype=np.int64)
        nz = p > 0
        cr[nz] = d[nz] * 10000 // (8 * p[nz])
        return batch.append_column("cr_docids_e4", pa.array(cr, pa.int64()))

    return agg.map_batches(finish, batch_format="pyarrow")
