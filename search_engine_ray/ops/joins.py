"""Temporal join operators over the `events` table — as-of join and
range (band) join, the two joins a batch engine has to hand-roll.

Ray Data ships no as-of/range join; both are expressed the standard
batch-engine way: filter both sides from ONE pruned read, tag the side,
co-partition by the equality key with ``groupby(user_id)``, and resolve
the temporal predicate inside ``map_groups`` with sorted-array
``searchsorted`` — no all-pairs work, no driver materialization.

Partitioning assumption (same as :func:`~search_engine_ray.ops.events.
sessionize`): one group per user_id must fit a worker; a bot-heavy key
is the caveat.  At cluster scale the groupby is a single hash shuffle of
the two (already column-pruned, type-filtered) sides, and every group is
independent.

Reference has no join of this kind (SURVEY §2.4 covers only small-side
dict lookups); these are part of the added training-data surface
(SURVEY §2.11).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

def _two_sided(sf_dir: str, left_type: str, right_type: str,
               with_value: bool = False):
    """One pruned read of `events`, filtered to the two sides with a
    `side` tag (0 = right/build, 1 = left/probe) added vectorized.
    ``value`` is read and shuffled only when the join consumes it
    (asof's build side) — the range join never touches it, and dragging
    a dead float64 column through the groupby doubles nothing but
    shuffle volume."""
    import ray.data

    def tag(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        keep_l = pc.equal(et, left_type)
        keep_r = pc.equal(et, right_type)
        batch = batch.filter(pc.or_(keep_l, keep_r))
        side = pc.cast(pc.equal(batch.column("event_type"), left_type),
                       pa.int8())
        return (batch.drop_columns(["event_type"])
                     .append_column("side", side))

    cols = ["event_id", "ts", "user_id", "event_type"]
    if with_value:
        cols.append("value")
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=cols)
    return ds.map_batches(tag, batch_format="pyarrow")


def asof_join_last_value(sf_dir: str, left_type: str = "click",
                         right_type: str = "purchase"):
    """AS-OF JOIN: for every `left_type` event, the value and time of the
    same user's most recent `right_type` event with ``r.ts <= l.ts``
    (ties on ts broken by highest event_id, so the result is
    deterministic where ASOF alone would be ambiguous).

    Unmatched lefts keep ``last_value = -1.0, last_ts_us = -1`` (encoded
    sentinels rather than NULLs so the value-hash is canonical).

    Output: (event_id, user_id, ts_us, last_value_e4, last_ts_us).
    SQL: correlated ORDER BY ts DESC, event_id DESC LIMIT 1 subquery —
    equivalent to DuckDB's ASOF LEFT JOIN plus the explicit tie-break.
    """

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64").to_numpy()
        side = g["side"].to_numpy()
        eid = g["event_id"].to_numpy()
        l_mask = side == 1
        lt, le = ts[l_mask], eid[l_mask]
        if not l_mask.any():
            return pd.DataFrame({
                "event_id": np.empty(0, np.int64),
                "user_id": np.empty(0, np.int64),
                "ts_us": np.empty(0, np.int64),
                "last_value_e4": np.empty(0, np.int64),
                "last_ts_us": np.empty(0, np.int64)})
        rt = ts[~l_mask]
        rv = g["value"].to_numpy()[~l_mask]
        re_ = eid[~l_mask]
        # sort right by (ts, event_id): searchsorted 'right' then lands on
        # the max-(ts, event_id) row among those with ts <= l.ts
        order = np.lexsort((re_, rt))
        rt, rv = rt[order], rv[order]
        if rt.size:
            idx = np.searchsorted(rt, lt, side="right") - 1
            found = idx >= 0
            safe = np.clip(idx, 0, None)
            lv, lts = rv[safe], rt[safe]
        else:
            found = np.zeros(len(lt), dtype=bool)
            lv = np.zeros(len(lt))
            lts = np.zeros(len(lt), dtype=np.int64)
        # matched value exported as a 1e-4-scaled round-half-away integer
        # (canonical hash on both sides, the q_tumbling convention);
        # sentinel -1 only where UNMATCHED — gated on found, not sign
        from search_engine_ray.ops.rounding import round_half_away

        lv_e4 = np.where(found, round_half_away(lv * 1e4), -1).astype(np.int64)
        lts = np.where(found, lts, -1)
        return pd.DataFrame({
            "event_id": le, "user_id": g["user_id"].iloc[0],
            "ts_us": lt, "last_value_e4": lv_e4, "last_ts_us": lts})

    ds = _two_sided(sf_dir, left_type, right_type, with_value=True)
    from search_engine_ray.ops.shuffle import grouped_apply

    return grouped_apply(ds, ["user_id"], per_user)


def range_join_counts(sf_dir: str, left_type: str = "purchase",
                      right_type: str = "click", window_s: int = 86400):
    """RANGE (band) JOIN: for every `left_type` event, how many
    `right_type` events the same user produced in the closed window
    ``[l.ts - window_s, l.ts]``.

    Per group the band predicate is two ``searchsorted`` probes on the
    ts-sorted right side — O((|L|+|R|) log |R|), never all-pairs.

    Output: (event_id, user_id, ts_us, n_right_in_window).
    SQL: inequality LEFT JOIN + GROUP BY.
    """

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        ts = g["ts"].astype("int64").to_numpy()  # microseconds
        side = g["side"].to_numpy()
        eid = g["event_id"].to_numpy()
        l_mask = side == 1
        lt, le = ts[l_mask], eid[l_mask]
        if not l_mask.any():
            return pd.DataFrame({
                "event_id": np.empty(0, np.int64),
                "user_id": np.empty(0, np.int64),
                "ts_us": np.empty(0, np.int64),
                "n_right_in_window": np.empty(0, np.int64)})
        rt = np.sort(ts[~l_mask])
        lo = np.searchsorted(rt, lt - window_s * 1_000_000, side="left")
        hi = np.searchsorted(rt, lt, side="right")
        return pd.DataFrame({
            "event_id": le, "user_id": g["user_id"].iloc[0],
            "ts_us": lt, "n_right_in_window": (hi - lo).astype(np.int64)})

    ds = _two_sided(sf_dir, left_type, right_type)
    from search_engine_ray.ops.shuffle import grouped_apply

    return grouped_apply(ds, ["user_id"], per_user)
