"""Batch query mode + query-set I/O.

Reference analogues: ``handle_queries`` reads one query per non-empty
line (/root/reference/search_engine.py:121-132); ``write_to_csv`` dumps
(query, tweet_id, score) rows (/root/reference/search_engine.py:115-118).

``search_many`` runs a query set against the distributed shard-actor
engine with all per-query fan-outs in flight at once (pipeline
parallelism across queries as well as shards): every query goes to
every actor as the same ``search`` call, and each query's shard top-ks
merge with the reference tie-break.  ``BatchQueryPool`` partitions the
queries instead, each worker holding one unrestricted engine.
"""

from __future__ import annotations

import pyarrow as pa

import ray

from search_engine_ray.query.distributed import merge_ranked


def read_queries_file(path: str) -> list[str]:
    """One query per non-empty line (search_engine.py:126-132; like the
    reference, the line is NOT stripped — the tokenizer handles it)."""
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line != "\n":
                out.append(line)
    return out


def search_many(dist_engine, queries: list[str], k: int = 10,
                mode: str = "bm25") -> pa.Table:
    """All queries x all shard actors submitted before any result is
    awaited; returns (query_id, rank, doc_id, score, warc_ts) with rank 1
    = best."""
    futures = [[a.search.remote(q, k, mode) for a in dist_engine.actors]
               for q in queries]
    rows = {"query_id": [], "rank": [], "doc_id": [], "score": [],
            "warc_ts": []}
    for qi, futs in enumerate(futures):
        top = merge_ranked(ray.get(futs), k)
        for rank, (score, doc_id, ts) in enumerate(reversed(top), start=1):
            rows["query_id"].append(qi)
            rows["rank"].append(rank)
            rows["doc_id"].append(doc_id)
            rows["score"].append(score)
            rows["warc_ts"].append(ts)
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "doc_id": pa.array(rows["doc_id"], pa.int64()),
        "score": pa.array(rows["score"], pa.float64()),
        "warc_ts": pa.array(rows["warc_ts"], pa.int64()),
    })


class _EngineWorker:
    """Actor-pool UDF: one full in-process SearchEngine per worker, each
    serving a disjoint query partition (state built once, ST5)."""

    def __init__(self, index_dir: str, k: int, mode: str):
        from search_engine_ray.query.engine import SearchEngine

        self.eng = SearchEngine(index_dir)
        self.k = k
        self.mode = mode

    def __call__(self, batch: pa.Table, opts: dict | None = None
                 ) -> pa.Table:
        """``opts`` forwards the engine's serving options per run
        (fuzzy / ts_range / boosts / synonyms / phrases, or
        ``{"tier": m}`` to serve via champion-list tiered retrieval) —
        results stay identical to the in-process engine per query."""
        o = dict(opts or {})
        tier = o.pop("tier", None)
        if tier is not None and self.mode != "bm25":
            # champion-list tiers are a BM25 retrieval strategy
            raise ValueError(
                f"tier serves only mode='bm25', not {self.mode!r}")
        if tier is not None and set(o) - {"fuzzy"}:
            raise ValueError(
                "tier composes only with fuzzy; other serving options "
                f"would be silently dropped: {sorted(set(o) - {'fuzzy'})}")
        rows = {"query_id": [], "rank": [], "doc_id": [], "score": [],
                "warc_ts": []}
        for qid, text in zip(batch.column("query_id").to_pylist(),
                             batch.column("text").to_pylist()):
            if tier is not None:
                res = self.eng.search_tiered(
                    text, k=self.k, m=tier,
                    fuzzy=o.get("fuzzy", False))
            else:
                res = self.eng.search(text, k=self.k, mode=self.mode,
                                      **o)
            for rank, (score, doc_id, ts) in enumerate(reversed(res),
                                                       start=1):
                rows["query_id"].append(qid)
                rows["rank"].append(rank)
                rows["doc_id"].append(doc_id)
                rows["score"].append(score)
                rows["warc_ts"].append(ts)
        return pa.table({
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
            "doc_id": pa.array(rows["doc_id"], pa.int64()),
            "score": pa.array(rows["score"], pa.float64()),
            "warc_ts": pa.array(rows["warc_ts"], pa.int64()),
        })


class BatchQueryPool:
    """Persistent query-partitioned serving pool: N actors, each holding
    a full in-process engine, serving disjoint query slices across calls
    (warm dictionaries/posting caches survive between batches — a Dataset
    actor pool dies with each execution, so this drops to raw actors).

    Scale shape: right when a worker can hold the dictionary + docmeta
    (posting reads stay lazy and bucket-pruned); when the index outgrows
    one worker, use the doc-sharded ``search_many`` fan-out path instead.
    Results are identical to the in-process engine per query."""

    def __init__(self, index_dir: str, num_workers: int = 4,
                 k: int = 10, mode: str = "bm25"):
        from search_engine_ray.query.engine import warm_docmeta_sidecar

        # one sidecar build on the driver; workers then mmap shared pages
        warm_docmeta_sidecar(index_dir, with_glove=(mode == "reference"))
        worker = ray.remote(num_cpus=1)(_EngineWorker)
        self.actors = [worker.remote(index_dir, k, mode)
                       for _ in range(num_workers)]

    def run(self, queries: list[str], **opts) -> pa.Table:
        """``opts``: the engine's serving options (fuzzy / ts_range /
        boosts / synonyms / phrases) or ``tier=m`` for champion-list
        tiered serving — shipped once per worker call, applied to every
        query in the batch."""
        n = len(self.actors)
        futures = []
        for w in range(n):
            qids = list(range(w, len(queries), n))
            if not qids:
                continue
            batch = pa.table({
                "query_id": pa.array(qids, pa.int64()),
                "text": pa.array([queries[i] for i in qids], pa.string()),
            })
            futures.append(self.actors[w].__call__.remote(
                batch, opts or None))
        if not futures:  # empty query list -> typed empty result
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
                "warc_ts": pa.array([], pa.int64())})
        return pa.concat_tables(ray.get(futures))

    def shutdown(self) -> None:
        """Release the worker actors (and their engine memory) now rather
        than at interpreter exit — lets a caller measure two pool sizes
        back to back without double-holding every engine."""
        import ray as _ray

        for a in self.actors:
            _ray.kill(a)
        self.actors = []


def search_many_partitioned(index_dir: str, queries: list[str],
                            k: int = 10, mode: str = "bm25",
                            concurrency: int = 4) -> pa.Table:
    """One-shot wrapper around BatchQueryPool."""
    return BatchQueryPool(index_dir, concurrency, k, mode).run(queries)


def write_results_csv(results: pa.Table, path: str) -> str:
    """Results -> CSV (reference write_to_csv, search_engine.py:115-118)."""
    import pyarrow.csv as pacsv

    pacsv.write_csv(results, path)
    return path
