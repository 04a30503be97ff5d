"""Similarity search over the `embeddings` table (vec_id, embedding
list<float>, label).

- ``knn_brute``: exact top-k cosine — per-batch numpy matmul against a
  broadcast query matrix (``ray.put`` once, read per task), partial
  top-k per batch, final merge on the tiny union.  No shuffle.
- ``knn_ivf``: the scale path — deterministic coarse centroids (seeded
  kmeans-lite), inverted lists per centroid, query probes the nprobe
  nearest centroids only.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from search_engine_ray.ops.rounding import round_half_away


def _read_embeddings(sf_dir: str):
    import ray.data

    # every consumer needs only (vec_id, embedding); label_centroid_sums
    # does its own pruned read with `label` — keep the shared scan pruned
    # so extra columns on a real embeddings table never leave storage
    return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                                 columns=["vec_id", "embedding"])


def _merge_topk(parts, value_col: str, ascending: bool, k: int) -> pa.Table:
    """Driver-side per-query merge of per-batch partial top-k rows:
    rank 1..k by (value, vec_id) — shared by every kNN variant so the
    tie-break lives in ONE place."""
    rows = {"query_id": [], "rank": [], "vec_id": [], value_col: []}
    for qid, g in parts.groupby("query_id"):
        g = g.sort_values([value_col, "vec_id"],
                          ascending=[ascending, True]).head(k)
        rows["query_id"].extend([int(qid)] * len(g))
        rows["rank"].extend(range(1, len(g) + 1))
        rows["vec_id"].extend(g["vec_id"].tolist())
        rows[value_col].extend(g[value_col].tolist())
    return pa.table({
        "query_id": pa.array(rows["query_id"], pa.int64()),
        "rank": pa.array(rows["rank"], pa.int64()),
        "vec_id": pa.array(rows["vec_id"], pa.int64()),
        value_col: pa.array(rows[value_col], pa.float64())})


def _topk_ties_by_id(values: np.ndarray, ids: np.ndarray, kk: int,
                     ascending: bool) -> np.ndarray:
    """Indices of the ``kk`` best values with boundary ties resolved by
    smallest id — the same (value, vec_id) rank _merge_topk applies, so
    a per-batch partial can never drop a row the global top-k needs
    (plain argpartition keeps an ARBITRARY subset of equal values, which
    matters exactly when embeddings are duplicated)."""
    if kk >= len(values):
        return np.arange(len(values))
    key = values if ascending else -values
    part = np.argpartition(key, kk - 1)[:kk]
    thresh = key[part].max()  # worst kept value
    strict = np.flatnonzero(key < thresh)
    ties = np.flatnonzero(key == thresh)
    need = kk - len(strict)
    ties = ties[np.argsort(ids[ties], kind="stable")[:need]]
    return np.concatenate([strict, ties])


def knn_brute(sf_dir: str, query_vec_ids=(0, 1, 2), k: int = 10):
    """Exact cosine top-k per query vector; returns
    (query_id, rank, vec_id, cosine) with rank 1..k by (cos desc, vec_id).

    SQL-equivalent via DuckDB list_cosine_similarity (values rounded to
    1e-6 on both sides by the caller's oracle query)."""
    import ray

    import pyarrow.dataset as pads

    qt = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        filter=pads.field("vec_id").isin(list(query_vec_ids)),
        columns=["vec_id", "embedding"])
    qids = qt.column("vec_id").to_pylist()
    Q = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    Qn = Q / np.maximum(np.linalg.norm(Q, axis=1), 1e-30)[:, None]
    q_ref = ray.put((qids, Qn))

    def partial_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        qids_, Qn_ = ray.get(q_ref)
        E = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        ids = batch.column("vec_id").to_numpy()
        En = E / np.maximum(np.linalg.norm(E, axis=1), 1e-30)[:, None]
        C = En @ Qn_.T  # (batch, q)
        out_q, out_v, out_c = [], [], []
        kk = min(k, len(ids))
        for j, qid in enumerate(qids_):
            col = C[:, j]
            top = _topk_ties_by_id(col, ids, kk, ascending=False)
            out_q.extend([qid] * len(top))
            out_v.extend(ids[top].tolist())
            out_c.extend(col[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cosine": pa.array(out_c, pa.float64()),
        })

    parts = _read_embeddings(sf_dir).map_batches(
        partial_topk, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, "cosine", ascending=False, k=k)


class HashedBow:
    """Actor-pool UDF: feature-hashing ('hashing trick', Weinberger et
    al. 2009) bag-of-words — token -> dim = int(md5(token)[:8], 16) %
    dims, no vocabulary to build or ship.  The per-actor token->dim
    memo makes the md5 amortize to one hash per DISTINCT token per
    actor (zipf corpora repeat tokens heavily)."""

    def __init__(self, dims: int = 64):
        self.dims = dims
        self.memo: dict[str, int] = {}

    def _dim(self, tok: str) -> int:
        d = self.memo.get(tok)
        if d is None:
            import hashlib

            d = int(hashlib.md5(tok.encode("utf-8")).hexdigest()[:8],
                    16) % self.dims
            if len(self.memo) < 1_000_000:  # vocab-bounded memo
                self.memo[tok] = d
        return d

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, out_dim, out_tf = [], [], []
        ids = batch.column("doc_id").to_numpy()
        for i, t in enumerate(batch.column("text").to_pylist()):
            counts: dict[int, int] = {}
            for tok in t.split(" "):
                if tok:
                    d = self._dim(tok)
                    counts[d] = counts.get(d, 0) + 1
            for d in sorted(counts):
                out_id.append(ids[i])
                out_dim.append(d)
                out_tf.append(counts[d])
        return pa.table({
            "doc_id": pa.array(np.asarray(out_id, np.int64), pa.int64()),
            "dim": pa.array(np.asarray(out_dim, np.int64), pa.int64()),
            "tf": pa.array(np.asarray(out_tf, np.int64), pa.int64())})


def hashed_bow(sf_dir: str, dims: int = 64):
    """Sparse (doc_id, dim, tf) feature-hashed bag-of-words embeddings
    — model-free doc vectors for the ANN/clustering stack, with NO
    global vocabulary pass and no state to broadcast.  Embarrassingly
    parallel: one streaming actor-pool map, rows complete per doc
    inside its batch, no shuffle.  Tokenization is the plain
    single-space split its SQL mirror uses (string_split + unnest +
    md5)."""
    import ray.data

    return (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(HashedBow, fn_constructor_kwargs={"dims": dims},
                     batch_format="pyarrow", concurrency=2))


def text_knn_hashed(sf_dir: str, query_doc_id: int = 3, k: int = 10,
                    dims: int = 64):
    """Model-free text similarity: top-``k`` docs by INTEGER dot
    product of feature-hashed BoW vectors against one query doc —
    exact arithmetic end to end, so the SQL self-join mirror
    hash-matches (float cosine would drift on sum order).  Composition
    proof for the hashing trick: text -> hashed_bow -> broadcast query
    vector -> per-batch dense dot + partial top-k -> one k-sized
    driver merge.  Ties break ascending doc_id."""
    import ray
    import ray.data

    qrow = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .filter(expr=f"doc_id == {query_doc_id}").take(1))
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "dot": pa.array([], pa.int64())})
    if not qrow:
        return empty
    qvec = np.zeros(dims, np.int64)
    enc = HashedBow(dims)
    for tok in qrow[0]["text"].split(" "):
        if tok:
            qvec[enc._dim(tok)] += 1
    q_ref = ray.put(qvec)

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        keep = ids != query_doc_id
        bow = HashedBow(dims)(batch.filter(pa.array(keep)))
        d = bow.column("doc_id").to_numpy()
        dim = bow.column("dim").to_numpy()
        tf = bow.column("tf").to_numpy()
        if len(d) == 0:
            return empty
        uniq, inv = np.unique(d, return_inverse=True)
        dots = np.zeros(len(uniq), np.int64)
        np.add.at(dots, inv, tf * ray.get(q_ref)[dim])
        # dot == 0 docs share no hashed dim with the query: the SQL
        # mirror's inner join never emits them, so neither may we
        # (they would pad the top-k on sparse/empty query vectors)
        pos = dots > 0
        uniq, dots = uniq[pos], dots[pos]
        if len(uniq) == 0:
            return empty
        top = _topk_ties_by_id(dots.astype(np.float64), uniq,
                               min(k, len(uniq)), ascending=False)
        return pa.table({"doc_id": pa.array(uniq[top], pa.int64()),
                         "dot": pa.array(dots[top], pa.int64())})

    parts = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
        .map_batches(partial_topk, batch_format="pyarrow").to_pandas())
    if parts.empty:
        return empty
    out = (parts.sort_values(["dot", "doc_id"], ascending=[False, True])
           .head(k).reset_index(drop=True))
    return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                     "dot": pa.array(out["dot"], pa.int64())})


def knn_ivf(sf_dir: str, query_vec_ids=(0, 1, 2), k: int = 10,
            n_centroids: int = 16, nprobe: int = 4):
    """IVF-style ANN: deterministic centroids from a seeded sample (3
    Lloyd iterations), inverted lists via groupby(centroid), probe the
    nprobe nearest lists.  Returns the same schema as knn_brute."""
    import ray

    ds = _read_embeddings(sf_dir)
    sample = ds.take(min(2048, 10 * n_centroids))
    X = np.asarray([r["embedding"] for r in sample], dtype=np.float64)
    rng = np.random.default_rng(42)
    C = X[rng.choice(len(X), size=min(n_centroids, len(X)), replace=False)]
    for _ in range(3):
        d = ((X[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        assign = d.argmin(1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                C[c] = X[m].mean(0)
    c_ref = ray.put(C)

    def assign_batch(batch: pa.Table) -> pa.Table:
        C_ = ray.get(c_ref)
        E = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        d = ((E[:, None, :] - C_[None, :, :]) ** 2).sum(-1)
        return batch.append_column(
            "centroid", pa.array(d.argmin(1).astype(np.int32), pa.int32()))

    assigned = ds.map_batches(assign_batch, batch_format="pyarrow")

    import pyarrow.dataset as pads

    qt = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        filter=pads.field("vec_id").isin(list(query_vec_ids)),
        columns=["vec_id", "embedding"])
    qids = qt.column("vec_id").to_pylist()
    Q = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    qd = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(-1)
    probe_sets = {qid: set(np.argsort(qd[i])[:nprobe].tolist())
                  for i, qid in enumerate(qids)}
    all_probed = sorted(set().union(*probe_sets.values()))

    probe_arr = np.array(all_probed, dtype=np.int32)

    def keep_probed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.is_in(batch.column("centroid"),
                     value_set=pa.array(probe_arr, pa.int32())))

    probed = (assigned.map_batches(keep_probed, batch_format="pyarrow")
              if len(all_probed) else assigned)

    # streaming scoring, same shape as knn_brute: per-batch partial
    # top-k against the broadcast query matrix (only rows in each
    # query's probed lists count), tiny driver merge at the end — the
    # probed inverted lists are never materialized in one process
    Qn = Q / np.maximum(np.linalg.norm(Q, axis=1), 1e-30)[:, None]
    probe_lists = [sorted(probe_sets[qid]) for qid in qids]
    q_ref = ray.put((qids, Qn, probe_lists))

    def partial_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        qids_, Qn_, probes_ = ray.get(q_ref)
        E = np.asarray(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        ids = batch.column("vec_id").to_numpy()
        cents = batch.column("centroid").to_numpy()
        En = E / np.maximum(np.linalg.norm(E, axis=1), 1e-30)[:, None]
        out_q, out_v, out_c = [], [], []
        for j, qid in enumerate(qids_):
            m = np.isin(cents, probes_[j])
            if not m.any():
                continue
            cos = En[m] @ Qn_[j]
            mids = ids[m]
            kk = min(k, len(cos))
            top = _topk_ties_by_id(cos, mids, kk, ascending=False)
            out_q.extend([qid] * len(top))
            out_v.extend(mids[top].tolist())
            out_c.extend(cos[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cosine": pa.array(out_c, pa.float64()),
        })

    parts = probed.map_batches(partial_topk,
                               batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, "cosine", ascending=False, k=k)


def label_centroid_sums(sf_dir: str):
    """Per-label centroid aggregation: per-dimension e4-scaled integer
    sums + counts (centroid = sum/n downstream).  Values are scaled
    per ELEMENT before any sum, so the aggregate is exact integer math —
    SQL-checkable and association-free.

    Shape: the vector unrolls inside the partial combine (one map_batches
    produces (label, dim) partial sums), so the shuffle moves
    labels x dims rows per batch, never the vectors.
    """
    import ray.data
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        import pandas as pd

        emb = np.asarray(batch.column("embedding").to_pylist(),
                         dtype=np.float64)
        labels = batch.column("label").to_numpy()
        n, d = emb.shape
        e4 = round_half_away(emb * 1e4)
        df = pd.DataFrame({
            "label": np.repeat(labels.astype(np.int64), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n),
            "sum_e4": e4.reshape(-1),
            "one": np.ones(n * d, dtype=np.int64),
        })
        g = df.groupby(["label", "dim"], sort=False).agg(
            sum_e4=("sum_e4", "sum"), one=("one", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["label", "embedding"])
    from search_engine_ray.ops.shuffle import bucketed_sum

    return bucketed_sum(ds.map_batches(partials, batch_format="pyarrow"),
                        ["label", "dim"], ["sum_e4", "one"],
                        rename={"one": "n"})


def kmeans_assign(sf_dir: str, k: int = 8, iters: int = 4):
    """Distributed Lloyd's k-means over the embeddings table.

    Each iteration is ONE streaming pass: centroids are BROADCAST
    (``ray.put``, k x dim floats), every batch assigns its vectors to
    the nearest centroid (squared euclidean, lowest index on ties) and
    emits integer-exact partials — per-cluster e6-scaled component sums
    + counts — which commute, so the driver-side reduce (k rows per
    batch, tiny) is deterministic regardless of batch order.  Init is
    the k vectors with the smallest vec_ids (deterministic, no RNG).
    Returns the final (vec_id, cluster) assignment as a Dataset."""
    import ray
    import ray.data

    ds = _read_embeddings(sf_dir)

    # init = the k smallest vec_ids: per-batch partial top-k, driver
    # merges k rows per batch (no full sort shuffle)
    def _seed_partial(batch: pa.Table) -> pa.Table:
        idx = np.argsort(batch.column("vec_id").to_numpy())[:k]
        return batch.take(pa.array(idx))

    seeds = (ds.map_batches(_seed_partial, batch_format="pyarrow")
             .to_pandas().sort_values("vec_id").head(k))
    cent = np.array([np.asarray(v, dtype=np.float64)
                     for v in seeds["embedding"]])
    # fewer vectors than clusters: every vector is its own centroid
    # (the tot_n/tot_s accumulators below are sized to the REAL k)
    k = min(k, len(cent))
    dim = cent.shape[1]

    def _emb_mat(batch: pa.Table) -> np.ndarray:
        col = batch.column("embedding").combine_chunks()
        flat = col.values.to_numpy(zero_copy_only=False)
        return flat.reshape(len(batch), dim).astype(np.float64)

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            x = _emb_mat(batch)
            # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2; argmin over c
            d = -2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
            a = d.argmin(axis=1)
            xi = np.round(x * 1e6).astype(np.int64)  # exact partials
            sums = np.zeros((len(c), dim), dtype=np.int64)
            np.add.at(sums, a, xi)
            ns = np.bincount(a, minlength=len(c)).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(len(c)), pa.int32()),
                "n": pa.array(ns, pa.int64()),
                "sum_e6": pa.array(list(sums), pa.list_(pa.int64())),
            })

        # combiner: re-aggregate partial rows by cluster INSIDE Ray
        # (k rows out per ~4096 in), so driver traffic is
        # k x (n_batches/4096) rows however many map batches ran; the
        # driver fold is then a C-level scatter-add, not a Python row
        # loop (round-4 verdict #4).  Integer partials make the result
        # bit-identical under any merge order.
        def combine(t: pa.Table) -> pa.Table:
            cl = t.column("cluster").to_numpy()
            ns_ = t.column("n").to_numpy()
            fl = (t.column("sum_e6").combine_chunks().flatten()
                  .to_numpy().reshape(len(t), dim))
            cn = np.zeros(k, dtype=np.int64)
            cs = np.zeros((k, dim), dtype=np.int64)
            np.add.at(cn, cl, ns_)
            np.add.at(cs, cl, fl)
            return pa.table({
                "cluster": pa.array(np.arange(k), pa.int32()),
                "n": pa.array(cn, pa.int64()),
                "sum_e6": pa.array(list(cs), pa.list_(pa.int64())),
            })

        import pyarrow as _pa

        parts = _pa.concat_tables(
            ray.get(ds.map_batches(partial, batch_format="pyarrow")
                    .map_batches(combine, batch_format="pyarrow",
                                 batch_size=4096)
                    .to_arrow_refs()))
        cl = parts.column("cluster").to_numpy()
        ns = parts.column("n").to_numpy()
        flat = (parts.column("sum_e6").combine_chunks().flatten()
                .to_numpy().reshape(len(parts), dim))
        tot_n = np.zeros(k, dtype=np.int64)
        tot_s = np.zeros((k, dim), dtype=np.int64)
        np.add.at(tot_n, cl, ns)
        np.add.at(tot_s, cl, flat)
        nz = tot_n > 0  # empty clusters keep their previous centroid
        cent[nz] = tot_s[nz] / (1e6 * tot_n[nz, None])

    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        x = _emb_mat(batch)
        d = -2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
        return pa.table({
            "vec_id": batch.column("vec_id"),
            "cluster": pa.array(d.argmin(axis=1).astype(np.int64),
                                pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


def embedding_pca_projection(sf_dir: str):
    """Distributed PCA: project every embedding onto the corpus's top
    principal component — the linear-algebra reduce a 100-TB embedding
    table needs (whitening, drift detection, coarse 1-D bucketing).

    Pass 1 streams fixed-size moment partials out of ``map_batches``:
    per batch ONE row holding (n, Σx_e6, Σ per-row-rounded outer
    products e6) — d + d² int64s regardless of batch size, merged by
    integer SUM so the covariance is bit-identical under any reduce
    order (the same exactness trick as the k-means partials).  The
    d×d eigendecomposition is driver-side (microscopic); pass 2
    re-streams the table projecting (x-μ)·v per batch.  Sign is fixed
    (first nonzero component positive) so the output is deterministic.
    """
    import ray.data

    def moments(batch: pa.Table) -> pa.Table:
        x = np.array([np.asarray(v, dtype=np.float64)
                      for v in batch.column("embedding").to_pylist()])
        n, d = x.shape
        sx = np.rint(x * 1e6).astype(np.int64).sum(axis=0)
        # per-ROW rounded outer products -> order-proof integer sum
        outer = np.einsum("ni,nj->nij", x, x)
        sxx = np.rint(outer * 1e6).astype(np.int64).sum(axis=0)
        return pa.table({
            "n": pa.array([n], pa.int64()),
            "sx": pa.array([sx.tobytes()], pa.binary()),
            "sxx": pa.array([sxx.reshape(-1).tobytes()], pa.binary())})

    ds = _read_embeddings(sf_dir)
    rows = ds.map_batches(moments, batch_format="pyarrow").take_all()
    n = sum(int(r["n"]) for r in rows)
    sx = np.zeros(0, dtype=np.int64)
    sxx = None
    for r in rows:
        bx = np.frombuffer(r["sx"], dtype=np.int64)
        bxx = np.frombuffer(r["sxx"], dtype=np.int64)
        sx = bx if not len(sx) else sx + bx
        sxx = bxx if sxx is None else sxx + bxx
    d = len(sx)
    mu = sx.astype(np.float64) / (n * 1e6)
    exx = sxx.reshape(d, d).astype(np.float64) / (n * 1e6)
    cov = exx - np.outer(mu, mu)
    w, v = np.linalg.eigh(cov)
    pc = v[:, -1]
    nz = np.flatnonzero(np.abs(pc) > 1e-12)
    if len(nz) and pc[nz[0]] < 0:
        pc = -pc

    def project(batch: pa.Table) -> pa.Table:
        x = np.array([np.asarray(vv, dtype=np.float64)
                      for vv in batch.column("embedding").to_pylist()])
        score = (x - mu) @ pc
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "pc1_e6": pa.array(np.rint(score * 1e6).astype(np.int64),
                               pa.int64())})

    return ds.map_batches(project, batch_format="pyarrow")


def knn_pq(sf_dir: str, query_vec_ids=(0, 1, 2), k: int = 10,
           m: int = 8, n_codes: int = 16, train_n: int = 2048,
           rerank: int = 5):
    """Product-quantization ANN with asymmetric distance computation
    (ADC) and exact re-ranking: train ``m`` per-subspace codebooks of
    ``n_codes`` centroids on a bounded sample, then score the corpus in
    ONE streaming pass — each batch encodes its vectors to (m,) code
    ids, shortlists the per-batch top ``rerank*k`` by ADC lookup, and
    re-scores ONLY the shortlist with exact L2 (the vectors are in
    hand, so the re-rank costs R*d flops per batch, not n*d).

    The scale story vs ``knn_brute``: per-vector work drops from d
    multiplies per query to m table lookups, and the memory footprint
    of a cached corpus drops 32x (64 floats -> 8 bytes of codes) — the
    standard billion-vector recipe (coarse ADC prune + exact re-rank).
    Codebook training on a driver-side sample is bounded (``train_n``
    rows) at any corpus size; the corpus itself is never materialized.

    Returns (query_id, rank, vec_id, dist) with rank 1..k by (exact L2
    of the shortlisted candidates asc, vec_id asc).  Approximate by
    construction (the ADC prune can drop a true neighbor) — gated by a
    recall-vs-brute unit, not a SQL oracle."""
    import ray
    import pyarrow.dataset as pads

    ds = _read_embeddings(sf_dir)
    sample = ds.take(train_n)
    X = np.asarray([r["embedding"] for r in sample], dtype=np.float64)
    d = X.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.default_rng(42)
    nc = min(n_codes, len(X))
    books = np.zeros((m, nc, sub), dtype=np.float64)
    for s in range(m):
        Xs = X[:, s * sub:(s + 1) * sub]
        C = Xs[rng.choice(len(Xs), size=nc, replace=False)].copy()
        for _ in range(4):
            dist = ((Xs[:, None, :] - C[None, :, :]) ** 2).sum(-1)
            a = dist.argmin(1)
            for c in range(nc):
                msk = a == c
                if msk.any():
                    C[c] = Xs[msk].mean(0)
        books[s] = C

    qt = pads.dataset(os.path.join(sf_dir, "embeddings.parquet")).to_table(
        filter=pads.field("vec_id").isin(list(query_vec_ids)),
        columns=["vec_id", "embedding"])
    qids = qt.column("vec_id").to_pylist()
    Q = np.asarray(qt.column("embedding").to_pylist(), dtype=np.float64)
    # lut[q, s, c] = ||Q[q, s-chunk] - books[s, c]||^2 — tiny
    # (nq x m x n_codes), shipped once
    Qs = Q.reshape(len(Q), m, sub)
    lut = ((Qs[:, :, None, :] - books[None, :, :, :]) ** 2).sum(-1)
    ref = ray.put((qids, books, lut))

    q_full = ray.put(Q)

    def partial_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "vec_id": pa.array([], pa.int64()),
                          "dist": pa.array([], pa.float64())})
        if batch.num_rows == 0:
            return empty
        qids_, books_, lut_ = ray.get(ref)
        Q_ = ray.get(q_full)
        E = np.asarray(batch.column("embedding").to_pylist(),
                       dtype=np.float64)
        ids = batch.column("vec_id").to_numpy()
        n = len(ids)
        Es = E.reshape(n, m, sub)
        # encode: nearest codebook entry per subspace — one broadcast
        # per subspace keeps peak memory at n x n_codes
        codes = np.empty((n, m), dtype=np.int64)
        for s in range(m):
            dist = ((Es[:, s, None, :] - books_[None, s, :, :]) ** 2
                    ).sum(-1)
            codes[:, s] = dist.argmin(1)
        # ADC: A[i, q] = sum_s lut[q, s, codes[i, s]]
        nq = len(qids_)
        A = np.zeros((n, nq), dtype=np.float64)
        for s in range(m):
            A += lut_[:, s, codes[:, s]].T  # (n, nq)
        out_q, out_v, out_d = [], [], []
        kk = min(rerank * k, n)
        for j, qid in enumerate(qids_):
            short = _topk_ties_by_id(A[:, j], ids, kk, ascending=True)
            exact = ((E[short] - Q_[j]) ** 2).sum(-1)
            top = short[_topk_ties_by_id(exact, ids[short], min(k, kk),
                                         ascending=True)] \
                if kk > k else short
            out_q.extend([qid] * len(top))
            out_v.extend(ids[top].tolist())
            out_d.extend(((E[top] - Q_[j]) ** 2).sum(-1).tolist())
        return pa.table({
            "query_id": pa.array(out_q, pa.int64()),
            "vec_id": pa.array(out_v, pa.int64()),
            "dist": pa.array(out_d, pa.float64())})

    parts = ds.map_batches(partial_topk, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, "dist", ascending=True, k=k)


def source_quality_centroid_sums(sf_dir: str, min_tokens: int = 55):
    """Cross-modal join: per SOURCE, the e4-scaled integer embedding
    sums (centroid numerators) of quality-gated documents — text-side
    predicate, vector-side aggregate, joined on doc identity.  The
    shape every curation pipeline needs when filters live on text
    features but downstream consumers want embedding statistics.

    Plan: documents reduce to (doc_id, source, keep) and embeddings to
    (vec_id, packed e4 vector) rows; ONE tagged-union id shuffle joins
    them, and each bucket unrolls ONLY the kept vectors into (source,
    dim) partials via a factorize + np.add.at scatter — vectors cross
    the wire packed (one row each), dims unroll after the gate."""
    import pandas as pd
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply, bucketed_sum
    from search_engine_ray.text.tokenizer import simple_tokenize

    def dprep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        keep = np.array(
            [len(simple_tokenize(t)) >= min_tokens
             for t in batch.column("text").to_pylist()], dtype=np.int8)
        n = len(ids)
        return pa.table({
            "key": pa.array(ids, pa.int64()),
            "source": batch.column("source"),
            "keep": pa.array(keep, pa.int8()),
            "vec": pa.array([b""] * n, pa.binary()),
            "side": pa.array(np.zeros(n, dtype=np.int8))})

    def eprep(batch: pa.Table) -> pa.Table:
        emb = np.asarray(batch.column("embedding").to_pylist(),
                         dtype=np.float64)
        e4 = round_half_away(emb * 1e4)
        n = len(e4)
        return pa.table({
            "key": batch.column("vec_id").cast(pa.int64()),
            "source": pa.array([""] * n, pa.string()),
            "keep": pa.array(np.zeros(n, dtype=np.int8)),
            "vec": pa.array([row.tobytes() for row in e4], pa.binary()),
            "side": pa.array(np.ones(n, dtype=np.int8))})

    docs = (ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source", "text"])
        .map_batches(dprep, batch_format="pyarrow"))
    embs = (ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"])
        .map_batches(eprep, batch_format="pyarrow"))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        d = g.loc[(g["side"] == 0) & (g["keep"] == 1), ["key", "source"]]
        e = g.loc[g["side"] == 1, ["key", "vec"]]
        m = e.merge(d, on="key", how="inner")
        if not len(m):
            return pd.DataFrame({
                "source": pd.Series([], dtype=object),
                "dim": np.array([], dtype=np.int64),
                "sum_e4": np.array([], dtype=np.int64),
                "n": np.array([], dtype=np.int64)})
        vecs = np.stack([np.frombuffer(b, dtype=np.int64)
                         for b in m["vec"]])
        dim = vecs.shape[1]
        codes, uniq = pd.factorize(m["source"].to_numpy())
        sums = np.zeros((len(uniq), dim), dtype=np.int64)
        np.add.at(sums, codes, vecs)
        counts = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pd.DataFrame({
            "source": np.repeat(uniq, dim),
            "dim": np.tile(np.arange(dim, dtype=np.int64), len(uniq)),
            "sum_e4": sums.reshape(-1),
            "n": np.repeat(counts, dim)})

    per = bucketed_apply(docs.union(embs), ["key"], per_bucket)
    return bucketed_sum(per, ["source", "dim"], ["sum_e4", "n"])


def semdedup_keep_ids(sf_dir: str, k: int = 8, threshold: float = 0.95):
    """SemDeDup (Abbas et al. 2023): semantic deduplication that bounds
    the quadratic — k-means cluster the embeddings, then run exact
    cosine dedup only WITHIN each cluster, dropping every vector whose
    cosine to an already-KEPT lower-vec_id vector of the same cluster
    is >= ``threshold`` (deterministic keep-first greedy: a vector
    whose only near-dups were themselves dropped SURVIVES — transitive
    chains do not collapse to one survivor).  Returns the surviving
    (vec_id) Dataset.

    At corpus scale ``k`` is chosen so clusters hold ~10k-100k vectors
    (the paper uses ~100k clusters on LAION) — per-cluster all-pairs is
    then a bounded dense matmul per reduce task, and cross-cluster
    near-dups are the accepted recall loss that makes the method linear
    instead of quadratic.  Composition: :func:`kmeans_assign` (broadcast
    centroids, integer-exact reduce) -> vec_id-keyed tagged-union attach
    of the embeddings -> cluster-keyed bucketed dedup; nothing
    corpus-sized is broadcast or driver-materialized."""
    import pandas as pd
    import ray.data

    from search_engine_ray.ops.shuffle import bucketed_apply

    assign = kmeans_assign(sf_dir, k=k)
    embs = _read_embeddings(sf_dir)

    def tag_assign(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "cluster": batch.column("cluster").cast(pa.int64()),
            "embedding": pa.array([[]] * n, pa.list_(pa.float64())),
            "side": pa.array(np.zeros(n, dtype=np.int8))})

    def tag_embs(batch: pa.Table) -> pa.Table:
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        n = batch.num_rows
        return pa.table({
            "vec_id": batch.column("vec_id").cast(pa.int64()),
            "cluster": pa.array(np.full(n, -1, dtype=np.int64)),
            "embedding": emb.cast(pa.list_(pa.float64())),
            "side": pa.array(np.ones(n, dtype=np.int8))})

    union = (assign.map_batches(tag_assign, batch_format="pyarrow")
             .union(embs.map_batches(tag_embs, batch_format="pyarrow")))

    def attach(g: pd.DataFrame) -> pd.DataFrame:
        a = g.loc[g["side"] == 0, ["vec_id", "cluster"]]
        e = g.loc[g["side"] == 1, ["vec_id", "embedding"]]
        m = a.merge(e, on="vec_id", how="inner")
        return m[["cluster", "vec_id", "embedding"]]

    rows = bucketed_apply(union, ["vec_id"], attach)

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, sub in g.groupby("cluster", sort=False):
            sub = sub.sort_values("vec_id")
            ids = sub["vec_id"].to_numpy(np.int64)
            x = np.array([np.asarray(v, dtype=np.float64)
                          for v in sub["embedding"]])
            nrm = np.linalg.norm(x, axis=1)
            nrm[nrm == 0.0] = 1.0          # zero vectors: cos := 0
            xn = x / nrm[:, None]
            gme = xn @ xn.T
            # keep-first greedy in vec_id order: drop j only if a KEPT
            # i<j has cos >= threshold (an O(m^2) scan like the matmul
            # above — the cluster bound is what keeps m small)
            near = gme >= threshold
            keep = np.zeros(len(ids), dtype=bool)
            for j in range(len(ids)):
                keep[j] = not near[j, :j][keep[:j]].any()
            out.append(pd.DataFrame({"vec_id": ids[keep]}))
        return (pd.concat(out, ignore_index=True) if out
                else pd.DataFrame({"vec_id":
                                   pd.Series([], dtype="int64")}))

    return bucketed_apply(rows, ["cluster"], dedup_cluster)
