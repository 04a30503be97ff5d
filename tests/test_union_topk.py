"""The TAAT union kernel and the top-k prune, checked for exact equality.

``union_scores`` must give the very bits ``np.unique(return_inverse=True)``
+ ``bincount`` gives (each doc summed ``0 + c1 + c2 + ...`` in part
order), and ``_score_keep``/``_topk_by_score`` must keep every candidate
tied at the k-th-best score so the (ts, doc_id) tie-break is exact.
"""

import numpy as np

from search_engine_ray.query.engine import (_score_keep, _topk_by_score,
                                            _topk_reference_order,
                                            union_scores)


def _unique_bincount(id_parts, contrib_parts):
    cand, inv = np.unique(np.concatenate(id_parts), return_inverse=True)
    return cand, np.bincount(inv, weights=np.concatenate(contrib_parts),
                             minlength=len(cand))


def _reduceat_union(id_parts, contrib_parts):
    """The same union with ``np.add.reduceat``, which adds pairwise."""
    ids = np.concatenate(id_parts)
    o = ids.argsort(kind="stable")
    ids = ids[o]
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return ids[starts], np.add.reduceat(np.concatenate(contrib_parts)[o],
                                        starts)


def _run(rng, n, hi):
    return np.sort(rng.choice(hi, size=min(n, hi), replace=False)
                   ).astype(np.int64)


def _nrt_part(rng, hi):
    """Base ids then segment ids: two doc-sorted runs, disjoint."""
    ids = rng.choice(hi, size=min(int(rng.integers(2, 60)), hi),
                     replace=False)
    cut = int(rng.integers(0, len(ids) + 1))
    return np.concatenate([np.sort(ids[:cut]),
                           np.sort(ids[cut:])]).astype(np.int64)


def _contribs(rng, n):
    # BM25-shaped: idf * tf_norm, full-mantissa floats
    return rng.uniform(0.05, 3.0) * rng.uniform(0.1, 2.2, n)


def _cases(seed=7, reps=60):
    rng = np.random.default_rng(seed)
    for nparts in range(1, 7):
        for rep in range(reps):
            hi = int(rng.integers(5, 400))  # small ranges overlap heavily
            ids = []
            for _ in range(nparts):
                if nparts > 1 and rep % 2:
                    ids.append(_nrt_part(rng, hi))
                else:
                    ids.append(_run(rng, int(rng.integers(1, 120)), hi))
            if nparts > 1 and rep % 5 == 0:
                ids[int(rng.integers(nparts))] = np.zeros(0, np.int64)
            yield ids, [_contribs(rng, len(p)) for p in ids]


def test_union_scores_bit_identical_to_unique_bincount():
    n = 0
    for id_parts, contrib_parts in _cases():
        cand, scores = union_scores(id_parts, contrib_parts)
        want_c, want_s = _unique_bincount(id_parts, contrib_parts)
        assert np.array_equal(cand, want_c)
        assert scores.dtype == want_s.dtype
        assert np.array_equal(scores, want_s)  # exact, not approx
        n += 1
    assert n == 6 * 60


def test_union_scores_edge_shapes():
    e = np.zeros(0, np.int64)
    ef = np.zeros(0)
    cand, scores = union_scores([e, e], [ef, ef])
    assert len(cand) == 0 and len(scores) == 0
    a = np.array([1, 5, 9], np.int64)
    ca = np.array([0.1, 0.2, 0.3])
    cand, scores = union_scores([a, e], [ca, ef])
    assert np.array_equal(cand, a) and np.array_equal(scores, ca)
    # one part comes back as is (zero-copy), also an unsorted NRT part
    nrt = np.array([4, 8, 1, 6], np.int64)
    cn = np.array([1.0, 2.0, 3.0, 4.0])
    cand, scores = union_scores([nrt], [cn])
    assert cand is nrt and scores is cn
    # repeated doc across all parts sums in part order from 0.0
    parts = [np.array([3], np.int64)] * 3
    cs = [np.array([0.1]), np.array([0.2]), np.array([0.3])]
    cand, scores = union_scores(parts, cs)
    assert cand.tolist() == [3] and scores[0] == (0.0 + 0.1 + 0.2) + 0.3


def test_union_cases_catch_pairwise_summation():
    """The seeded cases tell sequential from pairwise addition, so a
    ``reduceat`` kernel would fail the parity test above."""
    differs = 0
    for id_parts, contrib_parts in _cases():
        if sum(len(p) for p in id_parts) == 0:
            continue
        _, got = _reduceat_union(id_parts, contrib_parts)
        _, want = _unique_bincount(id_parts, contrib_parts)
        differs += not np.array_equal(got, want)
    assert differs > 0


def _full_lexsort_topk(scores, ids, ts, k):
    order = np.lexsort((ids, ts, scores))[-k:]
    return [(float(scores[i]), int(ids[i]), int(ts[i])) for i in order]


def test_topk_keeps_boundary_ties_around_4k():
    rng = np.random.default_rng(11)
    for k in (1, 3, 10, 25):
        for n in (4 * k - 1, 4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 7):
            for _ in range(20):
                # few distinct scores and ts: wide ties at the k-th score
                scores = rng.integers(0, 4, n).astype(np.float64) * 0.25
                ids = rng.choice(10 * n, size=n, replace=False
                                 ).astype(np.int64)
                ts = rng.integers(0, 3, n).astype(np.int64)
                ts_by_id = dict(zip(ids.tolist(), ts.tolist()))

                def ts_of(d):
                    return np.array([ts_by_id[x] for x in d.tolist()],
                                    np.int64)

                keep = _score_keep(scores, k)
                if n <= 4 * k:
                    assert keep is None
                else:
                    s_k = np.sort(scores)[n - k]
                    assert np.array_equal(keep,
                                          np.flatnonzero(scores >= s_k))
                want = _full_lexsort_topk(scores, ids, ts, k)
                assert _topk_by_score(scores, ids, k, ts_of) == want
                assert _topk_reference_order(scores, ids, ts, k) == want
