"""Varbyte/delta/posting-row round-trip tests, incl. property-based
(SURVEY.md §5.3)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from search_engine_ray.index.encoding import (
    decode_postings,
    delta_decode,
    delta_encode,
    encode_postings,
    varbyte_decode,
    varbyte_encode,
)


def test_varbyte_roundtrip_basic():
    vals = np.array([0, 1, 127, 128, 300, 2**20, 2**40, 2**62], dtype=np.int64)
    buf, offs = varbyte_encode(vals)
    out = varbyte_decode(buf)
    assert (out == vals).all()
    assert offs[-1] == len(buf)


def test_varbyte_empty():
    buf, offs = varbyte_encode(np.array([], dtype=np.int64))
    assert buf == b"" and len(varbyte_decode(buf)) == 0


def test_varbyte_offset_and_count():
    vals = np.arange(1000, dtype=np.int64) * 977
    buf, offs = varbyte_encode(vals)
    got = varbyte_decode(buf, offset=int(offs[500]), count=10)
    assert (got == vals[500:510]).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=500))
def test_varbyte_roundtrip_property(xs):
    vals = np.array(xs, dtype=np.int64)
    buf, _ = varbyte_encode(vals)
    assert (varbyte_decode(buf) == vals).all()


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**62), min_size=1,
               max_size=400))
def test_postings_roundtrip_property(idset):
    ids = np.array(sorted(idset), dtype=np.int64)
    n = len(ids)
    rng = np.random.default_rng(7)
    tfs = rng.integers(1, 50, n)
    dls = rng.integers(5, 100, n)
    mtfs = rng.integers(1, 50, n)
    dec = decode_postings(encode_postings(ids, tfs, dls, mtfs))
    assert (dec["doc_ids"] == ids).all()
    assert (dec["tfs"] == tfs).all()
    assert (dec["dls"] == dls).all()
    assert (dec["mtfs"] == mtfs).all()


def test_delta_roundtrip():
    ids = np.array([5, 6, 100, 2**40], dtype=np.int64)
    assert (delta_decode(delta_encode(ids)) == ids).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.integers(min_value=0, max_value=2**62),
                        min_size=1, max_size=100),
                min_size=1, max_size=8))
def test_concatenated_stream_decode_matches_per_segment(segments):
    """The query-side prefetch decodes ONE concatenated varbyte buffer and
    undoes per-segment delta resets with cumsum offsets — must equal
    per-segment decode (query/engine.py prefetch)."""
    import numpy as np

    segs = [np.array(sorted(s), dtype=np.int64) for s in segments]
    bufs = [varbyte_encode(delta_encode(ids))[0] for ids in segs]
    ns = np.array([len(s) for s in segs], dtype=np.int64)
    total = int(ns.sum())
    deltas = varbyte_decode(b"".join(bufs), count=total)
    cs = np.cumsum(deltas)
    seg_starts = np.zeros(len(ns), dtype=np.int64)
    np.cumsum(ns[:-1], out=seg_starts[1:])
    base = np.zeros(len(ns), dtype=np.int64)
    base[1:] = cs[seg_starts[1:] - 1]
    ids = cs - np.repeat(base, ns)
    expected = np.concatenate(segs)
    assert (ids == expected).all()
