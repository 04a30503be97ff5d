"""The NRT delta segment (query/nrt.py ``Segment``) against the oracle's
accumulator: dict verdicts, postings and memory, without a base index.

Under the default treebank config the capitals and entity rules are
reachable, so the lazily resolved verdicts are checked key by key
against ``OracleIndex.final_terms(prune_df1=False)`` after every batch.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np

from search_engine_ray.config import EngineConfig
from search_engine_ray.fixtures import gen_pages
from search_engine_ray.ids import doc_id_for_url
from search_engine_ray.oracle import OracleIndex
from search_engine_ray.query.nrt import Segment

_TS = 1_600_000_000_000_000


def _rows(table):
    return list(zip(table.column("url").to_pylist(),
                    table.column("warc_ts").cast("int64").to_pylist(),
                    table.column("text").to_pylist()))


def _crafted(tag: str, texts):
    return [(f"https://nrt.example/{tag}/{i}", _TS + i, t)
            for i, t in enumerate(texts)]


# Capitals verdicts that rewrite two origs to one upper (``Straße`` and
# ``Strasse`` both give STRASSE: the greatest orig wins), verdicts that
# flip True -> False in a later batch (zebra, then strasse), and
# entity-pruned terms (INFK is a kbm term and a one-doc entity chunk;
# INFB reaches two docs and is kept).
_BATCHES = [
    _crafted("a", ["Straße Strasse runs far", "Zebra runs",
                   "INFK rising fast", "INFB rising slowly"]),
    _crafted("b", ["the zebra runs", "Strasse Weg is long",
                   "INFB rising again"]),
    _crafted("c", ["the strasse is long", "Straße road"]),
]


def _batches():
    """Fixture pages interleaved with the crafted batches."""
    pages = _rows(gen_pages(600))
    out = []
    for i in range(6):
        out.append(pages[100 * i:100 * (i + 1)])
        if i < len(_BATCHES):
            out.append(_BATCHES[i])
    return out


def _add(seg: Segment, batch) -> None:
    docs = []
    for url, ts, text in batch:
        d = seg.parser.parse_page(url, text)
        if d is not None:
            docs.append((doc_id_for_url(url), ts, d))
    seg.add(docs)


def test_segment_verdicts_and_postings_equal_oracle():
    """After every batch, for every segment term, its upper and an
    unknown term, the segment resolves the orig term ``final_terms``
    picks, and each final term's segment postings (sorted by doc id) and
    df equal the oracle's for that orig."""
    cfg = EngineConfig()
    seg, oracle = Segment(cfg), OracleIndex(cfg)
    seen_rewrite = seen_flip = False
    for batch in _batches():
        _add(seg, batch)
        for url, ts, text in batch:
            oracle.add_page(url, ts, text)
        want = oracle.final_terms(prune_df1=False)
        keys = set(oracle.postings) | {t.upper() for t in oracle.postings}
        keys |= {"zzzunknownzzz", "ZZZUNKNOWNZZZ"}
        assert set(seg.vocab) == set(oracle.postings)
        for term in sorted(keys):
            assert seg.orig(term) == want.get(term), term
        for term, orig in want.items():
            df, doc, tf, dl = seg.postings(term)
            o = np.argsort(doc, kind="stable")
            pl = oracle.sorted_postings(orig)
            assert df == oracle.df[orig], term
            assert doc[o].tolist() == [p[0] for p in pl], term
            assert tf[o].tolist() == [p[4] for p in pl], term
            assert dl[o].tolist() == [p[1] for p in pl], term
        assert seg.postings("zzzunknownzzz") is None
        view = seg.view()
        assert view.ids.tolist() == sorted(oracle.doc_ts)
        assert view.ts.tolist() == [oracle.doc_ts[d] for d in view.ids]
        assert (seg.n_docs, seg.sum_dl) == (oracle.n_docs, oracle.sum_dl)
        seen_rewrite |= want.get("STRASSE") == "straße" \
            and "strasse" in oracle.global_capitals
        seen_flip |= oracle.global_capitals.get("zebra") is False
    # the crafted cases were reached: a collision won by the greater
    # orig, a flipped verdict, and an entity-pruned term
    assert seen_rewrite and seen_flip
    assert want["zebra"] == "zebra" and "ZEBRA" not in want
    assert want["strasse"] == "strasse" and want["STRASSE"] == "straße"
    assert "INFK" not in want and want["INFB"] == "INFB"


def test_segment_allocates_less_per_doc_than_oracle():
    """Traced bytes still held after adding the same pages (raw text not
    included in either): the columnar segment, refreshed, holds fewer
    per doc than the oracle's per-posting tuples."""
    cfg = EngineConfig(tokenizer="simple", prune_df1=False)
    pages = _rows(gen_pages(400))
    batches = [pages[j:j + 20] for j in range(0, len(pages), 20)]
    warm = Segment(cfg)
    for url, _ts, text in pages:   # warm the process-wide parser memo
        warm.parser.parse_page(url, text)

    def held(fill) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            keep = fill()
            gc.collect()
            got = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del keep
        return got

    def fill_segment():
        seg = Segment(cfg)
        for batch in batches:
            _add(seg, batch)
            seg.view()
        return seg

    def fill_oracle():
        oracle = OracleIndex(cfg)
        for url, ts, text in pages:
            oracle.add_page(url, ts, text)
        return oracle

    seg_b, ora_b = held(fill_segment), held(fill_oracle)
    assert seg_b / len(pages) < 0.75 * ora_b / len(pages), (seg_b, ora_b)


def test_nrt_module_does_not_import_oracle():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys, search_engine_ray.query.nrt; "
            "sys.exit('search_engine_ray.oracle' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], cwd=root,
                          timeout=120).returncode == 0
