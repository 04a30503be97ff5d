"""Engine configuration.

Reference analogue: ``ConfigClass`` (/root/reference/configuration.py:4-24),
whose only knob is the stemming bool. The rebuild adds the partitioning /
batching knobs that the reference expressed as hard-coded spill thresholds
(/root/reference/indexer.py:21-23).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict


@dataclass
class EngineConfig:
    # --- reference-visible semantics knobs ---
    stemming: bool = False          # reference: ConfigClass.toStem
    tokenizer: str = "treebank"     # "treebank" (reference-like) | "simple" (SQL-checkable)
    positions: bool = False         # store term positions in postings
                                    # (phrase/proximity serving; ~doubles
                                    # index size, so off by default)
    raw_tokens: bool = False        # bypass ALL parser normalization:
                                    # tokens = tokenizer(text) verbatim
                                    # (positional indexes that must match
                                    # a plain-tokenization oracle)
    bm25_k1: float = 1.2            # /root/reference/ranker.py:94
    bm25_b: float = 0.75            # /root/reference/ranker.py:95
    min_match_ratio: float = 0.35   # /root/reference/searcher.py:67
    w_cos_weight: float = 0.9       # /root/reference/ranker.py:76-78
    bm25_weight: float = 0.05
    glove_weight: float = 0.05
    glove_dim: int = 25
    glove_path: "str | None" = None  # real GloVe snapshot (txt or parquet,
                                     # glove.py); None -> deterministic
                                     # synthetic stand-in

    # --- physical layout / scale knobs ---
    num_shards: int = 8             # doc_id % num_shards postings partitioning
    term_buckets: int = 32          # posting shuffle partition count AND
                                    # query-side directory pruning granularity
    block_size: int = 128           # postings per block in bm25_wand's
                                    # query-time block bounds
    parse_batch_size: int = 1024    # docs per parser batch
    parse_part_rows: int = 4096     # target rows per parse partition (the
                                    # per-partition commit/resume unit;
                                    # row-group chunks are never split, so
                                    # coarse-row-group inputs degrade to
                                    # per-file granularity)
    run_batch_size: int = 16384     # docs per SPIMI run-builder batch
                                    # (bigger batch => longer runs => fewer
                                    # rows through the posting shuffle)
    parser_concurrency: int = 4     # parser actor pool size
    prune_df1: bool = True          # reference df==1 prune (/root/reference/indexer.py:167-169)
    harvest_page_url: bool = True   # pages input: treat the row url as the harvested URL set

    # fields that change the INDEX CONTENT (not just how fast it builds);
    # only these participate in checkpoint fingerprints, so tuning
    # concurrency/batch knobs never forces a rebuild
    _SEMANTIC_FIELDS = (
        "stemming", "tokenizer", "positions", "raw_tokens", "bm25_k1",
        "bm25_b", "min_match_ratio", "w_cos_weight", "bm25_weight",
        "glove_weight", "glove_dim", "glove_path", "num_shards",
        "term_buckets", "block_size", "prune_df1", "harvest_page_url",
    )

    def fingerprint(self) -> str:
        """Stable hash of semantics-affecting fields, recorded in manifests."""
        d = asdict(self)
        payload = json.dumps({k: d[k] for k in self._SEMANTIC_FIELDS},
                             sort_keys=True).encode()
        return hashlib.blake2b(payload, digest_size=8).hexdigest()
