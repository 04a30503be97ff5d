"""search_engine_ray — a Ray-Data-native full-text index + BM25 query engine.

A brand-new engine with the query/data-processing capabilities of the
reference tweet search engine (JonatanMilver/Search_Engine, snapshot at
/root/reference), re-expressed Ray-Data-first:

- ``ray.data.Dataset`` pipelines of ``map_batches`` over zero-copy Arrow
  batches (never per-row Python in hot paths);
- actor pools for stateful stages (tokenizer/stemmer state, GloVe cache);
- a document-sharded inverted index: postings are partitioned by
  ``doc_id % num_shards`` so no single reducer ever owns a head term's
  full posting list (the reference's ``rt`` term hits ~70% of docs);
- one bucketed ``groupby`` shuffle merges SPIMI-style partial posting
  runs, global side-aggregates (capitals-AND, entity counts, df) ride the
  same shuffle as typed rows;
- delta + varbyte compressed posting blobs (doc ids, tf, doc length,
  max tf, optional positions);
- a BM25 top-k query engine (exact term-at-a-time and block-max WAND)
  plus an exact reproduction of the reference's blended scorer
  (0.9·tf-idf-cosine + 0.05·BM25 + 0.05·GloVe-cosine, including its
  as-written quirks).

See SURVEY.md for the operator-by-operator mapping to the reference.
"""

from search_engine_ray.config import EngineConfig

__all__ = ["EngineConfig"]
__version__ = "0.1.0"
