"""Cross-layer pipeline orchestration.

``repro.crawler`` produces stores and ``repro.analysis`` consumes them;
this package owns the flows that span both layers at once.  Today that
is the streaming pipeline (:mod:`repro.pipeline.stream`), which folds
each crawl shard into the analysis dataset as it lands while preserving
the batch path's byte-identical outputs.
"""

from .stream import StreamRun, StreamStats, stream_crawl

__all__ = [
    "StreamRun",
    "StreamStats",
    "stream_crawl",
]
