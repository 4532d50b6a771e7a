"""Crawl framework: Tranco sampling, discovery, storage, clients, commander.

This subpackage reproduces the measurement framework of Demir et al. that
the paper builds on (Appendix C): a commander orchestrating per-profile
clients with site-level synchronization, consolidating results into a
single store.
"""

from .client import CrawlClient, SiteVisitPlan
from .commander import Commander, CrawlSummary, ShardHandoff, SiteSchedule, run_measurement
from .discovery import DiscoveryResult, discover_pages, first_party_links
from .retry import NO_RETRIES, RetryPolicy
from .storage import SCHEMA_VERSION, MeasurementStore
from .tranco import (
    PAPER_BUCKETS,
    RankBucket,
    RankedList,
    bucket_for_rank,
    sample_paper_buckets,
)

__all__ = [
    "Commander",
    "CrawlClient",
    "CrawlSummary",
    "DiscoveryResult",
    "MeasurementStore",
    "NO_RETRIES",
    "PAPER_BUCKETS",
    "RankBucket",
    "RankedList",
    "RetryPolicy",
    "ShardHandoff",
    "SCHEMA_VERSION",
    "SiteSchedule",
    "SiteVisitPlan",
    "bucket_for_rank",
    "discover_pages",
    "first_party_links",
    "run_measurement",
    "sample_paper_buckets",
]
