"""Tree-comparison analyses: the paper's evaluation machinery.

The pipeline: build an :class:`~repro.analysis.dataset.AnalysisDataset`
from a measurement store, then feed it to the analyzers —
:class:`TreeStatsAnalyzer` (Table 2/Figs 1+3), :class:`DepthAnalyzer`
(Table 3), :class:`HorizontalAnalyzer`/:class:`VerticalAnalyzer`
(§4.1-4.2, Figs 2+4), :class:`ResourceTypeAnalyzer` (Table 4, Figs 5+7),
:class:`PartyAnalyzer` (§4.3), :class:`ProfileAnalyzer` (Tables 5+6),
and the case studies (§5.1-5.3, Appendix F).
"""

from .categories import (
    HIGH_THRESHOLD,
    MEDIUM_THRESHOLD,
    SimilarityCategory,
    categorize,
    category_shares,
)
from .children import ChildCountStats, ChildrenAnalyzer, DepthSimilarityPoint
from .comparability import ComparabilityReport, StudyComparator, StudySummary
from .comparison import NodeComparison, PageComparison
from .cookies_analysis import CookieAnalyzer, CookieReport
from .dataset import AnalysisDataset, PageEntry, StreamingDataset
from .depth import DepthAnalyzer, DepthSimilarityRow, TABLE3_FILTERS
from .headers import HeaderObservation, HeaderReport, SECURITY_HEADERS, SecurityHeaderAnalyzer
from .horizontal import (
    ChildSimilarityRecord,
    HorizontalAnalyzer,
    HorizontalResult,
    page_child_similarity,
)
from .jaccard import jaccard, overlap_count, pairwise_jaccard_matrix, pairwise_mean_jaccard
from .parties import PartyAnalyzer, PartyComparisonResult, PartyProfileStats
from .popularity import BucketRow, PopularityAnalyzer, PopularityReport
from .profiles import (
    PairwiseShare,
    ProfileAnalyzer,
    ProfilePairComparison,
    ProfileTreeTotals,
)
from .replication import ReplicationAnalyzer, ReplicationReport
from .resource_types import FIGURE5_TYPES, ResourceTypeAnalyzer, TypeChainRow
from .tracking import TrackingAnalyzer, TrackingReport
from .treestats import DepthTypeComposition, TreeOverview, TreeStatsAnalyzer
from .trust import ImplicitTrustAnalyzer, TrustReport
from .unique import UniqueNodeAnalyzer, UniqueNodeReport
from .variance import (
    CoverageCurve,
    FluctuationScore,
    VarianceAnalyzer,
    bootstrap_ci,
)
from .vertical import (
    ChainRecord,
    ChainStatistics,
    VerticalAnalyzer,
    page_parent_similarity,
)

__all__ = [
    "AnalysisDataset",
    "BucketRow",
    "ChainRecord",
    "ChainStatistics",
    "ChildCountStats",
    "ChildSimilarityRecord",
    "ChildrenAnalyzer",
    "ComparabilityReport",
    "CookieAnalyzer",
    "StudyComparator",
    "StudySummary",
    "CookieReport",
    "DepthAnalyzer",
    "DepthSimilarityPoint",
    "DepthSimilarityRow",
    "DepthTypeComposition",
    "FIGURE5_TYPES",
    "HeaderObservation",
    "HeaderReport",
    "SECURITY_HEADERS",
    "SecurityHeaderAnalyzer",
    "HIGH_THRESHOLD",
    "HorizontalAnalyzer",
    "HorizontalResult",
    "MEDIUM_THRESHOLD",
    "NodeComparison",
    "PageComparison",
    "PageEntry",
    "StreamingDataset",
    "PairwiseShare",
    "PartyAnalyzer",
    "PartyComparisonResult",
    "PartyProfileStats",
    "PopularityAnalyzer",
    "PopularityReport",
    "ProfileAnalyzer",
    "ProfilePairComparison",
    "ProfileTreeTotals",
    "ReplicationAnalyzer",
    "ReplicationReport",
    "ResourceTypeAnalyzer",
    "SimilarityCategory",
    "TABLE3_FILTERS",
    "TrackingAnalyzer",
    "TrackingReport",
    "TreeOverview",
    "TreeStatsAnalyzer",
    "ImplicitTrustAnalyzer",
    "TrustReport",
    "TypeChainRow",
    "CoverageCurve",
    "FluctuationScore",
    "UniqueNodeAnalyzer",
    "UniqueNodeReport",
    "VarianceAnalyzer",
    "bootstrap_ci",
    "categorize",
    "category_shares",
    "jaccard",
    "overlap_count",
    "page_child_similarity",
    "page_parent_similarity",
    "pairwise_jaccard_matrix",
    "pairwise_mean_jaccard",
]
