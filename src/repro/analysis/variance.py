"""Measurement-variance metrics (paper takeaways #1 and #4).

The paper closes with two calls to action: *develop a metric to assess the
potential error/variance of a Web measurement* (§4.4, takeaway 1) and
*use different profiles and multiple measurements to gauge 'randomized'
findings* (takeaway 4).  This module implements both:

* :class:`FluctuationScore` — a per-page measurement-fluctuation index in
  [0, 1] combining node-presence dispersion, child-set instability, and
  parent instability.  0 means every profile saw the same tree; 1 means
  the profiles have (almost) nothing in common.
* :class:`CoverageCurve` — how much of a page's *union* behaviour k
  profiles capture, for k = 1..n: the quantitative answer to "how many
  measurements do I need?".
* :func:`bootstrap_ci` — a nonparametric bootstrap confidence interval for
  any per-page statistic, quantifying the sampling error a study of N
  pages carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

from ..rng import child_rng
from ..stats.descriptive import Summary, safe_mean, summarize
from .comparison import PageComparison
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class FluctuationScore:
    """The per-page measurement-fluctuation index and its components.

    ``presence`` — 1 minus the mean share of profiles a node appears in;
    ``children`` — 1 minus the mean child-set similarity of recurring
    nodes; ``parents`` — 1 minus the mean parent similarity.  ``score`` is
    their arithmetic mean; all components live in [0, 1].
    """

    page_url: str
    presence: float
    children: float
    parents: float

    @property
    def score(self) -> float:
        return (self.presence + self.children + self.parents) / 3.0

    def band(self) -> str:
        """A coarse verbal interpretation of the score."""
        if self.score < 0.15:
            return "stable"
        if self.score < 0.35:
            return "moderately fluctuating"
        return "highly fluctuating"


@dataclass(frozen=True)
class CoverageCurve:
    """Expected union coverage by k profiles, for k = 1..n.

    ``coverage[k]`` is the expected fraction of the union of all observed
    node keys that a random k-subset of the profiles captures (averaged
    over all k-subsets).  The curve starts below 1 and must reach 1.0 at
    k = n by construction.
    """

    page_url: str
    coverage: Dict[int, float]

    @property
    def single_profile_coverage(self) -> float:
        return self.coverage[1]

    def profiles_needed(self, target: float) -> Optional[int]:
        """Smallest k whose expected coverage reaches ``target``."""
        for k in sorted(self.coverage):
            if self.coverage[k] >= target:
                return k
        return None


class VarianceAnalyzer:
    """Computes fluctuation scores and coverage curves."""

    # -- fluctuation -----------------------------------------------------------

    def fluctuation(self, comparison: PageComparison) -> FluctuationScore:
        """The fluctuation index of one page."""
        nodes = comparison.nodes()
        profile_count = len(comparison.profiles)
        if not nodes:
            return FluctuationScore(
                page_url=comparison.page_url, presence=0.0, children=0.0, parents=0.0
            )
        presence = 1.0 - safe_mean(
            [node.presence_count / profile_count for node in nodes]
        )
        child_sims = [
            node.child_similarity()
            for node in nodes
            if node.has_children
        ]
        children = 1.0 - safe_mean(child_sims, default=1.0)
        parents = 1.0 - safe_mean([node.parent_similarity() for node in nodes])
        return FluctuationScore(
            page_url=comparison.page_url,
            presence=presence,
            children=children,
            parents=parents,
        )

    def fluctuation_summary(self, dataset: AnalysisDataset) -> Summary:
        """Distribution of the fluctuation index across a dataset."""
        return summarize(
            [self.fluctuation(entry.comparison).score for entry in dataset]
        )

    # -- coverage ---------------------------------------------------------------

    def coverage_curve(self, comparison: PageComparison) -> CoverageCurve:
        """Union coverage by profile-subset size for one page."""
        key_sets = {
            profile: frozenset(tree.keys())
            for profile, tree in comparison.trees.items()
        }
        union = frozenset().union(*key_sets.values())
        profiles = list(key_sets)
        coverage: Dict[int, float] = {}
        if not union:
            return CoverageCurve(
                page_url=comparison.page_url,
                coverage={k: 1.0 for k in range(1, len(profiles) + 1)},
            )
        for k in range(1, len(profiles) + 1):
            shares = [
                len(frozenset().union(*(key_sets[p] for p in subset))) / len(union)
                for subset in combinations(profiles, k)
            ]
            coverage[k] = sum(shares) / len(shares)
        return CoverageCurve(page_url=comparison.page_url, coverage=coverage)

    def mean_coverage_curve(self, dataset: AnalysisDataset) -> Dict[int, float]:
        """The dataset-average coverage curve (takeaway #4's answer)."""
        accumulator: Dict[int, List[float]] = {}
        for entry in dataset:
            curve = self.coverage_curve(entry.comparison)
            for k, value in curve.coverage.items():
                accumulator.setdefault(k, []).append(value)
        return {k: safe_mean(values) for k, values in sorted(accumulator.items())}

    def profiles_needed(
        self, dataset: AnalysisDataset, target: float = 0.95
    ) -> Optional[int]:
        """How many profiles does the average page need for ``target``?"""
        curve = self.mean_coverage_curve(dataset)
        for k in sorted(curve):
            if curve[k] >= target:
                return k
        return None


def bootstrap_ci(
    dataset: AnalysisDataset,
    statistic: Callable[[PageComparison], Optional[float]],
    iterations: int = 500,
    confidence: float = 0.95,
    seed: int = 0,
) -> Tuple[float, float, float]:
    """Bootstrap a per-page statistic: returns (point, low, high).

    ``statistic`` maps a page comparison to a value (``None`` to skip the
    page).  Resampling is over pages — the unit the paper's aggregates
    average over — giving the sampling error a study of this many pages
    should report alongside its point estimate.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    values = [
        value
        for value in (statistic(entry.comparison) for entry in dataset)
        if value is not None
    ]
    if not values:
        raise ValueError("statistic produced no values")
    rng = child_rng(seed, "bootstrap")
    point = sum(values) / len(values)
    replicates = []
    for _ in range(iterations):
        sample = [values[rng.randrange(len(values))] for _ in values]
        replicates.append(sum(sample) / len(sample))
    replicates.sort()
    alpha = (1.0 - confidence) / 2.0
    low_index = int(alpha * (iterations - 1))
    high_index = int((1.0 - alpha) * (iterations - 1))
    return point, replicates[low_index], replicates[high_index]
