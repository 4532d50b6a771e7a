"""Exception hierarchy for the ``repro`` package.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch package-level failures with a single ``except`` clause
while still letting programming errors (``TypeError`` and friends) surface.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class InvalidURLError(ReproError, ValueError):
    """Raised when a string cannot be parsed as a URL."""


class BlueprintError(ReproError):
    """Raised when a site/page blueprint is structurally invalid."""


class CrawlError(ReproError):
    """Raised when the crawl framework encounters an unrecoverable problem."""


class VisitFailed(CrawlError):
    """Raised by the browser engine when a page visit fails (e.g. timeout).

    The crawler catches this and records the visit as unsuccessful; the
    analysis then drops pages that were not crawled by all profiles, exactly
    as the paper does.
    """

    def __init__(self, url: str, reason: str) -> None:
        super().__init__(f"visit to {url} failed: {reason}")
        self.url = url
        self.reason = reason


class TransientCrawlError(CrawlError):
    """Base for *retryable* visit failures.

    Subclasses must carry a machine-readable ``failure_reason`` naming a
    fault from :mod:`repro.web.faults`: the retry layer dispatches on the
    reason, so a transient error without one would be retried blindly —
    or not at all (the golden digests and the retry tests catch it).
    """

    #: The fault-taxonomy reason; subclasses set it (class attribute or
    #: per instance in ``__init__``).
    failure_reason: str = ""


class StorageError(CrawlError):
    """Raised when the measurement store rejects an operation."""


class UnknownFrameError(CrawlError, KeyError):
    """Raised when a frame id is not present in a visit's frame tree.

    Also derives from ``KeyError`` so mapping-style callers
    (``FrameTree.get``/``create_subframe``) can keep catching the lookup
    failure they historically got.
    """

    def __init__(self, frame_id: int) -> None:
        super().__init__(f"unknown frame: {frame_id}")
        self.frame_id = frame_id

    def __str__(self) -> str:
        # KeyError.__str__ repr-quotes its argument; show the plain message.
        return Exception.__str__(self)


class FilterParseError(ReproError, ValueError):
    """Raised when an Adblock-Plus filter line cannot be parsed."""


class TreeConstructionError(ReproError):
    """Raised when a dependency tree cannot be built from visit records."""


class AnalysisError(ReproError):
    """Raised when an analysis routine receives inconsistent input."""


class ExperimentError(ReproError):
    """Raised when an experiment harness is misconfigured."""


class ObsError(ReproError):
    """Raised when the observability layer is misconfigured.

    Bad histogram bucket edges, conflicting metric registrations, and
    malformed trace files all land here rather than silently producing
    garbage telemetry — mismeasured measurements are worse than none.
    """


class LedgerError(ObsError):
    """Raised when the run ledger cannot append, load, or diff a record.

    Malformed index lines, unknown or ambiguous run-id references, and
    records whose schema version this code cannot read all land here —
    a provenance registry that silently skips what it cannot parse would
    defeat its own purpose.
    """


class BundleError(ReproError):
    """Raised when a crawl bundle cannot be recorded, opened, or replayed.

    Covers structural problems (missing manifest, unknown format version,
    schema-version mismatch) and integrity failures (a member whose
    payload does not hash to its manifest digest) — a bundle that fails
    verification must never silently stand in for the crawl it archives.
    """
