"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AnalysisError,
    BlueprintError,
    CrawlError,
    ExperimentError,
    FilterParseError,
    InvalidURLError,
    ReproError,
    StorageError,
    TreeConstructionError,
    UnknownFrameError,
    VisitFailed,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            AnalysisError,
            BlueprintError,
            CrawlError,
            ExperimentError,
            FilterParseError,
            InvalidURLError,
            StorageError,
            TreeConstructionError,
            UnknownFrameError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_value_error_compatibility(self):
        # Parsing errors double as ValueErrors for stdlib-style handling.
        assert issubclass(InvalidURLError, ValueError)
        assert issubclass(FilterParseError, ValueError)

    def test_unknown_frame_key_error_compatibility(self):
        # Mapping-style frame lookups historically raised KeyError.
        assert issubclass(UnknownFrameError, KeyError)
        assert str(UnknownFrameError(3)) == "unknown frame: 3"

    def test_storage_is_crawl_error(self):
        assert issubclass(StorageError, CrawlError)

    def test_visit_failed_carries_context(self):
        error = VisitFailed("https://e.com/", "timeout")
        assert error.url == "https://e.com/"
        assert error.reason == "timeout"
        assert "timeout" in str(error)
        assert isinstance(error, CrawlError)

    def test_single_except_catches_everything(self):
        for exc_type in (AnalysisError, VisitFailed, FilterParseError):
            try:
                if exc_type is VisitFailed:
                    raise exc_type("u", "r")
                raise exc_type("boom")
            except ReproError:
                pass
