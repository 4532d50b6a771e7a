"""Tests for URL normalization (the paper's node-identity step)."""

import pytest

from repro.trees.normalize import NormalizationStats, UrlNormalizer, normalize_url


class TestNormalizeUrl:
    def test_strips_query_values(self):
        assert (
            normalize_url("https://foo.com/scriptA.js?s_id=1234")
            == "https://foo.com/scriptA.js?s_id="
        )

    def test_paper_example_equality(self):
        a = normalize_url("https://foo.com/scriptA.js?s_id=1234")
        b = normalize_url("https://foo.com/scriptA.js?s_id=abcd")
        assert a == b

    def test_keeps_keys_in_order(self):
        assert (
            normalize_url("https://e.com/x?b=2&a=1")
            == "https://e.com/x?b=&a="
        )

    def test_no_query_untouched(self):
        assert normalize_url("https://e.com/x") == "https://e.com/x"

    def test_disabled_keeps_values(self):
        assert (
            normalize_url("https://e.com/x?a=1", strip_query_values=False)
            == "https://e.com/x?a=1"
        )

    def test_idempotent(self):
        once = normalize_url("https://e.com/x?a=1&b=two")
        assert normalize_url(once) == once

    def test_unparseable_returned_verbatim(self):
        assert normalize_url("not-a-url") == "not-a-url"


class TestNormalizerStats:
    def test_changed_ratio(self):
        normalizer = UrlNormalizer()
        normalizer.normalize("https://e.com/a?x=1")  # changed
        normalizer.normalize("https://e.com/b")  # unchanged
        assert normalizer.stats.total == 2
        assert normalizer.stats.changed == 1
        assert normalizer.stats.changed_ratio == 0.5

    def test_cache_still_counts(self):
        normalizer = UrlNormalizer()
        for _ in range(3):
            normalizer.normalize("https://e.com/a?x=1")
        assert normalizer.stats.total == 3
        assert normalizer.stats.changed == 3

    def test_unparseable_counted(self):
        normalizer = UrlNormalizer()
        normalizer.normalize("::garbage::")
        assert normalizer.stats.unparseable == 1

    @pytest.mark.parametrize("raw", ["http://[::1/a.js", "http://exa\uff0fmple.com/a"])
    def test_malformed_authority_counted_unparseable(self, raw):
        normalizer = UrlNormalizer()
        assert normalizer.normalize(raw) == raw
        assert normalizer.parse(raw) is None
        assert (normalizer.stats.total, normalizer.stats.unparseable) == (1, 1)

    def test_parse_lenient(self):
        normalizer = UrlNormalizer()
        assert normalizer.parse("https://e.com/") is not None
        assert normalizer.parse("garbage") is None

    def test_stats_count_per_normalizer(self):
        # The key mapping is shared process-wide; the counts are not.
        urls = ["https://e.com/a?x=1", "https://e.com/b", "::garbage::", "https://e.com/a?x=2"]
        first, second = UrlNormalizer(), UrlNormalizer()
        keys = [[normalizer.normalize(url) for url in urls] for normalizer in (first, second)]
        assert keys[0] == keys[1]
        expected = NormalizationStats(total=4, changed=2, unparseable=1)
        assert first.stats == expected
        assert second.stats == expected

    def test_modes_do_not_share_keys(self):
        url = "https://e.com/a?x=1"
        assert UrlNormalizer().normalize(url) == "https://e.com/a?x="
        assert UrlNormalizer(strip_query_values=False).normalize(url) == url
        assert UrlNormalizer().normalize(url) == "https://e.com/a?x="
