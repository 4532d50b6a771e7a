"""Tests for the filter-list matching engine."""

from dataclasses import fields
from itertools import product

import pytest

from repro.blocklist import build_combined_list, build_filter_list, matcher
from repro.blocklist.matcher import FilterList, MatchContext
from repro.blocklist.parser import parse_filter
from repro.web.entities import EntityCategory
from repro.web.resources import ResourceType

LIST_TEXT = """[Adblock Plus 2.0]
! test list
||ads.com^
||analytics.com^$third-party
||media.com^$image
/pixel.gif?
@@||ads.com/allowed.js$script
"""


def make_list():
    return FilterList.from_text(LIST_TEXT)


class TestBlocking:
    def test_domain_rule_blocks(self):
        assert make_list().is_tracking("https://ads.com/x.js")

    def test_subdomain_blocked(self):
        assert make_list().is_tracking("https://cdn.ads.com/x.js")

    def test_unlisted_not_blocked(self):
        assert not make_list().is_tracking("https://benign.com/x.js")

    def test_generic_rule(self):
        assert make_list().is_tracking("https://anything.org/pixel.gif?uid=1")

    def test_match_result_carries_filter(self):
        result = make_list().match("https://ads.com/x.js")
        assert result.blocked
        assert result.matched_filter.pattern.startswith("||ads.com")


class TestExceptions:
    def test_exception_overrides_block(self):
        flt = make_list()
        result = flt.match(
            "https://ads.com/allowed.js",
            MatchContext(resource_type=ResourceType.SCRIPT),
        )
        assert not result.blocked
        assert result.exception_filter is not None

    def test_exception_type_specific(self):
        # Same URL as an image is still blocked: the exception is $script.
        flt = make_list()
        result = flt.match(
            "https://ads.com/allowed.js",
            MatchContext(resource_type=ResourceType.IMAGE),
        )
        assert result.blocked


class TestOptionsInContext:
    def test_third_party_option_respected(self):
        flt = make_list()
        # First-party context: analytics.com page loading analytics.com.
        assert not flt.is_tracking(
            "https://analytics.com/a.js", page_url="https://analytics.com/"
        )
        # Third-party context: some site embedding analytics.com.
        assert flt.is_tracking(
            "https://analytics.com/a.js", page_url="https://news.com/"
        )

    def test_third_party_option_without_page_context(self):
        # No page URL -> the third-party constraint cannot be evaluated
        # positively, so the filter does not fire.
        assert not make_list().is_tracking("https://analytics.com/a.js")

    def test_type_option_respected(self):
        flt = make_list()
        assert flt.is_tracking(
            "https://media.com/a.png", resource_type=ResourceType.IMAGE
        )
        assert not flt.is_tracking(
            "https://media.com/a.js", resource_type=ResourceType.SCRIPT
        )


class TestMalformedAuthority:
    """A URL or page URL whose authority does not parse has no host, like
    ``"not a url"``: the list still gives a verdict."""

    @pytest.mark.parametrize("authority", ["[::1", "exa\uff0fmple.com"])
    def test_url(self, authority):
        flt = make_list()
        assert flt.is_tracking(f"http://{authority}/pixel.gif?uid=1")
        assert not flt.is_tracking(f"http://{authority}/x.js")

    @pytest.mark.parametrize("page_url", ["http://[::1/", "http://exa\uff0fmple.com/"])
    def test_page_url(self, page_url):
        flt = make_list()
        assert flt.is_tracking("https://ads.com/x.js", page_url=page_url)
        # No page host: $third-party cannot fire, as with no page URL.
        assert not flt.is_tracking("https://analytics.com/a.js", page_url=page_url)


class TestScale:
    def test_len(self):
        assert len(make_list()) == 5

    def test_many_urls_fast(self):
        flt = make_list()
        for i in range(500):
            flt.is_tracking(f"https://site{i}.com/asset.png")

    def test_empty_list_blocks_nothing(self):
        assert not FilterList([]).is_tracking("https://ads.com/x")


CONTEXT_LIST = """||typed.com^$script
||party.com^$third-party
||scoped.com^$domain=news.com
"""


class TestVerdictMemo:
    """A memoized verdict is keyed by the whole context, not the URL alone."""

    def test_key_covers_every_context_field(self):
        # FilterList.match keys on these; a new field must join the key.
        assert [field.name for field in fields(MatchContext)] == ["resource_type", "page_url"]

    @pytest.mark.parametrize(
        "url,blocked,allowed",
        [
            (
                "https://typed.com/a.js",
                MatchContext(resource_type=ResourceType.SCRIPT),
                MatchContext(resource_type=ResourceType.IMAGE),
            ),
            (
                "https://party.com/a.js",
                MatchContext(page_url="https://news.com/"),
                MatchContext(page_url="https://www.party.com/"),
            ),
            (
                "https://scoped.com/a.js",
                MatchContext(page_url="https://news.com/"),
                MatchContext(page_url="https://blog.com/"),
            ),
        ],
    )
    @pytest.mark.parametrize("blocked_first", [True, False])
    def test_context_changes_the_verdict(self, url, blocked, allowed, blocked_first):
        flt = FilterList.from_text(CONTEXT_LIST)
        order = [blocked, allowed] if blocked_first else [allowed, blocked]
        for _ in range(3):  # the first call, then memoized repeats
            for context in order:
                # An equal context built anew must hit the same entry.
                fresh = MatchContext(context.resource_type, context.page_url)
                assert flt.match(url, fresh).blocked is (context is blocked)

    def test_memoized_verdict_equals_a_fresh_lists(self):
        warm = make_list()
        urls = [
            "https://ads.com/allowed.js",
            "https://analytics.com/a.js",
            "https://anything.org/pixel.gif?uid=1",
            "https://benign.com/x.js",
        ]
        contexts = [
            MatchContext(),
            MatchContext(ResourceType.SCRIPT, "https://news.com/"),
            MatchContext(ResourceType.IMAGE, "https://analytics.com/"),
        ]
        for _ in range(2):
            for url in urls:
                for context in contexts:
                    assert warm.match(url, context) == make_list().match(url, context)


class TestHostMemo:
    """URL hosts and host suffixes are parsed once per process and shared
    by every list; the verdicts do not depend on what ran before."""

    @staticmethod
    def grid(ecosystem):
        domains = [ecosystem.by_category(category)[0].primary_domain for category in EntityCategory]
        paths = ["/cmp/stub.js", "/sdk.js", "/api/counts", "/live", "/pixel.gif?uid=1", "/lib.js"]
        urls = [f"https://{domain}{path}" for domain in domains for path in paths]
        urls += [f"https://cdn.{domain}/sync?partner=1" for domain in domains]
        # A generic rule blocks it and the consent stub's exception lifts it.
        consent = ecosystem.by_category(EntityCategory.CONSENT)[0].primary_domain
        urls.append(f"https://{consent}/cmp/stub.js?r=/pixel.gif?uid=3")
        urls += [
            "http://[::1/a.js",
            "not a url",
            f"https://user:pw@www.{domains[0]}:8443/pixel.gif?uid=2",
            "http://[2001:db8::1]:8080/viewability.js",
        ]
        types = [ResourceType.SCRIPT, ResourceType.IMAGE, ResourceType.XHR,
                 ResourceType.WEBSOCKET, ResourceType.OTHER]
        pages = [None, "https://news.com/", f"https://www.{domains[0]}/", "http://[::1/",
                 "not a url", "https://user@[::1]:8080/"]
        return list(product(urls, types, pages))

    @staticmethod
    def verdicts(lists, grid):
        return {
            name: [flt.match(url, MatchContext(rtype, page)) for url, rtype, page in grid]
            for name, flt in lists
        }

    def test_cold_warm_and_either_order_agree(self, generator):
        ecosystem = generator.ecosystem
        grid = self.grid(ecosystem)

        def fresh_lists():
            return [("easylist", build_filter_list(ecosystem)),
                    ("combined", build_combined_list(ecosystem))]

        matcher._host.cache_clear()
        matcher._host_suffixes.cache_clear()
        cold = self.verdicts(fresh_lists(), grid)
        assert matcher._host.cache_info().currsize > 0
        warm_lists = fresh_lists()
        warm = self.verdicts(warm_lists, grid)
        memoized = self.verdicts(warm_lists, grid)
        matcher._host.cache_clear()
        matcher._host_suffixes.cache_clear()
        reversed_order = self.verdicts(reversed(fresh_lists()), grid)
        assert cold == warm == memoized == reversed_order
        blocked = [result.blocked for result in cold["combined"]]
        assert any(blocked) and not all(blocked)
        assert any(result.exception_filter for result in cold["easylist"])
        assert cold["easylist"] != cold["combined"]


def _full_allows_type(options, resource_type):
    return (
        not options.include_types or resource_type in options.include_types
    ) and resource_type not in options.exclude_types


def _full_allows_page_domain(options, page_domain):
    if page_domain is None:
        return not options.include_domains
    host = page_domain.lower()

    def hit(domain):
        return host == domain or host.endswith("." + domain)

    if any(hit(domain) for domain in options.exclude_domains):
        return False
    return not options.include_domains or any(hit(domain) for domain in options.include_domains)


class TestOptionFastPaths:
    """A filter without a type or ``domain=`` option answers at once, as the
    full checks would."""

    @pytest.mark.parametrize(
        "option", ["$script", "$~script", "$domain=a.com|~b.com", "$domain=~b.com", ""]
    )
    def test_fast_paths_equal_full_checks(self, option):
        options = parse_filter(f"/ad.js{option}").options
        for resource_type in ResourceType:
            assert options.allows_type(resource_type) is _full_allows_type(
                options, resource_type
            ), resource_type
        for page_domain in [None, "a.com", "www.A.com", "b.com", "x.b.com", "c.com", ""]:
            assert options.allows_page_domain(page_domain) is _full_allows_page_domain(
                options, page_domain
            ), page_domain
