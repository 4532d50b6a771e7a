"""Tests for public-suffix handling and eTLD+1 extraction."""

import pytest

from repro.web import psl


class TestPublicSuffix:
    def test_simple_tld(self):
        assert psl.public_suffix("example.com") == "com"

    def test_second_level_suffix(self):
        assert psl.public_suffix("foo.example.co.uk") == "co.uk"

    def test_longest_rule_wins(self):
        # github.io is itself a public suffix, not just "io".
        assert psl.public_suffix("user.github.io") == "github.io"

    def test_unknown_tld_defaults_to_last_label(self):
        assert psl.public_suffix("weird.notarealtld") == "notarealtld"

    def test_wildcard_rule(self):
        assert psl.public_suffix("shop.foo.ck") == "foo.ck"

    def test_wildcard_exception(self):
        # !www.ck: the registrable domain is www.ck, public suffix is ck.
        assert psl.public_suffix("www.ck") == "ck"

    def test_empty_host(self):
        assert psl.public_suffix("") is None

    def test_case_and_trailing_dot_insensitive(self):
        assert psl.public_suffix("Example.COM.") == "com"

    @pytest.mark.parametrize("host", ["10.0.0.1", "192.168.0.1", "::1", "[::1]", "2001:db8::1"])
    def test_ip_literal_has_none(self, host):
        assert psl.public_suffix(host) is None


class TestRegistrableDomain:
    def test_basic(self):
        assert psl.registrable_domain("tracker.cdn.ads-example.com") == "ads-example.com"

    def test_two_level_suffix(self):
        assert psl.registrable_domain("a.b.example.co.uk") == "example.co.uk"

    def test_bare_suffix_has_none(self):
        assert psl.registrable_domain("co.uk") is None
        assert psl.registrable_domain("com") is None

    def test_exact_domain(self):
        assert psl.registrable_domain("example.de") == "example.de"

    def test_hosting_suffix(self):
        assert psl.registrable_domain("project.user.github.io") == "user.github.io"

    def test_empty(self):
        assert psl.registrable_domain("") is None

    @pytest.mark.parametrize("host", ["10.0.0.1", "192.168.0.1", "::1", "[::1]"])
    def test_ip_literal_has_none(self, host):
        # Not "0.1": an address is not a domain name.
        assert psl.registrable_domain(host) is None


class TestSameSite:
    def test_same_host(self):
        assert psl.same_site("example.com", "example.com")

    def test_subdomains_are_same_site(self):
        assert psl.same_site("a.example.com", "b.example.com")

    def test_different_sites(self):
        assert not psl.same_site("example.com", "example.org")

    def test_public_suffix_is_same_site_only_with_itself(self):
        # HTML's "schemelessly same site": a host without a registrable
        # domain compares by equality.
        assert psl.same_site("co.uk", "CO.UK.")
        assert not psl.same_site("co.uk", "example.co.uk")
        assert not psl.same_site("co.uk", "org.uk")

    def test_ip_literal_is_same_site_only_with_itself(self):
        assert psl.same_site("10.0.0.1", "10.0.0.1")
        assert psl.same_site("::1", "::1")
        # Both used to map to the "site" 0.1.
        assert not psl.same_site("10.0.0.1", "192.168.0.1")
        assert not psl.same_site("::1", "::2")
        assert not psl.same_site("10.0.0.1", "example.com")

    def test_localhost_is_same_site_with_itself(self):
        assert psl.same_site("localhost", "localhost")
        assert not psl.same_site("localhost", "example.com")

    def test_empty_host_is_never_same_site(self):
        assert not psl.same_site("", "")
        assert not psl.same_site("", "example.com")

    def test_hosting_platform_users_are_different_sites(self):
        # The PSL exists exactly for this: two github.io users are
        # different sites even though they share a domain.
        assert not psl.same_site("alice.github.io", "bob.github.io")

    @pytest.mark.parametrize(
        "host_a,host_b",
        [("www.site.de", "cdn.site.de"), ("site.com.br", "shop.site.com.br")],
    )
    def test_same_site_pairs(self, host_a, host_b):
        assert psl.same_site(host_a, host_b)
