"""Rule unit tests: one positive and one negative snippet per behaviour."""

import textwrap

from repro.devtools.lint import build_rules, lint_source
from repro.devtools.lint.rules.obs import _REGISTRY_MUTATORS
from repro.obs.metrics import Counter, Histogram, MetricsRegistry


def check(rule_id, source):
    """Lint a snippet with a single rule; return the rule ids that fired."""
    rules = build_rules(select=[rule_id])
    violations = lint_source(textwrap.dedent(source), path="snippet.py", rules=rules)
    return [v.rule_id for v in violations]


class TestDet004DirectoryListings:
    def test_listdir(self):
        assert check("DET004", "import os\nnames = os.listdir(p)\n") == ["DET004"]

    def test_glob(self):
        assert check("DET004", "import glob\nnames = glob.glob(p)\n") == ["DET004"]

    def test_from_import(self):
        src = "from glob import glob\nnames = glob(p)\n"
        assert check("DET004", src) == ["DET004"]

    def test_os_walk(self):
        src = "import os\nfor root, dirs, files in os.walk(p):\n    pass\n"
        assert check("DET004", src) == ["DET004"]

    def test_sorted_listing_is_fine(self):
        assert check("DET004", "import os\nnames = sorted(os.listdir(p))\n") == []

    def test_unrelated_os_call_is_fine(self):
        assert check("DET004", "import os\np = os.path.join(a, b)\n") == []


SCHEMA_PREFIX = '''
_SCHEMA = """
CREATE TABLE visits (
    visit_id INTEGER PRIMARY KEY,
    page_url TEXT NOT NULL
);
CREATE INDEX idx ON visits (page_url);
"""
'''


COOKIE_SCHEMA_PREFIX = '''
_SCHEMA = """
CREATE TABLE javascript_cookies (
    visit_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    domain TEXT NOT NULL,
    path TEXT NOT NULL,
    set_by_url TEXT NOT NULL
);
"""
'''


class TestSql002UniqueOrdering:
    def test_partial_order_on_logical_key_table_flagged(self):
        # The pre-fix cookies query: ties on (domain, name) are possible.
        src = COOKIE_SCHEMA_PREFIX + (
            'Q = "SELECT * FROM javascript_cookies WHERE visit_id = ? '
            'ORDER BY domain, name"\n'
        )
        assert check("SQL002", src) == ["SQL002"]

    def test_total_order_on_logical_key_table_ok(self):
        src = COOKIE_SCHEMA_PREFIX + (
            'Q = "SELECT * FROM javascript_cookies WHERE visit_id = ? '
            'ORDER BY domain, name, path, set_by_url"\n'
        )
        assert check("SQL002", src) == []

    def test_equality_pin_counts_toward_coverage(self):
        # visit_id is never in the ORDER BY but is pinned by `= ?`.
        src = COOKIE_SCHEMA_PREFIX + (
            'Q = "SELECT * FROM javascript_cookies '
            'ORDER BY domain, name, path, set_by_url"\n'
        )
        assert check("SQL002", src) == ["SQL002"]

    def test_order_by_primary_key_ok(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM visits ORDER BY visit_id"\n'
        assert check("SQL002", src) == []

    def test_order_by_non_key_column_flagged(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM visits ORDER BY page_url"\n'
        assert check("SQL002", src) == ["SQL002"]

    def test_group_by_defines_the_key(self):
        src = SCHEMA_PREFIX + (
            'Q = "SELECT page_url, COUNT(*) FROM visits '
            'GROUP BY page_url ORDER BY page_url"\n'
        )
        assert check("SQL002", src) == []

    def test_group_by_key_not_covered_flagged(self):
        src = SCHEMA_PREFIX + (
            'Q = "SELECT page_url, visit_id, COUNT(*) FROM visits '
            'GROUP BY page_url, visit_id ORDER BY page_url"\n'
        )
        assert check("SQL002", src) == ["SQL002"]

    def test_distinct_select_defines_the_key(self):
        src = SCHEMA_PREFIX + (
            'Q = "SELECT DISTINCT page_url FROM visits ORDER BY page_url"\n'
        )
        assert check("SQL002", src) == []

    def test_expression_order_term_is_skipped(self):
        src = SCHEMA_PREFIX + (
            'Q = "SELECT page_url FROM visits '
            'GROUP BY page_url ORDER BY MIN(visit_id)"\n'
        )
        assert check("SQL002", src) == []

    def test_unknown_unique_key_flagged(self):
        src = (
            '_SCHEMA = """\n'
            "CREATE TABLE events (kind TEXT, payload TEXT);\n"
            '"""\n'
            'Q = "SELECT * FROM events ORDER BY kind"\n'
        )
        assert check("SQL002", src) == ["SQL002"]

    def test_query_without_order_by_ignored(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM visits WHERE visit_id = ?"\n'
        assert check("SQL002", src) == []

    def test_module_without_schema_is_skipped(self):
        src = 'Q = "SELECT * FROM nowhere ORDER BY x"\n'
        assert check("SQL002", src) == []


class TestObs003DeterministicAlerting:
    def test_fstring_alert_name_flagged(self):
        src = 'Alert(f"spike-{site}", SEVERITY_WARNING, "msg")\n'
        assert check("OBS003", src) == ["OBS003"]

    def test_dynamic_name_keyword_flagged(self):
        src = 'Alert(name="spike-" + site, severity=SEV, message="msg")\n'
        assert check("OBS003", src) == ["OBS003"]

    def test_literal_and_constant_alert_names_fine(self):
        src = (
            'Alert("failure-spike", SEVERITY_WARNING, "msg")\n'
            'Alert(name=ALERT_SITE_STALL, severity=SEV, message=f"site {r}")\n'
        )
        assert check("OBS003", src) == []

    def test_computed_detector_threshold_flagged(self):
        src = "FailureSpikeDetector(expected_rate=base * 2.0)\n"
        assert check("OBS003", src) == ["OBS003"]

    def test_call_built_detector_window_flagged(self):
        src = "ThroughputDetector(window=compute_window())\n"
        assert check("OBS003", src) == ["OBS003"]

    def test_constant_detector_thresholds_fine(self):
        src = (
            "FailureSpikeDetector(expected_rate=EXPECTED, window=50)\n"
            "SiteStallDetector(limit=SITE_STALL_LIMIT)\n"
        )
        assert check("OBS003", src) == []

    def test_non_threshold_detector_kwargs_untouched(self):
        # baseline_seconds is runtime data (from the ledger) by design.
        src = "ThroughputDetector(baseline_seconds=estimate(record))\n"
        assert check("OBS003", src) == []

    def test_detector_mutating_registry_flagged(self):
        src = (
            "class StallDetector:\n"
            "    def observe(self, event):\n"
            '        self.metrics.counter("alerts").inc()\n'
            "        return []\n"
        )
        assert check("OBS003", src) == ["OBS003"]

    def test_detector_registry_set_flagged(self):
        src = (
            "class SkewDetector:\n"
            "    def finish(self):\n"
            '        registry.histogram("skew", BUCKETS).observe(1.0)\n'
        )
        assert check("OBS003", src) == ["OBS003"]

    def test_mutators_are_registry_calls(self):
        instruments = (MetricsRegistry, Counter, Histogram)
        for name in _REGISTRY_MUTATORS:
            assert not name.startswith("_"), name
            assert any(
                callable(getattr(cls, name, None)) for cls in instruments
            ), f"{name} is not a call of a metrics registry or instrument"

    def test_detector_local_state_fine(self):
        src = (
            "class SpikeDetector:\n"
            "    def observe(self, event):\n"
            "        self.window.append(1)\n"
            "        self.counts[event.site_rank] = 0\n"
            "        return []\n"
        )
        assert check("OBS003", src) == []

    def test_registry_writes_outside_detectors_fine(self):
        src = 'metrics.counter("crawl.visits").inc()\n'
        assert check("OBS003", src) == []

    def test_suppression_comment_honoured(self):
        src = (
            "FailureSpikeDetector(expected_rate=r * 2)"
            "  # repro: ok[OBS003] calibration sweep\n"
        )
        assert check("OBS003", src) == []
