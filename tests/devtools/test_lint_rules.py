"""Rule unit tests: one positive and one negative snippet per behaviour."""

import textwrap

from repro.devtools.lint import build_rules, lint_source


def check(rule_id, source):
    """Lint a snippet with a single rule; return the rule ids that fired."""
    rules = build_rules(select=[rule_id])
    violations = lint_source(textwrap.dedent(source), path="snippet.py", rules=rules)
    return [v.rule_id for v in violations]


class TestDet001UnseededRandomness:
    def test_global_random_call(self):
        assert check("DET001", "import random\nx = random.random()\n") == ["DET001"]

    def test_global_shuffle_via_alias(self):
        src = "import random as rnd\nrnd.shuffle(items)\n"
        assert check("DET001", src) == ["DET001"]

    def test_random_constructor(self):
        assert check("DET001", "import random\nr = random.Random(1)\n") == ["DET001"]

    def test_from_import_constructor(self):
        src = "from random import Random\nr = Random(1)\n"
        assert check("DET001", src) == ["DET001"]

    def test_from_import_function(self):
        src = "from random import choice\nx = choice(seq)\n"
        assert check("DET001", src) == ["DET001"]

    def test_child_rng_stream_is_fine(self):
        src = (
            "from repro.rng import child_rng\n"
            "rng = child_rng(1, 'site')\n"
            "x = rng.random()\n"
        )
        assert check("DET001", src) == []

    def test_rng_module_is_exempt(self):
        src = "import random\nr = random.Random(42)\n"
        rules = build_rules(select=["DET001"])
        assert lint_source(src, path="src/repro/rng.py", rules=rules) == []

    def test_annotation_is_not_a_call(self):
        src = "import random\ndef f(rng: random.Random) -> None:\n    pass\n"
        assert check("DET001", src) == []


class TestDet002WallClock:
    def test_time_time(self):
        assert check("DET002", "import time\nt = time.time()\n") == ["DET002"]

    def test_perf_counter(self):
        assert check("DET002", "import time\nt = time.perf_counter()\n") == ["DET002"]

    def test_from_import(self):
        assert check("DET002", "from time import time\nt = time()\n") == ["DET002"]

    def test_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert check("DET002", src) == ["DET002"]

    def test_datetime_class_import(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert check("DET002", src) == ["DET002"]

    def test_unrelated_now_method_is_fine(self):
        src = "t = state.clock.now()\n"
        assert check("DET002", src) == []

    def test_time_sleep_is_fine(self):
        assert check("DET002", "import time\ntime.sleep(1)\n") == []


class TestDet003UnorderedSinks:
    def test_list_of_set(self):
        assert check("DET003", "x = list(set(items))\n") == ["DET003"]

    def test_tuple_of_keys(self):
        assert check("DET003", "x = tuple(mapping.keys())\n") == ["DET003"]

    def test_join_of_set_literal(self):
        assert check("DET003", "x = ','.join({'a', 'b'})\n") == ["DET003"]

    def test_listcomp_over_set(self):
        assert check("DET003", "x = [v for v in set(items)]\n") == ["DET003"]

    def test_generator_into_join(self):
        src = "x = ','.join(str(v) for v in set(items))\n"
        assert check("DET003", src) == ["DET003"]

    def test_sorted_wrapping_is_fine(self):
        assert check("DET003", "x = list(sorted(set(items)))\n") == []
        assert check("DET003", "x = ','.join(sorted(mapping.keys()))\n") == []

    def test_unordered_aggregates_are_fine(self):
        assert check("DET003", "n = len(set(items))\n") == []
        assert check("DET003", "s = frozenset(mapping.keys())\n") == []
        assert check("DET003", "u = set(a) | set(b)\n") == []


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


class TestErr001ErrorDiscipline:
    def test_builtin_raise(self):
        src = "def f():\n    raise KeyError('missing')\n"
        assert check("ERR001", src) == ["ERR001"]

    def test_valueerror_with_message_allowed(self):
        src = "def f(n):\n    raise ValueError(f'bad n: {n}')\n"
        assert check("ERR001", src) == []

    def test_valueerror_without_message_flagged(self):
        src = "def f():\n    raise ValueError\n"
        assert check("ERR001", src) == ["ERR001"]

    def test_repro_error_import_allowed(self):
        src = (
            "from repro.errors import CrawlError\n"
            "def f():\n    raise CrawlError('bad')\n"
        )
        assert check("ERR001", src) == []

    def test_relative_errors_import_allowed(self):
        src = (
            "from ..errors import StorageError\n"
            "def f():\n    raise StorageError('bad')\n"
        )
        assert check("ERR001", src) == []

    def test_local_subclass_of_repro_error_allowed(self):
        src = (
            "from repro.errors import CrawlError\n"
            "class Timeout(CrawlError):\n    pass\n"
            "def f():\n    raise Timeout()\n"
        )
        assert check("ERR001", src) == []

    def test_local_subclass_of_exception_flagged(self):
        src = (
            "class Timeout(Exception):\n    pass\n"
            "def f():\n    raise Timeout()\n"
        )
        assert check("ERR001", src) == ["ERR001"]

    def test_transitive_local_base_resolves(self):
        src = (
            "from repro.errors import ReproError\n"
            "class Base(ReproError):\n    pass\n"
            "class Leaf(Base):\n    pass\n"
            "def f():\n    raise Leaf('x')\n"
        )
        assert check("ERR001", src) == []

    def test_unknown_import_gets_benefit_of_doubt(self):
        src = (
            "from somewhere import WeirdError\n"
            "def f():\n    raise WeirdError('x')\n"
        )
        assert check("ERR001", src) == []

    def test_bare_reraise_allowed(self):
        src = "def f():\n    try:\n        g()\n    except Exception:\n        raise\n"
        assert check("ERR001", src) == []

    def test_not_implemented_allowed(self):
        src = "def f():\n    raise NotImplementedError\n"
        assert check("ERR001", src) == []


class TestErr002RetryableReason:
    def test_subclass_without_reason_flagged(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Flaky(TransientCrawlError):\n    pass\n"
        )
        assert check("ERR002", src) == ["ERR002"]

    def test_class_attribute_string_allowed(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Flaky(TransientCrawlError):\n"
            "    failure_reason = 'connection-reset'\n"
        )
        assert check("ERR002", src) == []

    def test_empty_string_reason_flagged(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Flaky(TransientCrawlError):\n"
            "    failure_reason = ''\n"
        )
        assert check("ERR002", src) == ["ERR002"]

    def test_constant_name_allowed(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "from repro.web.faults import STALL_TIMEOUT\n"
            "class Stall(TransientCrawlError):\n"
            "    failure_reason = STALL_TIMEOUT\n"
        )
        assert check("ERR002", src) == []

    def test_init_assignment_allowed(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Fault(TransientCrawlError):\n"
            "    def __init__(self, reason):\n"
            "        super().__init__(reason)\n"
            "        self.failure_reason = reason\n"
        )
        assert check("ERR002", src) == []

    def test_inherited_reason_allowed(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Base(TransientCrawlError):\n"
            "    failure_reason = 'http-5xx'\n"
            "class Leaf(Base):\n    pass\n"
        )
        assert check("ERR002", src) == []

    def test_transitive_subclass_without_reason_flagged(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "class Base(TransientCrawlError):\n    pass\n"
            "class Leaf(Base):\n    pass\n"
        )
        assert check("ERR002", src) == ["ERR002", "ERR002"]

    def test_bare_raise_of_transient_flagged(self):
        src = (
            "from repro.errors import TransientCrawlError\n"
            "def f():\n    raise TransientCrawlError('flaky')\n"
        )
        assert check("ERR002", src) == ["ERR002"]

    def test_unrelated_class_ignored(self):
        src = (
            "from repro.errors import CrawlError\n"
            "class Fatal(CrawlError):\n    pass\n"
        )
        assert check("ERR002", src) == []


SCHEMA_PREFIX = '''
_SCHEMA = """
CREATE TABLE visits (
    visit_id INTEGER PRIMARY KEY,
    page_url TEXT NOT NULL
);
CREATE INDEX idx ON visits (page_url);
"""
'''


class TestSql001SchemaConsistency:
    def test_placeholder_count_mismatch(self):
        src = SCHEMA_PREFIX + 'Q = "INSERT INTO visits VALUES (?, ?, ?)"\n'
        assert check("SQL001", src) == ["SQL001"]

    def test_placeholder_count_match(self):
        src = SCHEMA_PREFIX + 'Q = "INSERT INTO visits VALUES (?, ?)"\n'
        assert check("SQL001", src) == []

    def test_unknown_table(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM sessions"\n'
        assert check("SQL001", src) == ["SQL001"]

    def test_unknown_column(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM visits WHERE profile = ?"\n'
        assert check("SQL001", src) == ["SQL001"]

    def test_known_column_ok(self):
        src = SCHEMA_PREFIX + 'Q = "SELECT * FROM visits WHERE page_url = ?"\n'
        assert check("SQL001", src) == []

    def test_explicit_column_list(self):
        src = (
            SCHEMA_PREFIX
            + 'Q = "INSERT INTO visits (visit_id, bogus) VALUES (?, ?)"\n'
        )
        assert check("SQL001", src) == ["SQL001"]

    def test_bad_index_column(self):
        src = (
            '_SCHEMA = """\n'
            "CREATE TABLE t (a INTEGER);\n"
            "CREATE INDEX idx ON t (missing);\n"
            '"""\n'
        )
        assert check("SQL001", src) == ["SQL001"]

    def test_module_without_schema_is_skipped(self):
        src = 'Q = "SELECT * FROM nowhere"\n'
        assert check("SQL001", src) == []

    def test_prose_starting_with_insert_is_not_sql(self):
        src = SCHEMA_PREFIX + 'DOC = "Insert one visit into the store"\n'
        assert check("SQL001", src) == []


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


class TestObs001NoPrintInLibraryCode:
    def test_print_in_library_module_flagged(self):
        rules = build_rules(select=["OBS001"])
        violations = lint_source(
            'print("done")\n', path="src/repro/crawler/commander.py", rules=rules
        )
        assert [v.rule_id for v in violations] == ["OBS001"]

    def test_reporting_package_exempt(self):
        rules = build_rules(select=["OBS001"])
        assert (
            lint_source(
                'print("table")\n', path="src/repro/reporting/tables.py", rules=rules
            )
            == []
        )

    def test_devtools_package_exempt(self):
        rules = build_rules(select=["OBS001"])
        assert (
            lint_source(
                'print("lint")\n',
                path="src/repro/devtools/lint/cli.py",
                rules=rules,
            )
            == []
        )

    def test_cli_module_exempt(self):
        rules = build_rules(select=["OBS001"])
        assert (
            lint_source('print("usage")\n', path="src/repro/cli.py", rules=rules) == []
        )

    def test_main_module_exempt(self):
        rules = build_rules(select=["OBS001"])
        assert (
            lint_source(
                'print("run")\n', path="src/repro/experiments/__main__.py", rules=rules
            )
            == []
        )

    def test_name_print_without_call_not_flagged(self):
        assert check("OBS001", "blueprint = SiteBlueprint(domain)\n") == []

    def test_method_named_print_not_flagged(self):
        assert check("OBS001", "report.print()\n") == []

    def test_suppression_comment_honoured(self):
        src = 'print("x")  # repro: ok[OBS001] progress output\n'
        assert check("OBS001", src) == []


class TestObs002LiteralTelemetryNames:
    def test_fstring_counter_name_flagged(self):
        src = 'metrics.counter(f"crawl.{profile}.visits").inc()\n'
        assert check("OBS002", src) == ["OBS002"]

    def test_concatenated_span_name_flagged(self):
        src = 'with tracer.span("site-" + domain):\n    pass\n'
        assert check("OBS002", src) == ["OBS002"]

    def test_call_built_histogram_name_flagged(self):
        src = 'metrics.histogram("x".format(), EDGES).observe(1)\n'
        assert check("OBS002", src) == ["OBS002"]

    def test_literal_names_are_fine(self):
        src = (
            'metrics.counter("crawl.visits", profile=profile).inc()\n'
            'metrics.gauge("queue.depth").set(2)\n'
            'with tracer.span("site", key=f"site:{rank}"):\n'
            "    pass\n"
        )
        assert check("OBS002", src) == []

    def test_name_bound_constant_is_fine(self):
        src = (
            'NAME = "crawl.visits"\n'
            "metrics.counter(NAME, profile=profile).inc()\n"
        )
        assert check("OBS002", src) == []

    def test_unrelated_call_named_span_dynamic_arg_flagged(self):
        # The rule keys on the call name, not the receiver: any span()/
        # counter() family call must take a literal first argument.
        assert check("OBS002", 'span(f"x{y}")\n') == ["OBS002"]

    def test_other_functions_untouched(self):
        assert check("OBS002", 'log(f"site {rank} done")\n') == []

    def test_suppression_comment_honoured(self):
        src = 'metrics.counter(f"x{y}")  # repro: ok[OBS002] migration shim\n'
        assert check("OBS002", src) == []


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
            "        registry.set(1.0)\n"
        )
        assert check("OBS003", src) == ["OBS003"]

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
