"""Whole-program rules: fires / doesn't-fire / suppression per rule.

Each project is written to a real temporary package (``make_project``)
and run through the two-pass driver exactly as the CLI would, so module
naming, import resolution and suppression accounting are all exercised
end to end.
"""

import pathlib

from repro.devtools.lint import lint_project

TAINTFLOW = pathlib.Path(__file__).parent / "fixtures" / "taintflow"


def rules_fired(report):
    return sorted({violation.rule_id for violation in report.violations})


class TestDET101SeedProvenance:
    def test_committed_fixture_caught_across_two_hops(self):
        report = lint_project([str(TAINTFLOW)])
        det = [v for v in report.violations if v.rule_id == "DET101"]
        assert len(det) == 1
        violation = det[0]
        assert violation.path.endswith("run.py")
        assert "hand_off" in violation.message
        # The provenance chain names the birth site two hops away.
        assert "via taintflow.entropy.raw_rng" in violation.message
        assert "constant-seeded" in violation.message

    def test_does_not_fire_outside_sink_modules(self, make_project):
        root = make_project(
            {
                "entropy.py": "import random\n\ndef raw_rng():\n    return random.Random(1)\n",
                "consumer.py": (
                    "from .entropy import raw_rng\n\n"
                    "def use():\n    return raw_rng()\n"
                ),
            }
        )
        report = lint_project([str(root)], select=["DET101"])
        assert report.violations == []

    def test_does_not_fire_on_seed_derived_rng(self, make_project):
        root = make_project(
            {
                "entropy.py": (
                    "import random\n"
                    "from repro.rng import child_rng\n\n"
                    "def shard_rng(seed):\n"
                    "    return random.Random(child_rng(seed, 'shard'))\n"
                ),
                "crawler/run.py": (
                    "from ..entropy import shard_rng\n\n"
                    "def schedule(seed):\n    return shard_rng(seed)\n"
                ),
            }
        )
        report = lint_project([str(root)], select=["DET101"])
        assert report.violations == []

    def test_suppression_silences_it_without_going_stale(self, make_project):
        root = make_project(
            {
                "entropy.py": "import random\n\ndef raw_rng():\n    return random.Random(1)\n",
                "crawler/run.py": (
                    "from ..entropy import raw_rng\n\n"
                    "def schedule():\n"
                    "    return raw_rng()  # repro: ok[DET101] fixture exercises raw streams\n"
                ),
            }
        )
        report = lint_project([str(root)], select=["DET101"])
        assert report.violations == []


class TestDET103UnorderedFlow:
    def _sources(self, sink_line):
        return {
            "lib.py": (
                "def names(m):\n"
                "    return m.keys()\n\n"
                "def wrapper(m):\n"
                "    return names(m)\n"
            ),
            "use.py": f"from .lib import wrapper\n\ndef collect(m):\n    {sink_line}\n",
        }

    def test_fires_through_a_call_chain(self, make_project):
        root = make_project(self._sources("return list(wrapper(m))"))
        report = lint_project([str(root)])
        det = [v for v in report.violations if v.rule_id == "DET103"]
        assert len(det) == 1
        assert det[0].path.endswith("use.py")
        assert "sorted" in det[0].message

    def test_sorted_wrapper_sanctions_the_flow(self, make_project):
        root = make_project(self._sources("return list(sorted(wrapper(m)))"))
        report = lint_project([str(root)])
        assert "DET103" not in rules_fired(report)

    def test_suppression(self, make_project):
        sources = self._sources(
            "return list(wrapper(m))  # repro: ok[DET103] order asserted downstream"
        )
        report = lint_project([str(make_project(sources))])
        assert report.violations == []


class TestCONC001SharedMutableWrite:
    def _sources(self, spawn: bool):
        launch = "pool.map(_shard, items)" if spawn else "[_shard(i) for i in items]"
        return {
            "work.py": (
                "_SEEN = {}\n\n"
                "def _shard(item):\n"
                "    _SEEN[item] = True\n"
                "    return item\n\n"
                "def run(pool, items):\n"
                f"    return {launch}\n"
            )
        }

    def test_fires_for_worker_reachable_write(self, make_project):
        root = make_project(self._sources(spawn=True))
        report = lint_project([str(root)])
        conc = [v for v in report.violations if v.rule_id == "CONC001"]
        assert len(conc) == 1
        assert "_SEEN" in conc[0].message
        assert "_shard" in conc[0].message

    def test_does_not_fire_without_a_worker_entry(self, make_project):
        root = make_project(self._sources(spawn=False))
        report = lint_project([str(root)])
        assert "CONC001" not in rules_fired(report)

    def test_suppression(self, make_project):
        root = make_project(
            {
                "work.py": (
                    "_SEEN = {}\n\n"
                    "def _shard(item):\n"
                    "    _SEEN[item] = True  # repro: ok[CONC001] merged in parent afterwards\n"
                    "    return item\n\n"
                    "def run(pool, items):\n"
                    "    return pool.map(_shard, items)"
                    "  # repro: ok[CONC003] fixture wants the barrier\n"
                )
            }
        )
        report = lint_project([str(root)])
        assert report.violations == []


class TestCONC002SingletonAttrWrite:
    def _sources(self, record_body: str, call_line: str):
        return {
            "state.py": (
                "class Recorder:\n"
                "    def __init__(self):\n"
                "        self.items = []\n\n"
                "    def record(self, item):\n"
                f"        {record_body}\n\n"
                "SHARED = Recorder()\n\n"
                "def _work(item):\n"
                f"    {call_line}\n"
                "    return item\n\n"
                "def run(pool, items):\n"
                "    return pool.map(_work, items)"
                "  # repro: ok[CONC003] fixture wants the barrier\n"
            )
        }

    def test_fires_when_singleton_method_writes_instance_state(self, make_project):
        root = make_project(
            self._sources("self.items.append(item)", "SHARED.record(item)")
        )
        report = lint_project([str(root)])
        conc = [v for v in report.violations if v.rule_id == "CONC002"]
        assert len(conc) == 1
        assert "SHARED" in conc[0].message
        assert "items" in conc[0].message

    def test_does_not_fire_for_read_only_methods(self, make_project):
        root = make_project(
            self._sources("return len(item)", "SHARED.record(item)")
        )
        report = lint_project([str(root)])
        assert "CONC002" not in rules_fired(report)

    def test_suppression(self, make_project):
        root = make_project(
            self._sources(
                "self.items.append(item)",
                "SHARED.record(item)  # repro: ok[CONC002] workers get a fork-local copy",
            )
        )
        report = lint_project([str(root)])
        assert report.violations == []


class TestProgramPassScoping:
    def test_program_rules_only_run_when_asked(self, make_project):
        root = make_project(
            {
                "entropy.py": "import random\n\ndef raw_rng():\n    return random.Random(1)\n",
                "crawler/run.py": (
                    "from ..entropy import raw_rng\n\n"
                    "def schedule():\n    return raw_rng()\n"
                ),
            }
        )
        per_file = lint_project(
            [str(root)], ignore=["CONC001", "CONC002", "DET101", "DET103"]
        )
        assert per_file.program_rules_run == ()
        assert "DET101" not in rules_fired(per_file)
        whole = lint_project([str(root)])
        assert whole.program_rules_run == ("CONC001", "CONC002", "DET101", "DET103")
        assert "DET101" in rules_fired(whole)

    def test_select_narrows_the_program_pass(self, make_project):
        root = make_project(
            {
                "entropy.py": "import random\n\ndef raw_rng():\n    return random.Random(1)\n",
                "crawler/run.py": (
                    "from ..entropy import raw_rng\n\n"
                    "def schedule():\n    return raw_rng()\n"
                ),
            }
        )
        report = lint_project([str(root)], select=["DET103"])
        assert report.program_rules_run == ("DET103",)
        assert report.violations == []
