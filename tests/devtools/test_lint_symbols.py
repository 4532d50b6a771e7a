"""Unit tests for the per-file symbol summaries (``symbols``)."""

import ast
import pickle
import textwrap

from repro.devtools.lint.symbols import (
    ModuleSummary,
    module_name_for,
    summarize_module,
)


def summarize(source: str, module: str = "m") -> ModuleSummary:
    tree = ast.parse(textwrap.dedent(source))
    return summarize_module(module.replace(".", "/") + ".py", tree, module=module)


class TestModuleNaming:
    def test_walks_init_chain(self, tmp_path):
        sub = tmp_path / "pkg" / "sub"
        sub.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text("")
        assert module_name_for(sub / "mod.py") == ("pkg.sub.mod", False)
        assert module_name_for(sub / "__init__.py") == ("pkg.sub", True)

    def test_file_outside_any_package_is_its_stem(self, tmp_path):
        assert module_name_for(tmp_path / "loose.py") == ("loose", False)


class TestRngBirths:
    def test_unseeded(self):
        summary = summarize("import random\ndef f():\n    return random.Random()\n")
        assert summary.functions["f"].returns_rng.kind == "unseeded"

    def test_constant_seed(self):
        summary = summarize("import random\ndef f():\n    return random.Random(7)\n")
        assert summary.functions["f"].returns_rng.kind == "constant"

    def test_wall_clock_seed(self):
        summary = summarize(
            """
            import random
            import time

            def f():
                return random.Random(time.time())
            """
        )
        assert summary.functions["f"].returns_rng.kind == "wall-clock"

    def test_system_random_is_os_entropy(self):
        summary = summarize(
            "import random\ndef f():\n    return random.SystemRandom()\n"
        )
        assert summary.functions["f"].returns_rng.kind == "os-entropy"

    def test_clean_seed_via_child_rng_is_not_a_birth_fact(self):
        summary = summarize(
            """
            import random
            from repro.rng import child_rng

            def f(seed):
                return random.Random(child_rng(seed, "shard"))
            """
        )
        assert summary.functions["f"].returns_rng is None

    def test_seed_from_unknown_call_records_the_callee(self):
        summary = summarize(
            """
            import random

            def f():
                return random.Random(seed_helper())
            """
        )
        birth = summary.functions["f"].returns_rng
        assert birth.kind == "call"
        assert birth.seed_call == "seed_helper"


class TestReturnFacts:
    def test_returns_entropy(self):
        summary = summarize("import time\ndef f():\n    return time.time()\n")
        assert summary.functions["f"].returns_entropy

    def test_returns_unordered_set(self):
        summary = summarize("def f(m):\n    return set(m)\n")
        assert summary.functions["f"].returns_unordered

    def test_returns_unordered_via_assigned_keys_view(self):
        summary = summarize("def f(m):\n    k = m.keys()\n    return k\n")
        assert summary.functions["f"].returns_unordered

    def test_return_of_sorted_is_sanctioned(self):
        summary = summarize("def f(m):\n    return sorted(m.keys())\n")
        assert not summary.functions["f"].returns_unordered

    def test_return_call_chain_recorded(self):
        summary = summarize("def f():\n    return g()\n")
        assert summary.functions["f"].return_calls == ["g"]


class TestSinkFeeds:
    def test_call_into_list_is_a_feed(self):
        summary = summarize("def f(m):\n    return list(names(m))\n")
        feeds = summary.functions["f"].sink_feeds
        assert [(feed.callee, feed.sink) for feed in feeds] == [("names", "list")]

    def test_sorted_wrapper_is_not_a_feed(self):
        summary = summarize("def f(m):\n    return list(sorted(names(m)))\n")
        assert summary.functions["f"].sink_feeds == []

    def test_list_comprehension_over_call(self):
        summary = summarize("def f(m):\n    return [x for x in names(m)]\n")
        feeds = summary.functions["f"].sink_feeds
        assert [(feed.callee, feed.sink) for feed in feeds] == [
            ("names", "list-comprehension")
        ]


class TestWritesAndSpawns:
    def test_global_writes(self):
        summary = summarize(
            """
            COUNT = 0
            _SEEN = {}

            def f(x):
                global COUNT
                COUNT = COUNT + 1
                _SEEN[x] = 1
                _ITEMS.append(x)
            """
        )
        writes = {(w.name, w.action) for w in summary.functions["f"].global_writes}
        assert writes == {("COUNT", "rebind"), ("_SEEN", "mutate"), ("_ITEMS", "mutate")}

    def test_self_and_attr_writes(self):
        summary = summarize(
            """
            class C:
                def set(self, v):
                    self.value = v
                    self.items.append(v)

                def poke(self):
                    CFG.count = 1
            """
        )
        self_writes = {
            (w.name, w.action) for w in summary.functions["C.set"].self_writes
        }
        assert self_writes == {("value", "rebind"), ("items", "mutate")}
        attr_writes = {
            (w.name, w.action) for w in summary.functions["C.poke"].attr_writes
        }
        assert attr_writes == {("CFG.count", "rebind")}

    def test_spawn_sites(self):
        summary = summarize(
            """
            from multiprocessing import Process

            def run(pool, items):
                pool.map(_shard, items)
                Process(target=_boot)
            """
        )
        assert summary.functions["run"].spawns == ["_shard", "_boot"]

    def test_param_defaults_and_local_ctor_types(self):
        summary = summarize(
            """
            def f(x, obs=NULL_OBS):
                builder = TreeBuilder(x)
                return builder.build()
            """
        )
        function = summary.functions["f"]
        assert function.param_defaults == {"obs": "NULL_OBS"}
        assert function.local_ctor_types == {"builder": "TreeBuilder"}


class TestModuleState:
    def test_mutables_and_singletons(self):
        summary = summarize(
            """
            from collections import deque
            from typing import Dict

            ITEMS = []
            _CACHE: Dict[str, int] = {}
            QUEUE = deque()
            OBS = ObsContext.disabled()
            LIMIT = 10
            """
        )
        assert set(summary.module_mutables) == {"ITEMS", "_CACHE", "QUEUE"}
        assert summary.singletons == {"OBS": "ObsContext.disabled"}
        assert "LIMIT" not in summary.module_mutables

    def test_round_trips_through_pickle(self):
        """Pool workers hand summaries back to the driver by pickling."""
        summary = summarize(
            """
            import random

            SHARED = Recorder()

            class Recorder:
                def record(self, item):
                    self.items.append(item)

            def f():
                return random.Random(3)
            """
        )
        restored = pickle.loads(pickle.dumps(summary))
        assert restored == summary
