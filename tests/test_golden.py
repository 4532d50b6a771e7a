"""Golden digests and the stream budget of a small seeded crawl.

Speed work on the crawl (which RNG streams get built, which URLs get
parsed, what gets memoized) must not change a single stored byte.  These
tests crawl seed 2023 at one site per bucket and two pages per site, once
plain and once with retries, partial-visit salvage and stateful cookie
jars, and pin two sha256 digests per run:

* ``store`` — every table's rows, in physical order, as the bundle
  format encodes them;
* ``dataset`` — each analysis entry's page, site and rank, and every
  aligned node's key, presence count and per-profile depth and tracking
  flag.

The constants change only in a change that declares a re-baseline of
seeded output (DESIGN §6, rule 1).  The same crawls also check that the
engine builds a sampling stream only where it draws from it.

The plain crawl is also run end to end, through ``ExperimentContext`` and
the 21 analysis experiments, in two processes with different
``PYTHONHASHSEED`` values: both must print the same pinned digests, so an
output that follows set or dict-key order shows up as a failure here
rather than as drift between machines.  Run this file as a script to
print those digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.analysis import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.browser.engine import BrowserEngine
from repro.browser.profile import PROFILE_SIM1
from repro.bundle.bundle import encode_table
from repro.crawler import Commander, MeasurementStore, RetryPolicy, sample_paper_buckets
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, ExperimentContext
from repro.rng import child_rng
from repro.web import WebGenerator

SEED = 2023
SITES_PER_BUCKET = 1
PAGES_PER_SITE = 2

GOLDEN = {
    "plain": {
        "store": "5eff9fe2a40b2d94373137be599b560262339ea6f6fbd3f8c417ee3b4974300d",
        "dataset": "07cc7ee04a503e71189deba55e2088e89d21bcd61ada23f7983f6c1c67221d99",
    },
    "observed": {
        "store": "66b4a1e466e9a464f626663ed52ff2ccf26d721598993321d4cedc5eca6065a7",
        "dataset": "523d9e2ead62c57e29f3e82b1fafb4dbc76f8e2f633d3b0438d780f5599a8e78",
    },
}


def store_digest(store: MeasurementStore) -> str:
    hasher = hashlib.sha256()
    for table in store.table_names():
        hasher.update(table.encode("utf-8"))
        hasher.update(encode_table(store.iter_table_rows(table)))
    return hasher.hexdigest()


def dataset_digest(dataset: AnalysisDataset) -> str:
    hasher = hashlib.sha256()
    for entry in dataset.entries:
        hasher.update(repr((entry.page_url, entry.site, entry.site_rank)).encode("utf-8"))
        for node in entry.comparison.nodes():
            views = tuple(
                None if view is None else (view.depth, view.is_tracking)
                for view in node.views
            )
            hasher.update(repr((node.key, node.presence_count, views)).encode("utf-8"))
    return hasher.hexdigest()


def crawl_digests(observed: bool) -> dict:
    generator = WebGenerator(SEED)
    options = (
        dict(retry_policy=RetryPolicy(max_attempts=3), salvage_partial=True, stateful=True)
        if observed
        else {}
    )
    with MeasurementStore() as store:
        Commander(generator, store, max_pages_per_site=PAGES_PER_SITE, **options).run(
            sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
        )
        dataset = AnalysisDataset.from_store(
            store, filter_list=build_filter_list(generator.ecosystem), include_partial=observed
        )
        return {"store": store_digest(store), "dataset": dataset_digest(dataset)}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_crawl_matches_golden_digests(run):
    assert crawl_digests(observed=(run == "observed")) == GOLDEN[run]


#: Per-visit sampling streams, by first label: each is built for a
#: decision that draws, so one built and never drawn from is wasted work.
SAMPLING_STREAMS = frozenset(
    {"cookie", "include", "order", "redirect", "rotation", "stall", "status", "url"}
)


@pytest.fixture
def built_streams(monkeypatch):
    """Record every stream ``child_rng`` builds: ``(labels, seed, stream)``."""
    built = []

    def recording_child_rng(seed, *labels):
        stream = child_rng(seed, *labels)
        built.append((labels, seed, stream))
        return stream

    for name, module in sorted(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "child_rng", None) is child_rng:
            monkeypatch.setattr(module, "child_rng", recording_child_rng)
    return built


def undrawn_sampling_streams(built) -> Counter:
    """Sampling streams whose state still equals a freshly seeded one."""
    return Counter(
        labels[0]
        for labels, seed, stream in built
        if labels[0] in SAMPLING_STREAMS
        and stream.getstate() == child_rng(seed, *labels).getstate()
    )


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_crawl_draws_from_every_sampling_stream(built_streams, run):
    crawl_digests(observed=(run == "observed"))
    assert {labels[0] for labels, _, _ in built_streams} >= SAMPLING_STREAMS
    assert undrawn_sampling_streams(built_streams) == Counter()
    # The interaction pass crosses load-phase slots without deciding again.
    decisions = Counter(
        (seed, labels) for labels, seed, _ in built_streams if labels[0] in ("include", "url")
    )
    assert max(decisions.values()) == 1


def test_no_stall_stream_without_stall_probability(built_streams):
    generator = WebGenerator(SEED)
    site = generator.site(sample_paper_buckets(SEED, per_bucket=1)[0])
    engine = BrowserEngine(PROFILE_SIM1, seed=SEED, stall_probability=0.0)
    result = engine.visit(site.landing_page, site=site.domain, site_rank=site.rank, visit_id=1)
    assert result.success and result.requests
    labels = Counter(labels[0] for labels, _, _ in built_streams)
    assert labels["status"] > 0 and labels["stall"] == 0


#: Experiments that crawl again rather than analyze the context's crawl.
RECRAWLING_EXPERIMENTS = frozenset({"ablation_timeout", "replication", "study_comparability"})

#: sha256 of the 21 analysis experiments' rendered text, joined by newlines.
GOLDEN_OUTPUT = "e9fd373e65873720387dfeeeb129d79174d6cf34e13873e82699181549797229"


def pipeline_digests() -> dict:
    """Store, dataset and rendered-output digests of the plain pipeline."""
    ctx = ExperimentContext(
        ExperimentConfig(
            seed=SEED, sites_per_bucket=SITES_PER_BUCKET, pages_per_site=PAGES_PER_SITE
        )
    )
    digests = {"store": store_digest(ctx.store), "dataset": dataset_digest(ctx.dataset)}
    texts = [
        module.render(module.run(ctx))
        for experiment_id, module in ALL_EXPERIMENTS.items()
        if experiment_id not in RECRAWLING_EXPERIMENTS
    ]
    digests["output"] = hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()
    return digests


def test_pipeline_digests_independent_of_hash_seed():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    children = {
        hash_seed: subprocess.Popen(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("0", "1")
    }
    printed = {}
    for hash_seed, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, f"PYTHONHASHSEED={hash_seed}:\n{err}"
        printed[hash_seed] = json.loads(out)
    expected = dict(GOLDEN["plain"], output=GOLDEN_OUTPUT)
    assert printed == {hash_seed: expected for hash_seed in children}


if __name__ == "__main__":
    print(json.dumps(pipeline_digests(), sort_keys=True))
