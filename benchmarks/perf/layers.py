"""Per-layer tracing for the perf harness.

A traced run wraps public functions of :mod:`repro` from the outside and
only inside the traced process: class attributes are patched in place,
and module functions that other modules import by name (``child_rng``,
``psl.registrable_domain``, ``stream_crawl``) are rebound in every
``repro.*`` module that holds them.  Untraced runs execute the program
unmodified.

Every wrapped call pushes a frame on one stack, so each layer gets a
*total* time (inclusive) and a *self* time (exclusive of nested wrapped
calls).  Self times partition the traced time of one process, so within
a process they sum to at most its wall time.  Coarse layers also record a
span (its number, name, start, end, the number of the enclosing span, and
the visit id, page URL or experiment id); hot leaf layers are summed as
counters only, because one span per call would cost more than the call.

Pool workers forked by the program inherit the wrappers.  Each worker
starts with empty counters and writes them to ``work_dir`` when it exits;
:meth:`LayerTracer.collect_workers` folds those files into the parent's
counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.experiments import ALL_EXPERIMENTS

#: Experiments that crawl again instead of analysing the given crawl.
RECRAWLING_EXPERIMENTS = frozenset({"replication", "study_comparability", "ablation_timeout"})

#: The experiments the ``analyze`` workload runs, by their id in
#: ``repro.experiments.ALL_EXPERIMENTS``: every one that does not re-crawl.
ANALYSIS_EXPERIMENTS: Tuple[str, ...] = tuple(
    experiment_id
    for experiment_id in ALL_EXPERIMENTS
    if experiment_id not in RECRAWLING_EXPERIMENTS
)

Args = Tuple[object, ...]
Kwargs = Mapping[str, object]


@dataclass(frozen=True)
class Layer:
    """One instrumented layer: which functions it wraps and what it counts.

    ``target`` is ``"module"`` for module functions (rebound wherever they
    were imported by name) or ``"module:Class"`` for methods.  ``label``
    names a coarse span's subject, ``units`` counts work from a call's
    arguments and result, and ``distinct`` keys the argument so the
    harness can report how many calls a cache would answer.
    """

    name: str
    target: str
    attrs: Tuple[str, ...]
    span: Optional[str] = None
    label: Optional[Callable[[Args, Kwargs], object]] = None
    units: Optional[Callable[[Args, Kwargs, object], Dict[str, float]]] = None
    distinct: Optional[Callable[[Args, Kwargs], object]] = None


def _arg(args: Args, kwargs: Kwargs, index: int, name: str) -> object:
    return kwargs[name] if name in kwargs else args[index]


def _rows(result: object) -> float:
    if isinstance(result, (list, tuple, dict)):
        return len(result)
    if isinstance(result, int) and not isinstance(result, bool):
        return 1
    return 0 if result is None else 1


def _batch(args: Args, kwargs: Kwargs) -> Sequence:
    """``store_visits``' batch, or ``()`` when it is a one-shot iterator."""
    batch = _arg(args, kwargs, 1, "results")
    return batch if isinstance(batch, (list, tuple)) else ()


def _stored_rows(args: Args, kwargs: Kwargs, result: object) -> Dict[str, float]:
    batch = _batch(args, kwargs)
    return {
        "rows": sum(
            1
            + len(item.requests)
            + len(item.responses)
            + len(item.redirects)
            + len(item.cookies)
            for item in batch
        )
    }


def _replayed_rows(args: Args, kwargs: Kwargs, store) -> Dict[str, float]:
    return {"rows": sum(store.table_row_count(t) for t in store.table_names())}


def _stream_stats(args: Args, kwargs: Kwargs, run) -> Dict[str, float]:
    payload = run.stats.measured_payload()["stream"]
    return {"handoffs": payload["handoffs"], "drain_s": payload["drain_seconds"]}


def _match_key(args: Args, kwargs: Kwargs) -> object:
    context = kwargs.get("context", args[2] if len(args) > 2 else None)
    if context is None:
        return (args[1], None, None)
    return (args[1], context.resource_type, context.page_url)


#: The read methods of the store that the analysis path calls.
_STORE_READS = (
    "cookies_for_visit",
    "document_response",
    "pages",
    "pages_crawled_by_all",
    "profiles",
    "redirects_for_visit",
    "request_count",
    "requests_for_visit",
    "responses_for_visit",
    "sites",
    "successful_visits_for_page",
    "visit",
    "visit_count",
    "visits_for_page",
)

LAYERS: Tuple[Layer, ...] = (
    Layer("rng.child_rng", "repro.rng", ("child_rng",)),
    Layer(
        "web.psl",
        "repro.web.psl",
        ("registrable_domain",),
        distinct=lambda args, kwargs: args[0],
    ),
    Layer("web.url.str", "repro.web.url:URL", ("__str__",)),
    Layer("web.site", "repro.web.sitegen:WebGenerator", ("site",)),
    Layer(
        "browser.engine",
        "repro.browser.engine:BrowserEngine",
        ("visit",),
        span="engine.visit",
        label=lambda args, kwargs: _arg(args, kwargs, 4, "visit_id"),
        units=lambda args, kwargs, result: {
            "requests": len(result.requests),
            "failed": 0 if result.success else 1,
        },
    ),
    Layer("crawler.client", "repro.crawler.client:CrawlClient", ("visit_page",)),
    Layer("crawler.commander", "repro.crawler.commander:Commander", ("run",)),
    Layer(
        "crawler.storage.write",
        "repro.crawler.storage:MeasurementStore",
        ("store_visits",),
        span="store_visits",
        label=lambda args, kwargs: next(
            (item.visit.visit_id for item in _batch(args, kwargs)), None
        ),
        units=_stored_rows,
    ),
    Layer(
        "crawler.storage.bulk",
        "repro.crawler.storage:MeasurementStore",
        ("insert_table_rows",),
        units=lambda args, kwargs, result: {"rows": result},
    ),
    Layer(
        "crawler.storage.read",
        "repro.crawler.storage:MeasurementStore",
        _STORE_READS,
        units=lambda args, kwargs, result: {"rows": _rows(result)},
    ),
    Layer(
        "bundle.replay",
        "repro.bundle.bundle:Bundle",
        ("replay",),
        span="Bundle.replay",
        units=_replayed_rows,
    ),
    Layer(
        "trees.builder",
        "repro.trees.builder:TreeBuilder",
        ("build",),
        span="TreeBuilder.build",
        label=lambda args, kwargs: _arg(args, kwargs, 1, "visit").visit_id,
        units=lambda args, kwargs, result: {"nodes": result.node_count},
    ),
    Layer(
        "trees.normalize",
        "repro.trees.normalize:UrlNormalizer",
        ("normalize",),
        distinct=lambda args, kwargs: args[1],
    ),
    Layer(
        "blocklist.matcher",
        "repro.blocklist.matcher:FilterList",
        ("match",),
        units=lambda args, kwargs, result: {"blocked": 1 if result.blocked else 0},
        distinct=_match_key,
    ),
    Layer(
        "analysis.comparison",
        "repro.analysis.comparison:PageComparison",
        ("__init__",),
        span="PageComparison",
        label=lambda args, kwargs: next(
            iter(_arg(args, kwargs, 1, "trees").values())
        ).page_url,
    ),
    Layer(
        "obs.stream.publish",
        "repro.obs.stream:EventStream",
        ("publish",),
        units=lambda args, kwargs, result: {"events": 1 if result else 0},
    ),
    Layer("obs.ledger.append", "repro.obs.ledger:RunLedger", ("append",)),
    Layer(
        "pipeline.stream",
        "repro.pipeline.stream",
        ("stream_crawl",),
        units=_stream_stats,
    ),
) + tuple(
    Layer(
        f"experiments.{experiment_id}",
        ALL_EXPERIMENTS[experiment_id].__name__,
        ("run", "render"),
        span=f"experiment:{experiment_id}",
        label=lambda args, kwargs, experiment_id=experiment_id: experiment_id,
    )
    for experiment_id in ANALYSIS_EXPERIMENTS
)


@dataclass
class LayerStat:
    """Accumulated counters of one layer."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    units: Dict[str, float] = field(default_factory=dict)
    #: ``hash()`` of each distinct argument key.  Forked workers share the
    #: parent's hash seed, so worker sets merge with the parent's.
    distinct: Set[int] = field(default_factory=set)

    def clear(self) -> None:
        self.calls, self.seconds, self.self_seconds = 0, 0.0, 0.0
        self.units.clear()
        self.distinct.clear()

    def merge(self, other: "LayerStat") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.self_seconds += other.self_seconds
        for unit, value in other.units.items():
            self.units[unit] = self.units.get(unit, 0) + value
        self.distinct |= other.distinct

    def to_payload(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "units": self.units,
            "distinct": sorted(self.distinct),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "LayerStat":
        return cls(
            calls=int(payload["calls"]),
            seconds=float(payload["seconds"]),
            self_seconds=float(payload["self_seconds"]),
            units=dict(payload["units"]),
            distinct=set(payload["distinct"]),
        )


class LayerTracer:
    """Installs the layer wrappers and accumulates their counters.

    Use as a context manager: wrappers are installed on entry and the
    original functions restored on exit.  :meth:`reset` clears counters
    and spans between repetitions.
    """

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = Path(work_dir)
        self.stats: Dict[str, LayerStat] = {layer.name: LayerStat() for layer in LAYERS}
        self.spans: List[Dict[str, object]] = []
        self._stack: List[List[float]] = []
        self._open_spans: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        self._installed = False
        mp_util.register_after_fork(self, LayerTracer._after_fork_in_worker)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._installed:
            return
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for layer in LAYERS:
            stat = self.stats[layer.name]
            for owner, attr, original in _patch_points(layer):
                setattr(owner, attr, self._wrap(layer, stat, original))
                self._patches.append((owner, attr, original))
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._installed = False

    def reset(self) -> None:
        """Zero every counter and drop recorded spans (wrappers hold their
        layer's stat object, so counters are cleared in place)."""
        for stat in self.stats.values():
            stat.clear()
        self.spans.clear()
        self._stack.clear()
        self._open_spans.clear()

    def snapshot(self) -> Dict[str, float]:
        """Flat counters of every layer: ``<layer>.calls``, ``.s`` (total),
        ``.self_s``, ``.distinct`` and one entry per counted unit."""
        flat: Dict[str, float] = {}
        for name, stat in self.stats.items():
            flat[f"{name}.calls"] = stat.calls
            flat[f"{name}.s"] = stat.seconds
            flat[f"{name}.self_s"] = stat.self_seconds
            flat[f"{name}.distinct"] = len(stat.distinct)
            for unit, value in stat.units.items():
                flat[f"{name}.{unit}"] = value
        return flat

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, layer: Layer, stat: LayerStat, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, stat, original, args, kwargs)

        return wrapper

    def _call(self, layer: Layer, stat: LayerStat, fn: Callable, args, kwargs):
        span = None
        if layer.span is not None:
            span = {
                "span": len(self.spans),
                "name": layer.span,
                "id": layer.label(args, kwargs) if layer.label else None,
                "parent": self._open_spans[-1] if self._open_spans else None,
                "pid": os.getpid(),
            }
            self._open_spans.append(len(self.spans))
            self.spans.append(span)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            stat.calls += 1
            stat.seconds += elapsed
            stat.self_seconds += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if span is not None:
                span["start"] = start - self._origin
                span["end"] = end - self._origin
                self._open_spans.pop()
        if layer.units is not None:
            for unit, value in layer.units(args, kwargs, result).items():
                stat.units[unit] = stat.units.get(unit, 0) + value
        if layer.distinct is not None:
            stat.distinct.add(hash(layer.distinct(args, kwargs)))
        return result

    # -- pool workers --------------------------------------------------------

    def _after_fork_in_worker(self) -> None:
        if not self._installed:
            return
        self.reset()
        mp_util.Finalize(self, self._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        path = self.work_dir / f"layers-{os.getpid()}.json"
        payload = {
            "stats": {name: stat.to_payload() for name, stat in self.stats.items()},
            "spans": self.spans,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, path)

    def collect_workers(self) -> None:
        """Fold the counters of exited pool workers into this process's."""
        for path in sorted(self.work_dir.glob("layers-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            for name, stat in payload["stats"].items():
                self.stats[name].merge(LayerStat.from_payload(stat))
            # Renumber the worker's spans after this process's.
            offset = len(self.spans)
            for span in payload["spans"]:
                span["span"] += offset
                if span["parent"] is not None:
                    span["parent"] += offset
                self.spans.append(span)
            path.unlink()


def _patch_points(layer: Layer) -> List[Tuple[object, str, object]]:
    """Every ``(owner, attribute, original)`` the layer must rebind."""
    module_name, _, class_name = layer.target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        cls = getattr(owner, class_name)
        return [(cls, attr, cls.__dict__[attr]) for attr in layer.attrs]
    points = []
    for attr in layer.attrs:
        original = getattr(owner, attr)
        for name, module in sorted(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            if getattr(module, attr, None) is original:
                points.append((module, attr, original))
    return points
