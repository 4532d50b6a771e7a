"""Observability rule OBS003: alerting stays deterministic.

The live monitor's alert names and detector thresholds feed the run
ledger's byte-compared ``alerts`` section, so both must be literal
constants or names bound to them — a threshold computed at the call
site drifts between runs and defeats cross-run comparison.  Detectors
themselves are *observers*: a detector that mutates the metrics
registry from its callback changes the telemetry it is judging, and no
test compares a monitored run's metrics with an unmonitored one's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import LintRule, ModuleContext, Violation, dotted_name, register

#: Keyword fragments marking a detector tuning knob.
_THRESHOLD_MARKERS = ("threshold", "factor", "rate", "window", "limit", "gap")

#: Method names that mutate a metrics registry or its instruments: the
#: public calls of ``MetricsRegistry``, ``Counter`` and ``Histogram``
#: that create or change a metric.
_REGISTRY_MUTATORS = (
    "counter",
    "histogram",
    "inc",
    "observe",
)

#: Receiver names that identify the metrics registry in a call chain.
_REGISTRY_RECEIVERS = ("metrics", "registry")

#: Expression kinds built at the call site (vs. literal/named constants).
_DYNAMIC_EXPRS = (ast.JoinedStr, ast.BinOp, ast.Call)


def _receiver_parts(node: ast.AST) -> Iterator[str]:
    """Name/attribute components of a call receiver, through chained calls.

    ``self.metrics.counter("x").inc`` yields ``inc, counter, metrics,
    self`` — enough to spot a registry anywhere in the chain, which
    :func:`~..framework.dotted_name` cannot (it bails at the inner call).
    """
    while True:
        if isinstance(node, ast.Attribute):
            yield node.attr
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            yield node.id
            return
        else:
            return


@register
class DeterministicAlerting(LintRule):
    rule_id = "OBS003"
    summary = (
        "alert name/detector threshold built dynamically, or detector "
        "mutates the metrics registry"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_alert_name(module, node)
                yield from self._check_detector_thresholds(module, node)
            elif isinstance(node, ast.ClassDef) and node.name.endswith(
                "Detector"
            ):
                yield from self._check_detector_body(module, node)

    @staticmethod
    def _callee(node: ast.Call) -> str:
        name = dotted_name(node.func)
        return name.rsplit(".", 1)[-1] if name else ""

    def _check_alert_name(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Violation]:
        if self._callee(node) != "Alert":
            return
        name_arg = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "name":
                name_arg = keyword.value
        if isinstance(name_arg, _DYNAMIC_EXPRS):
            yield self.flag(
                module,
                name_arg,
                "Alert name must be a literal constant; the ledger "
                "byte-compares alerts across runs, so dynamic names "
                "break drift detection",
            )

    def _check_detector_thresholds(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Violation]:
        callee = self._callee(node)
        if not callee.endswith("Detector"):
            return
        for keyword in node.keywords:
            if keyword.arg is None or not any(
                marker in keyword.arg for marker in _THRESHOLD_MARKERS
            ):
                continue
            if isinstance(keyword.value, _DYNAMIC_EXPRS):
                yield self.flag(
                    module,
                    keyword.value,
                    f"{callee}({keyword.arg}=...) must be a literal "
                    "constant or a name bound to one; computed thresholds "
                    "drift between runs",
                )

    def _check_detector_body(
        self, module: ModuleContext, node: ast.ClassDef
    ) -> Iterator[Violation]:
        nested: set = set()  # chained calls already covered by an outer flag
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call) or not isinstance(
                inner.func, ast.Attribute
            ):
                continue
            if id(inner) in nested or inner.func.attr not in _REGISTRY_MUTATORS:
                continue
            parts = list(_receiver_parts(inner.func.value))
            if any(part in _REGISTRY_RECEIVERS for part in parts):
                yield self.flag(
                    module,
                    inner,
                    f"detector {node.name} must not mutate the metrics "
                    f"registry ({inner.func.attr}()); detectors observe "
                    "the stream, they do not write telemetry",
                )
                nested.update(
                    id(sub)
                    for sub in ast.walk(inner)
                    if isinstance(sub, ast.Call) and sub is not inner
                )
