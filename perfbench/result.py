"""What one workload run measured, checked and noticed."""

from __future__ import annotations

from dataclasses import dataclass, field

from stats import Measured
from tracing import Tracer

__all__ = ["WorkloadResult"]


@dataclass
class WorkloadResult:
    workload: str
    #: End-to-end metrics (reported from untraced runs).
    e2e: dict[str, Measured] = field(default_factory=dict)
    #: Per-layer metrics (reported from traced runs); names starting with
    #: ``_`` feed the ledger only.
    layer: dict[str, Measured] = field(default_factory=dict)
    #: Percentiles still to resolve: ``(section, name, samples, fraction)``.
    #: Resolved last, so a thin tail refuses the result, not the checks.
    percentiles: list[tuple[str, str, list[float], float]] = field(default_factory=list)
    #: Per-layer metrics this workload cannot measure, with the reason.
    unmeasured: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output-check failures; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Reasons the run is not comparable with others (generator behind…).
    invalid: list[str] = field(default_factory=list)
    validity: dict = field(default_factory=dict)
    backend: str = ""
    backends: set[str] = field(default_factory=set)
    tracer: Tracer | None = None
