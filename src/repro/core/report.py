"""Tuning session reports and their wire format.

:class:`TuningReport` is the observable outcome of one autotuning
session; it must be *provenance-complete* — a resumed or shipped report
carries the strategy and seed that produced it, so a checkpointed
session can never silently change provenance when it is rebuilt in a
different process.  The payload round-trip
(:func:`report_to_payload` / :func:`report_from_payload`) is exact:
floats cross JSON bit for bit (Python serialises shortest round-trip
reprs), which the property tests in
``tests/properties/test_prop_report_payload.py`` lock down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.configuration import Configuration

#: The strategy recorded on reports produced before strategies existed.
DEFAULT_REPORT_STRATEGY = "evolutionary"


@dataclass
class TuningReport:
    """Outcome of one autotuning session.

    Attributes:
        best: The winning configuration (labelled with the machine).
        best_time_s: Its virtual execution time at the final size.
        tuning_time_s: Total virtual time spent testing candidates and
            JIT-compiling kernels (the Figure 8 "autotuning time").
        evaluations: Number of candidate test runs executed.
        sizes: The exponentially growing test sizes used.
        history: Best time per search round (one per size), in order.
        computed_evaluations: Simulations physically executed this
            session — zero on a fully warm disk cache, and below
            ``evaluations`` on a cold serial session, because a
            candidate that answers an earlier simulation's decision
            path is served without simulating.  A wall-clock work
            gauge, not part of the deterministic result: with
            speculative evaluation discarded work still simulates, so
            it may exceed ``evaluations`` and vary between runs (and
            across resumes of a killed session).
        strategy: Name of the search strategy that produced the report.
        seed: The randomness seed the search ran with.
        warm_start_from: Provenance of an incremental re-tune —
            which prior report seeded the search population and which
            derivation-graph nodes were dirty (see
            :mod:`repro.artifacts.retune`).  ``None`` for cold runs.
    """

    best: Configuration
    best_time_s: float
    tuning_time_s: float
    evaluations: int
    sizes: List[int]
    history: List[float] = field(default_factory=list)
    computed_evaluations: int = 0
    strategy: str = DEFAULT_REPORT_STRATEGY
    seed: int = 0
    warm_start_from: Optional[Dict[str, object]] = None


def report_to_payload(report: TuningReport) -> Dict[str, object]:
    """Serialise a report to a picklable/JSON-safe dict of primitives.

    Used by process-sharded batch tuning to ship finished reports back
    from worker processes and by session checkpoints to persist
    finished sessions: :class:`TuningReport` itself holds a
    :class:`~repro.core.configuration.Configuration`, which crosses the
    pipe as its canonical JSON instead.
    """
    payload: Dict[str, object] = {
        "best": report.best.to_json(),
        "best_time_s": report.best_time_s,
        "tuning_time_s": report.tuning_time_s,
        "evaluations": report.evaluations,
        "sizes": list(report.sizes),
        "history": list(report.history),
        "computed_evaluations": report.computed_evaluations,
        "strategy": report.strategy,
        "seed": report.seed,
    }
    if report.warm_start_from is not None:
        # Only present on re-tuned reports: cold payloads stay
        # byte-identical to every previously shipped or golden file.
        payload["warm_start_from"] = dict(report.warm_start_from)
    return payload


def report_from_payload(payload: Dict[str, object]) -> TuningReport:
    """Inverse of :func:`report_to_payload`.

    Payloads written before reports carried provenance metadata restore
    with the historical defaults (``evolutionary``, seed 0).
    """
    return TuningReport(
        best=Configuration.from_json(str(payload["best"])),
        best_time_s=float(payload["best_time_s"]),
        tuning_time_s=float(payload["tuning_time_s"]),
        evaluations=int(payload["evaluations"]),
        sizes=[int(size) for size in payload["sizes"]],
        history=[float(time) for time in payload["history"]],
        computed_evaluations=int(payload["computed_evaluations"]),
        strategy=str(payload.get("strategy", DEFAULT_REPORT_STRATEGY)),
        seed=int(payload.get("seed", 0)),
        warm_start_from=payload.get("warm_start_from"),  # type: ignore[arg-type]
    )
