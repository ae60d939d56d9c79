"""Declarative SLOs evaluated with multi-window burn rates.

An :class:`SLO` names a metric from the metrics-history points
(:mod:`repro.obs.timeseries`), an objective for it, and an **error
budget** — the fraction of samples allowed to violate the objective.
Evaluation follows the SRE multi-window burn-rate recipe: for each
``(window_seconds, burn_threshold)`` pair the evaluator computes

    bad_fraction(window) = violating samples / samples in window
    burn(window)         = bad_fraction / budget

and an alert **fires only when every window burns past its threshold**
— the short window proves the problem is happening *now*, the long one
proves it is not a blip.  A burn of 1.0 means the budget is being spent
exactly as fast as it accrues; 10 means ten times faster.

Rule format (JSON, ``repro serve --slo rules.json``)::

    [{"name": "query-p99", "metric": "query_p99_ms",
      "objective": 50.0, "direction": "above", "budget": 0.05,
      "windows": [[60, 2.0], [300, 1.0]],
      "description": "p99 read latency under 50 ms"}]

``direction: "above"`` means a sample violates when the metric exceeds
the objective (latency, lag, growth); ``"below"`` inverts it
(throughput floors).  Samples missing the metric (or ``null``) are
ignored — absence of data never burns budget.

State surfaces three ways: ``repro_slo_burn{slo=...}`` /
``repro_slo_breach{slo=...}`` gauges on the server registry, structured
``alert_firing`` / ``alert_resolved`` log events on transitions, and the
``alerts`` protocol op (which ``repro top`` renders).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from repro.exceptions import ReproError
from repro.obs.log import get_logger

__all__ = [
    "SLO",
    "SLOEvaluator",
    "parse_slos",
    "load_slos",
    "default_slos",
]

_DIRECTIONS = ("above", "below")
#: Default multi-window rule: a fast 1-minute window at 2x burn plus a
#: slow 5-minute window at 1x — page only when both agree.
_DEFAULT_WINDOWS = ((60.0, 2.0), (300.0, 1.0))


@dataclass(frozen=True)
class SLO:
    """One service-level objective over a metrics-history key."""

    name: str
    metric: str
    objective: float
    direction: str = "above"
    budget: float = 0.05
    windows: tuple[tuple[float, float], ...] = _DEFAULT_WINDOWS
    description: str = ""

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ReproError(
                f"SLO {self.name!r}: direction must be one of {_DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        if not 0 < self.budget <= 1:
            raise ReproError(
                f"SLO {self.name!r}: budget must be in (0, 1], got {self.budget}"
            )
        if not self.windows:
            raise ReproError(f"SLO {self.name!r}: needs at least one window")
        for window_s, threshold in self.windows:
            if window_s <= 0 or threshold <= 0:
                raise ReproError(
                    f"SLO {self.name!r}: window seconds and burn threshold "
                    f"must be positive, got ({window_s}, {threshold})"
                )

    def violates(self, value) -> bool | None:
        """Whether one sample value violates the objective (``None`` for
        missing/non-numeric values — no data, no verdict)."""
        if value is None or isinstance(value, bool):
            return None
        try:
            value = float(value)
        except (TypeError, ValueError):
            return None
        if self.direction == "above":
            return value > self.objective
        return value < self.objective

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "direction": self.direction,
            "budget": self.budget,
            "windows": [list(w) for w in self.windows],
            "description": self.description,
        }


def parse_slos(data) -> list[SLO]:
    """Parse SLO rules from a JSON string or an already-decoded list."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid SLO rules JSON: {exc.msg}") from exc
    if not isinstance(data, list):
        raise ReproError("SLO rules must be a JSON array of rule objects")
    slos: list[SLO] = []
    for index, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise ReproError(f"SLO rule #{index} must be an object")
        try:
            slos.append(
                SLO(
                    name=str(raw["name"]),
                    metric=str(raw["metric"]),
                    objective=float(raw["objective"]),
                    direction=str(raw.get("direction", "above")),
                    budget=float(raw.get("budget", 0.05)),
                    windows=tuple(
                        (float(w), float(t))
                        for w, t in raw.get("windows", _DEFAULT_WINDOWS)
                    ),
                    description=str(raw.get("description", "")),
                )
            )
        except KeyError as exc:
            raise ReproError(
                f"SLO rule #{index} is missing required key {exc}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ReproError(f"SLO rule #{index} is malformed: {exc}") from exc
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate SLO names in rules: {names}")
    return slos


def load_slos(path: str | os.PathLike) -> list[SLO]:
    """Parse SLO rules from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_slos(handle.read())


def default_slos(role: str = "server") -> list[SLO]:
    """Built-in rule set (``--slo default``): query tail latency and
    error rate everywhere, plus replication lag and WAL growth on the
    router."""
    slos = [
        SLO(
            name="query-p99",
            metric="query_p99_ms",
            objective=100.0,
            direction="above",
            budget=0.05,
            description="p99 read latency stays under 100 ms",
        ),
        SLO(
            name="error-rate",
            metric="error_rate",
            objective=0.01,
            direction="above",
            budget=0.05,
            description="under 1% of update events rejected",
        ),
    ]
    if role == "router":
        slos += [
            SLO(
                name="replica-lag",
                metric="max_lag",
                objective=1024.0,
                direction="above",
                budget=0.05,
                description="every replica within 1024 log entries of head",
            ),
            SLO(
                name="wal-growth",
                metric="wal_growth_bytes_per_s",
                objective=8.0 * 1024 * 1024,
                direction="above",
                budget=0.10,
                description="WAL grows under 8 MiB/s (compaction keeps up)",
            ),
        ]
    return slos


@dataclass
class _AlertState:
    firing: bool = False
    since: float | None = None
    last: dict = field(default_factory=dict)


class SLOEvaluator:
    """Evaluates a rule set against metrics-history points.

    ``evaluate(points)`` is called after every recorder tick (the
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` ``on_point``
    hook); it updates the burn/breach gauges when a registry was given,
    logs firing/resolved transitions, and returns the full evaluation —
    the payload of the ``alerts`` protocol op.
    """

    def __init__(self, slos, registry=None, logger=None) -> None:
        self._slos = list(slos)
        self._states: dict[str, _AlertState] = {
            slo.name: _AlertState() for slo in self._slos
        }
        self._logger = logger if logger is not None else get_logger("slo")
        self._burn_family = None
        self._breach_family = None
        if registry is not None:
            self._burn_family = registry.gauge(
                "repro_slo_burn",
                "Error-budget burn rate (fastest window; 1.0 = budget pace).",
                labelnames=("slo",),
            )
            self._breach_family = registry.gauge(
                "repro_slo_breach",
                "1 while the SLO's multi-window burn alert is firing.",
                labelnames=("slo",),
            )

    @property
    def slos(self) -> list[SLO]:
        return list(self._slos)

    def evaluate(self, points: list[dict], now: float | None = None) -> list[dict]:
        """Evaluate every SLO against ``points`` (each with a ``ts``).

        ``now`` defaults to the newest point's timestamp, so replayed
        histories evaluate identically to live ones.  Returns one
        evaluation dict per SLO (``firing``, ``burn``, per-window
        detail).
        """
        if now is None:
            now = max(
                (p.get("ts", 0.0) for p in points), default=time.time()
            )
        evaluations: list[dict] = []
        for slo in self._slos:
            windows_out: list[dict] = []
            firing = True
            worst_burn = 0.0
            for window_s, threshold in slo.windows:
                good = bad = 0
                for point in points:
                    ts = point.get("ts")
                    if ts is None or ts < now - window_s or ts > now:
                        continue
                    verdict = slo.violates(point.get(slo.metric))
                    if verdict is None:
                        continue
                    if verdict:
                        bad += 1
                    else:
                        good += 1
                total = good + bad
                bad_fraction = bad / total if total else 0.0
                burn = bad_fraction / slo.budget
                worst_burn = max(worst_burn, burn)
                window_firing = total > 0 and burn >= threshold
                firing = firing and window_firing
                windows_out.append(
                    {
                        "window_s": window_s,
                        "threshold": threshold,
                        "samples": total,
                        "bad": bad,
                        "bad_fraction": round(bad_fraction, 4),
                        "burn": round(burn, 4),
                        "firing": window_firing,
                    }
                )
            state = self._states[slo.name]
            evaluation = {
                "slo": slo.name,
                "metric": slo.metric,
                "objective": slo.objective,
                "direction": slo.direction,
                "budget": slo.budget,
                "description": slo.description,
                "firing": firing,
                "burn": round(worst_burn, 4),
                "windows": windows_out,
                "since": state.since,
            }
            self._transition(slo, state, evaluation, now)
            evaluation["since"] = state.since
            state.last = evaluation
            evaluations.append(evaluation)
            if self._burn_family is not None:
                self._burn_family.labels(slo=slo.name).set(worst_burn)
                self._breach_family.labels(slo=slo.name).set(
                    1.0 if firing else 0.0
                )
        return evaluations

    def _transition(
        self, slo: SLO, state: _AlertState, evaluation: dict, now: float
    ) -> None:
        if evaluation["firing"] and not state.firing:
            state.firing = True
            state.since = now
            self._logger.warning(
                "alert_firing",
                slo=slo.name,
                metric=slo.metric,
                objective=slo.objective,
                burn=evaluation["burn"],
            )
        elif not evaluation["firing"] and state.firing:
            state.firing = False
            duration = now - state.since if state.since is not None else None
            state.since = None
            self._logger.info(
                "alert_resolved",
                slo=slo.name,
                metric=slo.metric,
                dur_s=round(duration, 3) if duration is not None else None,
            )

    def active_alerts(self) -> list[dict]:
        """The currently-firing SLOs' last evaluations."""
        return [
            dict(state.last)
            for state in self._states.values()
            if state.firing and state.last
        ]

    def last_evaluations(self) -> list[dict]:
        """Every SLO's most recent evaluation (empty before the first)."""
        return [
            dict(state.last) for state in self._states.values() if state.last
        ]
