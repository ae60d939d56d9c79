"""Central registry of every ``REPRO_*`` environment knob.

Every environment variable the library reads is declared here exactly
once — name, raw default, parser, one-line doc — and read through
:func:`get` / :func:`raw`.  Two things hang off this single source:

* the ``RL006`` static-analysis rule (:mod:`repro.lint`) fails CI when
  any module reads a ``REPRO_*`` variable directly from ``os.environ``
  or through an accessor with a name this table does not declare, so a
  knob can never silently fork its spelling or default between modules;
* the README "Tuning knobs" table and the ``repro knobs`` CLI are
  rendered from :func:`render_table` / :func:`current_values`, so docs
  cannot drift from behaviour.

Values are re-read from the environment on every :func:`get` call —
knob lookups are off every hot path, and tests flip knobs with
``monkeypatch.setenv`` without rebuilding anything.

>>> get("REPRO_LOG_LEVEL", environ={})
'info'
>>> get("REPRO_SLOW_MS", environ={"REPRO_SLOW_MS": "not-a-number"})
250.0
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import Any

__all__ = [
    "Knob",
    "KNOBS",
    "get",
    "raw",
    "render_table",
    "current_values",
]


def _parse_flag(value: str) -> bool:
    """Opt-in switch: only ``1/on/true/yes`` (any case) enable it."""
    return value.strip().lower() in ("1", "on", "true", "yes")


def _parse_onoff(value: str) -> bool:
    """Opt-out switch: anything but ``off/0/false/no`` keeps it on."""
    return value.strip().lower() not in ("off", "0", "false", "no")


def _parse_word(value: str) -> str:
    return value.strip().lower()


def _parse_positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise ValueError(f"must be > 0, got {number}")
    return number


def _parse_path(value: str) -> str | None:
    return value or None


def _parse_json(value: str) -> Any:
    return json.loads(value)


@dataclass(frozen=True)
class Knob:
    """One declared environment variable.

    ``default`` is the *raw* (string) default, parsed through ``parse``
    exactly like an environment value would be; ``None`` means unset.
    ``required`` knobs raise ``KeyError`` from :func:`get` when absent
    instead of returning ``None``.
    """

    name: str
    default: str | None
    parse: Callable[[str], Any]
    doc: str
    required: bool = False


#: The registry: one entry per ``REPRO_*`` variable, sorted by name.
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "REPRO_BENCH_PROFILE",
            "default",
            _parse_word,
            "Default bench workload scale (`smoke` / `default` / `full`) "
            "when no `--profile` flag is given.",
        ),
        Knob(
            "REPRO_LOG_LEVEL",
            "info",
            _parse_word,
            "Structured-log threshold: `debug` / `info` / `warning` / "
            "`error` / `off`; unknown names fall back to `info`.",
        ),
        Knob(
            "REPRO_OBS",
            "on",
            _parse_onoff,
            "Master switch for span recording (`off`/`0`/`false`/`no` "
            "disables — the overhead-measurement knob).",
        ),
        Knob(
            "REPRO_PROFILE",
            "",
            _parse_flag,
            "Start the sampling wall-clock profiler on server/bench "
            "startup (`1`/`on`/`true`/`yes`).",
        ),
        Knob(
            "REPRO_PROFILE_INTERVAL_MS",
            "10",
            _parse_positive_float,
            "Profiler sampling period in milliseconds (must be > 0; "
            "invalid values fall back to the default).",
        ),
        Knob(
            "REPRO_PROFILE_OUT",
            None,
            _parse_path,
            "Folded-stack output path the profiler dumps to on process "
            "shutdown (unset: no dump).",
        ),
        Knob(
            "REPRO_REPLICA_SPEC",
            None,
            _parse_json,
            "JSON `ReplicaSpec`, plus the `report_fd` pipe end for the "
            "bound address, consumed by `python -m repro.cluster.replica` "
            "(cluster-internal; required there).",
            required=True,
        ),
        Knob(
            "REPRO_SLOW_MS",
            "250",
            float,
            "Slow-operation warning threshold in milliseconds shared by "
            "the slow-query and slow-batch logs.",
        ),
        Knob(
            "REPRO_SPAN_LOG",
            None,
            _parse_path,
            "NDJSON file every recorded span is mirrored to (unset: "
            "in-process ring only).",
        ),
    )
}


def raw(name: str, environ: Mapping[str, str] | None = None) -> str | None:
    """The raw string for ``name``: the environment value if set, the
    declared default otherwise.  ``KeyError`` on an undeclared name."""
    knob = KNOBS[name]
    env: Mapping[str, str] = os.environ if environ is None else environ
    value = env.get(name)
    return knob.default if value is None else value


def get(name: str, environ: Mapping[str, str] | None = None) -> Any:
    """The parsed value of ``name`` (``environ`` defaults to
    ``os.environ``).

    Optional knobs never raise on bad input: an unparseable value falls
    back to the parsed default (an unset default parses to ``None``).
    Required knobs raise ``KeyError`` when absent and let parse errors
    propagate — a malformed required value is a caller bug.
    """
    knob = KNOBS[name]
    value = raw(name, environ)
    if value is None:
        if knob.required:
            raise KeyError(f"required environment knob {name} is not set")
        return None
    if knob.required:
        return knob.parse(value)
    try:
        return knob.parse(value)
    except (ValueError, TypeError):
        if knob.default is None:
            return None
        return knob.parse(knob.default)


def current_values(environ: Mapping[str, str] | None = None) -> list[dict[str, Any]]:
    """One dict per knob — name, default, set?, effective value, doc —
    for the ``repro knobs`` CLI (required knobs report ``value: None``
    when unset rather than raising)."""
    env: Mapping[str, str] = os.environ if environ is None else environ
    out: list[dict[str, Any]] = []
    for name in sorted(KNOBS):
        knob = KNOBS[name]
        is_set = name in env
        try:
            value = get(name, env)
        except (KeyError, ValueError, TypeError):
            value = None
        out.append(
            {
                "name": name,
                "default": knob.default,
                "set": is_set,
                "value": value,
                "required": knob.required,
                "doc": knob.doc,
            }
        )
    return out


def render_table() -> str:
    """The Markdown "Tuning knobs" table (the README embeds this output
    verbatim; ``tests/lint/test_knobs.py`` keeps the two in sync)."""
    lines = [
        "| Knob | Default | Description |",
        "| --- | --- | --- |",
    ]
    for name in sorted(KNOBS):
        knob = KNOBS[name]
        if knob.default is None:
            default = "(unset)"
        elif knob.default == "":
            default = '`""`'
        else:
            default = f"`{knob.default}`"
        lines.append(f"| `{name}` | {default} | {knob.doc} |")
    return "\n".join(lines)
