"""Shared utilities: RNG handling, timing, serialization helpers."""

from repro._lazy import lazy_exports

# Lazy: ``repro.utils.oracle_header`` and ``repro.utils.rng`` are on the
# cluster router's import path, ``timing`` (statistics) is not.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ensure_rng": "repro.utils.rng",
        "Stopwatch": "repro.utils.timing",
        "TimingStats": "repro.utils.timing",
    },
)

__all__ = ["ensure_rng", "Stopwatch", "TimingStats"]
