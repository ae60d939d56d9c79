"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports its submodules eagerly makes every
``import repro.<pkg>.<mod>`` pay for all of them.  The cluster router
imports ``repro.cluster.router``, ``repro.serving.server`` and
``repro.workloads.streams``; with eager ``__init__``s that pulled in
numpy and the core kernels although the router never touches an array.
:func:`lazy_exports` keeps ``from repro.serving import OracleService``
working while importing the defining module only on first access.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``, resolving each public
    name in ``exports`` (name -> defining module) on first access and
    caching it in the package namespace."""
    namespace = import_module(package).__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
