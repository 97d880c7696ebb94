"""Repo-native correctness tooling: static analysis + runtime sanitizer.

The invariants the fast paths of this reproduction rely on — no
per-element Python work inside the array-native hot kernels, no live
handles pickled across the process-pool fork boundary, packed-vs-node
I/O-trace parity, a frozen declarative spec layer — were historically
enforced only by code review.  This package makes them machine-checked:

* :mod:`repro.devtools.lint` — an AST-visitor lint framework with
  repo-specific rule series (``HK*`` hot-kernel, ``FS*`` fork-safety,
  ``API*`` public-surface).  Run ``python -m repro.devtools.lint
  src/repro``; a clean tree exits 0.  Which code is "hot" is declared in
  :mod:`repro.devtools.hotpaths.toml <repro.devtools.config>`.
* :mod:`repro.devtools.sanitize` — a runtime invariant sanitizer
  (``REPRO_SANITIZE=1`` or :func:`repro.devtools.sanitize.install`)
  that cross-checks every packed-tree lookup against
  :mod:`repro.devtools.nodewalk` (the same tree walked node by node),
  validates :class:`~repro.storage.stats.IOStats` counter balance and
  the modelled pools' bound, and makes writes into zero-copy mmap views
  raise.
* :mod:`repro.devtools.report` — machine-readable ``LINT_report.json``
  emitted alongside the figure tables in ``benchmarks/results/``.
"""

from typing import Any

#: public name -> defining submodule, resolved lazily.  Eager imports
#: here would (a) re-import ``lint`` under ``python -m
#: repro.devtools.lint`` (runpy's double-module warning) and (b) tax
#: every ``import repro`` when the ``REPRO_SANITIZE`` hook fires.
_EXPORTS = {
    "Finding": "repro.devtools.lint",
    "LintConfig": "repro.devtools.lint",
    "lint_paths": "repro.devtools.lint",
    "SanitizerError": "repro.devtools.sanitize",
    "install": "repro.devtools.sanitize",
    "install_from_env": "repro.devtools.sanitize",
    "uninstall": "repro.devtools.sanitize",
}

__all__ = [
    "Finding",
    "LintConfig",
    "SanitizerError",
    "install",
    "install_from_env",
    "lint_paths",
    "uninstall",
]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
