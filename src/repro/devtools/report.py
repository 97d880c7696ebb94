"""Machine-readable static-analysis report (``LINT_report.json``).

The figure sweep leaves its tables under ``benchmarks/results/`` so
their history is diffable; this module gives the correctness tooling
the same treatment.  One JSON document captures
the lint outcome over ``src/repro`` (rule catalogue, findings,
suppression count, clean flag), so CI artifacts and local runs are
comparable without scraping logs.

Usage::

    PYTHONPATH=src python -m repro.devtools.report
    PYTHONPATH=src python -m repro.devtools.report --out somewhere.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any

from repro.devtools import lint as lint_mod
from repro.devtools.config import LintConfig

#: Report format version (bump on shape changes).
SCHEMA_VERSION = 2


def default_report_path(repo_root: Path) -> Path:
    return repo_root / "benchmarks" / "results" / "LINT_report.json"


def build_report(repo_root: Path) -> dict[str, Any]:
    """Run the lint and assemble the document."""
    config = LintConfig.load()
    lint_result = lint_mod.lint_paths([repo_root / "src" / "repro"], config)
    lint_payload = lint_result.to_dict()
    # Paths in the committed report must not leak absolute build roots.
    for bucket in ("findings", "suppressed"):
        for finding in lint_payload[bucket]:
            finding["path"] = _relative(finding["path"], repo_root)
    return {
        "schema_version": SCHEMA_VERSION,
        "lint": lint_payload,
        "rules": {
            code: {"name": rule.name, "description": rule.description}
            for code, rule in sorted(lint_mod.REGISTRY.items())
        },
    }


def _relative(path: str, repo_root: Path) -> str:
    try:
        return Path(path).resolve().relative_to(
            repo_root.resolve()).as_posix()
    except ValueError:
        return Path(path).as_posix()


def write_report(repo_root: Path, out: Path | None = None) -> Path:
    """Build and write the report; returns the path written."""
    destination = out or default_report_path(repo_root)
    destination.parent.mkdir(parents=True, exist_ok=True)
    document = build_report(repo_root)
    destination.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    return destination


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.report",
        description="Emit LINT_report.json alongside the figure "
                    "tables.")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "benchmarks/results/LINT_report.json)")
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: three levels "
                             "above this module)")
    args = parser.parse_args(argv)
    repo_root = (Path(args.repo_root) if args.repo_root
                 else Path(__file__).resolve().parents[3])
    destination = write_report(repo_root,
                               Path(args.out) if args.out else None)
    document = json.loads(destination.read_text(encoding="utf-8"))
    print(f"report: wrote {destination} "
          f"(lint clean={document['lint']['clean']})")
    return 0 if document["lint"]["clean"] else 1


if __name__ == "__main__":
    from repro.devtools.report import main as _main
    raise SystemExit(_main())
