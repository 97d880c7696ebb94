"""Configuration for the repo-native lint: which code is *hot*, which
code crosses the fork boundary, and which files carry API contracts.

The committed declaration file is ``hotpaths.toml`` next to this module.
Its contract:

* ``[[hot]]`` tables declare files whose kernels must stay array-native
  (the ``HK*`` rules apply).  ``functions`` is an include-list of
  qualified names (``Class.method`` or bare function names); when
  omitted the whole file is hot minus ``exclude``.  Excluding a legacy
  scalar interface in the toml (with a comment saying why) is the
  sanctioned alternative to scattering pragmas over whole functions.
* ``[forksafety]`` declares the process-pool module(s): which functions
  run worker-side (``FS201``), which module globals those functions may
  touch (the per-process bootstrap slots), and which constructors
  produce values that must never ride a pickled task payload
  (``FS202``).
* ``[api]`` declares files whose dataclasses must be ``frozen=True``
  (``API304``); the other ``API*`` rules apply everywhere.

File declarations are matched by posix-path *suffix*, so the toml can
name ``src/repro/core/engine.py`` while the CLI is handed relative or
absolute paths.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any


def _match(path: str, declared: str) -> bool:
    """True when ``declared`` names ``path`` by posix suffix on whole
    path segments (``core/engine.py`` matches ``src/repro/core/engine.py``
    but not ``other_engine.py``)."""
    parts = PurePosixPath(Path(path).as_posix()).parts
    want = PurePosixPath(declared).parts
    return len(parts) >= len(want) and parts[-len(want):] == want


@dataclass(frozen=True)
class HotDecl:
    """One ``[[hot]]`` table: a file whose kernels the HK rules police."""

    file: str
    functions: tuple[str, ...] | None = None
    exclude: tuple[str, ...] = ()

    def applies_to(self, qualname: str) -> bool:
        """Whether a function (by dotted qualname) is declared hot."""
        if any(_qual_match(qualname, name) for name in self.exclude):
            return False
        if self.functions is None:
            return True
        return any(_qual_match(qualname, name) for name in self.functions)


def _qual_match(qualname: str, declared: str) -> bool:
    """Match ``Class.method`` declarations against dotted qualnames,
    including functions nested inside a declared one."""
    return qualname == declared or qualname.startswith(declared + ".")


@dataclass(frozen=True)
class ForkSafetyConfig:
    """The ``[forksafety]`` section (all fields empty = rules dormant)."""

    files: tuple[str, ...] = ()
    worker_functions: tuple[str, ...] = ()
    allowed_worker_globals: tuple[str, ...] = ()
    unpicklable_factories: tuple[str, ...] = ()

    def covers(self, path: str) -> bool:
        return any(_match(path, declared) for declared in self.files)


@dataclass(frozen=True)
class ApiConfig:
    """The ``[api]`` section."""

    frozen_dataclass_files: tuple[str, ...] = ()

    def requires_frozen(self, path: str) -> bool:
        return any(_match(path, declared)
                   for declared in self.frozen_dataclass_files)


@dataclass(frozen=True)
class LintConfig:
    """Full lint configuration (see module docstring for the contract)."""

    hot: tuple[HotDecl, ...] = ()
    forksafety: ForkSafetyConfig = field(default_factory=ForkSafetyConfig)
    api: ApiConfig = field(default_factory=ApiConfig)

    def hot_decl_for(self, path: str) -> HotDecl | None:
        for decl in self.hot:
            if _match(path, decl.file):
                return decl
        return None

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LintConfig":
        hot = tuple(
            HotDecl(
                file=entry["file"],
                functions=(tuple(entry["functions"])
                           if "functions" in entry else None),
                exclude=tuple(entry.get("exclude", ())),
            )
            for entry in data.get("hot", ())
        )
        fork = data.get("forksafety", {})
        api = data.get("api", {})
        return cls(
            hot=hot,
            forksafety=ForkSafetyConfig(
                files=tuple(fork.get("files", ())),
                worker_functions=tuple(fork.get("worker_functions", ())),
                allowed_worker_globals=tuple(
                    fork.get("allowed_worker_globals", ())),
                unpicklable_factories=tuple(
                    fork.get("unpicklable_factories", ())),
            ),
            api=ApiConfig(
                frozen_dataclass_files=tuple(
                    api.get("frozen_dataclass_files", ())),
            ),
        )

    @classmethod
    def load(cls, path: str | Path | None = None) -> "LintConfig":
        """Load ``hotpaths.toml`` (the committed one by default)."""
        if path is None:
            path = default_config_path()
        with open(path, "rb") as handle:
            return cls.from_dict(tomllib.load(handle))


def default_config_path() -> Path:
    return Path(__file__).with_name("hotpaths.toml")
