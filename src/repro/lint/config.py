"""Lint configuration: which rules run and which files are walked.

The scopes the rules are written for encode this repository's
architecture (DESIGN.md) and are constants — one value was ever in use:

- randomness lives only in ``repro/sim/rng.py`` (RL001's allowlist);
  process fan-out only under ``repro/parallel/``;
- ``repro/core``, ``repro/baselines``, ``repro/net`` and ``repro/shard``
  are sans-io (RL002's scope);
- wire-message modules are the ``*messages*.py`` files (RL003's scope).

Rule selection and extra walk excludes come from ``[tool.repro-lint]``
in ``pyproject.toml`` and from the CLI.
"""

from __future__ import annotations

import pathlib
import tomllib
from dataclasses import dataclass, replace
from typing import Any, Iterable

#: Modules whose import makes code nondeterministic or wall-clock
#: dependent (RL001).  ``os`` itself is allowed — only ``os.urandom``
#: calls are flagged, by the rule.
NONDETERMINISTIC_MODULES: frozenset[str] = frozenset(
    {"random", "time", "datetime", "uuid", "secrets"}
)

#: Modules that spawn OS processes (RL001).  Worker fan-out must go
#: through :mod:`repro.parallel`, the one package whose determinism
#: contract (per-task seed derivation, ordered merge) is tested — a
#: stray pool anywhere else reintroduces scheduling nondeterminism.
PROCESS_MODULES: frozenset[str] = frozenset({"multiprocessing"})

#: Modules that perform I/O, scheduling or threading — banned in sans-io
#: protocol code (RL002).
IO_MODULES: frozenset[str] = frozenset(
    {
        "asyncio",
        "concurrent",
        "http",
        "multiprocessing",
        "queue",
        "select",
        "selectors",
        "signal",
        "socket",
        "socketserver",
        "ssl",
        "subprocess",
        "threading",
        "urllib",
    }
)

#: package-relative module paths allowed to import randomness
RNG_MODULES: tuple[str, ...] = ("sim/rng.py",)
#: package-relative prefixes allowed to import process-spawning modules
#: (the deterministic executor lives here)
PARALLEL_PREFIXES: tuple[str, ...] = ("parallel/",)
#: package-relative prefixes that must stay sans-io.  The sharded
#: service is held to the same discipline: its CLI does I/O through
#: argparse and file writes, which RL002 does not ban — what is banned
#: is sockets/threads/asyncio sneaking into the deterministic service.
SANSIO_PREFIXES: tuple[str, ...] = ("core/", "baselines/", "net/", "shard/")
#: module basename substring marking a wire-message module
MESSAGES_PATTERN = "messages"

DEFAULT_EXCLUDE_PARTS: tuple[str, ...] = (
    "__pycache__",
    ".git",
    ".venv",
    "build/",
    "dist/",
    # deliberately-bad rule fixtures; linted explicitly by the tests
    "tests/lint/fixtures",
    # quorum-weakened chaos mutants: deliberately unsafe protocol
    # variants that must FAIL RL009 — linted explicitly (with
    # `--context src/repro --select RL009`) by the tests and CI, which
    # assert the findings are present
    "chaos/mutants.py",
)


def _posix(path: str | pathlib.Path) -> str:
    return pathlib.PurePath(path).as_posix()


# -- path classification ------------------------------------------------
def package_relpath(path: str) -> str | None:
    """Path relative to the ``repro`` package root, or None if the file
    is not inside it (tests, examples, fixtures...)."""
    posix = _posix(path)
    marker = "repro/"
    idx = posix.rfind("/" + marker)
    if idx >= 0:
        return posix[idx + 1 + len(marker):]
    if posix.startswith(marker):
        return posix[len(marker):]
    return None


def is_rng_module(path: str) -> bool:
    return package_relpath(path) in RNG_MODULES


def is_parallel_module(path: str) -> bool:
    rel = package_relpath(path)
    return rel is not None and rel.startswith(PARALLEL_PREFIXES)


def is_sansio_path(path: str) -> bool:
    rel = package_relpath(path)
    return rel is not None and rel.startswith(SANSIO_PREFIXES)


def is_messages_module(path: str) -> bool:
    name = pathlib.PurePath(path).name
    return name.endswith(".py") and MESSAGES_PATTERN in name


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Immutable configuration for one lint run."""

    #: only these rule ids run (None = all registered)
    select: frozenset[str] | None = None
    #: these rule ids never run
    ignore: frozenset[str] = frozenset()
    #: path fragments that exclude a file during directory walking
    exclude_parts: tuple[str, ...] = DEFAULT_EXCLUDE_PARTS

    def is_excluded(self, path: str) -> bool:
        posix = _posix(path)
        return any(part in posix for part in self.exclude_parts)

    # -- rule selection --------------------------------------------------
    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        return self.select is None or rule_id in self.select

    # -- construction ----------------------------------------------------
    def with_selection(
        self,
        select: Iterable[str] | None = None,
        ignore: Iterable[str] | None = None,
    ) -> "LintConfig":
        """CLI overrides: ``--select``/``--ignore`` replace the config's."""
        out = self
        if select is not None:
            out = replace(out, select=frozenset(select))
        if ignore is not None:
            out = replace(out, ignore=frozenset(ignore))
        return out

    @classmethod
    def from_pyproject(cls, root: str | pathlib.Path) -> "LintConfig":
        """Load ``[tool.repro-lint]`` from ``root/pyproject.toml``.

        Missing file or missing table yields the defaults; a malformed
        file also falls back to defaults (the linter must not crash on a
        broken pyproject — that is some other tool's finding).
        """
        path = pathlib.Path(root) / "pyproject.toml"
        try:
            data: dict[str, Any] = tomllib.loads(path.read_text())
        except (OSError, tomllib.TOMLDecodeError):
            return cls()
        table = data.get("tool", {}).get("repro-lint", {})
        if not isinstance(table, dict):
            return cls()
        kwargs: dict[str, Any] = {}
        if "select" in table:
            kwargs["select"] = frozenset(map(str, table["select"]))
        if "ignore" in table:
            kwargs["ignore"] = frozenset(map(str, table["ignore"]))
        if "exclude" in table:
            kwargs["exclude_parts"] = DEFAULT_EXCLUDE_PARTS + tuple(
                map(str, table["exclude"])
            )
        return cls(**kwargs)


__all__ = [
    "DEFAULT_EXCLUDE_PARTS",
    "IO_MODULES",
    "LintConfig",
    "NONDETERMINISTIC_MODULES",
    "PROCESS_MODULES",
    "is_messages_module",
    "is_parallel_module",
    "is_rng_module",
    "is_sansio_path",
    "package_relpath",
]
