"""Lint configuration: which rules run, where, and with what exemptions.

The defaults encode this repository's architecture (DESIGN.md):

- randomness lives only in ``repro/sim/rng.py`` (RL001's allowlist);
- ``repro/core``, ``repro/baselines`` and ``repro/net`` are sans-io
  (RL002's scope);
- wire-message modules are the ``*messages*.py`` files (RL003's scope).

Everything is overridable from ``[tool.repro-lint]`` in ``pyproject.toml``
and from the CLI, so the linter stays useful as the tree grows.
"""

from __future__ import annotations

import pathlib
import tomllib
from dataclasses import dataclass, replace
from typing import Any, Iterable

#: Modules whose import makes code nondeterministic or wall-clock
#: dependent (RL001).  ``os`` itself is allowed — only ``os.urandom``
#: calls are flagged, by the rule.
DEFAULT_NONDETERMINISTIC_MODULES: frozenset[str] = frozenset(
    {"random", "time", "datetime", "uuid", "secrets"}
)

#: Modules that spawn OS processes (RL001).  Worker fan-out must go
#: through :mod:`repro.parallel`, the one package whose determinism
#: contract (per-task seed derivation, ordered merge) is tested — a
#: stray pool anywhere else reintroduces scheduling nondeterminism.
DEFAULT_PROCESS_MODULES: frozenset[str] = frozenset({"multiprocessing"})

#: Modules that perform I/O, scheduling or threading — banned in sans-io
#: protocol code (RL002).
DEFAULT_IO_MODULES: frozenset[str] = frozenset(
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

#: Representation-private attributes of the view vector, the value
#: interner and the view handle (RL006).  Accessing one of these on a non-``self``
#: receiver outside the view-plane module couples the caller to one
#: concrete representation.
DEFAULT_VIEW_PLANE_ATTRS: frozenset[str] = frozenset(
    {
        "_rows",
        "_interner",
        "_dirty",
        "_eq_states",
        "_union_mask",
        "_union_values",
        "_max_seen_tag",
        "_ids",
        "_values",
        "_tag_masks",
        "_cum_masks",
        "_by_writer",
        "_untagged_mask",
        "_mask",
        "_frozen",
    }
)

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


@dataclass(frozen=True, slots=True)
class LintConfig:
    """Immutable configuration for one lint run."""

    #: only these rule ids run (None = all registered)
    select: frozenset[str] | None = None
    #: these rule ids never run
    ignore: frozenset[str] = frozenset()
    #: path fragments that exclude a file during directory walking
    exclude_parts: tuple[str, ...] = DEFAULT_EXCLUDE_PARTS
    #: package-relative module paths allowed to import randomness
    rng_modules: tuple[str, ...] = ("sim/rng.py",)
    #: package-relative prefixes that must stay sans-io
    sansio_prefixes: tuple[str, ...] = ("core/", "baselines/", "net/")
    #: package-relative prefixes of the sharded-service layer; held to
    #: the same sans-io discipline (its CLI does I/O through argparse
    #: and file writes, which RL002 does not ban — what is banned is
    #: sockets/threads/asyncio sneaking into the deterministic service)
    shard_modules: tuple[str, ...] = ("shard/",)
    #: module basename substring marking a wire-message module
    messages_pattern: str = "messages"
    #: package-relative module paths allowed to touch view internals
    view_plane_modules: tuple[str, ...] = ("core/views.py",)
    #: package-relative prefixes allowed to import process-spawning
    #: modules (the deterministic executor lives here)
    parallel_modules: tuple[str, ...] = ("parallel/",)
    nondeterministic_modules: frozenset[str] = DEFAULT_NONDETERMINISTIC_MODULES
    process_modules: frozenset[str] = DEFAULT_PROCESS_MODULES
    io_modules: frozenset[str] = DEFAULT_IO_MODULES
    view_plane_private_attrs: frozenset[str] = DEFAULT_VIEW_PLANE_ATTRS

    # -- path classification --------------------------------------------
    def package_relpath(self, path: str) -> str | None:
        """Path relative to the ``repro`` package root, or None if the
        file is not inside it (tests, examples, fixtures...)."""
        posix = _posix(path)
        marker = "repro/"
        idx = posix.rfind("/" + marker)
        if idx >= 0:
            return posix[idx + 1 + len(marker):]
        if posix.startswith(marker):
            return posix[len(marker):]
        return None

    def is_test_path(self, path: str) -> bool:
        posix = _posix(path)
        return posix.startswith("tests/") or "/tests/" in posix

    def is_rng_module(self, path: str) -> bool:
        rel = self.package_relpath(path)
        return rel is not None and rel in self.rng_modules

    def is_sansio_path(self, path: str) -> bool:
        rel = self.package_relpath(path)
        if rel is None:
            return False
        return any(
            rel.startswith(p)
            for p in self.sansio_prefixes + self.shard_modules
        )

    def is_messages_module(self, path: str) -> bool:
        name = pathlib.PurePath(path).name
        return name.endswith(".py") and self.messages_pattern in name

    def is_view_plane_module(self, path: str) -> bool:
        rel = self.package_relpath(path)
        return rel is not None and rel in self.view_plane_modules

    def is_parallel_module(self, path: str) -> bool:
        rel = self.package_relpath(path)
        if rel is None:
            return False
        return any(rel.startswith(p) for p in self.parallel_modules)

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
        if "rng-modules" in table:
            kwargs["rng_modules"] = tuple(map(str, table["rng-modules"]))
        if "sansio-paths" in table:
            kwargs["sansio_prefixes"] = tuple(map(str, table["sansio-paths"]))
        if "shard-modules" in table:
            kwargs["shard_modules"] = tuple(map(str, table["shard-modules"]))
        if "view-plane-modules" in table:
            kwargs["view_plane_modules"] = tuple(
                map(str, table["view-plane-modules"])
            )
        if "parallel-modules" in table:
            kwargs["parallel_modules"] = tuple(
                map(str, table["parallel-modules"])
            )
        return cls(**kwargs)


__all__ = [
    "DEFAULT_EXCLUDE_PARTS",
    "DEFAULT_IO_MODULES",
    "DEFAULT_NONDETERMINISTIC_MODULES",
    "DEFAULT_PROCESS_MODULES",
    "DEFAULT_VIEW_PLANE_ATTRS",
    "LintConfig",
]
