"""Lint scopes: which modules each rule holds to what, and which files a
directory walk skips.

The scopes the rules are written for encode this repository's
architecture (DESIGN.md) and are constants — one value was ever in use:

- randomness lives only in ``repro/sim/rng.py`` (RL001's allowlist);
  process fan-out only under ``repro/parallel/``;
- ``repro/core``, ``repro/baselines``, ``repro/net`` and ``repro/shard``
  are sans-io (RL002's scope);
- wire-message modules are the ``*messages*.py`` files (RL003's scope).
"""

from __future__ import annotations

import pathlib

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

#: path fragments that exclude a file during directory walking
DEFAULT_EXCLUDE_PARTS: tuple[str, ...] = (
    "__pycache__",
    ".git",
    ".venv",
    "build/",
    "dist/",
    # the timing ledger: host stopwatches by design, never linted
    "benchmarks/",
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


def is_excluded(path: str | pathlib.Path) -> bool:
    posix = _posix(path)
    return any(part in posix for part in DEFAULT_EXCLUDE_PARTS)


__all__ = [
    "DEFAULT_EXCLUDE_PARTS",
    "IO_MODULES",
    "NONDETERMINISTIC_MODULES",
    "PROCESS_MODULES",
    "is_excluded",
    "is_messages_module",
    "is_parallel_module",
    "is_rng_module",
    "is_sansio_path",
    "package_relpath",
]
