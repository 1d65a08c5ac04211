"""Engine and index mechanics: file collection, path roles, rule
selection, cross-module subclass closure, parse-error reporting — plus
the dogfood guarantee that the shipped tree lints clean."""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.lint import run_lint
from repro.lint.config import (
    DEFAULT_EXCLUDE_PARTS,
    is_messages_module,
    is_rng_module,
    is_sansio_path,
    package_relpath,
)
from repro.lint.engine import collect_files
from repro.lint.findings import PARSE_ERROR_ID
from repro.lint.project import ModuleInfo, ProjectIndex
import ast

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


# -- the dogfood acceptance criterion ----------------------------------


@pytest.fixture(scope="module")
def tree_lint():
    """One run over what CI's ``--strict-suppressions`` step checks:
    ``src``, ``tests`` and ``examples``, findings and stale suppressions."""
    return run_lint([REPO / "src", REPO / "tests", REPO / "examples"])


def _reports_under(result, top: str) -> list:
    return [
        f
        for f in result.findings + result.stale_suppressions
        if pathlib.Path(f.path).resolve().relative_to(REPO).parts[0] == top
    ]


def test_src_tree_lints_clean(tree_lint):
    reports = _reports_under(tree_lint, "src")
    assert reports == [], "\n".join(f.render() for f in reports)
    assert tree_lint.files_checked > 200


def test_tests_tree_lints_clean(tree_lint):
    """``tests`` and ``examples``: no finding and no stale suppression."""
    reports = _reports_under(tree_lint, "tests") + _reports_under(
        tree_lint, "examples"
    )
    assert reports == [], "\n".join(f.render() for f in reports)


# -- file collection ----------------------------------------------------


def test_directory_walk_excludes_fixtures_dir():
    assert "tests/lint/fixtures" in DEFAULT_EXCLUDE_PARTS
    files = collect_files([REPO / "tests"])
    assert not any("fixtures" in str(p) for p in files)


def test_explicit_file_bypasses_excludes():
    target = FIXTURES / "rl001_bad.py"
    files = collect_files([target])
    assert files == [target]


def test_duplicate_paths_lint_once():
    target = FIXTURES / "rl001_bad.py"
    files = collect_files([target, target])
    assert files == [target]


# -- path roles and rule selection -------------------------------------


def test_package_relpath_and_roles():
    assert package_relpath("src/repro/core/eq_aso.py") == "core/eq_aso.py"
    assert package_relpath("/abs/src/repro/sim/rng.py") == "sim/rng.py"
    assert package_relpath("tests/core/test_eq_aso.py") is None
    assert is_rng_module("src/repro/sim/rng.py")
    assert not is_rng_module("src/repro/sim/kernel.py")
    assert not is_rng_module("tests/sim/test_rng.py")
    assert is_sansio_path("src/repro/baselines/delporte.py")
    assert is_sansio_path("src/repro/shard/service.py")
    assert not is_sansio_path("src/repro/runtime/aio.py")
    assert is_messages_module("src/repro/core/byz_messages.py")
    assert not is_messages_module("src/repro/core/tags.py")


def test_selection_logic():
    target = FIXTURES / "rl001_bad.py"  # trips RL001 and RL005
    assert {f.rule_id for f in run_lint([target]).findings} == {"RL001", "RL005"}
    only = run_lint([target], select=["RL001"]).findings
    assert {f.rule_id for f in only} == {"RL001"}
    assert run_lint([target], select=["RL004"]).findings == []


# -- project index -------------------------------------------------------


def _index(*sources: str) -> ProjectIndex:
    modules = [
        ModuleInfo(path=f"mod{i}.py", tree=ast.parse(src), source=src)
        for i, src in enumerate(sources)
    ]
    return ProjectIndex(modules)


def test_subclass_closure_crosses_modules():
    index = _index(
        "class A(ProtocolNode): pass\n",
        "class B(A): pass\nclass C(B): pass\nclass Other: pass\n",
    )
    assert index.is_protocol_class("A")
    assert index.is_protocol_class("C")
    assert not index.is_protocol_class("Other")
    assert not index.is_protocol_class("ProtocolNode")  # the base itself


def test_set_typed_attrs_inherit_from_base_init():
    index = _index(
        textwrap.dedent(
            """
            class Base(ProtocolNode):
                def __init__(self):
                    self.seen = set()
                    self.tags: frozenset[int] = frozenset()
                    self.counts = {}

            class Child(Base):
                def __init__(self):
                    super().__init__()
                    self.extra = {1, 2}
            """
        )
    )
    assert index.set_typed_attrs("Child") == {"seen", "tags", "extra"}


def test_parse_error_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    result = run_lint([bad])
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]
    assert "syntax error" in result.findings[0].message
