"""Engine and index mechanics: file collection, config roles,
cross-module subclass closure, parse-error reporting — plus the dogfood
guarantee that the shipped tree lints clean."""

from __future__ import annotations

import pathlib
import textwrap

from repro.lint import LintConfig, run_lint
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


def test_src_tree_lints_clean():
    result = run_lint([REPO / "src"], LintConfig())
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )
    assert result.files_checked > 50


def test_tests_tree_lints_clean():
    result = run_lint([REPO / "tests"], LintConfig())
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )


# -- file collection ----------------------------------------------------


def test_directory_walk_excludes_fixtures_dir():
    assert "tests/lint/fixtures" in DEFAULT_EXCLUDE_PARTS
    files = collect_files([REPO / "tests"], LintConfig())
    assert not any("fixtures" in str(p) for p in files)


def test_explicit_file_bypasses_excludes():
    target = FIXTURES / "rl001_bad.py"
    files = collect_files([target], LintConfig())
    assert files == [target]


def test_duplicate_paths_lint_once():
    target = FIXTURES / "rl001_bad.py"
    files = collect_files([target, target], LintConfig())
    assert files == [target]


# -- config roles --------------------------------------------------------


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
    cfg = LintConfig()
    assert cfg.rule_enabled("RL001")
    only = cfg.with_selection(select=["RL002"])
    assert only.rule_enabled("RL002") and not only.rule_enabled("RL001")
    dropped = cfg.with_selection(ignore=["RL003"])
    assert not dropped.rule_enabled("RL003") and dropped.rule_enabled("RL001")
    # ignore wins over select
    both = cfg.with_selection(select=["RL003"], ignore=["RL003"])
    assert not both.rule_enabled("RL003")


def test_pyproject_config_roundtrip(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        textwrap.dedent(
            """
            [tool.repro-lint]
            ignore = ["RL004"]
            exclude = ["generated/"]
            """
        )
    )
    cfg = LintConfig.from_pyproject(tmp_path)
    assert not cfg.rule_enabled("RL004") and cfg.rule_enabled("RL001")
    assert cfg.is_excluded("pkg/generated/x.py")
    assert cfg.is_excluded("tests/lint/fixtures/x.py")  # defaults kept
    assert not cfg.is_excluded("pkg/handwritten/x.py")


def test_pyproject_missing_or_broken_falls_back(tmp_path):
    assert LintConfig.from_pyproject(tmp_path) == LintConfig()
    (tmp_path / "pyproject.toml").write_text("not [valid toml")
    assert LintConfig.from_pyproject(tmp_path) == LintConfig()


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
    result = run_lint([bad], LintConfig())
    assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]
    assert "syntax error" in result.findings[0].message
