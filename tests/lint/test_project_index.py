"""ProjectIndex edge cases the simple happy-path tests skip: diamond
MRO, aliased base imports, and attribute inheritance through
``__init__``-less middle classes."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.project import ModuleInfo, ProjectIndex


def _index(*sources: str) -> ProjectIndex:
    modules = [
        ModuleInfo(
            path=f"mod{i}.py", tree=ast.parse(textwrap.dedent(src)), source=src
        )
        for i, src in enumerate(sources)
    ]
    return ProjectIndex(modules)


# -- MRO approximation ---------------------------------------------------


def test_diamond_mro_visits_each_class_once():
    index = _index(
        """
        class Top(ProtocolNode):
            def ping(self): pass

        class Left(Top):
            def helper(self): pass

        class Right(Top):
            def helper(self): pass
            def other(self): pass

        class Bottom(Left, Right):
            pass
        """
    )
    names = [c.name for c in index.mro("Bottom")]
    assert names == ["Bottom", "Left", "Top", "Right"]  # depth-first, deduped
    assert len(names) == len(set(names))
    # lookup resolves to the first base in declaration order
    helper = index.resolve_method("Bottom", "helper")
    left_helper = index.classes["Left"].methods["helper"]
    assert helper is left_helper
    # methods only on the far side of the diamond still resolve
    assert index.resolve_method("Bottom", "other") is not None
    assert index.is_protocol_class("Bottom")


def test_aliased_base_import_keeps_subclass_closure():
    index = _index(
        "class EqAso(ProtocolNode):\n    pass\n",
        """
        from mod0 import EqAso as Base

        class Variant(Base):
            pass
        """,
    )
    assert index.classes["Variant"].base_names == ("EqAso",)
    assert index.is_protocol_class("Variant")


def test_mro_tolerates_unknown_and_cyclic_bases():
    index = _index(
        """
        class A(SomeExternalThing):
            pass

        class Loop(Loop2):
            pass

        class Loop2(Loop):
            pass
        """
    )
    assert [c.name for c in index.mro("A")] == ["A"]
    # a (nonsense) base cycle terminates instead of recursing forever
    assert [c.name for c in index.mro("Loop")] == ["Loop", "Loop2"]
    assert not index.is_protocol_class("A")


# -- attribute facts across the MRO --------------------------------------


def test_set_attrs_skip_initless_middle_class():
    index = _index(
        """
        class Grandparent(ProtocolNode):
            def __init__(self):
                self.acks = set()
                self.tags: frozenset[int] = frozenset()

        class Middle(Grandparent):
            def op(self):
                pass

        class Leaf(Middle):
            def __init__(self):
                super().__init__()
                self.extra = {1}
        """
    )
    # Middle has no __init__ of its own; the grandparent's assignments
    # must still be visible from the leaf (and from Middle itself)
    assert index.set_typed_attrs("Leaf") == {"acks", "tags", "extra"}
    assert index.set_typed_attrs("Middle") == {"acks", "tags"}
