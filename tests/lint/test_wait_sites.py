"""The wait-site walk RL009 reads: every ``WaitUntil`` with the class and
outermost function around it and its resolved predicate body."""

from __future__ import annotations

import ast
import textwrap

from repro.lint.flow import wait_sites
from repro.lint.project import ModuleInfo

SOURCE = textwrap.dedent(
    """
    class PingNode(ProtocolNode):
        def ping(self):
            self.broadcast("ping")
            yield WaitUntil(lambda: len(self.pongs) >= self.quorum_size, "q")

        def propose(self):
            def acked():
                need = self.quorum_size
                return len(self.acks) >= need

            yield WaitUntil(acked, "named local def")
            yield WaitUntil(self.ready, "not resolvable: skipped")

    def helper(node):
        def inner():
            yield WaitUntil(lambda: node.done)
        return inner
    """
)


def test_wait_sites_carry_class_outermost_function_and_predicate_body():
    sites = wait_sites([ModuleInfo("mod.py", ast.parse(SOURCE), SOURCE)])
    where = [(s.cls, s.enclosing_fn.name, s.path) for s in sites]
    assert where == [
        ("PingNode", "ping", "mod.py"),
        ("PingNode", "propose", "mod.py"),
        (None, "helper", "mod.py"),  # the outermost function, not `inner`
    ]
    by_lambda, by_name, _ = sites
    assert [ast.unparse(n) for n in by_lambda.predicate] == [
        "len(self.pongs) >= self.quorum_size"
    ]
    assert [ast.unparse(n) for n in by_name.predicate] == [
        "need = self.quorum_size",
        "return len(self.acks) >= need",
    ]
