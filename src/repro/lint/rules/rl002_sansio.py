"""RL002 — sans-io purity.

The same algorithm objects run under the discrete-event simulator and
the asyncio runtime precisely because ``core/``, ``baselines/`` and
``net/`` never touch an event loop, socket or thread — they only append
to ``outbox`` and a runtime drains it (DESIGN.md).  Two checks:

1. **Banned I/O imports** in sans-io paths: ``asyncio``, ``socket``,
   ``threading``, ``subprocess``, and friends.
2. **Outbox discipline**: a :class:`ProtocolNode` subclass must not
   manipulate ``self.outbox`` directly — all communication goes through
   the ``send``/``broadcast`` helpers, which is what keeps the network
   trace hooks and the Byzantine truncation adversary sound.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import IO_MODULES, is_sansio_path
from repro.lint.findings import Finding
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule, imported_module_names


class SansIoRule(Rule):
    rule_id = "RL002"
    fix_hint = (
        "protocol code must stay sans-io: queue messages with "
        "self.send()/self.broadcast() and let a runtime drive transport"
    )

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Finding]:
        if is_sansio_path(module.path):
            for name, node in imported_module_names(module.tree):
                if name in IO_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"sans-io module imports {name!r}; protocol code "
                        f"must not schedule, block or perform I/O",
                    )
        # outbox discipline applies to protocol subclasses anywhere (the
        # base class in runtime/protocol.py is the one legitimate owner)
        for cls in index.protocol_classes_in(module):
            for node in ast.walk(cls.node):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "outbox"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{cls.name} touches self.outbox directly; use the "
                        f"send()/broadcast() helpers so runtimes and tracers "
                        f"see every message",
                    )


__all__ = ["SansIoRule"]
