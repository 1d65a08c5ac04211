"""RL007 — dead letters and dead handlers.

Two sides of the same conformance question over the message-flow graph:

- **dead letter**: a message dataclass constructed at a send site that
  *no* code anywhere consumes (no ``match`` arm, no ``isinstance`` test
  — the liberal reading, so a helper that dispatches on a loop variable
  still counts as a consumer).  The message leaves a node and rots in
  every inbox.
- **dead handler**: a ``match``/``isinstance`` arm on a handler
  *parameter* of a protocol (or protocol-component) class, for a message
  type that no reachable code ever sends.  The arm is unreachable — it
  is either leftover from a refactor or the send site was lost.

Handlers are resolved along the MRO by construction: the graph's send
and consume sets are global, so ``byz_sso`` consuming through handlers
inherited from ``sso`` (and components like ``BrachaRBC`` consuming on
behalf of their owner) need no special casing.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.flow.graph import build_flow_graph
from repro.lint.project import ModuleInfo, ProjectIndex
from repro.lint.rules.base import Rule


class DeadLetterRule(Rule):
    rule_id = "RL007"
    summary = (
        "every sent message type has a consumer, every handler arm a sender"
    )
    fix_hint = (
        "add the missing on_message arm (or delete the orphaned send/arm); "
        "if the send is intentionally one-way, suppress with a justification"
    )

    def check(
        self, module: ModuleInfo, index: ProjectIndex, config: LintConfig
    ) -> Iterator[Finding]:
        graph = build_flow_graph(index)
        sent = graph.sent_names
        consumed = graph.consumed_names
        for send in graph.sends:
            if send.path != module.path:
                continue
            if send.message not in consumed:
                where = (
                    f"{send.cls}.{send.method}"
                    if send.cls and send.method
                    else send.method or "<module>"
                )
                yield Finding(
                    rule_id=self.rule_id,
                    severity=self.severity,
                    path=module.path,
                    line=send.lineno,
                    col=send.col,
                    message=(
                        f"dead letter: '{send.message}' is sent by {where} "
                        f"(via {send.via}) but no registered handler, match "
                        "arm or isinstance test anywhere consumes it"
                    ),
                    fix_hint=self.fix_hint,
                )
        for consume in graph.consumes:
            if consume.path != module.path or not consume.is_arm:
                continue
            if consume.cls not in graph.handler_classes:
                continue
            if consume.message in sent:
                continue
            yield Finding(
                rule_id=self.rule_id,
                severity=self.severity,
                path=module.path,
                line=consume.lineno,
                col=consume.col,
                message=(
                    f"dead handler: {consume.cls}.{consume.method} has a "
                    f"{consume.kind} arm for '{consume.message}' but no "
                    "reachable code sends that type"
                ),
                fix_hint=self.fix_hint,
            )


__all__ = ["DeadLetterRule"]
