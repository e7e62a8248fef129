"""OSI classifier: 5-tuple filters mapping packets to queues."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List

from repro.sm.traffic_ctrl import FiveTupleMatch
from repro.traffic.flows import FiveTuple, Packet


@dataclass(frozen=True)
class FilterRule:
    """One classification rule; lower ``prio`` value wins."""

    filter_id: int
    match: FiveTupleMatch
    queue_id: int
    prio: int = 100

    def matches(self, flow: FiveTuple) -> bool:
        m = self.match
        if m.src_addr and m.src_addr != flow.src_addr:
            return False
        if m.dst_addr and m.dst_addr != flow.dst_addr:
            return False
        if m.src_port and m.src_port != flow.src_port:
            return False
        if m.dst_port and m.dst_port != flow.dst_port:
            return False
        if m.protocol and m.protocol != flow.protocol:
            return False
        return True


class Classifier:
    """Priority-ordered rule table with a default queue fallback."""

    def __init__(self, default_queue: int = 0) -> None:
        self.default_queue = default_queue
        self._rules: List[FilterRule] = []
        self._ids = itertools.count(1)

    def add_rule(self, match: FiveTupleMatch, queue_id: int, prio: int = 100) -> FilterRule:
        rule = FilterRule(
            filter_id=next(self._ids), match=match, queue_id=queue_id, prio=prio
        )
        self._rules.append(rule)
        self._rules.sort(key=lambda r: (r.prio, r.filter_id))
        return rule

    def remove_rule(self, filter_id: int) -> bool:
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.filter_id != filter_id]
        return len(self._rules) != before

    def drop_queue_rules(self, queue_id: int) -> int:
        """Remove every rule pointing at ``queue_id``; returns count."""
        before = len(self._rules)
        self._rules = [rule for rule in self._rules if rule.queue_id != queue_id]
        return before - len(self._rules)

    def classify(self, packet: Packet) -> int:
        """Queue id for ``packet`` (first matching rule by priority)."""
        for rule in self._rules:
            if rule.matches(packet.flow):
                return rule.queue_id
        return self.default_queue

    @property
    def rules(self) -> List[FilterRule]:
        return list(self._rules)
