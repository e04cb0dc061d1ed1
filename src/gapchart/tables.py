"""Compile-time tables for a grammar under a parsing strategy.

A strategy fixes the backbone partition: context-independent categories
are built whenever their daughters are present, context-dependent ones
only where predicted (or where they can begin a predicted phrase).
`bu` makes every category context-independent, `lc` makes every one
context-dependent, and `llc` uses the grammar's declared set.

Compilation derives the nullable set, the possible-left-corner relation
(reflexive-transitive), first-word sets for one-word lookahead, the
prediction entries that fire when a first daughter completes, and the
reduction trigger index. It also reports closure violations: the
context-dependent set must be closed under possible-left-corner-of, or
predictions cannot license every phrase a complete parse needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .grammar import Grammar, Rule
from .terms import FeatureTerm

STRATEGIES = ("bu", "lc", "llc")


@dataclass(frozen=True)
class PredictionEntry:
    """One compiled prediction: when an edge matches `trigger`, the rule's
    remaining daughters up to a context-dependent one may be predicted."""

    rule: Rule
    trigger: FeatureTerm
    head: FeatureTerm
    head_ci: bool
    seq: tuple[FeatureTerm, ...]


@dataclass
class CompiledTables:
    strategy: str
    cd: frozenset[str]
    backbones: frozenset[str]
    nullable: frozenset[str]
    left_corner: dict[str, frozenset[str]]
    first_word: dict[str, frozenset[str]]
    entries: dict[str, tuple[PredictionEntry, ...]]
    reduction_triggers: dict[str, tuple[tuple[Rule, int], ...]]
    empty_rules: tuple[Rule, ...] = ()
    closure_violations: list[tuple[str, str]] = field(default_factory=list)


def _all_backbones(grammar: Grammar) -> frozenset[str]:
    out: set[str] = set()
    if grammar.start is not None:
        out.add(grammar.start.backbone)
    for rule in grammar.rules:
        out.add(rule.head.backbone)
        out.update(d.backbone for d in rule.rhs)
    for entries in grammar.lexicon.values():
        out.update(e.cat.backbone for e in entries)
    return frozenset(out)


def _nullable(grammar: Grammar) -> frozenset[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            head = rule.head.backbone
            if head in nullable:
                continue
            if all(d.backbone in nullable for d in rule.rhs):
                nullable.add(head)
                changed = True
    return frozenset(nullable)


def _left_corner(
    grammar: Grammar, backbones: frozenset[str], nullable: frozenset[str]
) -> dict[str, frozenset[str]]:
    # one step: a daughter can begin the head if everything before it
    # is nullable
    step: dict[str, set[str]] = {b: {b} for b in backbones}
    for rule in grammar.rules:
        head = rule.head.backbone
        for d in rule.rhs:
            step.setdefault(d.backbone, {d.backbone}).add(head)
            if d.backbone not in nullable:
                break
    # transitive closure
    changed = True
    while changed:
        changed = False
        for corner, phrases in step.items():
            extra: set[str] = set()
            for phrase in phrases:
                extra.update(step.get(phrase, ()))
            if not extra <= phrases:
                phrases.update(extra)
                changed = True
    return {b: frozenset(s) for b, s in step.items()}


def _first_word(grammar: Grammar, nullable: frozenset[str]) -> dict[str, frozenset[str]]:
    first: dict[str, set[str]] = {}
    for word, entries in grammar.lexicon.items():
        for entry in entries:
            first.setdefault(entry.cat.backbone, set()).add(word)
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            head = first.setdefault(rule.head.backbone, set())
            before = len(head)
            for d in rule.rhs:
                head.update(first.get(d.backbone, ()))
                if d.backbone not in nullable:
                    break
            if len(head) != before:
                changed = True
    return {b: frozenset(s) for b, s in first.items()}


def _entries(grammar: Grammar, cd: frozenset[str]) -> dict[str, tuple[PredictionEntry, ...]]:
    out: dict[str, list[PredictionEntry]] = {}
    restrict = grammar.restrictor.restrict
    for rule in grammar.rules:
        if len(rule.rhs) < 2:
            continue
        trigger = rule.rhs[0]
        for j in range(1, len(rule.rhs)):
            if rule.rhs[j].backbone not in cd:
                continue
            seq = tuple(restrict(d) for d in rule.rhs[1 : j + 1])
            entry = PredictionEntry(
                rule=rule,
                trigger=trigger,
                head=rule.head,
                head_ci=rule.head.backbone not in cd,
                seq=seq,
            )
            out.setdefault(trigger.backbone, []).append(entry)
    return {b: tuple(es) for b, es in out.items()}


def _reduction_triggers(
    grammar: Grammar, nullable: frozenset[str]
) -> dict[str, tuple[tuple[Rule, int], ...]]:
    # a new edge can complete a rule from any daughter position whose
    # following daughters are all nullable (matched by empty edges in place)
    out: dict[str, list[tuple[Rule, int]]] = {}
    for rule in grammar.rules:
        n = len(rule.rhs)
        for pos in range(n - 1, -1, -1):
            if pos < n - 1 and rule.rhs[pos + 1].backbone not in nullable:
                break
            out.setdefault(rule.rhs[pos].backbone, []).append((rule, pos))
    return {b: tuple(ts) for b, ts in out.items()}


def compile_tables(grammar: Grammar, strategy: str) -> CompiledTables:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    backbones = _all_backbones(grammar)
    if strategy == "bu":
        cd: frozenset[str] = frozenset()
    elif strategy == "lc":
        cd = backbones
    else:
        cd = frozenset(grammar.cd)
    nullable = _nullable(grammar)
    left_corner = _left_corner(grammar, backbones, nullable)
    violations = sorted(
        (x, y)
        for x in cd
        for y in left_corner.get(x, frozenset())
        if y not in cd
    )
    return CompiledTables(
        strategy=strategy,
        cd=cd,
        backbones=backbones,
        nullable=nullable,
        left_corner=left_corner,
        first_word=_first_word(grammar, nullable),
        entries=_entries(grammar, cd),
        reduction_triggers=_reduction_triggers(grammar, nullable),
        empty_rules=tuple(r for r in grammar.rules if not r.rhs),
        closure_violations=violations,
    )
