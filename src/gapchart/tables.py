"""Compile-time tables for a grammar under a parsing strategy.

A strategy fixes the backbone partition: context-independent categories
are built whenever their daughters are present, context-dependent ones
only where predicted (or where they can begin a predicted phrase).
`bu` makes every category context-independent, `lc` makes every one
context-dependent, and `llc` uses the grammar's declared set.

The tables take over what the grammar alone decides from
`Grammar.analysis`, which `parse_grammar` works out once per grammar:
the backbones, the nullable set, the possible-left-corner relation
(reflexive-transitive), the first-word sets for one-word lookahead and
the empty rules. Compilation builds, per strategy, the prediction
entries that fire when a first daughter completes and the reduction
trigger index. Triggers and entries hold what a rule alone decides: its
daughters as compiled (`Rule.compiled_rhs`, where a closed daughter is
its bare backbone), whether its head is context-independent, and
whether a predicted sequence is ground. Compilation also reports
closure violations: the context-dependent set must be closed under
possible-left-corner-of, or predictions cannot license every phrase a
complete parse needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .grammar import Grammar, Rule
from .terms import FeatureTerm

STRATEGIES = ("bu", "lc", "llc")


class PredictionEntry(NamedTuple):
    """One compiled prediction: when an edge matches `trigger`, the rule's
    remaining daughters up to a context-dependent one may be predicted.
    The trigger is the rule's first daughter as compiled (a closed one is
    its bare backbone, see `Rule.compiled_rhs`); `ground` says the
    sequence holds no variable, so it is predicted as it is stored."""

    rule: Rule
    trigger: FeatureTerm
    head_ci: bool
    seq: tuple[FeatureTerm, ...]
    ground: bool


class ReductionTrigger(NamedTuple):
    """One way a new edge can complete a rule: as the daughter
    `rule.rhs[len(tail)]`, after the daughters `tail` and before the
    nullable daughters `trailing` (matched by empty edges in place).
    The daughters are the rule's as compiled: a closed one is its bare
    backbone (see `Rule.compiled_rhs`). `head_ci` says the rule's head
    is context-independent, so every match is licensed. `binary` says
    the trigger has one tail daughter and no trailing ones, the shape
    the engine matches in one loop."""

    rule: Rule
    daughter: FeatureTerm
    tail: tuple[FeatureTerm, ...]
    trailing: tuple[FeatureTerm, ...]
    head_ci: bool
    binary: bool


@dataclass
class CompiledTables:
    """The compiled tables of one grammar under one strategy.

    Tables are meant to be reused across utterances: `memo` keeps the
    semantic work of the parses made with them (lexical readings and
    reading combinations), so later utterances share it. The engine
    fills the memo and evicts its least recently used entries; callers
    never set it. The grammar is not changed once it has tables, and
    tables serve one thread at a time.
    """

    strategy: str
    cd: frozenset[str]
    backbones: frozenset[str]
    nullable: frozenset[str]
    left_corner: dict[str, frozenset[str]]
    first_word: dict[str, frozenset[str]]
    entries: dict[str, tuple[PredictionEntry, ...]]
    reduction_triggers: dict[str, tuple[ReductionTrigger, ...]]
    empty_rules: tuple[Rule, ...] = ()
    closure_violations: list[tuple[str, str]] = field(default_factory=list)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _entries(grammar: Grammar, cd: frozenset[str]) -> dict[str, tuple[PredictionEntry, ...]]:
    out: dict[str, list[PredictionEntry]] = {}
    restrict = grammar.restrictor.restrict
    for rule in grammar.rules:
        if len(rule.rhs) < 2:
            continue
        trigger = rule.compiled_rhs[0]
        for j in range(1, len(rule.rhs)):
            if rule.rhs[j].backbone not in cd:
                continue
            seq = tuple(restrict(d) for d in rule.rhs[1 : j + 1])
            entry = PredictionEntry(
                rule=rule,
                trigger=trigger,
                head_ci=rule.head.backbone not in cd,
                seq=seq,
                ground=all(t.ground for t in seq),
            )
            out.setdefault(trigger.backbone, []).append(entry)
    return {b: tuple(es) for b, es in out.items()}


def _reduction_triggers(
    grammar: Grammar, nullable: frozenset[str], cd: frozenset[str]
) -> dict[str, tuple[ReductionTrigger, ...]]:
    # a new edge can complete a rule from any daughter position whose
    # following daughters are all nullable (matched by empty edges in place)
    out: dict[str, list[ReductionTrigger]] = {}
    for rule in grammar.rules:
        rhs = rule.compiled_rhs
        n = len(rhs)
        head_ci = rule.head.backbone not in cd
        for pos in range(n - 1, -1, -1):
            if pos < n - 1 and rhs[pos + 1].backbone not in nullable:
                break
            trigger = ReductionTrigger(rule, rhs[pos], rhs[:pos], rhs[pos + 1:], head_ci,
                                       binary=pos == 1 and n == 2)
            out.setdefault(rhs[pos].backbone, []).append(trigger)
    return {b: tuple(ts) for b, ts in out.items()}


def compile_tables(grammar: Grammar, strategy: str) -> CompiledTables:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    analysis = grammar.analysis
    if strategy == "bu":
        cd: frozenset[str] = frozenset()
    elif strategy == "lc":
        cd = analysis.backbones
    else:
        cd = frozenset(grammar.cd)
    left_corner = analysis.left_corner
    violations = sorted(
        (x, y)
        for x in cd
        for y in left_corner.get(x, frozenset())
        if y not in cd
    )
    return CompiledTables(
        strategy=strategy,
        cd=cd,
        backbones=analysis.backbones,
        nullable=analysis.nullable,
        left_corner=left_corner,
        first_word=analysis.first_word,
        entries=_entries(grammar, cd),
        reduction_triggers=_reduction_triggers(grammar, analysis.nullable, cd),
        empty_rules=analysis.empty_rules,
        closure_violations=violations,
    )
