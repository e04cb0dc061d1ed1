"""Compile-time tables: what a strategy decides for a grammar.

A strategy fixes the backbone partition: context-independent categories
are built whenever their daughters are present, context-dependent ones
only where predicted (or where they can begin a predicted phrase).
`bu` makes every category context-independent, `lc` makes every one
context-dependent, and `llc` uses the grammar's declared set.

What the grammar alone decides, whatever the strategy (its backbones,
nullable set, possible-left-corner relation and its inverse, first
words and empty rules), is the grammar's: `Grammar.analysis`, worked
out once by `parse_grammar`. The tables hold what the strategy
decides on top of it: the context-dependent set, the prediction
entries that fire when a first daughter completes, the reduction
trigger index and the closure violations. Triggers and entries hold
what a rule alone decides: its daughters as compiled
(`Rule.compiled_rhs`, where a closed daughter is its bare backbone),
whether its head is context-independent, whether a predicted sequence
is ground, and, when it has an open daughter or trigger to unify, the
number under which the class memo keeps its outcomes (see
`CompiledTables`). The context-dependent set must be closed under
possible-left-corner-of, or predictions cannot license every phrase a
complete parse needs; the pairs that break it are the violations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .grammar import Grammar, Rule
from .terms import FeatureTerm

STRATEGIES = ("bu", "lc", "llc")


class PredictionEntry(NamedTuple):
    """One compiled prediction: when an edge matches `trigger`, the rule's
    remaining daughters up to a context-dependent one may be predicted.
    The trigger is the rule's first daughter as compiled (a closed one is
    its bare backbone, see `Rule.compiled_rhs`); `ground` says the
    sequence holds no variable, so it is predicted as it is stored.
    `number` keys the entry's outcomes in the class memo; it is set when
    the trigger is open, and None for a bare trigger, which has nothing
    to unify: its sequence is predicted as stored when ground, else
    renamed."""

    rule: Rule
    trigger: FeatureTerm
    head_ci: bool
    seq: tuple[FeatureTerm, ...]
    ground: bool
    number: int | None


class ReductionTrigger(NamedTuple):
    """One way a new edge can complete a rule: as the daughter
    `rule.rhs[len(tail)]`, after the daughters `tail` and before the
    nullable daughters `trailing` (matched by empty edges in place).
    The daughters are the rule's as compiled: a closed one is its bare
    backbone (see `Rule.compiled_rhs`). `head_ci` says the rule's head
    is context-independent, so every match is licensed. `binary` says
    the trigger has one tail daughter and no trailing ones, the shape
    the engine matches in one loop. `number` keys the trigger's outcomes
    in the class memo: it is set when any daughter is open, whatever the
    shape, and None when every daughter is bare, which leaves nothing to
    unify: the head goes in as it is when ground, else renamed."""

    rule: Rule
    daughter: FeatureTerm
    tail: tuple[FeatureTerm, ...]
    trailing: tuple[FeatureTerm, ...]
    head_ci: bool
    binary: bool
    number: int | None


@dataclass
class CompiledTables:
    """What one strategy decides for one grammar: the context-dependent
    set, the prediction entries, the reduction triggers and the closure
    violations (what the grammar alone decides is `Grammar.analysis`).

    Tables are meant to be reused across utterances: `memo` keeps the
    semantic work of the parses made with them (lexical readings and
    reading combinations), so later utterances share it. The engine
    fills the memo and evicts its least recently used entries; callers
    never set it. `class_memo` keeps, next to it, what the rules'
    categories alone decide: the outcome of the engine's one
    instantiation step for each numbered trigger or entry and the
    variant classes of all the edges it matches (see the engine module).
    The engine fills it until it holds `engine.MEMO_LIMIT` entries, and
    then keeps what it holds. The grammar is not changed once it has
    tables, and tables serve one thread at a time.
    """

    strategy: str
    cd: frozenset[str]
    entries: dict[str, tuple[PredictionEntry, ...]]
    reduction_triggers: dict[str, tuple[ReductionTrigger, ...]]
    closure_violations: list[tuple[str, str]] = field(default_factory=list)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    class_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _entries(grammar: Grammar, cd: frozenset[str],
             numbers: Iterator[int]) -> dict[str, tuple[PredictionEntry, ...]]:
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
            ground = all(t.ground for t in seq)
            entry = PredictionEntry(
                rule=rule,
                trigger=trigger,
                head_ci=rule.head.backbone not in cd,
                seq=seq,
                ground=ground,
                number=next(numbers) if trigger.feats else None,
            )
            out.setdefault(trigger.backbone, []).append(entry)
    return {b: tuple(es) for b, es in out.items()}


def _reduction_triggers(
    grammar: Grammar, nullable: frozenset[str], cd: frozenset[str], numbers: Iterator[int]
) -> dict[str, tuple[ReductionTrigger, ...]]:
    # a new edge can complete a rule from any daughter position whose
    # following daughters are all nullable (matched by empty edges in place)
    out: dict[str, list[ReductionTrigger]] = {}
    for rule in grammar.rules:
        rhs = rule.compiled_rhs
        n = len(rhs)
        head_ci = rule.head.backbone not in cd
        any_open = any(d.feats for d in rhs)
        for pos in range(n - 1, -1, -1):
            if pos < n - 1 and rhs[pos + 1].backbone not in nullable:
                break
            trigger = ReductionTrigger(rule, rhs[pos], rhs[:pos], rhs[pos + 1:], head_ci,
                                       binary=pos == 1 and n == 2,
                                       number=next(numbers) if any_open else None)
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
    violations = sorted((x, y) for x in cd for y in analysis.left_corner[x] if y not in cd)
    numbers = itertools.count()
    return CompiledTables(
        strategy=strategy,
        cd=cd,
        entries=_entries(grammar, cd, numbers),
        reduction_triggers=_reduction_triggers(grammar, analysis.nullable, cd, numbers),
        closure_violations=violations,
    )
