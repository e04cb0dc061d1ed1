"""Interleaved semantics: readings, sortal typing, deferred assignments.

Parsing runs at one of four depths:

* ``syn``: syntax only, no readings.
* ``sem``: logical forms are built as phrases complete; a phrase with no
  buildable reading is rejected.
* ``sorts``: additionally, every sort-annotated reading must type-check;
  each consistent assignment of sorts to atom occurrences is a separate
  reading.
* ``deferred``: sortal choices that the phrase built so far does not
  determine are carried as deferred assignments (an atom occurrence with
  its surviving candidate sorts) instead of being multiplied out; they
  are resolved when enclosing structure narrows them, or on demand.

At every depth but ``syn`` an edge carries exactly one reading, so a
phrase's readings are combined from one reading per daughter, and two
readings of one span and category with different renders are two edges.

Both sortal depths collect the same choices, one per atom occurrence
the daughters left open: `sorts` multiplies out the choices `deferred`
keeps.

Sort annotations are logic variables in annotation slots of the LF, so
constraint propagation is ordinary unification: an application node
forces its functor slot to be a function sort from the argument slots to
the node's own slot.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .grammar import Grammar, LexEntry, Rule, SemRule, default_semterm
from .lf import LFAnn, LFApp, Placeholder, SFunc, substitute_placeholders
from .terms import (
    Binds,
    FeatureTerm,
    Var,
    canonical,
    leaves,
    refresh,
    resolve,
    unify_values,
)

# sort constraints are solved by term unification; the second name keeps
# sort unification visible as its own entry point
unify_sorts = unify_values

SYN = "syn"
SEM = "sem"
SORTS_IMMEDIATE = "sorts"
SORTS_DEFERRED = "deferred"
DEPTHS = (SYN, SEM, SORTS_IMMEDIATE, SORTS_DEFERRED)


@dataclass(frozen=True)
class DeferredAssignment:
    """An undetermined sort choice: an atom occurrence, the slot holding
    its sort (a variable, or a partially determined sort structure that
    shares variables with the reading's logical form), and the candidate
    sorts still open for it."""

    atom: str
    slot: object
    candidates: tuple[object, ...]


class Reading:
    """One semantic analysis of an edge: a logical form, a semantic
    feature term, and any deferred sort assignments."""

    __slots__ = ("lf", "semterm", "deferred", "render", "ground")

    def __init__(self, lf: object, semterm: FeatureTerm,
                 deferred: tuple[DeferredAssignment, ...] = ()):
        self.lf = lf
        self.semterm = semterm
        self.deferred = deferred
        names: dict[Var, str] = {}
        self.render = self._render(names)
        # the render names every variable of the reading
        self.ground = not names

    def _render(self, names: dict[Var, str]) -> str:
        parts = [canonical(self.semterm, names), "::", canonical(self.lf, names)]
        for a in self.deferred:
            slot_txt = canonical(a.slot, names)
            cands = ",".join([canonical(c, names) for c in a.candidates])
            parts.append(f"? {a.atom}({slot_txt}) in {{{cands}}}")
        return " ".join(parts)

    def renamed(self) -> "Reading":
        """A copy whose variables are fresh and its own; a ground reading
        is its own copy. The render is copied, not recomputed: renders
        number variables canonically."""
        if self.ground:
            return self
        mapping: dict[Var, Var] = {}
        copy = object.__new__(Reading)
        copy.lf = refresh(self.lf, mapping)
        copy.semterm = refresh(self.semterm, mapping)
        copy.deferred = tuple(
            DeferredAssignment(a.atom, refresh(a.slot, mapping),
                               tuple([refresh(c, mapping) for c in a.candidates]))
            for a in self.deferred
        )
        copy.render = self.render
        copy.ground = False
        return copy

    def __repr__(self) -> str:
        return f"<reading {self.render}>"


# -- annotation and the constraint network ------------------------------


def annotate(lf: object, var_slots: dict[Var, Var]) -> object:
    """Wrap every LF node in an annotation slot. Placeholders are left
    bare (their daughters arrive already annotated); occurrences of the
    same LF variable share one slot."""
    if isinstance(lf, Placeholder):
        return lf
    if isinstance(lf, Var):
        slot = var_slots.get(lf)
        if slot is None:
            slot = Var("S")
            var_slots[lf] = slot
        return LFAnn(lf, slot)
    if isinstance(lf, str):
        return LFAnn(lf, Var("S"))
    if isinstance(lf, LFApp):
        return LFAnn(lf.map(annotate, var_slots), Var("S"))
    if isinstance(lf, LFAnn):
        return lf
    raise TypeError(f"cannot annotate {lf!r}")


def _walk_network(node: object, binds: Binds | None, grammar: Grammar,
                  choices: list[DeferredAssignment]) -> Binds | None:
    """Propagate application constraints through an annotated LF.

    Returns the extended bindings, or None if the structure cannot be
    typed; appends a choice over its sorts for every atom occurrence
    (preorder) that it walks.

    A ground subtree is not walked: it is a daughter that was typed and
    resolved when it was built, since `annotate` gives every template
    and lexical node a fresh slot variable. Its sorts are settled, so
    it would add no open choice."""
    if binds is None:
        return None
    if not isinstance(node, LFAnn):
        raise TypeError(f"unannotated LF node {node!r}")
    if node.ground:
        return binds
    expr = node.expr
    if isinstance(expr, str):
        choices.append(DeferredAssignment(expr, node.slot, grammar.sorts_of(expr)))
        return binds
    if isinstance(expr, (Var, FeatureTerm)):
        # a feature term reaches the LF only through a variable bound in
        # a `with` clause; like the variable it is an unconstrained leaf
        return binds
    if isinstance(expr, LFApp):
        for child in expr.children():
            if not isinstance(child, LFAnn):
                raise TypeError(f"unannotated LF node {child!r}")
        arg_slots = tuple([arg.slot for arg in expr.args])
        binds = unify_sorts(expr.functor.slot, SFunc(arg_slots, node.slot), binds)
        for child in expr.children():
            binds = _walk_network(child, binds, grammar, choices)
        return binds
    raise TypeError(f"unexpected annotated expression {expr!r}")


def joint_solutions(choices: Sequence[DeferredAssignment], binds: Binds):
    """Yield bindings for each consistent joint choice of candidates."""
    if not choices:
        yield binds
        return
    first, rest = choices[0], choices[1:]
    for cand in first.candidates:
        b2 = unify_sorts(first.slot, cand, binds)
        if b2 is not None:
            yield from joint_solutions(rest, b2)


def normalize_deferred(
    choices: list[DeferredAssignment], binds: Binds
) -> tuple[Binds, tuple[DeferredAssignment, ...]] | None:
    """Prune candidate sets against current bindings, commit forced
    choices, and reject inconsistency; returns the surviving state.

    Surviving assignments have their slots resolved under the final
    bindings so they keep sharing variables with the resolved reading.
    """
    current = list(choices)
    committed = True
    while committed:
        committed = False
        survivors: list[DeferredAssignment] = []
        for a in current:
            pruned = tuple(
                c for c in a.candidates
                if unify_sorts(a.slot, c, binds) is not None
            )
            if not pruned:
                return None
            if len(pruned) == 1:
                # `pruned` holds what unifies under these `binds`
                binds = unify_sorts(a.slot, pruned[0], binds)
                committed = True
                continue
            survivors.append(DeferredAssignment(a.atom, a.slot, pruned))
        current = survivors
    if not current:
        return binds, ()
    solutions = list(itertools.islice(joint_solutions(current, binds), 2))
    if not solutions:
        return None
    if len(solutions) == 1:
        return solutions[0], ()
    final = tuple(
        DeferredAssignment(a.atom, resolve(a.slot, binds), a.candidates)
        for a in current
    )
    return binds, final


# -- building readings ---------------------------------------------------


def _finish_sorted(grammar: Grammar, depth: str, lf_ann: object,
                   semterm: FeatureTerm, binds: Binds,
                   inherited: tuple[DeferredAssignment, ...]) -> list[Reading]:
    """Shared tail of lexical and phrasal reading construction at the
    sorts depths: type the annotated LF, then take the inherited choices
    and those of the atom occurrences the daughters did not settle, and
    multiply them out at `sorts` or keep them at `deferred`. A daughter
    whose logical form is ground was typed when it was built, and is
    not walked again."""
    occurrences: list[DeferredAssignment] = []
    binds = _walk_network(lf_ann, binds, grammar, occurrences)
    if binds is None:
        return []
    inherited_slots = {a.slot for a in inherited}
    # a slot that is no longer a variable was committed in a daughter,
    # and the network has already checked it
    choices = [*inherited, *(
        a for a in occurrences
        if isinstance(a.slot, Var) and a.slot not in inherited_slots
    )]
    if depth == SORTS_IMMEDIATE:
        return [Reading(resolve(lf_ann, final), resolve(semterm, final))
                for final in joint_solutions(choices, binds)]
    normalized = normalize_deferred(choices, binds)
    if normalized is None:
        return []
    binds, deferred = normalized
    lf, semterm = resolve(lf_ann, binds), resolve(semterm, binds)
    if inherited and deferred:
        # a daughter the template drops leaves its open choices behind;
        # once they are gone, the rest may have a single solution
        live = _live_choices(deferred, (lf, semterm))
        if len(live) < len(deferred):
            binds, deferred = normalize_deferred(live, binds)
            lf, semterm = resolve(lf, binds), resolve(semterm, binds)
    return [Reading(lf, semterm, deferred)]


def _live_choices(choices: tuple[DeferredAssignment, ...],
                  roots: tuple[object, ...]) -> list[DeferredAssignment]:
    """The choices whose slots share a variable with `roots`, directly
    or through other such choices, in their order. The others constrain
    nothing in the reading."""
    seen = {v for root in roots for v in leaves(root) if isinstance(v, Var)}
    slot_vars = [{v for v in leaves(a.slot) if isinstance(v, Var)} for a in choices]
    live = [False] * len(choices)
    grew = True
    while grew:
        grew = False
        for i, vs in enumerate(slot_vars):
            if not live[i] and not vs.isdisjoint(seen):
                live[i] = grew = True
                seen |= vs
    return [a for a, keep in zip(choices, live) if keep]


def lexical_instance(grammar: Grammar, entry: LexEntry,
                     depth: str) -> list[Reading]:
    """Fresh readings for one lexical entry at a depth above `syn`
    (where a word has no reading, and the parser never asks). The
    entry's category is not part of them: callers rename it
    themselves."""
    mapping: dict[Var, Var] = {}
    lf = refresh(entry.lf, mapping)
    semterm = refresh(entry.semterm, mapping)
    if depth == SEM:
        return [Reading(lf, semterm)]
    return _finish_sorted(grammar, depth, annotate(lf, {}), semterm, {}, ())


def combine_readings(grammar: Grammar, rule: Rule,
                     daughter_readings: list[Reading],
                     depth: str) -> list[Reading]:
    """Readings for a phrase built by `rule` over one reading per
    daughter.

    Every semantic rule for the syntax rule is applied once; one that
    fails feature unification or sortal typing contributes nothing, and
    two that give the same render contribute one reading. An empty
    result vetoes the phrase.
    """
    out: list[Reading] = []
    seen: set[str] = set()
    for sem_rule in grammar.sem_rules.get(rule.name, ()):
        for reading in _apply_sem_rule(grammar, sem_rule, daughter_readings, depth):
            if reading.render not in seen:
                seen.add(reading.render)
                out.append(reading)
    return out


def _apply_sem_rule(grammar: Grammar, sem_rule: SemRule,
                    combo: Sequence[Reading], depth: str) -> list[Reading]:
    mapping: dict[Var, Var] = {}
    template = refresh(sem_rule.template, mapping)
    if sem_rule.head_sem is not None:
        head_sem = refresh(sem_rule.head_sem, mapping)
    else:
        head_sem = default_semterm(grammar.features)
    binds: Binds = {}
    if sem_rule.dsems is not None:
        for dsem_tpl, daughter in zip(sem_rule.dsems, combo):
            dsem = refresh(dsem_tpl, mapping)
            binds = unify_values(dsem, daughter.semterm, binds)
            if binds is None:
                return []
    if depth == SEM:
        lf = substitute_placeholders(
            template, {i + 1: r.lf for i, r in enumerate(combo)}
        )
        return [Reading(resolve(lf, binds), resolve(head_sem, binds))]
    ann = annotate(template, {})
    ann = substitute_placeholders(
        ann, {i + 1: r.lf for i, r in enumerate(combo)}
    )
    inherited = tuple(itertools.chain.from_iterable(r.deferred for r in combo))
    return _finish_sorted(grammar, depth, ann, head_sem, binds, inherited)


def resolve_reading(reading: Reading) -> list[Reading]:
    """Expand a deferred reading into its fully resolved readings."""
    if not reading.deferred:
        return [reading]
    out: list[Reading] = []
    seen: set[str] = set()
    for binds in joint_solutions(reading.deferred, {}):
        resolved = Reading(
            resolve(reading.lf, binds), resolve(reading.semterm, binds)
        )
        if resolved.render not in seen:
            seen.add(resolved.render)
            out.append(resolved)
    return out
