"""Interleaved semantics: readings, sortal typing, deferred assignments.

Parsing runs at one of four depths:

* ``syn``: syntax only, no readings.
* ``sem``: logical forms are built as phrases complete; a phrase with no
  buildable reading is rejected.
* ``sorts``: additionally, every sort-annotated reading must type-check;
  each consistent assignment of sorts to atom occurrences is a separate
  reading (and a separate edge).
* ``deferred``: sortal choices that the phrase built so far does not
  determine are carried as deferred assignments (an atom occurrence with
  its surviving candidate sorts) instead of being multiplied out; they
  are resolved when enclosing structure narrows them, or on demand.

Sort annotations are logic variables in annotation slots of the LF, so
constraint propagation is ordinary unification: an application node
forces its functor slot to be a function sort from the argument slots to
the node's own slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .grammar import Grammar, LexEntry, Rule, SemRule
from .lf import LFAnn, LFApp, Placeholder, SFunc, substitute_placeholders
from .terms import (
    Binds,
    FeatureTerm,
    Var,
    canonical,
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
    path: tuple[int, ...]
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
            DeferredAssignment(a.atom, a.path, refresh(a.slot, mapping),
                               tuple([refresh(c, mapping) for c in a.candidates]))
            for a in self.deferred
        )
        copy.render = self.render
        copy.ground = False
        return copy

    def __repr__(self) -> str:
        return f"<reading {self.render}>"


def group_key(reading: Reading, depth: str) -> str:
    """The packing key: readings with equal keys share an edge."""
    if depth == SEM:
        return canonical(reading.semterm)
    return reading.render


def group_readings(readings: list[Reading], depth: str) -> list[tuple[str, list[Reading]]]:
    groups: dict[str, list[Reading]] = {}
    for r in readings:
        groups.setdefault(group_key(r, depth), []).append(r)
    return list(groups.items())


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


@dataclass(frozen=True)
class Occurrence:
    atom: str
    path: tuple[int, ...]
    slot: object


def build_network(lf: object, binds: Binds) -> tuple[Binds, list[Occurrence]] | None:
    """Propagate application constraints through an annotated LF.

    Returns the extended bindings and every atom occurrence (preorder),
    or None if the structure cannot be typed.
    """
    occs: list[Occurrence] = []
    binds = _walk_network(lf, (), binds, occs)
    if binds is None:
        return None
    return binds, occs


def _walk_network(node: object, path: tuple[int, ...], binds: Binds | None,
                  occs: list[Occurrence]) -> Binds | None:
    if binds is None:
        return None
    if not isinstance(node, LFAnn):
        raise TypeError(f"unannotated LF node {node!r}")
    expr = node.expr
    if isinstance(expr, str):
        occs.append(Occurrence(expr, path, node.slot))
        return binds
    if isinstance(expr, (Var, FeatureTerm)):
        # a feature term reaches the LF only through a variable bound in
        # a `with` clause; like the variable it is an unconstrained leaf
        return binds
    if isinstance(expr, LFApp):
        functor = expr.functor
        if not isinstance(functor, LFAnn):
            raise TypeError(f"unannotated functor {functor!r}")
        arg_slots = []
        for arg in expr.args:
            if not isinstance(arg, LFAnn):
                raise TypeError(f"unannotated argument {arg!r}")
            arg_slots.append(arg.slot)
        binds = unify_sorts(functor.slot, SFunc(tuple(arg_slots), node.slot), binds)
        if binds is None:
            return None
        binds = _walk_network(functor, path + (0,), binds, occs)
        for i, arg in enumerate(expr.args, start=1):
            binds = _walk_network(arg, path + (i,), binds, occs)
            if binds is None:
                return None
        return binds
    raise TypeError(f"unexpected annotated expression {expr!r}")


def joint_solutions(assignments: tuple[DeferredAssignment, ...], binds: Binds,
                    limit: int | None = None):
    """Yield bindings for each consistent joint choice of candidates."""
    yield from _joint(assignments, 0, binds, limit, [0])


def _joint(assignments, i, binds, limit, count):
    if limit is not None and count[0] >= limit:
        return
    if i == len(assignments):
        count[0] += 1
        yield binds
        return
    a = assignments[i]
    for cand in a.candidates:
        b2 = unify_sorts(a.slot, cand, binds)
        if b2 is not None:
            yield from _joint(assignments, i + 1, b2, limit, count)
            if limit is not None and count[0] >= limit:
                return


def normalize_deferred(
    assignments: list[DeferredAssignment], binds: Binds
) -> tuple[Binds, tuple[DeferredAssignment, ...]] | None:
    """Prune candidate sets against current bindings, commit forced
    choices, and reject inconsistency; returns the surviving state.

    Surviving assignments have their slots resolved under the final
    bindings so they keep sharing variables with the resolved reading.
    """
    current = list(assignments)
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
                binds = unify_sorts(a.slot, pruned[0], binds)
                if binds is None:
                    return None
                committed = True
                continue
            survivors.append(DeferredAssignment(a.atom, a.path, a.slot, pruned))
        current = survivors
    if not current:
        return binds, ()
    # count joint solutions, stopping at two
    n = 0
    last: Binds | None = None
    for b in joint_solutions(tuple(current), binds, limit=2):
        n += 1
        last = b
    if n == 0:
        return None
    if n == 1:
        return last, ()
    final = tuple(
        DeferredAssignment(a.atom, a.path, resolve(a.slot, binds), a.candidates)
        for a in current
    )
    return binds, final


# -- building readings ---------------------------------------------------


def _default_semterm(grammar: Grammar) -> FeatureTerm:
    declared = grammar.features.get("sem", ())
    return FeatureTerm("sem", tuple((f, Var(f.upper())) for f in declared))


def _finish_sorted(grammar: Grammar, depth: str, lf_ann: object,
                   semterm: FeatureTerm, binds: Binds,
                   inherited: tuple[DeferredAssignment, ...],
                   occs: list[Occurrence]) -> list[Reading]:
    """Shared tail of lexical and phrasal reading construction at the
    sorts depths, once the constraint network has been built."""
    inherited_slots = {a.slot for a in inherited}
    new_occs: list[Occurrence] = []
    for occ in occs:
        if isinstance(occ.slot, Var) and occ.slot in inherited_slots:
            continue
        if not isinstance(occ.slot, Var):
            # committed in a daughter; the network already checked it
            continue
        new_occs.append(occ)

    if depth == SORTS_IMMEDIATE:
        readings: list[Reading] = []
        for final in _enumerate_occurrences(grammar, new_occs, 0, binds):
            readings.append(
                Reading(resolve(lf_ann, final), resolve(semterm, final))
            )
        return readings

    assignments = list(inherited)
    for occ in new_occs:
        cands = tuple(
            c for c in grammar.sorts_of(occ.atom)
            if unify_sorts(occ.slot, c, binds) is not None
        )
        if not cands:
            return []
        if len(cands) == 1:
            binds = unify_sorts(occ.slot, cands[0], binds)
            if binds is None:
                return []
            continue
        assignments.append(DeferredAssignment(occ.atom, occ.path, occ.slot, cands))
    normalized = normalize_deferred(assignments, binds)
    if normalized is None:
        return []
    binds, deferred = normalized
    return [Reading(resolve(lf_ann, binds), resolve(semterm, binds), deferred)]


def _enumerate_occurrences(grammar: Grammar, occs: list[Occurrence], i: int,
                           binds: Binds):
    if i == len(occs):
        yield binds
        return
    occ = occs[i]
    for cand in grammar.sorts_of(occ.atom):
        b2 = unify_sorts(occ.slot, cand, binds)
        if b2 is not None:
            yield from _enumerate_occurrences(grammar, occs, i + 1, b2)


def lexical_instance(grammar: Grammar, entry: LexEntry,
                     depth: str) -> list[Reading] | None:
    """Fresh readings for one lexical entry; None at `syn`. The entry's
    category is not part of them: callers rename it themselves."""
    if depth == SYN:
        return None
    mapping: dict[Var, Var] = {}
    lf = refresh(entry.lf, mapping)
    semterm = refresh(entry.semterm, mapping)
    if depth == SEM:
        return [Reading(lf, semterm)]
    ann = annotate(lf, {})
    net = build_network(ann, {})
    if net is None:
        return []
    binds, occs = net
    return _finish_sorted(grammar, depth, ann, semterm, binds, (), occs)


def combine_readings(grammar: Grammar, rule: Rule,
                     daughter_readings: list[list[Reading]],
                     depth: str) -> list[Reading]:
    """Readings for a phrase built by `rule` over daughters' readings.

    Every semantic rule for the syntax rule is tried against every
    combination of daughter readings; combinations that fail feature
    unification or sortal typing contribute nothing. An empty result
    vetoes the phrase.
    """
    sem_rules = grammar.sem_rules.get(rule.name, ())
    out: list[Reading] = []
    seen: set[str] = set()
    for sem_rule in sem_rules:
        for combo in itertools.product(*daughter_readings):
            for reading in _apply_sem_rule(grammar, sem_rule, combo, depth):
                if reading.render not in seen:
                    seen.add(reading.render)
                    out.append(reading)
    return out


def _apply_sem_rule(grammar: Grammar, sem_rule: SemRule,
                    combo: tuple[Reading, ...], depth: str) -> list[Reading]:
    mapping: dict[Var, Var] = {}
    template = refresh(sem_rule.template, mapping)
    if sem_rule.head_sem is not None:
        head_sem = refresh(sem_rule.head_sem, mapping)
    else:
        head_sem = _default_semterm(grammar)
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
    net = build_network(ann, binds)
    if net is None:
        return []
    binds, occs = net
    inherited = tuple(itertools.chain.from_iterable(r.deferred for r in combo))
    return _finish_sorted(grammar, depth, ann, head_sem, binds, inherited, occs)


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
