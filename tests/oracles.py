"""Independent oracles the test suite checks the library against.

Everything here recomputes expected values by a different route than the
library: a substitution-composition unifier, closure by boolean matrix
powers, derivation search for nullability, an exhaustive span-table
parser, tree-by-tree logical forms, and brute-force tiling enumeration.
Nothing imports from the chart engine itself; only the basic
term/grammar data types are shared.
"""

from __future__ import annotations

import itertools
import math

from gapchart.grammar import Grammar
from gapchart.lf import LFApp, Placeholder, SAtom, SFunc
from gapchart.terms import FeatureTerm, Var, refresh

# -- substitution-composition unifier -------------------------------------
#
# The library unifier threads an immutable binding map and walks chains
# lazily, over one generic node protocol. This one eagerly applies a
# substitution dict at every step and extends it by composition, with a
# case per kind of value (feature terms, atomic and function sorts), so
# the two can only agree by both being right.


def apply_subst(subst: dict, value: object) -> object:
    while isinstance(value, Var) and value in subst:
        value = subst[value]
    if isinstance(value, FeatureTerm):
        return FeatureTerm(
            value.backbone,
            tuple((n, apply_subst(subst, v)) for n, v in value.feats),
        )
    if isinstance(value, SFunc):
        return SFunc(tuple(apply_subst(subst, a) for a in value.args),
                     apply_subst(subst, value.res))
    return value


def _occurs_in(var: Var, value: object) -> bool:
    if isinstance(value, Var):
        return value is var
    if isinstance(value, FeatureTerm):
        return any(_occurs_in(var, v) for _, v in value.feats)
    if isinstance(value, SFunc):
        return _occurs_in(var, value.res) or any(_occurs_in(var, a) for a in value.args)
    return False


def robinson_unify(a: object, b: object, subst: dict | None = None) -> dict | None:
    """Unify two values; return a substitution dict or None."""
    if subst is None:
        subst = {}
    a = apply_subst(subst, a)
    b = apply_subst(subst, b)
    if isinstance(a, Var) and isinstance(b, Var) and a is b:
        return subst
    if isinstance(a, Var):
        if _occurs_in(a, b):
            return None
        return {**subst, a: b}
    if isinstance(b, Var):
        if _occurs_in(b, a):
            return None
        return {**subst, b: a}
    if isinstance(a, str) and isinstance(b, str):
        return subst if a == b else None
    if isinstance(a, FeatureTerm) and isinstance(b, FeatureTerm):
        if a.backbone != b.backbone:
            return None
        bmap = dict(b.feats)
        for name, aval in a.feats:
            if name in bmap:
                subst = robinson_unify(aval, bmap[name], subst)
                if subst is None:
                    return None
        return subst
    if isinstance(a, SAtom) and isinstance(b, SAtom):
        return subst if a.name == b.name else None
    if isinstance(a, SFunc) and isinstance(b, SFunc):
        if len(a.args) != len(b.args):
            return None
        for x, y in zip((a.res, *a.args), (b.res, *b.args)):
            subst = robinson_unify(x, y, subst)
            if subst is None:
                return None
        return subst
    return None


def ground_instance(value: object, subst: dict) -> object:
    """Replace every free variable by a distinct atom, for comparisons."""
    value = apply_subst(subst, value)
    out: dict[Var, str] = {}

    def grounded(v: object) -> object:
        if isinstance(v, Var):
            if v not in out:
                out[v] = f"@g{len(out)}"
            return out[v]
        if isinstance(v, FeatureTerm):
            return FeatureTerm(v.backbone, tuple((n, grounded(x)) for n, x in v.feats))
        return v

    return grounded(value)


# -- grammar-analysis oracles ----------------------------------------------


def derivation_nullable(grammar: Grammar) -> set[str]:
    """Backbones that derive the empty string, by derivation search."""
    rules_by_head: dict[str, list] = {}
    for rule in grammar.rules:
        rules_by_head.setdefault(rule.head.backbone, []).append(rule)

    def derives_empty(backbone: str, visiting: frozenset[str]) -> bool:
        if backbone in visiting:
            return False
        for rule in rules_by_head.get(backbone, []):
            if all(
                derives_empty(elem.backbone, visiting | {backbone})
                for elem in rule.rhs
            ):
                return True
        return False

    return {b for b in _backbones(grammar) if derives_empty(b, frozenset())}


def _backbones(grammar: Grammar) -> set[str]:
    out = set()
    for rule in grammar.rules:
        out.add(rule.head.backbone)
        out.update(elem.backbone for elem in rule.rhs)
    for entries in grammar.lexicon.values():
        out.update(e.cat.backbone for e in entries)
    out.add(grammar.start.backbone)
    return out


def matrix_left_corner(grammar: Grammar) -> dict[str, set[str]]:
    """Reflexive-transitive possible-left-corner-of, by boolean closure.

    x is one step from y when some rule y -> g1 .. gk has x = g_i with
    g_1 .. g_{i-1} all nullable. The closure is computed by squaring the
    relation matrix until it stops changing.
    """
    nullable = derivation_nullable(grammar)
    symbols = sorted(_backbones(grammar))
    index = {s: i for i, s in enumerate(symbols)}
    n = len(symbols)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for rule in grammar.rules:
        y = index[rule.head.backbone]
        for elem in rule.rhs:
            reach[index[elem.backbone]][y] = True
            if elem.backbone not in nullable:
                break
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if not reach[i][j] and any(
                    reach[i][k] and reach[k][j] for k in range(n)
                ):
                    reach[i][j] = True
                    changed = True
    return {
        x: {y for y in symbols if reach[index[x]][index[y]]} for x in symbols
    }


def recursive_first_words(grammar: Grammar) -> dict[str, set[str]]:
    """First words per backbone, textbook-style with a cycle cut.

    A word w is in first(b) when b derives a string beginning with w.
    """
    rules_by_head: dict[str, list] = {}
    for rule in grammar.rules:
        rules_by_head.setdefault(rule.head.backbone, []).append(rule)
    lexical: dict[str, set[str]] = {}
    for word, entries in grammar.lexicon.items():
        for entry in entries:
            lexical.setdefault(entry.cat.backbone, set()).add(word)
    nullable = derivation_nullable(grammar)

    def first(backbone: str, visiting: frozenset[str]) -> set[str]:
        if backbone in visiting:
            return set()
        out = set(lexical.get(backbone, ()))
        for rule in rules_by_head.get(backbone, []):
            for elem in rule.rhs:
                out |= first(elem.backbone, visiting | {backbone})
                if elem.backbone not in nullable:
                    break
        return out

    # iterate to a fixpoint over the cycle cut: a cut branch may become
    # available once the cut symbol's own set has grown
    sets = {b: first(b, frozenset()) for b in _backbones(grammar)}
    changed = True
    while changed:
        changed = False
        for b in sets:
            for rule in rules_by_head.get(b, []):
                for elem in rule.rhs:
                    add = sets.get(elem.backbone, set()) - sets[b]
                    if add:
                        sets[b] |= add
                        changed = True
                    if elem.backbone not in nullable:
                        break
    return sets


# -- exhaustive span-table parser ------------------------------------------
#
# Builds, per span, every (category, tree) analysis by fixpoint: apply
# every rule to every split of the span into daughter sub-spans (empty
# sub-spans allowed) until no new tree appears. Trees are s-expressions;
# a tree string fully determines a derivation, so the table entries are
# deduplicated by tree alone. Works for any grammar whose unary/empty
# structure admits finitely many trees per span, which holds for all
# bundled fixtures.


def exhaustive_parse(grammar: Grammar, words: list[str],
                     max_passes: int = 50) -> list[str]:
    from gapchart.terms import unify_values, resolve, EMPTY_BINDS

    n = len(words)
    table: dict[tuple[int, int], list[tuple[FeatureTerm, str]]] = {
        (i, k): [] for i in range(n + 1) for k in range(i, n + 1)
    }
    for i, word in enumerate(words):
        for entry in grammar.lexicon.get(word, []):
            cat = refresh(entry.cat, {})
            table[(i, i + 1)].append((cat, word))

    def splits(i: int, k: int, parts: int):
        if parts == 0:
            if i == k:
                yield ()
            return
        for mid in range(i, k + 1):
            for rest in splits(mid, k, parts - 1):
                yield ((i, mid),) + rest

    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > max_passes:
            raise RuntimeError("oracle parse did not converge")
        changed = False
        for (i, k) in list(table):
            for rule in grammar.rules:
                for spans in splits(i, k, len(rule.rhs)):
                    daughter_lists = [table[s] for s in spans]
                    for combo in itertools.product(*daughter_lists):
                        mapping: dict = {}
                        head = refresh(rule.head, mapping)
                        rhs = [refresh(e, mapping) for e in rule.rhs]
                        binds = EMPTY_BINDS
                        ok = True
                        # each use of an analysis gets its own variables
                        for elem, (cat, _tree) in zip(rhs, combo):
                            binds = unify_values(elem, refresh(cat, {}), binds)
                            if binds is None:
                                ok = False
                                break
                        if not ok:
                            continue
                        children = " ".join(t for _c, t in combo)
                        tree = f"({rule.name} {children})" if children else f"({rule.name})"
                        if any(t == tree for _c, t in table[(i, k)]):
                            continue
                        table[(i, k)].append((resolve(head, binds), tree))
                        changed = True

    out = []
    for cat, tree in table[(0, n)]:
        fresh_start = refresh(grammar.start, {})
        if unify_values(fresh_start, cat, EMPTY_BINDS) is not None:
            out.append(tree)
    return out


# -- tree-by-tree logical forms ---------------------------------------------
#
# Reads the logical forms of one unpacked tree off the tree itself: each
# node applies every `sem` template of its rule to every combination of
# its daughters' logical forms, written straight into the template's
# text. Covers grammars whose templates and lexical logical forms have no
# variables and whose `sem` lines have no `with` clause.


def tree_lfs(grammar: Grammar, tree: str) -> set[str]:
    """The renders of every logical form `tree` (an s-expression as
    `ParseResult.trees` writes it) has at `sem`."""
    tokens = tree.replace("(", " ( ").replace(")", " ) ").split()
    lfs, end = _node_lfs(grammar, tokens, 0, None)
    assert end == len(tokens), tree
    return lfs


def _node_lfs(grammar: Grammar, tokens: list[str], i: int,
              backbone: str | None) -> tuple[set[str], int]:
    """The logical forms of the subtree at token i, whose category has
    `backbone` (None at the root), and the index after it."""
    if tokens[i] != "(":
        entries = [e for e in grammar.lexicon[tokens[i]]
                   if backbone is None or e.cat.backbone == backbone]
        return {_fill(e.lf, ()) for e in entries}, i + 1
    name, i = tokens[i + 1], i + 2
    (rule,) = [r for r in grammar.rules if r.name == name]
    daughters = []
    for elem in rule.rhs:
        lfs, i = _node_lfs(grammar, tokens, i, elem.backbone)
        daughters.append(sorted(lfs))
    assert tokens[i] == ")", tokens
    out = set()
    for sem_rule in grammar.sem_rules.get(name, ()):
        if sem_rule.head_sem is not None or sem_rule.dsems is not None:
            raise ValueError(f"`with` clause on rule {name}")
        for combo in itertools.product(*daughters):
            out.add(_fill(sem_rule.template, combo))
    return out, i + 1


def _fill(template: object, daughters: tuple[str, ...]) -> str:
    if isinstance(template, Placeholder):
        return daughters[template.index - 1]
    if isinstance(template, LFApp):
        parts = (template.functor, *template.args)
        return "[" + ",".join(_fill(x, daughters) for x in parts) + "]"
    if isinstance(template, str):
        return template
    raise ValueError(f"logical form {template!r} is not an atom or an application")


# -- exhaustive fragment tiling --------------------------------------------


def exhaustive_min_cover_cost(result, weights) -> float:
    """Cheapest tiling cost over all tilings, by depth-first enumeration."""
    n = len(result.words)
    arcs_at: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n + 1)}
    for edge in result.chart.edges:
        if edge.start < edge.end:
            arcs_at[edge.start].append((edge.end, weights.fragment_cost))
    for i in range(n):
        arcs_at[i].append((i + 1, weights.fallback_cost))

    best = [math.inf]

    def go(i: int, cost: float):
        if cost >= best[0]:
            return
        if i == n:
            best[0] = cost
            return
        for end, c in arcs_at[i]:
            go(end, cost + c)

    go(0, 0.0)
    return best[0]


def all_min_cost_tilings(result, weights) -> list[tuple[tuple[int, ...], int]]:
    """All tilings achieving the minimum cost, as (cut positions, arcs)."""
    n = len(result.words)
    arcs_at: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n + 1)}
    for edge in result.chart.edges:
        if edge.start < edge.end:
            arcs_at[edge.start].append((edge.end, weights.fragment_cost))
    for i in range(n):
        arcs_at[i].append((i + 1, weights.fallback_cost))
    for lst in arcs_at.values():
        lst[:] = sorted(set(lst))

    tilings: list[tuple[tuple[int, ...], float]] = []

    def go(i: int, cost: float, cuts: tuple[int, ...]):
        if i == n:
            tilings.append((cuts, cost))
            return
        for end, c in arcs_at[i]:
            go(end, cost + c, cuts + (end,))

    go(0, 0.0, ())
    if not tilings:
        return []
    best = min(cost for _cuts, cost in tilings)
    return sorted(
        {(cuts, len(cuts)) for cuts, cost in tilings if abs(cost - best) < 1e-9}
    )
