"""The term kernel: variables, nodes, and non-destructive unification.

A value is a variable, an atom, or a `Node`. Feature terms (categories
and semantic terms), function sorts and logical-form nodes are all
nodes, so one `unify_values`, `resolve`, `refresh` and `canonical`
serves every kind. A category is a feature term: a backbone symbol plus
named feature values, which are atoms (plain strings), variables, or
nested feature terms. All operations are non-destructive; bindings live
in immutable dicts that are extended, never mutated, so failed branches
cannot corrupt shared structure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

_var_ids = itertools.count(1)


class Var:
    """A logic variable. Identity is the variable; `hint` is only a name."""

    __slots__ = ("id", "hint")

    def __init__(self, hint: str = "_"):
        self.id = next(_var_ids)
        self.hint = hint

    def __repr__(self) -> str:
        return f"{self.hint}#{self.id}"


Binds = Mapping[Var, object]

EMPTY_BINDS: Binds = {}


class Node:
    """A compound value. Each kind of node supplies four hooks, and the
    kernel below (`occurs`, `unify_values`, `resolve`, `refresh`,
    `canonical`, `leaves`) is written once over them, so feature terms,
    sorts and logical forms share one unification. `map` and `show` take
    the recursion as an argument, so resolving, copying and printing
    build no intermediate list of children."""

    __slots__ = ()

    def children(self) -> Iterable[object]:
        """The child values, in order."""
        raise NotImplementedError

    def map(self, fn: Callable[[object, object], object], arg: object) -> "Node":
        """A node of the same kind with each child `c` replaced by `fn(c, arg)`."""
        raise NotImplementedError

    def pairs(self, other: object) -> Iterable[tuple[object, object]] | None:
        """The child pairs that must unify for `other` to unify with this
        node, or None if the two cannot unify at all."""
        raise NotImplementedError

    def show(self, fmt: Callable[[object, object], str], names: object) -> str:
        """The printed form, with `fmt(c, names)` printing each child `c`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.show(_repr, None)


def _repr(value: object, _names: object) -> str:
    return repr(value)


_by_name = operator.itemgetter(0)


@dataclass(frozen=True, slots=True, repr=False)
class FeatureTerm(Node):
    """A backbone symbol with a sorted tuple of (feature, value) pairs."""

    backbone: str
    feats: tuple[tuple[str, object], ...] = ()

    def __init__(self, backbone: str, feats: Iterable[tuple[str, object]] = ()):
        object.__setattr__(self, "backbone", backbone)
        object.__setattr__(self, "feats", tuple(sorted(feats, key=_by_name)))

    def get(self, name: str) -> object | None:
        for fname, fval in self.feats:
            if fname == name:
                return fval
        return None

    def feature_names(self) -> tuple[str, ...]:
        return tuple(fname for fname, _ in self.feats)

    def children(self) -> Iterable[object]:
        return [v for _, v in self.feats]

    def map(self, fn, arg) -> "FeatureTerm":
        return FeatureTerm(self.backbone, [(n, fn(v, arg)) for n, v in self.feats])

    def pairs(self, other: object) -> list[tuple[object, object]] | None:
        # features missing on either side leave no constraint
        if not isinstance(other, FeatureTerm) or other.backbone != self.backbone:
            return None
        theirs = dict(other.feats)
        return [(v, theirs[n]) for n, v in self.feats if n in theirs]

    def show(self, fmt, names) -> str:
        inner = ",".join([f"{n}={fmt(v, names)}" for n, v in self.feats])
        return f"{self.backbone}({inner})"


def walk(value: object, binds: Binds) -> object:
    """Chase variable bindings until a non-variable or a free variable."""
    while isinstance(value, Var):
        nxt = binds.get(value)
        if nxt is None:
            return value
        value = nxt
    return value


def occurs(var: Var, value: object, binds: Binds) -> bool:
    value = walk(value, binds)
    if isinstance(value, Node):
        return any(occurs(var, child, binds) for child in value.children())
    return value is var


def unify_values(a: object, b: object, binds: Binds) -> Binds | None:
    """Unify two values under `binds`; return extended binds or None.

    Values are variables, atoms (compared by equality) or nodes."""
    a = walk(a, binds)
    b = walk(b, binds)
    if a is b:
        return binds
    if isinstance(a, Var):
        if occurs(a, b, binds):
            return None
        return {**binds, a: b}
    if isinstance(b, Var):
        if occurs(b, a, binds):
            return None
        return {**binds, b: a}
    if isinstance(a, Node):
        pairs = a.pairs(b)
        if pairs is None:
            return None
        for x, y in pairs:
            binds = unify_values(x, y, binds)
            if binds is None:
                return None
        return binds
    return binds if a == b else None


def resolve(value: object, binds: Binds) -> object:
    """Substitute bindings throughout, leaving free variables in place."""
    value = walk(value, binds)
    if isinstance(value, Node):
        return value.map(resolve, binds)
    return value


def _match(general: object, specific: object, sigma: dict[Var, object]) -> bool:
    # one-way matcher: variables in `general` may map to pieces of
    # `specific`, consistently; `specific` is treated as ground structure
    if isinstance(general, Var):
        if general in sigma:
            return _equal(sigma[general], specific)
        sigma[general] = specific
        return True
    if isinstance(general, str):
        return isinstance(specific, str) and general == specific
    if isinstance(general, FeatureTerm):
        if not isinstance(specific, FeatureTerm) or general.backbone != specific.backbone:
            return False
        smap = dict(specific.feats)
        for name, gval in general.feats:
            if name not in smap:
                return False
            if not _match(gval, smap[name], sigma):
                return False
        return True
    return False


def _equal(a: object, b: object) -> bool:
    # structural equality with variable identity
    if isinstance(a, Var) or isinstance(b, Var):
        return a is b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, FeatureTerm) and isinstance(b, FeatureTerm):
        if a.backbone != b.backbone or len(a.feats) != len(b.feats):
            return False
        return all(
            na == nb and _equal(va, vb)
            for (na, va), (nb, vb) in zip(a.feats, b.feats)
        )
    return False


def subsumes(general: FeatureTerm, specific: FeatureTerm) -> bool:
    """True if `general` is at least as general as `specific`.

    There must be a consistent substitution of general's variables that
    turns it into a part of specific (specific may carry extra features).
    """
    return _match(general, specific, {})


def variants(a: FeatureTerm, b: FeatureTerm) -> bool:
    """True if the terms are equal up to renaming of variables."""
    return subsumes(a, b) and subsumes(b, a)


def refresh(value: object, mapping: dict[Var, Var]) -> object:
    """Copy a value with fresh variables; `mapping` is shared across calls
    so variables shared between values stay shared between copies."""
    if isinstance(value, Var):
        got = mapping.get(value)
        if got is None:
            got = Var(value.hint)
            mapping[value] = got
        return got
    if isinstance(value, Node):
        return value.map(refresh, mapping)
    return value


class Restrictor:
    """Keeps, per backbone, only the declared feature paths of a term.

    `trees` maps a backbone symbol to a nested path tree; an empty dict
    leaf means "keep this value whole". Backbones without an entry are
    restricted to the bare backbone.
    """

    def __init__(self, trees: Mapping[str, dict] | None = None):
        self.trees = dict(trees or {})

    @staticmethod
    def from_paths(paths: Iterable[tuple[str, tuple[str, ...]]]) -> "Restrictor":
        trees: dict[str, dict] = {}
        for backbone, path in paths:
            node = trees.setdefault(backbone, {})
            for step in path:
                node = node.setdefault(step, {})
        return Restrictor(trees)

    def restrict(self, term: FeatureTerm) -> FeatureTerm:
        tree = self.trees.get(term.backbone)
        if not tree:
            return FeatureTerm(term.backbone)
        return self._apply(term, tree)

    def _apply(self, term: FeatureTerm, tree: dict) -> FeatureTerm:
        kept: list[tuple[str, object]] = []
        for name, val in term.feats:
            sub = tree.get(name)
            if sub is None:
                continue
            if sub and isinstance(val, FeatureTerm):
                val = self._apply(val, sub)
            kept.append((name, val))
        return FeatureTerm(term.backbone, tuple(kept))


def canonical(value: object, names: dict[Var, str] | None = None) -> str:
    """Render a value with variables numbered in first-occurrence order.

    Two terms are alphabetic variants exactly when their canonical
    renders are equal, so this string doubles as a variant-class key.
    """
    if names is None:
        names = {}
    return _canon(value, names)


def _canon(value: object, names: dict[Var, str]) -> str:
    if isinstance(value, Var):
        got = names.get(value)
        if got is None:
            got = f"_{len(names) + 1}"
            names[value] = got
        return got
    if isinstance(value, str):
        return value
    if isinstance(value, Node):
        return value.show(_canon, names)
    return repr(value)


def canonical_seq(values: Iterable[object]) -> str:
    """Canonical render of a sequence under one shared variable numbering."""
    names: dict[Var, str] = {}
    return " ".join(_canon(v, names) for v in values)


def seq_subsumes(general: Iterable[FeatureTerm], specific: Iterable[FeatureTerm]) -> bool:
    """One-way subsumption over equal-length sequences with one shared
    substitution (variables shared across elements must map consistently)."""
    gen = list(general)
    spc = list(specific)
    if len(gen) != len(spc):
        return False
    sigma: dict[Var, object] = {}
    return all(_match(g, s, sigma) for g, s in zip(gen, spc))


def leaves(value: object) -> Iterator[object]:
    """Yield every value below `value` that is not a node (variables,
    atoms, placeholders), in preorder and with repeats."""
    if isinstance(value, Node):
        for child in value.children():
            yield from leaves(child)
    else:
        yield value
