"""Logical forms and sortal types.

A logical form is an atom (a plain string), a variable, an application
`[functor, args…]`, or a placeholder standing for a daughter's
contribution in a rule template. Sort expressions are atomic sorts or
function sorts over tuples of argument sorts; nesting the result
position gives curried types, so partial applications are typable.

Sort annotations are attached by wrapping LF nodes in `LFAnn` carrying a
slot. Slots are ordinary logic variables, and function sorts,
applications and annotations are term-kernel nodes, so annotating,
constraining, and deferring sort choices all reuse term unification.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Node, leaves


@dataclass(frozen=True)
class SAtom:
    """An atomic sort."""

    name: str

    def __repr__(self) -> str:
        return f"[{self.name}]"


@dataclass(frozen=True, slots=True, repr=False)
class SFunc(Node):
    """A function sort: argument sorts to a result sort."""

    args: tuple[object, ...]
    res: object

    def children(self) -> tuple[object, ...]:
        return (*self.args, self.res)

    def map(self, fn, arg) -> "SFunc":
        return SFunc(tuple([fn(x, arg) for x in self.args]), fn(self.res, arg))

    def pairs(self, other: object):
        if not isinstance(other, SFunc) or len(other.args) != len(self.args):
            return None
        return zip(self.children(), other.children())

    def show(self, fmt, names) -> str:
        args = ",".join([fmt(x, names) for x in self.args])
        return f"(({args})->{fmt(self.res, names)})"


@dataclass(frozen=True, slots=True, repr=False)
class LFApp(Node):
    """An application of a functor to arguments."""

    functor: object
    args: tuple[object, ...]

    def children(self) -> tuple[object, ...]:
        return (self.functor, *self.args)

    def map(self, fn, arg) -> "LFApp":
        return LFApp(fn(self.functor, arg), tuple([fn(x, arg) for x in self.args]))

    def pairs(self, other: object):
        if not isinstance(other, LFApp) or len(other.args) != len(self.args):
            return None
        return zip(self.children(), other.children())

    def show(self, fmt, names) -> str:
        return f"[{','.join([fmt(x, names) for x in self.children()])}]"


@dataclass(frozen=True, slots=True, repr=False)
class LFAnn(Node):
    """A sort-annotated LF node; `slot` holds (or will hold) its sort."""

    expr: object
    slot: object

    def children(self) -> tuple[object, object]:
        return (self.expr, self.slot)

    def map(self, fn, arg) -> "LFAnn":
        return LFAnn(fn(self.expr, arg), fn(self.slot, arg))

    def pairs(self, other: object):
        if not isinstance(other, LFAnn):
            return None
        return ((self.expr, other.expr), (self.slot, other.slot))

    def show(self, fmt, names) -> str:
        return f"({fmt(self.expr, names)};{fmt(self.slot, names)})"


@dataclass(frozen=True)
class Placeholder:
    """Daughter slot in a semantic-rule template (1-based index)."""

    index: int

    def __repr__(self) -> str:
        return f"D{self.index}"


def substitute_placeholders(lf: object, fillers: dict[int, object]) -> object:
    """Replace each Dn placeholder with its filler LF."""
    if isinstance(lf, Placeholder):
        return fillers[lf.index]
    if isinstance(lf, Node):
        return lf.map(substitute_placeholders, fillers)
    return lf


def lf_atoms(lf: object) -> list[str]:
    """Atom names occurring in an LF, in preorder, with repeats."""
    return [x for x in leaves(lf) if isinstance(x, str)]
