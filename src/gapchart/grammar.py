"""Grammar files: categories, rules, lexicon, semantics, sorts, weights.

The format is line-oriented; `#` starts a comment. Line kinds:

    feature <backbone> <feat> ...
    start <term>
    cd <backbone> ...
    restrict <backbone> <path> ...
    rule <name> : <term> -> <term> ...      (empty right side = empty rule)
    lex <word> : <term> [-> <lf>] [with <term>]
    sem <rulename> : <lf> [with <term> -> <term> ...]
    sort <atom> : <sortexpr>
    disprefer <rulename> [<weight>]

Identifiers starting with an uppercase letter are variables, `_` is a
fresh anonymous variable, and quoted tokens like 'BOSTON' are atoms.
No other identifier may start with `_`: renders name variables `_1`,
`_2`, ..., and an atom spelled that way would render like one.
Variables are scoped to their line. Backbones have fixed arity: every
term is normalized to its backbone's declared features, filling missing
ones with fresh variables; mentioning an undeclared feature is an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .lf import LFApp, Placeholder, SAtom, SFunc, lf_atoms
from .terms import FeatureTerm, Restrictor, Var, leaves

_TOKEN = re.compile(
    r"'[^']*'|->|-?\d+(?:\.\d+)?|[()\[\],;:=]|[A-Za-z_][A-Za-z0-9_.']*|\S"
)

_PLACEHOLDER = re.compile(r"D\d+$")


class GrammarError(Exception):
    """Raised when a grammar file is invalid; `errors` lists every problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Rule:
    name: str
    head: FeatureTerm
    rhs: tuple[FeatureTerm, ...]
    line: int = 0


@dataclass(frozen=True)
class LexEntry:
    word: str
    cat: FeatureTerm
    lf: object
    semterm: FeatureTerm


@dataclass(frozen=True)
class SemRule:
    rule_name: str
    template: object
    head_sem: FeatureTerm | None
    dsems: tuple[FeatureTerm, ...] | None
    line: int = 0


@dataclass
class Grammar:
    """A loaded grammar. It is not changed after its first parse:
    `compiled` caches its `CompiledTables` by strategy, compiled on the
    first parse made without `tables=`, and the semantic memo on them
    serves every later parse. So one grammar serves one thread at a
    time."""

    features: dict[str, tuple[str, ...]] = field(default_factory=dict)
    start: FeatureTerm | None = None
    cd: frozenset[str] = frozenset()
    restrictor: Restrictor = field(default_factory=Restrictor)
    rules: list[Rule] = field(default_factory=list)
    lexicon: dict[str, list[LexEntry]] = field(default_factory=dict)
    sem_rules: dict[str, list[SemRule]] = field(default_factory=dict)
    sort_table: dict[str, tuple[object, ...]] = field(default_factory=dict)
    dispreferred: dict[str, float] = field(default_factory=dict)
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def has_sorts(self) -> bool:
        return bool(self.sort_table)

    def sorts_of(self, atom: str) -> tuple[object, ...]:
        return self.sort_table.get(atom, ())


class _LineParser:
    """Token cursor over one grammar line with line-scoped variables."""

    def __init__(self, tokens: list[str], lineno: int, errors: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno
        self.errors = errors
        self.vars: dict[str, Var] = {}

    def error(self, msg: str) -> None:
        self.errors.append(f"line {self.lineno}: {msg}")

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def expect(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        self.error(f"expected {tok!r}, found {self.peek()!r}")
        return False

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def var(self, name: str) -> Var:
        if name == "_":
            return Var("_")
        got = self.vars.get(name)
        if got is None:
            got = Var(name)
            self.vars[name] = got
        return got


def _is_variable(tok: str) -> bool:
    return tok == "_" or (tok[0].isalpha() and tok[0].isupper())


def _is_name(tok: str) -> bool:
    return bool(tok) and (tok[0].isalpha() or tok[0] in "_'")


def parse_term(p: _LineParser, features: dict[str, tuple[str, ...]]) -> FeatureTerm | None:
    """Parse `backbone` or `backbone(f=v, ...)`, normalized to declared arity."""
    name = p.next()
    if name is None or not _is_name(name) or _is_variable(name):
        p.error(f"expected a category, found {name!r}")
        return None
    given: dict[str, object] = {}
    if p.peek() == "(":
        p.next()
        while p.peek() != ")":
            fname = p.next()
            if fname is None or not _is_name(fname):
                p.error(f"expected a feature name, found {fname!r}")
                return None
            if not p.expect("="):
                return None
            val = _parse_value(p, features)
            if val is None:
                return None
            given[fname] = val
            if p.peek() == ",":
                p.next()
            elif p.peek() != ")":
                p.error(f"expected ',' or ')', found {p.peek()!r}")
                return None
        p.next()
    declared = features.get(name, ())
    bad = [f for f in given if f not in declared]
    if bad:
        p.error(f"feature {bad[0]!r} not declared for backbone {name!r}")
        return None
    feats = tuple(
        (f, given[f] if f in given else Var(f.upper())) for f in declared
    )
    return FeatureTerm(name, feats)


def default_semterm(features: dict[str, tuple[str, ...]]) -> FeatureTerm:
    """The semantic term of a lexical entry or semantic rule that gives
    none: `sem` with a fresh variable for each declared `sem` feature."""
    return FeatureTerm("sem", tuple((f, Var(f.upper())) for f in features.get("sem", ())))


def _parse_value(p: _LineParser, features: dict[str, tuple[str, ...]]) -> object | None:
    tok = p.peek()
    if tok is None:
        p.error("expected a feature value")
        return None
    if _is_variable(tok):
        p.next()
        return p.var(tok)
    if tok.startswith("'"):
        p.next()
        return tok
    if _is_name(tok):
        # a following '(' makes it a nested category; otherwise an atom
        if p.pos + 1 < len(p.tokens) and p.tokens[p.pos + 1] == "(":
            return parse_term(p, features)
        p.next()
        return tok
    p.error(f"expected a feature value, found {tok!r}")
    return None


def parse_lf(p: _LineParser, allow_placeholders: bool) -> object | None:
    """Parse an LF: atom, variable, Dn placeholder, or `[functor, args...]`."""
    tok = p.peek()
    if tok is None:
        p.error("expected a logical form")
        return None
    if tok == "[":
        p.next()
        parts: list[object] = []
        while p.peek() != "]":
            part = parse_lf(p, allow_placeholders)
            if part is None:
                return None
            parts.append(part)
            if p.peek() == ",":
                p.next()
            elif p.peek() != "]":
                p.error(f"expected ',' or ']', found {p.peek()!r}")
                return None
        p.next()
        if not parts:
            p.error("empty application []")
            return None
        return LFApp(parts[0], tuple(parts[1:]))
    if _is_variable(tok):
        p.next()
        if _PLACEHOLDER.match(tok):
            if not allow_placeholders:
                p.error(f"daughter placeholder {tok} not allowed here")
                return None
            return Placeholder(int(tok[1:]))
        return p.var(tok)
    if _is_name(tok):
        p.next()
        return tok
    p.error(f"expected a logical form, found {tok!r}")
    return None


def parse_sort(p: _LineParser) -> object | None:
    """Parse a sort: identifier, or `( s1, s2, ... -> s )` (nestable)."""
    tok = p.peek()
    if tok is None:
        p.error("expected a sort expression")
        return None
    if tok == "(":
        p.next()
        args: list[object] = []
        while True:
            arg = parse_sort(p)
            if arg is None:
                return None
            args.append(arg)
            if p.peek() == ",":
                p.next()
                continue
            break
        if not p.expect("->"):
            return None
        res = parse_sort(p)
        if res is None:
            return None
        if not p.expect(")"):
            return None
        return SFunc(tuple(args), res)
    if _is_name(tok) and not _is_variable(tok):
        p.next()
        return SAtom(tok)
    if tok.startswith("'"):
        p.next()
        return SAtom(tok)
    p.error(f"expected a sort expression, found {tok!r}")
    return None


def parse_grammar(text: str) -> Grammar:
    errors: list[str] = []
    features: dict[str, tuple[str, ...]] = {}
    gram = Grammar(features=features)
    restrict_paths: list[tuple[str, tuple[str, ...]]] = []
    pending_sems: list[SemRule] = []
    rule_names: set[str] = set()
    cd: set[str] = set()
    raw_lines = text.splitlines()

    # feature declarations first so arity normalization sees them all
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _TOKEN.findall(line)
        if tokens[0] != "feature":
            continue
        p = _LineParser(tokens[1:], lineno, errors)
        backbone = p.next()
        if backbone is None or not _is_name(backbone) or _is_variable(backbone):
            p.error("feature line needs a backbone symbol")
            continue
        if backbone in features:
            p.error(f"duplicate feature declaration for {backbone!r}")
            continue
        feats: list[str] = []
        while not p.at_end():
            f = p.next()
            if not _is_name(f) or _is_variable(f):
                p.error(f"bad feature name {f!r}")
                break
            feats.append(f)
        if not feats:
            p.error("feature line declares no features")
            continue
        features[backbone] = tuple(feats)

    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _TOKEN.findall(line)
        kind = tokens[0]
        p = _LineParser(tokens[1:], lineno, errors)
        for tok in tokens:
            if tok.startswith("_") and tok != "_":
                p.error(f"{tok!r}: only the variable '_' may start with '_' "
                        "(renders name variables _1, _2, ...)")
        if kind == "feature":
            continue
        elif kind == "start":
            term = parse_term(p, features)
            if term is not None:
                if gram.start is not None:
                    p.error("duplicate start declaration")
                else:
                    gram.start = term
        elif kind == "cd":
            while not p.at_end():
                sym = p.next()
                if not _is_name(sym) or _is_variable(sym):
                    p.error(f"bad backbone symbol {sym!r}")
                    break
                cd.add(sym)
        elif kind == "restrict":
            backbone = p.next()
            if backbone is None or not _is_name(backbone) or _is_variable(backbone):
                p.error("restrict line needs a backbone symbol")
                continue
            got_any = False
            while not p.at_end():
                path = p.next()
                steps = tuple(path.split("."))
                if steps[0] not in features.get(backbone, ()):
                    p.error(
                        f"restricted feature {steps[0]!r} not declared for {backbone!r}"
                    )
                    continue
                restrict_paths.append((backbone, steps))
                got_any = True
            if not got_any:
                p.error("restrict line declares no paths")
        elif kind == "rule":
            name = p.next()
            if name is None or not _is_name(name):
                p.error("rule line needs a name")
                continue
            if name in rule_names:
                p.error(f"duplicate rule name {name!r}")
                continue
            if not p.expect(":"):
                continue
            head = parse_term(p, features)
            if head is None:
                continue
            if not p.expect("->"):
                continue
            rhs: list[FeatureTerm] = []
            ok = True
            while not p.at_end():
                d = parse_term(p, features)
                if d is None:
                    ok = False
                    break
                rhs.append(d)
            if ok:
                rule_names.add(name)
                gram.rules.append(Rule(name, head, tuple(rhs), lineno))
        elif kind == "lex":
            word = p.next()
            if word is None or not _is_name(word):
                p.error("lex line needs a word")
                continue
            if word.startswith("'"):
                word = word[1:-1]
            if not p.expect(":"):
                continue
            cat = parse_term(p, features)
            if cat is None:
                continue
            lf: object | None = None
            semterm: FeatureTerm | None = None
            if p.peek() == "->":
                p.next()
                lf = parse_lf(p, allow_placeholders=False)
                if lf is None:
                    continue
            if p.peek() == "with":
                p.next()
                semterm = parse_term(p, features)
                if semterm is None:
                    continue
            if not p.at_end():
                p.error(f"unexpected {p.peek()!r} at end of lex line")
                continue
            if lf is None:
                if word.startswith("_"):
                    p.error(f"word {word!r} starts with '_' and needs a logical form")
                    continue
                lf = word
            if semterm is None:
                semterm = default_semterm(features)
            gram.lexicon.setdefault(word, []).append(LexEntry(word, cat, lf, semterm))
        elif kind == "sem":
            name = p.next()
            if name is None or not _is_name(name):
                p.error("sem line needs a rule name")
                continue
            if not p.expect(":"):
                continue
            template = parse_lf(p, allow_placeholders=True)
            if template is None:
                continue
            head_sem: FeatureTerm | None = None
            dsems: tuple[FeatureTerm, ...] | None = None
            if p.peek() == "with":
                p.next()
                head_sem = parse_term(p, features)
                if head_sem is None:
                    continue
                if not p.expect("->"):
                    continue
                ds: list[FeatureTerm] = []
                bad = False
                while not p.at_end():
                    d = parse_term(p, features)
                    if d is None:
                        bad = True
                        break
                    ds.append(d)
                if bad:
                    continue
                dsems = tuple(ds)
            if not p.at_end():
                p.error(f"unexpected {p.peek()!r} at end of sem line")
                continue
            pending_sems.append(SemRule(name, template, head_sem, dsems, lineno))
        elif kind == "sort":
            atom = p.next()
            if atom is None or not _is_name(atom):
                p.error("sort line needs an atom")
                continue
            if not p.expect(":"):
                continue
            expr = parse_sort(p)
            if expr is None:
                continue
            if not p.at_end():
                p.error(f"unexpected {p.peek()!r} at end of sort line")
                continue
            gram.sort_table[atom] = gram.sort_table.get(atom, ()) + (expr,)
        elif kind == "disprefer":
            name = p.next()
            if name is None or not _is_name(name):
                p.error("disprefer line needs a rule name")
                continue
            weight = 1.0
            if not p.at_end():
                tok = p.next()
                try:
                    weight = float(tok)
                except ValueError:
                    weight = math.nan
                if not math.isfinite(weight):
                    p.error(f"bad weight {tok!r}")
                    continue
            if not p.at_end():
                p.error(f"unexpected {p.peek()!r} at end of disprefer line")
                continue
            gram.dispreferred[name] = weight
        else:
            errors.append(f"line {lineno}: unknown line kind {kind!r}")

    if gram.start is None:
        errors.append("no start declaration")

    by_name = {r.name: r for r in gram.rules}
    for sem in pending_sems:
        rule = by_name.get(sem.rule_name)
        if rule is None:
            errors.append(
                f"line {sem.line}: sem line for unknown rule {sem.rule_name!r}"
            )
            continue
        maxd = max((x.index for x in leaves(sem.template)
                    if isinstance(x, Placeholder)), default=0)
        if maxd > len(rule.rhs):
            errors.append(
                f"line {sem.line}: placeholder D{maxd} exceeds the "
                f"{len(rule.rhs)} daughters of rule {sem.rule_name!r}"
            )
            continue
        if sem.dsems is not None and len(sem.dsems) != len(rule.rhs):
            errors.append(
                f"line {sem.line}: with-clause gives {len(sem.dsems)} daughter "
                f"terms but rule {sem.rule_name!r} has {len(rule.rhs)}"
            )
            continue
        gram.sem_rules.setdefault(sem.rule_name, []).append(sem)

    for name in gram.dispreferred:
        if name not in by_name:
            errors.append(f"disprefer line names unknown rule {name!r}")

    known_backbones = {r.head.backbone for r in gram.rules}
    for rule in gram.rules:
        known_backbones.update(e.backbone for e in rule.rhs)
    for entries in gram.lexicon.values():
        known_backbones.update(e.cat.backbone for e in entries)
    for sym in sorted(cd):
        if sym not in known_backbones:
            errors.append(f"cd line names unknown backbone {sym!r}")

    if gram.sort_table:
        missing: list[str] = []
        for sem in pending_sems:
            for atom in lf_atoms(sem.template):
                if atom not in gram.sort_table and atom not in missing:
                    missing.append(atom)
        for entries in gram.lexicon.values():
            for entry in entries:
                for atom in lf_atoms(entry.lf):
                    if atom not in gram.sort_table and atom not in missing:
                        missing.append(atom)
        for atom in missing:
            errors.append(f"atom {atom!r} has no sort declaration")

    if errors:
        raise GrammarError(errors)

    gram.cd = frozenset(cd)
    gram.restrictor = Restrictor.from_paths(restrict_paths)
    return gram


def load_grammar(path: str) -> Grammar:
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())
