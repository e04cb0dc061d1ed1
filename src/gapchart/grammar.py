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
ones with fresh variables; mentioning an undeclared feature is an error,
and so is naming a feature twice in one `feature` line or in one term.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .lf import LFApp, Placeholder, SAtom, SFunc, lf_atoms
from .terms import FeatureTerm, Node, Restrictor, Var, leaves

# no two alternatives but the last match at the same character, so the
# most frequent kinds of token are tried first
_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_.']*|[()\[\],;:=]|->|'[^']*'|-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\S"
)

_PLACEHOLDER = re.compile(r"D\d+$")


class GrammarError(Exception):
    """Raised when a grammar file is invalid; `errors` lists every problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Rule:
    """A syntax rule. `compiled_rhs` holds its daughters as compiled
    tables match them, an open daughter as written and a closed one as
    its bare backbone; it is set at construction, so it is worked out
    once per rule, however many tables are compiled from it.

    A daughter is closed when each of its feature values is a variable
    that occurs nowhere else in the rule (head and every daughter,
    nested values included). Chart categories never hold a rule's
    variables, so a closed daughter unifies with every edge of its
    backbone and binds nothing another daughter or the head reads: its
    backbone is all it decides."""

    name: str
    head: FeatureTerm
    rhs: tuple[FeatureTerm, ...]
    line: int = 0
    compiled_rhs: tuple[FeatureTerm, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "compiled_rhs", _compile_rhs(self.head, self.rhs))


def _compile_rhs(head: FeatureTerm, rhs: tuple[FeatureTerm, ...]) -> tuple[FeatureTerm, ...]:
    # every value in the rule, one entry per occurrence; appending a
    # node's children while looping takes in the nested values too
    values = [v for d in rhs for _, v in d.feats]
    if not values:
        return rhs
    values += [v for _, v in head.feats]
    for v in values:
        if isinstance(v, Node):
            values += v.children()
    compiled = []
    for d in rhs:
        if d.feats:
            for _, v in d.feats:
                if type(v) is not Var or values.count(v) != 1:
                    break
            else:
                d = FeatureTerm._of_sorted(d.backbone, ())
        compiled.append(d)
    return tuple(compiled)


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


class GrammarAnalysis(NamedTuple):
    """What a grammar alone decides, whatever the strategy: its
    backbones, the nullable backbones, the possible-left-corner relation
    (reflexive-transitive) and its inverse `corners` (the backbones that
    can begin each backbone), the words that can begin each backbone
    (read off that relation: a word begins every phrase one of its
    lexical categories can begin) and the empty rules. `parse_grammar`
    works it out once, and every `compile_tables` call shares it."""

    backbones: frozenset[str]
    nullable: frozenset[str]
    left_corner: dict[str, frozenset[str]]
    corners: dict[str, frozenset[str]]
    first_word: dict[str, frozenset[str]]
    empty_rules: tuple[Rule, ...]


@dataclass
class Grammar:
    """A loaded grammar. Its declarations are not changed once loaded:
    `analysis`, worked out by `parse_grammar`, holds what they alone
    decide; `compiled` caches its `CompiledTables` by strategy, compiled
    on the first parse made without `tables=`, and the semantic memo on
    them serves every later parse. So one grammar serves one thread at
    a time."""

    features: dict[str, tuple[str, ...]] = field(default_factory=dict)
    start: FeatureTerm | None = None
    cd: frozenset[str] = frozenset()
    restrictor: Restrictor = field(default_factory=Restrictor)
    rules: list[Rule] = field(default_factory=list)
    lexicon: dict[str, list[LexEntry]] = field(default_factory=dict)
    sem_rules: dict[str, list[SemRule]] = field(default_factory=dict)
    sort_table: dict[str, tuple[object, ...]] = field(default_factory=dict)
    dispreferred: dict[str, float] = field(default_factory=dict)
    analysis: GrammarAnalysis | None = field(default=None, init=False, repr=False,
                                             compare=False)
    compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def has_sorts(self) -> bool:
        return bool(self.sort_table)

    def sorts_of(self, atom: str) -> tuple[object, ...]:
        return self.sort_table.get(atom, ())


def analyse(grammar: Grammar) -> GrammarAnalysis:
    backbones = _all_backbones(grammar)
    nullable = _nullable(grammar)
    left_corner = _left_corner(grammar, backbones, nullable)
    return GrammarAnalysis(
        backbones=backbones,
        nullable=nullable,
        left_corner=left_corner,
        corners=_corners(left_corner),
        first_word=_first_word(grammar, left_corner),
        empty_rules=tuple(r for r in grammar.rules if not r.rhs),
    )


def _all_backbones(grammar: Grammar) -> frozenset[str]:
    out = {d.backbone for rule in grammar.rules for d in (rule.head, *rule.rhs)}
    out.update([e.cat.backbone for entries in grammar.lexicon.values() for e in entries])
    if grammar.start is not None:
        out.add(grammar.start.backbone)
    return frozenset(out)


def _nullable(grammar: Grammar) -> frozenset[str]:
    rules = [(rule.head.backbone, [d.backbone for d in rule.rhs]) for rule in grammar.rules]
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, rhs in rules:
            if head not in nullable and nullable.issuperset(rhs):
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
            step[d.backbone].add(head)
            if d.backbone not in nullable:
                break
    # transitive closure, one pass over the intermediate phrase (Warshall)
    for via, beyond in step.items():
        for phrases in step.values():
            if via in phrases:
                phrases |= beyond
    return {b: frozenset(s) for b, s in step.items()}


def _corners(left_corner: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    # x can begin y exactly when y is in x's left-corner set
    corners: dict[str, set[str]] = {b: set() for b in left_corner}
    for corner, phrases in left_corner.items():
        for phrase in phrases:
            corners[phrase].add(corner)
    return {b: frozenset(s) for b, s in corners.items()}


def _first_word(grammar: Grammar,
                left_corner: dict[str, frozenset[str]]) -> dict[str, frozenset[str]]:
    # a word begins every phrase one of its lexical backbones can begin
    first: dict[str, set[str]] = {}
    for word, entries in grammar.lexicon.items():
        for entry in entries:
            for phrase in left_corner[entry.cat.backbone]:
                first.setdefault(phrase, set()).add(word)
    return {b: frozenset(s) for b, s in first.items()}


class _LineParser:
    """Token cursor over one grammar line with line-scoped variables.

    `tokens` is the whole line, its kind first, and ends in a `None`
    sentinel: reading the token at the cursor needs no bounds check, and
    the cursor never moves past the sentinel. The term, logical-form and
    sort parsers read `tokens` at `pos` directly."""

    __slots__ = ("tokens", "pos", "lineno", "errors", "vars")

    def __init__(self, tokens: list[str | None], lineno: int, errors: list[str]):
        self.tokens = tokens
        self.pos = 1
        self.lineno = lineno
        self.errors = errors
        self.vars: dict[str, Var] = {}

    def error(self, msg: str) -> None:
        self.errors.append(f"line {self.lineno}: {msg}")

    def next(self) -> str | None:
        tok = self.tokens[self.pos]
        if tok is not None:
            self.pos += 1
        return tok

    def name(self, missing: str, symbol: bool = False) -> str | None:
        """The next token as a name (if `symbol`, one that is not a
        variable either), or None after reporting that the line needs
        `missing`."""
        tok = self.tokens[self.pos]
        if tok is None or not _is_name(tok) or (symbol and _is_variable(tok)):
            self.error(f"{self.tokens[0]} line needs {missing}")
            return None
        self.pos += 1
        return tok

    def skip(self, tok: str) -> bool:
        """Consume `tok` if it is next: whether it was."""
        if self.tokens[self.pos] == tok:
            self.pos += 1
            return True
        return False

    def expect(self, tok: str) -> bool:
        if self.skip(tok):
            return True
        self.error(f"expected {tok!r}, found {self.tokens[self.pos]!r}")
        return False

    def end(self, kind: str) -> bool:
        """Whether the line is read to its end; reports what is left if not."""
        tok = self.tokens[self.pos]
        if tok is None:
            return True
        self.error(f"unexpected {tok!r} at end of {kind} line")
        return False

    def terms(self, features: dict[str, tuple[str, ...]]) -> tuple[FeatureTerm, ...] | None:
        """The categories up to the end of the line, or None after an error."""
        out = []
        while self.tokens[self.pos] is not None:
            term = parse_term(self, features)
            if term is None:
                return None
            out.append(term)
        return tuple(out)

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
    """Parse `backbone` or `backbone(f=v, ...)`, normalized to declared arity.

    A syntax error is reported first, then a feature the backbone does
    not declare, then a feature given twice."""
    toks = p.tokens
    i = p.pos
    name = toks[i]
    # a backbone the feature lines declare was checked there
    declared = features.get(name)
    if declared is None:
        if name is None or not _is_name(name) or _is_variable(name):
            p.error(f"expected a category, found {name!r}")
            return None
        declared = ()
    i += 1
    given: dict[str, object] = {}
    twice = None
    if toks[i] == "(":
        i += 1
        while (fname := toks[i]) != ")":
            if fname is None or not _is_name(fname):
                p.error(f"expected a feature name, found {fname!r}")
                return None
            if toks[i + 1] != "=":
                p.error(f"expected '=', found {toks[i + 1]!r}")
                return None
            p.pos = i + 2
            val = _parse_value(p, features)
            if val is None:
                return None
            if fname in given and twice is None:
                twice = fname
            given[fname] = val
            i = p.pos
            tok = toks[i]
            if tok == ",":
                i += 1
            elif tok != ")":
                p.error(f"expected ',' or ')', found {tok!r}")
                return None
        i += 1
    p.pos = i
    if given:
        for f in given:
            if f not in declared:
                p.error(f"feature {f!r} not declared for backbone {name!r}")
                return None
        if twice is not None:
            p.error(f"feature {twice!r} given twice for backbone {name!r}")
            return None
        return FeatureTerm(name, [(f, given[f] if f in given else Var(f.upper()))
                                  for f in declared])
    return FeatureTerm(name, [(f, Var(f.upper())) for f in declared])


def default_semterm(features: dict[str, tuple[str, ...]]) -> FeatureTerm:
    """The semantic term of a lexical entry or semantic rule that gives
    none: `sem` with a fresh variable for each declared `sem` feature."""
    return FeatureTerm("sem", tuple((f, Var(f.upper())) for f in features.get("sem", ())))


def _parse_value(p: _LineParser, features: dict[str, tuple[str, ...]]) -> object | None:
    toks = p.tokens
    i = p.pos
    tok = toks[i]
    if tok is None:
        p.error("expected a feature value")
        return None
    if _is_variable(tok):
        p.pos = i + 1
        return p.var(tok)
    if tok[0] == "'":
        p.pos = i + 1
        return tok
    if _is_name(tok):
        # a following '(' makes it a nested category; otherwise an atom
        if toks[i + 1] == "(":
            return parse_term(p, features)
        p.pos = i + 1
        return tok
    p.error(f"expected a feature value, found {tok!r}")
    return None


def parse_lf(p: _LineParser, allow_placeholders: bool) -> object | None:
    """Parse an LF: atom, variable, Dn placeholder, or `[functor, args...]`."""
    toks = p.tokens
    tok = toks[p.pos]
    if tok is None:
        p.error("expected a logical form")
        return None
    if tok == "[":
        p.pos += 1
        parts: list[object] = []
        while toks[p.pos] != "]":
            part = parse_lf(p, allow_placeholders)
            if part is None:
                return None
            parts.append(part)
            tok = toks[p.pos]
            if tok == ",":
                p.pos += 1
            elif tok != "]":
                p.error(f"expected ',' or ']', found {tok!r}")
                return None
        p.pos += 1
        if not parts:
            p.error("empty application []")
            return None
        return LFApp(parts[0], tuple(parts[1:]))
    if _is_variable(tok):
        p.pos += 1
        if _PLACEHOLDER.match(tok):
            if not allow_placeholders:
                p.error(f"daughter placeholder {tok} not allowed here")
                return None
            return Placeholder(int(tok[1:]))
        return p.var(tok)
    if _is_name(tok):
        p.pos += 1
        return tok
    p.error(f"expected a logical form, found {tok!r}")
    return None


def parse_sort(p: _LineParser) -> object | None:
    """Parse a sort: identifier, or `( s1, s2, ... -> s )` (nestable)."""
    toks = p.tokens
    tok = toks[p.pos]
    if tok is None:
        p.error("expected a sort expression")
        return None
    if tok == "(":
        p.pos += 1
        args: list[object] = []
        while True:
            arg = parse_sort(p)
            if arg is None:
                return None
            args.append(arg)
            if toks[p.pos] != ",":
                break
            p.pos += 1
        if not p.expect("->"):
            return None
        res = parse_sort(p)
        if res is None:
            return None
        if not p.expect(")"):
            return None
        return SFunc(tuple(args), res)
    if _is_name(tok) and not _is_variable(tok):
        p.pos += 1
        return SAtom(tok)
    p.error(f"expected a sort expression, found {tok!r}")
    return None


def parse_grammar(text: str) -> Grammar:
    errors: list[str] = []
    features: dict[str, tuple[str, ...]] = {}
    gram = Grammar(features=features)
    restrict_paths: list[tuple[str, tuple[str, ...]]] = []
    pending_sems: list[SemRule] = []
    rules: dict[str, Rule] = {}
    cd: set[str] = set()
    # one token list per line, its kind first, ending in a None sentinel
    # (and whether the line holds an underscore at all)
    lines: list[tuple[int, list[str | None], bool]] = []
    # feature declarations first so arity normalization sees them all
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = raw.split("#", 1)[0]
        tokens: list[str | None] = _TOKEN.findall(code)
        if not tokens:
            continue
        tokens.append(None)
        lines.append((lineno, tokens, "_" in code))
        if tokens[0] != "feature":
            continue
        p = _LineParser(tokens, lineno, errors)
        backbone = p.name("a backbone symbol", symbol=True)
        if backbone is None:
            continue
        if backbone in features:
            p.error(f"duplicate feature declaration for {backbone!r}")
            continue
        feats: list[str] = []
        while (f := p.next()) is not None:
            if not _is_name(f) or _is_variable(f):
                p.error(f"bad feature name {f!r}")
                break
            if f in feats:
                p.error(f"feature {f!r} declared twice for {backbone!r}")
                break
            feats.append(f)
        if not feats:
            p.error("feature line declares no features")
            continue
        features[backbone] = tuple(feats)

    # with no `sem` features the default semantic term is ground, so
    # every lexical entry can share it
    bare_sem = None if "sem" in features else FeatureTerm("sem")
    for lineno, tokens, underscore in lines:
        kind = tokens[0]
        p = _LineParser(tokens, lineno, errors)
        if underscore:
            for tok in tokens[:-1]:
                if tok[0] == "_" and tok != "_":
                    p.error(f"{tok!r}: only the variable '_' may start with '_' "
                            "(renders name variables _1, _2, ...)")
        if kind == "feature":
            continue
        elif kind == "start":
            term = parse_term(p, features)
            if term is None or not p.end(kind):
                continue
            if gram.start is not None:
                p.error("duplicate start declaration")
            else:
                gram.start = term
        elif kind == "cd":
            while (sym := p.next()) is not None:
                if not _is_name(sym) or _is_variable(sym):
                    p.error(f"bad backbone symbol {sym!r}")
                    break
                cd.add(sym)
        elif kind == "restrict":
            backbone = p.name("a backbone symbol", symbol=True)
            if backbone is None:
                continue
            got_any = False
            while (path := p.next()) is not None:
                steps = tuple(path.split("."))
                if steps[0] not in features.get(backbone, ()):
                    p.error(f"restricted feature {steps[0]!r} not declared for {backbone!r}")
                    continue
                restrict_paths.append((backbone, steps))
                got_any = True
            if not got_any:
                p.error("restrict line declares no paths")
        elif kind == "rule":
            name = p.name("a name")
            if name in rules:
                p.error(f"duplicate rule name {name!r}")
                continue
            if name is None or not p.expect(":"):
                continue
            head = parse_term(p, features)
            if head is None or not p.expect("->"):
                continue
            rhs = p.terms(features)
            if rhs is not None:
                rules[name] = Rule(name, head, rhs, lineno)
        elif kind == "lex":
            word = p.name("a word")
            if word is None:
                continue
            if word.startswith("'"):
                word = word[1:-1]
                if word.split() != [word]:
                    p.error(f"word {word!r} can never be parsed: "
                            "input is split on whitespace")
                    continue
            if not p.expect(":"):
                continue
            cat = parse_term(p, features)
            if cat is None:
                continue
            lf: object | None = None
            semterm: FeatureTerm | None = None
            if p.skip("->"):
                lf = parse_lf(p, allow_placeholders=False)
                if lf is None:
                    continue
            if p.skip("with"):
                semterm = parse_term(p, features)
                if semterm is None:
                    continue
            if not p.end(kind):
                continue
            if lf is None:
                if word.startswith("_"):
                    p.error(f"word {word!r} starts with '_' and needs a logical form")
                    continue
                lf = word
            if semterm is None:
                semterm = bare_sem if bare_sem is not None else default_semterm(features)
            gram.lexicon.setdefault(word, []).append(LexEntry(word, cat, lf, semterm))
        elif kind == "sem":
            name = p.name("a rule name")
            if name is None or not p.expect(":"):
                continue
            template = parse_lf(p, allow_placeholders=True)
            if template is None:
                continue
            head_sem: FeatureTerm | None = None
            dsems: tuple[FeatureTerm, ...] | None = None
            if p.skip("with"):
                head_sem = parse_term(p, features)
                if head_sem is None or not p.expect("->"):
                    continue
                dsems = p.terms(features)
                if dsems is None:
                    continue
            if p.end(kind):
                pending_sems.append(SemRule(name, template, head_sem, dsems, lineno))
        elif kind == "sort":
            atom = p.name("an atom")
            if atom is None or not p.expect(":"):
                continue
            expr = parse_sort(p)
            if expr is not None and p.end(kind):
                gram.sort_table[atom] = gram.sort_table.get(atom, ()) + (expr,)
        elif kind == "disprefer":
            name = p.name("a rule name")
            if name is None:
                continue
            weight = 1.0
            if (tok := p.next()) is not None:
                try:
                    weight = float(tok)
                except ValueError:
                    weight = math.nan
                if not math.isfinite(weight):
                    p.error(f"bad weight {tok!r}")
                    continue
            if p.end(kind):
                gram.dispreferred[name] = weight
        else:
            p.error(f"unknown line kind {kind!r}")

    if gram.start is None:
        errors.append("no start declaration")

    gram.rules = list(rules.values())
    for sem in pending_sems:
        rule = rules.get(sem.rule_name)
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

    # names a line gives that nothing declares
    entries = [e for es in gram.lexicon.values() for e in es]
    errors += [f"disprefer line names unknown rule {name!r}"
               for name in gram.dispreferred if name not in rules]
    known = {d.backbone for r in gram.rules for d in (r.head, *r.rhs)}
    known.update(e.cat.backbone for e in entries)
    errors += [f"cd line names unknown backbone {sym!r}" for sym in sorted(cd - known)]
    if gram.sort_table:
        atoms = dict.fromkeys(atom for lf in [*(s.template for s in pending_sems),
                                              *(e.lf for e in entries)]
                              for atom in lf_atoms(lf))
        errors += [f"atom {atom!r} has no sort declaration"
                   for atom in atoms if atom not in gram.sort_table]

    if errors:
        raise GrammarError(errors)

    gram.cd = frozenset(cd)
    gram.restrictor = Restrictor.from_paths(restrict_paths)
    gram.analysis = analyse(gram)
    return gram


def load_grammar(path: str) -> Grammar:
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())
