"""Differential tests on seeded random grammars.

Under every strategy the packed forest holds exactly the trees the
exhaustive oracle parser finds. The generated grammars declare features
on some backbones, share variables between daughters and the head, nest
feature terms in feature values, give heads variables no daughter binds,
have empty rules, and declare a context-dependent set closed under
possible-left-corner-of.

On generated sort grammars, `deferred` gives exactly the readings of
`sorts`, and the readings of `sem` are exactly the logical forms that
`tests/oracles.py` reads off the unpacked trees one by one, under every
strategy. Their atoms have one to three sorts, some of them curried
function sorts, and their unary and binary rules have one or two `sem`
templates, which apply a daughter to the other, apply a template atom
to a daughter, or drop a daughter.

To sweep a wider range of seeds, run

    PYTHONPATH=src python tests/test_generated.py FIRST STOP

which prints each disagreeing seed, strategy (and depth) and input for
the seeds FIRST to STOP - 1, over all three checks, and exits 1 if
there is any.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator

import pytest

from gapchart.engine import parse
from gapchart.grammar import Grammar, parse_grammar
from gapchart.tables import compile_tables
from gapchart.terms import canonical
from oracles import exhaustive_parse, tree_lfs

# Phrase backbones, highest first. A rule's daughters come from lower
# phrases, the preterminals and the empty category `e`; the one way back
# up is `X -> X p` (or `q`), which consumes a word. So every span has
# finitely many trees, as the oracle requires.
PHRASES = ("s", "a", "b")
PRETERMINALS = ("p", "q")
EMPTY = "e"
WORDS = ("x", "y", "z")
ATOMS = ("u", "v")
SHARED = ("A", "B")  # variables reused across the terms of one line
HEAD_ONLY = "H"  # a head variable no daughter binds


def _value(rng: random.Random, variables: tuple[str, ...]) -> str:
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(ATOMS)
    if roll < 0.8:
        return rng.choice(variables)
    return f"n(k={rng.choice(ATOMS + variables)})"


def _term(rng: random.Random, backbone: str, features: dict[str, tuple[str, ...]],
          variables: tuple[str, ...]) -> str:
    given = [f"{f}={_value(rng, variables)}"
             for f in features.get(backbone, ()) if rng.random() < 0.6]
    return f"{backbone}({','.join(given)})"


def _daughter(rng: random.Random, level: int) -> str:
    return rng.choice(PHRASES[level + 1:] + PRETERMINALS + (EMPTY,))


def random_grammar_text(rng: random.Random) -> str:
    features = {"n": ("k",)}
    for backbone in PHRASES + PRETERMINALS + (EMPTY,):
        features[backbone] = ("f", "g")[:rng.choice((0, 1, 1, 2))]
    lines = [f"feature {b} {' '.join(fs)}" for b, fs in features.items() if fs]
    lines.append(f"start {_term(rng, 's', features, ATOMS)}")
    rules = []
    for level, head in enumerate(PHRASES):
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                rhs = [head, rng.choice(PRETERMINALS)]
            else:
                rhs = [_daughter(rng, level) for _ in range(rng.randint(1, 3))]
            rules.append((head, rhs))
    rules += [(EMPTY, []) for _ in range(rng.randint(0, 2))]
    for i, (head, rhs) in enumerate(rules):
        head_term = _term(rng, head, features, SHARED + (HEAD_ONLY,))
        daughters = " ".join(_term(rng, d, features, SHARED) for d in rhs)
        lines.append(f"rule r{i} : {head_term} -> {daughters}".rstrip())
    for word, pre in zip(WORDS, PRETERMINALS + (rng.choice(PRETERMINALS),)):
        lines.append(f"lex {word} : {_term(rng, pre, features, ATOMS + ('_',))}")
    return "\n".join(lines) + "\n"


def closed_cd(grammar: Grammar, seed_set: set[str]) -> set[str]:
    """The smallest superset of `seed_set` closed under
    possible-left-corner-of (whatever a member can begin is a member)."""
    begins = compile_tables(grammar, "bu").left_corner
    cd = set(seed_set)
    todo = list(cd)
    while todo:
        for phrase in begins.get(todo.pop(), ()):
            if phrase not in cd:
                cd.add(phrase)
                todo.append(phrase)
    return cd


def with_closed_cd(rng: random.Random, text: str) -> Grammar:
    """The grammar of `text` with a random closed context-dependent set."""
    grammar = parse_grammar(text)
    used = sorted(compile_tables(grammar, "bu").backbones - {"n"})
    cd = closed_cd(grammar, set(rng.sample(used, rng.randint(1, 2))))
    return parse_grammar(text + f"cd {' '.join(sorted(cd))}\n")


def random_grammar(rng: random.Random) -> Grammar:
    return with_closed_cd(rng, random_grammar_text(rng))


def random_words(rng: random.Random, grammar: Grammar, max_len: int = 4) -> list[str]:
    """Half the time any words; otherwise the yield of a random
    derivation of the backbones, which features may still reject."""
    if rng.random() < 0.5:
        return [rng.choice(WORDS) for _ in range(rng.randint(0, max_len))]
    words_of: dict[str, list[str]] = {}
    for word, entries in grammar.lexicon.items():
        for entry in entries:
            words_of.setdefault(entry.cat.backbone, []).append(word)
    rules_of: dict[str, list] = {}
    for rule in grammar.rules:
        rules_of.setdefault(rule.head.backbone, []).append(rule)
    out: list[str] = []
    todo = [grammar.start.backbone]
    for _ in range(4 * max_len):  # bounded: `X -> X p` can recur forever
        if not todo or len(out) > max_len:
            break
        backbone = todo.pop()
        if backbone in words_of:
            out.append(rng.choice(words_of[backbone]))
        elif backbone in rules_of:
            todo.extend(d.backbone for d in reversed(rng.choice(rules_of[backbone]).rhs))
    return out[:max_len]


def disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(strategy, words) for every generated input of the seed on which
    the strategy's trees differ from the oracle's."""
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    for words in [random_words(rng, grammar) for _ in range(6)]:
        oracle = sorted(exhaustive_parse(grammar, words))
        for strategy in ("bu", "llc", "lc"):
            if sorted(parse(grammar, words, strategy=strategy).trees()) != oracle:
                yield strategy, words


SORTS = ("e", "t", "(e -> t)", "(t -> t)", "(e -> (e -> t))", "((e -> t) -> t)",
         "((e -> t) -> (e -> t))")
TEMPLATES = {1: ("D1", "[f, D1]", "[g, D1]"),
             2: ("[D1, D2]", "[D2, D1]", "[f, D1]", "[[g, D2], D1]")}


def random_sort_grammar(rng: random.Random) -> Grammar:
    lines = ["start s()"]
    for level, head in enumerate(PHRASES):
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                rhs = [head, rng.choice(PRETERMINALS)]
            else:
                lower = PHRASES[level + 1:] + PRETERMINALS
                rhs = [rng.choice(lower) for _ in range(rng.randint(1, 2))]
            name = f"r{len(lines)}"
            lines.append(f"rule {name} : {head}() -> {' '.join(f'{d}()' for d in rhs)}")
            lines += [f"sem {name} : {template}"
                      for template in rng.sample(TEMPLATES[len(rhs)], rng.randint(1, 2))]
    for word, pre in zip(WORDS, PRETERMINALS + (rng.choice(PRETERMINALS),)):
        lines.append(f"lex {word} : {pre}() -> {word}")
    for atom in (*WORDS, "f", "g"):
        lines += [f"sort {atom} : {sort}" for sort in rng.sample(SORTS, rng.randint(1, 3))]
    return with_closed_cd(rng, "\n".join(lines) + "\n")


def sort_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(strategy and depth, words) for every generated input of the seed
    on which that parse's complete readings differ from `bu` at `sorts`."""
    rng = random.Random(seed)
    grammar = random_sort_grammar(rng)
    tables = {strategy: compile_tables(grammar, strategy) for strategy in ("bu", "llc", "lc")}
    for words in [random_words(rng, grammar) for _ in range(6)]:
        expected = None
        for strategy in tables:
            for depth in ("sorts", "deferred"):
                result = parse(grammar, words, strategy=strategy, depth=depth,
                               tables=tables[strategy])
                renders = sorted(r.render for r in result.complete_readings())
                if expected is None:
                    expected = renders
                elif renders != expected:
                    yield f"{strategy} {depth}", words


def sem_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(strategy, words) for every generated input of the seed on which
    the logical forms of the complete readings at `sem` differ from
    those of the parse's trees, read off tree by tree."""
    rng = random.Random(seed)
    grammar = random_sort_grammar(rng)
    tables = {strategy: compile_tables(grammar, strategy) for strategy in ("bu", "llc", "lc")}
    for words in [random_words(rng, grammar) for _ in range(6)]:
        for strategy in tables:
            result = parse(grammar, words, strategy=strategy, depth="sem",
                           tables=tables[strategy])
            expected = set().union(*[tree_lfs(grammar, t) for t in set(result.trees())])
            if sorted(canonical(r.lf) for r in result.complete_readings()) != sorted(expected):
                yield strategy, words


# Every seed of 0-199 and 1000-1299 that disagreed with the oracle while
# the chart still packed derivations into more general edges and replaced
# more specific ones.
REGRESSION_SEEDS = (49, 66, 82, 114, 115, 139, 145, 151, 158, 177, 1001, 1040,
                    1042, 1046, 1055, 1070, 1091, 1150, 1161, 1167, 1191, 1218,
                    1221, 1250, 1285, 1289)
LOST_TO_EDGE_ORDER = pytest.mark.xfail(reason=(
    "ROADMAP item 2: under llc and lc an edge processed before the prediction "
    "that licenses its parent is never reduced again, so (r2 (r4)) is lost"))


@pytest.mark.parametrize("seed", [
    *range(24),
    *(pytest.param(s, marks=LOST_TO_EDGE_ORDER) if s == 1070 else s
      for s in REGRESSION_SEEDS),
])
def test_generated_grammar_forest_matches_exhaustive_oracle(seed):
    assert list(disagreements(seed)) == []


# One minimal grammar for each kind of disagreement with the oracle that
# a wider seed sweep or a hand-made grammar once turned up, with the
# oracle's trees.
MINIMAL_GRAMMARS = [
    pytest.param(
        "feature s f\nstart s(f=v)\nrule r0 : s() -> p()\nrule r1 : s(f=u) -> p()\n"
        "lex x : p()\n", "x", ["(r0 x)"],
        id="packed-derivation-unpacked-under-general-category"),
    pytest.param(
        "feature s f\nstart t()\nrule r0 : s(f=u) -> p()\nrule r1 : s() -> p()\n"
        "rule top : t() -> s(f=u) q()\nlex x : p()\nlex y : q()\n", "x y",
        ["(top (r0 x) y)", "(top (r1 x) y)"],
        id="replaced-edge-derivations-lost-to-later-parents"),
    pytest.param(
        "feature e f\nstart a()\nrule r2 : a() -> e()\nrule r4 : e(f=u) ->\n"
        "rule r5 : e() ->\nlex x : a()\n", "", ["(r2 (r4))", "(r2 (r5))"],
        id="replaced-empty-edge-tree-twice"),
    pytest.param(
        "start s()\ncd e b\nrule rc : c() -> p() e()\nrule r0 : s() -> c() e() b()\n"
        "rule rb : b() -> e()\nrule re : e() ->\nlex x : p()\n", "x",
        ["(r0 (rc x (re)) (re) (rb (re)))"],
        id="prediction-after-empty-edges-at-its-position"),
    # each use of the one empty edge binds its own `f`
    pytest.param(
        "feature e f\nstart x()\nrule r : x() -> e(f=u) e(f=v)\nrule re : e() ->\n", "",
        ["(r (re) (re))"], id="one-empty-edge-in-two-daughter-positions"),
]


@pytest.mark.parametrize("text, utterance, trees", MINIMAL_GRAMMARS)
def test_minimal_grammar_matches_exhaustive_oracle(text, utterance, trees):
    grammar = parse_grammar(text)
    words = utterance.split()
    oracle = sorted(exhaustive_parse(grammar, words))
    assert oracle == trees
    for strategy in ("bu", "llc", "lc"):
        assert sorted(parse(grammar, words, strategy=strategy).trees()) == oracle, strategy


SORT_SEEDS = range(12)


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_generated_sort_grammar_deferred_readings_match_sorts(seed):
    assert list(sort_disagreements(seed)) == []


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_generated_sort_grammar_sem_readings_match_tree_logical_forms(seed):
    assert list(sem_disagreements(seed)) == []


def test_generated_sort_grammars_have_ambiguous_and_deferred_readings():
    # the differentials above mean something only if some inputs have
    # several readings and some complete edges keep a choice open
    ambiguous = deferred = sem_ambiguous = 0
    for seed in SORT_SEEDS:
        rng = random.Random(seed)
        grammar = random_sort_grammar(rng)
        for words in [random_words(rng, grammar) for _ in range(6)]:
            result = parse(grammar, words, depth="deferred")
            ambiguous += len(result.complete_readings()) > 1
            deferred += any(e.reading.deferred for e in result.complete_edges())
            sem_ambiguous += len(parse(grammar, words, depth="sem").complete_readings()) > 1
    assert ambiguous >= 5 and deferred >= 2 and sem_ambiguous >= 10


if __name__ == "__main__":
    first, stop = map(int, sys.argv[1:])
    found = False
    for seed in range(first, stop):
        for check in (disagreements, sort_disagreements, sem_disagreements):
            for variant, words in check(seed):
                print(seed, variant, words)
                found = True
    sys.exit(1 if found else 0)
