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
strategy. Every ground logical form a reading holds types again from
scratch, which is what lets the sortal check skip it, and the fragment
cover of every generated input costs what the exhaustive tiling oracle
finds. Their atoms have one to three sorts, some of them curried
function sorts, and their unary and binary rules have one or two `sem`
templates, which apply a daughter to the other, apply a template atom
to a daughter, or drop a daughter.

A parse resumed from the chart of an input one word apart, at any
position the resumption rule allows, gives the fresh parse's chart,
trees and readings and leaves the earlier result unchanged; resuming
one position past the lookahead rule does not.

On fresh and resumed parses of both kinds of grammar, at every depth,
`trees(n)` is `trees()[:n]` for small, negative and no limits, and
every edge's first derivation has daughters with smaller ids, which is
what lets a first tree be read without counting. On generated grammars
with unary cycles added, `trees(n)` lists exactly the first n trees
that `tests/oracles.py` expands eagerly, in the same order, cutting
cycles on the whole root path (for every parse with at most
`EAGER_CAP` trees).

Under every strategy, the nullable set, the possible-left-corner
relation and the first words compiled for both kinds of grammar are
what the oracles find by derivation search, matrix closure and
recursion.

Tables warmed by a seed's other inputs parse each input exactly as
fresh tables do (trace lines, `chart.dump()`, `trees(7)` and readings),
at `syn` on a generated grammar and at `sem` and `deferred` on a
generated sort grammar, under every strategy; so do warm tables of the
toy grammar over its corpus at `syn` and `sem`.

The order in which the engine builds a chart is pinned too: for each
generated grammar of seeds 0-49 (at `syn` under `bu`, `llc` and `lc`)
and each generated sort grammar (at `sem` and `deferred` under the
same strategies), the sha256 of the trace lines, `chart.dump()` and
`trees(7)` of a fresh parse of each input is compared with
`tests/golden/order_digests.json`.

To sweep a wider range of seeds, run

    PYTHONPATH=src python tests/test_generated.py FIRST STOP

which prints each disagreeing seed, strategy (and depth) and input for
the seeds FIRST to STOP - 1, over the tree, reading, cover, resume,
tree-limit, tree-order, table and warm-table checks, and exits 1 if
there is any.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Iterator

import pytest

from gapchart.engine import _Parser, parse, tokenize
from gapchart.grammar import Grammar, parse_grammar
from gapchart.lf import LFAnn, LFApp
from gapchart.scoring import ScoreWeights, min_fragment_cover
from gapchart.semantics import _walk_network, unify_sorts
from gapchart.tables import compile_tables
from gapchart.terms import Node, Var, canonical, resolve
from oracles import (
    derivation_nullable,
    eager_trees,
    exhaustive_min_cover_cost,
    exhaustive_parse,
    matrix_left_corner,
    recursive_first_words,
    tree_lfs,
)

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
    begins = grammar.analysis.left_corner
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
    used = sorted(grammar.analysis.backbones - {"n"})
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


def cover_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(depth, words) for every generated input of the seed whose
    fragment cover, under `llc` with robust parsing, costs more or less
    than the cheapest tiling the exhaustive oracle finds: at `syn` on a
    generated grammar and at `deferred` on a generated sort grammar."""
    weights = ScoreWeights()
    for depth, make in (("syn", random_grammar), ("deferred", random_sort_grammar)):
        rng = random.Random(seed)
        grammar = make(rng)
        for words in [random_words(rng, grammar) for _ in range(6)]:
            result = parse(grammar, words, depth=depth, robust=True)
            cover = min_fragment_cover(result, weights)
            if sum(arc.cost for arc in cover.arcs) != exhaustive_min_cover_cost(result, weights):
                yield depth, words


def table_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(table, backbones) for each table of the analysis of the seed's
    generated grammar and generated sort grammar that differs from what
    `tests/oracles.py` finds: the nullable set, the possible-left-corner
    relation and the first words. The analysis is the grammar's, the same
    under every strategy."""
    for make in (random_grammar, random_sort_grammar):
        grammar = make(random.Random(seed))
        analysis = grammar.analysis
        nullable = derivation_nullable(grammar)
        left_corner = matrix_left_corner(grammar)
        first_word = recursive_first_words(grammar)
        if analysis.nullable != nullable:
            yield "nullable", sorted(analysis.nullable ^ nullable)
        bad_corners = sorted(b for b in left_corner
                             if analysis.left_corner.get(b, {b}) != left_corner[b])
        if bad_corners:
            yield "left_corner", bad_corners
        bad_words = sorted(b for b in first_word
                           if analysis.first_word.get(b, set()) != first_word[b])
        if bad_words:
            yield "first_word", bad_words


def _resume_pairs(rng: random.Random, grammar: Grammar) -> list[tuple[list[str], list[str]]]:
    """Pairs of inputs, each way round, that differ in one word: one
    substituted (by another word or the unknown `w`) or one appended."""
    pairs = []
    for _ in range(2):
        before = random_words(rng, grammar)
        after = list(before)
        if before and rng.random() < 0.5:
            i = rng.randrange(len(after))
            after[i] = rng.choice([w for w in (*WORDS, "w") if w != after[i]])
        else:
            after.append(rng.choice(WORDS))
        pairs += [(before, after), (after, before)]
    return pairs


def _resume_snapshot(result) -> tuple:
    return (result.chart.dump(), result.stats, result.trees(),
            [r.render for r in result.complete_readings()],
            [(e.id, [d.key for d in e.derivations]) for e in result.chart.edges])


def resume_disagreements(seed: int, overreach: bool = False) -> Iterator[tuple[str, list[str]]]:
    """(configuration, words) for every robust parse of a generated input
    that, resumed from the chart of an input one word apart at some
    position the resumption rule allows, differs from the fresh parse,
    or changes the earlier result: at `syn` on a generated grammar and
    at `sem`, `sorts` and `deferred` on a generated sort grammar, under
    every strategy, with and without lookahead. With `overreach`, only
    the parses that predict with lookahead are resumed, one position
    past the rule: these should disagree on some seeds."""
    for depths, make in ((("syn",), random_grammar),
                         (("sem", "sorts", "deferred"), random_sort_grammar)):
        rng = random.Random(seed)
        grammar = make(rng)
        pairs = _resume_pairs(rng, grammar)
        for strategy in ("bu", "llc", "lc"):
            tables = compile_tables(grammar, strategy)
            for depth in depths:
                for lookahead in (True, False):
                    if overreach and not (lookahead and tables.cd):
                        continue
                    config = dict(depth=depth, lookahead=lookahead, robust=True, tables=tables)
                    for before, words in pairs:
                        base = parse(grammar, before, **config)
                        held = _resume_snapshot(base)
                        fresh = _resume_snapshot(parse(grammar, words, **config))
                        allowed = base.shared_positions(words)
                        positions = [allowed + 1] if overreach else range(allowed + 1)
                        variant = f"{strategy} {depth} lookahead={lookahead} from {before}"
                        for at in positions:
                            resumed = _Parser(grammar, tables, depth, lookahead, True,
                                              None).run(words, base.chart, at)
                            if _resume_snapshot(resumed) != fresh:
                                yield f"{variant} at {at}", words
                        if _resume_snapshot(base) != held:
                            yield f"{variant}: earlier result changed", words


def random_cyclic_grammar(rng: random.Random) -> Grammar:
    """A generated grammar plus one to three unary cycles, `X -> Y` and
    `Y -> X` over phrases, preterminals and the empty category (`X` and
    `Y` possibly the same); the first goes through the start backbone,
    so that complete edges lie on a cycle."""
    backbones = PHRASES + PRETERMINALS + (EMPTY,)
    lines = []
    for i in range(rng.randint(1, 3)):
        x, y = ("s" if i == 0 else rng.choice(backbones)), rng.choice(backbones)
        lines += [f"rule c{i}a : {x}() -> {y}()", f"rule c{i}b : {y}() -> {x}()"]
    return with_closed_cd(rng, random_grammar_text(rng) + "\n".join(lines) + "\n")


def cyclic_parses(seed: int) -> Iterator[tuple[str, object]]:
    """(strategy, result) for parses of generated inputs of the seed's
    generated grammar with unary cycles, under every strategy."""
    rng = random.Random(seed)
    grammar = random_cyclic_grammar(rng)
    for words in [random_words(rng, grammar) for _ in range(6)]:
        for strategy in ("bu", "llc", "lc"):
            yield strategy, parse(grammar, words, strategy=strategy, robust=True)


# Cycles and empty rules can give a short input a million trees, which
# the eager listing cannot expand; a parse with more trees than this is
# not listed.
EAGER_CAP = 200


def tree_order_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(strategy and limit, words) for every parse of `cyclic_parses`
    with at most `EAGER_CAP` trees whose `trees(n)`, for some n of
    `LIMITS`, is not the first n trees that `tests/oracles.eager_trees`
    lists for the complete edges."""
    for strategy, result in cyclic_parses(seed):
        if len(result.trees(EAGER_CAP + 1)) > EAGER_CAP:
            continue
        expected = [tree for edge in result.complete_edges() for tree in eager_trees(edge)]
        for n in LIMITS:
            if result.trees(n) != expected[:n]:
                yield f"{strategy} limit {n}", result.words


LIMITS = (0, 1, 2, 3, -1, -2, None)


def first_derivations_look_back(result) -> bool:
    """Whether every edge's first derivation has daughters with smaller
    ids, which is what lets `trees` read a first tree without counting."""
    return all(d.id < e.id for e in result.chart.edges for d in e.derivations[0].daughters)


def _limit_parses(seed: int) -> Iterator[tuple[str, object]]:
    """(configuration, result) for robust parses of generated inputs,
    fresh and resumed from the chart of an input one word apart: at
    `syn` on a generated grammar and at `sem`, `sorts` and `deferred` on
    a generated sort grammar, under every strategy."""
    for depths, make in ((("syn",), random_grammar),
                         (("sem", "sorts", "deferred"), random_sort_grammar)):
        rng = random.Random(seed)
        grammar = make(rng)
        pairs = _resume_pairs(rng, grammar)
        for strategy in ("bu", "llc", "lc"):
            tables = compile_tables(grammar, strategy)
            for depth in depths:
                config = dict(strategy=strategy, depth=depth, robust=True, tables=tables)
                for before, words in pairs:
                    base = parse(grammar, before, **config)
                    yield f"{strategy} {depth} fresh", base
                    yield (f"{strategy} {depth} resumed from {before}",
                           parse(grammar, words, resume_from=base, **config))


def limit_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """(configuration, words) for every parse of `_limit_parses` whose
    `trees(n)` differs from `trees()[:n]` for some n of `LIMITS`, or in
    which some edge's first derivation has a daughter with a larger id."""
    for variant, result in _limit_parses(seed):
        every = result.trees()
        for n in LIMITS:
            if result.trees(n) != every[:n]:
                yield f"{variant} limit {n}", result.words
        if not first_derivations_look_back(result):
            yield f"{variant}: a first derivation looks ahead", result.words


# Every seed of 0-199 and 1000-1299 that disagreed with the oracle while
# the chart still packed derivations into more general edges and replaced
# more specific ones, and 1428, the one seed of 1300-1699 that did. 1070
# and 1428 lost trees while an empty edge reduced before the prediction
# that licenses its parent was never reduced again.
REGRESSION_SEEDS = (49, 66, 82, 114, 115, 139, 145, 151, 158, 177, 1001, 1040,
                    1042, 1046, 1055, 1070, 1091, 1150, 1161, 1167, 1191, 1218,
                    1221, 1250, 1285, 1289, 1428)


@pytest.mark.parametrize("seed", [*range(24), *REGRESSION_SEEDS])
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
    # the same, as two trailing daughters after a word
    pytest.param(
        "feature e f\nstart x()\nrule r : x() -> p() e(f=u) e(f=v)\nrule re : e() ->\n"
        "lex w : p()\n", "w", ["(r w (re) (re))"],
        id="one-empty-edge-in-two-trailing-positions"),
    pytest.param(
        "start s()\nrule r : s() -> p() q() e() e()\nrule re : e() ->\nlex w : p()\n"
        "lex v : q()\n", "w v", ["(r w v (re) (re))"],
        id="tail-and-trailing-daughters"),
    # with `ra` before `rc`, the empty `e` at 1 is offered to `ra` before
    # the `c` it completes predicts `a` there; only processing `e` again
    # builds `ra` (in the other order the parent happens to find it)
    pytest.param(
        "start s()\ncd a\nrule rs : s() -> c() a()\nrule ra : a() -> e()\n"
        "rule rc : c() -> x() e()\nrule re : e() ->\nlex w : x()\n", "w",
        ["(rs (rc w (re)) (ra (re)))"], id="licence-after-empty-edge-at-its-position"),
    # advancing the predicted `b(f=h(g=X)) b(f=X) c()` by the empty `rb`
    # gives `b(f=Y)`; unless it is renamed it shares `Y` with that edge,
    # and the same edge then fails the occurs check in the next place
    pytest.param(
        "feature b f\nfeature h g\nstart s()\ncd c w\nrestrict b f\n"
        "rule r : s() -> a() b(f=h(g=X)) b(f=X) c()\nrule rb : b(f=h(g=Y)) ->\n"
        "rule rc : c() -> w()\nlex x : a()\nlex y : w()\n", "x y",
        ["(r x (rb) (rb) (rc y))"], id="advanced-sequence-shares-no-variable-with-its-edge"),
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


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_resumed_parses_of_generated_grammars_equal_fresh_parses(seed):
    assert list(resume_disagreements(seed)) == []


def test_resuming_one_position_past_the_lookahead_rule_disagrees():
    # the check above means something only if the rule is needed
    assert any(next(resume_disagreements(seed, overreach=True), None)
               for seed in SORT_SEEDS)


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_generated_grammar_covers_cost_what_the_exhaustive_tiling_costs(seed):
    assert list(cover_disagreements(seed)) == []


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_tables_of_generated_grammars_match_the_oracles(seed):
    assert list(table_disagreements(seed)) == []


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_tree_limits_of_generated_grammars_are_prefixes(seed):
    assert list(limit_disagreements(seed)) == []


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_tree_order_of_generated_grammars_with_cycles_matches_eager_listing(seed):
    assert list(tree_order_disagreements(seed)) == []


def _cyclic(edge, path: tuple = ()) -> bool:
    path = (*path, edge)
    return any(c in path or _cyclic(c, path) for d in edge.derivations for c in d.daughters)


def test_generated_grammars_with_cycles_have_cyclic_forests_with_trees():
    # the check above means something only if some complete edges with
    # trees lie on a cycle or above one, which the listing must cut
    cyclic = sum(_cyclic(edge)
                 for seed in SORT_SEEDS for _, result in cyclic_parses(seed)
                 if 0 < len(result.trees(EAGER_CAP + 1)) <= EAGER_CAP
                 for edge in result.complete_edges())
    assert cyclic >= 20


def test_generated_forests_have_derivations_with_later_daughters():
    # a first tree is read off first derivations; the check above means
    # more if later derivations of some edges do reach later edges
    later = sum(d.id > e.id
                for seed in SORT_SEEDS for _, result in _limit_parses(seed)
                for e in result.chart.edges
                for derivation in e.derivations[1:] for d in derivation.daughters)
    assert later >= 50


def _traced_snapshot(grammar: Grammar, words: list[str], strategy: str, depth: str,
                     tables) -> tuple:
    lines: list[str] = []
    result = parse(grammar, words, strategy=strategy, depth=depth, robust=True,
                   trace=lines.append, tables=tables)
    return (lines, result.chart.dump(), result.trees(7),
            [r.render for r in result.complete_readings()])


def warm_table_disagreements_of(grammar: Grammar, inputs: list[list[str]],
                                depths: tuple[str, ...]) -> Iterator[tuple[str, list[str]]]:
    """(strategy and depth, words) for every input whose parse with fresh
    tables differs, in its trace lines, `chart.dump()`, `trees(7)` or
    complete readings, from its parse with warm tables, under every
    strategy. The warm tables have first parsed every input once, last
    to first, at each depth, so the other inputs filled their class memo
    and semantic memo; neither memo may change an outcome."""
    for strategy in ("bu", "llc", "lc"):
        warm = compile_tables(grammar, strategy)
        for depth in depths:
            for words in inputs[::-1]:
                parse(grammar, words, strategy=strategy, depth=depth, robust=True,
                      tables=warm)
        for depth in depths:
            for words in inputs:
                fresh = compile_tables(grammar, strategy)
                if (_traced_snapshot(grammar, words, strategy, depth, warm)
                        != _traced_snapshot(grammar, words, strategy, depth, fresh)):
                    yield f"{strategy} {depth}", words


def warm_table_disagreements(seed: int) -> Iterator[tuple[str, list[str]]]:
    """`warm_table_disagreements_of` the seed's generated inputs: at
    `syn` on a generated grammar and at `sem` and `deferred` on a
    generated sort grammar."""
    for depths, make in ((("syn",), random_grammar),
                         (("sem", "deferred"), random_sort_grammar)):
        rng = random.Random(seed)
        grammar = make(rng)
        inputs = [random_words(rng, grammar) for _ in range(6)]
        yield from warm_table_disagreements_of(grammar, inputs, depths)


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_warm_tables_of_generated_grammars_parse_as_fresh_ones(seed):
    assert list(warm_table_disagreements(seed)) == []


def test_warm_tables_of_the_toy_grammar_parse_as_fresh_ones(toy_grammar, toy_corpus):
    inputs = [tokenize(utt) for utt in toy_corpus]
    assert list(warm_table_disagreements_of(toy_grammar, inputs, ("syn", "sem"))) == []


ORDER_DIGESTS = Path(__file__).parent / "golden" / "order_digests.json"
ORDER_SEEDS = range(50)


def order_digests() -> dict[str, str]:
    """Per seed, grammar kind, strategy and depth: the sha256 of the
    trace lines, `chart.dump()` and `trees(7)` of a fresh parse of each
    of the seed's generated inputs. Any change to the order in which
    edges and predictions are made, or to what they are, changes it."""
    out = {}
    for seed in ORDER_SEEDS:
        for kind, make, depths in (("gen", random_grammar, ("syn",)),
                                   ("sort", random_sort_grammar, ("sem", "deferred"))):
            rng = random.Random(seed)
            grammar = make(rng)
            inputs = [random_words(rng, grammar) for _ in range(6)]
            for strategy in ("bu", "llc", "lc"):
                tables = compile_tables(grammar, strategy)
                for depth in depths:
                    digest = hashlib.sha256()
                    for words in inputs:
                        lines: list[str] = []
                        result = parse(grammar, words, strategy=strategy, depth=depth,
                                       trace=lines.append, tables=tables)
                        lines += [result.chart.dump(), *result.trees(7)]
                        digest.update("\n".join(lines).encode() + b"\0")
                    out[f"{seed} {kind} {strategy} {depth}"] = digest.hexdigest()
    return out


def write_order_digests() -> None:
    ORDER_DIGESTS.write_text(json.dumps(order_digests(), indent=1) + "\n", encoding="utf-8")


def test_generated_parses_build_their_charts_in_the_recorded_order():
    """After an intended change to the order or the work of a parse,
    rewrite the digests with

        PYTHONPATH=src:tests python -c "import test_generated as t; t.write_order_digests()"

    and say in CHANGES.md why they moved."""
    expected = json.loads(ORDER_DIGESTS.read_text(encoding="utf-8"))
    got = order_digests()
    assert [key for key in expected if got.get(key) != expected[key]] == []
    assert got.keys() == expected.keys()


def _ground_annotations(value: object) -> Iterator[LFAnn]:
    if isinstance(value, LFAnn) and value.ground:
        yield value
    if isinstance(value, Node):
        for child in value.children():
            yield from _ground_annotations(child)


def _fresh_slots(node: object, slots: list[tuple[Var, object]]) -> object:
    # the annotated LF with a fresh variable in each annotation slot,
    # paired in `slots` with the sort the slot held
    if isinstance(node, LFAnn):
        var = Var("S")
        slots.append((var, node.slot))
        return LFAnn(_fresh_slots(node.expr, slots), var)
    if isinstance(node, LFApp):
        return node.map(_fresh_slots, slots)
    return node


def retype_ground_subtrees(grammar: Grammar, utterances: list[list[str]]) -> int:
    """Type every ground annotated subtree of every chart reading at
    `sorts` and `deferred` from scratch, with its slots made variables
    again, and check that the sorts it holds solve that network and
    settle every atom's choice. Returns the number of applications so
    checked."""
    applications = 0
    tables = compile_tables(grammar, "llc")
    for words in utterances:
        for depth in ("sorts", "deferred"):
            result = parse(grammar, words, depth=depth, tables=tables, robust=True)
            for edge in result.chart.edges:
                for node in _ground_annotations(edge.reading.lf):
                    slots: list[tuple[Var, object]] = []
                    choices: list = []
                    binds = _walk_network(_fresh_slots(node, slots), {}, grammar, choices)
                    assert binds is not None, node
                    for var, sort in slots:
                        binds = unify_sorts(var, sort, binds)
                        assert binds is not None, node
                    for choice in choices:
                        assert resolve(choice.slot, binds) in choice.candidates, node
                    applications += isinstance(node.expr, LFApp)
    return applications


@pytest.mark.parametrize("seed", SORT_SEEDS)
def test_ground_logical_forms_of_generated_grammars_type_from_scratch(seed):
    rng = random.Random(seed)
    grammar = random_sort_grammar(rng)
    retype_ground_subtrees(grammar, [random_words(rng, grammar) for _ in range(6)])


def test_ground_logical_forms_of_the_sorts_corpus_type_from_scratch(sorts_grammar,
                                                                   sorts_corpus):
    assert retype_ground_subtrees(sorts_grammar, [tokenize(u) for u in sorts_corpus]) >= 10


def test_generated_grammars_have_ground_applications_to_retype():
    # the generated check above means something only if some ground
    # subtrees hold applications
    total = 0
    for seed in SORT_SEEDS:
        rng = random.Random(seed)
        grammar = random_sort_grammar(rng)
        total += retype_ground_subtrees(grammar, [random_words(rng, grammar) for _ in range(6)])
    assert total >= 50


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
        for check in (disagreements, sort_disagreements, sem_disagreements,
                      cover_disagreements, resume_disagreements, limit_disagreements,
                      tree_order_disagreements, table_disagreements,
                      warm_table_disagreements):
            for variant, words in check(seed):
                print(seed, variant, words)
                found = True
    sys.exit(1 if found else 0)
