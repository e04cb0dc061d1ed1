"""Compile-time analysis tables, cross-checked against naive oracles,
and the compiled daughters checked against tables that compile none."""

from __future__ import annotations

import dataclasses

import pytest

from gapchart.data import read_text
from gapchart.engine import parse, tokenize
from gapchart import grammar as grammar_module
from gapchart.grammar import analyse, parse_grammar
from gapchart.semantics import DEPTHS, SEM, SYN
from gapchart.tables import STRATEGIES, compile_tables
from gapchart.terms import FeatureTerm, canonical_seq

from oracles import derivation_nullable, matrix_left_corner, recursive_first_words


def _all_grammars(toy, sorts, ambig, fragments):
    return {"toy": toy, "sorts": sorts, "ambig": ambig, "fragments": fragments}


@pytest.fixture
def grammars(toy_grammar, sorts_grammar, ambig_grammar, fragments_grammar):
    return _all_grammars(toy_grammar, sorts_grammar, ambig_grammar,
                         fragments_grammar)


def test_nullable_matches_derivation_search(grammars):
    for name, g in grammars.items():
        tables = compile_tables(g, "bu")
        assert tables.nullable == derivation_nullable(g), name


def test_left_corner_matches_matrix_closure(grammars):
    for name, g in grammars.items():
        tables = compile_tables(g, "llc")
        oracle = matrix_left_corner(g)
        for backbone in tables.backbones:
            assert tables.left_corner.get(backbone, {backbone}) == \
                oracle[backbone], (name, backbone)


def test_first_words_match_recursive_computation(grammars):
    for name, g in grammars.items():
        tables = compile_tables(g, "llc")
        oracle = recursive_first_words(g)
        for backbone in tables.backbones:
            assert tables.first_word.get(backbone, set()) == \
                oracle[backbone], (name, backbone)


def _table_text(tables):
    """The tables with rules by name and terms rendered canonically, so
    that tables compiled from two loads of one grammar compare equal."""

    def entry(e):
        return e.rule.name, canonical_seq((e.trigger, *e.seq)), e.head_ci, e.ground

    def trigger(t):
        return (t.rule.name, canonical_seq((*t.tail, t.daughter, *t.trailing)),
                len(t.tail), t.head_ci)

    return (tables.strategy, tables.cd, tables.backbones, tables.nullable,
            tables.left_corner, tables.first_word,
            {b: [entry(e) for e in es] for b, es in tables.entries.items()},
            {b: [trigger(t) for t in ts] for b, ts in tables.reduction_triggers.items()},
            [r.name for r in tables.empty_rules], tables.closure_violations)


@pytest.mark.parametrize("name", ("toy.gram", "sorts.gram", "fragments.gram"))
def test_the_grammar_analysis_is_worked_out_once_per_grammar(monkeypatch, name):
    calls = []

    def counting(grammar):
        calls.append(grammar)
        return analyse(grammar)

    monkeypatch.setattr(grammar_module, "analyse", counting)
    grammar = parse_grammar(read_text(name))
    tables = {strategy: compile_tables(grammar, strategy) for strategy in STRATEGIES}
    assert calls == [grammar]
    analysis = grammar.analysis
    for t in tables.values():
        assert t.nullable is analysis.nullable and t.left_corner is analysis.left_corner
        assert t.first_word is analysis.first_word and t.backbones is analysis.backbones
        assert t.empty_rules is analysis.empty_rules and t.corners is analysis.corners
    monkeypatch.undo()
    for strategy, t in tables.items():
        fresh = compile_tables(parse_grammar(read_text(name)), strategy)
        assert _table_text(t) == _table_text(fresh), strategy


def test_strategy_determines_cd_set(toy_grammar):
    bu = compile_tables(toy_grammar, "bu")
    lc = compile_tables(toy_grammar, "lc")
    llc = compile_tables(toy_grammar, "llc")
    assert bu.cd == frozenset()
    assert lc.cd == frozenset(lc.backbones)
    assert llc.cd == {"s_gap", "vp_gap", "np_gap"}
    assert set(STRATEGIES) == {"bu", "lc", "llc"}


def test_unknown_strategy_rejected(toy_grammar):
    with pytest.raises(ValueError):
        compile_tables(toy_grammar, "topdown")


def test_toy_llc_prediction_entries(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    entries = sorted(
        (e.rule.name, e.trigger.backbone, canonical_seq(e.seq), e.head_ci)
        for group in tables.entries.values()
        for e in group
    )
    assert entries == [
        ("r4", "relpro", "s_gap()", True),
        ("r5", "np", "vp_gap()", False),
        ("r6", "v", "np_gap()", False),
    ]


def test_bu_has_no_prediction_entries(toy_grammar):
    tables = compile_tables(toy_grammar, "bu")
    assert not any(tables.entries.values())


def test_lc_has_entries_for_every_binary_rule(toy_grammar):
    tables = compile_tables(toy_grammar, "lc")
    rules = {e.rule.name for g in tables.entries.values() for e in g}
    assert rules == {"r1", "r2", "r3", "r4", "r5", "r6", "r8"}


def test_entry_sequences_are_restricted(toy_grammar):
    # np keeps its declared agr feature in lc-mode sequences; the entry
    # for r8 predicts np and the sequence element carries agr
    tables = compile_tables(toy_grammar, "lc")
    (r8_entry,) = [
        e for g in tables.entries.values() for e in g if e.rule.name == "r8"
    ]
    (elem,) = r8_entry.seq
    assert elem.backbone == "np"
    assert tuple(n for n, _ in elem.feats) == ("agr",)


def test_closure_violations_on_bad_grammar():
    text = (
        "start y()\n"
        "cd x\n"
        "rule r_top : y() -> x() z()\n"
        "rule r_x : x() ->\n"
        "lex w : z()\n"
    )
    g = parse_grammar(text)
    tables = compile_tables(g, "llc")
    assert tables.closure_violations == [("x", "y")]


def test_toy_llc_cd_set_is_closed(toy_grammar):
    assert compile_tables(toy_grammar, "llc").closure_violations == []


def test_lc_cd_set_always_closed(grammars):
    for name, g in grammars.items():
        assert compile_tables(g, "lc").closure_violations == [], name


def test_reduction_triggers_cover_nullable_suffixes():
    text = (
        "start s()\n"
        "rule top : s() -> b() c()\n"
        "rule b_w : b() -> \n"
        "rule c_e : c() ->\n"
        "lex w : b()\n"
    )
    g = parse_grammar(text)
    tables = compile_tables(g, "bu")
    # b can complete `top` because the trailing c is nullable
    b_triggers = {(t.rule.name, len(t.tail)) for t in tables.reduction_triggers["b"]}
    assert ("top", 0) in b_triggers
    c_triggers = {(t.rule.name, len(t.tail)) for t in tables.reduction_triggers["c"]}
    assert ("top", 1) in c_triggers


def test_reduction_triggers_stop_at_non_nullable():
    text = (
        "start s()\n"
        "rule top : s() -> a() b()\n"
        "rule a_e : a() ->\n"
        "lex w : b()\n"
    )
    g = parse_grammar(text)
    tables = compile_tables(g, "bu")
    a_triggers = {(t.rule.name, len(t.tail)) for t in tables.reduction_triggers.get("a", ())}
    assert ("top", 0) not in a_triggers  # b after a is not nullable
    assert ("top", 1) in {
        (t.rule.name, len(t.tail)) for t in tables.reduction_triggers["b"]
    }


def test_empty_rules_listed(toy_grammar):
    tables = compile_tables(toy_grammar, "bu")
    assert [r.name for r in tables.empty_rules] == ["r7"]
    assert tables.nullable == {"np_gap"}


def test_can_begin_uses_closure(toy_grammar):
    tables = compile_tables(toy_grammar, "llc")
    assert "s" in tables.left_corner["det"]
    assert "s_gap" in tables.left_corner["np"]
    assert "s" in tables.left_corner["s"]          # reflexive
    assert "np" not in tables.left_corner["v"]


# -- compiled daughters ----------------------------------------------------


def test_closed_daughters_of_the_toy_grammar_are_bare(toy_grammar):
    rules = {r.name: r for r in toy_grammar.rules}
    # r1 : s(agr=A) -> np(agr=A) vp(agr=A) shares A, so both are open
    assert rules["r1"].compiled_rhs == rules["r1"].rhs
    # r5 : s_gap() -> np() vp_gap(), where np() is normalized to np(agr=_)
    r5 = rules["r5"]
    assert tuple(n for n, _ in r5.rhs[0].feats) == ("agr",)
    assert r5.compiled_rhs == (FeatureTerm("np"), r5.rhs[1])
    # r8 : vp(agr=A) -> v(agr=A) np() leaves only np() closed
    r8 = rules["r8"]
    assert r8.compiled_rhs == (r8.rhs[0], FeatureTerm("np"))


def test_what_leaves_a_daughter_open():
    g = parse_grammar(
        "feature a f\n"
        "feature b f g\n"
        "feature c f\n"
        "start a()\n"
        "rule atom : a() -> b(f=x)\n"
        "rule nested : a() -> b(f=c(f=Y))\n"
        "rule twice : a() -> b(f=X, g=X)\n"
        "rule shared : a() -> b(f=X) c(f=X)\n"
        "rule head_only : a(f=X) -> b()\n"
        "rule free : a() -> b(f=X, g=_) c(f=Y)\n"
        "lex w : b()\n")
    rules = {r.name: r for r in g.rules}
    # an atom value, a nested term or a variable used twice leaves it open
    for name in ("atom", "nested", "twice", "shared"):
        assert rules[name].compiled_rhs == rules[name].rhs, name
    # a variable only the head uses: the head is not ground, b() is closed
    head_only = rules["head_only"]
    assert not head_only.head.ground
    assert head_only.compiled_rhs == (FeatureTerm("b"),)
    assert rules["free"].compiled_rhs == (FeatureTerm("b"), FeatureTerm("c"))


def test_triggers_and_entries_hold_the_compiled_daughters(toy_grammar):
    for strategy in STRATEGIES:
        tables = compile_tables(toy_grammar, strategy)
        numbers = []
        for backbone, triggers in tables.reduction_triggers.items():
            for t in triggers:
                rhs, k = t.rule.compiled_rhs, len(t.tail)
                assert (t.daughter, t.tail, t.trailing) == (rhs[k], rhs[:k], rhs[k + 1:])
                assert t.daughter.backbone == backbone
                assert t.head_ci == (t.rule.head.backbone not in tables.cd)
                assert t.binary == (k == 1 and not t.trailing)
                # the class memo serves one or two daughters, one of them open
                served = k < 2 and not t.trailing and any(d.feats for d in rhs)
                assert (t.number is not None) == served
                numbers.append(t.number)
        for entries in tables.entries.values():
            for e in entries:
                assert e.trigger == e.rule.compiled_rhs[0]
                assert e.ground == all(term.ground for term in e.seq)
                assert (e.number is None) == (e.ground and not e.trigger.feats)
                numbers.append(e.number)
        numbers = [n for n in numbers if n is not None]
        assert numbers and len(set(numbers)) == len(numbers)
    (r5,) = [e for es in compile_tables(toy_grammar, "llc").entries.values()
             for e in es if e.rule.name == "r5"]
    # a bare trigger and a ground sequence: predicted as stored
    assert r5.trigger == FeatureTerm("np") and r5.ground


def _uncompiled(tables):
    """The tables with nothing decided at compile time: every daughter
    open, no predicted sequence known to be ground, no head known to be
    context-independent, no trigger known to be binary and none numbered
    for the class memo, so that `_Parser._match` matches every trigger
    and every daughter and entry is unified as it is met."""

    def trigger(t):
        rhs, k = t.rule.rhs, len(t.tail)
        return t._replace(daughter=rhs[k], tail=rhs[:k], trailing=rhs[k + 1:],
                          head_ci=False, binary=False, number=None)

    return dataclasses.replace(
        tables,
        entries={b: tuple(e._replace(trigger=e.rule.rhs[0], head_ci=False, ground=False,
                                     number=None)
                          for e in es)
                 for b, es in tables.entries.items()},
        reduction_triggers={b: tuple(map(trigger, ts))
                            for b, ts in tables.reduction_triggers.items()},
    )


def _corpus_lines(name):
    lines = [line.strip() for line in read_text(name).splitlines()]
    return [line for line in lines if line and not line.startswith("#")]


# each bundled grammar with the bundled inputs written for it
CORPORA = {
    "toy.gram": _corpus_lines("toy_corpus.txt"),
    "sorts.gram": _corpus_lines("sorts_corpus.txt"),
    "ambig.gram": _corpus_lines("ambig_corpus.txt"),
    "fragments.gram": [line.split("\t")[3] for line in _corpus_lines("nbest.tsv")],
}


def _snapshot(grammar, words, strategy, depth, tables):
    lines: list[str] = []
    result = parse(grammar, words, strategy=strategy, depth=depth, robust=True,
                   trace=lines.append, tables=tables)
    return (lines, result.chart.dump(), result.trees(7),
            [r.render for r in result.complete_readings()])


@pytest.mark.parametrize("name", sorted(CORPORA))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_compiled_tables_parse_exactly_as_uncompiled_ones(name, strategy):
    grammar = parse_grammar(read_text(name))
    tables = compile_tables(grammar, strategy)
    plain = _uncompiled(tables)
    if name == "toy.gram":
        # the toy grammar has closed daughters, so the two tables differ
        assert plain.reduction_triggers != tables.reduction_triggers
    depths = DEPTHS if grammar.has_sorts else (SYN, SEM)
    for depth in depths:
        for utt in CORPORA[name]:
            words = tokenize(utt)
            assert _snapshot(grammar, words, strategy, depth, tables) == \
                _snapshot(grammar, words, strategy, depth, plain), (depth, utt)
    # the compiled tables met their class memo; the plain ones never did
    assert plain.class_memo == {}
    if name == "toy.gram":
        assert tables.class_memo
