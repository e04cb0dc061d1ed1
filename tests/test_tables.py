"""Compile-time analysis tables, cross-checked against naive oracles."""

from __future__ import annotations

import pytest

from gapchart.grammar import parse_grammar
from gapchart.tables import STRATEGIES, compile_tables
from gapchart.terms import canonical_seq

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
    assert elem.feature_names() == ("agr",)


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
    b_triggers = {(r.name, pos) for r, pos in tables.reduction_triggers["b"]}
    assert ("top", 0) in b_triggers
    c_triggers = {(r.name, pos) for r, pos in tables.reduction_triggers["c"]}
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
    a_triggers = {(r.name, pos) for r, pos in tables.reduction_triggers.get("a", ())}
    assert ("top", 0) not in a_triggers  # b after a is not nullable
    assert ("top", 1) in {
        (r.name, pos) for r, pos in tables.reduction_triggers["b"]
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
