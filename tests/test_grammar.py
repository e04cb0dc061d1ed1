"""Grammar file loading: formats, defaults, and every validation path."""

from __future__ import annotations

import pytest

from gapchart.grammar import GrammarError, parse_grammar
from gapchart.lf import LFApp, Placeholder, SAtom, SFunc
from gapchart.terms import Var, canonical


MINIMAL = """
# a tiny grammar
feature s agr
feature np agr

start s()
rule r1 : s(agr=A) -> np(agr=A)
lex it : np(agr=sg)
"""


def test_minimal_grammar_loads():
    g = parse_grammar(MINIMAL)
    assert [r.name for r in g.rules] == ["r1"]
    assert g.start.backbone == "s"
    assert list(g.lexicon) == ["it"]
    assert g.cd == frozenset()
    assert not g.has_sorts


def test_comments_and_blank_lines_ignored():
    g = parse_grammar("start s()\nrule r : s() ->\n\n  # comment\n")
    assert len(g.rules) == 1
    assert g.rules[0].rhs == ()


def test_arity_normalization_fills_missing_features_with_fresh_vars():
    g = parse_grammar(MINIMAL)
    entry = g.lexicon["it"][0]
    assert entry.cat.get("agr") == "sg"
    head = g.rules[0].head
    assert isinstance(head.get("agr"), Var)
    # start was written bare but the backbone declares agr
    assert isinstance(g.start.get("agr"), Var)


def test_line_scoped_variables_shared_within_rule():
    g = parse_grammar(MINIMAL)
    rule = g.rules[0]
    assert rule.head.get("agr") is rule.rhs[0].get("agr")


def test_anonymous_variable_always_fresh():
    g = parse_grammar(
        "feature np f g\nstart np()\nrule r : np(f=_, g=_) -> \n"
    )
    head = g.rules[0].head
    assert head.get("f") is not head.get("g")


def test_quoted_atoms_keep_quotes():
    g = parse_grammar(
        "start s()\nrule r : s() ->\nlex boston : s() -> 'BOSTON'\n"
    )
    lf = g.lexicon["boston"][0].lf
    assert lf == "'BOSTON'"


def test_lexical_lf_defaults_to_the_word():
    g = parse_grammar("start s()\nlex hi : s()\nrule r : s() ->\n")
    lf = g.lexicon["hi"][0].lf
    assert lf == "hi"


def test_nested_feature_terms_parse():
    text = (
        "feature np head\nfeature n num\n"
        "start np()\n"
        "rule r : np(head=n(num=N)) -> n(num=N)\n"
        "lex cat : n(num=sg)\n"
    )
    g = parse_grammar(text)
    head = g.rules[0].head.get("head")
    assert head.backbone == "n"
    assert head.get("num") is g.rules[0].rhs[0].get("num")


def test_sem_rule_with_placeholders_and_application():
    text = (
        "start s()\n"
        "rule r : s() -> s() s()\n"
        "sem r : [D2, D1]\n"
        "lex a : s()\n"
    )
    g = parse_grammar(text)
    sem = g.sem_rules["r"][0]
    assert isinstance(sem.template, LFApp)
    assert isinstance(sem.template.functor, Placeholder)
    assert sem.template.functor.index == 2
    assert sem.template.args == (Placeholder(1),)


def test_sem_rule_with_semterm_threading():
    text = (
        "feature sem idx\n"
        "start s()\n"
        "rule r : s() -> s() s()\n"
        "sem r : D1 with sem(idx=I) -> sem(idx=I) sem()\n"
        "lex a : s() with sem(idx=one)\n"
    )
    g = parse_grammar(text)
    sem = g.sem_rules["r"][0]
    assert sem.head_sem.get("idx") is sem.dsems[0].get("idx")
    assert g.lexicon["a"][0].semterm.get("idx") == "one"


def test_sort_expressions_parse_nested_and_curried():
    text = (
        "start s()\nrule r : s() ->\n"
        "lex f : s() -> f\n"
        "sort f : ( city -> ( airline -> prop ) )\n"
    )
    g = parse_grammar(text)
    (sort,) = g.sorts_of("f")
    assert isinstance(sort, SFunc)
    assert sort.args == (SAtom("city"),)
    assert isinstance(sort.res, SFunc)


def test_sort_multiple_args_comma_separated():
    text = (
        "start s()\nrule r : s() ->\n"
        "lex p : s() -> p\n"
        "sort p : ( fare_k, code_k -> code_k )\n"
    )
    g = parse_grammar(text)
    (sort,) = g.sorts_of("p")
    assert sort.args == (SAtom("fare_k"), SAtom("code_k"))
    assert sort.res == SAtom("code_k")


def test_disprefer_records_weight():
    text = (
        "start s()\nrule r : s() ->\nlex a : s()\n"
        "disprefer r 0.25\n"
    )
    g = parse_grammar(text)
    assert g.dispreferred == {"r": 0.25}


def _errors(text: str) -> list[str]:
    with pytest.raises(GrammarError) as info:
        parse_grammar(text)
    return info.value.errors


def test_missing_start_is_an_error():
    errs = _errors("rule r : s() ->\n")
    assert any("start" in e for e in errs)


def test_duplicate_rule_name_is_an_error():
    errs = _errors("start s()\nrule r : s() ->\nrule r : s() ->\n")
    assert any("line 3" in e and "r" in e for e in errs)


def test_duplicate_start_is_an_error():
    errs = _errors("start s()\nstart s()\nrule r : s() ->\n")
    assert any("line 2" in e for e in errs)


def test_undeclared_feature_is_an_error():
    errs = _errors("start s()\nrule r : s(agr=sg) ->\n")
    assert any("agr" in e for e in errs)


def test_restrict_requires_declared_feature():
    errs = _errors(
        "feature np agr\nstart np()\nrule r : np() ->\nrestrict np case\n"
    )
    assert any("case" in e for e in errs)


def test_sem_for_unknown_rule_is_an_error():
    errs = _errors("start s()\nrule r : s() ->\nsem nosuch : D1\n")
    assert any("nosuch" in e for e in errs)


def test_placeholder_beyond_arity_is_an_error():
    errs = _errors("start s()\nrule r : s() -> s()\nsem r : D2\n")
    assert any("D2" in e for e in errs)


def test_sem_with_wrong_daughter_count_is_an_error():
    errs = _errors(
        "start s()\nrule r : s() -> s()\n"
        "sem r : D1 with sem() -> sem() sem()\n"
    )
    assert errs


@pytest.mark.parametrize("weight", ["nan", "inf", "Infinity"])
def test_disprefer_non_finite_weight_is_an_error(weight):
    errs = _errors(f"start s()\nrule r : s() ->\nlex a : s()\ndisprefer r {weight}\n")
    assert errs == [f"line 4: bad weight {weight!r}"]


def test_disprefer_unknown_rule_is_an_error():
    errs = _errors("start s()\nrule r : s() ->\ndisprefer zap 1\n")
    assert any("zap" in e for e in errs)


def test_unknown_cd_backbone_is_an_error():
    errs = _errors("start s()\nrule r : s() ->\ncd ghost\n")
    assert any("ghost" in e for e in errs)


def test_sort_table_must_cover_all_atoms():
    text = (
        "start s()\nrule r : s() -> s() s()\nsem r : [D1, D2]\n"
        "lex a : s() -> alpha\nlex b : s() -> beta\n"
        "sort alpha : t\n"
    )
    errs = _errors(text)
    assert any("beta" in e for e in errs)


def test_multiple_errors_all_reported():
    errs = _errors("rule r : s() ->\nrule r : s() ->\nlex a : s(agr=sg)\n")
    assert len(errs) >= 3  # duplicate rule, undeclared feature, missing start


def test_lex_entries_accumulate_per_word():
    text = (
        "start s()\nrule r : s() ->\n"
        "lex bank : s() -> river_bank\nlex bank : s() -> money_bank\n"
    )
    g = parse_grammar(text)
    assert [canonical(e.lf) for e in g.lexicon["bank"]] == [
        "river_bank", "money_bank",
    ]


def test_bundled_grammars_expose_expected_shape(toy_grammar, sorts_grammar,
                                                fragments_grammar):
    assert len(toy_grammar.rules) == 8
    assert toy_grammar.cd == {"s_gap", "vp_gap", "np_gap"}
    assert canonical(toy_grammar.start) == "s(agr=_1)"
    assert sorts_grammar.has_sorts
    assert set(sorts_grammar.sort_table) >= {"fly", "serve", "land", "pilot"}
    assert len(sorts_grammar.sorts_of("fly")) == 3
    assert fragments_grammar.dispreferred == {"np_nn": 0.25}


def test_identifiers_starting_with_underscore_are_errors():
    # renders name variables _1, _2, ...: such an atom would render like one
    errs = _errors("feature s f\nstart s()\nrule r : s(f=_1) ->\n")
    assert any("line 3" in e and "'_1'" in e for e in errs)
    errs = _errors("start s()\nrule r : s() ->\nlex '_1' : s()\n")
    assert any("line 3" in e and "'_1'" in e for e in errs)
    parse_grammar("start s()\nrule r : s() ->\nlex '_1' : s() -> one\n")
