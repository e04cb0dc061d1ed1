"""Golden grammar loads: what `parse_grammar` builds, and what it rejects.

`tests/golden/loader.json` holds two things:

* `grammars`: a canonical dump of each bundled grammar, of
  `tests/golden/bind.gram` and of `fragments.gram` plus the benchmark's
  `bench/rescore_ext.gram` (read only). The dump lists every declaration
  with its line number, every term with its variables named by hint and
  first occurrence over the whole grammar (so a variable shared where it
  should not be, or a hint that changes, shows), and each rule's
  daughters as compiled.
* `errors`: the exact `GrammarError.errors` of one malformed grammar
  for each message the loader can give.

After an intended change, rewrite the file with

    PYTHONPATH=src python tests/test_loader_golden.py

and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gapchart.data import read_text
from gapchart.grammar import Grammar, GrammarError, parse_grammar
from gapchart.terms import Node, Var

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "loader.json"


def grammar_texts() -> dict[str, str]:
    """The grammars the dump covers, by name."""
    texts = {name: read_text(name) for name in
             ("ambig.gram", "bad_closure.gram", "fragments.gram", "sorts.gram", "toy.gram")}
    texts["bind.gram"] = (ROOT / "tests" / "golden" / "bind.gram").read_text(encoding="utf-8")
    texts["fragments.gram+rescore_ext.gram"] = (
        texts["fragments.gram"]
        + (ROOT / "bench" / "rescore_ext.gram").read_text(encoding="utf-8"))
    return texts


def _show(value: object, names: dict[Var, str]) -> str:
    if isinstance(value, Var):
        got = names.get(value)
        if got is None:
            got = names[value] = f"{value.hint}/{len(names) + 1}"
        return got
    if isinstance(value, Node):
        return value.show(_show, names)
    if isinstance(value, str):
        return value
    return f"{type(value).__name__}:{value!r}"


def dump(grammar: Grammar) -> list[str]:
    """One line per declaration, in a fixed order."""
    names: dict[Var, str] = {}

    def show(*values: object) -> str:
        return " ".join(_show(v, names) for v in values)

    out = [f"feature {b} {' '.join(fs)}" for b, fs in grammar.features.items()]
    out.append(f"start {show(grammar.start)}")
    out.append(f"cd {' '.join(sorted(grammar.cd))}")
    out.append(f"restrict {json.dumps(grammar.restrictor.trees, sort_keys=True)}")
    for r in grammar.rules:
        out.append(f"rule {r.name} line {r.line} : {show(r.head)} -> {show(*r.rhs)}"
                   f" | compiled {show(*r.compiled_rhs)}")
    for word, entries in grammar.lexicon.items():
        for e in entries:
            out.append(f"lex {word} ({e.word}) : {show(e.cat)} -> {show(e.lf)}"
                       f" with {show(e.semterm)}")
    for name, sems in grammar.sem_rules.items():
        for s in sems:
            dsems = "none" if s.dsems is None else show(*s.dsems)
            head = "none" if s.head_sem is None else show(s.head_sem)
            out.append(f"sem {name} ({s.rule_name}) line {s.line} : {show(s.template)}"
                       f" with {head} -> {dsems}")
    for atom, sorts in grammar.sort_table.items():
        out.append(f"sort {atom} : {show(*sorts)}")
    for name, weight in grammar.dispreferred.items():
        out.append(f"disprefer {name} {weight!r}")
    return out


_OK = "start s()\nrule r : s() ->\n"

# one malformed grammar for each message the loader can give
ERROR_CASES: dict[str, str] = {
    "expected_token": _OK + "rule q s() ->\n",
    "expected_token_at_end": _OK + "rule q\n",
    "expected_category": "start S\nrule r : s() ->\n",
    "expected_feature_name": "feature s f\nstart s(=u)\nrule r : s() ->\n",
    "expected_comma_or_paren": "feature s f g\nstart s(f=u g=v)\nrule r : s() ->\n",
    "undeclared_feature": "start s(f=u)\nrule r : s() ->\n",
    "expected_feature_value_at_end": "feature s f\nstart s()\nrule r : s(f=\n",
    "expected_feature_value": "feature s f\nstart s(f=,)\nrule r : s() ->\n",
    "expected_lf_at_end": _OK + "lex x : s() ->\n",
    "expected_comma_or_bracket": _OK + "lex x : s() -> [f a]\n",
    "empty_application": _OK + "lex x : s() -> []\n",
    "placeholder_not_allowed": _OK + "lex x : s() -> D1\n",
    "expected_lf": _OK + "lex x : s() -> (\n",
    "expected_sort_at_end": _OK + "sort a :\n",
    "expected_sort": _OK + "sort a : X\n",
    "expected_arrow_in_sort": _OK + "sort a : (e f)\n",
    "expected_close_in_sort": _OK + "sort a : (e -> f g\n",
    "feature_needs_backbone": _OK + "feature\n",
    "duplicate_feature_declaration": "feature s f\nfeature s g\n" + _OK,
    "bad_feature_name": "feature s F\n" + _OK,
    "no_features": "feature s\n" + _OK,
    "leading_underscore": _OK + "lex x : s() -> _x\n",
    "duplicate_start": _OK + "start s()\n",
    "start_trailing": "start s() junk\nrule r : s() ->\n",
    "bad_cd_symbol": _OK + "cd S\n",
    "restrict_needs_backbone": _OK + "restrict\n",
    "restricted_feature_undeclared": _OK + "restrict s f\n",
    "restrict_no_paths": _OK + "restrict s\n",
    "rule_needs_name": _OK + "rule\n",
    "duplicate_rule_name": _OK + "rule r : s() ->\n",
    "lex_needs_word": _OK + "lex\n",
    "lex_trailing": _OK + "lex x : s() y\n",
    "lex_word_with_space": _OK + "lex 'new york' : s()\n",
    "lex_word_empty": _OK + "lex '' : s()\n",
    "word_needs_lf": _OK + "lex '_x' : s()\n",
    "sem_needs_name": _OK + "sem\n",
    "sem_trailing": _OK + "sem r : a b\n",
    "sort_needs_atom": _OK + "sort\n",
    "sort_trailing": _OK + "sort a : e f\n",
    "disprefer_needs_name": _OK + "disprefer\n",
    "bad_weight": _OK + "disprefer r heavy\n",
    "disprefer_trailing": _OK + "disprefer r 1 2\n",
    "unknown_line_kind": _OK + "word x\n",
    "no_start": "rule r : s() ->\n",
    "sem_unknown_rule": _OK + "sem q : a\n",
    "placeholder_beyond_daughters": _OK + "sem r : D1\n",
    "with_clause_count": "feature sem i\n" + _OK + "sem r : a with sem() -> sem()\n",
    "disprefer_unknown_rule": _OK + "disprefer q\n",
    "cd_unknown_backbone": _OK + "cd q\n",
    "atom_without_sort": _OK + "lex x : s() -> b\nsort a : e\n",
    "feature_declared_twice": "feature a f f\n" + _OK + "lex x : a(f=u)\n",
    "feature_given_twice": "feature a f\n" + _OK + "rule q : s() -> a(f=u, f=v)\n",
}


def error_list(text: str) -> list[str]:
    try:
        parse_grammar(text)
    except GrammarError as exc:
        return exc.errors
    return []


def build() -> dict:
    return {
        "grammars": {name: dump(parse_grammar(text))
                     for name, text in grammar_texts().items()},
        "errors": {name: error_list(text) for name, text in ERROR_CASES.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(grammar_texts()))
def test_grammar_dump_matches_golden(golden, name):
    assert dump(parse_grammar(grammar_texts()[name])) == golden["grammars"][name]


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_errors_match_golden(golden, name):
    errors = error_list(ERROR_CASES[name])
    assert errors, name
    assert errors == golden["errors"][name]


def test_every_golden_entry_has_a_case(golden):
    assert set(golden["grammars"]) == set(grammar_texts())
    assert set(golden["errors"]) == set(ERROR_CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=1) + "\n", encoding="utf-8")
