"""Interleaved semantics: logical forms, sort checking, and deferral."""

from __future__ import annotations

import pytest

from gapchart.data import read_text
from gapchart.engine import parse, tokenize
from gapchart.grammar import parse_grammar
from gapchart.terms import canonical
from oracles import tree_lfs


def renders(result):
    return sorted(r.render for r in result.complete_readings())


def test_sem_depth_composes_logical_forms(sorts_grammar):
    r = parse(sorts_grammar, tokenize("the pilot flies"), depth="sem")
    assert renders(r) == ["sem() :: [fly,pilot]"]


def test_sem_depth_ignores_sorts(sorts_grammar):
    r = parse(sorts_grammar, tokenize("boston flies"), depth="sem")
    assert renders(r) == ["sem() :: [fly,'BOSTON']"]
    assert r.stats.complete == 1


def test_sort_checking_vetoes_ill_sorted_parse(sorts_grammar):
    for depth in ("sorts", "deferred"):
        r = parse(sorts_grammar, tokenize("boston flies"), depth=depth)
        assert r.stats.complete == 0, depth
        assert renders(r) == []


def test_veto_emits_trace_events(sorts_grammar):
    events = []
    parse(sorts_grammar, tokenize("boston flies"), depth="sorts",
          trace=events.append)
    vetoes = [e for e in events if e.startswith("REJECT\tveto")]
    assert vetoes and all("s1" in v for v in vetoes)


LEXICAL_VETO = """
start s()
rule r : s() -> w()
sem r : D1
lex bad : w() -> [f, a]
lex good : w() -> [f, b]
sort f : (e -> t)
sort a : t
sort b : e
"""


def test_an_ill_sorted_lexical_entry_builds_no_edge():
    g = parse_grammar(LEXICAL_VETO)
    for depth in ("sorts", "deferred"):
        events = []
        r = parse(g, ["bad"], depth=depth, trace=events.append)
        assert r.chart.edges == [], depth
        assert "REJECT\tveto\tlex:bad\t0\t1" in events, depth
        assert parse(g, ["good"], depth=depth).trees() == ["(r good)"], depth
    # `sem` checks no sorts, so the entry gets its lexical edge
    assert parse(g, ["bad"], depth="sem").trees() == ["(r bad)"]


def test_immediate_sort_checking_splits_edges(sorts_grammar):
    r = parse(sorts_grammar, tokenize("the pilot flies"), depth="sorts")
    v_edges = [e for e in r.chart.edges if e.backbone == "v"]
    assert len(v_edges) == 3  # one per sort of "fly"
    assert r.stats.edges == 10


def test_deferred_carries_candidate_set_on_one_edge(sorts_grammar):
    r = parse(sorts_grammar, tokenize("the pilot flies"), depth="deferred")
    v_edges = [e for e in r.chart.edges if e.backbone == "v"]
    assert len(v_edges) == 1
    assert r.stats.edges == 6
    reading = v_edges[0].reading
    (assignment,) = reading.deferred
    assert assignment.atom == "fly"
    assert len(assignment.candidates) == 3
    assert "? fly(_1) in" in reading.render


def test_context_commits_deferred_assignment(sorts_grammar):
    r = parse(sorts_grammar, tokenize("the pilot flies"), depth="deferred")
    expected = "sem() :: ([(fly;(([person])->[prop])),(pilot;[person])];[prop])"
    assert renders(r) == [expected]
    # the committed reading matches immediate mode exactly
    ri = parse(sorts_grammar, tokenize("the pilot flies"), depth="sorts")
    assert renders(ri) == [expected]


def test_deferred_equals_immediate_across_corpus(sorts_grammar, sorts_corpus):
    for utt in sorts_corpus:
        a = parse(sorts_grammar, tokenize(utt), depth="sorts")
        b = parse(sorts_grammar, tokenize(utt), depth="deferred")
        assert renders(a) == renders(b), utt


def test_deferred_builds_fewer_edges_overall(sorts_grammar, sorts_corpus):
    total_imm = total_def = 0
    for utt in sorts_corpus:
        total_imm += parse(sorts_grammar, tokenize(utt), depth="sorts").stats.edges
        total_def += parse(sorts_grammar, tokenize(utt), depth="deferred").stats.edges
    assert total_def < total_imm


def test_curried_function_sorts_apply_stepwise(sorts_grammar):
    good = parse(sorts_grammar, tokenize("united serves boston"),
                 depth="deferred")
    assert good.stats.complete == 1
    (reading,) = good.complete_readings()
    assert reading.render == (
        "sem() :: ([([(serve;(([city])->(([airline])->[prop])))"
        ",('BOSTON';[city])];(([airline])->[prop])),('UNITED';[airline])];[prop])"
    )
    # swapping the arguments breaks both application steps
    bad = parse(sorts_grammar, tokenize("boston serves united"),
                depth="deferred")
    assert bad.stats.complete == 0
    # a person subject fails the second application
    worse = parse(sorts_grammar, tokenize("the pilot serves boston"),
                  depth="deferred")
    assert worse.stats.complete == 0


def test_rule_without_sem_line_vetoes_at_sem_depth(toy_grammar):
    r = parse(toy_grammar, tokenize("the pilots land"), depth="sem")
    assert r.stats.complete == 0


AMBIGUOUS_BOTH_WAYS = """
start s()
rule app : s() -> f() x()
sem app : [D1, D2]
lex f : f() -> ff
lex x : x() -> xx
sort ff : ( aa -> pp )
sort ff : ( bb -> pp )
sort xx : aa
sort xx : bb
"""


def test_two_joint_solutions_survive_deferral():
    g = parse_grammar(AMBIGUOUS_BOTH_WAYS)
    imm = parse(g, ["f", "x"], depth="sorts")
    def_ = parse(g, ["f", "x"], depth="deferred")
    assert len(renders(imm)) == 2
    assert renders(imm) == renders(def_)
    # immediate mode pays for the ambiguity in edges
    assert def_.stats.edges < imm.stats.edges


SEM_FEATURES = """
feature sem idx
start s()
rule r : s() -> w()
sem r : D1
lex k : w() -> lfa with sem(idx=a)
lex k : w() -> lfb with sem(idx=b)
"""


def test_reading_renders_key_the_packing():
    g = parse_grammar(SEM_FEATURES)
    syn = parse(g, ["k"], depth="syn")
    sem = parse(g, ["k"], depth="sem")
    assert len([e for e in syn.chart.edges if e.backbone == "w"]) == 1
    assert len([e for e in sem.chart.edges if e.backbone == "w"]) == 2
    # without a with-clause the head's semantic term is fresh, so the
    # two s readings differ only in their logical forms: two edges
    assert renders(sem) == ["sem(idx=_1) :: lfa", "sem(idx=_1) :: lfb"]
    s_edges = [e for e in sem.chart.edges if e.backbone == "s"]
    assert sorted(e.reading.render for e in s_edges) == renders(sem)
    assert sem.trees() == ["(r k)", "(r k)"]


SEM_THREADING = """
feature sem idx
start s()
rule pair : s() -> w() w()
sem pair : [D1, D2] with sem(idx=I) -> sem(idx=I) sem(idx=I)
lex k : w() -> lfa with sem(idx=a)
lex m : w() -> lfb with sem(idx=b)
"""


def test_with_clause_unifies_daughter_semterms():
    g = parse_grammar(SEM_THREADING)
    # both daughters demand the same idx; k+k works, k+m cannot
    assert parse(g, ["k", "k"], depth="sem").stats.complete == 1
    assert parse(g, ["k", "m"], depth="sem").stats.complete == 0
    (reading,) = parse(g, ["k", "k"], depth="sem").complete_readings()
    assert reading.render == "sem(idx=a) :: [lfa,lfa]"


SEM_NESTED = """
feature sem idx
feature c k
start s()
rule s1 : s() -> np() vp()
sem s1 : [D2, D1] with sem() -> sem(idx=c(k=K)) sem()
lex bob : np() -> X with sem(idx=X)
lex runs : vp() -> run
sort run : (thing -> prop)
"""


def test_lf_variable_bound_to_a_term_renders_canonically():
    # the subject's LF variable is bound to a nested feature term; its
    # render must number that term's variables like any other, or equal
    # analyses get different packing keys
    g = parse_grammar(SEM_NESTED)
    for depth in ("sem", "sorts", "deferred"):
        first = renders(parse(g, ["bob", "runs"], depth=depth))
        assert first == renders(parse(g, ["bob", "runs"], depth=depth)), depth
        (render,) = first
        assert "#" not in render and "c(k=_2)" in render, (depth, render)
    assert first == ["sem(idx=_1) :: ([(run;(([thing])->[prop])),(c(k=_2);[thing])];[prop])"]


SEM_NESTED_IN_PHRASE = """
feature sem idx
feature c k
start t()
rule top : t() -> s()
rule s1 : s() -> np() vp()
sem top : [say, D1]
sem s1 : [D2, D1] with sem() -> sem(idx=c(k=K)) sem()
lex bob : np() -> X with sem(idx=X)
lex runs : vp() -> run
sort run : (thing -> prop)
sort say : (prop -> prop)
sort c : thing
"""


def test_lf_variable_bound_to_a_term_inside_a_larger_phrase():
    # above s1 the subject's LF is the feature term itself, which the
    # sort network must take as an unconstrained leaf
    g = parse_grammar(SEM_NESTED_IN_PHRASE)
    results = {depth: parse(g, ["bob", "runs"], depth=depth)
               for depth in ("syn", "sem", "sorts", "deferred")}
    for depth, result in results.items():
        assert result.trees() == ["(top (s1 bob runs))"], depth
    assert renders(results["sem"]) == ["sem(idx=_1) :: [say,[run,c(k=_2)]]"]
    assert len(renders(results["sorts"])) == 1
    assert renders(results["deferred"]) == renders(results["sorts"])


DROPPED_DAUGHTER = """
start s()
rule r : s() -> p() q()
rule k : s() -> q() p()
sem r : [f, D1]
sem k : D2
lex x : p() -> x
lex y : q() -> y
sort f : (e -> t)
sort x : e
sort x : t
sort y : e
sort y : t
"""


def test_a_dropped_daughter_leaves_no_open_choice_behind():
    # `r` drops y and `k` drops y too; x's own choice stays open under
    # `k`, whose reading is x itself, and is settled by f under `r`
    g = parse_grammar(DROPPED_DAUGHTER)
    for words in (["x", "y"], ["y", "x"]):
        sorts = parse(g, words, depth="sorts")
        deferred = parse(g, words, depth="deferred")
        assert renders(deferred) == renders(sorts)
        assert [e.reading.render for e in deferred.complete_edges()] == [
            "sem() :: ([(f;(([e])->[t])),(x;[e])];[t])" if words[0] == "x"
            else "sem() :: (x;_1) ? x(_1) in {[e],[t]}"
        ]


# ambig.gram with a template per rule that keeps every daughter, so
# each tree has its own logical form
AMBIG_SEM = """
sem vp_v : [D1, D2]
sem vp_pp : [D2, D1]
sem np_pp : [D2, D1]
sem pp_p : [D1, D2]
sem s_nv : [D2, D1]
sem np_dn : D2
"""
ATTACHMENTS = [
    ("ambig.gram", AMBIG_SEM, "the man saw the dog with the telescope", 2),
    ("ambig.gram", AMBIG_SEM, "the man saw the dog with the telescope in the park", 5),
    # an n-best hypothesis of the bundled rescoring data
    ("fragments.gram", "", "list flights of fare code of q", 2),
]


@pytest.mark.parametrize("strategy", ("bu", "llc", "lc"))
def test_every_tree_of_an_attachment_ambiguity_has_its_reading_at_sem(strategy):
    for name, extra, utt, n in ATTACHMENTS:
        g = parse_grammar(read_text(name) + extra)
        result = parse(g, tokenize(utt), strategy=strategy, depth="sem")
        lfs = set().union(*[tree_lfs(g, t) for t in set(result.trees())])
        assert len(lfs) == n, utt
        assert sorted(canonical(r.lf) for r in result.complete_readings()) == sorted(lfs), utt
