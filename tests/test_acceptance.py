"""Acceptance criteria for the parsing toolkit, one test per criterion.

Each test prints a single CRITERION line on success; under `pytest -v`
the per-test PASSED/FAILED verdicts give one line per criterion as well.
Derived expectations are checked against the independent oracles in
oracles.py; pinned values come from hand-worked charts and arithmetic
recorded in the bundled data files.
"""

from __future__ import annotations

from collections import Counter

import pytest

from gapchart.cli import main
from gapchart.data import path as data_path
from gapchart.engine import ConfigError, parse, tokenize
from gapchart.grammar import load_grammar
from gapchart.scoring import (
    Hypothesis,
    ScoreWeights,
    min_fragment_cover,
    nl_score,
    rescore,
)
from gapchart.tables import compile_tables
from gapchart.terms import canonical

from oracles import all_min_cost_tilings, exhaustive_min_cover_cost, \
    exhaustive_parse

STRATEGIES = ("bu", "lc", "llc")


def edge_signatures(result):
    return {
        (e.start, e.end, canonical(e.cat))
        for e in result.chart.live_edges()
    }


def test_criterion_01_strategies_find_identical_parses(toy_grammar, toy_corpus):
    """All three strategies yield the same complete parses, and the
    edge sets nest: lc within llc within bu."""
    for utt in toy_corpus:
        words = tokenize(utt)
        results = {s: parse(toy_grammar, words, strategy=s) for s in STRATEGIES}
        trees = {s: sorted(r.trees()) for s, r in results.items()}
        assert trees["bu"] == trees["lc"] == trees["llc"], utt
        sigs = {s: edge_signatures(r) for s, r in results.items()}
        assert sigs["lc"] <= sigs["llc"] <= sigs["bu"], utt
    print("CRITERION 1 PASS: identical parses across bu/lc/llc; "
          "edge sets nest lc <= llc <= bu")


def test_criterion_02_strict_work_orderings(toy_grammar, toy_corpus):
    """Corpus-total edge counts fall strictly bu > llc > lc, and
    prediction counts fall strictly lc > llc > bu = 0."""
    edges = Counter()
    preds = Counter()
    for utt in toy_corpus:
        for s in STRATEGIES:
            r = parse(toy_grammar, tokenize(utt), strategy=s)
            edges[s] += r.stats.edges
            preds[s] += r.stats.predictions
    assert edges["bu"] > edges["llc"] > edges["lc"]
    assert preds["lc"] > preds["llc"] > preds["bu"] == 0
    print(f"CRITERION 2 PASS: edges bu={edges['bu']} > llc={edges['llc']} "
          f"> lc={edges['lc']}; predictions lc={preds['lc']} > "
          f"llc={preds['llc']} > bu=0")


def test_criterion_03_prediction_suppresses_gap_edges(toy_grammar):
    """Without a licensing left context the llc strategy builds no
    context-dependent edges at all, while bu hypothesizes a gap at
    every position; with a relative clause llc builds exactly the
    three gap edges the analysis needs."""
    plain = tokenize("the pilot booked the flight")
    llc = parse(toy_grammar, plain)
    assert [e for e in llc.chart.live_edges()
            if e.backbone in llc.tables.cd] == []
    bu = parse(toy_grammar, plain, strategy="bu")
    gap_spans = sorted(
        (e.start, e.end) for e in bu.chart.live_edges()
        if e.backbone == "np_gap"
    )
    assert gap_spans == [(i, i) for i in range(6)]

    relative = parse(toy_grammar,
                     tokenize("the flight that the pilot booked lands"))
    cd = sorted(
        (e.start, e.end, e.backbone)
        for e in relative.chart.live_edges()
        if e.backbone in relative.tables.cd
    )
    assert cd == [(3, 6, "s_gap"), (5, 6, "vp_gap"), (6, 6, "np_gap")]
    assert relative.stats.complete == 1
    print("CRITERION 3 PASS: llc builds 0 gap edges on the plain sentence "
          "(bu builds 6) and exactly 3 on the relative clause")


def test_criterion_04_context_independent_completeness(toy_grammar,
                                                       toy_corpus):
    """Every context-independent edge bu finds, llc finds too: the
    prediction machinery only suppresses context-dependent analyses."""
    for utt in toy_corpus:
        words = tokenize(utt)
        bu = parse(toy_grammar, words, strategy="bu")
        llc = parse(toy_grammar, words)
        bu_ci = {
            (e.start, e.end, canonical(e.cat))
            for e in bu.chart.live_edges()
            if not e.backbone in llc.tables.cd
        }
        llc_all = edge_signatures(llc)
        assert bu_ci <= llc_all, utt
    print("CRITERION 4 PASS: bu's context-independent edges all present "
          "under llc on every corpus utterance")


def test_criterion_05_deferred_sorts_equivalent_and_cheaper(sorts_grammar,
                                                            sorts_corpus):
    """Deferred sort processing yields exactly the readings immediate
    checking yields, while creating strictly fewer edges overall."""
    total_imm = total_def = 0
    for utt in sorts_corpus:
        imm = parse(sorts_grammar, tokenize(utt), depth="sorts")
        dfr = parse(sorts_grammar, tokenize(utt), depth="deferred")
        assert sorted(r.render for r in imm.complete_readings()) == \
            sorted(r.render for r in dfr.complete_readings()), utt
        total_imm += imm.stats.edges
        total_def += dfr.stats.edges
    assert total_def < total_imm
    print(f"CRITERION 5 PASS: readings identical per utterance; edges "
          f"deferred={total_def} < immediate={total_imm}")


def test_criterion_06_sortal_pruning_depth_contrast(sorts_grammar):
    """An ill-sorted but grammatical utterance parses at the syntactic
    and semantic depths and is vetoed at both sort-checking depths."""
    words = tokenize("boston flies")
    by_depth = {
        depth: parse(sorts_grammar, words, depth=depth).stats.complete
        for depth in ("syn", "sem", "sorts", "deferred")
    }
    assert by_depth == {"syn": 1, "sem": 1, "sorts": 0, "deferred": 0}
    print("CRITERION 6 PASS: 'boston flies' completes at syn/sem "
          "and is sort-vetoed at sorts/deferred")


def test_criterion_07_packed_forest_matches_exhaustive_oracle(
        toy_grammar, ambig_grammar, toy_corpus, ambig_corpus):
    """Unpacking the forest enumerates exactly the trees a naive
    exhaustive parser finds, as multisets, over both corpora."""
    checked = 0
    for grammar, corpus in ((toy_grammar, toy_corpus),
                            (ambig_grammar, ambig_corpus)):
        for utt in corpus:
            words = tokenize(utt)
            mine = sorted(parse(grammar, words).trees())
            oracle = sorted(exhaustive_parse(grammar, words))
            assert mine == oracle, utt
            checked += 1
    print(f"CRITERION 7 PASS: tree multisets equal the exhaustive "
          f"oracle on all {checked} utterances")


def test_criterion_08_fragment_covers_optimal(fragments_grammar):
    """The fragment cover is cost-minimal per the exhaustive tiling
    oracle, and the two pinned utterances bracket as designed."""
    weights = ScoreWeights()
    cases = {
        "list flights of fare code of q":
            (2, "[list flights] [of fare code of q]"),
        "list flights of fare code a q":
            (4, "[list flights] [of fare code] [a] [q]"),
        "list flights": (1, "[list flights]"),
        "of q": (1, "[of q]"),
        "q of fare of": (None, None),
        "fare code": (None, None),
    }
    for utt, (count, bracketing) in cases.items():
        result = parse(fragments_grammar, tokenize(utt), depth="deferred",
                       robust=True)
        cover = min_fragment_cover(result, weights)
        got_cost = sum(arc.cost for arc in cover.arcs)
        assert got_cost == pytest.approx(
            exhaustive_min_cover_cost(result, weights)), utt
        cuts = tuple(arc.end for arc in cover.arcs)
        assert cuts in {c for c, _ in all_min_cost_tilings(result, weights)}
        if count is not None:
            assert cover.count == count, utt
            assert cover.bracketing() == bracketing, utt
    print("CRITERION 8 PASS: covers cost-minimal vs exhaustive tiling; "
          "pinned bracketings reproduced (2 and 4 fragments)")


def test_criterion_09_rescoring_identity_and_flip(fragments_grammar):
    """With scale 0 the recognizer order is preserved; with the default
    scale the utt1 hypotheses flip (their crossover sits at 0.5) and
    the utt2 order is unchanged."""
    groups = {
        "utt1": [
            Hypothesis("utt1", 1, -100.0,
                       tuple(tokenize("list flights of fare code a q"))),
            Hypothesis("utt1", 2, -101.0,
                       tuple(tokenize("list flights of fare code of q"))),
        ],
        "utt2": [
            Hypothesis("utt2", 1, -10.0, tuple(tokenize("list flights"))),
            Hypothesis("utt2", 2, -12.0, tuple(tokenize("of q"))),
        ],
    }
    identity = rescore(fragments_grammar, groups, ScoreWeights(scale=0.0))
    for row in identity:
        original = next(h for h in groups[row.utt]
                        if tuple(row.words) == h.words)
        assert row.new_rank == original.rank

    # the analytic crossover: rec1 + s*nl1 = rec2 + s*nl2  =>  s = 0.5
    nl = {}
    for utt, hyps in groups.items():
        for h in hyps:
            r = parse(fragments_grammar, list(h.words), depth="deferred",
                      robust=True)
            nl[h.words] = nl_score(min_fragment_cover(r, ScoreWeights()),
                                   ScoreWeights())
    h1, h2 = groups["utt1"]
    crossover = (h1.rec - h2.rec) / (nl[h2.words] - nl[h1.words])
    assert crossover == pytest.approx(0.5)

    default = rescore(fragments_grammar, groups, ScoreWeights())
    top = {r.utt: " ".join(r.words) for r in default if r.new_rank == 1}
    assert top["utt1"] == "list flights of fare code of q"  # flipped
    assert top["utt2"] == "list flights"                    # unchanged
    print("CRITERION 9 PASS: scale 0 preserves recognizer order; default "
          "scale flips utt1 (crossover at 0.5) and keeps utt2")


def test_criterion_10_closure_validation(capsys):
    """A context-dependent set that is not closed under
    possible-left-corner-of is reported and refused."""
    bad = data_path("bad_closure.gram")
    code = main(["validate", bad])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == ["closure\tx begins y"]

    grammar = load_grammar(bad)
    tables = compile_tables(grammar, "llc")
    assert tables.closure_violations == [("x", "y")]
    with pytest.raises(ConfigError) as info:
        parse(grammar, ["w"])
    assert "x begins y" in str(info.value)
    print("CRITERION 10 PASS: unclosed cd set exits 2 from validate, "
          "lists ('x','y'), and parse refuses with the same message")
