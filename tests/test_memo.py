"""Semantic work shared through the compiled tables.

Tables memoise lexical instances and reading combinations, and every
use puts renamed copies into the chart. A grammar keeps one set
of tables per strategy for the parses that pass none. These tests check
the invariant that makes the memo's keys sound (no two readings of one
chart share a variable), that tables which have already parsed a
corpus give the same results as fresh ones, that the grammar's tables
are compiled once and shared by every `rescore` call, that rescoring,
whose parses resume from each other, gives the rows of fresh parses in
any hypothesis order, and that the memo stays within its bound by
evicting its least recently used entries. The class memo of the
compiled rules stays within the same bound by keeping what it holds
once it is full, and tables whose class memo is full parse as fresh
ones do.
"""

from __future__ import annotations

import re

import pytest

from gapchart import engine
from gapchart.data import path as data_path, read_text
from gapchart.engine import MEMO_LIMIT, parse, tokenize
from gapchart.grammar import load_grammar, parse_grammar
from gapchart.scoring import Hypothesis, min_fragment_cover, nl_score, read_nbest, rescore
from gapchart.tables import compile_tables
from gapchart.terms import Var, canonical, leaves

SEM_DEPTHS = ("sem", "sorts", "deferred")

# a sem rule whose template adds a sort ambiguity over an unambiguous
# daughter: `sorts` and `deferred` combine the same daughter readings
# into different readings, so one set of tables must keep them apart
TEMPLATE_SORTS = """
start s()
rule s1 : s() -> np() vp()
rule vp_i : vp() -> v()
rule np_p : np() -> pn()
sem s1 : [D2, D1]
sem vp_i : [often, D1]
sem np_p : D1
lex bob : pn() -> bob
lex runs : v() -> run
sort bob : person
sort run : (person -> prop)
sort often : ((person -> prop) -> (person -> prop))
sort often : ((person -> prop) -> (person -> event))
"""

GRAMMARS = {
    **{name: load_grammar(data_path(name))
       for name in ("toy.gram", "sorts.gram", "ambig.gram", "fragments.gram")},
    "template_sorts": parse_grammar(TEMPLATE_SORTS),
}


@pytest.fixture(scope="module")
def utterances(toy_corpus, sorts_corpus, ambig_corpus) -> list[str]:
    """Every bundled utterance; each grammar parses all of them robustly."""
    nbest = [" ".join(h.words) for hyps in read_nbest(data_path("nbest.tsv")).values()
             for h in hyps]
    return [*toy_corpus, *sorts_corpus, *ambig_corpus, *nbest, "bob runs"]


def _depths(grammar) -> tuple[str, ...]:
    return SEM_DEPTHS if grammar.has_sorts else ("sem",)


def _parse(grammar, utt: str, depth: str, tables):
    return parse(grammar, tokenize(utt), depth=depth, robust=True, tables=tables)


def _reading_vars(reading) -> set[Var]:
    values = [reading.lf, reading.semterm]
    for a in reading.deferred:
        values += [a.slot, *a.candidates]
    return {v for value in values for v in leaves(value) if isinstance(v, Var)}


def _shared_vars(result) -> list[Var]:
    """Variables that occur in more than one reading of the chart."""
    owner: dict[Var, int] = {}
    shared = []
    for edge in result.chart.edges:
        if edge.reading is not None:
            for v in _reading_vars(edge.reading):
                if owner.setdefault(v, edge.id) != edge.id:
                    shared.append(v)
    return shared


def _snapshot(result) -> tuple:
    return (
        result.chart.dump(),
        result.stats,
        result.trees(7),
        [None if e.reading is None else e.reading.render for e in result.chart.edges],
        [r.render for r in result.complete_readings()],
    )


@pytest.mark.parametrize("name", GRAMMARS)
def test_no_two_readings_of_a_chart_share_a_variable(name, utterances):
    grammar = GRAMMARS[name]
    tables = compile_tables(grammar, "llc")
    for depth in _depths(grammar):
        for utt in utterances:
            assert _shared_vars(_parse(grammar, utt, depth, tables)) == [], (depth, utt)


def test_deferred_phrase_does_not_share_its_daughters_slot(sorts_grammar):
    # the vp's deferred `fly` assignment is a copy, not the v edge's own
    result = parse(sorts_grammar, tokenize("the pilot flies"), depth="deferred")
    vp = [e for e in result.chart.edges if e.backbone == "vp"]
    assert vp and all(e.reading.deferred for e in vp)
    assert _shared_vars(result) == []


@pytest.mark.parametrize("name", GRAMMARS)
def test_warm_tables_give_the_results_of_cold_tables(name, utterances):
    grammar = GRAMMARS[name]
    warm = compile_tables(grammar, "llc")
    for depth in _depths(grammar):
        for utt in utterances:
            _parse(grammar, utt, depth, warm)
    assert warm.memo
    for depth in _depths(grammar):
        for utt in utterances:
            cold = compile_tables(grammar, "llc")
            assert (_snapshot(_parse(grammar, utt, depth, warm))
                    == _snapshot(_parse(grammar, utt, depth, cold))), (depth, utt)


# every way two hypotheses of a list can share a word prefix: one is a
# prefix of another, a deletion, a substitution at word 0, and an
# unknown word inside the shared prefix
PREFIX_LIST = ("the pilot serves boston", "the pilot serves", "the serves boston",
               "united pilot serves boston", "the uh pilot serves boston",
               "the uh pilot lands")


def _hypotheses(utt: str, utterances) -> dict[str, list[Hypothesis]]:
    return {utt: [Hypothesis(utt, i, -float(i), tuple(tokenize(u)))
                  for i, u in enumerate(utterances, 1)]}


def _rescored(grammar, groups, depth, strategy):
    return {(r.utt, r.words): (r.nl, r.fragments, r.is_sentence)
            for r in rescore(grammar, groups, depth=depth, strategy=strategy)}


def _parsed_afresh(grammar, groups, depth, strategy):
    """What `_rescored` gives, from a fresh parse of every hypothesis."""
    out = {}
    for utt, hyps in groups.items():
        for hyp in hyps:
            cover = min_fragment_cover(parse(grammar, list(hyp.words), strategy=strategy,
                                             depth=depth, robust=True))
            out[(utt, hyp.words)] = (nl_score(cover), cover.count, cover.is_single_sentence)
    return out


@pytest.mark.parametrize("depth", ("syn", *SEM_DEPTHS))
def test_rescoring_does_not_depend_on_hypothesis_order(sorts_grammar, fragments_grammar,
                                                       utterances, depth):
    cases = [
        (fragments_grammar, read_nbest(data_path("nbest.tsv"))),
        (sorts_grammar, _hypotheses("all", utterances)),
        (sorts_grammar, _hypotheses("prefixes", PREFIX_LIST)),
    ]
    for grammar, groups in cases:
        reversed_groups = {utt: hyps[::-1] for utt, hyps in groups.items()}
        # `lc` predicts on every grammar, so its parses resume a word earlier
        for strategy in ("llc", "lc"):
            fresh = _parsed_afresh(grammar, groups, depth, strategy)
            assert _rescored(grammar, groups, depth, strategy) == fresh
            assert _rescored(grammar, reversed_groups, depth, strategy) == fresh


def _noun_grammar(nouns):
    """sorts.gram plus one noun per number, each bringing its own
    lexical instance and combinations."""
    return parse_grammar(read_text("sorts.gram") + "".join(
        f"lex noun{i} : n() -> thing{i}\nsort thing{i} : person\n" for i in nouns))


def _noun_of(key) -> int | None:
    """The noun a memo key belongs to; None for a key every utterance
    uses (the words "the" and "flies", the verb phrase)."""
    found = re.search(r"(?:noun|thing)(\d+)", repr(key))
    return int(found[1]) if found else None


def test_memo_stays_within_its_bound():
    nouns = range(MEMO_LIMIT // 2)
    grammar = _noun_grammar(nouns)
    tables = compile_tables(grammar, "llc")
    utterances = [f"the noun{i} flies" for i in nouns]
    sizes = []
    evictions = 0
    for utt in utterances:
        for depth in SEM_DEPTHS:
            before = list(tables.memo)
            _parse(grammar, utt, depth, tables)
            sizes.append(len(tables.memo))
            evicted = set(before) - set(tables.memo)
            if not evicted:
                continue
            evictions += 1
            # the keys every utterance touches are never the oldest; the
            # evicted ones belong to the earliest nouns still held
            assert all(_noun_of(k) is not None for k in evicted), utt
            held = [_noun_of(k) for k in tables.memo if _noun_of(k) is not None]
            assert max(map(_noun_of, evicted)) <= min(held), utt
    assert max(sizes) == MEMO_LIMIT
    assert sizes[-1] == MEMO_LIMIT and evictions > 0
    for utt in utterances[::7]:
        for depth in SEM_DEPTHS:
            cold = compile_tables(grammar, "llc")
            assert (_snapshot(_parse(grammar, utt, depth, tables))
                    == _snapshot(_parse(grammar, utt, depth, cold))), utt


# each `grow` step nests the `f` value one level deeper, so an input of
# n words gives edges of n variant classes, and keys of the class memo
GROW = """
feature a f
feature g k
start a()
rule grow : a(f=g(k=X)) -> a(f=X) b()
lex x : a()
lex y : b()
"""


@pytest.mark.parametrize("strategy", ("bu", "lc"))
def test_class_memo_keeps_what_it_holds_once_full(strategy):
    grammar = parse_grammar(GROW)
    tables = compile_tables(grammar, strategy)
    for n in (1, MEMO_LIMIT // 2, MEMO_LIMIT + 40):
        _parse(grammar, " ".join(["x"] + ["y"] * n), "syn", tables)
        # the memo only ever grows, so its size now bounds every earlier one
        assert len(tables.class_memo) <= MEMO_LIMIT
    assert len(tables.class_memo) == MEMO_LIMIT
    held = list(tables.class_memo.items())
    utt = " ".join(["x"] + ["y"] * (MEMO_LIMIT + 20))
    full = _snapshot(_parse(grammar, utt, "syn", tables))
    assert list(tables.class_memo.items()) == held
    assert full == _snapshot(_parse(grammar, utt, "syn", compile_tables(grammar, strategy)))


def _count_semantic_work(monkeypatch) -> list[int]:
    """Count the memo's misses: the engine's calls of `combine_readings`
    and `lexical_instance`."""
    calls = [0]

    def counting(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    for name in ("combine_readings", "lexical_instance"):
        monkeypatch.setattr(engine, name, counting(getattr(engine, name)))
    return calls


def test_an_entry_used_just_before_the_memo_fills_survives_eviction(monkeypatch):
    nouns = range(MEMO_LIMIT // 2)
    grammar = _noun_grammar(nouns)
    tables = compile_tables(grammar, "llc")
    misses = _count_semantic_work(monkeypatch)
    kept, dropped = "the noun0 flies", "the noun1 flies"
    for i in nouns:
        if len(tables.memo) >= MEMO_LIMIT - 8:
            break
        _parse(grammar, f"the noun{i} flies", "sorts", tables)
    _parse(grammar, kept, "sorts", tables)
    # fill the memo and evict a few entries
    for j in range(i, i + 8):
        _parse(grammar, f"the noun{j} flies", "sorts", tables)
    assert len(tables.memo) == MEMO_LIMIT
    misses[0] = 0
    _parse(grammar, kept, "sorts", tables)
    assert misses[0] == 0
    _parse(grammar, dropped, "sorts", tables)
    assert misses[0] > 0


def test_parses_without_tables_compile_once_per_grammar_and_strategy(monkeypatch):
    compiled = []

    def counting(grammar, strategy):
        compiled.append((id(grammar), strategy))
        return compile_tables(grammar, strategy)

    monkeypatch.setattr(engine, "compile_tables", counting)
    grammars = [load_grammar(data_path("toy.gram")) for _ in range(2)]
    for grammar in grammars:
        for strategy in ("bu", "llc", "bu", "llc"):
            for depth in ("syn", "sem"):
                parse(grammar, tokenize("the pilot booked the flight"), strategy=strategy,
                      depth=depth)
    assert sorted(compiled) == sorted(
        (id(g), s) for g in grammars for s in ("bu", "llc"))
    assert all(set(g.compiled) == {"bu", "llc"} for g in grammars)


@pytest.mark.parametrize("depth", ("syn", *SEM_DEPTHS))
def test_a_second_rescore_call_shares_the_first_calls_semantic_work(monkeypatch, depth):
    groups = read_nbest(data_path("nbest.tsv"))
    first, second = ({utt: groups[utt]} for utt in groups)
    warm = load_grammar(data_path("fragments.gram"))
    rescore(warm, first, depth=depth)
    misses = _count_semantic_work(monkeypatch)
    warm_rows = rescore(warm, second, depth=depth)
    warm_misses, misses[0] = misses[0], 0
    fresh_rows = rescore(load_grammar(data_path("fragments.gram")), second, depth=depth)
    assert [r.row() for r in warm_rows] == [r.row() for r in fresh_rows]
    if depth == "syn":
        # a word or phrase has no reading to compute at `syn`
        assert warm_misses == misses[0] == 0
    else:
        assert warm_misses < misses[0]


@pytest.mark.parametrize("depth", ("syn", "sem"))
def test_a_word_used_twice_gets_a_category_of_its_own_each_time(depth):
    # both uses of "fish" come from one memo entry; a shared `num`
    # variable could not be both sg and pl
    grammar = parse_grammar("""
feature n num
start s()
rule r : s() -> n(num=sg) n(num=pl)
sem r : [D1, D2]
lex fish : n(num=N) -> fish
""")
    result = parse(grammar, tokenize("fish fish"), depth=depth)
    assert result.trees() == ["(r fish fish)"]


# `mk` makes an `a` whose `f` is free from the class memo; `top` joins
# two of them, whose variables must stay apart
TWO_FROM_ONE_CLASS = """
feature a f
feature b f
feature s f g
start s()
rule top : s(f=X, g=Y) -> a(f=X) a(f=Y)
rule mk : a(f=X) -> b(f=X)
lex y : b()
"""


@pytest.mark.parametrize("strategy", ("bu", "llc", "lc"))
def test_each_category_from_the_class_memo_has_variables_of_its_own(strategy):
    grammar = parse_grammar(TWO_FROM_ONE_CLASS)
    tables = compile_tables(grammar, strategy)
    for _ in range(2):
        result = parse(grammar, ["y", "y"], strategy=strategy, tables=tables)
        assert [canonical(e.cat) for e in result.complete_edges()] == ["s(f=_1,g=_2)"]


# `r` asks for two `a`s whose `idx` values differ; the empty `ae` can fill
# both positions, since each use of an edge binds its own variables
TWO_POSITIONS = """
feature sem idx
start x()
rule r : x() -> a() a()
rule ae : a() ->
sem ae : e
lex w : a() -> e
sem r : [D1, D2] with sem() -> sem(idx=c) sem(idx=d)
"""


@pytest.mark.parametrize("strategy", ("bu", "llc", "lc"))
def test_one_empty_edge_in_two_daughter_positions_has_a_reading(strategy):
    grammar = parse_grammar(TWO_POSITIONS)
    tables = compile_tables(grammar, strategy)
    for _ in range(2):
        result = parse(grammar, [], strategy=strategy, depth="sem", tables=tables)
        assert result.trees() == ["(r (ae) (ae))"]
        assert [r.render for r in result.complete_readings()] == ["sem(idx=_1) :: [e,e]"]


@pytest.mark.parametrize("strategy", ("bu", "llc", "lc"))
def test_an_edge_in_two_daughter_positions_keys_apart_from_two_edges(strategy):
    # (r (ae) (ae)) is combined first; (r (ae) w) has the same daughter
    # renders and reuses its memo entry, which is sound because neither
    # combines daughters that share a variable
    grammar = parse_grammar(TWO_POSITIONS)
    tables = compile_tables(grammar, strategy)
    for _ in range(2):
        result = parse(grammar, ["w"], strategy=strategy, depth="sem", tables=tables)
        assert result.trees() == ["(r (ae) w)", "(r w (ae))"]
        assert [r.render for r in result.complete_readings()] == ["sem(idx=_1) :: [e,e]"]
