"""The three benchmark workloads: seeded inputs, the timed operation,
and a correctness check against references built here, not by gapchart.

Each workload object offers:

* ``setup()``: load the grammar and compile the tables for every
  configuration the workload uses (what a user pays before a parse);
* ``generate(seed)``: the input pool, a list of items, each one
  operation; the same seed gives the same pool;
* ``run(item)``: the one user-visible call that is timed;
* ``check(item, result)``: None, or a message saying what was wrong;
* ``properties(pool)``: the input properties the results depend on.

Pools are built from balanced blocks (every block holds the same mix of
input shapes) so that the seed changes words, attachments, agreement and
order, but not the mix of input sizes. Run-to-run differences then come
from the machine, not from one seed drawing longer inputs than another.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

import gapchart
import gapchart.data

BENCH_DIR = Path(__file__).resolve().parent


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _leaves(tree: str) -> list[str]:
    """Words of an s-expression tree as ``ParseResult.trees`` renders it:
    the token after each "(" is a rule name, every other token a word."""
    tokens = tree.replace("(", " ( ").replace(")", " ) ").split()
    return [
        tok for i, tok in enumerate(tokens)
        if tok not in ("(", ")") and (i == 0 or tokens[i - 1] != "(")
    ]


def _spread(values) -> str:
    values = sorted(values)
    return f"{values[0]}-{values[-1]} (median {values[len(values) // 2]})"


# -- gaps: toy.gram relative clauses over the gap chain -------------------

_SG_NOUNS = ("pilot", "flight", "crew")
_PL_NOUNS = ("pilots", "flights")
_INTRANSITIVE = {"sg": "lands", "pl": "land"}
_STRATEGY_ORDER = ("bu", "llc", "lc")
_MAX_NEST = 3
_MAX_STACK = 2


def _capacity(depth: int) -> int:
    """Most relative clauses one NP can hold within a nesting depth."""
    return 0 if depth == 0 else _MAX_STACK * (1 + _capacity(depth - 1))


class _Np:
    """A generated noun phrase: its words, the derivation tree toy.gram
    gives it, and how deep and how high its relative clauses go."""

    def __init__(self, rng: random.Random, agr: str, n_rel: int, depth: int):
        noun = rng.choice(_SG_NOUNS if agr == "sg" else _PL_NOUNS)
        det = rng.choice(("the", "a")) if agr == "sg" else "the"
        self.words = [det, noun]
        self.tree = f"(r2 {det} {noun})"
        self.nest = 0
        self.stack = 0
        if n_rel == 0:
            return
        inner_cap = _capacity(depth - 1)
        stacks = [s for s in range(1, _MAX_STACK + 1)
                  if s <= n_rel and n_rel - s <= s * inner_cap]
        self.stack = rng.choice(stacks)
        inner = [0] * self.stack
        for _ in range(n_rel - self.stack):
            open_slots = [i for i, m in enumerate(inner) if m < inner_cap]
            inner[rng.choice(open_slots)] += 1
        for m in inner:
            sub = _Np(rng, rng.choice(("sg", "pl")), m, depth - 1)
            self.words += ["that", *sub.words, "booked"]
            self.tree = (f"(r3 {self.tree} (r4 that (r5 {sub.tree} "
                         f"(r6 booked (r7)))))")
            self.nest = max(self.nest, 1 + sub.nest)
            self.stack = max(self.stack, sub.stack)


class Gaps:
    """toy.gram sentences with nested and stacked relative clauses, each
    parsed at `syn` depth under bu, llc and lc (one operation each)."""

    name = "gaps"
    # one block: for 2..5 relative clauses, an intransitive sentence, its
    # agreement-clash variant and two transitive ones (a quarter clash)
    _SHAPES = tuple((n, vp) for n in (2, 3, 4, 5)
                    for vp in ("intransitive", "clash", "transitive", "transitive"))
    _BLOCKS = 8

    def __init__(self, tiny: bool = False):
        self.blocks = 1 if tiny else self._BLOCKS

    def setup(self) -> None:
        self.grammar = gapchart.load_grammar(gapchart.data.path("toy.gram"))
        self.tables = {s: gapchart.compile_tables(self.grammar, s)
                       for s in _STRATEGY_ORDER}

    def _sentence(self, rng: random.Random, n_rel: int, vp: str) -> dict:
        agr = rng.choice(("sg", "pl"))
        if vp == "transitive":
            n_subj = rng.randint(0, n_rel)
            subj = _Np(rng, agr, n_subj, _MAX_NEST)
            obj = _Np(rng, rng.choice(("sg", "pl")), n_rel - n_subj, _MAX_NEST)
            words = [*subj.words, "booked", *obj.words]
            gold = f"(r1 {subj.tree} (r8 booked {obj.tree}))"
            parts = (subj, obj)
        else:
            subj = _Np(rng, agr, n_rel, _MAX_NEST)
            verb_agr = agr if vp == "intransitive" else {"sg": "pl", "pl": "sg"}[agr]
            verb = _INTRANSITIVE[verb_agr]
            words = [*subj.words, verb]
            gold = f"(r1 {subj.tree} {verb})"
            parts = (subj,)
        return {
            "words": words,
            "gold": None if vp == "clash" else gold,
            "nest": max(p.nest for p in parts),
            "stack": max(p.stack for p in parts),
        }

    def generate(self, seed: int) -> list[tuple]:
        rng = _rng(self.name, seed)
        shapes = list(self._SHAPES) * self.blocks
        rng.shuffle(shapes)
        self.sentences = [self._sentence(rng, n, vp) for n, vp in shapes]
        self._trees: dict[int, list[str]] = {}
        return [(i, strategy) for i in range(len(self.sentences))
                for strategy in _STRATEGY_ORDER]

    def run(self, item):
        i, strategy = item
        return gapchart.parse(self.grammar, self.sentences[i]["words"],
                              strategy=strategy, tables=self.tables[strategy])

    def check(self, item, result) -> str | None:
        i, strategy = item
        sent = self.sentences[i]
        trees = sorted(result.trees())
        if sent["gold"] is None:
            if trees:
                return f"clash variant parsed under {strategy}: {trees[0]}"
        elif sent["gold"] not in trees:
            return f"generator's derivation missing under {strategy}"
        first = self._trees.setdefault(i, trees)
        if trees != first:
            return f"{strategy} tree set differs from {_STRATEGY_ORDER[0]}"
        return None

    def properties(self, pool) -> dict:
        sents = self.sentences
        return {
            "sentences": len(sents),
            "operations": len(pool),
            "strategies": ",".join(_STRATEGY_ORDER),
            "words": _spread(len(s["words"]) for s in sents),
            "nesting_depth": dict(sorted(Counter(s["nest"] for s in sents).items())),
            "stacking_depth": dict(sorted(Counter(s["stack"] for s in sents).items())),
            "clash_share": round(sum(s["gold"] is None for s in sents) / len(sents), 3),
        }


# -- pp_forest: ambig.gram PP chains, parse plus the first tree -----------

_NOUNS = ("man", "dog", "telescope", "park")
_PREPS = ("with", "in")
_PREFIX = ("the", "man", "saw", "the", "dog")


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _count_derivations(result, start_backbone: str) -> int:
    """Complete derivations in the packed forest, by a memoised sum over
    ``Edge.derivations`` (ambig.gram has no empty or cyclic rules)."""
    memo: dict[int, int] = {}

    def count(edge) -> int:
        got = memo.get(edge.id)
        if got is None:
            got = 0
            for d in edge.derivations:
                n = 1
                for child in d.daughters:
                    n *= count(child)
                got += n
            memo[edge.id] = got
        return got

    n = len(result.words)
    return sum(count(e) for e in result.chart.edges
               if e.start == 0 and e.end == n and e.backbone == start_backbone)


class PpForest:
    """"the man saw the dog" plus k PPs; one operation is `parse` and
    `trees(limit=1)`, as `gapchart parse --trees 1` does."""

    name = "pp_forest"
    _KS = tuple(range(1, 10))
    # 108 inputs, so that at least ten latencies lie beyond p90
    _BLOCKS = 12

    def __init__(self, tiny: bool = False):
        self.ks = (1, 2, 3) if tiny else self._KS
        self.blocks = 1 if tiny else self._BLOCKS

    def setup(self) -> None:
        self.grammar = gapchart.load_grammar(gapchart.data.path("ambig.gram"))
        self.tables = gapchart.compile_tables(self.grammar, "llc")

    def generate(self, seed: int) -> list[tuple]:
        rng = _rng(self.name, seed)
        ks = list(self.ks) * self.blocks
        rng.shuffle(ks)
        pool = []
        for k in ks:
            words = list(_PREFIX)
            for _ in range(k):
                words += [rng.choice(_PREPS), "the", rng.choice(_NOUNS)]
            pool.append((k, tuple(words)))
        return pool

    def run(self, item):
        _k, words = item
        result = gapchart.parse(self.grammar, list(words), tables=self.tables)
        return result, result.trees(limit=1)

    def check(self, item, outcome) -> str | None:
        k, words = item
        result, first = outcome
        n = _count_derivations(result, self.grammar.start.backbone)
        if n != _catalan(k + 1):
            return f"k={k}: {n} derivations, expected Catalan({k + 1})={_catalan(k + 1)}"
        if len(first) != 1 or _leaves(first[0]) != list(words):
            return f"k={k}: first tree does not yield the input"
        return None

    def properties(self, pool) -> dict:
        return {
            "operations": len(pool),
            "pp_counts": dict(sorted(Counter(k for k, _ in pool).items())),
            "words": _spread(len(w) for _, w in pool),
        }


# -- rescore: 10-best lists over fragments.gram ----------------------------

_CITIES = ("boston", "denver", "dallas")
_AIRLINES = ("united", "delta", "dallas")
_CODES = (("code",), ("q",), ("fare", "code"), ("fare", "q"), ("code", "of", "q"))
_UNKNOWN = ("uh", "um", "er", "hm")
_NBEST = 10
# per list: 3 substitutions, 2 insertions, 3 deletions, 1 unknown word
_CONFUSIONS = ("sub", "sub", "sub", "ins", "ins", "del", "del", "del", "unk")


_KINDS = ("from", "to", "on", "for")


def _modifier(rng: random.Random, kind: str, code: tuple[str, ...]) -> list[str]:
    if kind == "on":
        return ["on", rng.choice(_AIRLINES)]
    if kind == "for":
        return ["for", *code]
    return [kind, rng.choice(_CITIES)]


class Rescore:
    """Seeded 10-best lists; one operation is `rescore()` on one
    utterance's list at the default `deferred` depth."""

    name = "rescore"
    _MODIFIERS = (2, 3, 4)
    # 111 lists, so that at least ten latencies lie beyond p90
    _BLOCKS = 37

    def __init__(self, tiny: bool = False):
        self.blocks = 1 if tiny else self._BLOCKS

    def setup(self) -> None:
        text = (gapchart.data.read_text("fragments.gram")
                + (BENCH_DIR / "rescore_ext.gram").read_text(encoding="utf-8"))
        self.grammar = gapchart.parse_grammar(text)
        self.tables = gapchart.compile_tables(self.grammar, "llc")
        self.vocab = sorted(self.grammar.lexicon)

    def _confuse(self, rng: random.Random, words: list[str], kind: str) -> list[str]:
        out = list(words)
        i = rng.randrange(len(out))
        if kind == "sub":
            out[i] = rng.choice([w for w in self.vocab if w != out[i]])
        elif kind == "ins":
            out.insert(i, rng.choice(self.vocab))
        elif kind == "del":
            del out[i]
        else:
            out[i] = rng.choice(_UNKNOWN)
        return out

    def generate(self, seed: int) -> list[dict]:
        rng = _rng(self.name, seed)
        self._readings_ok: dict[str, bool] = {}
        # which modifiers and which fare code a list uses cycle over the
        # blocks; the seed orders them and picks the places and carriers
        shapes = [(m, b) for b in range(self.blocks) for m in self._MODIFIERS]
        rng.shuffle(shapes)
        pool = []
        for u, (m, b) in enumerate(shapes):
            kinds = [_KINDS[(b + m + j) % len(_KINDS)] for j in range(m)]
            rng.shuffle(kinds)
            intended = ["list", "flights"]
            for kind in kinds:
                intended += _modifier(rng, kind, _CODES[b % len(_CODES)])
            hyps = [self._confuse(rng, intended, kind) for kind in _CONFUSIONS]
            rank = rng.randrange(_NBEST)
            hyps.insert(rank, intended)
            rec = -rng.uniform(80.0, 120.0)
            group = []
            for r, words in enumerate(hyps, 1):
                group.append(gapchart.Hypothesis(f"u{u}", r, round(rec, 3), tuple(words)))
                rec -= rng.uniform(0.1, 2.0)
            pool.append({"utt": f"u{u}", "hyps": group, "intended": rank + 1})
        return pool

    def run(self, item):
        return gapchart.rescore(self.grammar, {item["utt"]: item["hyps"]})

    def check(self, item, rows) -> str | None:
        by_rec = {h.rec: h for h in item["hyps"]}
        if len(rows) != len(by_rec) or {r.rec for r in rows} != set(by_rec):
            return f"{item['utt']}: rows are not the input hypotheses once each"
        keys = []
        for row in rows:
            hyp = by_rec[row.rec]
            if row.words != hyp.words or row.utt != item["utt"]:
                return f"{item['utt']}: row words differ from hypothesis {hyp.rank}"
            keys.append((-(hyp.rec + row.nl), hyp.rank))
        if keys != sorted(keys):
            return f"{item['utt']}: rows not ordered by rec + scale * nl"
        intended = next(r for r in rows
                        if by_rec[r.rec].rank == item["intended"])
        if intended.fragments != 1 or not intended.is_sentence:
            return (f"{item['utt']}: intended hypothesis covered by "
                    f"{intended.fragments} fragments")
        # a property of the input, not of this call: checked once per list
        ok = self._readings_ok.get(item["utt"])
        if ok is None:
            ok = self._readings_ok[item["utt"]] = self._deferred_equals_sorts(
                list(intended.words))
        if not ok:
            return f"{item['utt']}: deferred readings differ from sorts readings"
        return None

    def _deferred_equals_sorts(self, words: list[str]) -> bool:
        deferred, sorts = (
            {r.render for r in gapchart.parse(
                self.grammar, words, depth=depth, tables=self.tables
            ).complete_readings()}
            for depth in ("deferred", "sorts")
        )
        return bool(sorts) and deferred == sorts

    def properties(self, pool) -> dict:
        hyps = [h for item in pool for h in item["hyps"]]
        unknown = sum(any(w in _UNKNOWN for w in h.words) for h in hyps)
        intended = [len(item["hyps"][item["intended"] - 1].words) for item in pool]
        return {
            "utterances": len(pool),
            "nbest": _NBEST,
            "hypothesis_words": _spread(len(h.words) for h in hyps),
            "intended_words": _spread(intended),
            "intended_rank": dict(sorted(Counter(i["intended"] for i in pool).items())),
            "confusions_per_list": dict(sorted(Counter(_CONFUSIONS).items())),
            "unknown_word_rate": round(unknown / len(hyps), 3),
        }


WORKLOADS = {w.name: w for w in (Gaps, PpForest, Rescore)}
