"""Seeded fuzz of the grammar loader over mutated bundled grammars.

Each seed picks a bundled grammar (or `tests/golden/bind.gram`) and
mutates a few of its lines: tokens are deleted, repeated, swapped,
replaced by tokens drawn from the grammar files, or split apart; whole
lines are deleted, repeated or cut short. Whatever comes out,
`parse_grammar` and `compile_tables` under `bu`, `llc` and `lc` may
raise `GrammarError` and nothing else, and a grammar that loads holds
only words that input can hold (`tokenize(word) == [word]`) and finite
dispreference weights.

To sweep a wider range of seeds, run

    PYTHONPATH=src python tests/test_loader_fuzz.py FIRST STOP

which prints each seed whose grammar raised anything else, with the
exception, or loaded with such a word or weight, for the seeds FIRST to
STOP - 1, and exits 1 if there is any.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from pathlib import Path

import pytest

from gapchart.data import read_text
from gapchart.engine import tokenize
from gapchart.grammar import GrammarError, parse_grammar
from gapchart.tables import STRATEGIES, compile_tables

ROOT = Path(__file__).resolve().parent.parent

SOURCES = tuple(read_text(name) for name in
                ("ambig.gram", "bad_closure.gram", "fragments.gram", "sorts.gram", "toy.gram")
                ) + ((ROOT / "tests" / "golden" / "bind.gram").read_text(encoding="utf-8"),)

# every token of the sources, and a few the grammar language gives no
# meaning to, as replacement material
POOL = sorted({tok for text in SOURCES for line in text.splitlines()
               for tok in line.split("#", 1)[0].split()}
              | {"(", ")", "[", "]", ",", "=", ":", "->", "_", "'", "''", "_x", "D0", "D9",
                 "-1", "1e9", "nan", "#", ";", "feature", "with", "X", "f"})


def _mutate_line(rng: random.Random, line: str) -> str:
    tokens = line.split()
    kind = rng.randrange(6)
    if not tokens or kind == 0:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(POOL))
    elif kind == 1:
        del tokens[rng.randrange(len(tokens))]
    elif kind == 2:
        i = rng.randrange(len(tokens))
        tokens.insert(i, tokens[i])
    elif kind == 3:
        i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == 4:
        tokens[rng.randrange(len(tokens))] = rng.choice(POOL)
    else:
        # cut the line at a character, which can split a token
        return line[:rng.randint(0, len(line))]
    return " ".join(tokens)


def mutated_grammar(seed: int) -> str:
    rng = random.Random(seed)
    lines = rng.choice(SOURCES).splitlines()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.1:
            del lines[i]
        elif roll < 0.2:
            lines.insert(i, lines[i])
        else:
            lines[i] = _mutate_line(rng, lines[i])
    return "\n".join(lines) + "\n"


def unexpected_error(seed: int) -> str | None:
    """The traceback of anything but `GrammarError` that loading and
    compiling the mutated grammar of `seed` raised, what is wrong with
    the grammar if it loaded with a word input cannot hold or a weight
    that is not finite, or None."""
    try:
        grammar = parse_grammar(mutated_grammar(seed))
        for strategy in STRATEGIES:
            compile_tables(grammar, strategy)
    except GrammarError:
        return None
    except Exception:
        return traceback.format_exc(limit=4)
    for word in grammar.lexicon:
        if tokenize(word) != [word]:
            return f"word {word!r} loaded, but input gives {tokenize(word)!r}"
    for name, weight in grammar.dispreferred.items():
        if not math.isfinite(weight):
            return f"rule {name!r} loaded with dispreference weight {weight!r}"
    return None


@pytest.mark.parametrize("block", range(10))
def test_mutated_grammars_raise_only_grammar_errors(block):
    for seed in range(block * 50, block * 50 + 50):
        error = unexpected_error(seed)
        assert error is None, (seed, error)


def _loads(text: str) -> bool:
    try:
        parse_grammar(text)
    except GrammarError:
        return False
    return True


def test_mutations_reach_both_outcomes():
    # the fuzz means something only if mutated grammars both load and fail
    loaded = sum(1 for seed in range(200) if _loads(mutated_grammar(seed)))
    assert 20 <= loaded <= 180


if __name__ == "__main__":
    first, stop = map(int, sys.argv[1:])
    found = False
    for seed in range(first, stop):
        error = unexpected_error(seed)
        if error is not None:
            print(seed, error)
            found = True
    sys.exit(1 if found else 0)
