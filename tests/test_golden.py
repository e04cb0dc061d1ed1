"""Golden command-line output: exact stdout, stderr and exit status.

Each case runs one `gapchart` command and compares everything it
prints, `--trace` lines included, byte for byte with
`tests/golden/<case>.txt`. After an intended output change, rewrite the
files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from gapchart.cli import main
from gapchart.data import path as data_path

GOLDEN = Path(__file__).parent / "golden"
DEPTHS = ("syn", "sem", "sorts", "deferred")


def _parse(grammar: str, utt: str, depth: str, strategy: str = "llc") -> list[str]:
    return ["parse", grammar, "--utt", utt, "--strategy", strategy, "--depth", depth,
            "--trace", "--dump-chart", "--trees", "7"]


# case name -> argv; "data:NAME" is a bundled file, "golden:NAME" one in tests/golden
CASES: dict[str, list[str]] = {
    **{f"parse_toy_{d}": _parse("data:toy.gram", "the flight that the pilot booked lands", d)
       for d in DEPTHS},
    **{f"parse_toy_{s}": _parse("data:toy.gram", "the pilots booked the flight", "syn", s)
       for s in ("bu", "lc")},
    **{f"parse_sorts_{d}": _parse("data:sorts.gram", "united serves boston", d)
       for d in DEPTHS},
    **{f"parse_fragments_{d}": _parse("data:fragments.gram", "list flights of fare code", d)
       for d in DEPTHS},
    **{f"parse_ambig_{d}": _parse("data:ambig.gram", "the man saw the dog with the telescope", d)
       for d in DEPTHS},
    "parse_bad_closure": _parse("data:bad_closure.gram", "x", "syn"),
    **{f"parse_bind_{d}": _parse("golden:bind.gram", "ann sees someone", d) for d in DEPTHS},
    "stats_toy": ["stats", "data:toy.gram", "--corpus", "data:toy_corpus.txt",
                  "--variants", "bu", "lc", "llc", "bu:sem"],
    "stats_sorts": ["stats", "data:sorts.gram", "--corpus", "data:sorts_corpus.txt",
                    "--variants", *DEPTHS, "bu:deferred", "lc:sorts"],
    "cover_sorts": ["cover", "data:sorts.gram", "--corpus", "data:sorts_corpus.txt"],
    "cover_fragments": ["cover", "data:fragments.gram", "--utt",
                        "list flights of fare code of q", "--depth", "sorts"],
    **{f"rescore_{d}": ["rescore", "data:fragments.gram", "--nbest", "data:nbest.tsv",
                        "--depth", d] for d in DEPTHS},
}


def _resolve(arg: str) -> str:
    if arg.startswith("data:"):
        return data_path(arg[5:])
    if arg.startswith("golden:"):
        return str(GOLDEN / arg[7:])
    return arg


def run_case(argv: list[str]) -> str:
    """The command line, exit status, stdout and stderr as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([_resolve(a) for a in argv])
    return (f"$ gapchart {' '.join(argv)}\nexit {code}\n"
            f"-- stdout\n{out.getvalue()}-- stderr\n{err.getvalue()}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert run_case(CASES[case]) == expected


def test_every_golden_file_has_a_case():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(CASES)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run_case(argv), encoding="utf-8")
