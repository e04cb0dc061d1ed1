"""Command line interface.

Subcommands: validate, parse, stats, cover, rescore. Exit status is 0
on success, 1 for input problems (missing or unreadable files, unknown
words in strict mode, malformed n-best or weights data), and 2 for an invalid
grammar or an impossible configuration (including a context-dependent
set that is not closed under possible-left-corner-of).
"""

from __future__ import annotations

import argparse
import sys

from .engine import ConfigError, UnknownWordError, parse, tokenize
from .grammar import GrammarError, load_grammar
from .scoring import (
    ScoreWeights,
    min_fragment_cover,
    nl_score,
    read_nbest,
    rescore,
)
from .semantics import DEPTHS, SEM, SORTS_DEFERRED, SORTS_IMMEDIATE, SYN
from .tables import STRATEGIES, compile_tables

def _utterances(args) -> list[str]:
    if getattr(args, "utt", None) is not None:
        return [args.utt]
    with open(args.corpus, encoding="utf-8") as fh:
        return [
            line.strip() for line in fh
            if line.strip() and not line.lstrip().startswith("#")
        ]


def _trace_fn(enabled: bool):
    if not enabled:
        return None
    return lambda line: print(line, file=sys.stderr)


def cmd_validate(args) -> int:
    grammar = load_grammar(args.grammar)
    tables = compile_tables(grammar, args.strategy)
    print(f"rules\t{len(grammar.rules)}")
    print(f"lexicon\t{sum(len(v) for v in grammar.lexicon.values())}")
    print(f"backbones\t{len(tables.backbones)}")
    print(f"cd\t{' '.join(sorted(tables.cd))}")
    print(f"nullable\t{' '.join(sorted(tables.nullable))}")
    if tables.closure_violations:
        for x, y in tables.closure_violations:
            print(f"closure\t{x} begins {y}", file=sys.stderr)
        return 2
    print("ok")
    return 0


def cmd_parse(args) -> int:
    grammar = load_grammar(args.grammar)
    trace = _trace_fn(args.trace)
    for utt in _utterances(args):
        words = tokenize(utt)
        result = parse(
            grammar, words, strategy=args.strategy, depth=args.depth,
            lookahead=not args.no_lookahead, robust=args.robust,
            trace=trace,
        )
        stats = result.stats
        print(f"UTT\t{utt}")
        print(
            f"STATS\twords={stats.words}\tedges={stats.edges}"
            f"\tpreds={stats.predictions}\tcomplete={stats.complete}"
        )
        if args.trees:
            for i, tree in enumerate(result.trees(args.trees), 1):
                print(f"TREE\t{i}\t{tree}")
        if args.depth != SYN:
            for i, reading in enumerate(result.complete_readings(), 1):
                print(f"READING\t{i}\t{reading.render}")
        if args.dump_chart:
            for line in result.chart.dump().splitlines():
                print(f"CHART\t{line}")
    return 0


_VARIANTS = {
    "bu": ("bu", SYN),
    "lc": ("lc", SYN),
    "llc": ("llc", SYN),
    "syn": ("llc", SYN),
    "sem": ("llc", SEM),
    "sorts": ("llc", SORTS_IMMEDIATE),
    "deferred": ("llc", SORTS_DEFERRED),
}


def _variant(token: str) -> tuple[str, str]:
    if token in _VARIANTS:
        return _VARIANTS[token]
    if ":" in token:
        strat, _, depth = token.partition(":")
        if strat in STRATEGIES and depth in DEPTHS:
            return strat, depth
    raise ValueError(
        f"unknown variant {token!r}: use a strategy, a depth, or strategy:depth"
    )


def cmd_stats(args) -> int:
    grammar = load_grammar(args.grammar)
    utterances = _utterances(args)
    variants = [_variant(tok) for tok in args.variants]
    for token, (strategy, depth) in zip(args.variants, variants):
        edges = 0
        preds = 0
        parsed = 0
        for utt in utterances:
            result = parse(
                grammar, tokenize(utt), strategy=strategy, depth=depth,
                lookahead=not args.no_lookahead,
            )
            stats = result.stats
            edges += stats.edges
            preds += stats.predictions
            if stats.complete:
                parsed += 1
        print(f"{token}\t{edges}\t{preds}\t{parsed}/{len(utterances)}")
    return 0


def cmd_cover(args) -> int:
    grammar = load_grammar(args.grammar)
    weights = ScoreWeights.from_json(args.weights) if args.weights else ScoreWeights()
    for utt in _utterances(args):
        result = parse(
            grammar, tokenize(utt), strategy=args.strategy, depth=args.depth,
            lookahead=not args.no_lookahead, robust=True,
        )
        cover = min_fragment_cover(result, weights)
        if args.well_formed and not cover.is_single_sentence:
            continue
        flag = "1" if cover.is_single_sentence else "0"
        score = nl_score(cover, weights)
        print(f"{utt}\t{cover.count}\t{flag}\t{score:.4f}\t{cover.bracketing()}")
    return 0


def cmd_rescore(args) -> int:
    grammar = load_grammar(args.grammar)
    weights = ScoreWeights.from_json(args.weights) if args.weights else ScoreWeights()
    groups = read_nbest(args.nbest)
    rows = rescore(
        grammar, groups, weights, strategy=args.strategy, depth=args.depth,
        lookahead=not args.no_lookahead,
    )
    for row in rows:
        print(row.row())
    return 0


def _tree_count(text: str) -> int:
    """The `--trees` count: a whole number, 0 or more (else a usage error)."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number 0 or more, got {text!r}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gapchart",
        description="unification-grammar chart parsing with prediction, "
        "interleaved semantics, and robust scoring",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, corpus_required: bool = False):
        p.add_argument("grammar", help="grammar file")
        p.add_argument("--strategy", choices=STRATEGIES, default="llc")
        p.add_argument("--no-lookahead", action="store_true",
                       help="disable the one-word lookahead filter")
        if corpus_required:
            p.add_argument("--corpus", required=True, help="utterance file")
        else:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--utt", help="one utterance")
            g.add_argument("--corpus", help="utterance file, one per line")

    v = sub.add_parser("validate", help="load a grammar and check the strategy")
    v.add_argument("grammar")
    v.add_argument("--strategy", choices=STRATEGIES, default="llc")
    v.set_defaults(fn=cmd_validate)

    p = sub.add_parser("parse", help="parse utterances")
    common(p)
    p.add_argument("--depth", choices=DEPTHS, default=SYN)
    p.add_argument("--robust", action="store_true",
                   help="skip unknown words instead of failing")
    p.add_argument("--trace", action="store_true",
                   help="write engine events to stderr")
    p.add_argument("--trees", type=_tree_count, default=0, metavar="N",
                   help="print up to N parse trees per utterance")
    p.add_argument("--dump-chart", action="store_true")
    p.set_defaults(fn=cmd_parse)

    s = sub.add_parser("stats", help="corpus totals per engine variant")
    common(s, corpus_required=True)
    s.add_argument("--variants", nargs="+", default=["bu", "lc", "llc"],
                   help="strategy, depth, or strategy:depth tokens")
    s.set_defaults(fn=cmd_stats)

    c = sub.add_parser("cover", help="cheapest fragment covers")
    common(c)
    c.add_argument("--depth", choices=DEPTHS, default=SORTS_DEFERRED)
    c.add_argument("--weights", help="JSON weights file")
    c.add_argument("--well-formed", action="store_true",
                   help="print only single-sentence covers")
    c.set_defaults(fn=cmd_cover)

    r = sub.add_parser("rescore", help="rescore an n-best list")
    r.add_argument("grammar")
    r.add_argument("--strategy", choices=STRATEGIES, default="llc")
    r.add_argument("--no-lookahead", action="store_true")
    r.add_argument("--nbest", required=True, help="utt TAB rank TAB rec TAB words")
    r.add_argument("--depth", choices=DEPTHS, default=SORTS_DEFERRED)
    r.add_argument("--weights", help="JSON weights file")
    r.set_defaults(fn=cmd_rescore)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GrammarError as exc:
        for err in exc.errors:
            print(f"grammar: {err}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except UnknownWordError as exc:
        print(f"input: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
