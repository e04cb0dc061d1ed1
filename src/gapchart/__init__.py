"""Unification-grammar chart parsing with limited left-context
prediction, interleaved semantics, deferred sortal constraints, packed
parse forests, and fragment-based robust scoring."""

from .chart import Chart, Derivation, Edge
from .engine import (
    ConfigError,
    ParseResult,
    ParseStats,
    UnknownWordError,
    parse,
    tokenize,
)
from .grammar import (
    Grammar,
    GrammarError,
    LexEntry,
    Rule,
    SemRule,
    load_grammar,
    parse_grammar,
)
from .scoring import (
    FragmentCover,
    Hypothesis,
    ScoreWeights,
    min_fragment_cover,
    nl_score,
    read_nbest,
    rescore,
)
from .semantics import (
    DEPTHS,
    SEM,
    SORTS_DEFERRED,
    SORTS_IMMEDIATE,
    SYN,
    DeferredAssignment,
    Reading,
)
from .tables import STRATEGIES, CompiledTables, compile_tables
from .terms import FeatureTerm, Restrictor, Var, canonical, subsumes, variants

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "CompiledTables",
    "ConfigError",
    "DEPTHS",
    "DeferredAssignment",
    "Derivation",
    "Edge",
    "FeatureTerm",
    "FragmentCover",
    "Grammar",
    "GrammarError",
    "Hypothesis",
    "LexEntry",
    "ParseResult",
    "ParseStats",
    "Reading",
    "Restrictor",
    "Rule",
    "STRATEGIES",
    "SEM",
    "SORTS_DEFERRED",
    "SORTS_IMMEDIATE",
    "SYN",
    "ScoreWeights",
    "SemRule",
    "UnknownWordError",
    "Var",
    "canonical",
    "compile_tables",
    "load_grammar",
    "min_fragment_cover",
    "nl_score",
    "parse",
    "parse_grammar",
    "read_nbest",
    "rescore",
    "subsumes",
    "tokenize",
    "variants",
]
