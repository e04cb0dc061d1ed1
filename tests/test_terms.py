"""Term algebra properties, checked against the oracles by seeded search."""

from __future__ import annotations

import random

from gapchart.lf import LFAnn, LFApp, Placeholder, SAtom, SFunc
from gapchart.semantics import unify_sorts
from gapchart.terms import (
    EMPTY_BINDS,
    FeatureTerm,
    Restrictor,
    Var,
    canonical,
    canonical_seq,
    leaves,
    refresh,
    resolve,
    seq_subsumes,
    subsumes,
    unify_values,
    variants,
)

from oracles import apply_subst, ground_instance, robinson_unify

BACKBONES = ["a", "b", "c"]
FEATURES = ["f", "g", "h"]
ATOMS = ["x", "y", "z"]


def random_value(rng: random.Random, depth: int, pool: list[Var]) -> object:
    roll = rng.random()
    if roll < 0.35 or depth <= 0:
        return rng.choice(ATOMS)
    if roll < 0.6:
        if pool and rng.random() < 0.7:
            return rng.choice(pool)
        var = Var("V")
        pool.append(var)
        return var
    return random_term(rng, depth - 1, pool)


def random_term(rng: random.Random, depth: int = 2,
                pool: list[Var] | None = None) -> FeatureTerm:
    if pool is None:
        pool = []
    names = rng.sample(FEATURES, rng.randint(0, len(FEATURES)))
    return FeatureTerm(
        rng.choice(BACKBONES),
        tuple((n, random_value(rng, depth, pool)) for n in names),
    )


def _vars(value: object) -> list[Var]:
    return [v for v in leaves(value) if isinstance(v, Var)]


def generalize(rng: random.Random, value: object, pool: list[Var]) -> object:
    """Replace random subvalues with variables; drop random features."""
    if rng.random() < 0.25:
        var = Var("G")
        pool.append(var)
        return var
    if isinstance(value, FeatureTerm):
        kept = []
        for name, val in value.feats:
            if rng.random() < 0.2:
                continue
            kept.append((name, generalize(rng, val, pool)))
        return FeatureTerm(value.backbone, tuple(kept))
    return value


def test_unify_verdicts_agree_with_oracle():
    rng = random.Random(20260817)
    successes = failures = 0
    for _ in range(400):
        a = random_term(rng, 2)
        b = random_term(rng, 2)
        impl = unify_values(a, b, EMPTY_BINDS)
        oracle = robinson_unify(a, b)
        assert (impl is None) == (oracle is None), (a, b)
        if impl is None:
            failures += 1
            continue
        successes += 1
        # the two computed unifiers must agree up to renaming on each side
        assert canonical(resolve(a, impl)) == canonical(apply_subst(oracle, a))
        assert canonical(resolve(b, impl)) == canonical(apply_subst(oracle, b))
    assert successes > 50 and failures > 50


SORT_ATOMS = [SAtom("e"), SAtom("t"), SAtom("city")]


def random_sort(rng: random.Random, depth: int, pool: list[Var]) -> object:
    roll = rng.random()
    if roll < 0.3 or depth <= 0:
        return rng.choice(SORT_ATOMS)
    if roll < 0.6:
        if pool and rng.random() < 0.7:
            return rng.choice(pool)
        var = Var("S")
        pool.append(var)
        return var
    args = tuple(random_sort(rng, depth - 1, pool) for _ in range(rng.randint(1, 2)))
    return SFunc(args, random_sort(rng, depth - 1, pool))


def test_sort_unify_agrees_with_oracle():
    # a and b draw on one variable pool, so they share variables; every
    # fifth pair unifies a variable with a function sort that contains it
    rng = random.Random(20261018)
    successes = failures = cyclic = 0
    for i in range(600):
        pool: list[Var] = []
        a = random_sort(rng, 3, pool)
        b = random_sort(rng, 3, pool)
        if i % 5 == 0:
            a = Var("S")
            b = SFunc((random_sort(rng, 1, pool),), SFunc((a,), rng.choice(SORT_ATOMS)))
            cyclic += 1
        impl = unify_sorts(a, b, EMPTY_BINDS)
        oracle = robinson_unify(a, b)
        assert (impl is None) == (oracle is None), (a, b)
        if impl is None:
            failures += 1
            continue
        successes += 1
        assert canonical(resolve(a, impl)) == canonical(apply_subst(oracle, a))
        assert canonical(resolve(b, impl)) == canonical(apply_subst(oracle, b))
        assert canonical(resolve(a, impl)) == canonical(resolve(b, impl))
    assert successes > 100 and failures - cyclic > 100 and cyclic == 120


def test_occurs_check_blocks_cyclic_sort():
    s = Var("S")
    assert unify_sorts(s, SFunc((SAtom("e"),), SFunc((s,), SAtom("t"))), EMPTY_BINDS) is None
    assert unify_sorts(s, SFunc((SAtom("e"),), SAtom("t")), EMPTY_BINDS) is not None


def test_one_kernel_serves_every_kind_of_node():
    x, s = Var("X"), Var("S")
    lf = LFAnn(LFApp("see", (x, Placeholder(1))), SFunc((s,), SAtom("t")))
    assert canonical(lf) == "([see,_1,D1];((_2)->[t]))"
    assert list(leaves(lf)) == ["see", x, Placeholder(1), s, SAtom("t")]
    copy = refresh(lf, {})
    assert canonical(copy) == canonical(lf) and copy.expr.args[0] is not x
    binds = unify_values(lf, copy, EMPTY_BINDS)
    assert canonical(resolve(lf, binds)) == canonical(lf)
    term = FeatureTerm("c", (("k", "v"),))
    bound = resolve(lf, {x: term, s: SAtom("e")})
    assert canonical(bound) == "([see,c(k=v),D1];(([e])->[t]))"
    assert unify_values(LFApp("f", (x,)), LFApp("f", (x, x)), EMPTY_BINDS) is None
    assert unify_values(lf, term, EMPTY_BINDS) is None


def test_unify_succeeds_on_constructed_common_instance():
    rng = random.Random(1)
    for _ in range(400):
        ground = ground_instance(random_term(rng, 2), {})
        pool_a: list[Var] = []
        pool_b: list[Var] = []
        a = generalize(rng, ground, pool_a)
        b = generalize(rng, ground, pool_b)
        if not (isinstance(a, FeatureTerm) and isinstance(b, FeatureTerm)):
            continue
        binds = unify_values(a, b, EMPTY_BINDS)
        assert binds is not None, (a, b, ground)
        # the unified terms must still match the common instance they came from
        assert robinson_unify(resolve(a, binds), ground) is not None
        assert robinson_unify(resolve(b, binds), ground) is not None


def test_unify_atom_clash_fails():
    va = FeatureTerm("a", (("f", "x"),))
    vb = FeatureTerm("a", (("f", "y"),))
    assert unify_values(va, vb, EMPTY_BINDS) is None


def test_occurs_check_blocks_cyclic_binding():
    v = Var("X")
    cyclic = FeatureTerm("a", (("f", v),))
    assert unify_values(v, cyclic, EMPTY_BINDS) is None
    assert robinson_unify(v, cyclic) is None


def test_binding_chains_resolve_through_intermediate_vars():
    x, y = Var("X"), Var("Y")
    t1 = FeatureTerm("a", (("f", x),))
    t2 = FeatureTerm("a", (("f", y),))
    t3 = FeatureTerm("a", (("f", "x"),))
    binds = unify_values(t1, t2, EMPTY_BINDS)
    binds = unify_values(t2, t3, binds)
    assert binds is not None
    assert resolve(t1, binds).get("f") == "x"


def test_subsumes_holds_for_constructed_instances():
    rng = random.Random(2)
    for _ in range(400):
        pool: list[Var] = []
        general = random_term(rng, 2, pool)
        subst = {v: rng.choice(ATOMS) for v in set(_vars(general))}
        specific = apply_subst(subst, general)
        # adding extra features keeps it an instance
        extra = dict(specific.feats)
        for name in FEATURES:
            if name not in extra and rng.random() < 0.3:
                extra[name] = rng.choice(ATOMS)
        specific = FeatureTerm(specific.backbone, tuple(extra.items()))
        assert subsumes(general, specific), (general, specific)
        # subsumption implies unifiability
        assert unify_values(general, specific, EMPTY_BINDS) is not None


def test_subsumes_requires_generals_features_present():
    general = FeatureTerm("a", (("f", Var("X")),))
    specific = FeatureTerm("a")
    assert not subsumes(general, specific)
    assert subsumes(specific, general)  # bare term is the most general


def test_subsumes_consistent_variable_mapping():
    v = Var("X")
    general = FeatureTerm("a", (("f", v), ("g", v)))
    same = FeatureTerm("a", (("f", "x"), ("g", "x")))
    mixed = FeatureTerm("a", (("f", "x"), ("g", "y")))
    assert subsumes(general, same)
    assert not subsumes(general, mixed)


def test_variants_iff_equal_canonical():
    rng = random.Random(3)
    for _ in range(400):
        a = random_term(rng, 2)
        b = refresh(a, {}) if rng.random() < 0.5 else random_term(rng, 2)
        assert variants(a, b) == (canonical(a) == canonical(b)), (a, b)


def test_refresh_produces_disjoint_variant():
    rng = random.Random(4)
    for _ in range(200):
        pool: list[Var] = []
        a = random_term(rng, 2, pool)
        mapping: dict[Var, Var] = {}
        b = refresh(a, mapping)
        assert variants(a, b)
        assert set(_vars(a)).isdisjoint(set(_vars(b)))


def test_refresh_shared_mapping_preserves_sharing():
    x = Var("X")
    a = FeatureTerm("a", (("f", x),))
    b = FeatureTerm("b", (("g", x),))
    mapping: dict[Var, Var] = {}
    a2 = refresh(a, mapping)
    b2 = refresh(b, mapping)
    assert a2.get("f") is b2.get("g")
    assert a2.get("f") is not x


def test_restriction_keeps_declared_paths_only():
    restrictor = Restrictor.from_paths([("np", ("agr",))])
    term = FeatureTerm("np", (("agr", "sg"), ("case", "nom")))
    restricted = restrictor.restrict(term)
    assert restricted.feature_names() == ("agr",)
    other = restrictor.restrict(FeatureTerm("vp", (("agr", "sg"),)))
    assert other.feature_names() == ()


def test_restriction_is_idempotent_and_generalizes():
    rng = random.Random(5)
    restrictor = Restrictor.from_paths([("a", ("f",)), ("b", ("g", "f"))])
    for _ in range(200):
        t = random_term(rng, 2)
        once = restrictor.restrict(t)
        twice = restrictor.restrict(once)
        assert canonical(once) == canonical(twice)
        assert subsumes(once, t)


def test_restriction_nested_paths():
    restrictor = Restrictor.from_paths([("b", ("g", "f"))])
    inner = FeatureTerm("a", (("f", "x"), ("h", "y")))
    term = FeatureTerm("b", (("g", inner), ("f", "z")))
    restricted = restrictor.restrict(term)
    assert restricted.feature_names() == ("g",)
    assert restricted.get("g").feature_names() == ("f",)


def test_canonical_numbers_variables_in_first_occurrence_order():
    x, y = Var("X"), Var("Y")
    t = FeatureTerm("a", (("f", x), ("g", y), ("h", x)))
    assert canonical(t) == "a(f=_1,g=_2,h=_1)"


def test_canonical_seq_shares_numbering():
    x = Var("X")
    seq = [FeatureTerm("a", (("f", x),)), FeatureTerm("b", (("g", x),))]
    assert canonical_seq(seq) == "a(f=_1) b(g=_1)"


def test_seq_subsumes_shares_substitution_across_elements():
    v = Var("X")
    gen = [FeatureTerm("a", (("f", v),)), FeatureTerm("b", (("g", v),))]
    same = [FeatureTerm("a", (("f", "x"),)), FeatureTerm("b", (("g", "x"),))]
    mixed = [FeatureTerm("a", (("f", "x"),)), FeatureTerm("b", (("g", "y"),))]
    assert seq_subsumes(gen, same)
    assert not seq_subsumes(gen, mixed)
    assert not seq_subsumes(gen, same + same)
