"""Term algebra properties, checked against the oracles by seeded search."""

from __future__ import annotations

import random

from gapchart.lf import LFAnn, LFApp, Placeholder, SAtom, SFunc, substitute_placeholders
from gapchart.semantics import unify_sorts
from gapchart.terms import (
    EMPTY_BINDS,
    FeatureTerm,
    Node,
    Restrictor,
    Var,
    canonical,
    canonical_seq,
    leaves,
    occurs,
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


def random_lf(rng: random.Random, depth: int, pool: list[Var]) -> object:
    """A logical form, sort or feature term over strings, atomic sorts,
    variables and placeholders, with every kind of node nested in every
    other."""
    roll = rng.random()
    if roll < 0.3 or depth <= 0:
        leaf = rng.random()
        if leaf < 0.4:
            return rng.choice(ATOMS)
        if leaf < 0.7:
            return rng.choice(SORT_ATOMS)
        if leaf < 0.8:
            return Placeholder(rng.randint(1, 2))
        if pool and rng.random() < 0.5:
            return rng.choice(pool)
        var = Var("V")
        pool.append(var)
        return var
    kids = [random_lf(rng, depth - 1, pool) for _ in range(rng.randint(1, 3))]
    if roll < 0.5:
        return LFApp(kids[0], tuple(kids[1:]))
    if roll < 0.7:
        return LFAnn(kids[0], random_lf(rng, depth - 1, pool))
    if roll < 0.85:
        return SFunc(tuple(kids[:-1]), kids[-1])
    return FeatureTerm(rng.choice(BACKBONES), tuple(zip(FEATURES, kids)))


def _open(value: object) -> bool:
    # holds a variable or a placeholder
    return any(isinstance(x, (Var, Placeholder)) for x in leaves(value))


def _nodes(value: object):
    if isinstance(value, Node):
        yield value
        for child in value.children():
            yield from _nodes(child)


def test_ground_flag_is_true_exactly_without_variables():
    rng = random.Random(10)
    seen = set()
    for _ in range(400):
        pool: list[Var] = []
        t = random_term(rng, 3, pool)
        assert t.ground == (not _vars(t)), t
        seen.add(t.ground)
        # terms built by the kernel (through `map`) carry the flag too
        other = random_term(rng, 3, pool)
        binds = unify_values(t, other, EMPTY_BINDS)
        if binds is not None:
            r = resolve(t, binds)
            assert r.ground == (not _vars(r)), r
    assert seen == {True, False}
    # a placeholder stands for a daughter still to come
    assert not FeatureTerm("s", (("sem", Placeholder(1)),)).ground


def test_ground_flag_of_logical_forms_and_sorts():
    # every node kind follows one rule: ground exactly when it holds no
    # variable and no placeholder, whether built directly or by the kernel
    rng = random.Random(12)
    seen = set()
    for _ in range(500):
        pool: list[Var] = []
        t = random_lf(rng, 4, pool)
        other = random_lf(rng, 4, pool)
        fillers = {1: random_lf(rng, 2, []), 2: random_lf(rng, 2, [])}
        binds = unify_values(t, other, EMPTY_BINDS)
        built = [t, refresh(t, {}), substitute_placeholders(t, fillers)]
        if binds is not None:
            built.append(resolve(t, binds))
        for value in built:
            for node in _nodes(value):
                assert node.ground == (not _open(node)), node
                seen.add((type(node), node.ground))
        for node in _nodes(t):
            if node.ground:
                assert resolve(node, {v: "x" for v in pool}) is node
                assert refresh(node, {}) is node
                assert substitute_placeholders(node, fillers) is node
                assert FeatureTerm("s", (("sem", node),)).ground
    assert seen == {(kind, flag) for kind in (LFApp, LFAnn, SFunc, FeatureTerm)
                    for flag in (True, False)}


def test_a_ground_node_renders_once():
    # the text kept on a ground node is its render under any numbering,
    # and it leaves equality and hashing alone
    rng = random.Random(13)
    rendered = 0
    for _ in range(300):
        t = random_lf(rng, 4, [])
        copy = _rebuild(t)
        assert copy == t and hash(copy) == hash(t)
        assert canonical(t) == canonical(copy)
        # rendered again under another numbering, after the first render
        context = LFApp(Var("X"), (t, Var("Y"), t))
        assert canonical(context) == canonical(_rebuild(context))
        assert t == copy and hash(t) == hash(copy)
        for node in _nodes(t):
            if node.ground:
                assert node._text == canonical(_rebuild(node))
                rendered += 1
    assert rendered > 100


def _rebuild(value: object) -> object:
    # an equal copy with new nodes, none of them rendered yet
    if isinstance(value, Node):
        return value.map(lambda child, _arg: _rebuild(child), None)
    return value


def test_a_ground_term_is_its_own_copy():
    rng = random.Random(11)
    v = Var("V")
    binds = {v: "x"}
    grounds = [t for t in (random_term(rng, 3) for _ in range(300)) if t.ground]
    assert len(grounds) > 20
    for t in grounds:
        assert resolve(t, binds) is t
        assert refresh(t, {}) is t
        assert occurs(v, t, binds) is False


def test_equal_terms_hash_alike_however_built():
    # a feature term keeps its hash from construction, so every way of
    # building one must give equal terms equal hashes
    rng = random.Random(13)
    keep_all = Restrictor.from_paths([(b, (f,)) for b in BACKBONES for f in FEATURES])
    keep_f = Restrictor.from_paths([(b, ("f",)) for b in BACKBONES])
    for _ in range(300):
        t = random_term(rng, 3)
        only_f = FeatureTerm(t.backbone, [(n, v) for n, v in t.feats if n == "f"])
        pairs = [
            (t, FeatureTerm(t.backbone, reversed(t.feats))),
            (t, FeatureTerm._of_sorted(t.backbone, t.feats)),
            (t, t.map(lambda v, _: v, None)),
            (t, keep_all.restrict(t)),
            (only_f, keep_f.restrict(t)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
            assert {a: "found"}[b] == "found"


def test_a_bare_term_of_an_unrestricted_backbone_is_its_own_restriction():
    restrictor = Restrictor.from_paths([("np", ("agr",))])
    bare = FeatureTerm("vp")
    assert restrictor.restrict(bare) is bare
    # a term with features is rebuilt without them
    assert restrictor.restrict(FeatureTerm("vp", (("agr", "sg"),))) == bare


def test_unify_of_equal_ground_terms_returns_the_given_binds():
    t = FeatureTerm("np", (("agr", "sg"), ("sem", FeatureTerm("c", (("k", "v"),)))))
    same = FeatureTerm("np", (("sem", FeatureTerm("c", (("k", "v"),))), ("agr", "sg")))
    assert t.ground and same.ground and t == same and t is not same
    binds = {Var("X"): "y"}
    assert unify_values(t, same, binds) is binds
    # unequal ground terms still unify where features are missing: a
    # restricted prediction carries fewer features
    restricted = FeatureTerm("np")
    assert restricted.ground
    assert unify_values(restricted, FeatureTerm("np", (("agr", "sg"),)), binds) is binds
    assert unify_values(FeatureTerm("np", (("agr", "sg"),)), restricted, binds) is binds
    assert unify_values(t, FeatureTerm("np", (("agr", "pl"),)), binds) is None


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
    assert tuple(n for n, _ in restricted.feats) == ("agr",)
    other = restrictor.restrict(FeatureTerm("vp", (("agr", "sg"),)))
    assert tuple(n for n, _ in other.feats) == ()


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
    assert tuple(n for n, _ in restricted.feats) == ("g",)
    assert tuple(n for n, _ in restricted.get("g").feats) == ("f",)


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
