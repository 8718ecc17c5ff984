import itertools
import random

import pytest

from horokit import classify as cl, horo, normalform as nform
from horokit.classify import RCFail, X1Spec, X2Spec, check_rc1, check_rc2
from horokit.normalform import FlagLeaf, ProjSpaceLeaf, RankOneLeaf, normalize
from horokit.errors import (HorokitError, NotRestrictedForm, NotSmoothInput,
                            RewriteDepthExceeded, SpecInvariantViolated)
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL, Sp, Spin,
                              TORUS_FACTOR, TRIVIAL_FACTOR)

E6 = GroupFactor("E", 6)


def w1_raw():
    G = GroupProduct((E6, TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
    return X1Spec(G, Root(0, 4),
                  (Root(1, 0), Root(0, 5), Root(2, 0), Root(3, 0),
                   Root(0, 1), Root(0, 2)),
                  (0, 0, 1, 1, 2, 2))


def w2_raw():
    G = GroupProduct((SL(2), SL(3), Sp(8), Spin(7)))
    return X2Spec(G, (Root(0, 1), Root(1, 1), Root(2, 1), Root(3, 1),
                      Root(3, 3)), (0, 0, 1))


def w3_raw():
    G = GroupProduct((TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR, SL(2),
                      TRIVIAL_FACTOR))
    return X2Spec(G, (Root(0, 0), Root(1, 0), Root(2, 0), Root(3, 1),
                      Root(4, 0)), (0, 2, 3))


def test_builders_pass_all_checks():
    specs = [
        w1_raw(),
        X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
               Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2)),
        X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
               (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2)),
    ]
    for spec in specs:
        X = cl.build_x1(spec) if isinstance(spec, X1Spec) else cl.build_x2(spec)
        assert horo.validate_fan(X) == []
        assert X.complete() and X.locally_factorial()
        assert X.picard_rank() == 2


def test_builder_smoothness_tracks_rc():
    # an RC-passing spec is smooth; breaking the quadruple breaks smoothness
    good = X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2))),
                  Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 1)), (0, 0, 1))
    assert cl.build_x1(good).smooth()
    bad = X1Spec(GroupProduct((GroupFactor("B", 4), TRIVIAL_FACTOR)),
                 Root(0, 1), (Root(1, 0), Root(0, 4)), (0, 1))
    assert not cl.build_x1(bad).smooth()
    assert isinstance(check_rc1(bad), RCFail)


def test_check_rc1_examples():
    rc = check_rc1(w1_raw())
    assert isinstance(rc, RCFail) and "factor 0" in rc.reason
    # rank-one pair in an outer factor, for any anchor factor and root
    spec_a = X1Spec(GroupProduct((GroupFactor("B", 3), SL(4))),
                    Root(0, 2), (Root(1, 1), Root(1, 3)), (0, 1))
    assert check_rc1(spec_a) == "a"
    for beta in (1, 2, 3):
        s = X1Spec(GroupProduct((SL(6), SL(4))), Root(0, beta),
                   (Root(1, 1), Root(1, 3)), (0, 1))
        assert check_rc1(s) == "a"
    spec_b = X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2))),
                    Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 1)), (0, 0, 1))
    assert check_rc1(spec_b) == "b"
    spec_c = X1Spec(GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR)),
                    Root(0, 1), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 2, 3))
    assert check_rc1(spec_c) == "c"
    # covering-group clause
    spec_cov = X1Spec(GroupProduct((Sp(8), TRIVIAL_FACTOR, TORUS_FACTOR)),
                      Root(0, 1), (Root(1, 0), Root(2, 0)), (0, 1))
    rc = check_rc1(spec_cov)
    assert isinstance(rc, RCFail) and "cover" in rc.reason


def test_check_rc2_examples():
    rc = check_rc2(w2_raw())
    assert isinstance(rc, RCFail)
    rc3 = check_rc2(w3_raw())
    assert isinstance(rc3, RCFail)  # tail pair is split, not two-orbit
    spec_a = X2Spec(GroupProduct((SL(4), Sp(6))),
                    (Root(0, 1), Root(0, 2), Root(1, 2), Root(1, 3)), (0, 1))
    assert check_rc2(spec_a) == "a"
    spec_c = X2Spec(GroupProduct((TRIVIAL_FACTOR, TORUS_FACTOR, GroupFactor("F", 4))),
                    (Root(0, 0), Root(1, 0), Root(2, 2), Root(2, 3)), (0, 1))
    assert check_rc2(spec_c) == "c"
    spec_b = X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                    (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    assert check_rc2(spec_b) == "b"


def test_normalize_fixtures():
    nf1 = normalize(w1_raw())
    assert nf1.kind == "x1" and nf1.rc == "b"
    assert repr(nf1.spec.G) == "E6 x 1 x A1"
    assert nf1.spec.beta == Root(0, 4)
    assert nf1.spec.alphas == (Root(1, 0), Root(0, 5), Root(2, 1),
                               Root(0, 1), Root(0, 2))
    assert nf1.spec.a == (0, 0, 1, 2, 2)

    nf2 = normalize(w2_raw())
    assert nf2.kind == "x2" and nf2.rc == "b"
    assert repr(nf2.spec.G) == "A4 x A7 x B3"
    assert nf2.spec.alphas == (Root(0, 1), Root(1, 1), Root(2, 1), Root(2, 3))
    assert nf2.spec.a == (0, 1)

    nf3 = normalize(w3_raw())
    assert nf3.kind == "x1" and nf3.rc == "c"
    assert repr(nf3.spec.G) == "A2 x 1 x C* x C*"
    assert nf3.spec.beta == Root(0, 1)
    assert nf3.spec.a == (0, 2, 3)


def test_normalize_depth_guard_is_a_domain_error():
    # the CLI turns a HorokitError into exit 1; a bare RuntimeError would
    # end in a traceback
    with pytest.raises(RewriteDepthExceeded) as exc:
        normalize(w1_raw(), _depth=65)
    assert isinstance(exc.value, HorokitError)


def test_normalize_idempotent():
    for raw in (w1_raw(), w2_raw(), w3_raw()):
        nf = normalize(raw)
        again = normalize(nf.spec)
        assert again.kind == nf.kind and again.rc == nf.rc
        assert again.spec == nf.spec


def test_normalize_rule_permutation_confluence():
    perms1 = list(itertools.permutations(nform.X1_RULES))
    perms2 = list(itertools.permutations(nform.X2_RULES))
    random.Random(3).shuffle(perms1)
    for raw_fn in (w1_raw, w2_raw, w3_raw):
        base = normalize(raw_fn())
        for p1 in perms1[:12]:
            for p2 in perms2:
                nf = normalize(raw_fn(), x1_rules=p1, x2_rules=p2)
                assert nf.kind == base.kind and nf.rc == base.rc
                assert nf.spec == base.spec


def _random_raw_specs(count, seed=11):
    rng = random.Random(seed)
    out = []
    g0_pool = [SL(4), SL(6), GroupFactor("B", 3), GroupFactor("C", 3), E6]
    while len(out) < count:
        g0 = rng.choice(g0_pool)
        beta = rng.randint(1, g0.rank)
        n = rng.randint(1, 3)
        factors = [g0]
        alphas = []
        used_g0 = set()
        a = [0]
        for i in range(1, n):
            a.append(a[-1] + rng.choice((0, 0, 1, 2)))
        a.append(a[-1] + rng.choice((0, 1, 2)))
        ok = True
        for i in range(n + 1):
            kind = rng.choice(("g0", "torus", "sl", "sp"))
            if kind == "g0":
                cand = [j for j in range(1, g0.rank + 1)
                        if j != beta and j not in used_g0]
                if not cand:
                    ok = False
                    break
                j = rng.choice(cand)
                used_g0.add(j)
                alphas.append(Root(0, j))
            elif kind == "torus":
                factors.append(TORUS_FACTOR)
                alphas.append(Root(len(factors) - 1, 0))
            elif kind == "sl":
                factors.append(SL(rng.choice((2, 3))))
                alphas.append(Root(len(factors) - 1, 1))
            else:
                factors.append(Sp(rng.choice((4, 6))))
                alphas.append(Root(len(factors) - 1, 1))
        if not ok:
            continue
        try:
            spec = X1Spec(GroupProduct(tuple(factors)), Root(0, beta),
                          tuple(alphas), tuple(a))
            nform._smoothness_gate_x1(spec)
        except (SpecInvariantViolated, NotSmoothInput):
            continue
        out.append(spec)
    return out


def test_normalize_random_grid_dimension_preserved():
    specs = _random_raw_specs(200)
    perms = list(itertools.permutations(nform.X1_RULES))
    rng = random.Random(5)
    for spec in specs:
        try:
            nf = normalize(spec)
        except NotSmoothInput:
            continue
        if nf.kind == "x1":
            assert nf.spec.dim() == spec.dim()
            assert normalize(nf.spec).spec == nf.spec  # idempotent
            for p in rng.sample(perms, 4):
                alt = normalize(spec, x1_rules=p)
                assert alt.kind == "x1" and alt.spec == nf.spec
        else:
            assert nf.kind == "product"


def test_rewrite_steps_preserve_dimension():
    # every individual rule application preserves the open-orbit dimension
    for raw_fn in (w1_raw, w3_raw):
        spec = raw_fn()
        if isinstance(spec, X2Spec):
            rules = nform.X2_RULES
        else:
            rules = nform.X1_RULES
        while True:
            for rule in rules:
                new = rule(spec)
                if new is not None:
                    break
            else:
                break
            if isinstance(new, nform.NormalForm):
                break
            assert new.dim() == spec.dim()
            spec = new
            rules = nform.X1_RULES if isinstance(spec, X1Spec) else nform.X2_RULES


def test_normalize_products():
    # rank-one zero tie across two outer factors: projective-space product
    spec = X1Spec(GroupProduct((SL(4), SL(2), SL(3))),
                  Root(0, 2), (Root(1, 1), Root(2, 1)), (0, 0))
    nf = normalize(spec)
    assert nf.kind == "product"
    kinds = {type(p) for p in nf.parts}
    assert kinds == {ProjSpaceLeaf, FlagLeaf}
    ps = next(p for p in nf.parts if isinstance(p, ProjSpaceLeaf))
    assert ps.dim == 4  # P(C^2 + C^3)
    # rank-one zero tie inside one outer factor: flag times rank-one leaf
    spec2 = X1Spec(GroupProduct((SL(4), Spin(7))),
                   Root(0, 1), (Root(1, 1), Root(1, 3)), (0, 0))
    nf2 = normalize(spec2)
    assert nf2.kind == "product"
    leaf = next(p for p in nf2.parts if isinstance(p, RankOneLeaf))
    assert leaf.factor == Spin(7) and leaf.classify() == "SmoothTwoOrbitType"
    # leading pair of the second family with a zero tie: two rank-one leaves
    spec3 = X2Spec(GroupProduct((SL(5), Spin(7))),
                   (Root(0, 1), Root(0, 4), Root(1, 1), Root(1, 3)), (0, 0))
    nf3 = normalize(spec3)
    assert nf3.kind == "product"
    assert all(isinstance(p, RankOneLeaf) for p in nf3.parts)


def test_exceptional_loci_case1():
    spec = X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
                  Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    loci = nform.exceptional_loci(spec)
    assert len(loci) == 3  # E_0, E_1, E_2 = X
    assert loci[-1].face_index_set == ()
    assert loci[-1].dim == spec.dim()
    assert [l.rank for l in loci] == [0, 1, 2]
    # ambient weight lists grow one line per level
    assert [len(l.weights) for l in loci] == [1, 2, 3]
    G = spec.G
    wb = G.fundamental_weight(Root(0, 3))
    w0 = G.fundamental_weight(Root(1, 0))
    assert loci[0].weights[0] == tuple(x + y for x, y in zip(w0, wb))
    # E_1 re-enters the classification as a rank-one-smaller spec
    sub = loci[1].subspec
    assert isinstance(sub, X1Spec) and sub.n == 1 and sub.a == (0, 1)
    with pytest.raises(NotRestrictedForm):
        nform.exceptional_loci(X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2))),
                                   Root(0, 3),
                                   (Root(1, 0), Root(0, 1), Root(2, 1)),
                                   (0, 0, 0)))


def test_exceptional_loci_case2():
    spec = X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                  (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    loci = nform.exceptional_loci(spec)
    assert [l.rank for l in loci] == [1, 2]
    assert loci[-1].dim == spec.dim()
    assert loci[0].subspec is None  # product of a two-orbit leaf and a flag


def test_fiber_dimension_table_identities():
    from horokit.rootdata import flag_dimension
    spec = X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
                  Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    rows = nform.fiber_dimension_table(spec)
    loci = nform.exceptional_loci(spec)
    G = spec.G
    dgp = flag_dimension(G, {r for r in G.nontrivial_roots() if r != spec.beta})
    for row in rows:
        dim_prev = loci[row.level - 1].dim if row.level >= 1 else dgp - 1
        for j, dj in zip(row.js, row.fiber_dims):
            lhs1 = dgp + dj - dim_prev - 1
            rhs1 = nform._pq_dim(G, [spec.alphas[j]], [spec.beta, spec.alphas[j]])
            assert lhs1 == rhs1
            walpha = spec.alphas[j]
            dga = flag_dimension(G, {r for r in G.nontrivial_roots()
                                     if r != walpha}) \
                if not G.is_trivial_root(walpha) else 0
            lhs2 = dga + dj - dim_prev - 1
            rhs2 = nform._pq_dim(G, [spec.beta], [spec.beta, walpha])
            assert lhs2 == rhs2
    # level 0 with a gap of one and an outer root: fiber dim = dim G/P(beta)
    assert rows[0].case == 1 and rows[0].fiber_dims == (dgp,)


def test_psi_fibration():
    spec = X1Spec(GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
                  Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    out = nform.psi_fibration(spec)
    assert out.fiber_class == nform.PROJECTIVE_SPACE
    from horokit.rootdata import flag_dimension
    dgp = flag_dimension(spec.G, {r for r in spec.G.nontrivial_roots()
                                  if r != spec.beta})
    assert out.fiber_dim == spec.dim() - dgp
    # rank-one pair of homogeneous type: Grassmannian-like fiber
    spec_a = X1Spec(GroupProduct((GroupFactor("B", 3), SL(5))),
                    Root(0, 2), (Root(1, 2), Root(1, 3)), (0, 1))
    assert nform.psi_fibration(spec_a).fiber_class == nform.HOMOGENEOUS_NON_PS
    # two-orbit tail target for the second family
    spec2 = X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                   (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    out2 = nform.psi_fibration(spec2)
    assert "two-orbit" in out2.target
    assert out2.fiber_class == nform.PROJECTIVE_SPACE
