import pytest
from fractions import Fraction as F

from horokit import classify as cl, divisor as dv, mmp
from horokit.errors import NotAmple, PreconditionViolated
from horokit.rootdata import (GroupProduct, Root, SL, Spin, TORUS_FACTOR,
                              TRIVIAL_FACTOR)


def x1(G, beta, alphas, a):
    spec = cl.X1Spec(G, beta, alphas, a)
    return spec, cl.build_x1(spec)


def x2(G, alphas, a):
    spec = cl.X2Spec(G, alphas, a)
    return spec, cl.build_x2(spec)


def canonical_run(X, which="dn1"):
    last = len(X.divisors) - 1
    D0, Dlast = X.boundary_divisor(0), X.boundary_divisor(last)
    K = dv.anticanonical(X)
    Delta = (-1 * (Dlast if which == "dn1" else D0)) + K
    return mmp.run_log_mmp(X, D0 + Dlast, Delta)


CHAIN_012_COLORED = (GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2))),
        Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
CHAIN_012_TRIVIAL = (GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR)),
        Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 1, 2))
CHAIN_001_TRIVIAL = (GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR)),
        Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 0)), (0, 0, 1))


def test_build_family_matrices():
    spec, X = x1(*CHAIN_012_COLORED)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    K = dv.anticanonical(X)
    fam = mmp.build_family(X, D, (-1 * X.boundary_divisor(3)) + K)
    assert fam.A == ((F(-1), F(-1)), (F(1), F(0)), (F(0), F(1)), (F(1), F(2)))
    assert fam.B == (F(-1), F(0), F(0), F(-1))
    assert fam.C == (F(0), F(0), F(0), F(1))
    assert fam.v1 == tuple(-v for v in X.G.fundamental_weight(Root(0, 3)))
    spec2, X2 = x2(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                   (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    D2 = X2.boundary_divisor(0) + X2.boundary_divisor(3)
    fam2 = mmp.build_family(X2, D2, (-1 * X2.boundary_divisor(3)) +
                            dv.anticanonical(X2))
    assert fam2.A == ((F(-1), F(0)), (F(1), F(0)), (F(0), F(1)), (F(2), F(-1)))
    assert fam2.B == (F(-1), F(0), F(0), F(-1))
    assert fam2.C == (F(0), F(0), F(0), F(1))
    with pytest.raises(NotAmple):
        mmp.build_family(X, X.boundary_divisor(0), (-1 * D) + K)


def test_constant_family():
    spec, X = x1(*CHAIN_012_COLORED)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    K = dv.anticanonical(X)
    fam = mmp.build_family(X, D, K)  # K_X + Delta = 0
    assert all(v == 0 for v in fam.C) and all(v == 0 for v in fam.v1)
    cands, eps_max = mmp.critical_epsilons(fam)
    assert eps_max is None and cands == []


def test_critical_epsilons_examples():
    spec, X = x1(*CHAIN_012_COLORED)
    tr = canonical_run(X)
    assert tr.event_list() == [(F(1), mmp.FLIP), (F(2), mmp.FLIP),
                               (F(3), mmp.FIBRATION)]
    spec, X = x1(*CHAIN_001_TRIVIAL)
    tr = canonical_run(X)
    assert tr.event_list() == [(F(1), mmp.DIVISORIAL), (F(2), mmp.FIBRATION)]
    # the pruned row at the contraction is the G-stable last coordinate row
    ev = tr.events[0]
    assert ev.pruned_rows and all(tr.family.tags[r][0] == "x"
                                  for r in ev.pruned_rows)
    spec, X = x2(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                 (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    tr = canonical_run(X)
    assert tr.event_list() == [(F(1), mmp.FLIP), (F(3), mmp.FIBRATION)]


def test_trace_intervals_partition():
    for args in (CHAIN_012_COLORED, CHAIN_012_TRIVIAL, CHAIN_001_TRIVIAL):
        spec, X = x1(*args)
        tr = canonical_run(X)
        assert tr.intervals[0][0] == 0
        assert tr.intervals[-1][1] == tr.eps_max
        for (l1, h1, s1), (l2, h2, s2) in zip(tr.intervals, tr.intervals[1:]):
            assert h1 == l2
            assert s1 != s2
        # signatures constant at three interior samples
        for lo, hi, sigs in tr.intervals:
            for j in (1, 2, 3):
                eps = lo + (hi - lo) * F(j, 4)
                assert tr.family.signatures_at(eps) == sigs


def test_monotone_shrinking():
    spec, X = x1(*CHAIN_012_COLORED)
    tr = canonical_run(X)
    fam = tr.family
    from horokit import polyhedra as ph
    prev = None
    for eps in (F(0), F(1, 2), F(1), F(2), F(5, 2)):
        vs = set(ph.vertices(fam.system_at(eps)))
        if prev is not None:
            # inclusion: every vertex of the later member satisfies the
            # earlier constraints (C >= 0 rowwise here)
            for v in vs:
                assert all(sum(r[j] * v[j] for j in range(2)) >= b
                           for r, b in zip(fam.A, [bb + prev_eps * cc for bb, cc
                                                   in zip(fam.B, fam.C)]))
        prev, prev_eps = vs, eps


def test_first_program_single_fibration():
    spec, X = x1(*CHAIN_012_COLORED)
    tr = canonical_run(X, which="d0")
    assert tr.event_list() == [(F(1), mmp.FIBRATION)]
    # the terminal moment point is a multiple of w_beta
    v = tr.family.v_at(tr.eps_max)
    wb = X.G.fundamental_weight(Root(0, 3))
    assert v == wb
    # case 2: terminal polytope is a positive-dimensional simplex
    spec2, X2 = x2(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                   (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    tr2 = canonical_run(X2, which="d0")
    assert [k for _, k in tr2.event_list()] == [mmp.FIBRATION]
    from horokit import polyhedra as ph
    assert ph.polytope_dim(tr2.family.system_at(tr2.eps_max)) == 1


def test_case2_terminal_point():
    # the terminal polytope of the second family is the last u-vertex
    spec, X = x2(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                 (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    tr = canonical_run(X)
    from horokit import polyhedra as ph
    assert ph.vertices(tr.family.system_at(tr.eps_max)) == [(F(1), F(0))]
    # the trace-level fiber accessor agrees with the stored record
    recs = mmp.fibration_fibers(tr, tr.events[-1])
    assert tr.events[-1].fiber in recs


def test_general_fiber_records():
    # a_n = 0: the terminal fibration has rank-zero (flag) fibers
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2)))
    spec, X = x1(G, Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 1)), (0, 0, 0))
    tr = canonical_run(X)
    assert tr.event_list() == [(F(1), mmp.FIBRATION)]
    fib = tr.events[-1].fiber
    assert fib.rank == 0
    assert fib.numerator_colors is not None
    # orbit sets biject: one fiber record per source face
    assert len(tr.fibers) == len(tr.family.signatures_at(F(1, 2)))
    # fibration onto a point: general fiber dimension is dim X
    spec5, X5 = x1(*CHAIN_001_TRIVIAL)
    tr5 = canonical_run(X5)
    fib5 = tr5.events[-1].fiber
    assert fib5.dim == X5.dim()
    # case 1 psi run: fiber dim = dim X - dim G/P(w_beta)
    spec2, X2 = x1(*CHAIN_012_COLORED)
    tr2 = canonical_run(X2, which="d0")
    from horokit.rootdata import flag_dimension
    dgp = flag_dimension(X2.G, {r for r in X2.G.nontrivial_roots()
                                if r != Root(0, 3)})
    assert tr2.events[-1].fiber.dim == X2.dim() - dgp


def test_faces_case1_closed_form():
    # facets at eps = 3/2 for a = (0,1,2): four facets, one on the moving wall
    out = mmp.faces_case1(2, (0, 1, 2), F(3, 2))
    facets = [s for s, c in out.items() if c == 1]
    assert sorted(map(sorted, facets)) == [[0], [1], [2], [3]]
    assert len(out) == 9
    # eps = 1 with a = (0,0,1): the moving facet sits on the last edge row
    out = mmp.faces_case1(2, (0, 0, 1), F(1))
    facets = [s for s, c in out.items() if c == 1]
    assert frozenset({2, 3}) in out and out[frozenset({2, 3})] == 1
    # beyond the terminal value: empty
    assert mmp.faces_case1(2, (0, 1, 2), F(4)) == {}
    with pytest.raises(PreconditionViolated):
        mmp.faces_case1(2, (0, 0, 0), F(1, 2))


def test_faces_case2_closed_form():
    out = mmp.faces_case2(1, (0, 2), F(0))
    facets = sorted(sorted(s) for s, c in out.items() if c == 1)
    assert facets == [[0], [1], [2], [3]]
    assert len(out) == 9
    with pytest.raises(PreconditionViolated):
        mmp.faces_case2(2, (0, 1, 1), F(1, 2))


def test_faces_match_engine_on_shapes():
    spec, X = x1(*CHAIN_012_COLORED)
    tr = canonical_run(X)
    fam = tr.family
    for lo, hi, _ in tr.intervals:
        for j in (1, 7, 19):
            eps = lo + (hi - lo) * F(j, 20)
            pred = mmp.faces_case1(2, (0, 1, 2), eps)
            assert fam.signatures_at(eps, prune=False) == frozenset(pred)


def test_parametric_path_matches_static_path():
    from horokit import polyhedra as ph
    for spec, X in (x1(*CHAIN_012_COLORED), x1(*CHAIN_001_TRIVIAL),
                    x2(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                       (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))):
        tr = canonical_run(X)
        fam = tr.family
        # breakpoints and eps_max are among the samples
        for eps in (tr.eps_max * F(j, 6) for j in range(7)):
            S = fam.system_at(eps)
            assert fam.signatures_at(eps, prune=False) == \
                frozenset(f.active_rows for f in ph.face_lattice(S))
            assert fam.points_at(eps) == ph.basic_points(S.A, S.b)


def test_margin_admissibility_matches_quadruple_test():
    # the family's margin test and quadruple.is_admissible decide the same
    # question; compare them at eps = 0, each event, each midpoint and past
    # the end, on every 20th spec of the acceptance grid
    import gridgen
    from horokit import quadruple as qd
    grid = gridgen.case1_grid() + gridgen.case2_grid()
    for spec in grid[::20]:
        X = cl.build_x1(spec) if isinstance(spec, cl.X1Spec) else cl.build_x2(spec)
        tr = canonical_run(X)
        fam = tr.family
        events = [e.epsilon for e in tr.events]
        cuts = [F(0)] + events
        probes = set(cuts) | {(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])}
        probes.add(tr.eps_max + F(1, 3))
        for eps in sorted(probes):
            assert fam.admissible(eps) == \
                qd.is_admissible(fam.quadruple_at(eps))[0], (spec, eps)


README_SPEC = (GroupProduct((SL(3), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR)),
               Root(0, 1), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 2, 3))


def test_fan_geometry_work_counts(monkeypatch):
    # deterministic work counts, next to the wall-clock bounds of the
    # acceptance suite: a variety derives its fan skeleton once, not per
    # divisor
    from horokit import horo
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(horo, "extreme_rays", counted("rays", horo.extreme_rays))

    def work():
        counts.update(rays=0)
        _, X = x1(*README_SPEC)
        canonical_run(X)
        run = dict(counts)
        D = X.boundary_divisor(0) + X.boundary_divisor(len(X.divisors) - 1)
        rays_before = counts["rays"]
        dv.pl_function(X, D)
        return run, counts["rays"] - rays_before

    first = work()
    assert first[0]["rays"] > 0 and first[1] == 0, first
    assert work() == first


B3_TAIL = (GroupProduct((TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR, TORUS_FACTOR,
                          Spin(7))),
           (Root(0, 0), Root(1, 0), Root(2, 0), Root(3, 0), Root(4, 1), Root(4, 3)),
           (0, 1, 2, 3))


def test_validate_fan_work_counts(monkeypatch):
    # deterministic work counts: the wall certificate answers the overlaps
    # of the engine's complete simplicial fans with no pairwise pass, and a
    # fan it does not cover (a cone with a line) still takes that pass
    from horokit import horo
    from horokit.horo import ColoredCone, ColoredFan
    calls = []
    pairwise = horo._pairwise_overlaps
    monkeypatch.setattr(horo, "_pairwise_overlaps",
                        lambda cones: calls.append(1) or pairwise(cones))
    _, X = x1(*README_SPEC)
    _, X2 = x2(*B3_TAIL)
    for Y in (X, X2):
        assert horo._overlap_free(Y) and horo.validate_fan(Y) == []
    assert calls == []
    line = ColoredFan((ColoredCone((), frozenset()),
                       ColoredCone(((1, 0), (-1, 0)), frozenset()),
                       ColoredCone(((1, 0),), frozenset()),
                       ColoredCone(((-1, 0),), frozenset())))
    Y = horo.HoroVariety(X.hs, line)
    assert not horo._overlap_free(Y)
    issues = horo.validate_fan(Y)
    assert calls == [1] and any(s.startswith("OverlapViolation") for s in issues)


def test_variety_predicate_work_counts(monkeypatch):
    # deterministic work counts: once a variety is built, its predicates and
    # the nef certificate read its cached cone rays and color images, and
    # validate_fan and complete() share one wall table
    from collections import Counter
    from horokit import horo
    calls, images = Counter(), Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    sigma = horo.sigma
    monkeypatch.setattr(horo, "extreme_rays", counted("rays", horo.extreme_rays))
    monkeypatch.setattr(horo, "_walls", counted("walls", horo._walls))
    monkeypatch.setattr(horo, "sigma",
                        lambda hs, a: images.update([a]) or sigma(hs, a))
    for build, spec in ((x1, README_SPEC), (x2, B3_TAIL)):
        calls.clear()
        images.clear()
        _, X = build(*spec)
        built = calls["rays"]
        assert X.smooth() and X.picard_rank() == 2
        last = len(X.divisors) - 1
        assert dv.verify_nef_generators(X, X.boundary_divisor(0),
                                        X.boundary_divisor(last))
        assert calls["rays"] == built, calls
        assert images and max(images.values()) == 1, images
        assert horo.validate_fan(X) == [] and X.complete()
        assert calls["walls"] == 1, calls


def test_predict_trace_skeletons():
    spec, _ = x1(*CHAIN_012_TRIVIAL)
    sk = mmp.predict_trace_case1(spec)
    assert sk.event_list() == [(F(1), mmp.FLIP), (F(2), mmp.DIVISORIAL),
                               (F(3), mmp.FIBRATION)]
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2)))
    spec4 = cl.X1Spec(G, Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 1)),
                      (0, 0, 1))
    assert mmp.predict_trace_case1(spec4).event_list() == \
        [(F(1), mmp.FLIP), (F(2), mmp.FIBRATION)]
    spec8 = cl.X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                      (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    assert mmp.predict_trace_case2(spec8).event_list() == \
        [(F(1), mmp.FLIP), (F(3), mmp.FIBRATION)]
