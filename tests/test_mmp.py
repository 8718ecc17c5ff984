import random
from fractions import Fraction as F

import pytest

import gridgen
from horokit import classify as cl, divisor as dv, mmp, polyhedra as ph
from horokit.errors import NotAmple, PreconditionViolated, UnboundedPolyhedron
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


def test_unbounded_family_is_rejected():
    # the admissibility and redundancy rules read the family's one vertex
    # table and are exact on bounded families only, which build_family
    # always gives (D is ample); a hand-built unbounded family is refused
    spec, X = x1(*CHAIN_012_COLORED)
    tags = tuple(ph.gstable_tag(i) for i in range(3))
    for A, B, C in (
            # x >= 0, y >= eps, y >= x - 1: both vertices lie on y = eps,
            # though the region has interior points at every eps
            (((1, 0), (0, 1), (-1, 1)), (0, 0, -1), (0, 1, 0)),
            # the strip 0 <= x <= 1 - eps, y >= 0
            (((1, 0), (0, 1), (-1, 0)), (0, 0, -1), (0, 0, 1))):
        fam = mmp.MMPFamily(X, A, B, C, tags, X.G.zero_weight(), X.G.zero_weight())
        with pytest.raises(UnboundedPolyhedron):
            mmp.critical_epsilons(fam)


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
            assert frozenset(ph.rows_of(s) for s in fam.signature_masks_at(eps)) == \
                frozenset(pred)


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
            assert frozenset(ph.rows_of(s) for s in fam.signature_masks_at(eps)) == \
                frozenset(f.active_rows for f in ph.face_lattice(S))
            found = ph.feasible_at(fam._vertices(), fam.signs_at(eps))
            assert sorted((e.point(eps), ph.rows_of(mask)) for mask, e in found.items()) \
                == ph.basic_points(S.A, S.b)


def test_margin_admissibility_matches_quadruple_test():
    # the family's admissibility rule and quadruple.is_admissible decide
    # the same question; compare them at eps = 0, each event, each midpoint
    # and past the end, on every 20th spec of the acceptance grid
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
    # divisor, with one adjugate per maximal cone and no cone_contains call;
    # a Log-MMP run builds one vertex table, the family's own; the run and a
    # sweep of face queries close one face lattice per distinct vertex set,
    # so the sweep closes only the vertex sets of its chambers not yet closed
    from horokit import horo, quadruple as qd
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(horo, "extreme_rays", counted("rays", horo.extreme_rays))
    monkeypatch.setattr(horo, "adjugate", counted("adjugate", horo.adjugate))
    monkeypatch.setattr(horo, "cone_contains", counted("contains", horo.cone_contains))
    closed = []

    def closure(masks):
        closed.append(frozenset(masks))
        return ph.closure_masks(masks)

    monkeypatch.setattr(mmp, "closure_masks", closure)
    tables = counted("tables", ph.vertex_table)
    for module in (ph, mmp, qd):
        monkeypatch.setattr(module, "vertex_table", tables)

    def work():
        counts.update(rays=0, adjugate=0, contains=0, tables=0)
        closed.clear()
        _, X = x1(*README_SPEC)
        built = dict(counts)
        trace = canonical_run(X)
        run_tables = counts["tables"] - built["tables"]
        last = len(X.divisors) - 1
        D0, Dlast = X.boundary_divisor(0), X.boundary_divisor(last)
        assert dv.verify_nef_generators(X, D0, Dlast)
        run = dict(counts)
        dv.pl_function(X, D0 + Dlast)
        again = {k: counts[k] - run[k] for k in ("rays", "adjugate", "contains")}
        fam = trace.family
        table = fam._vertices()
        signs, vertex_sets, before = set(), set(), set(closed)
        for lo, hi, _ in trace.intervals:
            # the interval's lower end, a root of a slack, then generic points
            for eps in [lo] + [lo + (hi - lo) * F(2 * j - 1, 41) for j in range(1, 21)]:
                fam.signature_masks_at(eps)
                signs.add(tuple((u * eps.denominator + v * eps.numerator > 0) -
                                (u * eps.denominator + v * eps.numerator < 0)
                                for e in table for u, v in zip(e.U, e.V)))
                vertex_sets.add(frozenset(ph.feasible_at(table, ph.slack_signs(table, eps))))
        assert len(closed) == len(set(closed))
        sweep = closed[len(before):]
        assert set(sweep) == vertex_sets - before
        sweep = (len(signs), len(vertex_sets), len(sweep), len(closed))
        maximal = sum(len(r) == X.rank for r in X.cone_rays())
        return built, run, again, maximal, len(trace.intervals), sweep, run_tables

    first = work()
    built, run, again, maximal, intervals, sweep, run_tables = first
    assert built["rays"] > 0 and run["rays"] == built["rays"], first
    assert run["adjugate"] == maximal == 3 and run["contains"] == built["contains"], first
    assert again == {"rays": 0, "adjugate": 0, "contains": 0}, first
    # 5 chambers swept over 5 vertex sets, of which the run closed 4 already;
    # 6 distinct vertex sets closed in all
    assert (intervals, sweep) == (3, (5, 5, 1, 6)), first
    assert run_tables == 1, first
    assert work() == first


def test_chamber_memo_matches_recomputation():
    # the face queries answer once per chamber of eps; on seeded grid specs,
    # at every candidate, midpoint and 20 generic points per interval, at 0,
    # below 0, past eps_max, and at every root of a slack (candidate or not)
    # and between two consecutive ones, they equal a recomputation on a copy
    # of the family with no chamber answered yet, as they do on the family
    # moved to put its breakpoints below 0.  The queries run in shuffled
    # order, so a stale chamber would show.
    import copy
    rng = random.Random(23)
    grid = gridgen.case1_grid() + gridgen.case2_grid()
    names = ("admissible", "signature_masks_at", "signatures_at", "pruned_rows_at")
    off_candidates = 0
    for spec in rng.sample(grid, 10):
        X = cl.build_x1(spec) if isinstance(spec, cl.X1Spec) else cl.build_x2(spec)
        fam = canonical_run(X).family
        cands, eps_max = mmp.critical_epsilons(fam)
        cuts = [F(0)] + cands + [eps_max]
        points = set(cuts) | {F(-1, 3), eps_max + F(1, 2), 2 * eps_max}
        for lo, hi in zip(cuts, cuts[1:]):
            points |= {lo + (hi - lo) * F(2 * j - 1, 41) for j in range(1, 21)}
            points.add((lo + hi) / 2)
        # every chamber: each root of a slack, and a point between two
        # consecutive roots, below the first and above the last
        roots = sorted({F(-u, v) for e in fam._vertices() for u, v in zip(e.U, e.V) if v})
        off_candidates += len(set(roots) - set(cands))
        points |= set(roots) | {(a + b) / 2 for a, b in zip(roots, roots[1:])}
        points |= {roots[0] - 1, roots[-1] + 1}
        # the same family moved down by eps_max / 2 puts breakpoints below 0
        t = eps_max / 2
        moved = mmp.MMPFamily(X, fam.A, tuple(b + t * c for b, c in zip(fam.B, fam.C)),
                              fam.C, fam.tags, fam.v0, fam.v1)
        queries = [(f, name, eps - s) for f, s in ((fam, 0), (moved, t))
                   for name in names for eps in points]
        rng.shuffle(queries)
        for f, name, eps in queries:
            fresh = copy.copy(f)
            fresh._chambers = {}
            assert getattr(f, name)(eps) == getattr(fresh, name)(eps), (spec, name, eps)
    assert off_candidates > 0


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
                        lambda Y: calls.append(1) or pairwise(Y))
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


def test_pairwise_overlaps_read_the_variety_rays(monkeypatch):
    # deterministic work counts: the pairwise pass reads the rays of
    # X.cone_rays() and derives none.  The complete fan over the faces of the
    # cube has square cones, so the wall certificate does not cover it.
    from itertools import product
    from horokit import horo
    from horokit.horo import ColoredCone, ColoredFan, HomSpaceData
    hs = HomSpaceData(GroupProduct((SL(2), TORUS_FACTOR, TORUS_FACTOR)),
                      frozenset({Root(0, 1)}), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    corners = list(product((1, -1), repeat=3))
    cones = [ColoredCone(())] + [ColoredCone((v,)) for v in corners] + \
        [ColoredCone(tuple(v for v in corners if v[i] == s))
         for i in range(3) for s in (1, -1)] + \
        [ColoredCone((u, v)) for u, v in product(corners, repeat=2)
         if u < v and sum(x != y for x, y in zip(u, v)) == 1]
    assert len(cones) == 27
    calls = []
    rays = horo.extreme_rays
    monkeypatch.setattr(horo, "extreme_rays", lambda g: calls.append(1) or rays(g))
    X = horo.HoroVariety(hs, ColoredFan(tuple(cones)))
    # one call per cone for X.cone_rays(), one per face of each of the six
    # square cones (1 + 4 + 4 + 1 faces) for cone_faces; 789 when each pair
    # derived its rays again
    assert horo.validate_fan(X) == [] and not horo._overlap_free(X)
    assert len(calls) == 27 + 6 * 10
    del calls[:]
    assert horo._pairwise_overlaps(X) == [] and calls == []
    # a diagonal of the top square overlaps that square and nothing else
    diagonal = ColoredCone(((1, 1, 1), (-1, -1, 1)))
    Y = horo.HoroVariety(hs, ColoredFan(tuple(cones) + (diagonal,)))
    assert [s for s in horo.validate_fan(Y) if s.startswith("OverlapViolation")] == [
        "OverlapViolation: ColoredCone(generators=((1, 1, 1), (1, -1, 1), (-1, 1, 1), "
        "(-1, -1, 1)), colors=frozenset()) and ColoredCone(generators=((1, 1, 1), "
        "(-1, -1, 1)), colors=frozenset())"]


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


def test_family_one_beyond_the_grid_matches_closed_forms():
    # rank 5 with a-entries <= 6, past the acceptance grid (rank <= 4,
    # entries <= 4): seeded draws of chains and triviality patterns, realized
    # over A5 as in gridgen.  The trace and eps_max equal the closed form,
    # and at generic eps so do the family's face signatures and the static
    # face lattice of its member, whose dimensions are n - codim, as the
    # member is full-dimensional below eps_max.
    rng = random.Random(5)
    n, realized, lattices = 5, 0, 0
    while realized < 100:
        chain = (0,) + tuple(sorted(rng.randint(0, 6) for _ in range(n)))
        pattern = ("triv",) + tuple(
            "r0" if chain[j] in chain[:j] else rng.choice(("outer", "triv"))
            for j in range(1, n + 1))
        spec = gridgen._realize_case1("A5", chain, pattern)
        if spec is None:
            continue
        realized += 1
        trace = canonical_run(cl.build_x1(spec))
        skeleton = mmp.predict_trace_case1(spec)
        assert trace.event_list() == skeleton.event_list(), spec
        assert trace.eps_max == skeleton.eps_max, spec
        if chain[n] == 0:
            continue  # the face proposition needs a nonzero chain end
        fam = trace.family
        for lo, hi, _ in trace.intervals:
            for eps in (lo + (hi - lo) / 5, lo + (hi - lo) * 3 / 5):
                want = mmp.faces_case1(n, chain, eps)
                assert fam.signature_masks_at(eps) == \
                    frozenset(ph.mask_of(sig) for sig in want), (spec, eps)
                lattice = ph.face_lattice(fam.system_at(eps))
                assert {(f.active_rows, f.dim) for f in lattice} == \
                    {(sig, n - codim) for sig, codim in want.items()}, (spec, eps)
                lattices += 1
    assert lattices > 500
