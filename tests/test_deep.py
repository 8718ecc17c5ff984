"""
Deeper checks on the rewrite system's covering-group and tail-conversion
paths, shape detection on tied data, per-orbit fiber bookkeeping, and a few
error paths.
"""

import pytest
from fractions import Fraction as F

from horokit import classify as cl, divisor as dv, horo, mmp
from horokit.classify import X1Spec, X2Spec
from horokit.normalform import normalize
from horokit.errors import DegenerateFamily
from horokit.horo import ColoredCone, ColoredFan, HomSpaceData
from horokit.polyhedra import rows_of
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL, Sp, Spin,
                              TORUS_FACTOR, TRIVIAL_FACTOR, flag_dimension)


def _cover_raw(g0, beta):
    G = GroupProduct((g0, TRIVIAL_FACTOR, TORUS_FACTOR))
    return X1Spec(G, Root(0, beta), (Root(1, 0), Root(2, 0)), (0, 1))


def test_covering_group_rewrites():
    # symplectic first node -> special linear first node
    raw = _cover_raw(Sp(6), 1)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == SL(6) and nf.spec.beta == Root(0, 1)
    assert nf.spec.dim() == raw.dim()
    # short node of the exceptional rank-two type -> rank-three orthogonal
    raw = _cover_raw(GroupFactor("G", 2), 1)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("B", 3)
    assert nf.spec.beta == Root(0, 1)
    assert nf.spec.dim() == raw.dim()
    # spin node of B3 -> rank-four binary type, canonical node
    raw = _cover_raw(Spin(7), 3)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("D", 4)
    assert nf.spec.beta == Root(0, 1)  # all leaves are symmetric here
    assert nf.spec.dim() == raw.dim()
    # spin node of B4 -> D5 spin node (canonical one of the swapped pair)
    raw = _cover_raw(Spin(9), 4)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("D", 5)
    assert nf.spec.beta == Root(0, 4)
    assert nf.spec.dim() == raw.dim()


def _x2_with_tail(tail_factor, g, d, a=(0, 1)):
    factors = (TRIVIAL_FACTOR, TORUS_FACTOR, tail_factor)
    alphas = (Root(0, 0), Root(1, 0), Root(2, g), Root(2, d))
    return X2Spec(GroupProduct(factors), alphas, a)


def test_tail_conversions():
    # end pair (type A, both ends) -> even orthogonal vector node
    raw = _x2_with_tail(SL(4), 1, 3)
    nf = normalize(raw)
    assert nf.kind == "x1"
    assert nf.spec.G.factors[0] == GroupFactor("D", 4)
    assert nf.spec.dim() == raw.dim()
    # small case: the rank-two ends collapse to A3's middle node
    raw = _x2_with_tail(SL(3), 1, 2)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("A", 3)
    assert nf.spec.beta == Root(0, 2)
    assert nf.spec.dim() == raw.dim()
    # consecutive type-A pair -> one-larger type A
    raw = _x2_with_tail(SL(4), 2, 3)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("A", 4)
    assert nf.spec.beta == Root(0, 3)
    assert nf.spec.dim() == raw.dim()
    # binary-type leaf pair -> odd spin node, which the covering rule then
    # lifts to the isomorphic even spinor presentation (no other roots sit
    # in the anchor factor here)
    raw = _x2_with_tail(Spin(10), 4, 5)
    nf = normalize(raw)
    assert nf.spec.G.factors[0] == GroupFactor("D", 6)
    assert nf.spec.beta == Root(0, 5)
    assert nf.spec.dim() == raw.dim()
    for pair in ((3, 4), (1, 3), (1, 4)):
        raw = _x2_with_tail(Spin(8), *pair)
        nf = normalize(raw)
        assert nf.spec.G.factors[0] == GroupFactor("D", 5)
        assert nf.spec.beta == Root(0, 4)
        assert nf.spec.dim() == raw.dim()
    # split tail -> merged type-A line
    raw = X2Spec(GroupProduct((TRIVIAL_FACTOR, TORUS_FACTOR, SL(2), TRIVIAL_FACTOR)),
                 (Root(0, 0), Root(1, 0), Root(2, 1), Root(3, 0)), (0, 1))
    nf = normalize(raw)
    assert nf.kind == "x1" and nf.spec.G.factors[0] == SL(3)
    assert nf.spec.dim() == raw.dim()
    # a two-orbit tail stays in the second family
    raw = _x2_with_tail(Spin(7), 1, 3)
    nf = normalize(raw)
    assert nf.kind == "x2" and nf.rc == "c"


def test_head_pair_stays():
    # sub-case (a) of the second family keeps a smooth homogeneous head pair
    spec = X2Spec(GroupProduct((SL(4), Sp(6))),
                  (Root(0, 1), Root(0, 2), Root(1, 2), Root(1, 3)), (0, 1))
    nf = normalize(spec)
    assert nf.kind == "x2" and nf.rc == "a"
    assert nf.spec == spec


def test_case2_shape_on_tied_toric_data():
    # product-of-lines toric fan: both edge splits are zero-sum; the
    # detector must settle on one deterministically
    GT = GroupProduct((TORUS_FACTOR, TORUS_FACTOR))
    hs = HomSpaceData(GT, frozenset(), ((F(1), F(0)), (F(0), F(1))))
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    cones = [ColoredCone((), frozenset())]
    cones += [ColoredCone((r,), frozenset()) for r in rays]
    for rx in ((1, 0), (-1, 0)):
        for ry in ((0, 1), (0, -1)):
            cones.append(ColoredCone((rx, ry), frozenset()))
    fan = ColoredFan(tuple(cones))
    shape = horo.case_detect(horo.HoroVariety(hs, fan))
    assert isinstance(shape, horo.Case2Shape)
    assert (shape.r, shape.s) == (1, 1) and shape.a == (0,)


def test_case2_fan_validates():
    spec = X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), Spin(7))),
                  (Root(0, 0), Root(1, 1), Root(2, 1), Root(2, 3)), (0, 2))
    X = cl.build_x2(spec)
    assert horo.validate_fan(X) == []
    assert X.smooth()


def test_per_orbit_fiber_dimensions_flag_case():
    # flat chain: the terminal fibration is rank-preserving orbit by orbit,
    # and every fiber dimension is a difference of flag dimensions
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, SL(2)))
    spec = X1Spec(G, Root(0, 3), (Root(1, 0), Root(0, 1), Root(2, 1)), (0, 0, 0))
    X = cl.build_x1(spec)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    Delta = (-1 * X.boundary_divisor(3)) + dv.anticanonical(X)
    trace = mmp.run_log_mmp(X, D, Delta)
    assert len(trace.fibers) == 7
    for rec in trace.fibers:
        assert rec.rank == 0
        levi_src = {r for r in G.nontrivial_roots()
                    if r not in rec.denominator_colors}
        levi_tgt = {r for r in G.nontrivial_roots()
                    if r not in rec.numerator_colors}
        assert rec.dim == flag_dimension(G, levi_src) - flag_dimension(G, levi_tgt)
        # the parabolic only grows by the distinguished node
        assert rec.denominator_colors - rec.numerator_colors == {Root(0, 3)}


def test_degenerate_family_rejected():
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    spec = X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    X = cl.build_x1(spec)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    fam = mmp.build_family(X, D, (-1 * X.boundary_divisor(3)) + dv.anticanonical(X))
    # shift the family past its terminal value by hand
    dead = mmp.MMPFamily(X, fam.A,
                         tuple(b + 10 for b in fam.B), fam.C, fam.tags,
                         fam.v0, fam.v1)
    with pytest.raises(DegenerateFamily):
        mmp.critical_epsilons(dead)


def test_faces_closed_form_at_breakpoints():
    # the closed forms carry the equality branches, so they also match the
    # unpruned engine signatures exactly at the event values
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, TORUS_FACTOR))
    spec = X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 0)), (0, 1, 2))
    X = cl.build_x1(spec)
    D = X.boundary_divisor(0) + X.boundary_divisor(3)
    trace = mmp.run_log_mmp(X, D, (-1 * X.boundary_divisor(3)) + dv.anticanonical(X))
    fam = trace.family
    for ev in trace.events:
        if ev.kind == mmp.FIBRATION:
            continue
        pred = mmp.faces_case1(2, (0, 1, 2), ev.epsilon)
        assert frozenset(rows_of(s) for s in fam.signature_masks_at(ev.epsilon)) == \
            frozenset(pred)


def test_non_canonical_ample_reference():
    # arbitrary ample reference divisors rescale the breakpoints but the run
    # still ends in a single fibration with increasing exact events
    G = GroupProduct((SL(6), TRIVIAL_FACTOR, TORUS_FACTOR, SL(2)))
    spec = X1Spec(G, Root(0, 3), (Root(1, 0), Root(2, 0), Root(3, 1)), (0, 1, 2))
    X = cl.build_x1(spec)
    D = 2 * X.boundary_divisor(0) + 3 * X.boundary_divisor(3)
    assert dv.ample_status(X, D) == dv.AMPLE
    Delta = (-1 * X.boundary_divisor(3)) + dv.anticanonical(X)
    trace = mmp.run_log_mmp(X, D, Delta)
    eps = [e for e, _ in trace.event_list()]
    assert eps == sorted(eps) and trace.eps_max == eps[-1]
    assert [k for _, k in trace.event_list()].count(mmp.FIBRATION) == 1
    assert [k for _, k in trace.event_list()][-1] == mmp.FIBRATION


def test_rank_three_second_family_round_trip():
    spec = X2Spec(GroupProduct((TRIVIAL_FACTOR, SL(2), TORUS_FACTOR, Spin(7))),
                  (Root(0, 0), Root(1, 1), Root(2, 0), Root(3, 1), Root(3, 3)),
                  (0, 1, 3))
    assert cl.check_rc2(spec) == "c"
    X = cl.build_x2(spec)
    shape = horo.case_detect(X)
    assert isinstance(shape, horo.Case2Shape)
    assert (shape.r, shape.s, shape.a) == (2, 1, (1, 3))
    trace = mmp.run_log_mmp(
        X, X.boundary_divisor(0) + X.boundary_divisor(4),
        (-1 * X.boundary_divisor(4)) + dv.anticanonical(X))
    assert trace.event_list() == mmp.predict_trace_case2(spec).event_list()


def test_exceptional_anchor_through_engine():
    # the E6 fixture in normal form, end to end
    from test_classify import w1_raw
    nf = normalize(w1_raw())
    X = cl.build_x1(nf.spec)
    assert X.smooth() and X.picard_rank() == 2
    trace = mmp.run_log_mmp(
        X, X.boundary_divisor(0) + X.boundary_divisor(len(X.divisors) - 1),
        (-1 * X.boundary_divisor(len(X.divisors) - 1)) + dv.anticanonical(X))
    assert trace.event_list() == mmp.predict_trace_case1(nf.spec).event_list()
    assert trace.event_list() == [(F(1), mmp.FLIP), (F(2), mmp.FLIP),
                                  (F(3), mmp.FIBRATION)]


def test_cli_invalid_fan_exits_1(tmp_path):
    import json
    from horokit import cli
    doc = {"group": "A2", "kind": "fan", "m_basis": [[0, 1]],
           "colors": ["(0,a1)", "(0,a2)"],
           "cones": [{"generators": [[1]], "colors": []},
                     {"generators": [[-1]], "colors": []}]}
    f = tmp_path / "fan.json"
    f.write_text(json.dumps(doc))
    assert cli.main(["check", str(f)]) == 1  # zero-cone face is missing
