import random
from bisect import bisect_left
from fractions import Fraction as F
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from horokit import linalg, lp, polyhedra as ph
from horokit.errors import EmptyPolytope, UnboundedPolyhedron
from horokit.linalg import affine_dim, det_int, int_rows

import slack_reference
from margin_reference import escape_row_is_redundant, margin_at, margin_table

SIMPLEX2 = ph.InequalitySystem(((1, 0), (0, 1), (-1, -1)), (0, 0, -1))


def test_polytope_dim_examples():
    assert ph.polytope_dim(SIMPLEX2) == 2
    assert ph.polytope_dim(ph.InequalitySystem(((1,), (-1,)), (0, 0))) == 0
    assert ph.polytope_dim(ph.InequalitySystem(((1,), (-1,)), (1, 0))) == -1


def test_polytope_questions_reject_a_half_line():
    half = ph.InequalitySystem(((1,), (1,)), (0, -1))
    with pytest.raises(UnboundedPolyhedron):
        ph.polytope_dim(half)
    with pytest.raises(UnboundedPolyhedron):
        ph.redundant_rows(half)


def test_vertices_examples():
    assert ph.vertices(SIMPLEX2) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    # the eps = 0 member of the (0,1,2) family is the unit simplex
    fam = ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (1, 2)),
                              (0, 0, -1, -1))
    assert ph.vertices(fam) == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0))]
    # at eps = 2 the cut polytope is a triangle (oracle-computed; this is
    # the corrected value for the family a = (0, 1, 2))
    fam2 = ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (1, 2)),
                               (0, 0, -1, 1))
    assert ph.vertices(fam2) == [(F(0), F(1, 2)), (F(0), F(1)), (F(1), F(0))]
    with pytest.raises(UnboundedPolyhedron):
        ph.vertices(ph.InequalitySystem(((1, 0), (0, 1)), (0, 0)))


def test_boundedness_read_off_the_vertex_table():
    unbounded = [
        # a strip holds a line and has no basic point
        ph.InequalitySystem(((1, 0), (-1, 0)), (0, -1)),
        # a half-plane
        ph.InequalitySystem(((1, 1),), (0,)),
        # one vertex, unbounded along one ray
        ph.InequalitySystem(((0, 1), (0, -1), (1, 0)), (0, 0, 0)),
    ]
    for S in unbounded:
        with pytest.raises(UnboundedPolyhedron):
            ph.vertices(S)
        with pytest.raises(UnboundedPolyhedron):
            ph.face_lattice(S)
    # a segment in the plane is bounded, though of lower dimension
    seg = ph.InequalitySystem(((0, 1), (0, -1), (1, 0), (-1, 0)), (0, 0, 0, -1))
    assert ph.vertices(seg) == [(F(0), F(0)), (F(1), F(0))]
    assert sorted(f.dim for f in ph.face_lattice(seg)) == [0, 0, 1]


# A square pyramid: four facets through the apex (0, 0, 1), a degenerate
# vertex with four feasible bases.
PYRAMID = ph.InequalitySystem(((0, 0, 1), (1, 0, -1), (-1, 0, -1), (0, 1, -1), (0, -1, -1)),
                              (0, -1, -1, -1, -1))


def test_polytope_questions_read_one_vertex_table(monkeypatch):
    # deterministic work counts: boundedness reads the signed determinants
    # of the table and face dimensions the grading of the lattice, so no
    # question builds a second table, face_lattice and vertices eliminate
    # nothing beyond it, and polytope_dim makes one rank of the meet's rows
    calls = {"table": 0, "affine_dim": 0, "echelon": 0, "bounded": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ph, "vertex_table", counted("table", ph.vertex_table))
    dim = counted("affine_dim", linalg.affine_dim)
    monkeypatch.setattr(linalg, "affine_dim", dim)
    monkeypatch.setattr(ph, "affine_dim", dim, raising=False)
    echelon = counted("echelon", linalg.echelon)
    monkeypatch.setattr(linalg, "echelon", echelon)
    monkeypatch.setattr(ph, "echelon", echelon)
    monkeypatch.setattr(ph, "_is_bounded", counted("bounded", ph._is_bounded))
    assert not hasattr(ph, "_gauss_jordan") and not hasattr(ph, "_face_dim")
    quad = ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (1, 2)), (0, 0, -1, F(1, 2)))
    for S in (SIMPLEX2, quad, PYRAMID, ph.InequalitySystem(((1,), (-1,)), (0, 0))):
        for question, ranks in ((ph.face_lattice, 0), (ph.vertices, 0), (ph.polytope_dim, 1)):
            calls.update(table=0, affine_dim=0, echelon=0, bounded=0)
            question(S)
            assert calls == {"table": 1, "affine_dim": 0, "echelon": ranks,
                             "bounded": 1}, (question, S)
        # redundancy reads the system's table too, boundedness included
        calls.update(table=0)
        ph.redundant_rows(S)
        assert calls["table"] == 1, S
    assert ph.polytope_dim(PYRAMID) == 3 and len(ph.vertices(PYRAMID)) == 5
    assert sorted(f.dim for f in ph.face_lattice(PYRAMID)) == \
        [0] * 5 + [1] * 8 + [2] * 5 + [3]


def test_face_lattice_examples():
    faces = ph.face_lattice(SIMPLEX2)
    assert len(faces) == 7
    assert sorted(f.dim for f in faces) == [0, 0, 0, 1, 1, 1, 2]
    seg = ph.InequalitySystem(((1,), (-1,)), (0, -1))
    assert len(ph.face_lattice(seg)) == 3
    # eps = 3/2 member of the (0,1,2) family: a quadrilateral, 9 faces
    # (oracle-computed; 1 + 4 + 4)
    fam = ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (1, 2)),
                              (0, 0, -1, F(1, 2)))
    faces = ph.face_lattice(fam)
    assert len(faces) == 9
    assert sorted(f.dim for f in faces) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    with pytest.raises(EmptyPolytope):
        ph.face_lattice(ph.InequalitySystem(((1,), (-1,)), (1, 0)))


def test_face_lattice_graded_and_vertices_consistent():
    systems = [
        SIMPLEX2,
        ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (1, 2)), (0, 0, -1, F(1, 2))),
        ph.InequalitySystem(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
                            (0, 0, 0, -1)),
    ]
    for S in systems:
        faces = ph.face_lattice(S)
        verts = ph.vertices(S)
        by_dim = {}
        for f in faces:
            by_dim.setdefault(f.dim, []).append(f)
        assert len(by_dim.get(0, [])) == len(verts)
        top = max(by_dim)
        for k in range(1, top + 1):
            for f in by_dim[k]:
                assert any(g.active_rows > f.active_rows for g in by_dim[k - 1]), \
                    "graded: every face has a facet"


def test_redundant_rows():
    S = ph.InequalitySystem(((1,), (1,), (-1,)), (0, -1, -1))
    assert ph.redundant_rows(S) == {1}
    assert ph.redundant_rows(SIMPLEX2) == set()
    # removal is idempotent and preserves the face lattice
    S2 = S.without_rows({1})
    assert ph.redundant_rows(S2) == set()
    def canon(faces, names):
        return sorted(sorted(names[i] for i in f.active_rows) for f in faces)
    assert canon(ph.face_lattice(S), {0: "a", 1: "b", 2: "c"}) == \
        canon(ph.face_lattice(S2), {0: "a", 1: "c"})
    # the (0,0,1) family near eps = 1: the last coordinate row flips from
    # essential to redundant at the crossing
    def fam(eps):
        return ph.InequalitySystem(((1, 0), (0, 1), (-1, -1), (0, 1)),
                                   (0, 0, -1, F(eps) - 1),
                                   (ph.gstable_tag(1), ph.gstable_tag(2),
                                    ph.gstable_tag(0), ph.color_tag("b")))
    assert 1 not in ph.redundant_rows(fam(F(3, 4)))
    assert 1 in ph.redundant_rows(fam(F(5, 4)))


def test_lattice_points():
    pts = ph.lattice_points(ph.InequalitySystem(((1,), (-1,)), (0, -2)))
    assert pts == [(0,), (1,), (2,)]
    assert ph.lattice_points(SIMPLEX2) == [(0, 0), (0, 1), (1, 0)]


def _oracle_face_signatures(A, b):
    """2^rows active-set brute force, written independently of the library
    path: solve every square subsystem by integer Cramer, then scan all row
    subsets for realizability."""
    ai, bi = int_rows(A, b)
    n = len(A[0])
    m = len(A)
    points = []
    for sub in combinations(range(m), n):
        mat = [ai[i] for i in sub]
        d = det_int(mat)
        if d == 0:
            continue
        rhs = [bi[i] for i in sub]
        coords = []
        for j in range(n):
            col = [row[:j] + (rhs[k],) + row[j + 1:] for k, row in enumerate(mat)]
            coords.append(F(det_int(col), d))
        pt = tuple(coords)
        slack = [sum(ai[i][j] * pt[j] for j in range(n)) - bi[i] for i in range(m)]
        if all(s >= 0 for s in slack):
            points.append(frozenset(i for i in range(m) if slack[i] == 0))
    sigs = set()
    for size in range(m + 1):
        for T in combinations(range(m), size):
            T = frozenset(T)
            hit = [act for act in points if act >= T]
            if not hit:
                continue
            out = hit[0]
            for a in hit[1:]:
                out = out & a
            sigs.add(out)
    return sigs


def test_face_lattice_against_subset_oracle_small():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        # bounding box keeps the region a polytope
        for j in range(n):
            e = [0] * n
            e[j] = 1
            rows.append(tuple(e))
            rows.append(tuple(-v for v in e))
        b = [rng.randint(-3, 1) for _ in rows]
        S = ph.InequalitySystem(tuple(rows), tuple(b))
        oracle = _oracle_face_signatures(S.A, S.b)
        try:
            lattice = {f.active_rows for f in ph.face_lattice(S)}
        except EmptyPolytope:
            assert not oracle
            continue
        assert lattice == oracle


# Boundedness and face dimensions against their definitions: the LP oracle
# on the coordinate functions, and the affine hull of a face's vertices.

@st.composite
def _system(draw):
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * n)
    box = draw(st.booleans())
    rows = draw(st.lists(vec, min_size=0 if box else 1, max_size=10 - 2 * n * box))
    if n > 1 and draw(st.booleans()):
        # rank deficient: the last column a combination of the others
        c = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
        rows = [r[:-1] + (sum(x * y for x, y in zip(r, c)),) for r in rows]
    if box:
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        sides = units + [tuple(-x for x in e) for e in units]
        if draw(st.booleans()):
            # an open box: one side left out
            del sides[draw(st.integers(0, 2 * n - 1))]
        rows += sides
    if draw(st.booleans()):
        # degenerate: most rows through one point p, which is feasible
        p = draw(vec)
        b = [sum(x * y for x, y in zip(r, p)) - draw(st.sampled_from((0, 0, 0, 1, 2)))
             for r in rows]
    else:
        b = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    return ph.InequalitySystem(tuple(rows), tuple(b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_system())
def test_boundedness_and_face_dimensions_match_definitions(S):
    n = S.dim
    feasible = lp.feasible(S.A, S.b)
    a_ub, b_ub = [[-v for v in r] for r in S.A], [-v for v in S.b]
    unbounded = feasible and any(
        lp.solve_lp([s * int(i == j) for j in range(n)], a_ub, b_ub).status == lp.UNBOUNDED
        for i in range(n) for s in (1, -1))
    try:
        verts = ph.vertices(S)
    except UnboundedPolyhedron:
        assert unbounded
        return
    assert not unbounded and bool(verts) == feasible
    assert ph.polytope_dim(S) == affine_dim(verts)
    if not verts:
        return
    points = ph.basic_points(S.A, S.b)
    for f in ph.face_lattice(S):
        assert f.dim == affine_dim([pt for pt, act in points if act >= f.active_rows])


# The vertex table against a per-subset reference: every row subset of size
# n solved on its own by integer Cramer's rule, nothing shared between them.

@st.composite
def _table_input(draw):
    n = draw(st.integers(0, 5))
    entry = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3)
    vec = st.tuples(*[entry] * n)
    rows = draw(st.lists(vec, min_size=0, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            # a zero row, a duplicate or a parallel row (either direction)
            r = draw(st.sampled_from(rows))
            k = draw(st.sampled_from((0, 1, 2, -1, F(1, 2))))
            rows.insert(draw(st.integers(0, len(rows))), tuple(k * v for v in r))
    m = len(rows)
    b = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=m, max_size=m))
    C = draw(st.none() | st.lists(entry, min_size=m, max_size=m))
    return rows, b, C


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_table_input())
def test_vertex_table_matches_per_subset_reference(case):
    A, B, C = case
    m = len(A)
    n = len(A[0]) if m else 0
    scaled = []
    for row in zip(A, B, [0] * m if C is None else C):
        # each row [A_r | B_r | C_r] times the lcm of its denominators, over
        # the gcd of the products: primitive integers
        row = [F(x) for x in row[0] + row[1:]]
        L = lcm(*[x.denominator for x in row])
        ints = [int(x * L) for x in row]
        g = gcd(*ints) or 1
        scaled.append(tuple(v // g for v in ints))
    a = [r[:n] for r in scaled]
    bs = [r[n] for r in scaled]
    cs = [r[n + 1] for r in scaled]
    want = []
    for sub in combinations(range(m), n):
        det = det_int([a[i] for i in sub])
        if not det:
            continue
        sign, den = (1 if det > 0 else -1), abs(det)
        # Cramer: P_j = sign * det(A_B with column j replaced by b_B)
        P, Q = (tuple(sign * det_int([a[i][:j] + (rhs[i],) + a[i][j + 1:] for i in sub])
                      for j in range(n)) for rhs in (bs, cs))
        U = tuple(sum(x * y for x, y in zip(a[r], P)) - den * bs[r] for r in range(m))
        V = tuple(sum(x * y for x, y in zip(a[r], Q)) - den * cs[r] for r in range(m))
        want.append((ph.mask_of(sub), den, P, Q, U, V, sign))
    assert [tuple(e) for e in ph.vertex_table(A, B, C)] == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 6) | st.fractions(-6, 6, max_denominator=4),
                min_size=1, max_size=6),
       st.sampled_from((1, 2, 3, -1, -2, F(1, 2), F(-2, 3), 0)))
def test_int_rows_equals_primitive(row, k):
    # mixed int and Fraction entries, with the row rescaled by k (negative
    # or zero too) and a zero row beside it: each is scaled to the primitive
    # vector on its ray, the right-hand side last
    rows = [tuple(row), tuple(k * v for v in row), (0,) * len(row)]
    ints, rhs = int_rows([r[:-1] for r in rows], [r[-1] for r in rows])
    assert [a + (b,) for a, b in zip(ints, rhs)] == [linalg.primitive(r) for r in rows]


# Row redundancy and strict feasibility read off the system's own vertex
# table, against the kernels that build tables of their own auxiliary
# systems (tests/margin_reference.py), on bounded parametric systems.

@st.composite
def _parametric_system(draw):
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    vec = st.tuples(*[entry] * n)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    box = units + [tuple(-x for x in e) for e in units]
    rows = draw(st.lists(vec, max_size=6 - n))
    for _ in range(draw(st.integers(0, 2))):
        # a duplicate, a parallel or an opposite row, or a zero row
        r = draw(st.sampled_from(rows + box))
        k = draw(st.sampled_from((1, 2, F(1, 2), -1, 0)))
        rows.insert(draw(st.integers(0, len(rows))), tuple(k * v for v in r))
    rows += box
    if draw(st.booleans()):
        # degenerate: most rows through one point
        p = draw(vec)
        B = [sum(x * y for x, y in zip(r, p)) - draw(st.sampled_from((0, 0, 0, 1, 2)))
             for r in rows]
    else:
        B = draw(st.lists(st.integers(-3, 2), min_size=len(rows), max_size=len(rows)))
    C = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, B, C, len(rows) - len(box)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_parametric_system(), st.data())
def test_redundancy_and_interior_match_margin_reference(system, data):
    A, B, C, free = system
    m = len(A)
    table = ph.vertex_table(A, B, C)
    margins = margin_table(A, B, C)
    roots = sorted({F(-u, v) for e in table for u, v in zip(e.U, e.V) if v})
    probes = {F(0)} | set(roots) | {(a + b) / 2 for a, b in zip(roots, roots[1:])}
    if roots:
        probes |= {roots[0] - 1, roots[-1] + 1}
    for eps in data.draw(st.lists(st.sampled_from(sorted(probes)), min_size=1,
                                  max_size=4, unique=True)):
        signs = ph.slack_signs(table, eps)
        found = ph.feasible_at(table, signs)
        margin = margin_at(margins, eps)
        assert ph.has_interior(found) == (margin is not None and margin > 0), eps
        strict = data.draw(st.integers(0, (1 << m) - 1))
        margin = margin_at(margin_table(A, B, C, strict), eps)
        assert ph.has_interior(found, strict) == (margin is not None and margin > 0), \
            (eps, strict)
        # the kept rows hold the box, so their region is bounded
        keep = data.draw(st.integers(0, (1 << free) - 1)) | ((1 << m) - (1 << free))
        for r in ph.rows_of(keep):
            assert ph.row_is_redundant(table, signs, r, keep) == \
                escape_row_is_redundant(A, table, r, keep, eps), (eps, keep, r)


# The sign kernel against the slack-list kernels it replaced
# (tests/slack_reference.py), which compute every slack on each call: on
# static and parametric systems, at every root of a slack, between two
# consecutive roots and beyond them, on random row masks.

def _probes(table):
    roots = sorted({F(-u, v) for e in table for u, v in zip(e.U, e.V) if v})
    probes = {F(0), F(1, 3), F(-2)} | set(roots)
    probes |= {(a + b) / 2 for a, b in zip(roots, roots[1:])}
    if roots:
        probes |= {roots[0] - 1, roots[-1] + 1}
    return sorted(probes)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_table_input(), st.data())
def test_sign_kernel_matches_slack_lists(case, data):
    A, B, C = case
    m = len(A)
    table = ph.vertex_table(A, B, C)
    masks = st.just(-1) | st.integers(0, (1 << m) - 1)
    for eps in _probes(table):
        signs = ph.slack_signs(table, eps)
        for keep in data.draw(st.lists(masks, min_size=1, max_size=3)):
            assert ph.feasible_at(table, signs, keep) == \
                slack_reference.feasible_at(table, eps, keep), (eps, keep)
            assert ph._is_bounded(table, signs, keep) == \
                slack_reference.is_bounded(table, eps, keep), (eps, keep)
            for r in ph.rows_of(keep & ((1 << m) - 1)):
                assert ph.row_is_redundant(table, signs, r, keep) == \
                    slack_reference.row_is_redundant(table, r, keep, eps), (eps, keep, r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_parametric_system())
def test_family_memos_match_fresh_reads(system):
    # a family of G-stable rows, pruned at every chamber in a shuffled
    # order: each boundedness it kept equals a fresh read at every chamber
    # where that region has a vertex, and each chamber key equals a bisection
    # of the roots as fractions
    from horokit.mmp import MMPFamily
    A, B, C, _ = system
    fam = MMPFamily(None, A, B, C, [ph.gstable_tag(i) for i in range(len(A))], (), ())
    table = fam._vertices()
    probes = _probes(table)
    roots = fam.roots()
    for eps in random.Random(len(probes)).sample(probes, len(probes)):
        i = bisect_left(roots, eps)
        assert fam.chamber(eps) == 2 * i + (i < len(roots) and roots[i] == eps), eps
        fam.pruned_rows_at(eps)
    for keep, bounded in fam._bounded.items():
        for eps in probes:
            if slack_reference.feasible_at(table, eps, keep):
                assert bounded == slack_reference.is_bounded(table, eps, keep), (keep, eps)
