"""
Reference kernels for strict feasibility and row redundancy, kept as the
tests' oracle for the rules that read one vertex table.

Each builds vertex tables of its own auxiliary system:
- the margin system of {A x >= B + eps C}, whose max t says whether the
  strict rows hold strictly somewhere (> 0);
- the escape system {A_i d >= 0 on the other kept rows, -A_r d >= 1} of a
  row r, which is feasible iff the slack of r can fall without bound.
"""

from fractions import Fraction

from horokit.linalg import affine_dim, dot, frac
from horokit.polyhedra import rows_of, vertex_table, vertices
from horokit.errors import UnboundedPolyhedron

from slack_reference import feasible_at


def margin_table(A, B, C=None, strict=None):
    """Vertex table of the margin system of {A x >= B + eps C}:
    {A_r x - t >= B_r + eps C_r on the strict rows, the other rows weak,
    -t >= -1}, the variable t last.  strict is a row mask, all rows by
    default."""
    n = len(A[0])
    strict = -1 if strict is None else strict
    rows = [tuple(a) + (-(strict >> r & 1),) for r, a in enumerate(A)]
    return vertex_table(rows + [(0,) * n + (-1,)], tuple(B) + (-1,),
                        None if C is None else tuple(C) + (0,))


def margin_at(table, eps=0):
    """Exact max t of a margin table at eps, None when it has no feasible
    entry.  The strict rows hold strictly somewhere iff the value is > 0."""
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    best = None
    for e in feasible_at(table, eps).values():
        t = (e.P[-1] * q + e.Q[-1] * p, e.den)
        if best is None or t[0] * best[1] > best[0] * t[1]:
            best = t
    return None if best is None else Fraction(best[0], best[1] * q)


def escape_row_is_redundant(A, table, r, keep, eps=0):
    """Row r is redundant among the rows of keep: its slack cannot escape to
    -infinity, as the escape system has no basic feasible point, and every
    feasible vertex of the other kept rows satisfies it."""
    rest = keep & ~(1 << r)
    rows = [A[i] for i in sorted(rows_of(rest))] + [tuple(-v for v in A[r])]
    if feasible_at(vertex_table(rows, [0] * (len(rows) - 1) + [1])):
        return False
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    found = feasible_at(table, eps, rest)
    return bool(found) and all(e.U[r] * q + e.V[r] * p >= 0 for e in found.values())


def margin_is_admissible(q):
    """`quadruple.is_admissible` with the interior clause read off the
    margin table of Q~ (weak) plus the walls (strict)."""
    try:
        verts = vertices(q.qtilde)
    except UnboundedPolyhedron:
        return False, ["pseudo-moment polytope is unbounded"]
    if not verts:
        return False, ["polytope is empty"]
    bad = []
    if affine_dim(verts) != q.rank:
        bad.append("pseudo-moment polytope is not full-dimensional in M")
    walls = q.walls()
    for alpha, row, rhs in walls:
        if min(dot(row, v) for v in verts) < rhs:
            bad.append(f"moment polytope leaves the dominant cone at {alpha}")
            break
    m = len(q.qtilde.A)
    A = q.qtilde.A + tuple(row for _, row, _ in walls)
    B = q.qtilde.b + tuple(rhs for _, _, rhs in walls)
    margin = margin_at(margin_table(A, B, strict=~((1 << m) - 1)))
    if margin is None or margin <= 0:
        bad.append("moment polytope misses the interior of the dominant cone")
    return not bad, bad
