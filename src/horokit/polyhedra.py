"""
Exact rational polytopes presented as {x : A x >= b}.

Faces are identified by their signature: the maximal set of rows that hold
with equality on the whole face.  One vertex table serves both the static
systems here and the parametric family {A x >= B + eps C} of `mmp`: every
invertible square subsystem solved fraction-free (Bareiss), with its point
and all row slacks as integer numerators over one positive denominator, so
that feasibility at any eps is an integer sign test.  Vertices are the
feasible entries, keyed by their active rows as bitmasks, and faces are the
intersection closure of those masks.  The strict-feasibility margin, the
row redundancy test and the emptiness test read the same kind of table.
Vertices, dimensions, face lattices and redundant rows are asked of
polytopes: an unbounded region raises UnboundedPolyhedron.  Everything stays
in exact arithmetic.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import EmptyPolytope, UnboundedPolyhedron
from .linalg import affine_dim, echelon, frac, int_rows, rank

GSTABLE = "x"
COLOR = "color"
PLUMBING = "row"


def gstable_tag(key):
    return (GSTABLE, key)


def color_tag(root):
    return (COLOR, root)


def plumbing_tag(key):
    return (PLUMBING, key)


@dataclass(frozen=True)
class InequalitySystem:
    """Constraint rows A x >= b with one tag per row."""

    A: tuple
    b: tuple
    tags: tuple = None

    def __post_init__(self):
        a = tuple(tuple(frac(v) for v in row) for row in self.A)
        bb = tuple(frac(v) for v in self.b)
        tags = self.tags
        if tags is None:
            tags = tuple(plumbing_tag(i) for i in range(len(a)))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", bb)
        object.__setattr__(self, "tags", tuple(tags))
        if len(a) != len(bb) or len(a) != len(self.tags):
            raise ValueError("rows, rhs and tags must have equal length")
        if len(a) < 1:
            raise ValueError("need at least one row")

    @property
    def dim(self):
        return len(self.A[0])

    def without_rows(self, drop):
        keep = [i for i in range(len(self.A)) if i not in set(drop)]
        return InequalitySystem(tuple(self.A[i] for i in keep),
                                tuple(self.b[i] for i in keep),
                                tuple(self.tags[i] for i in keep))


@dataclass(frozen=True)
class FaceSignature:
    """Maximal set of rows tight on a face, plus the face dimension."""

    active_rows: frozenset
    dim: int


class BasicSolution(NamedTuple):
    """One invertible square subsystem of A x >= B + eps C, fraction-free.

    Its point is (P + eps Q) / den, and row r has slack (U[r] + eps V[r]) / den
    there, on the row scaled to integers.  As den > 0, the sign of that slack
    at eps = p/q (q > 0) is the sign of the integer U[r] q + V[r] p.
    """

    basis: int      # mask of the rows of the subsystem
    den: int
    P: tuple
    Q: tuple
    U: tuple
    V: tuple

    def point(self, eps=0):
        eps = frac(eps)
        p, q = eps.numerator, eps.denominator
        return tuple([Fraction(x * q + y * p, self.den * q)
                      for x, y in zip(self.P, self.Q)])


def _gauss_jordan(mat, n):
    """Fraction-free Gauss-Jordan elimination (Bareiss) on the leading n
    columns of the n integer rows of mat, in place.

    Returns the last pivot, which is +-det of the leading block, or 0 when
    that block is singular.  Afterwards the block is pivot * I and every
    further column holds pivot times the solution against it.  Each entry
    stays a minor of the input, so every division is exact.
    """
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if mat[i][k]), None)
        if piv is None:
            return 0
        mat[k], mat[piv] = mat[piv], mat[k]
        top = mat[k]
        d = top[k]
        for i in range(n):
            if i != k:
                f = mat[i][k]
                mat[i] = [(d * x - f * y) // prev for x, y in zip(mat[i], top)]
        prev = d
    return prev


def vertex_table(A, B, C=None):
    """One BasicSolution per invertible square subsystem of
    {x : A x >= B + eps C}, in the order of itertools.combinations.

    Each row [A_r | B_r] is scaled to integers together with C_r; C defaults
    to zero, a static system.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows, cs = int_rows([tuple(a) + (b,) for a, b in zip(A, B)],
                        [0] * m if C is None else C)
    out = []
    for sub in combinations(range(m), n):
        mat = [list(rows[i]) + [cs[i]] for i in sub]
        det = _gauss_jordan(mat, n)
        if not det:
            continue
        sign = 1 if det > 0 else -1
        den = sign * det
        # lists, not generator expressions, inside tuple(): on CPython 3.11
        # the generators raised the peak RSS of a face-lattice sweep by ~1 MB
        P = tuple([sign * row[n] for row in mat])
        Q = tuple([sign * row[n + 1] for row in mat])
        Pb = P + (-den,)
        U = tuple([sum(map(mul, row, Pb)) for row in rows])
        V = tuple([sum(map(mul, row, Q)) - den * c for row, c in zip(rows, cs)])
        out.append(BasicSolution(mask_of(sub), den, P, Q, U, V))
    return out


def feasible_at(table, eps=0, keep=None):
    """The entries of a vertex table that are feasible at eps, one per
    active set: {active row mask: entry}.

    keep (a row mask, all rows by default) restricts the system: only its
    rows are tested, and only entries whose basis lies inside it are read.
    A feasible basic point is determined by its active set, so the masks
    stand for distinct points.
    """
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    keep = -1 if keep is None else keep
    out = {}
    if not table:
        return out
    rows = [r for r in range(len(table[0].U)) if keep >> r & 1]
    for e in table:
        if e.basis & ~keep:
            continue
        U, V = e.U, e.V
        slack = [U[r] * q + V[r] * p for r in rows]
        if slack and min(slack) < 0:
            continue
        mask = 0
        for r, s in zip(rows, slack):
            if not s:
                mask |= 1 << r
        out.setdefault(mask, e)
    return out


def mask_of(rows):
    return sum([1 << r for r in rows])


def rows_of(mask):
    return frozenset([r for r in range(mask.bit_length()) if mask >> r & 1])


def basic_points(A, b):
    """Basic feasible points of {Ax >= b} with their full active sets.

    Returns a sorted list of (point, active) pairs, one per distinct point;
    every vertex of the (pointed) feasible region appears.
    """
    found = feasible_at(vertex_table(A, b))
    return sorted((e.point(), rows_of(mask)) for mask, e in found.items())


def is_feasible(system):
    """Is {x : A x >= b} nonempty?  As A x ranges over the column space,
    keeping only the pivot columns of `echelon(A)` leaves the answer and
    makes the region pointed: then it is nonempty iff it has a basic
    feasible point (Schrijver, Theory of Linear and Integer Programming,
    1986, ch. 8), or, with no pivot column, iff every b <= 0."""
    cols = echelon(system.A)[1]
    if not cols:
        return all(v <= 0 for v in system.b)
    return bool(feasible_at(vertex_table([[row[c] for c in cols] for row in system.A],
                                         system.b)))


def _is_bounded(system):
    """Bounded iff the recession cone {A d >= 0} is {0}, that is iff the
    origin is the only basic point of {A d >= 0, (sum of the rows) d <= 1}.
    Without any basic point A has rank below n: the region holds a line."""
    A = system.A
    total = tuple([-sum(col) for col in zip(*A)])
    found = feasible_at(vertex_table(A + (total,), (0,) * len(A) + (-1,)))
    return len(found) == 1


def _vertex_masks(system):
    """The vertices of a polytope as {active row mask: table entry}, empty
    when the system is.  Raises UnboundedPolyhedron on an unbounded region."""
    found = feasible_at(vertex_table(system.A, system.b))
    if not found:
        if rank(system.A) < system.dim and is_feasible(system):
            raise UnboundedPolyhedron("no basic points: region is not pointed")
    elif not _is_bounded(system):
        raise UnboundedPolyhedron("feasible set has a nonzero recession cone")
    return found


def vertices(system):
    """All extreme points of a polytope, exact and lexicographically sorted
    ([] when empty).  Raises UnboundedPolyhedron on an unbounded region."""
    return sorted(e.point() for e in _vertex_masks(system).values())


def polytope_dim(system):
    """Affine dimension of a polytope, -1 when it is empty.  Raises
    UnboundedPolyhedron on an unbounded region."""
    return affine_dim(vertices(system))


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


def row_is_redundant(A, table, r, keep, eps=0, escapes=None):
    """Is row r redundant among the rows of keep (a mask) of {A x >= B + eps C},
    given the vertex table of that system?

    Yes when its slack cannot escape to -infinity, that is when
    {A_i d >= 0 for the other kept rows, -A_r d >= 1} has no basic feasible
    point, and every feasible vertex of the other kept rows satisfies row r.
    Exact when the kept rows have full column rank.  The escape test does
    not depend on eps; a caller may pass a dict `escapes` that keeps its
    answers by (r, keep).
    """
    rest = keep & ~(1 << r)
    escapes = {} if escapes is None else escapes
    key = (r, keep)
    if key not in escapes:
        rows = [A[i] for i in sorted(rows_of(rest))] + [tuple(-v for v in A[r])]
        rhs = [0] * (len(rows) - 1) + [1]
        escapes[key] = bool(feasible_at(vertex_table(rows, rhs)))
    if escapes[key]:
        return False
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    found = feasible_at(table, eps, rest)
    return bool(found) and all(e.U[r] * q + e.V[r] * p >= 0
                               for e in found.values())


def closure_masks(masks):
    """Intersection closure of vertex active sets given as bitmasks.

    Returns the set of all face signatures as masks.  Every face of a
    bounded region is the convex hull of the vertices whose active sets
    contain its signature, and that signature is their intersection.
    """
    acts = list(dict.fromkeys(masks))
    sigs = set(acts)
    frontier = acts
    while frontier:
        new = []
        for s in frontier:
            for t in acts:
                u = s & t
                if u not in sigs:
                    sigs.add(u)
                    new.append(u)
        frontier = new
    return sigs


def face_of(masks, rows):
    """Signature of the smallest face on which the rows (a mask) are tight:
    the meet of the vertex active sets that contain them, None if none does."""
    out = None
    for a in masks:
        if a & rows == rows:
            out = a if out is None else out & a
    return out


def face_lattice(system):
    """Every nonempty face of a polytope as a FaceSignature, the polytope
    itself included."""
    found = _vertex_masks(system)
    if not found:
        raise EmptyPolytope("feasible set is empty")
    pts = {mask: e.point() for mask, e in found.items()}
    faces = []
    for sig in closure_masks(pts):
        members = [pt for mask, pt in pts.items() if mask & sig == sig]
        faces.append(FaceSignature(rows_of(sig), affine_dim(members)))
    return sorted(faces, key=lambda f: (-f.dim, sorted(f.active_rows)))


def redundant_rows(system):
    """Rows whose removal leaves the feasible set of a polytope unchanged.
    Raises EmptyPolytope when it is empty, UnboundedPolyhedron when it is
    unbounded."""
    if not _vertex_masks(system):
        raise EmptyPolytope("feasible set is empty")
    m = len(system.A)
    if m == 1:
        return set()
    table = vertex_table(system.A, system.b)
    full = (1 << m) - 1
    return {r for r in range(m) if row_is_redundant(system.A, table, r, full)}


def lattice_points(system):
    """All integer points of a bounded feasible set."""
    vs = vertices(system)
    if not vs:
        return []
    n = system.dim
    if n == 0:
        return [()]
    lo = [min(v[j] for v in vs) for j in range(n)]
    hi = [max(v[j] for v in vs) for j in range(n)]
    ranges = []
    for j in range(n):
        a = -(-lo[j].numerator // lo[j].denominator)  # ceil
        b = hi[j].numerator // hi[j].denominator      # floor
        ranges.append(range(a, b + 1))
    out = []

    def rec(j, partial):
        if j == n:
            pt = tuple(map(Fraction, partial))
            if all(sum(r[k] * pt[k] for k in range(n)) >= rhs
                   for r, rhs in zip(system.A, system.b)):
                out.append(tuple(partial))
            return
        for v in ranges[j]:
            rec(j + 1, partial + [v])

    rec(0, [])
    return out
