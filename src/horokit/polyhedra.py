"""
Exact rational polytopes presented as {x : A x >= b}.

Faces are identified by their signature: the maximal set of rows that hold
with equality on the whole face.  One vertex table serves both the static
systems here and the parametric family {A x >= B + eps C} of `mmp`: every
invertible square subsystem solved fraction-free (Bareiss), with its point
and all row slacks as integer numerators over one positive denominator, so
that feasibility at any eps is an integer sign test, and with the sign of
its determinant.  The table is built in one depth-first pass over the row
subsets, which shares the elimination of a common prefix and skips every
subset through a dependent one.  The last row of a subset enters through
its reduced entries on the free column and the right-hand sides alone.

The slack signs at one eps are computed once, in one pass over the table
(`slack_signs`): two bitmasks per entry, the rows with negative slack and
the rows with zero slack.  Every query of the table reads those masks and
no slack: an entry is feasible on the rows of a mask keep iff its basis
lies inside keep and no row of keep is negative, and its active set is its
zero rows in keep.  Vertices are the feasible entries, keyed by their
active sets, and faces are the intersection closure of those masks.  The
emptiness test reads the same kind of table.  A static question takes its
signs at eps = 0, where U alone decides.

Every static polytope question reads the one table of its system and
eliminates nothing more (Schrijver, Theory of Linear and Integer
Programming, 1986, ch. 8):
- boundedness from the edges at its feasible bases: a nonempty pointed
  region is unbounded iff it has an unbounded edge v + t d, and d is then a
  positive multiple of a column of B^-1 for a feasible basis B at v (the
  edge's n - 1 tight rows plus one more row tight at v); by Cramer's rule
  the row products A_r d are ratios of signed determinants in the table;
- the dimension of a face from the lattice's grading (Ziegler, Lectures on
  Polytopes, 1995, Thm 2.7): one more than the largest dimension of a face
  strictly inside it, 0 for a vertex;
- row redundancy, among any subset of the rows and at any eps: the other
  rows must bound a region whose vertices all satisfy the row;
- strict feasibility of a set of rows: no row of it is tight on every
  vertex.
Vertices, dimensions, face lattices and redundant rows are asked of
polytopes: an unbounded region raises UnboundedPolyhedron.  Everything stays
in exact arithmetic.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from operator import and_, mul

from .errors import EmptyPolytope, UnboundedPolyhedron
from .linalg import echelon, frac, int_rows, rank
from .record import Record, set_field

GSTABLE = "x"
COLOR = "color"
PLUMBING = "row"


def gstable_tag(key):
    return (GSTABLE, key)


def color_tag(root):
    return (COLOR, root)


def plumbing_tag(key):
    return (PLUMBING, key)


class InequalitySystem(Record):
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


class FaceSignature(Record):
    """Maximal set of rows tight on a face, plus the face dimension."""

    active_rows: frozenset
    dim: int

    def __init__(self, active_rows, dim):   # hot: see horokit.record
        set_field(self, "active_rows", active_rows)
        set_field(self, "dim", dim)


class BasicSolution(namedtuple("BasicSolution", "basis den P Q U V sign")):
    """One invertible square subsystem of A x >= B + eps C, fraction-free.

    basis is the mask of the rows of the subsystem, den is |det A_B| on the
    rows scaled to integers, and sign is the sign of det A_B, rows in
    increasing order.  Its point is (P + eps Q) / den, and row r has slack
    (U[r] + eps V[r]) / den there, on the row scaled to integers.  As den > 0,
    the sign of that slack at eps = p/q (q > 0) is the sign of the integer
    U[r] q + V[r] p.
    """

    __slots__ = ()

    def point(self, eps=0):
        eps = frac(eps)
        p, q = eps.numerator, eps.denominator
        return tuple([Fraction(x * q + y * p, self.den * q)
                      for x, y in zip(self.P, self.Q)])


class VertexTable(list):
    """The entries of a vertex table (`vertex_table`), in order."""

    @cached_property
    def dets(self):
        """{basis mask: det A_B} over the entries, rows in increasing order;
        a subset with no entry is singular, of determinant 0."""
        return {e.basis: e.sign * e.den for e in self}


def vertex_table(A, B, C=None):
    """A VertexTable with one BasicSolution per invertible square subsystem
    of {x : A x >= B + eps C}, in the order of itertools.combinations.

    Each row [A_r | B_r] is scaled to integers together with C_r; C defaults
    to zero, a static system.

    The row subsets are visited depth-first, so subsets that share a prefix
    share its elimination.  The chosen rows are kept in fraction-free
    reduced form (Bareiss): each pivot row holds the last pivot d on its own
    pivot column and 0 on the other pivot columns.  A new row x enters as
    y = d x - sum x[c_i] R_i, whose entries are minors of the chosen rows.
    If y vanishes on every free column of A, the prefix is dependent, and it
    is skipped with every subset through it.  Otherwise a free column c with
    e = y[c] != 0 becomes a pivot and R_i <- (e R_i - R_i[c] y) / d, a
    division that is exact (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 3).  After n rows the last pivot is det A_B with
    its columns in pivot order, so `sign`, the sign of det A_B, is its sign
    times the parity of that order.

    The last row x enters through dot products alone, e = d x[f] -
    sum x[c_j] R_j[f] on the one free column f and y_b, y_c alike, and with
    s the sign of e the point updates the pivot rows' right-hand sides alone
    (Bareiss, Math. Comp. 22, 1968): P[c_j] = s (e R_j[b] - R_j[f] y_b) / d,
    P[f] = s y_b, Q alike.  A static table shares one zero Q and zero V.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows, cs = int_rows([tuple(a) + (b,) for a, b in zip(A, B)],
                        [0] * m if C is None else C)
    full = [row + (c,) for row, c in zip(rows, cs)]
    static = not any(cs)
    zero_q, zero_v = (0,) * n, (0,) * m     # a static system's Q and V
    # lists, not generator expressions, inside tuple(): on CPython 3.11
    # the generators raised the peak RSS of a face-lattice sweep by ~1 MB
    if not n:   # the one entry is the empty subsystem
        V = zero_v if static else tuple([-c for c in cs])
        return VertexTable([BasicSolution(0, 1, (), (), tuple([-r[0] for r in rows]), V, 1)])
    out = VertexTable()

    def last(start, mask, R, cols, d, odd, f):
        odd ^= sum(f < c for c in cols) & 1
        Rf, Rb, Rc = [[row[k] for row in R] for k in (f, n, n + 1)]
        for i in range(start, m):
            x = full[i]
            xc = [x[c] for c in cols]
            e = d * x[f] - sum(map(mul, xc, Rf))
            if not e:
                continue
            s = 1 if e > 0 else -1
            den = s * e
            yb = d * x[n] - sum(map(mul, xc, Rb))
            P = [0] * n
            P[f] = s * yb
            for c, rb, rf in zip(cols, Rb, Rf):
                P[c] = s * ((e * rb - rf * yb) // d)
            U = tuple([sum(map(mul, row, P)) - den * row[n] for row in rows])
            Q, V = zero_q, zero_v
            if not static:
                yc = d * x[n + 1] - sum(map(mul, xc, Rc))
                Q = [0] * n
                Q[f] = s * yc
                for c, rc, rf in zip(cols, Rc, Rf):
                    Q[c] = s * ((e * rc - rf * yc) // d)
                V = tuple([sum(map(mul, row, Q)) - den * c for row, c in zip(rows, cs)])
            out.append(BasicSolution(mask | 1 << i, den, tuple(P), tuple(Q), U, V,
                                     -s if odd else s))

    def extend(start, mask, R, cols, d, odd):
        free = [c for c in range(n) if c not in cols]
        if len(free) == 1:
            return last(start, mask, R, cols, d, odd, free[0])
        for i in range(start, m - len(free) + 1):
            x = full[i]
            y = [d * v for v in x]
            for row, c in zip(R, cols):
                f = x[c]
                if f:
                    y = [a - f * b for a, b in zip(y, row)]
            c = next((c for c in free if y[c]), None)
            if c is None:
                continue    # so is every subset through this prefix
            e = y[c]
            R2 = [[(e * a - row[c] * b) // d for a, b in zip(row, y)] for row in R]
            extend(i + 1, mask | 1 << i, R2 + [y], cols + [c], e,
                   odd ^ sum(c < ci for ci in cols) & 1)

    extend(0, 0, [], [], 1, 0)
    return out


def slack_signs(table, eps=0):
    """The signs of the row slacks of every entry of a vertex table at eps,
    in one pass: a list of (neg, zero) aligned with the table, neg the mask
    of the rows whose slack there is negative and zero that of the rows
    whose slack is zero.

    At eps = p/q (q > 0) the slack of row r has the sign of the integer
    U[r] q + V[r] p, so at eps = 0, or wherever V is zero (every entry of a
    static table), U alone decides.  A slack keeps its sign between two
    consecutive roots of the table's slacks, so one pass answers every
    query of the table there (`feasible_at`, `_is_bounded`,
    `row_is_redundant`).
    """
    if not table:
        return []
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    bits = [1 << r for r in range(len(table[0].U))]
    out = []
    for e in table:
        neg = zero = 0
        if not p or not any(e.V):
            for bit, u in zip(bits, e.U):
                if u < 0:
                    neg |= bit
                elif not u:
                    zero |= bit
        else:
            for bit, u, v in zip(bits, e.U, e.V):
                s = u * q + v * p
                if s < 0:
                    neg |= bit
                elif not s:
                    zero |= bit
        out.append((neg, zero))
    return out


def feasible_at(table, signs, keep=-1):
    """The entries of a vertex table that are feasible where its slacks have
    the signs `signs` (`slack_signs`), one per active set: {active row mask:
    entry}.

    keep (a row mask, all rows by default) restricts the system: an entry
    is feasible on the rows of keep iff its basis lies inside keep and none
    of those rows has a negative slack, and its active set is its zero
    slacks among them.  A feasible basic point is determined by its active
    set, so the masks stand for distinct points.
    """
    out = {}
    for e, (neg, zero) in zip(table, signs):
        if not (e.basis & ~keep or neg & keep):
            out.setdefault(zero & keep, e)
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
    table = vertex_table(A, b)
    found = feasible_at(table, slack_signs(table))
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
    table = vertex_table([[row[c] for c in cols] for row in system.A], system.b)
    return bool(feasible_at(table, slack_signs(table)))


def _is_bounded(table, signs, keep=-1):
    """Is the region of the rows of keep (a mask, all rows by default) of
    the system with vertex table `table` bounded, where its slacks have the
    signs `signs` (`slack_signs`)?  The answer is exact when the region is
    empty or pointed; with no feasible entry whose basis lies inside keep
    it is True.

    It is unbounded iff it has an unbounded edge v + t d.  At v some
    feasible basis B holds n - 1 independent rows tight on the edge and one
    more row j tight at v, and d is a positive multiple of the column d_j of
    A_B^-1 that belongs to row j (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 8).  So the region is bounded iff no such d_j,
    over the feasible entries B, has A_r d_j >= 0 on every kept row r.
    The table already holds those products by Cramer's rule: for a row r
    outside B, A_r d_j = det(A_B with row j replaced by A_r) / det A_B, and
    that numerator is the signed determinant of the entry for B - j + r
    (`VertexTable.dets`) times (-1)^(p - q), p the position of j in B and q
    that of r in B - j + r.  The directions d_j do not depend on eps, only
    which bases are feasible does, so on a region with a vertex the answer
    is the same at every eps.  Every feasible entry is read, not one per
    vertex as `feasible_at` keeps: at a degenerate vertex that one can miss
    the edge.
    """
    if not table:
        return True
    det = table.dets
    rows = [r for r in range(len(table[0].U)) if keep >> r & 1]
    for e, (neg, _) in zip(table, signs):
        B = e.basis
        if B & ~keep or neg & keep:
            continue
        outside = [r for r in rows if not B >> r & 1]
        for i, j in enumerate([r for r in rows if B >> r & 1]):
            rest = B & ~(1 << j)
            odd = i + (e.sign < 0)  # A_r d_j < 0 iff v != 0 and (v < 0) != (odd + k) odd
            for r in outside:
                v = det.get(rest | 1 << r, 0)
                if v and (v < 0) != (odd + (rest & ((1 << r) - 1)).bit_count()) & 1:
                    break
            else:
                return False    # A d_j >= 0 on the kept rows: an unbounded edge
    return True


def vertex_masks(system):
    """The vertex table of a polytope, its slack signs at eps = 0 and its
    vertices as {active row mask: table entry}, empty when the system is.
    Raises UnboundedPolyhedron on an unbounded region."""
    table = vertex_table(system.A, system.b)
    signs = slack_signs(table)
    found = feasible_at(table, signs)
    if not found:
        if rank(system.A) < system.dim and is_feasible(system):
            raise UnboundedPolyhedron("no basic points: region is not pointed")
    elif not _is_bounded(table, signs):
        raise UnboundedPolyhedron("feasible set has a nonzero recession cone")
    return table, signs, found


def vertices(system):
    """All extreme points of a polytope, exact and lexicographically sorted
    ([] when empty).  Raises UnboundedPolyhedron on an unbounded region."""
    return sorted(e.point() for e in vertex_masks(system)[2].values())


def face_dim(A, found, rows=0):
    """Dimension of the smallest face of a polytope with rows A on which the
    rows of a mask are tight, from its vertices {active row mask: entry};
    None if there is none.  It is n - rank(A_S), S the meet of the masks
    of its vertices (`face_of`), as {A_S x = b_S} is its affine hull."""
    meet = face_of(found, rows)
    return None if meet is None else len(A[0]) - rank([A[r] for r in rows_of(meet)])


def polytope_dim(system):
    """Affine dimension of a polytope (`face_dim`), -1 when it is empty.
    Raises UnboundedPolyhedron on an unbounded region."""
    d = face_dim(system.A, vertex_masks(system)[2])
    return -1 if d is None else d


def row_is_redundant(table, signs, r, keep, is_bounded=_is_bounded):
    """Is row r redundant among the rows of keep (a mask) of
    {A x >= B + eps C}, given the vertex table of that system and the signs
    of its slacks at eps (`slack_signs`)?

    The region of the kept rows must be bounded.  Then row r is redundant
    iff the region of the other kept rows is bounded too, as read by
    `is_bounded` (table, signs, row mask), and every one of its vertices
    satisfies row r, since a polytope is the convex hull of its vertices
    (Ziegler, Lectures on Polytopes, 1995, ch. 2; Schrijver, Theory of
    Linear and Integer Programming, 1986, ch. 8): no feasible entry of
    theirs has a negative slack on r.  A row whose removal leaves an empty
    region, or one with no vertex, is reported as not redundant.
    """
    rest = keep & ~(1 << r)
    found = False
    for e, (neg, _) in zip(table, signs):
        if not (e.basis & ~rest or neg & rest):
            if neg >> r & 1:
                return False
            found = True
    return found and is_bounded(table, signs, rest)


def has_interior(found, rows=-1):
    """Do the rows of a mask (all rows by default) hold strictly at some
    point of a polytope, given its vertices as {active row mask: entry}?

    Yes iff the polytope is nonempty and none of those rows is tight on all
    of its vertices: a polytope is the convex hull of its vertices, and the
    mean of one point strict on each row is strict on all of them (Ziegler,
    Lectures on Polytopes, 1995, ch. 2).  Exact only for a bounded region.
    """
    return bool(found) and not reduce(and_, found, rows)


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
    itself included; see `graded_faces`."""
    return graded_faces(vertex_masks(system)[2])


def graded_faces(found):
    """The face lattice of a polytope from its vertices {active row mask:
    table entry}, as `vertex_masks` gives them: every nonempty face as a
    FaceSignature, sorted by dimension, largest first.  Raises EmptyPolytope
    when there is no vertex.

    Dimensions are read off the lattice itself, which is graded (Ziegler,
    Lectures on Polytopes, 1995, Thm 2.7): the faces of a face F are the
    signatures that contain its own, and F has dimension 1 + the largest
    dimension among those strictly containing it, 0 when there is none.
    Signatures are visited by popcount, largest first, so every one of those
    has its dimension already.
    """
    if not found:
        raise EmptyPolytope("feasible set is empty")
    dims = {}
    for sig in sorted(closure_masks(found), key=int.bit_count, reverse=True):
        dims[sig] = max((dims[t] + 1 for t in dims if t & sig == sig), default=0)
    faces = [FaceSignature(rows_of(sig), d) for sig, d in dims.items()]
    return sorted(faces, key=lambda f: (-f.dim, sorted(f.active_rows)))


def redundant_rows(system):
    """Rows whose removal leaves the feasible set of a polytope unchanged.
    Raises EmptyPolytope when it is empty, UnboundedPolyhedron when it is
    unbounded."""
    table, signs, found = vertex_masks(system)
    if not found:
        raise EmptyPolytope("feasible set is empty")
    m = len(system.A)
    if m == 1:
        return set()
    full = (1 << m) - 1
    return {r for r in range(m) if row_is_redundant(table, signs, r, full)}


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
