"""
Admissible quadruples (P, M, Q, Q~): the admissibility test, the orbit/face
dictionary with orbit dimensions, and face transport along G-equivariant
morphisms.

Q~ lives in M coordinates as an inequality system; Q = v0 + Q~ sits in the
weight space.  A dominant wall for alpha in R is the locus where the coroot
pairing vanishes; on Q this reads sigma(alpha) . chi = -<alpha^vee, v0>.

Every question here is read off the vertex table of `polyhedra`, so Q~ is
taken to be a polytope: admissibility from the one table of Q~ with its
walls, orbit data from the vertex masks of a face (its dimension is rank -
rank(rows tight on all of its vertices)), and transport from the table of
the target with the imposed equalities.  No point is built: the walls a
vertex satisfies or lies on are read off its table entry.
"""

from functools import partial, reduce
from operator import and_, mul, or_

from .errors import EmptyFace, IncompatibleQuadruples
from .horo import sigma
from .linalg import frac, rank
from .polyhedra import (InequalitySystem, _is_bounded, face_dim, face_of,
                        feasible_at, graded_faces, has_interior, is_feasible,
                        mask_of, rows_of, slack_signs, vertex_masks, vertex_table)
from .record import Record
from .rootdata import coroot_pairing, flag_dimension


def wall_rows(hs, v0, image):
    """[(alpha, row, rhs)] over the colors alpha, sorted: the wall of alpha
    reads row . chi = rhs on Q~, with the integer row sigma(alpha) =
    image(alpha) (`HoroVariety.image` holds it once per variety) and
    rhs = -<alpha^vee, v0>."""
    return [(alpha, image(alpha), -coroot_pairing(hs.G, alpha, v0))
            for alpha in sorted(hs.R)]


def vertex_walls(walls, found, eps=0):
    """{active row mask: the colors whose wall holds at that vertex} for the
    vertices `found` ({active row mask: table entry}) of Q~ at eps, walls
    as `wall_rows` gives them.  At eps = p/q an entry's vertex is
    (P q + Q p) / (den q), so a wall is one integer dot product and one
    cross-multiplication with its right-hand side."""
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    out = {}
    for mask, e in found.items():
        x = [a * q + b * p for a, b in zip(e.P, e.Q)]
        d = e.den * q
        out[mask] = frozenset([alpha for alpha, row, rhs in walls
                               if sum(map(mul, row, x)) * rhs.denominator == rhs.numerator * d])
    return out


class AdmissibleQuadruple(Record):
    hs: object
    qtilde: InequalitySystem
    v0: tuple

    def __post_init__(self):
        object.__setattr__(self, "v0", tuple(frac(v) for v in self.v0))

    @property
    def rank(self):
        return self.hs.rank

    def walls(self):
        """`wall_rows` of Q~: the wall of each color alpha reads row . chi = rhs."""
        return wall_rows(self.hs, self.v0, partial(sigma, self.hs))


def is_admissible(q):
    """(ok, violated clauses) for the admissibility conditions, all read off
    one vertex table: that of Q~ plus its wall rows.  Q~ must be a polytope.

    The signs of its slacks are computed once (`polyhedra.slack_signs`).
    Restricted to the rows of Q~ (`keep`), the table gives the vertices of
    Q~, its boundedness (`polyhedra._is_bounded`), its dimension
    (`polyhedra.face_dim`) and the walls' slack signs at its vertices,
    which are all >= 0 iff Q~ lies in the dominant cone.  Q~ misses the
    interior of the dominant cone iff the polytope Q~ cut by the walls'
    half-spaces has no point strict on every wall: iff the whole table has
    no feasible vertex, or some wall row is tight on all of them
    (`polyhedra.has_interior`; Ziegler, Lectures on Polytopes, 1995,
    ch. 2), the same rule as `MMPFamily.admissible`.
    """
    walls = q.walls()
    m = len(q.qtilde.A)
    keep = (1 << m) - 1
    table = vertex_table(q.qtilde.A + tuple(row for _, row, _ in walls),
                         q.qtilde.b + tuple(rhs for _, _, rhs in walls))
    signs = slack_signs(table)
    found = feasible_at(table, signs, keep)
    if not found:
        if rank(q.qtilde.A) < q.qtilde.dim and is_feasible(q.qtilde):
            return False, ["pseudo-moment polytope is unbounded"]
        return False, ["polytope is empty"]
    if not _is_bounded(table, signs, keep):
        return False, ["pseudo-moment polytope is unbounded"]
    bad = []
    if face_dim(q.qtilde.A, found) != q.rank:
        bad.append("pseudo-moment polytope is not full-dimensional in M")
    below = reduce(or_, [neg for e, (neg, _) in zip(table, signs)
                         if not (e.basis & ~keep or neg & keep)]) >> m
    for k, (alpha, _, _) in enumerate(walls):
        if below >> k & 1:
            bad.append(f"moment polytope leaves the dominant cone at {alpha}")
            break
    if not has_interior(feasible_at(table, signs), ~keep):
        bad.append("moment polytope misses the interior of the dominant cone")
    return not bad, bad


class OrbitInfo(Record):
    """One orbit: the enlarged parabolic is recorded by the color set that
    survives (walls containing the face are absorbed into the parabolic)."""

    r_set: frozenset
    rank: int
    dim: int
    walls: frozenset


def face_orbit(hs, walls, sig, dim):
    """OrbitInfo of the face of Q~ with signature sig (a row mask) and
    dimension dim, given the walls through each vertex (`vertex_walls`):
    the walls through all of the face's vertices, the surviving colors, the
    face dimension and the orbit dimension dim G/P' + dim."""
    on = reduce(and_, [w for mask, w in walls.items() if mask & sig == sig])
    r_set = hs.R - on
    levi = {r for r in hs.G.nontrivial_roots() if r not in r_set}
    return OrbitInfo(r_set, dim, flag_dimension(hs.G, levi) + dim, on)


def orbit_of_face(q, active_rows):
    """Orbit data of the face on which the given rows are tight, from the
    vertex masks of Q~ (`polyhedra.face_dim`, `face_orbit`)."""
    rows = frozenset(active_rows)
    sig = mask_of(rows)
    table = vertex_table(q.qtilde.A, q.qtilde.b)
    found = feasible_at(table, slack_signs(table))
    dim = face_dim(q.qtilde.A, found, sig)
    if dim is None:
        raise EmptyFace(f"rows {sorted(rows)} cut out the empty set")
    return face_orbit(q.hs, vertex_walls(q.walls(), found), sig, dim)


def orbit_poset(q):
    """[(FaceSignature, OrbitInfo)] over all nonempty faces, closure order
    given by reverse inclusion of the active sets.  The faces, their
    dimensions and the walls through each vertex come from one vertex
    table."""
    found = vertex_masks(q.qtilde)[2]
    walls = vertex_walls(q.walls(), found)
    return [(f, face_orbit(q.hs, walls, mask_of(f.active_rows), f.dim))
            for f in graded_faces(found)]


COLLAPSED = "Collapsed"


def map_face(q_source, q_target, active_rows):
    """Transport a face to the target quadruple.

    The maximal active rows of the source face are matched to target rows by
    tag, the dominant walls containing the source face are imposed on the
    target, and the cut-out face (or COLLAPSED) is returned as a maximal
    active set of the target system: the meet of the active sets of its
    vertices.
    """
    src, tgt = q_source.qtilde, q_target.qtilde
    for tags in (src.tags, tgt.tags):
        if len(set(tags)) != len(tags):
            raise IncompatibleQuadruples("row tags are not unique")
    tgt_index = {t: i for i, t in enumerate(tgt.tags)}
    active_rows = frozenset(active_rows)
    rows, rhs = list(tgt.A), list(tgt.b)
    for i in active_rows:
        tag = src.tags[i]
        if tag in tgt_index:
            # the row itself is already there; its opposite makes it tight
            j = tgt_index[tag]
            rows.append(tuple(-v for v in tgt.A[j]))
            rhs.append(-tgt.b[j])
        elif tag[0] == "color":
            raise IncompatibleQuadruples(f"target lacks the color row {tag}")
        # missing G-stable rows were pruned; they impose nothing
    on = orbit_of_face(q_source, active_rows).walls
    for alpha, row, wall_rhs in q_target.walls():
        if alpha in on:
            rows += [row, tuple(-v for v in row)]
            rhs += [wall_rhs, -wall_rhs]
    table = vertex_table(rows, rhs)
    meet = face_of(feasible_at(table, slack_signs(table)), 0)
    if meet is None:
        return COLLAPSED
    return rows_of(meet & ((1 << len(tgt.A)) - 1))
