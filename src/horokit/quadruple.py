"""
Admissible quadruples (P, M, Q, Q~): the admissibility test, the orbit/face
dictionary with orbit dimensions, and face transport along G-equivariant
morphisms.

Q~ lives in M coordinates as an inequality system; Q = v0 + Q~ sits in the
weight space.  A dominant wall for alpha in R is the locus where the coroot
pairing vanishes; on Q this reads sigma(alpha) . chi = -<alpha^vee, v0>.

Every question here is read off the vertex table of `polyhedra`, so Q~ is
taken to be a polytope: admissibility from the vertices of Q~ and the
margin table of Q~ with its walls, orbit data from the vertices on a face,
and transport from the table of the target with the imposed equalities.
"""

from dataclasses import dataclass

from .errors import EmptyFace, IncompatibleQuadruples, UnboundedPolyhedron
from .horo import sigma
from .linalg import affine_dim, dot, frac
from .polyhedra import (InequalitySystem, basic_points, face_of, feasible_at,
                        graded_faces, margin_at, margin_table, rows_of,
                        vertex_masks, vertex_table, vertices)
from .rootdata import coroot_pairing, flag_dimension


def _wall(hs, v0, alpha):
    """(row, rhs) with the wall of alpha reading row . chi = rhs on Q~."""
    row = tuple(frac(v) for v in sigma(hs, alpha))
    return row, -coroot_pairing(hs.G, alpha, v0)


@dataclass(frozen=True)
class AdmissibleQuadruple:
    hs: object
    qtilde: InequalitySystem
    v0: tuple

    def __post_init__(self):
        object.__setattr__(self, "v0", tuple(frac(v) for v in self.v0))

    @property
    def rank(self):
        return self.hs.rank

    def wall_functional(self, alpha):
        """(row, rhs) with the wall condition row . chi = rhs on Q~."""
        return _wall(self.hs, self.v0, alpha)


def is_admissible(q):
    """(ok, violated clauses) for the admissibility conditions, all read off
    the vertices of Q~."""
    try:
        verts = vertices(q.qtilde)
    except UnboundedPolyhedron:
        return False, ["pseudo-moment polytope is unbounded"]
    if not verts:
        return False, ["polytope is empty"]
    bad = []
    if affine_dim(verts) != q.rank:
        bad.append("pseudo-moment polytope is not full-dimensional in M")
    walls = [(alpha,) + q.wall_functional(alpha) for alpha in sorted(q.hs.R)]
    for alpha, row, rhs in walls:
        if min(dot(row, v) for v in verts) < rhs:
            bad.append(f"moment polytope leaves the dominant cone at {alpha}")
            break
    # the rows of Q~ weak, the walls strict
    m = len(q.qtilde.A)
    A = q.qtilde.A + tuple(row for _, row, _ in walls)
    B = q.qtilde.b + tuple(rhs for _, _, rhs in walls)
    margin = margin_at(margin_table(A, B, strict=~((1 << m) - 1)))
    if margin is None or margin <= 0:
        bad.append("moment polytope misses the interior of the dominant cone")
    return not bad, bad


@dataclass(frozen=True)
class OrbitInfo:
    """One orbit: the enlarged parabolic is recorded by the color set that
    survives (walls containing the face are absorbed into the parabolic)."""

    r_set: frozenset
    rank: int
    dim: int
    walls: frozenset


def face_orbit(hs, v0, points, dim):
    """OrbitInfo of the face of Q~ (translated by v0) spanned by the points,
    of dimension dim: the walls that contain them all, the surviving colors,
    the face dimension and the orbit dimension dim G/P' + dim."""
    walls = set()
    for alpha in hs.R:
        row, rhs = _wall(hs, v0, alpha)
        if all(dot(row, pt) == rhs for pt in points):
            walls.add(alpha)
    r_set = hs.R - walls
    levi = {r for r in hs.G.nontrivial_roots() if r not in r_set}
    return OrbitInfo(r_set, dim, flag_dimension(hs.G, levi) + dim, frozenset(walls))


def orbit_of_face(q, active_rows):
    """Orbit data of the face on which the given rows are tight."""
    rows = frozenset(active_rows)
    members = [pt for pt, act in basic_points(q.qtilde.A, q.qtilde.b) if act >= rows]
    if not members:
        raise EmptyFace(f"rows {sorted(rows)} cut out the empty set")
    return face_orbit(q.hs, q.v0, members, affine_dim(members))


def orbit_poset(q):
    """[(FaceSignature, OrbitInfo)] over all nonempty faces, closure order
    given by reverse inclusion of the active sets.  The faces, their
    dimensions and the basic points of Q~ come from one vertex table."""
    found = vertex_masks(q.qtilde)[1]
    points = [(e.point(), rows_of(mask)) for mask, e in found.items()]
    return [(f, face_orbit(q.hs, q.v0,
                           [pt for pt, act in points if act >= f.active_rows], f.dim))
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
    for alpha in sorted(orbit_of_face(q_source, active_rows).walls):
        if alpha in q_target.hs.R:
            row, wall_rhs = q_target.wall_functional(alpha)
            rows += [row, tuple(-v for v in row)]
            rhs += [wall_rhs, -wall_rhs]
    meet = face_of(feasible_at(vertex_table(rows, rhs)), 0)
    if meet is None:
        return COLLAPSED
    return rows_of(meet & ((1 << len(tgt.A)) - 1))
