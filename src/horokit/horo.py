"""
Horospherical homogeneous data, colored cones and fans, the variety
(`HoroVariety`, whose methods are the embedding checks), the colored-fan
axioms (`validate_fan`) and the rank-two shape detection.

Coordinates: the lattice N is presented in the basis dual to the stored
basis of M, so sigma(alpha) is the vector of coroot pairings against the M
basis.  Cones are given by integer generator lists; canonical form is the
sorted tuple of primitive extreme rays.  Every cone question (membership,
extreme rays, pointedness, faces, overlaps) is answered by one exact kernel,
`cone_contains`, with no LP.
"""

from collections import namedtuple
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import gcd
from operator import mul

from . import rootdata
from .errors import NotAColor, NotComplete, NotLocallyFactorial, UnsupportedFan
from .linalg import (adjugate, det_int, echelon, int_rank, is_zero, primitive, rank,
                     solve)
from .record import Record, set_field
from .rootdata import GroupProduct, Root, flag_dimension


def _integral(v):
    """v as an int; ValueError when it is not an integer."""
    if isinstance(v, int):
        return int(v)
    q = Fraction(v)
    if q.denominator != 1:
        raise ValueError(f"M basis weight entry {q} is not an integer")
    return q.numerator


class HomSpaceData(Record):
    """The pair (P, M): colors R and an integer basis of M in X(P).

    M_basis is stored as int tuples, one coordinate per fundamental weight
    and per C* factor; an entry that is not an integer (a Fraction or a
    string such as "1/2") raises ValueError, as do a basis that is not
    linearly independent and a weight that pairs with a simple root of P.
    """

    G: GroupProduct
    R: frozenset
    M_basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "R", frozenset(self.R))
        if any(len(m) != self.G.weight_dim for m in self.M_basis):
            raise ValueError(f"M basis weights need {self.G.weight_dim} entries")
        object.__setattr__(self, "M_basis",
                           tuple(tuple([_integral(v) for v in m]) for m in self.M_basis))
        for alpha in self.R:
            self.G.check_root(alpha)
            if self.G.is_trivial_root(alpha):
                raise ValueError(f"{alpha}: colors are non-trivial simple roots")
        if int_rank(self.M_basis) != len(self.M_basis):
            raise ValueError("M basis is not linearly independent")
        levi = [(r, self.G.coroot_index(r)) for r in self.G.nontrivial_roots()
                if r not in self.R]
        for m in self.M_basis:
            for gamma, i in levi:
                if m[i] != 0:
                    raise ValueError(
                        f"basis weight ({', '.join(map(str, m))}) is not a character "
                        f"of P (pairs with {gamma})")

    @property
    def rank(self):
        return len(self.M_basis)

    def levi_roots(self):
        """Simple roots of P (non-trivial roots outside R)."""
        return {r for r in self.G.nontrivial_roots() if r not in self.R}

    def open_orbit_dim(self):
        return flag_dimension(self.G, self.levi_roots()) + self.rank


def sigma(hs, alpha):
    """sigma(alpha) = alpha^vee restricted to M, as a vector in N."""
    if alpha not in hs.R:
        raise NotAColor(str(alpha))
    i = hs.G.coroot_index(alpha)
    return tuple([m[i] for m in hs.M_basis])


class ColoredCone(Record):
    generators: tuple
    colors: frozenset = frozenset()

    def __init__(self, generators, colors=frozenset()):   # hot: see horokit.record
        set_field(self, "generators", tuple([tuple(map(int, g)) for g in generators]))
        set_field(self, "colors", frozenset(colors))

    @property
    def dim(self):
        return rank(self.generators)


class ColoredFan(Record):
    cones: tuple

    def __post_init__(self):
        object.__setattr__(self, "cones", tuple(self.cones))


def extreme_rays(generators):
    """Primitive extreme rays of the cone of integer generators, sorted: the
    distinct primitive generators g with g not in the cone of the others.

    A generator's primitive vector is its quotient by the gcd of its
    entries.  Linearly independent rays are all extreme, with no membership
    test, and so is a single one, with no rank test either.
    """
    prims = []
    for g in generators:
        k = gcd(*g)
        if k:
            p = tuple([x // k for x in g])
            if p not in prims:
                prims.append(p)
    if len(prims) <= 1 or int_rank(prims) == len(prims):
        return tuple(sorted(prims))
    return tuple(sorted(g for i, g in enumerate(prims)
                        if not cone_contains(prims[:i] + prims[i + 1:], g)))


def cone_contains(generators, v):
    """Is v a nonnegative combination of the generators?  The one cone kernel.

    Independent generators take one fraction-free elimination of
    [generators | v], whose pivot rows give the unique coefficients.  By
    Carathéodory's theorem (Schrijver, Theory of Linear and Integer
    Programming, 1986, ch. 7), v lies in the cone of dependent ones iff it
    lies in the cone of some basis of their span drawn from the distinct
    primitive generators; each basis takes the same elimination.
    """
    gens = [g for g in generators if not is_zero(g)]
    k = len(gens)
    m, pivots = echelon([[g[i] for g in gens] + [v[i]] for i in range(len(v))])
    if k in pivots:
        return False  # v is outside the span
    if len(pivots) == k:
        return all(row[k] * row[j] >= 0 for j, row in enumerate(m[:k]))
    prims = sorted({primitive(g) for g in gens})
    return any(cone_contains(sub, v) for sub in combinations(prims, len(pivots)))


def is_pointed(generators):
    """No line: no -g lies in the cone of the generators g.

    Linearly independent generators always span a pointed cone.
    """
    gens = [g for g in generators if not is_zero(g)]
    prims = {primitive(g) for g in gens}
    if rank(prims) == len(prims):
        return True
    return not any(cone_contains(gens, [-x for x in g]) for g in gens)


def cone_faces(generators, rays):
    """(generator index set, extreme rays) of every face, the cone itself
    included, given the cone's rays (`extreme_rays(generators)`).

    A simplicial cone's faces are its ray subsets.  Otherwise `sub` is the
    generator set of a face iff it is that of the smallest face through s,
    the sum of its generators: iff -g_i lies in the cone of the generators
    and -s exactly when i is in `sub`.
    """
    gens = list(generators)
    k = len(gens)
    if len(rays) == rank(gens):
        idx_of = {r: [i for i, g in enumerate(gens) if primitive(g) == r] for r in rays}
        return [(frozenset(i for r in sub for i in idx_of[r]), sub)
                for size in range(len(rays) + 1) for sub in combinations(rays, size)]
    faces = [frozenset(range(k))]
    for size in range(k):
        for sub in combinations(range(k), size):
            s = [-sum(gens[i][j] for i in sub) for j in range(len(gens[0]))]
            if all(cone_contains(gens + [s], [-x for x in gens[i]]) == (i in sub)
                   for i in range(k)):
                faces.append(frozenset(sub))
    return [(f, extreme_rays([gens[i] for i in sorted(f)]))
            for f in sorted(faces, key=lambda f: (len(f), sorted(f)))]


def validate_fan(X):
    """The colored-fan axioms on the fan of X: a list of violation strings.

    That the cones of a complete simplicial fan do not overlap is certified
    by crossing its walls with integer determinants (`_overlap_free`); only
    a fan the certificate does not cover is tested pair by pair.  A face of
    a simplicial cone is keyed by a sub-tuple of its rays in `X.cone_rays()`.
    """
    hs = X.hs
    issues = []
    cones = list(X.fan.cones)
    cone_rays = X.cone_rays()
    keys = {}
    for cone, rays in zip(cones, cone_rays):
        k = (rays, cone.colors)
        if k in keys:
            issues.append(f"DuplicateCone: {cone}")
        keys[k] = cone
    for cone in cones:
        for g in cone.generators:
            if is_zero(g):
                issues.append(f"ZeroGenerator: {cone}")
            elif primitive(g) != g:
                issues.append(f"NonPrimitiveGenerator: {g} in {cone}")
        if not is_pointed(cone.generators):
            issues.append(f"LineViolation: {cone}")
        for a in cone.colors:
            if a not in hs.R:
                issues.append(f"UnknownColor: {a} in {cone}")
                continue
            sig = X.image(a)
            if is_zero(sig):
                issues.append(f"ZeroColorImage: {a} in {cone}")
            elif not cone_contains(cone.generators, sig):
                issues.append(f"ColorNotInCone: {a} in {cone}")
    for cone, rays in zip(cones, cone_rays):
        if cone.colors - hs.R:
            continue  # reported as UnknownColor; its faces have no colors
        for face, face_rays in cone_faces(cone.generators, rays):
            sub = [cone.generators[i] for i in face]
            cols = frozenset(a for a in cone.colors if cone_contains(sub, X.image(a)))
            if (face_rays, cols) not in keys:
                issues.append(f"FaceClosureViolation: face {sorted(face)} of {cone}")
    if not _overlap_free(X):
        issues += _pairwise_overlaps(X)
    return issues


def _walls(n, cone_rays):
    """The wall table of the full-dimensional simplicial cones: each
    (n-1)-subset of a cone's sorted rays -> [(cone index, side)], where side
    is the sign of det(wall rays, opposite ray).  Cones that are not n
    independent rays are left out."""
    walls = {}
    for k, rays in enumerate(cone_rays):
        if len(rays) != n:
            continue
        d = det_int(rays)
        if d == 0:
            continue
        for i in range(n):
            # moving row i to the end takes n - 1 - i transpositions
            walls.setdefault(rays[:i] + rays[i + 1:], []).append(
                (k, (d > 0) == ((n - 1 - i) % 2 == 0)))
    return walls


def _closed(walls):
    """Pseudo-manifold: every wall lies in exactly two cones, on opposite
    sides."""
    return bool(walls) and all(len(v) == 2 and v[0][1] != v[1][1]
                               for v in walls.values())


def _overlap_free(X):
    """Certify, with integer linear algebra only, that no two cones have
    meeting relative interiors; False means "not certified", not "overlap".

    The certificate holds when every cone's distinct nonzero primitive
    generators are independent and no two cones have the same rays; the
    full-dimensional cones are closed under wall crossing (`_closed`); every
    other cone's rays are rays of a full-dimensional one; and a point inside
    the first full-dimensional cone lies in no other.  The full-dimensional
    cones then triangulate N_Q (pseudo-manifold plus degree one: De Loera,
    Rambau and Santos, Triangulations, ch. 4), so the cones are faces of a
    triangulation with distinct ray sets.
    """
    n, cone_rays = X.rank, X.cone_rays()
    if n == 0 or len(set(cone_rays)) != len(cone_rays):
        return False
    for cone, rays in zip(X.fan.cones, cone_rays):
        if len({primitive(g) for g in cone.generators if not is_zero(g)}) != len(rays):
            return False
    walls = X.walls()
    if not _closed(walls):
        return False
    full = {k for v in walls.values() for k, _ in v}
    full_sets = [set(cone_rays[k]) for k in full]
    if not all(k in full or any(s.issuperset(rays) for s in full_sets)
               for k, rays in enumerate(cone_rays)):
        return False
    first = cone_rays[min(full)]
    p = [sum((j + 1) * r[i] for j, r in enumerate(first)) for i in range(n)]
    return sum(cone_contains(cone_rays[k], p) for k in full) == 1


def _pairwise_overlaps(X):
    """OverlapViolation for each pair of cones of the fan of X whose
    relative interiors meet, tested pair by pair on the rays in
    `X.cone_rays()`."""
    pairs = combinations(zip(X.fan.cones, X.cone_rays()), 2)
    return [f"OverlapViolation: {c1} and {c2}"
            for (c1, rays1), (c2, rays2) in pairs if _relints_meet(c1, rays1, c2, rays2)]


def _relints_meet(c1, rays1, c2, rays2):
    """Do the relative interiors of two distinct cones, with extreme rays
    rays1 and rays2, share a point?

    Identical colored cones are handled by the duplicate check, so equality
    of canonical keys short-circuits to False here.
    """
    if rays1 == rays2 and frozenset(c1.colors) == frozenset(c2.colors):
        return False
    g1 = [g for g in c1.generators if not is_zero(g)]
    g2 = [g for g in c2.generators if not is_zero(g)]
    if not g1 or not g2:
        # A zero cone's relative interior is {0}, interior to no other cone.
        return not g1 and not g2
    prims = {primitive(g) for g in g1 + g2}
    if rank(prims) == len(prims):
        # A point has one expansion in independent rays, so the relative
        # interiors (positive combinations) meet only on equal ray sets.
        return rays1 == rays2
    # some lambda, mu >= 1 with g1 lambda = g2 mu; with lambda = 1 + lambda'
    # and mu = 1 + mu', sum g2 - sum g1 = g1 lambda' - g2 mu'
    t = [sum(h[i] for h in g2) - sum(g[i] for g in g1) for i in range(len(g1[0]))]
    return cone_contains(g1 + [[-x for x in h] for h in g2], t)


# ---------------------------------------------------------------------------
# The bundled variety object used by the divisor / mmp layers


ConeBasis = namedtuple("ConeBasis", "basis det adj checks")
ConeBasis.__doc__ = """n independent support points of a maximal cone, by
index, with the determinant and adjugate of the matrix whose rows they are,
and each other support point inside the cone with its coordinates mu in that
basis (p = sum mu_i s_i / det)."""


def _coords(adj, p):
    """det times the coordinates of p in the basis whose adjugate is adj:
    adj^T p."""
    return tuple([sum(map(mul, col, p)) for col in zip(*adj)])


def per_variety(method):
    """Derive a HoroVariety method's value, or that of a function whose
    first argument is the variety, once per variety and argument."""
    @wraps(method)
    def cached(self, *args):
        key = (method.__name__,) + args
        if key not in self._caches:
            self._caches[key] = method(self, *args)
        return self._caches[key]
    return cached


class HoroVariety:
    """A colored fan on homogeneous data, plus a fixed boundary-divisor order.

    Any colored fan can be wrapped, an invalid one included (`cli` builds the
    variety before `validate_fan(X)` reports on it).  `complete()` and
    `picard_rank()` need a fan that `validate_fan` accepts, with simplicial
    full-dimensional cones; `relations()` and the divisor layer also need it
    complete.

    divisors is a tuple of descriptors, one per B-stable prime divisor:
    ("x", ray) for a G-stable edge with the given primitive generator, and
    ("c", root) for the color D_root.  The same order indexes the rows of
    the pseudo-moment inequality system and of the Log-MMP matrix.
    """

    def __init__(self, hs, fan, divisors=None):
        self.hs = hs
        self.fan = fan
        self._caches = {}
        color_rays = {primitive(self.image(a)) for a in hs.R & self.colors_used()}
        gstable = [e for e in self.edges() if e not in color_rays]
        if divisors is None:
            divisors = tuple(("x", e) for e in gstable) + \
                tuple(("c", a) for a in sorted(hs.R))
        self.divisors = tuple(divisors)
        self.gstable_rays = tuple(gstable)

    @property
    def G(self):
        return self.hs.G

    @property
    def rank(self):
        return self.hs.rank

    @per_variety
    def cone_rays(self):
        """Extreme rays of each cone, in fan order."""
        return tuple(extreme_rays(c.generators) for c in self.fan.cones)

    @per_variety
    def walls(self):
        """The wall table (`_walls`) of the full-dimensional simplicial cones."""
        return _walls(self.rank, self.cone_rays())

    @per_variety
    def image(self, a):
        """sigma(a), the image of the color a in N; NotAColor outside R."""
        return sigma(self.hs, a)

    @per_variety
    def edges(self):
        """Primitive rays of all one-dimensional faces, sorted."""
        return tuple(sorted({r for rays in self.cone_rays() for r in rays}))

    @per_variety
    def colors_used(self):
        return frozenset().union(*(c.colors for c in self.fan.cones))

    @per_variety
    def skeleton(self):
        """(descs, cones, rays), derived once for every PL function on the fan.

        descs are the descriptors whose coefficients a PL function h reads:
        the support points that pin it (the G-stable rays, then the images
        of the colors in the fan), then the colors off the fan.  cones holds
        each full-dimensional cone once, in fan order, as rays -> ConeBasis:
        n independent support points on its rays, with the determinant and
        adjugate of their matrix, and the other support points inside the
        cone, where h must agree; None when its support points do not span
        N.  rays maps each ray of those cones to (index of a support point
        on it, that point over the primitive ray).

        A simplicial cone's basis is its rays' points, and its adjugate also
        tells which support points lie inside: those with coefficients >= 0
        in that basis.  Only a cone with more than n rays takes
        `cone_contains` and a greedy basis.
        """
        n = self.rank
        pins = [("x", r) for r in self.gstable_rays] + \
            [("c", a) for a in sorted(self.colors_used())]
        points = [d[1] if d[0] == "x" else self.image(d[1]) for d in pins]
        descs = tuple(pins) + tuple(("c", a) for a in sorted(self.hs.R - self.colors_used()))
        on_ray = {}
        for i, p in enumerate(points):
            on_ray.setdefault(primitive(p), (i, gcd(*p)))
        cones, rays = {}, {}
        for key in self.cone_rays():
            if len(key) < n or key in cones:
                continue
            for r in key:
                rays[r] = on_ray[r]
            if len(key) == n:
                basis = [on_ray[r][0] for r in key]
                det, adj = adjugate([points[i] for i in basis])
                cols = [] if adj is None else [[det * a for a in col] for col in zip(*adj)]
                inside = [] if adj is None else [
                    i for i, p in enumerate(points)
                    if all(sum(map(mul, col, p)) >= 0 for col in cols)]
            else:
                inside = [i for i, p in enumerate(points) if cone_contains(key, p)]
                basis = []
                for i in inside:
                    if rank([points[j] for j in basis + [i]]) > len(basis):
                        basis.append(i)
                det, adj = adjugate([points[i] for i in basis]) if len(basis) == n \
                    else (0, None)
            cones[key] = None if adj is None else ConeBasis(
                tuple(basis), det, adj,
                tuple((i, _coords(adj, points[i])) for i in inside if i not in basis))
        return descs, cones, rays

    @per_variety
    def relations(self):
        """(walls, colors): integer relations on the coefficients of the
        descriptors of `skeleton()` that decide the convexity of a PL
        function h, on a complete simplicial fan; NotComplete where
        `complete()` fails.  Exact under the precondition of complete()
        (validated, non-overlapping, simplicial).

        A relation is (terms, den), terms ((descriptor index, integer), ...),
        and its value on a coefficient vector c is sum(k c_i) / den.  For
        each wall of `walls()`, between cones s and t, the value is
        h(p) - f_s(p) at the support point p on the ray of t off the wall,
        f_s the form of h on s: h is convex iff every wall value is >= 0,
        and strictly convex iff every one is > 0, since h - f_s is linear on
        t (local convexity across walls; Cox, Little and Schenck, Toric
        Varieties, 2011, §6.1).  For each color a off the fan, the value is
        c_a - h(sigma(a)), with h read on the first maximal cone that holds
        sigma(a).  den is the absolute determinant of the basis of s, or of
        that cone.
        """
        if not self.complete():
            raise NotComplete("convexity relations need a complete fan")
        descs, cones, rays = self.skeleton()
        cone_rays = self.cone_rays()

        def relation(t, j, p):
            s = 1 if t.det > 0 else -1
            return (((j, s * t.det),) + tuple(
                (i, -s * mu) for i, mu in zip(t.basis, _coords(t.adj, p))), s * t.det)

        walls = []
        for wall, ((k, _), (l, _)) in self.walls().items():
            u = next(r for r in cone_rays[l] if r not in wall)
            j, c = rays[u]
            walls.append(relation(cones[cone_rays[k]], j, [c * x for x in u]))
        colors = []
        for j, desc in enumerate(descs):
            if desc[0] == "c" and desc[1] not in self.colors_used():
                p = self.image(desc[1])
                t = next(t for t in cones.values() if t is not None and
                         all(t.det * mu >= 0 for mu in _coords(t.adj, p)))
                colors.append(relation(t, j, p))
        return tuple(walls), tuple(colors)

    @per_variety
    def complete(self):
        """Support equals N_Q: every wall of a full-dimensional cone lies in
        exactly two of them, on opposite sides.  Exact only for a validated
        fan (no overlaps, which are not checked here) whose full-dimensional
        cones are simplicial."""
        n = self.rank
        if n == 0:
            return len(self.fan.cones) > 0
        if any(len(rays) > n and rank(rays) == n for rays in self.cone_rays()):
            raise UnsupportedFan("completeness test needs a simplicial fan")
        return _closed(self.walls())

    @per_variety
    def locally_factorial(self):
        """Every cone generated by part of a Z-basis, colors injecting into it."""
        for cone, rays in zip(self.fan.cones, self.cone_rays()):
            d = rank(rays)
            if len(rays) != d:
                return False
            if d > 0:
                g = 0
                for cols in combinations(range(self.rank), d):
                    sub = [[r[c] for c in cols] for r in rays]
                    g = gcd(g, abs(det_int(sub)))
                if g != 1:
                    return False
            seen = set()
            for a in cone.colors:
                s = self.image(a)
                if s not in rays or s in seen:
                    return False
                seen.add(s)
        return True

    @per_variety
    def smooth(self):
        if not self.locally_factorial():
            return False
        levi = self.hs.levi_roots()
        return all(not cone.colors or rootdata.is_smooth_pair(self.G, levi, cone.colors)
                   for cone in self.fan.cones)

    @per_variety
    def picard_rank(self):
        """Edges minus rank plus colors off the fan; exact under the
        precondition of complete() (validated, non-overlapping, simplicial)."""
        if not self.locally_factorial():
            raise NotLocallyFactorial("picard_rank needs a locally factorial fan")
        if not self.complete():
            raise NotComplete("picard_rank needs a complete fan")
        return (len(self.edges()) - self.rank) + len(self.hs.R - self.colors_used())

    def dim(self):
        return self.hs.open_orbit_dim()

    def row_vector(self, desc):
        if desc[0] == "x":
            return tuple(Fraction(v) for v in desc[1])
        return tuple(Fraction(v) for v in self.image(desc[1]))

    def boundary_divisor(self, i):
        from .divisor import BStableDivisor
        desc = self.divisors[i]
        if desc[0] == "x":
            return BStableDivisor({desc[1]: Fraction(1)}, {})
        return BStableDivisor({}, {desc[1]: Fraction(1)})


# ---------------------------------------------------------------------------
# Shape detection (rank two)


class Case0(Record):
    pass


class Case1Shape(Record):
    basis: tuple   # rays e_0, ..., e_n
    a: tuple       # 0 <= a_1 <= ... <= a_n
    beta: Root


class Case2Shape(Record):
    r: int
    s: int
    u: tuple       # rays u_0, ..., u_r
    v: tuple       # rays v_1, ..., v_{s+1}
    a: tuple       # 0 <= a_1 <= ... <= a_r


class OtherShape(Record):
    reason: str


def _subset_cone_map(X, rays):
    """Check the fan is exactly {cone(S) : S proper subset of rays}."""
    keys = {(r, c.colors) for c, r in zip(X.fan.cones, X.cone_rays())}
    sig_by_ray = {}
    for a in X.colors_used():
        sig_by_ray.setdefault(primitive(X.image(a)), set()).add(a)
    expected = set()
    m = len(rays)
    for size in range(m):
        for sub in combinations(rays, size):
            cols = frozenset(a for r in sub for a in sig_by_ray.get(r, ()))
            expected.add((tuple(sorted(sub)), cols))
    return keys == expected


def _chain_coefficients(gens, target):
    """(a, (g_0, g_1, ..., g_r)) for each g_0 in gens such that target =
    sum a_k g_k over the other generators with nonnegative integers a_k,
    the g_k sorted by (a_k, g_k)."""
    n = len(target)
    for j, g0 in enumerate(gens):
        rest = [g for k, g in enumerate(gens) if k != j]
        coeffs = solve([[g[i] for g in rest] for i in range(n)], list(target))
        if coeffs is None or any(c < 0 or c.denominator != 1 for c in coeffs):
            continue
        order = sorted(range(len(rest)), key=lambda k: (coeffs[k], rest[k]))
        yield tuple(int(coeffs[k]) for k in order), (g0,) + tuple(rest[k] for k in order)


def case_detect(X):
    """Match the fan of a smooth complete rank-two X against the three shapes."""
    n = X.rank
    R = X.hs.R
    fx = X.colors_used()
    if n == 0:
        if len(R) == 2 and not fx:
            return Case0()
        return OtherShape("rank 0 but |R| != 2")
    edges = X.edges()
    outside = sorted(R - fx)

    if len(outside) == 1 and len(edges) == n + 1:
        beta = outside[0]
        if not is_zero([sum(e[i] for e in edges) for i in range(n)]):
            return OtherShape("edges do not sum to zero")
        if not _subset_cone_map(X, edges):
            return OtherShape("cone set is not the projective-space pattern")
        best = min(_chain_coefficients(edges, X.image(beta)), default=None)
        if best is None:
            return OtherShape("beta image not in any coordinate cone")
        a, basis = best
        return Case1Shape(basis, a, beta)

    if not outside and len(edges) == n + 2:
        cands = []
        for rsize in range(2, n + 1):
            for U in combinations(edges, rsize):
                if not is_zero([sum(u[i] for u in U) for i in range(n)]):
                    continue
                V = tuple(e for e in edges if e not in U)
                sv = [sum(v[i] for v in V) for i in range(n)]
                cands += [(rsize - 1, a, u, V) for a, u in _chain_coefficients(U, sv)]
        best = min(cands, default=None)
        if best is None:
            return OtherShape("no zero-sum split of the edges")
        r, a, u, V = best
        return Case2Shape(r, len(V) - 1, u, V, a)

    return OtherShape("edge/color counts fit no rank-two shape")
