"""
B-stable divisors on a complete embedding: piecewise linear supports,
Cartier / globally generated / ample tests, pseudo-moment and moment
polytopes, section weights, the anticanonical divisor and the nef basis
certificate.

Everything a divisor query needs of the fan is derived once per variety:
`HoroVariety.skeleton()` holds, for each maximal cone, an integer basis of
support points with its determinant and adjugate (Bareiss), so a PL function
h_D is one integer matrix-vector product per cone; `HoroVariety.relations()`
holds one integer relation per wall and per color off the fan, so the
ampleness test is the sign of one integer dot product each (convexity
across walls, Cox, Little and Schenck, Toric Varieties, 2011, §6.1; the
colors off the fan as in Pasquier's criterion for horospherical varieties,
2008).  Both need a complete simplicial fan.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from . import rootdata
from .errors import AssertionBZeta, NotCartier, NotQCartier
from .horo import per_variety
from .linalg import frac
from .record import Record, factory

AMPLE = "Ample"
GG_NOT_AMPLE = "GloballyGeneratedNotAmple"
NEITHER = "Neither"


class BStableDivisor(Record):
    """Coefficients on G-stable edges (by primitive ray) and on colors."""

    gstable: dict
    colors: dict

    def __post_init__(self):
        object.__setattr__(self, "gstable",
                           {tuple(k): frac(v) for k, v in self.gstable.items() if v})
        object.__setattr__(self, "colors",
                           {k: frac(v) for k, v in self.colors.items() if v})

    def coeff(self, desc):
        if desc[0] == "x":
            return self.gstable.get(desc[1], Fraction(0))
        return self.colors.get(desc[1], Fraction(0))

    def __add__(self, other):
        g = dict(self.gstable)
        for k, v in other.gstable.items():
            g[k] = g.get(k, Fraction(0)) + v
        c = dict(self.colors)
        for k, v in other.colors.items():
            c[k] = c.get(k, Fraction(0)) + v
        return BStableDivisor(g, c)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, t):
        t = frac(t)
        return BStableDivisor({k: t * v for k, v in self.gstable.items()},
                              {k: t * v for k, v in self.colors.items()})

    __rmul__ = __mul__

    def is_integral(self):
        return all(v.denominator == 1 for v in self.gstable.values()) and \
            all(v.denominator == 1 for v in self.colors.values())


class PLFunction(Record):
    """One linear form per maximal cone, keyed by the cone's sorted rays."""

    pieces: dict
    cartier: bool
    ray_values: dict = factory(dict)


def _numerators(D, descs):
    """The coefficients of D on descs as integer numerators over one
    positive denominator: (numerators, denominator)."""
    coeffs = [D.coeff(desc) for desc in descs]
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def check_q_cartier(X, D):
    """The coefficients of D on the descriptors of `X.skeleton()` as integer
    numerators over one denominator, (numerators, denominator), once D is
    found Q-Cartier: on each maximal cone the support points outside its
    basis agree with the form through its basis.  Raises NotQCartier where
    `pl_function` does, and builds none of its pieces."""
    descs, cones, _ = X.skeleton()
    d, den = _numerators(D, descs)
    for key, t in cones.items():
        if t is None:
            raise NotQCartier("maximal cone with underdetermined support "
                              "(unexpected for complete fans)")
        b = [d[i] for i in t.basis]
        if any(sum(map(mul, mu, b)) != t.det * d[j] for j, mu in t.checks):
            raise NotQCartier(f"no linear form matches the coefficients on {key}")
    if not cones and X.rank:
        raise NotQCartier("fan has no full-dimensional cone")
    return d, den


def pl_function(X, D):
    """h_D, cone by cone; raises NotQCartier on inconsistency.

    X.skeleton() holds, once per variety, n independent support points of
    each maximal cone with the determinant and adjugate of their matrix, so
    each piece is one integer matrix-vector product over the coefficients
    of D scaled to integers, and the other support points in the cone are
    checked by integer dot products.  A ray's value is its support point's
    coefficient over that point's multiple of the ray.

    Exact under the precondition of `X.complete()` (a validated,
    non-overlapping fan with simplicial maximal cones), as ample_status
    needs.  On any other fan each full-dimensional cone still gets the form
    that agrees with D on its support points (with a greedy basis for a cone
    of more than n rays), and NotQCartier when there is none or more than
    one (`check_q_cartier`).
    """
    d, den = check_q_cartier(X, D)
    _, cones, rays = X.skeleton()
    pieces = {}
    for key, t in cones.items():
        b = [d[i] for i in t.basis]
        q = t.det * den
        pieces[key] = tuple([Fraction(sum(map(mul, row, b)), q) for row in t.adj])
    if not pieces:   # rank zero, as check_q_cartier passed
        pieces[tuple()] = tuple()
    ray_values = {r: Fraction(d[i], den * c) for r, (i, c) in rays.items()}
    cartier = D.is_integral() and all(
        all(v.denominator == 1 for v in form) for form in pieces.values())
    return PLFunction(pieces, cartier, ray_values)


def ample_status(X, D):
    """Ample / globally generated / neither, via convexity of h_D across
    the walls of X and at the colors off the fan (`X.relations()`): h_D is
    convex iff no relation is negative, strictly iff all are positive.

    Exact under the precondition of `X.complete()` (a validated,
    non-overlapping fan with simplicial maximal cones) where it holds; raises
    NotComplete where it fails, after NotQCartier when D is not Q-Cartier.
    """
    d, _ = check_q_cartier(X, D)
    walls, colors = X.relations()
    values = [sum(k * d[i] for i, k in terms) for terms, _ in walls + colors]
    if any(v < 0 for v in values):
        return NEITHER
    return AMPLE if all(v > 0 for v in values) else GG_NOT_AMPLE


def moment_polytopes(X, D, checked=False):
    """(pseudo-moment system, v0); the moment polytope is v0 + the system,
    v0 = sum of c_a w_a over the colors a of D, a tuple of Fractions.

    Rows follow X.divisors: the G-stable ray or sigma(color) vector with
    right-hand side the negated coefficient.  checked, true when the caller
    has already found D Q-Cartier, spares that check (`check_q_cartier`).
    """
    from .polyhedra import InequalitySystem, color_tag, gstable_tag  # not for `check`
    if not checked:
        check_q_cartier(X, D)
    rows, rhs, tags = [], [], []
    for desc in X.divisors:
        rows.append(X.row_vector(desc))
        rhs.append(-D.coeff(desc))
        tags.append(gstable_tag(desc[1]) if desc[0] == "x" else color_tag(desc[1]))
    return InequalitySystem(tuple(rows), tuple(rhs), tuple(tags)), color_weight(X.G, D)


def color_weight(G, D):
    """sum of c_a w_a over the colors a of D (coefficients c_a), the w_a the
    integer fundamental weights of G, as a tuple of Fractions."""
    v = [Fraction(0)] * G.weight_dim
    for a, c in D.colors.items():
        for i, x in enumerate(G.fundamental_weight(a)):
            if x:
                v[i] += c * x
    return tuple(v)


def section_weights(X, D):
    """Highest weights of the section module of a Cartier divisor."""
    from .polyhedra import lattice_points
    h = pl_function(X, D)
    if not h.cartier:
        raise NotCartier("section weights need a Cartier divisor")
    system, v0 = moment_polytopes(X, D, checked=True)
    out = []
    for pt in lattice_points(system):
        w = list(v0)
        for c, m in zip(pt, X.hs.M_basis):
            for i, mv in enumerate(m):
                w[i] += c * mv
        out.append(tuple(w))
    return sorted(out)


@per_variety
def anticanonical(X):
    """-K_X: coefficient 1 on every G-stable edge, <alpha^vee, 2 rho_P> on
    the color D_alpha; trips AssertionBZeta if any color coefficient < 2.
    Derived once per variety, and kept with its other per-variety data."""
    g = {ray: Fraction(1) for ray in X.gstable_rays}
    c = {}
    for a in sorted(X.hs.R):
        b = rootdata.color_coefficient(X.G, X.hs.R, a)
        if b < 2:
            raise AssertionBZeta(f"color coefficient {b} < 2 at {a}")
        c[a] = Fraction(b)
    return BStableDivisor(g, c)


def is_fano(X):
    return ample_status(X, anticanonical(X)) == AMPLE


def class_cartier(X, D):
    """Is the class of D Cartier, i.e. D + div(chi) Cartier for some chi?

    Shifting by a global linear form moves every piece by the same covector,
    so the class is Cartier iff all piece differences are integral and the
    leftover color coefficients are integral after the common shift.  Two
    reduced fractions differ by an integer iff they have one denominator
    and congruent numerators; a color off the fan is read off its relation
    in `X.relations()`, whose value is c_a - h_D(sigma(a)).  Needs a
    complete simplicial fan, as ample_status does.
    """
    try:
        h = pl_function(X, D)
    except NotQCartier:
        return False
    colors = X.relations()[1]
    forms = list(h.pieces.values())
    base = forms[0]
    for form in forms[1:]:
        if any(u.denominator != v.denominator or (u.numerator - v.numerator) % u.denominator
               for u, v in zip(form, base)):
            return False
    d, den = _numerators(D, X.skeleton()[0])
    return all(sum(k * d[i] for i, k in terms) % (rden * den) == 0
               for terms, rden in colors)


def verify_nef_generators(X, Da, Db):
    """Certificate that (Da, Db) generates the nef cone and Pic = Z Da + Z Db."""
    if X.picard_rank() != 2:
        return False
    if ample_status(X, Da) != GG_NOT_AMPLE:
        return False
    if ample_status(X, Db) != GG_NOT_AMPLE:
        return False
    if ample_status(X, Da + Db) != AMPLE:
        return False
    for p, q, want in ((1, 0, True), (0, 1, True), (1, 1, True),
                       (Fraction(1, 2), Fraction(1, 2), False)):
        if class_cartier(X, p * Da + q * Db) != want:
            return False
    return True
