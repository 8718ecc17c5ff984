"""
B-stable divisors on a complete embedding: piecewise linear supports,
Cartier / globally generated / ample tests, pseudo-moment and moment
polytopes, section weights, the anticanonical divisor and the nef basis
certificate.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import rootdata
from .errors import AssertionBZeta, NotCartier, NotQCartier
from .horo import cone_contains
from .linalg import dot, frac, solve
from .polyhedra import InequalitySystem, color_tag, gstable_tag, lattice_points

AMPLE = "Ample"
GG_NOT_AMPLE = "GloballyGeneratedNotAmple"
NEITHER = "Neither"


@dataclass(frozen=True)
class BStableDivisor:
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


@dataclass(frozen=True)
class PLFunction:
    """One linear form per maximal cone, keyed by the cone's sorted rays."""

    pieces: dict
    cartier: bool
    ray_values: dict = field(default_factory=dict)

    def value_at(self, x):
        for rays, form in self.pieces.items():
            if cone_contains(rays, x):
                return dot(form, x)
        raise ValueError(f"{x} lies in no maximal cone (fan not complete?)")


def pl_function(X, D):
    """Solve for h_D cone by cone; raises NotQCartier on inconsistency.

    The cones and the support points each one contains come from
    X.skeleton(), so only the solves depend on D.
    """
    n = X.rank
    support, cones = X.skeleton()
    pieces = {}
    ray_values = {}
    for rays, (inside, spanned) in cones.items():
        if not spanned:
            raise NotQCartier("maximal cone with underdetermined support "
                              "(unexpected for complete fans)")
        sol = solve([support[i][1] for i in inside],
                    [D.coeff(support[i][0]) for i in inside])
        if sol is None:
            raise NotQCartier(f"no linear form matches the coefficients on {rays}")
        pieces[rays] = tuple(sol)
        for r in rays:
            ray_values[r] = dot(sol, r)
    if not pieces:
        if n == 0:
            pieces[tuple()] = tuple()
        else:
            raise NotQCartier("fan has no full-dimensional cone")
    cartier = D.is_integral() and all(
        all(v.denominator == 1 for v in form) for form in pieces.values())
    return PLFunction(pieces, cartier, ray_values)


def ample_status(X, D, pl=None):
    """Ample / globally generated / neither, via convexity of h_D."""
    h = pl or pl_function(X, D)
    rays = list(h.ray_values)
    convex = True
    strict = True
    for crays, form in h.pieces.items():
        inside = set(crays)
        for r in rays:
            val = dot(form, r)
            if val > h.ray_values[r]:
                convex = False
            if r not in inside and val >= h.ray_values[r]:
                strict = False
    if X.rank == 0:
        convex = strict = True
    for a in sorted(X.hs.R - X.colors_used()):
        s = X.image(a)
        hv = h.value_at(s) if X.rank else Fraction(0)
        ca = D.coeff(("c", a))
        if hv > ca:
            convex = False
        if hv >= ca:
            strict = False
    if not convex:
        return NEITHER
    return AMPLE if strict else GG_NOT_AMPLE


def moment_polytopes(X, D):
    """(pseudo-moment system, v0); the moment polytope is v0 + the system.

    Rows follow X.divisors: the G-stable ray or sigma(color) vector with
    right-hand side the negated coefficient.
    """
    pl_function(X, D)  # Q-Cartier gate
    rows, rhs, tags = [], [], []
    for desc in X.divisors:
        rows.append(X.row_vector(desc))
        rhs.append(-D.coeff(desc))
        tags.append(gstable_tag(desc[1]) if desc[0] == "x" else color_tag(desc[1]))
    v0 = X.G.zero_weight()
    for a, c in D.colors.items():
        v0 = tuple(x + c * y for x, y in zip(v0, X.G.fundamental_weight(a)))
    return InequalitySystem(tuple(rows), tuple(rhs), tuple(tags)), v0


def section_weights(X, D):
    """Highest weights of the section module of a Cartier divisor."""
    h = pl_function(X, D)
    if not h.cartier:
        raise NotCartier("section weights need a Cartier divisor")
    system, v0 = moment_polytopes(X, D)
    out = []
    for pt in lattice_points(system):
        w = list(v0)
        for c, m in zip(pt, X.hs.M_basis):
            for i, mv in enumerate(m):
                w[i] += c * mv
        out.append(tuple(w))
    return sorted(out)


def anticanonical(X):
    """-K_X: coefficient 1 on every G-stable edge, <alpha^vee, 2 rho_P> on
    the color D_alpha; trips AssertionBZeta if any color coefficient < 2."""
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
    leftover color coefficients are integral after the common shift.
    """
    try:
        h = pl_function(X, D)
    except NotQCartier:
        return False
    forms = list(h.pieces.values())
    base = forms[0]
    for form in forms[1:]:
        if any((u - v).denominator != 1 for u, v in zip(form, base)):
            return False
    for a in sorted(X.hs.R - X.colors_used()):
        s = X.image(a)
        if (D.coeff(("c", a)) - dot(base, s)).denominator != 1:
            return False
    return True


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
