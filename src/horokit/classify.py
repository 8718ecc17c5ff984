"""
The two standard families of rank-two varieties, their builders and their
restricted conditions.  The normalization rewrite system and the
closed-form exceptional-locus / fiber-dimension data are in `normalform`.

Specs are presentation data: a group product, a distinguished root beta
(family one only), an ordered tuple of pairwise distinct simple roots
(trivial roots allowed) and a nondecreasing integer tuple starting at 0.
Family one is the projectivized sum of weight modules w_{alpha_i} +
(1+a_i) w_beta; family two replaces the beta line by a two-root tail.
"""

from itertools import combinations

from .errors import NotRestrictedForm, SpecInvariantViolated
from .horo import ColoredCone, ColoredFan, HomSpaceData, HoroVariety, sigma
from .record import Record
from .rootdata import (GroupFactor, GroupProduct, Root, TORUS, TRIVIAL,
                       flag_dimension, is_smooth_quadruple, smooth_triple_class,
                       simple_factor, NOT_SMOOTH, SMOOTH_TWO_ORBIT)


class X1Spec(Record):
    G: GroupProduct
    beta: Root
    alphas: tuple
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        G, beta, alphas, a = self.G, self.beta, self.alphas, self.a
        t = len(G.factors) - 1
        n = len(alphas) - 1
        if not G.factors or not G.factors[0].is_simple:
            raise SpecInvariantViolated("factor 0 must be simple")
        G.check_root(beta)
        if beta.factor != 0 or beta.index == 0:
            raise SpecInvariantViolated("beta must be a non-trivial root of factor 0")
        for r in alphas:
            G.check_root(r)
        if len(set(alphas)) != len(alphas) or beta in alphas:
            raise SpecInvariantViolated("alphas must be distinct and differ from beta")
        if len(a) != n + 1 or a and a[0] != 0 or any(a[i] > a[i + 1] for i in range(n)) \
                or any(v < 0 for v in a):
            raise SpecInvariantViolated("a must be nondecreasing with a_0 = 0")
        if n < 1 or n + 1 < t:
            raise SpecInvariantViolated("need n >= 1 and enough roots to "
                                        "cover every outer factor")
        for k in range(1, t + 1):
            is_one = G.factors[k].family == TRIVIAL
            should = (k == 1 and alphas[0] == Root(1, 0))
            if is_one != should:
                raise SpecInvariantViolated(
                    "a trivial factor may only be factor 1 housing alpha_0")
        outside = [r.factor for r in alphas if r.factor != 0]
        if sorted(outside) != outside or set(outside) != set(range(1, t + 1)):
            raise SpecInvariantViolated(
                "roots outside factor 0 must cover factors 1..t in order")

    @property
    def n(self):
        return len(self.alphas) - 1

    def r0(self):
        return tuple(r for r in self.alphas if r.factor == 0)

    def dim(self):
        R = {self.beta} | {r for r in self.alphas if not self.G.is_trivial_root(r)}
        levi = {r for r in self.G.nontrivial_roots() if r not in R}
        return flag_dimension(self.G, levi) + self.n


class X2Spec(Record):
    G: GroupProduct
    alphas: tuple
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        G, alphas, a = self.G, self.alphas, self.a
        t = len(G.factors) - 1
        n = len(alphas) - 2
        if n < 2:
            raise SpecInvariantViolated("need n >= 2 (at least four roots)")
        if t < 1:
            raise SpecInvariantViolated("need at least two factors")
        for r in alphas:
            G.check_root(r)
        if len(set(alphas)) != len(alphas):
            raise SpecInvariantViolated("alphas must be distinct")
        if len(a) != n or a[0] != 0 or any(a[i] > a[i + 1] for i in range(n - 1)) \
                or any(v < 0 for v in a):
            raise SpecInvariantViolated("a must be nondecreasing with a_0 = 0")
        for k in range(t + 1):
            is_one = G.factors[k].family == TRIVIAL
            should = (k == 0 and alphas[0] == Root(0, 0)) or \
                (k == t and alphas[-1] == Root(t, 0))
            if is_one != should:
                raise SpecInvariantViolated(
                    "trivial factors may only sit at the ends housing alpha_0 "
                    "or alpha_{n+1}")
        facs = [r.factor for r in alphas]
        if sorted(facs) != facs or set(facs) != set(range(t + 1)):
            raise SpecInvariantViolated("roots must cover factors 0..t in order")

    @property
    def n(self):
        return len(self.alphas) - 2

    @property
    def r(self):
        return self.n - 1

    def dim(self):
        R = {r for r in self.alphas if not self.G.is_trivial_root(r)}
        levi = {r for r in self.G.nontrivial_roots() if r not in R}
        return flag_dimension(self.G, levi) + self.n


# ---------------------------------------------------------------------------
# Builders


def build_x1(spec):
    """Colored-fan data of a family-one spec, as a HoroVariety.

    M basis: e_i = w_{alpha_i} - w_{alpha_0} + a_i w_beta; edges are the
    coordinate rays plus e_0 = -(e_1 + ... + e_n); beta is the color off the
    fan, sent to (a_1, ..., a_n).
    """
    G, n = spec.G, spec.n
    wb = G.fundamental_weight(spec.beta)
    w0 = G.fundamental_weight(spec.alphas[0])
    basis = []
    for i in range(1, n + 1):
        wi = G.fundamental_weight(spec.alphas[i])
        basis.append(tuple(x - y + spec.a[i] * z for x, y, z in zip(wi, w0, wb)))
    R = {spec.beta} | {r for r in spec.alphas if not G.is_trivial_root(r)}
    hs = HomSpaceData(G, frozenset(R), tuple(basis))

    rays = [tuple(-1 for _ in range(n))] + \
        [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    color_of = {}
    for i, alpha in enumerate(spec.alphas):
        if not G.is_trivial_root(alpha):
            assert tuple(sigma(hs, alpha)) == rays[i]
            color_of[i] = alpha
    assert tuple(sigma(hs, spec.beta)) == tuple(spec.a[1:])

    cones = []
    for size in range(n + 1):
        for I in combinations(range(n + 1), size):
            gens = tuple(rays[i] for i in I)
            cols = frozenset(color_of[i] for i in I if i in color_of)
            cones.append(ColoredCone(gens, cols))
    fan = ColoredFan(tuple(cones))
    divisors = tuple(("c", color_of[i]) if i in color_of else ("x", rays[i])
                     for i in range(n + 1)) + (("c", spec.beta),)
    return HoroVariety(hs, fan, divisors)


def build_x2(spec):
    """Colored-fan data of a family-two spec (the s = 1 presentation)."""
    G, n, r = spec.G, spec.n, spec.r
    a = spec.a
    al = spec.alphas
    w_end = G.fundamental_weight(al[n + 1])
    w0 = G.fundamental_weight(al[0])
    basis = []
    for i in range(1, r + 1):
        wi = G.fundamental_weight(al[i])
        basis.append(tuple(x - y + a[i] * z for x, y, z in zip(wi, w0, w_end)))
    wv = G.fundamental_weight(al[r + 1])
    basis.append(tuple(x - y for x, y in zip(wv, w_end)))
    R = {x for x in al if not G.is_trivial_root(x)}
    hs = HomSpaceData(G, frozenset(R), tuple(basis))

    def unit(i):
        return tuple(1 if j == i else 0 for j in range(n))

    u = [tuple([-1] * r + [0])] + [unit(i) for i in range(r)]
    v = [unit(n - 1), tuple(list(a[1:]) + [-1])]
    ray_of = u + v
    color_of = {}
    for i, alpha in enumerate(al):
        if not G.is_trivial_root(alpha):
            assert tuple(sigma(hs, alpha)) == ray_of[i], (alpha, sigma(hs, alpha))
            color_of[i] = alpha

    cones = []
    for isz in range(r + 1):
        for I in combinations(range(r + 1), isz):
            for jsz in range(2):
                for J in combinations((r + 1, r + 2), jsz):
                    members = tuple(I) + tuple(J)
                    gens = tuple(ray_of[i] for i in members)
                    cols = frozenset(color_of[i] for i in members if i in color_of)
                    cones.append(ColoredCone(gens, cols))
    fan = ColoredFan(tuple(cones))
    divisors = tuple(("c", color_of[i]) if i in color_of else ("x", ray_of[i])
                     for i in range(n + 2))
    return HoroVariety(hs, fan, divisors)


# ---------------------------------------------------------------------------
# Restricted conditions


class RCFail(Record):
    reason: str

    def __bool__(self):
        return False


# (family, beta index as a predicate) pairs where the acting group is not
# the full cover of the automorphisms of G/P(w_beta).
def _cover_fix(factor, beta_index):
    fam, m = factor.family, factor.rank
    if fam == "C" and beta_index == 1:
        return GroupFactor("A", 2 * m - 1), 1
    if fam == "G" and beta_index == 1:
        return GroupFactor("B", 3), 1
    if fam == "B" and beta_index == m:
        f, relabel = simple_factor("D", m + 1)
        return f, relabel[m + 1]
    return None


def _first_bad_factor(G, roots):
    """For sub-cases (b)/(c): the first factor of a root that is neither
    torus/trivial nor of type A with the root its first one, or None."""
    for r in roots:
        f = G.factors[r.factor]
        if f.family not in (TORUS, TRIVIAL) and (f.family, r.index) != ("A", 1):
            return f
    return None


def check_rc1(spec):
    """Restricted-condition tag 'a'/'b'/'c' for a family-one spec."""
    G, n, t = spec.G, spec.n, len(spec.G.factors) - 1
    G0 = G.factors[0]
    r0 = spec.r0()
    if not is_smooth_quadruple(G0, spec.beta.index, {r.index for r in r0}, n):
        return RCFail("the quadruple on factor 0 is not smooth")
    if not r0 and _cover_fix(G0, spec.beta.index) is not None:
        return RCFail("factor 0 is not the full cover acting on the flag base")
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if spec.a[i] == spec.a[j]:
                if spec.alphas[j].factor != 0:
                    return RCFail(f"a_{i}=a_{j} but alpha_{j} is not in factor 0")
                if spec.alphas[i].factor == 0 and \
                        spec.alphas[i].index > spec.alphas[j].index:
                    return RCFail(f"equal-a roots alpha_{i}, alpha_{j} out of "
                                  "Bourbaki order")
    # sub-case (a)
    if n == 1 and t == 1 and spec.alphas[0].factor == 1 and \
            spec.alphas[1].factor == 1:
        cls = smooth_triple_class(G.factors[1], spec.alphas[0].index,
                                  spec.alphas[1].index)
        if cls == NOT_SMOOTH:
            return RCFail("the rank-one pair on factor 1 is not smooth")
        return "a"
    # sub-cases (b)/(c): one root per outer factor, each SL-first or trivial
    outer = [r for r in spec.alphas if r.factor != 0]
    if len(outer) != t or [r.factor for r in outer] != list(range(1, t + 1)):
        return RCFail("outer factors must carry exactly one root each, in order")
    bad = _first_bad_factor(G, outer)
    if bad is not None:
        return RCFail(f"outer factor {bad} must be type A with its first root "
                      "(or a torus/trivial factor)")
    return "c" if G.is_trivial_root(spec.alphas[n]) else "b"


def check_rc2(spec):
    """Restricted-condition tag 'a'/'b'/'c' for a family-two spec."""
    G, n, r, t = spec.G, spec.n, spec.r, len(spec.G.factors) - 1
    if any(spec.a[i] >= spec.a[i + 1] for i in range(len(spec.a) - 1)):
        return RCFail("the a-chain must be strictly increasing")
    tail = (spec.alphas[n], spec.alphas[n + 1])
    if tail[0].factor != t or tail[1].factor != t or \
            G.is_trivial_root(tail[0]) or G.is_trivial_root(tail[1]):
        return RCFail("the last two roots must be non-trivial roots of the "
                      "last factor")
    if smooth_triple_class(G.factors[t], tail[0].index, tail[1].index) != \
            SMOOTH_TWO_ORBIT:
        return RCFail("the tail pair is not smooth of two-orbit type")
    if n == 2 and t == 1 and spec.alphas[0].factor == 0 and \
            spec.alphas[1].factor == 0:
        cls = smooth_triple_class(G.factors[0], spec.alphas[0].index,
                                  spec.alphas[1].index)
        if cls == NOT_SMOOTH:
            return RCFail("the rank-one pair on factor 0 is not smooth")
        return "a"
    if t != n or [x.factor for x in spec.alphas[:n]] != list(range(n)):
        return RCFail("need one root per factor 0..t-1, in order")
    bad = _first_bad_factor(G, spec.alphas[:n])
    if bad is not None:
        return RCFail(f"factor {bad} must be type A with its first root "
                      "(or a torus/trivial factor)")
    return "c" if G.is_trivial_root(spec.alphas[r]) else "b"


def check_rc(spec):
    """Restricted-condition tag 'a'/'b'/'c' of a spec of either family, or
    the RCFail of the first condition it breaks."""
    return check_rc1(spec) if isinstance(spec, X1Spec) else check_rc2(spec)


def require_rc(spec):
    """`check_rc`, raising NotRestrictedForm on an RCFail."""
    rc = check_rc(spec)
    if isinstance(rc, RCFail):
        raise NotRestrictedForm(rc.reason)
    return rc
