"""
Seeded inputs of the three workloads.

The restricted grid is rebuilt here rather than imported from the test
suite, so that a change to the tests cannot change what is measured.  It is
the grid of the acceptance suite: family one has every a-chain with entries
<= 4 at rank <= 4 times every realizable triviality pattern over an A5
anchor (plus a few B4 / C4 / A1 anchors), family two has every strict chain
at r <= 3 over the B3 / C3 / G2 tails.  669 specs in all, 384 of them at
rank 4.

Samples are stratified: the grid is split by (family, rank), each stratum is
cut in canonical order into consecutive blocks, and one spec is drawn at
random from each block.  Neighbouring specs in canonical order cost about
the same, so every seed gets the same mix of sizes and nearly the same work.
"""

from itertools import combinations_with_replacement, product

from horokit import classify as cl
from horokit.classify import RCFail, X1Spec, X2Spec
from horokit.errors import HorokitError
from horokit.rootdata import (GroupFactor, GroupProduct, Root, SL, Sp, Spin,
                              TORUS_FACTOR, TRIVIAL_FACTOR,
                              enumerate_smooth_quadruples)

ANCHORS = {
    "A5": GroupFactor("A", 5),
    "B4": GroupFactor("B", 4),
    "C4": GroupFactor("C", 4),
    "A1": GroupFactor("A", 1),
}

TAILS = (
    (Spin(7), 1, 3),                # B3
    (Sp(6), 1, 2),                  # C3
    (GroupFactor("G", 2), 1, 2),    # G2
)


def _realize_x1(anchor, chain, pattern, choices):
    """pattern[i] in {"r0", "outer", "triv"}; an X1Spec or None."""
    k = sum(1 for p in pattern if p == "r0")
    n_flag = 1 if len(chain) == 2 else 2
    key = (anchor, n_flag, k)
    if key not in choices:
        f = ANCHORS[anchor]
        choices[key] = [(b, tuple(sorted(R))) for b, R in
                        enumerate_smooth_quadruples(f.family, f.rank, n_flag)
                        if len(R) == k]
    if not choices[key]:
        return None
    beta_idx, r0 = choices[key][0]
    factors = [ANCHORS[anchor]]
    alphas = []
    r0_iter = iter(r0)
    for i, p in enumerate(pattern):
        if p == "r0":
            alphas.append(Root(0, next(r0_iter)))
        elif p == "outer":
            factors.append(SL(2))
            alphas.append(Root(len(factors) - 1, 1))
        else:
            factors.append(TRIVIAL_FACTOR if i == 0 else TORUS_FACTOR)
            alphas.append(Root(len(factors) - 1, 0))
    try:
        spec = X1Spec(GroupProduct(tuple(factors)), Root(0, beta_idx),
                      tuple(alphas), chain)
    except (HorokitError, ValueError):
        return None
    return None if isinstance(cl.check_rc1(spec), RCFail) else spec


def family_one():
    """Every a-chain with entries <= 4 at rank n <= 4."""
    specs = []
    choices = {}
    for n in range(1, 5):
        for rest in combinations_with_replacement(range(5), n):
            chain = (0,) + rest
            # an index tied with an earlier one must sit in factor 0
            forced = {j for j in range(1, n + 1)
                      if any(chain[i] == chain[j] for i in range(j))}
            free = [j for j in range(1, n + 1) if j not in forced]
            for bits in product(("outer", "triv"), repeat=len(free)):
                pattern = ["triv"] + [None] * n
                for j in forced:
                    pattern[j] = "r0"
                for j, b in zip(free, bits):
                    pattern[j] = b
                spec = _realize_x1("A5", chain, tuple(pattern), choices)
                if spec is not None:
                    specs.append(spec)
    extras = [
        ("B4", (0, 0, 1), ("triv", "r0", "outer")),
        ("B4", (0, 1, 1), ("triv", "outer", "r0")),
        ("B4", (0, 1), ("outer", "r0")),
        ("C4", (0, 0, 2), ("triv", "r0", "triv")),
        ("C4", (0, 1, 2), ("triv", "outer", "outer")),
        ("A1", (0, 1), ("triv", "outer")),
        ("A1", (0, 1, 2), ("triv", "triv", "outer")),
        ("A5", (0, 1, 2), ("outer", "triv", "outer")),
        ("A5", (0, 0, 1, 2), ("outer", "r0", "outer", "triv")),
    ]
    for anchor, chain, pattern in extras:
        spec = _realize_x1(anchor, chain, pattern, choices)
        if spec is not None:
            specs.append(spec)
    pairs = [
        X1Spec(GroupProduct((ANCHORS["B4"], SL(4))), Root(0, 2),
               (Root(1, 1), Root(1, 3)), (0, 1)),
        X1Spec(GroupProduct((ANCHORS["A5"], SL(4))), Root(0, 3),
               (Root(1, 1), Root(1, 2)), (0, 2)),
    ]
    specs += [s for s in pairs if not isinstance(cl.check_rc1(s), RCFail)]
    return specs


def family_two():
    """Every strict chain with entries <= 4 at r <= 3, over each tail."""
    specs = []
    for tail, g, d in TAILS:
        for r in range(1, 4):
            for rest in combinations_with_replacement(range(1, 5), r):
                if len(set(rest)) != r:
                    continue
                for bits in product(("outer", "triv"), repeat=r):
                    factors = [TRIVIAL_FACTOR]
                    alphas = [Root(0, 0)]
                    for b in bits:
                        factors.append(SL(2) if b == "outer" else TORUS_FACTOR)
                        alphas.append(Root(len(factors) - 1,
                                           1 if b == "outer" else 0))
                    factors.append(tail)
                    t = len(factors) - 1
                    alphas += [Root(t, g), Root(t, d)]
                    spec = X2Spec(GroupProduct(tuple(factors)), tuple(alphas),
                                  (0,) + rest)
                    if not isinstance(cl.check_rc2(spec), RCFail):
                        specs.append(spec)
    head = X2Spec(GroupProduct((SL(4), Sp(6))),
                  (Root(0, 1), Root(0, 2), Root(1, 2), Root(1, 3)), (0, 1))
    if not isinstance(cl.check_rc2(head), RCFail):
        specs.append(head)
    return specs


def grid():
    return family_one() + family_two()


def stratum(spec):
    """(family, lattice rank); both families have rank spec.n."""
    return ("x1" if isinstance(spec, X1Spec) else "x2", spec.n)


def sample_grid(specs, rng, block, strata=None):
    """One spec drawn at random from each block of `block` consecutive specs
    of every (family, rank) stratum, in canonical order."""
    by = {}
    for s in specs:
        by.setdefault(stratum(s), []).append(s)
    out = []
    for key in sorted(by):
        if strata is not None and key not in strata:
            continue
        members = by[key]
        for i in range(0, len(members), block):
            out.append(rng.choice(members[i:i + block]))
    return out


# ---------------------------------------------------------------------------
# Random polytopes

# (dimension, extra rows) strata: every dimension 1..4 and every number of
# non-box rows that keeps the system at <= 10 rows.
POLY_STRATA = tuple((n, k) for n in range(1, 5) for k in range(1, 11 - 2 * n))
SLACKS = (0, 0, 1, 2, 3)


def random_system(rng, n, extra):
    """A x >= b with `extra` random rows plus the 2n box rows, feasible by
    construction: b = A x0 - s for a seeded integer point x0 and slacks s
    drawn from SLACKS, so degenerate vertices and lower-dimensional
    polytopes occur."""
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(extra)]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        rows.append(tuple(e))
        rows.append(tuple(-v for v in e))
    b = [sum(r[j] * x0[j] for j in range(n)) - rng.choice(SLACKS) for r in rows]
    return tuple(rows), tuple(b)


def polytope_systems(rng, per_stratum):
    return [random_system(rng, n, k)
            for n, k in POLY_STRATA for _ in range(per_stratum)]


