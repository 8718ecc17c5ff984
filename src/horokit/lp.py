"""
Exact two-phase simplex over the rationals.

It is the fallback of the fan geometry in `horo`: cone membership,
extreme rays and pointedness on linearly dependent generators, faces of
non-simplicial cones, and the pairwise overlap test of the fans that the
wall certificate of `horo.validate_fan` does not cover (a complete
simplicial fan is certified by integer determinants, a simplicial cone is
answered by `linalg`).  It also serves the emptiness test
`polyhedra.is_feasible`; every other polytope question reads the vertex
table of `polyhedra`.  No floating point, Bland's rule throughout (no
cycling).  Problem sizes are tiny (tens of variables), so a dense tableau is
the simplest correct choice.
"""

from fractions import Fraction

from .linalg import frac

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "value", "x")

    def __init__(self, status, value=None, x=None):
        self.status = status
        self.value = value
        self.x = x

    def __repr__(self):
        return f"LPResult({self.status}, {self.value})"


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [a - f * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _simplex(tab, basis, ncols):
    """Maximize the objective stored in the last tableau row (Bland)."""
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i in range(len(tab) - 1):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        _pivot(tab, basis, best[1], col)


def solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=True, nonneg=False):
    """Optimize objective . x subject to a_ub x <= b_ub and a_eq x = b_eq.

    Variables are free unless nonneg is set.  Returns an LPResult whose value
    is stated for the requested sense.
    """
    nvar = len(objective)
    c = [frac(v) for v in objective]
    if not maximize:
        c = [-v for v in c]

    rows, rhs, kinds = [], [], []
    for r, b in zip(a_ub, b_ub):
        rows.append([frac(v) for v in r])
        rhs.append(frac(b))
        kinds.append("ub")
    for r, b in zip(a_eq, b_eq):
        rows.append([frac(v) for v in r])
        rhs.append(frac(b))
        kinds.append("eq")

    # Free x is modeled as p - q with p, q >= 0; nonneg skips the split.
    width = nvar if nonneg else 2 * nvar

    def expand(row):
        if nonneg:
            return list(row)
        return list(row) + [-v for v in row]

    nslack = sum(1 for k in kinds if k == "ub")
    m = len(rows)
    ncols = width + nslack + m  # structurals, slacks, artificials
    tab = []
    basis = []
    si = 0
    for i, (row, b, kind) in enumerate(zip(rows, rhs, kinds)):
        line = expand(row)
        sl = [Fraction(0)] * nslack
        if kind == "ub":
            sl[si] = Fraction(1)
            si += 1
        line += sl
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        line += art
        line.append(b)
        if b < 0:
            line = [-v for v in line[:-1]] + [-b]
            line[width + nslack + i] = Fraction(1)
        tab.append(line)
        basis.append(width + nslack + i)

    # Phase 1: maximize -(sum of artificials); with the artificial basis the
    # reduced-cost row is the column sum of the constraint rows, and the rhs
    # cell holds the current artificial total.
    phase1 = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        phase1 = [a + b for a, b in zip(phase1, tab[i])]
    for j in range(width + nslack, ncols):
        phase1[j] = Fraction(0)
    tab.append(phase1)
    _simplex(tab, basis, width + nslack)
    if tab[-1][-1] > 0:
        return LPResult(INFEASIBLE)
    # Drive remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= width + nslack:
            col = next((j for j in range(width + nslack) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    tab.pop()

    # Phase 2.
    obj = [Fraction(0)] * (ncols + 1)
    cexp = expand(c)
    for j, v in enumerate(cexp):
        obj[j] = v
    # Reduce costs against the current basis (rhs column picks up -value).
    for i, bcol in enumerate(basis):
        if bcol < len(cexp) and cexp[bcol] != 0:
            f = cexp[bcol]
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab.append(obj)
    status = _simplex(tab, basis, width + nslack)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    xs = [Fraction(0)] * (width + nslack)
    for i, bcol in enumerate(basis):
        if bcol < width + nslack:
            xs[bcol] = tab[i][-1]
    if nonneg:
        x = tuple(xs[:nvar])
    else:
        x = tuple(xs[j] - xs[nvar + j] for j in range(nvar))
    value = -tab[-1][-1]
    if not maximize:
        value = -value
    return LPResult(OPTIMAL, value, x)


def feasible(a_ge, b_ge):
    """Is {x : a_ge x >= b_ge} nonempty?"""
    res = solve_lp([0] * len(a_ge[0]),
                   a_ub=[[-v for v in r] for r in a_ge], b_ub=[-b for b in b_ge])
    return res.status == OPTIMAL


def in_cone(generators, target):
    """Is target a nonnegative combination of the generators?"""
    gens = list(generators)
    if not gens:
        return all(v == 0 for v in target)
    n = len(target)
    a_eq = [[frac(g[i]) for g in gens] for i in range(n)]
    res = solve_lp([0] * len(gens), a_eq=a_eq, b_eq=[frac(v) for v in target], nonneg=True)
    return res.status == OPTIMAL
