"""
Exact rational linear algebra on tuples of Fractions.

Everything here is small and dense (ambient dimension <= ~8), so plain
Gaussian elimination over Fraction is exact and fast enough.  Vectors are
tuples, matrices are tuples of row tuples.
"""

from fractions import Fraction
from math import gcd


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(xs):
    return tuple(frac(x) for x in xs)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    c = frac(c)
    return tuple(c * a for a in u)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(u):
    return all(a == 0 for a in u)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m = [list(map(frac, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m], pivots


def rank(rows):
    return len(rref(rows)[1])


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.

    Underdetermined systems return the particular solution with free
    variables set to zero.
    """
    if not rows:
        return tuple()
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    n = len(rows[0])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return tuple(x)


def int_rows(rows, rhs):
    """Scale each row of (A | b) by a positive rational to integer entries."""
    out_a, out_b = [], []
    for r, b in zip(rows, rhs):
        entries = [frac(x) for x in r] + [frac(b)]
        den = 1
        for e in entries:
            den = den * e.denominator // gcd(den, e.denominator)
        ints = [int(e * den) for e in entries]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out_a.append(tuple(ints[:-1]))
        out_b.append(ints[-1])
    return out_a, out_b


def det_int(rows):
    """Determinant of a small square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def primitive(v):
    """Primitive integer vector on the ray through v (positive multiple)."""
    fv = [frac(x) for x in v]
    den = 1
    for e in fv:
        den = den * e.denominator // gcd(den, e.denominator)
    ints = [int(e * den) for e in fv]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(0 for _ in ints)
    return tuple(x // g for x in ints)


def affine_dim(points):
    """Dimension of the affine hull of a nonempty point set (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return rank([vsub(p, base) for p in pts[1:]])
