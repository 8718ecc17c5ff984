"""
Exact rational linear algebra on tuples of Fractions.

Everything here is small and dense (ambient dimension <= ~8).  Elimination
runs fraction-free on rows scaled to integers, so Fractions are built only
for results.  Vectors are tuples, matrices are tuples of row tuples.
"""

from fractions import Fraction
from math import gcd, lcm


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(u):
    return all(a == 0 for a in u)


def _scaled(row):
    """The row times the lcm of its denominators, as integers."""
    row = [x if isinstance(x, int) else frac(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def echelon(rows):
    """Fraction-free Gauss-Jordan on the rows scaled to integers, each new
    row divided by its content.  Returns (integer rows, pivot_columns)."""
    return _echelon([_scaled(row) for row in rows])


def _echelon(m):
    """`echelon` of a list of integer row lists, reduced in place."""
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                row = [a * p[c] - f * b for a, b in zip(m[i], p)]
                g = gcd(*row) or 1
                m[i] = [a // g for a in row]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    m, pivots = echelon(rows)
    scale = [row[c] for row, c in zip(m, pivots)] + [1] * (len(m) - len(pivots))
    return [tuple(Fraction(a, d) for a in row) for row, d in zip(m, scale)], pivots


def rank(rows):
    return len(echelon(rows)[1])


def int_rank(rows):
    """The rank of integer rows, with no scaling."""
    return len(_echelon([list(row) for row in rows])[1])


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
    """Scale each row of (A | b) to its `primitive` integers in one pass: the
    lcm of its denominators, then its numerators over their gcd."""
    out, cs = [], []
    for r, b in zip(rows, rhs):
        row = [*r, b]
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints) or 1
        out.append(tuple([x // g for x in ints[:-1]]))
        cs.append(ints[-1] // g)
    return out, cs


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


def adjugate(rows):
    """(det, adj) of a small square integer matrix, adj the adjugate, so
    that A adj = det I.

    Fraction-free Gauss-Jordan (Bareiss) on [A | I]: every row other than
    the pivot row k becomes (p_k a - a_k p) / p_(k-1), an exact division,
    so at the end the left block is p I and the right block p A^-1, with p
    the last pivot, det A up to the sign of the row swaps.  adj is None when
    A is singular.
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k]
        for i in range(n):
            f = m[i][k]
            if i != k:
                m[i] = [(p[k] * a - f * b) // prev for a, b in zip(m[i], p)]
        prev = p[k]
    return sign * prev, tuple(tuple(sign * a for a in row[n:]) for row in m)


def primitive(v):
    """Primitive integer vector on the ray through v (positive multiple)."""
    ints = _scaled(v)
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def affine_dim(points):
    """Dimension of the affine hull of a nonempty point set (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return rank([vsub(p, base) for p in pts[1:]])
