"""
Reference table kernels that compute every slack of every entry on each
call, kept as the tests' oracle for the kernels of `horokit.polyhedra`,
which read the signs of one pass (`polyhedra.slack_signs`) instead.

At eps = p/q (q > 0) the slack of row r at an entry has the sign of the
integer U[r] q + V[r] p; these kernels build those integers per call.
"""

from horokit.linalg import frac
from horokit.polyhedra import rows_of


def _feasible(table, eps, keep):
    """(kept rows, [(entry, its slacks on them scaled by the denominator of
    eps)]) over every entry of the table feasible at eps whose basis lies
    inside keep (a row mask, -1 for all rows)."""
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    if not table:
        return [], []
    rows = [r for r in range(len(table[0].U)) if keep >> r & 1]
    out = []
    for e in table:
        if e.basis & ~keep:
            continue
        U, V = e.U, e.V
        slack = [U[r] * q + V[r] * p for r in rows]
        if min(slack, default=0) >= 0:
            out.append((e, slack))
    return rows, out


def feasible_at(table, eps=0, keep=None):
    """{active row mask: entry} over the entries feasible at eps on the
    rows of keep (all rows by default), one per active set."""
    rows, feasible = _feasible(table, eps, -1 if keep is None else keep)
    out = {}
    for e, slack in feasible:
        mask = 0
        for r, s in zip(rows, slack):
            if not s:
                mask |= 1 << r
        out.setdefault(mask, e)
    return out


def is_bounded(table, eps=0, keep=-1):
    """Is the region of the rows of keep bounded at eps?  No feasible basis
    B inside keep has a column d_j of A_B^-1 with A_r d_j >= 0 on every kept
    row r, the products read by Cramer's rule off the table's signed
    determinants; True when no entry is feasible."""
    rows, feasible = _feasible(table, eps, keep)
    det = {e.basis: e.sign * e.den for e in table}
    for e, _ in feasible:
        B = e.basis
        outside = [r for r in rows if not B >> r & 1]
        for i, j in enumerate(sorted(rows_of(B))):
            rest = B & ~(1 << j)
            for r in outside:
                k = (rest & ((1 << r) - 1)).bit_count()
                if det.get(rest | 1 << r, 0) * e.sign * (-1) ** (i + k) < 0:
                    break
            else:
                return False
    return True


def row_is_redundant(table, r, keep, eps=0):
    """Is row r redundant among the (bounded) rows of keep at eps: the other
    kept rows bound a region with a vertex, and every vertex satisfies r?"""
    rest = keep & ~(1 << r)
    eps = frac(eps)
    p, q = eps.numerator, eps.denominator
    found = feasible_at(table, eps, rest)
    return (bool(found) and all(e.U[r] * q + e.V[r] * p >= 0 for e in found.values())
            and is_bounded(table, eps, rest))
