"""
Hand-transcribed reference list of smooth quadruples, used as a regression
fixture for the enumerator, plus the whitelist of known transcription
defects.  The enumerator (rootdata.enumerate_smooth_quadruples) is the
authority: a mismatch is only acceptable when covered by a whitelist rule,
and the diff driver reports every discrepancy individually.

part1(family, m): the rank-one-only configurations (|R| = 2 inside one Levi
block); part2(family, m): the any-rank configurations with R nonempty.
Entries are (beta_index, frozenset_of_indices), not yet symmetry-reduced.
"""

from itertools import chain, combinations


def _nonempty_subsets(xs):
    xs = sorted(set(xs))
    return [frozenset(c) for k in range(1, len(xs) + 1)
            for c in combinations(xs, k)]


def _pairs(*items):
    return [frozenset(p) for p in items]


def part1(family, m):
    out = []
    if family == "A" and m >= 3:
        for k in range(3, m + 1):
            out.append((k, frozenset({1, k - 1})))
        for k in range(4, m + 1):
            for i in range(1, k - 1):
                out.append((k, frozenset({i, i + 1})))
    elif family == "B" and m >= 3:
        for k in range(3, m + 1):
            out.append((k, frozenset({1, k - 1})))
            for i in range(1, k - 1):
                out.append((k, frozenset({i, i + 1})))
        for k in range(1, m - 1):
            out.append((k, frozenset({m - 1, m})))
        if m - 3 >= 1:
            out.append((m - 3, frozenset({m - 2, m})))
    elif family == "C" and m >= 3:
        for k in range(3, m + 1):
            out.append((k, frozenset({1, k - 1})))
        for k in range(4, m + 1):
            for i in range(1, k - 1):
                out.append((k, frozenset({i, i + 1})))
        # transcription defect: the third clause repeats "1 <= i <= k-2";
        # kept literally (it adds nothing beyond the second clause).
        for k in range(1, m - 1):
            for i in range(1, k - 1):
                out.append((k, frozenset({i, i + 1})))
    elif family == "D" and m >= 4:
        for k in chain(range(3, m - 1), (m,)):
            out.append((k, frozenset({1, k - 1})))
        for k in chain(range(4, m - 1), (m,)):
            for i in range(1, k - 1):
                out.append((k, frozenset({i, i + 1})))
        for k in range(1, m - 3):
            out.append((k, frozenset({m - 1, m})))
        if m >= 5:
            for pair in combinations((m - 2, m - 1, m), 2):
                out.append((m - 3, frozenset(pair)))
            out.append((m - 2, frozenset({m - 1, m})))
    elif family == "E" and m == 6:
        out += [(1, frozenset({2, 3}))]
        out += [(2, s) for s in _pairs((1, 6), (1, 3), (3, 4))]
        out += [(3, s) for s in _pairs((2, 6), (2, 4), (4, 5), (5, 6))]
        out += [(4, frozenset({1, 3}))]
    elif family == "E" and m == 7:
        out += [(1, frozenset({2, 3}))]
        out += [(2, s) for s in _pairs((1, 7), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7))]
        out += [(3, s) for s in _pairs((2, 7), (2, 4), (4, 5), (5, 6), (6, 7))]
        out += [(4, s) for s in _pairs((1, 3), (5, 7), (5, 6), (6, 7))]
        out += [(5, s) for s in _pairs((1, 2), (1, 3), (3, 4), (2, 4), (6, 7))]
        out += [(6, frozenset({2, 5}))]
    elif family == "E" and m == 8:
        out += [(1, frozenset({2, 3}))]
        out += [(2, s) for s in _pairs((1, 8), (1, 3), (3, 4), (4, 5), (5, 6),
                                       (6, 7), (7, 8))]
        out += [(3, s) for s in _pairs((2, 8), (2, 4), (4, 5), (5, 6), (6, 7),
                                       (7, 8))]
        out += [(4, s) for s in _pairs((1, 3), (5, 8), (5, 6), (6, 7), (7, 8))]
        out += [(5, s) for s in _pairs((1, 2), (1, 3), (3, 4), (2, 4), (6, 8),
                                       (6, 7), (7, 8))]
        out += [(6, s) for s in _pairs((2, 5), (7, 8))]
    elif family == "F":
        out += [(1, s) for s in _pairs((3, 4), (2, 3))]
        out += [(2, frozenset({3, 4}))]
        out += [(3, frozenset({1, 2}))]
        out += [(4, s) for s in _pairs((2, 3), (1, 3))]
    return out


def part2(family, m):
    out = []
    if family == "A" and m >= 2:
        out.append((1, frozenset({2})))
        if m >= 3:
            out.append((1, frozenset({m})))
        for k in range(2, m // 2 + 1):
            pools = [{1, k + 1}, {1, m}]
            if k >= 3:
                pools += [{k - 1, k + 1}, {k - 1, m}]
            for pool in pools:
                out += [(k, s) for s in _nonempty_subsets(pool)]
        if m % 2 == 1 and m >= 3:
            k = (m + 1) // 2
            out += [(k, s) for s in _nonempty_subsets({1, m})]
            if m >= 5:
                out += [(k, frozenset({k - 1})),
                        (k, frozenset({1, k + 1})),
                        (k, frozenset({k - 1, k + 1}))]
    elif family == "B" and m >= 3:
        if m == 3:
            out.append((1, frozenset({3})))
        for k in range(2, m - 2):
            out.append((k, frozenset({1})))
            if k >= 3:
                out.append((k, frozenset({k - 1})))
        if m >= 4:
            out += [(m - 2, s) for s in _nonempty_subsets({1, m})]
            if m >= 5:
                out += [(m - 2, s) for s in _nonempty_subsets({m - 3, m})]
        out += [(m - 1, s) for s in _nonempty_subsets({1, m})]
        if m >= 4:
            out.append((m - 1, frozenset({m - 2})))
        if m >= 5:
            out.append((m - 1, frozenset({m - 2, m})))
        out += [(m, frozenset({1})), (m, frozenset({m - 1}))]
    elif family == "C" and m >= 2:
        out.append((1, frozenset({2})))
        if m >= 3:
            for k in range(2, m):
                out += [(k, s) for s in _nonempty_subsets({1, k + 1})]
                if k >= 3 and m >= 4:
                    out += [(k, s) for s in _nonempty_subsets({k - 1, k + 1})]
            out += [(m, frozenset({1})), (m, frozenset({m - 1}))]
        else:
            out.append((m, frozenset({1})))
    elif family == "D" and m >= 4:
        for k in range(2, m - 3):
            out.append((k, frozenset({1})))
            if k >= 3 and m >= 7:
                out.append((k, frozenset({k - 1})))
        out.append((m - 3, frozenset({m - 1})))
        if m >= 5:
            out += [(m - 3, s) for s in _nonempty_subsets({1, m - 1})]
        if m >= 6:
            out += [(m - 3, s) for s in _nonempty_subsets({m - 4, m - 1})]
        out += [(m - 2, frozenset({1})), (m - 2, frozenset({1, m - 1})),
                (m - 2, frozenset({1, m - 1, m}))]
        if m >= 5:
            out += [(m - 2, s) for s in _nonempty_subsets({m - 3, m - 1})]
            out.append((m - 2, frozenset({m - 3, m - 1, m})))
        out += [(m, frozenset({1})), (m, frozenset({m - 1}))]
    elif family == "E" and m == 6:
        out.append((2, frozenset({1})))
        out += [(3, s) for s in _nonempty_subsets({1, 2})]
        out += [(3, s) for s in _nonempty_subsets({1, 6})]
        for i in (1, 3):
            for j in (5, 6):
                out += [(4, s) for s in _nonempty_subsets({2, i, j})]
    elif family == "E" and m == 7:
        out += [(2, frozenset({1})), (2, frozenset({7}))]
        out += [(3, s) for s in _nonempty_subsets({1, 2})]
        out += [(3, s) for s in _nonempty_subsets({1, 7})]
        for i in (1, 3):
            for j in (5, 7):
                out += [(4, s) for s in _nonempty_subsets({2, i, j})]
        for i in (1, 2):
            for j in (6, 7):
                out += [(5, s) for s in _nonempty_subsets({i, j})]
        out.append((6, frozenset({7})))
    elif family == "E" and m == 8:
        out += [(2, frozenset({1})), (2, frozenset({8}))]
        out += [(3, s) for s in _nonempty_subsets({1, 2})]
        out += [(3, s) for s in _nonempty_subsets({1, 8})]
        for i in (1, 3):
            for j in (5, 8):
                out += [(4, s) for s in _nonempty_subsets({2, i, j})]
        for i in (1, 2):
            for j in (6, 8):
                out += [(5, s) for s in _nonempty_subsets({i, j})]
        out += [(6, frozenset({7})), (6, frozenset({8}))]
        out.append((7, frozenset({8})))
    elif family == "F":
        out.append((1, frozenset({4})))
        out += [(2, s) for s in _nonempty_subsets({1, 3})]
        out += [(2, s) for s in _nonempty_subsets({1, 4})]
        out += [(3, s) for s in _nonempty_subsets({1, 4})]
        out += [(3, s) for s in _nonempty_subsets({2, 4})]
    elif family == "G":
        out += [(1, frozenset({2})), (2, frozenset({1}))]
    return out


def reference_set(family, m, n_flag):
    """Transcribed (beta, R) set for the given rank flag, empty R included."""
    items = set()
    for beta in range(1, m + 1):
        items.add((beta, frozenset()))
    items.update(part2(family, m))
    if n_flag == 1:
        items.update(part1(family, m))
    return items


# Whitelist of enumerator-vs-transcription discrepancies.  Each rule takes
# (family, m, beta, R, n_flag, missing_side) and returns a short reason when
# the discrepancy is attributable to a transcription defect; missing_side is
# "reference" when the enumerator found an entry the reference lacks, and
# "enumerator" when the reference lists an entry the enumerator rejects.
def _known_deviation(family, m, beta, R, n_flag, missing_side):
    R = set(R)
    if missing_side != "reference":
        return None
    if family == "C" and n_flag == 1 and len(R) == 2:
        lo, hi = min(R), max(R)
        if hi == lo + 1 and lo >= beta + 1:
            return ("pairs inside the symplectic Levi block; the garbled "
                    "third clause of the type-C rank-one list")
    if family == "B" and beta == m - 1 and R == {m - 2, m} and m == 4:
        return ("the m >= 5 guard excludes a valid configuration at m = 4: "
                "both roots are extremal in separate type-A Levi blocks")
    if family == "D" and beta == m - 2 and R == {m - 1, m}:
        return ("leaf pair through separate Levi blocks; listed only inside "
                "larger sets in the reference")
    if family == "D" and n_flag == 1 and m >= 5 and beta == m - 4 and \
            R == {m - 3, m - 1}:
        return ("leaf pair of the rank-four block inside the Levi; equivalent "
                "to the listed far pair by the block's own diagram symmetry")
    if family == "A" and n_flag == 2 and m % 2 == 1 and beta == (m + 1) // 2:
        k = (m + 1) // 2
        if R in ({k + 1}, {k - 1, m}, {1, k - 1}, {k + 1, m}):
            return ("middle-node clause of the type-A list is garbled "
                    "(dangling k, missing braces)")
    return None


def diff_against_reference(family, m, n_flag, entries):
    """[(side, beta, R, reason-or-None)]: every individual discrepancy
    between the enumeration `entries` of (family, m, n_flag), as
    `rootdata.enumerate_smooth_quadruples` gives it, and the reference.

    side "extra" means the enumerator produced an entry missing from the
    reference; side "missing" means the reference lists an entry the
    enumerator rejects.  reason is the whitelist justification, or None for
    an unexplained (i.e. failing) discrepancy.
    """
    from .rootdata import canonical_beta_R
    got = set(entries)
    ref = {canonical_beta_R(family, m, b, R) for b, R in reference_set(family, m, n_flag)}
    ref = {(b, frozenset(R)) for b, R in ref}
    out = []
    for b, R in sorted(got - ref):
        out.append(("extra", b, R,
                    _known_deviation(family, m, b, R, n_flag, "reference")))
    for b, R in sorted(ref - got):
        out.append(("missing", b, R,
                    _known_deviation(family, m, b, R, n_flag, "enumerator")))
    return out
