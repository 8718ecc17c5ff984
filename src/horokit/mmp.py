"""
The parametric program engine: a one-parameter family of pseudo-moment
polytopes Q~(eps) = {x : A x >= B + eps C}, exact breakpoint detection and
classification (flip / divisorial contraction / terminal fibration), fiber
records, and the closed-form predictions for the two standard families.

Everything is exact and rests on one vertex table (`polyhedra.vertex_table`)
built once per family, whose points and row slacks are affine in eps.
Candidate breakpoints are the roots of those slacks; at a given eps every
feasibility test is an integer sign test.  Faces are the active-set masks
closed under `polyhedra.closure_masks`, and signatures are compared after
pruning redundant G-stable rows, never color rows.

The rows A are fixed and D is ample, so the polytope is bounded at eps = 0
and hence at every eps where it is nonempty: its recession cone
{d : A d >= 0} does not depend on eps.  On a bounded polytope every
question of a run reads that one table: admissibility (no row tight on
every vertex), eps_max (the first positive root where admissibility
fails), row redundancy (`polyhedra.row_is_redundant`) and the fibers.

The sorted roots of the family's slacks cut the eps line into chambers,
each root one and each open interval between two consecutive roots one.
Every slack keeps its sign on a chamber, so the signs are computed once
per chamber (`polyhedra.slack_signs`), and every question at eps reads
them: the face queries (`admissible`, `signature_masks_at`,
`signatures_at`, `pruned_rows_at`), the face maps and the fibers.  The face
queries are answered once per chamber and then read back, and a face
lattice is closed once per distinct set of vertex masks.  A chamber is
found by integer comparison: the roots are scaled once to one common
denominator L, and eps = p/q falls at or between them as p L / q does.
The boundedness of a row subset's region is asked only where that region
has a vertex, and there it does not depend on eps (the recession cone does
not), so it is kept once per row subset.  A row mask becomes a set of rows,
and its sort key, once per family (`MMPFamily.rows`).
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import wraps
from itertools import combinations
from math import gcd, lcm

from .divisor import (AMPLE, ample_status, anticanonical, check_q_cartier, color_weight,
                      moment_polytopes)
from .errors import (DegenerateFamily, NoMaximalPreimage, NotAmple,
                     NotRestrictedForm, PreconditionViolated, UnboundedPolyhedron)
from .linalg import frac
from .polyhedra import (InequalitySystem, _is_bounded, closure_masks, face_dim,
                        face_of, feasible_at, has_interior, row_is_redundant,
                        rows_of, slack_signs, vertex_table)
from .quadruple import AdmissibleQuadruple, face_orbit, vertex_walls, wall_rows
from .record import Record

FLIP = "Flip"
DIVISORIAL = "DivisorialContraction"
FIBRATION = "Fibration"


class FiberRecord(Record):
    dim: int
    rank: int
    source_sig: frozenset
    target_sig: frozenset
    numerator_colors: frozenset = None   # set when the fiber is P'/P
    denominator_colors: frozenset = None


class ContractionEvent(Record):
    epsilon: Fraction
    kind: str
    pruned_rows: frozenset = frozenset()
    face_map: tuple = ()
    fiber: FiberRecord = None


class MMPTrace(Record):
    intervals: tuple      # (lo, hi, signature set); lo included, hi excluded
    events: tuple
    eps_max: Fraction     # None when the family never degenerates
    fibers: tuple = ()    # per-orbit fiber records of the terminal fibration
    family: object = None

    def event_list(self):
        return [(e.epsilon, e.kind) for e in self.events]


def _per_chamber(method):
    """Answer a query once per chamber of eps (`MMPFamily.chamber`).

    The query is the signs of the slacks of the family's vertex table at
    eps (`MMPFamily.signs_at`), or reads only them, so its answer is the
    same everywhere in a chamber.
    """
    @wraps(method)
    def cached(self, eps):
        key = (method.__name__, self.chamber(eps))
        if key not in self._chambers:
            self._chambers[key] = method(self, eps)
        return self._chambers[key]
    return cached


class MMPFamily:
    """Parametric family bound to a variety; rows follow X.divisors."""

    def __init__(self, X, A, B, C, tags, v0, v1):
        self.X = X
        self.A = tuple(tuple(frac(v) for v in row) for row in A)
        self.B = tuple(frac(v) for v in B)
        self.C = tuple(frac(v) for v in C)
        self.tags = tuple(tags)
        self.v0 = tuple(frac(v) for v in v0)
        self.v1 = tuple(frac(v) for v in v1)
        self.n = len(self.A[0]) if self.A else 0
        self.m = len(self.A)
        self._vertex_data = None
        self._roots = None
        self._keys = None       # (L, the roots times L)
        self._chambers = {}
        self._bounded = {}      # row mask -> is its region bounded
        self._lattices = {}     # vertex masks -> their face signatures
        self._row_sets = {}     # row mask -> (its rows, their sorted tuple)

    # -- parametric vertex preprocessing -----------------------------------

    def _vertices(self):
        """The vertex table of the family: one entry per invertible square
        subsystem, with its point and every row slack affine in eps."""
        if self._vertex_data is None:
            self._vertex_data = vertex_table(self.A, self.B, self.C)
        return self._vertex_data

    def roots(self):
        """The sorted distinct roots -U/V of the affine row slacks U + eps V
        of the family's vertex table, each taken once as a reduced integer
        pair before it becomes a Fraction."""
        if self._roots is None:
            pairs = set()
            for e in self._vertices():
                for u, v in zip(e.U, e.V):
                    if v:
                        g = gcd(u, v) if v > 0 else -gcd(u, v)
                        pairs.add((-u // g, v // g))
            self._roots = sorted([Fraction(p, q) for p, q in pairs])
        return self._roots

    def rows(self, mask):
        """(the rows of a mask as a frozenset, their sorted tuple), built
        once per family: the tuple is the order in which signatures are
        listed."""
        if mask not in self._row_sets:
            rows = rows_of(mask)
            self._row_sets[mask] = rows, tuple(sorted(rows))
        return self._row_sets[mask]

    def chamber(self, eps):
        """The chamber of eps, on which every slack of the vertex table keeps
        its sign: 2 i + 1 at the i-th root, 2 i on the open interval below
        it.  With the roots as integers over one denominator L, eps = p/q
        is compared by the floor of p L / q and its remainder."""
        if self._keys is None:
            roots = self.roots()
            L = lcm(*[r.denominator for r in roots])
            self._keys = L, [r.numerator * (L // r.denominator) for r in roots]
        L, keys = self._keys
        t, rem = divmod(eps.numerator * L, eps.denominator)
        if rem:
            return 2 * bisect_right(keys, t)
        i = bisect_left(keys, t)
        return 2 * i + (i < len(keys) and keys[i] == t)

    @_per_chamber
    def signs_at(self, eps):
        """The signs of the slacks of the vertex table at eps, as
        `polyhedra.slack_signs` gives them."""
        return slack_signs(self._vertices(), eps)

    def _bounded_region(self, table, signs, keep):
        """`polyhedra._is_bounded` for the family's table, kept per row mask.
        Exact, as `row_is_redundant` asks it only where the region of keep
        has a vertex, and there the answer does not depend on eps."""
        if keep not in self._bounded:
            self._bounded[keep] = _is_bounded(table, signs, keep)
        return self._bounded[keep]

    @_per_chamber
    def _kept_rows(self, eps):
        """The mask of the rows left at eps once the redundant G-stable rows
        are dropped greedily by index."""
        table, signs = self._vertices(), self.signs_at(eps)
        keep = (1 << self.m) - 1
        changed = True
        while changed:
            changed = False
            for r in range(self.m):
                if keep >> r & 1 and self.tags[r][0] == "x" and row_is_redundant(
                        table, signs, r, keep, self._bounded_region):
                    keep &= ~(1 << r)
                    changed = True
                    break
        return keep

    def _closure(self, found):
        """`polyhedra.closure_masks` of the vertex masks `found`, once per
        distinct set of them, which chambers with the same vertices share."""
        key = frozenset(found)
        if key not in self._lattices:
            self._lattices[key] = frozenset(closure_masks(key))
        return self._lattices[key]

    @_per_chamber
    def pruned_rows_at(self, eps):
        """Redundant G-stable rows at eps, dropped greedily by index, and the
        rows kept."""
        keep = self._kept_rows(eps)
        return self.rows(((1 << self.m) - 1) & ~keep)[0], self.rows(keep)[0]

    @_per_chamber
    def _face_masks(self, eps):
        """The face signatures at eps, pruned of redundant rows, as row
        bitmasks."""
        return self._closure(feasible_at(self._vertices(), self.signs_at(eps),
                                         self._kept_rows(eps)))

    @_per_chamber
    def signatures_at(self, eps):
        """Canonical face-signature set at eps (pruned of redundant rows)."""
        return frozenset([self.rows(sig)[0] for sig in self._face_masks(eps)])

    @_per_chamber
    def signature_masks_at(self, eps):
        """Unpruned face signatures as row bitmasks (fast comparison path)."""
        return self._closure(feasible_at(self._vertices(), self.signs_at(eps)))

    def system_at(self, eps):
        eps = frac(eps)
        return InequalitySystem(self.A,
                                tuple(b + eps * c for b, c in zip(self.B, self.C)),
                                self.tags)

    def v_at(self, eps):
        eps = frac(eps)
        return tuple(a + eps * b for a, b in zip(self.v0, self.v1))

    def quadruple_at(self, eps):
        return AdmissibleQuadruple(self.X.hs, self.system_at(eps), self.v_at(eps))

    @_per_chamber
    def admissible(self, eps):
        """All rows strictly satisfiable at eps: full dimension plus the
        interior dominance condition (color rows pair fundamental weights).

        Read off the family's vertex table: Q~(eps) is nonempty and no row
        is tight on all of its vertices (`polyhedra.has_interior`; Ziegler,
        Lectures on Polytopes, 1995, ch. 2).  Exact on a bounded family,
        which `critical_epsilons` checks and `build_family` guarantees.
        """
        return has_interior(feasible_at(self._vertices(), self.signs_at(eps)))


def build_family(X, D, Delta):
    """Family of (X, D + eps(K_X + Delta)); rows follow X.divisors."""
    if ample_status(X, D) != AMPLE:   # after the Q-Cartier gate for D
        raise NotAmple("the reference divisor must be ample")
    KD = Delta - anticanonical(X)
    check_q_cartier(X, KD)
    system, v0 = moment_polytopes(X, D, checked=True)
    C = tuple(-KD.coeff(desc) for desc in X.divisors)
    return MMPFamily(X, system.A, system.b, C, system.tags, v0, color_weight(X.G, KD))


def critical_epsilons(fam):
    """(sorted event candidates < eps_max, eps_max); exact rationals.

    The candidates are the positive roots of the slacks of the family's
    vertex table (`MMPFamily.roots`), and eps_max is the first of them at
    which the family is not admissible, None when there is none.  On a
    bounded family that is exact: the eps where Q~(eps) has an interior
    point form an open interval, as the strict-feasibility margin is
    concave in eps.  At its finite end Q~ is nonempty with a row tight on
    all of it, a row that is slack at a vertex just below, so that vertex's
    slack has a root there.  Past the last root nothing changes.

    Raises DegenerateFamily when the family is not admissible at eps = 0,
    and UnboundedPolyhedron when Q~(0) is unbounded (`polyhedra._is_bounded`
    on the family's table), where the rules above are not exact;
    `build_family` never gives such a family, as D is ample.
    """
    if not _is_bounded(fam._vertices(), fam.signs_at(0)):
        raise UnboundedPolyhedron("the family's polytope is unbounded at eps = 0")
    if not fam.admissible(0):
        raise DegenerateFamily("the family is not admissible at eps = 0")
    roots = fam.roots()
    cands = roots[bisect_right(roots, 0):]
    for i, c in enumerate(cands):
        if not fam.admissible(c):
            return cands[:i], c
    return cands, None


def classify_breakpoints(fam, cands, eps_max):
    """Events at the candidates, by comparing pruned signature sets (as
    sets of row masks; the intervals carry them as sets of rows)."""
    events = []
    pts = [Fraction(0)] + list(cands) + ([eps_max] if eps_max is not None else [])
    mids = []
    for lo, hi in zip(pts, pts[1:]):
        mids.append((lo + hi) / 2)
    sig_mid = [fam._face_masks(m) for m in mids]
    intervals = []
    cur_lo = Fraction(0)
    for k, c in enumerate(cands):
        sig_l, sig_r = sig_mid[k], sig_mid[k + 1]
        sig_c = fam._face_masks(c)
        if sig_l == sig_c == sig_r:
            continue
        pr_l = fam.pruned_rows_at(mids[k])[0]
        pr_c = fam.pruned_rows_at(c)[0]
        if sig_c == sig_r and sig_l != sig_c:
            if not (pr_c > pr_l):
                raise DegenerateFamily(
                    f"signature class closes left at {c} without a row "
                    "becoming superfluous")
            events.append(ContractionEvent(c, DIVISORIAL,
                                           pruned_rows=frozenset(pr_c - pr_l)))
            intervals.append((cur_lo, c, fam.signatures_at(mids[k])))
            cur_lo = c
        elif sig_c != sig_l and sig_c != sig_r:
            events.append(ContractionEvent(c, FLIP))
            intervals.append((cur_lo, c, fam.signatures_at(mids[k])))
            cur_lo = c
        else:
            raise DegenerateFamily(
                f"anomalous signature pattern at {c} (non-general input?)")
    if eps_max is not None:
        intervals.append((cur_lo, eps_max, fam.signatures_at(mids[-1])))
    else:
        intervals.append((cur_lo, None, fam.signatures_at(mids[-1] if mids else
                                                          Fraction(1))))
    return events, intervals


def fibration_fibers(trace, event):
    """Fiber records of a trace's terminal fibration event."""
    if event.kind != FIBRATION:
        raise ValueError("fiber records are attached to fibration events")
    lo = trace.intervals[-1][0]
    return general_fiber(trace.family, (lo + event.epsilon) / 2, event.epsilon)


def general_fiber(fam, eps_below, eps_max):
    """Fiber records of the terminal fibration, one per target orbit.

    Orbits correspond to faces; a source face maps to the target face cut
    out by its maximal active rows.  There is always a unique biggest
    source orbit over each target orbit; its absence is an internal error.
    """
    table = fam._vertices()
    src, tgt = (feasible_at(table, fam.signs_at(eps)) for eps in (eps_below, eps_max))
    if not tgt:
        raise NoMaximalPreimage("the terminal polytope is empty")
    preimages = {}
    for sig in fam._closure(src):
        image = face_of(tgt, sig)
        if image is None:
            raise NoMaximalPreimage(f"face {list(fam.rows(sig)[1])} has empty image")
        preimages.setdefault(image, []).append(sig)
    X = fam.X
    src_walls, tgt_walls = (vertex_walls(wall_rows(X.hs, fam.v_at(eps), X.image), found, eps)
                            for found, eps in ((src, eps_below), (tgt, eps_max)))

    def orbit(found, walls, sig):
        return face_orbit(X.hs, walls, sig, face_dim(fam.A, found, sig))

    records = []
    for image in sorted(fam._closure(tgt), key=lambda sig: fam.rows(sig)[1]):
        pre = preimages.get(image, [])
        if not pre:
            raise NoMaximalPreimage("fibration misses a target orbit")
        best = min(pre, key=lambda sig: (sig.bit_count(), fam.rows(sig)[1]))
        if any(sig & best != best for sig in pre):
            raise NoMaximalPreimage("no unique biggest source orbit")
        s, t = orbit(src, src_walls, best), orbit(tgt, tgt_walls, image)
        num = den = None
        if s.rank == t.rank:
            num, den = t.r_set, s.r_set
        records.append(FiberRecord(s.dim - t.dim, s.rank - t.rank,
                                   fam.rows(best)[0], fam.rows(image)[0], num, den))
    return records


def run_log_mmp(X, D, Delta):
    """Full parametric run: intervals, events with face maps, fiber data."""
    fam = build_family(X, D, Delta)
    cands, eps_max = critical_epsilons(fam)
    events, intervals = classify_breakpoints(fam, cands, eps_max)
    out_events = []
    for ev in events:
        lo = max((iv[0] for iv in intervals if iv[1] is not None and
                  iv[1] <= ev.epsilon), default=Fraction(0))
        below = (lo + ev.epsilon) / 2 if lo < ev.epsilon else lo
        fmap = _face_map_rows(fam, below, ev.epsilon)
        out_events.append(ContractionEvent(ev.epsilon, ev.kind,
                                           ev.pruned_rows, fmap))
    fibers = ()
    if eps_max is not None:
        lo = intervals[-1][0]
        below = (lo + eps_max) / 2
        fibers = tuple(general_fiber(fam, below, eps_max))
        # The general fiber sits over the open orbit: the target face with
        # the smallest maximal active set (the whole terminal polytope).
        open_sig = min((f.target_sig for f in fibers),
                       key=lambda s: (len(s), sorted(s)))
        open_rec = next(f for f in fibers if f.target_sig == open_sig)
        out_events.append(ContractionEvent(eps_max, FIBRATION, fiber=open_rec))
    return MMPTrace(tuple(intervals), tuple(out_events), eps_max, fibers, fam)


def _face_map_rows(fam, eps_src, eps_tgt):
    table = fam._vertices()
    tgt_masks = list(feasible_at(table, fam.signs_at(eps_tgt)))
    out = []
    for sig in fam._closure(feasible_at(table, fam.signs_at(eps_src))):
        tgt = face_of(tgt_masks, sig)
        out.append((fam.rows(sig), None if tgt is None else fam.rows(tgt)[0]))
    out.sort(key=lambda pair: pair[0][1])
    return tuple([(src[0], tgt) for src, tgt in out])


# ---------------------------------------------------------------------------
# Closed forms for the two standard families


def faces_case1(n, a, eps):
    """Signature -> codim map predicted for family one.

    Rows: 0..n are the edge rows (0 is the minus-sum ray), n+1 the beta row.
    Needs a_0 = 0 <= a_1 <= ... <= a_n with a_n != 0.
    """
    a = tuple(int(v) for v in a)
    eps = frac(eps)
    if len(a) != n + 1 or a[0] != 0 or list(a) != sorted(a) or a[n] == 0:
        raise PreconditionViolated("need a_0 = 0 <= ... <= a_n with a_n != 0")
    if eps >= 1 + a[n] or eps < 0:
        return {}
    out = {}
    idx = list(range(n + 1))
    for size in range(n + 1):
        for I in combinations(idx, size):
            rest = [1 + a[i] for i in idx if i not in I]
            mx, mn = max(rest), min(rest)
            if eps < mx:
                out[frozenset(I)] = len(I)
            if mn < eps < mx:
                out[frozenset(I) | {n + 1}] = len(I) + 1
            elif eps == mn == mx:
                out[frozenset(I) | {n + 1}] = len(I)
    return out


def faces_case2(r, a, eps):
    """Signature -> codim map for family two (rows 0..r, then v1, v2)."""
    a = tuple(int(v) for v in a)
    eps = frac(eps)
    if len(a) != r + 1 or a[0] != 0 or any(a[i] >= a[i + 1] for i in range(r)):
        raise PreconditionViolated("need a strictly increasing chain from 0")
    if eps >= 1 + a[r] or eps < 0:
        return {}
    out = {}
    idx = list(range(r + 1))
    v1, v2 = r + 1, r + 2
    for size in range(r + 1):
        for I in combinations(idx, size):
            rest = [1 + a[i] for i in idx if i not in I]
            mx, mn = max(rest), min(rest)
            if eps < mx:
                out[frozenset(I)] = len(I)
                out[frozenset(I) | {v1}] = len(I) + 1
                out[frozenset(I) | {v2}] = len(I) + 1
            if mn < eps < mx:
                out[frozenset(I) | {v1, v2}] = len(I) + 2
            elif eps == mn == mx:
                out[frozenset(I) | {v1, v2}] = len(I) + 1
    return out


class TraceSkeleton(Record):
    events: tuple       # ((eps, kind), ...), fibration included
    eps_max: Fraction

    def event_list(self):
        return list(self.events)


def predict_trace_case1(spec):
    """Closed-form event list for a restricted family-one spec."""
    from .classify import X1Spec, require_rc
    if not isinstance(spec, X1Spec):
        raise NotRestrictedForm("expected a family-one spec")
    require_rc(spec)
    a, n = spec.a, spec.n
    if a[n] == 0:
        return TraceSkeleton(((Fraction(1), FIBRATION),), Fraction(1))
    starts = [i for i in range(1, n + 1) if a[i] != a[i - 1]]
    levels = [Fraction(0)] + [Fraction(a[i]) for i in starts]
    k = len(starts)
    i_k = starts[-1]
    alpha_n_trivial = spec.G.is_trivial_root(spec.alphas[n])
    eps_max = Fraction(1 + a[n])
    events = []
    if i_k != n or not alpha_n_trivial:
        for l in range(k):
            events.append((1 + levels[l], FLIP))
    else:
        for l in range(k - 1):
            events.append((1 + levels[l], FLIP))
        events.append((1 + levels[k - 1], DIVISORIAL))
    events.append((eps_max, FIBRATION))
    return TraceSkeleton(tuple(events), eps_max)


def predict_trace_case2(spec):
    """Closed-form event list for a restricted family-two spec."""
    from .classify import X2Spec, require_rc
    if not isinstance(spec, X2Spec):
        raise NotRestrictedForm("expected a family-two spec")
    require_rc(spec)
    a, r = spec.a, spec.r
    eps_max = Fraction(1 + a[r])
    alpha_r_trivial = spec.G.is_trivial_root(spec.alphas[r])
    events = []
    if not alpha_r_trivial:
        for i in range(r):
            events.append((Fraction(1 + a[i]), FLIP))
    else:
        for i in range(r - 1):
            events.append((Fraction(1 + a[i]), FLIP))
        events.append((Fraction(1 + a[r - 1]), DIVISORIAL))
    events.append((eps_max, FIBRATION))
    return TraceSkeleton(tuple(events), eps_max)
