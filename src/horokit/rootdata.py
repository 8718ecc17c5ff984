"""
Root systems, Dynkin diagrams and the smoothness combinatorics.

Conventions, fixed once:

* Bourbaki numbering for every family; Cartan data is stored as
  ``CARTAN[i][j] = <alpha_i^vee, alpha_j>`` so that ``<alpha_i^vee, w_j> =
  delta_ij`` with w_j the fundamental weights.  Printed tables elsewhere may
  be the transpose; the anchoring identity above is what the code relies on.
* Weight lattices are concatenated per factor: ``rank`` fundamental-weight
  coordinates for a simple factor, one coordinate for a torus factor C*,
  none for a trivial factor.  A C* factor carries a single "trivial" simple
  root whose fundamental weight is the lattice generator; a trivial factor
  carries one whose fundamental weight is zero.
* B2 and D3 are stored in canonical form (C2 and A3).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import TrivialRootHasNoCoroot
from .record import Record, set_field

TORUS = "C*"
TRIVIAL = "1"
SIMPLE_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

_RANK_BOUNDS = {"A": (1, None), "B": (3, None), "C": (2, None), "D": (4, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


class GroupFactor(Record, order=True):
    """One factor of the acting group: a simple type, C*, or {1}."""

    family: str
    rank: int = 0

    def __post_init__(self):
        if self.family in (TORUS, TRIVIAL):
            if self.rank != 0:
                raise ValueError("torus/trivial factors carry no rank")
            return
        lo, hi = _RANK_BOUNDS.get(self.family, (None, None))
        if lo is None:
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"{self.family}{self.rank} out of range "
                             "(note: B2 and D3 are stored as C2 and A3)")

    @property
    def is_simple(self):
        return self.family in SIMPLE_FAMILIES

    @property
    def weight_dim(self):
        if self.family == TORUS:
            return 1
        if self.family == TRIVIAL:
            return 0
        return self.rank

    def __repr__(self):
        if self.is_simple:
            return f"{self.family}{self.rank}"
        return self.family


def simple_factor(family, rank):
    """Canonicalizing factory: returns (factor, index_relabel_map).

    B2 is stored as C2 (short root first) and D3 as A3; the map sends input
    Bourbaki indices to indices of the canonical factor.
    """
    if family == "B" and rank == 2:
        return GroupFactor("C", 2), {1: 2, 2: 1}
    if family == "D" and rank == 3:
        return GroupFactor("A", 3), {1: 2, 2: 1, 3: 3}
    f = GroupFactor(family, rank)
    return f, {i: i for i in range(1, rank + 1)}


def SL(d):
    if d < 2:
        raise ValueError("SL(d) needs d >= 2")
    return GroupFactor("A", d - 1)


def Sp(d):
    if d < 4 or d % 2:
        raise ValueError("Sp(d) needs even d >= 4")
    return simple_factor("C", d // 2)[0]


def Spin(d):
    if d < 5:
        raise ValueError("Spin(d) needs d >= 5")
    if d % 2:
        return simple_factor("B", (d - 1) // 2)[0]
    return simple_factor("D", d // 2)[0]


TORUS_FACTOR = GroupFactor(TORUS)
TRIVIAL_FACTOR = GroupFactor(TRIVIAL)


class Root(Record, order=True):
    """Simple root id: (factor position, Bourbaki index); index 0 is the
    trivial root of a C* or {1} factor."""

    factor: int
    index: int

    # Written out: a Log-MMP run hashes, compares and sorts roots thousands
    # of times, and these read the two fields faster than Record's getter.
    def __init__(self, factor, index):
        set_field(self, "factor", factor)
        set_field(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.factor, self.index) == (other.factor, other.index)
        return NotImplemented

    def __hash__(self):
        return hash((self.factor, self.index))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.factor, self.index) < (other.factor, other.index)
        return NotImplemented

    def __repr__(self):
        return f"({self.factor},{'triv' if self.index == 0 else 'a%d' % self.index})"


class GroupProduct(Record):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if not isinstance(f, GroupFactor):
                raise TypeError("factors must be GroupFactor instances")

    @property
    def weight_dim(self):
        return sum(f.weight_dim for f in self.factors)

    def offset(self, k):
        return sum(f.weight_dim for f in self.factors[:k])

    def check_root(self, r):
        if not (0 <= r.factor < len(self.factors)):
            raise ValueError(f"no factor {r.factor}")
        f = self.factors[r.factor]
        if f.is_simple:
            if not (1 <= r.index <= f.rank):
                raise ValueError(f"{r} is not a simple root of {f}")
        elif r.index != 0:
            raise ValueError(f"{r}: torus/trivial factors only carry the trivial root")
        return r

    def is_trivial_root(self, r):
        self.check_root(r)
        return not self.factors[r.factor].is_simple

    def simple_roots(self):
        """All roots, trivial ones included, in factor order."""
        out = []
        for k, f in enumerate(self.factors):
            if f.is_simple:
                out.extend(Root(k, i) for i in range(1, f.rank + 1))
            else:
                out.append(Root(k, 0))
        return out

    def nontrivial_roots(self):
        return [r for r in self.simple_roots() if r.index != 0]

    def zero_weight(self):
        return tuple(Fraction(0) for _ in range(self.weight_dim))

    def fundamental_weight(self, r):
        self.check_root(r)
        w = [Fraction(0)] * self.weight_dim
        f = self.factors[r.factor]
        if f.is_simple:
            w[self.offset(r.factor) + r.index - 1] = Fraction(1)
        elif f.family == TORUS:
            w[self.offset(r.factor)] = Fraction(1)
        return tuple(w)

    def root_as_weight(self, r):
        """The simple root written in the concatenated weight basis."""
        self.check_root(r)
        f = self.factors[r.factor]
        if not f.is_simple:
            return self.fundamental_weight(r)  # C*: alpha = w_alpha; {1}: 0
        col = [row[r.index - 1] for row in cartan_matrix(f.family, f.rank)]
        w = [Fraction(0)] * self.weight_dim
        base = self.offset(r.factor)
        for i, v in enumerate(col):
            w[base + i] = Fraction(v)
        return tuple(w)

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)


def coroot_pairing(G, alpha, chi):
    """<alpha^vee, chi> for a non-trivial simple root alpha."""
    G.check_root(alpha)
    if G.is_trivial_root(alpha):
        raise TrivialRootHasNoCoroot(str(alpha))
    return Fraction(chi[G.offset(alpha.factor) + alpha.index - 1])


def is_dominant(G, chi):
    """Dominant: every simple-factor coordinate >= 0 (C* coords are free)."""
    for k, f in enumerate(G.factors):
        if f.is_simple:
            base = G.offset(k)
            if any(chi[base + i] < 0 for i in range(f.rank)):
                return False
    return True


# ---------------------------------------------------------------------------
# Cartan data


@lru_cache(maxsize=None)
def cartan_matrix(family, rank):
    """CARTAN[i][j] = <alpha_{i+1}^vee, alpha_{j+1}> (0-based storage)."""
    n = rank
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2

    def bond(i, j, val_ij=-1, val_ji=-1):
        m[i - 1][j - 1] = val_ij
        m[j - 1][i - 1] = val_ji

    if family == "A":
        for i in range(1, n):
            bond(i, i + 1)
    elif family == "B":  # last root short: <a_m^vee, a_{m-1}> = -2
        for i in range(1, n):
            bond(i, i + 1)
        m[n - 1][n - 2] = -2
    elif family == "C":  # last root long: <a_{m-1}^vee, a_m> = -2
        for i in range(1, n):
            bond(i, i + 1)
        m[n - 2][n - 1] = -2
    elif family == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        bond(n - 2, n)
    elif family == "E":
        for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
            if i <= n and j <= n:
                bond(i, j)
    elif family == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)  # <a3^vee, a2> = -2 (a3 short)
        bond(3, 4)
    elif family == "G":
        bond(1, 2, -3, -1)  # <a1^vee, a2> = -3 (a1 short)
    else:
        raise ValueError(family)
    return tuple(tuple(r) for r in m)


@lru_cache(maxsize=None)
def root_norms(family, rank):
    """Relative squared lengths per Bourbaki index (propagated over bonds)."""
    cm = cartan_matrix(family, rank)
    norms = [None] * rank
    norms[0] = Fraction(2)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if j != i and cm[i][j] != 0 and norms[j] is None:
                # norm_j / norm_i = c_ij / c_ji
                norms[j] = norms[i] * Fraction(cm[i][j], cm[j][i])
                todo.append(j)
    return tuple(norms)


@lru_cache(maxsize=None)
def positive_roots(family, rank):
    """Positive roots as coefficient tuples over the simple roots."""
    cm = cartan_matrix(family, rank)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                pair = sum(beta[j] * cm[i][j] for j in range(rank))
                down = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if cur[i] < 0 or tuple(cur) not in roots:
                        break
                    down += 1
                if down - pair >= 1:
                    up = tuple(v + (1 if j == i else 0) for j, v in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(roots))


def positive_root_count(family, rank):
    return len(positive_roots(family, rank))


def flag_dimension(G, levi_roots):
    """dim G/P for the parabolic whose Levi has the given simple roots."""
    levi = set()
    for r in levi_roots:
        G.check_root(r)
        if G.is_trivial_root(r):
            raise ValueError(f"{r} is trivial: Levi root sets are non-trivial")
        levi.add(r)
    total = 0
    for k, f in enumerate(G.factors):
        if not f.is_simple:
            continue
        mine = {r.index - 1 for r in levi if r.factor == k}
        for coeffs in positive_roots(f.family, f.rank):
            if not all(c == 0 or i in mine for i, c in enumerate(coeffs)):
                total += 1
    return total


def color_coefficient(G, R, alpha):
    """<alpha^vee, 2 rho_P> for alpha in R: 2 minus the pairing with the sum
    of the positive roots of the Levi (simple roots outside R)."""
    G.check_root(alpha)
    f = G.factors[alpha.factor]
    if not f.is_simple:
        raise TrivialRootHasNoCoroot(str(alpha))
    cm = cartan_matrix(f.family, f.rank)
    levi = {r.index - 1 for r in G.nontrivial_roots()
            if r.factor == alpha.factor and r not in R}
    i = alpha.index - 1
    acc = 0
    for coeffs in positive_roots(f.family, f.rank):
        if all(c == 0 or j in levi for j, c in enumerate(coeffs)):
            acc += sum(c * cm[i][j] for j, c in enumerate(coeffs))
    return 2 - acc


# ---------------------------------------------------------------------------
# Dynkin subdiagrams


class Component(Record):
    """Connected component of an induced subdiagram, classified.

    members are in the internal Bourbaki order of the component's type;
    short[k] marks relatively short members (all True in simply-laced types).
    """

    family: str
    members: tuple
    short: tuple

    @property
    def rank(self):
        return len(self.members)

    def internal_index(self, root):
        return self.members.index(root) + 1

    def is_extremal(self, root):
        k = self.members.index(root)
        if self.family in ("A", "B", "C", "F", "G"):
            return k == 0 or k == len(self.members) - 1
        if self.family == "D":
            return k == 0 or k >= len(self.members) - 2
        # E types: leaves are internal 1, 2 and the tail end
        return k in (0, 1, len(self.members) - 1)

    def is_short_extremal(self, root):
        return self.is_extremal(root) and self.short[self.members.index(root)]


def _induced_graph(family, rank, verts):
    cm = cartan_matrix(family, rank)
    adj = {v: [] for v in verts}
    for i, j in combinations(sorted(verts), 2):
        if cm[i - 1][j - 1] != 0:
            adj[i].append(j)
            adj[j].append(i)
    return adj


def _classify_component(family, rank, verts, make_root):
    cm = cartan_matrix(family, rank)
    norms = root_norms(family, rank)
    adj = _induced_graph(family, rank, verts)
    vs = sorted(verts)

    def mult(i, j):
        return cm[i - 1][j - 1] * cm[j - 1][i - 1]

    def rel_short(order):
        mx = max(norms[v - 1] for v in order)
        return tuple(norms[v - 1] < mx or all(norms[u - 1] == mx for u in order)
                     for v in order)

    def chain_order(start):
        seq, prev, cur = [start], None, start
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                return seq
            prev, cur = cur, nxts[0]
            seq.append(cur)

    if len(vs) == 1:
        return Component("A", (make_root(vs[0]),), (True,))

    degrees = {v: len(adj[v]) for v in vs}
    branch = [v for v in vs if degrees[v] >= 3]
    mults = [mult(i, j) for i in vs for j in adj[i] if i < j]

    if 3 in mults:
        a, b = vs
        order = (a, b) if norms[a - 1] < norms[b - 1] else (b, a)
        return Component("G", tuple(make_root(v) for v in order), (True, False))

    if 2 in mults:
        # B / C / F chains
        ends = [v for v in vs if degrees[v] == 1]
        seq = chain_order(min(ends))
        dpos = next(k for k in range(len(seq) - 1) if mult(seq[k], seq[k + 1]) == 2)
        if 0 < dpos < len(seq) - 2:
            if norms[seq[0] - 1] < norms[seq[-1] - 1]:
                seq = seq[::-1]
            order = tuple(make_root(v) for v in seq)
            return Component("F", order, rel_short(seq))
        if dpos == 0:
            seq = seq[::-1]
            dpos = len(seq) - 2
        short_end = norms[seq[-1] - 1] < norms[seq[-2] - 1]
        if len(seq) == 2 or not short_end:
            # canonical C: short roots first, long root last
            if short_end:
                seq = seq[::-1]
            return Component("C", tuple(make_root(v) for v in seq), rel_short(seq))
        return Component("B", tuple(make_root(v) for v in seq), rel_short(seq))

    if not branch:
        seq = chain_order(min(v for v in vs if degrees[v] <= 1))
        if seq[0] > seq[-1]:
            seq = seq[::-1]
        return Component("A", tuple(make_root(v) for v in seq),
                         tuple(True for _ in seq))

    b = branch[0]
    arms = []
    for w in adj[b]:
        arm, prev, cur = [w], b, w
        while True:
            nxts = [u for u in adj[cur] if u != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            arm.append(cur)
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[0]))
    lens = sorted(len(a) for a in arms)
    if lens[0] == 1 and lens[1] == 1:
        chain_arm = arms[-1] if lens[2] > 1 else max(arms, key=lambda a: a[0])
        leaf_arms = sorted((a for a in arms if a is not chain_arm),
                           key=lambda a: a[0])
        seq = chain_arm[::-1] + [b] + [leaf_arms[0][0], leaf_arms[1][0]]
        return Component("D", tuple(make_root(v) for v in seq),
                         tuple(True for _ in seq))
    if lens[0] == 1 and lens[1] == 2 and lens[2] in (2, 3, 4):
        one = next(a for a in arms if len(a) == 1)
        twos = [a for a in arms if len(a) >= 2 and a is not one]
        twos.sort(key=lambda a: (len(a), a[0]))
        short_arm, tail = twos[0], twos[1]
        seq = [short_arm[1], one[0], short_arm[0], b] + tail
        return Component("E", tuple(make_root(v) for v in seq),
                         tuple(True for _ in seq))
    raise ValueError("subgraph is not a Dynkin diagram component")


def factor_components(family, rank, verts, make_root=None):
    """Connected components of the induced subdiagram of one simple factor."""
    if make_root is None:
        make_root = lambda i: i
    if not verts:
        return []
    adj = _induced_graph(family, rank, verts)
    seen, comps = set(), []
    for v in sorted(verts):
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u])
        seen |= comp
        comps.append(_classify_component(family, rank, comp, make_root))
    return comps


def subdiagram_components(G, roots):
    """Classified components of the induced Dynkin subgraph of the product."""
    roots = list(roots)
    for r in roots:
        G.check_root(r)
        if G.is_trivial_root(r):
            raise ValueError(f"{r} is trivial: subdiagrams use non-trivial roots")
    comps = []
    for k, f in enumerate(G.factors):
        if not f.is_simple:
            continue
        verts = {r.index for r in roots if r.factor == k}
        comps.extend(factor_components(f.family, f.rank, verts,
                                       make_root=lambda i, k=k: Root(k, i)))
    return comps


# ---------------------------------------------------------------------------
# Smoothness predicates: Pasquier's colour rule (Bull. SMF 136, 2008) is
# `_colors_smooth`, which both `is_smooth_pair` and clause (2) of
# `is_smooth_quadruple` read.


NOT_SMOOTH = "NotSmooth"
SMOOTH_HOMOGENEOUS = "SmoothHomogeneousType"
SMOOTH_TWO_ORBIT = "SmoothTwoOrbitType"

TWO_ORBIT_CASES = {3, 4, 5, 7, 8}


def triple_case(family, rank, i, j):
    """Case number (1..8) of the smooth-triple table, or None."""
    i, j = min(i, j), max(i, j)
    m = rank
    if family == "A":
        if (i, j) == (1, m) and m >= 2:
            return 1
        if j == i + 1 and m >= 3:
            return 2
    elif family == "B":
        if (i, j) == (m - 1, m) and m >= 3:
            return 3
        if m == 3 and (i, j) == (1, 3):
            return 4
    elif family == "C":
        if j == i + 1 and m >= 2:
            return 5
    elif family == "D":
        if m == 4 and i in (1, 3, 4) and j in (1, 3, 4):
            return 6
        if (i, j) == (m - 1, m) and m >= 4:
            return 6
    elif family == "F":
        if (i, j) == (2, 3):
            return 7
    elif family == "G":
        if (i, j) == (1, 2):
            return 8
    return None


def smooth_triple_class(K, gamma, delta):
    """Classify the triple (K, gamma, delta); symmetric in the two roots."""
    if not K.is_simple:
        raise ValueError("smooth triples live on simple factors")
    for idx in (gamma, delta):
        if not (1 <= idx <= K.rank):
            raise ValueError(f"index {idx} out of range for {K}")
    if gamma == delta:
        raise ValueError("the two roots must be distinct")
    case = triple_case(K.family, K.rank, gamma, delta)
    if case is None:
        return NOT_SMOOTH
    return SMOOTH_TWO_ORBIT if case in TWO_ORBIT_CASES else SMOOTH_HOMOGENEOUS


def _colors_smooth(comps, colors):
    """Each component holds at most one of the colors, and that one is a
    short extremal root of a type A or C component."""
    for comp in comps:
        mine = [r for r in comp.members if r in colors]
        if len(mine) > 1:
            return False
        if mine and (comp.family not in ("A", "C") or
                     not comp.is_short_extremal(mine[0])):
            return False
    return True


def is_smooth_pair(G, R1, R2):
    """Smooth-pair test on two disjoint sets of non-trivial simple roots:
    the colour rule for the colors R2 on the subdiagram of R1 and R2."""
    R1, R2 = set(R1), set(R2)
    if R1 & R2:
        raise ValueError("the two root sets must be disjoint")
    return _colors_smooth(subdiagram_components(G, R1 | R2), R2)


def levi_components(family, rank, beta):
    """Components of the Levi of the maximal parabolic attached to beta."""
    return factor_components(family, rank, set(range(1, rank + 1)) - {beta})


def is_smooth_quadruple(K, beta, R, n):
    """Smooth-quadruple test on a simple factor K.

    beta is a Bourbaki index of K, R a set of indices distinct from beta,
    n the rank parameter; clause (1), a pair of the triple table in one
    Levi component, is only available at n = 1, and clause (2) is the
    colour rule for R on the Levi of beta.
    """
    if not K.is_simple:
        raise ValueError("quadruples live on simple factors")
    R = set(R)
    if beta in R:
        raise ValueError("beta may not lie in R")
    comps = levi_components(K.family, K.rank, beta)
    loc = {}
    for comp in comps:
        for r in comp.members:
            loc[r] = comp
    if any(r not in loc for r in R):
        raise ValueError("R must consist of simple roots of K distinct from beta")

    if n == 1 and len(R) == 2:
        u, v = sorted(R)
        c = loc[u]
        if c is loc[v] and triple_case(c.family, c.rank, c.internal_index(u),
                                       c.internal_index(v)) is not None:
            return True
    return _colors_smooth(comps, R)


# ---------------------------------------------------------------------------
# Diagram symmetries and the quadruple enumeration


@lru_cache(maxsize=None)
def symmetry_group(family, rank):
    """Diagram automorphisms as index permutations (identity included)."""
    ident = tuple(range(rank + 1))  # position 0 unused
    perms = {ident}
    if family == "A" and rank >= 2:
        perms.add(tuple([0] + [rank + 1 - i for i in range(1, rank + 1)]))
    elif family == "D":
        swap = list(ident)
        swap[rank - 1], swap[rank] = rank, rank - 1
        perms.add(tuple(swap))
        if rank == 4:
            import itertools as _it
            for img in _it.permutations((1, 3, 4)):
                p = [0, 0, 2, 0, 0]
                p[1], p[3], p[4] = img
                perms.add(tuple(p))
    elif family == "E" and rank == 6:
        perms.add((0, 6, 2, 5, 4, 3, 1))
    return tuple(sorted(perms))


def canonical_beta_R(family, rank, beta, R):
    """Lexicographically least image of (beta, R) under diagram symmetry."""
    best = None
    for p in symmetry_group(family, rank):
        cand = (p[beta], tuple(sorted(p[r] for r in R)))
        if best is None or cand < best:
            best = cand
    return best


def enumerate_smooth_quadruples(family, rank, n_flag):
    """All (beta, R) with a smooth quadruple, up to diagram symmetry.

    n_flag is 1 (rank-one case, both clauses available) or 2 (meaning
    n >= 2, clause (2) only).  Output is sorted and canonical.
    """
    if n_flag not in (1, 2):
        raise ValueError("n_flag must be 1 or 2")
    K = GroupFactor(family, rank)
    others = list(range(1, rank + 1))
    found = set()
    for beta in others:
        rest = [i for i in others if i != beta]
        for size in range(0, len(rest) + 1):
            for R in combinations(rest, size):
                if is_smooth_quadruple(K, beta, set(R), n_flag):
                    found.add(canonical_beta_R(family, rank, beta, R))
    return sorted((b, frozenset(r)) for b, r in found)


# ---------------------------------------------------------------------------
# Text grammar for group products and roots


def parse_factor(token):
    """One factor token: 'A5', 'B2', 'C*', '1', 'SL4', 'Sp6', 'Spin7'."""
    t = token.strip()
    if not t:
        raise ValueError("cannot parse group factor ''")
    if t == TORUS:
        return TORUS_FACTOR, {}
    if t in (TRIVIAL, "{1}"):
        return TRIVIAL_FACTOR, {}
    for name, ctor in (("SL", SL), ("Sp", Sp), ("Spin", Spin)):
        if t.startswith(name) and t[len(name):].isdigit():
            return ctor(int(t[len(name):])), {}
    fam, digits = t[0].upper(), t[1:]
    if fam in SIMPLE_FAMILIES and digits.isdigit():
        factor, relabel = simple_factor(fam, int(digits))
        return factor, relabel
    raise ValueError(f"cannot parse group factor {token!r}")


def parse_group(text):
    """Products like 'A5 x C* x 1'; returns (GroupProduct, relabel per factor)."""
    factors, relabels = [], []
    for tok in text.split("x"):
        f, relabel = parse_factor(tok)
        factors.append(f)
        relabels.append(relabel)
    return GroupProduct(tuple(factors)), relabels


def parse_root(text, relabels=None):
    """Roots like '(0,a3)' or '(1,triv)'."""
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ValueError(f"cannot parse root {text!r}")
    fac_s, idx_s = (s.strip() for s in t[1:-1].split(","))
    fac = int(fac_s)
    if idx_s == "triv":
        return Root(fac, 0)
    if not idx_s.startswith("a"):
        raise ValueError(f"cannot parse root index {idx_s!r}")
    idx = int(idx_s[1:])
    if relabels and fac < len(relabels) and relabels[fac]:
        idx = relabels[fac].get(idx, idx)
    return Root(fac, idx)
