"""
Normal forms of the two standard families: the normalization rewrite
system, and the closed-form exceptional loci, fiber-dimension tables and
first-program fibration of a restricted spec.

Specs, their builders and the restricted conditions are in `classify`.
"""

from .classify import (RCFail, X1Spec, X2Spec, _cover_fix, check_rc1,
                       check_rc2)
from .errors import NotRestrictedForm, NotSmoothInput, RewriteDepthExceeded
from .record import Record
from .rootdata import (SL, GroupFactor, GroupProduct, Root, TORUS, TRIVIAL,
                       TRIVIAL_FACTOR, flag_dimension, is_smooth_quadruple,
                       levi_components, smooth_triple_class, simple_factor,
                       symmetry_group, NOT_SMOOTH, SMOOTH_TWO_ORBIT)


def _factor_dim(f):
    """Dimension of the defining horospherical module of a merge factor."""
    if f.family in (TORUS, TRIVIAL):
        return 1
    if f.family == "A":
        return f.rank + 1
    if f.family == "C":
        return 2 * f.rank
    raise ValueError(f"factor {f} cannot enter a type-A merge")


# ---------------------------------------------------------------------------
# Normal forms


class FlagLeaf(Record):
    """Homogeneous flag variety of a simple factor and one root."""

    factor: GroupFactor
    beta: int


class RankOneLeaf(Record):
    """Rank-one orbit closure on a pair of roots in one simple factor."""

    factor: GroupFactor
    gamma: int
    delta: int

    def classify(self):
        return smooth_triple_class(self.factor, self.gamma, self.delta)


class ProjSpaceLeaf(Record):
    dim: int


class NormalForm(Record):
    kind: str            # "x1" | "x2" | "product" | "case0"
    spec: object = None  # X1Spec / X2Spec for x1/x2
    rc: str = None
    parts: tuple = ()    # product components


# -- rewrite-rule machinery -------------------------------------------------


def _pack_x1(g0, beta_index, entries):
    """Entries: (factor or None-for-group0, local_index, a).  None factor
    means a root of factor 0.  A torus factor whose trivial root lands in
    the leading slot is stored as the trivial group (the presentations are
    isomorphic and the normal form demands the latter)."""
    factors = [g0]
    alphas = []
    for pos, (fac, idx, _) in enumerate(entries):
        if fac is None:
            alphas.append(Root(0, idx))
        else:
            if pos == 0 and fac.family == TORUS:
                fac = TRIVIAL_FACTOR
            factors.append(fac)
            alphas.append(Root(len(factors) - 1, idx))
    return X1Spec(GroupProduct(tuple(factors)), Root(0, beta_index),
                  tuple(alphas), tuple(a for _, _, a in entries))


def _unpack_x1(spec):
    out = []
    for r, a in zip(spec.alphas, spec.a):
        if r.factor == 0:
            out.append((None, r.index, a))
        else:
            out.append((spec.G.factors[r.factor], r.index, a))
    return spec.G.factors[0], spec.beta.index, out


def _pack_x2(entries, tail_factor, tail_pair):
    """Entries: (factor, local_index, a) for the first r+1 roots."""
    factors = [fac for fac, _, _ in entries] + [tail_factor]
    alphas = [Root(k, idx) for k, (_, idx, _) in enumerate(entries)]
    k = len(factors) - 1
    alphas += [Root(k, tail_pair[0]), Root(k, tail_pair[1])]
    return X2Spec(GroupProduct(tuple(factors)), tuple(alphas),
                  tuple(a for _, _, a in entries))


def _unpack_x2(spec):
    t = len(spec.G.factors) - 1
    entries = [(spec.G.factors[r.factor], r.index, a)
               for r, a in zip(spec.alphas[:spec.r + 1], spec.a)]
    tail = (spec.alphas[-2].index, spec.alphas[-1].index)
    return entries, spec.G.factors[t], tail


def _smoothness_gate_x1(spec):
    G, n = spec.G, spec.n
    G0 = G.factors[0]
    r0 = {r.index for r in spec.r0()}
    if not is_smooth_quadruple(G0, spec.beta.index, r0, n):
        raise NotSmoothInput("the quadruple on factor 0 is not smooth")
    by_factor = {}
    for i, r in enumerate(spec.alphas):
        if r.factor != 0:
            by_factor.setdefault(r.factor, []).append(i)
    for k, idxs in by_factor.items():
        f = G.factors[k]
        if len(idxs) > 2:
            raise NotSmoothInput(f"three roots share factor {f}")
        if len(idxs) == 2:
            if n != 1:
                raise NotSmoothInput("a shared outer factor forces n = 1")
            if smooth_triple_class(f, spec.alphas[idxs[0]].index,
                                   spec.alphas[idxs[1]].index) == NOT_SMOOTH:
                raise NotSmoothInput(f"the pair on factor {f} is not smooth")
        elif f.is_simple:
            idx = spec.alphas[idxs[0]].index
            if not _is_merge_root(f, idx):
                raise NotSmoothInput(
                    f"the lone root a{idx} of {f} is not a short extremal "
                    "root of a type A or C factor")


def _is_merge_root(f, idx):
    """Short extremal root of a type A or C factor (trivial factors pass)."""
    if f.family in (TORUS, TRIVIAL):
        return True
    if f.family == "A":
        return idx in (1, f.rank)
    if f.family == "C":
        return idx == 1
    return False


def _smoothness_gate_x2(spec):
    G, n = spec.G, spec.n
    by_factor = {}
    for i, r in enumerate(spec.alphas):
        by_factor.setdefault(r.factor, []).append(i)
    for k, idxs in by_factor.items():
        f = G.factors[k]
        if len(idxs) > 2:
            raise NotSmoothInput(f"three roots share factor {f}")
        if len(idxs) == 2:
            if tuple(idxs) not in ((0, 1), (n, n + 1)):
                raise NotSmoothInput(
                    "a shared factor must carry the leading or trailing pair")
            if tuple(idxs) == (0, 1) and spec.r != 1:
                raise NotSmoothInput("a shared leading pair forces r = 1")
            if smooth_triple_class(f, spec.alphas[idxs[0]].index,
                                   spec.alphas[idxs[1]].index) == NOT_SMOOTH:
                raise NotSmoothInput(f"the pair on factor {f} is not smooth")
        elif f.is_simple:
            idx = spec.alphas[idxs[0]].index
            if not _is_merge_root(f, idx):
                raise NotSmoothInput(
                    f"the lone root a{idx} of {f} is not a short extremal "
                    "root of a type A or C factor")


def _canonicalize_factor_roots(entries):
    """Flip lone type-A roots to the first node (diagram symmetry)."""
    out = []
    for fac, idx, a in entries:
        if fac is not None and fac.family == "A" and idx == fac.rank and \
                fac.rank >= 2:
            idx = 1
        out.append((fac, idx, a))
    return out


# -- the rules; each returns a rewritten spec / NormalForm or None ----------


def _rule_product_x1(spec):
    if spec.n != 1 or spec.a[1] != 0:
        return None
    a0, a1 = spec.alphas
    if a0.factor == 0 or a1.factor == 0:
        return None
    if a0.factor == a1.factor:
        f = spec.G.factors[a0.factor]
        return NormalForm("product", parts=(
            FlagLeaf(spec.G.factors[0], spec.beta.index),
            RankOneLeaf(f, a0.index, a1.index)))
    d = _factor_dim(spec.G.factors[a0.factor]) + \
        _factor_dim(spec.G.factors[a1.factor])
    return NormalForm("product", parts=(
        ProjSpaceLeaf(d - 1),
        FlagLeaf(spec.G.factors[0], spec.beta.index)))


def _rule_merge_x1(spec):
    if spec.n == 1:
        return None  # rank-one zero-tie pairs are products, not merges
    g0, beta_index, entries = _unpack_x1(spec)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            fi, _, ai = entries[i]
            fj, _, aj = entries[j]
            if ai == aj and fi is not None and fj is not None and \
                    spec.alphas[i].factor != spec.alphas[j].factor:
                d = _factor_dim(fi) + _factor_dim(fj)
                merged = (SL(d), 1, ai)
                new = entries[:i] + [merged] + entries[i + 1:j] + entries[j + 1:]
                return _pack_x1(g0, beta_index, new)
    return None


def _rule_type_c_x1(spec):
    g0, beta_index, entries = _unpack_x1(spec)
    changed = False
    out = []
    for fac, idx, a in entries:
        if fac is not None and fac.family == "C" and idx == 1:
            out.append((SL(2 * fac.rank), 1, a))
            changed = True
        else:
            out.append((fac, idx, a))
    if not changed:
        return None
    return _pack_x1(g0, beta_index, out)


def _rule_flip_a_x1(spec):
    g0, beta_index, entries = _unpack_x1(spec)
    flipped = _canonicalize_factor_roots(entries)
    if flipped == entries:
        return None
    return _pack_x1(g0, beta_index, flipped)


def _rule_cover_x1(spec):
    if spec.r0():
        return None
    fix = _cover_fix(spec.G.factors[0], spec.beta.index)
    if fix is None:
        return None
    g0p, betap = fix
    betap = min(p[betap] for p in symmetry_group(g0p.family, g0p.rank))
    _, _, entries = _unpack_x1(spec)
    return _pack_x1(g0p, betap, entries)


def _rule_sort_blocks_x1(spec):
    """Within an equal-a block: the (at most one) outer root first, then the
    factor-0 roots in Bourbaki order."""
    g0, beta_index, entries = _unpack_x1(spec)
    out = []
    i = 0
    while i < len(entries):
        j = i
        while j < len(entries) and entries[j][2] == entries[i][2]:
            j += 1
        block = entries[i:j]
        block.sort(key=lambda e: (e[0] is None, e[1]))
        out.extend(block)
        i = j
    if out == entries:
        return None
    return _pack_x1(g0, beta_index, out)


X1_RULES = (_rule_product_x1, _rule_merge_x1, _rule_type_c_x1, _rule_flip_a_x1,
            _rule_cover_x1, _rule_sort_blocks_x1)


def _rule_product_x2(spec):
    if spec.r != 1 or spec.a[1] != 0:
        return None
    a0, a1 = spec.alphas[0], spec.alphas[1]
    if a0.factor != a1.factor:
        return None
    t = len(spec.G.factors) - 1
    return NormalForm("product", parts=(
        RankOneLeaf(spec.G.factors[a0.factor], a0.index, a1.index),
        RankOneLeaf(spec.G.factors[t], spec.alphas[-2].index,
                    spec.alphas[-1].index)))


def _rule_merge_x2(spec):
    entries, tail_factor, tail = _unpack_x2(spec)
    head_shared = spec.alphas[0].factor == spec.alphas[1].factor and spec.r == 1
    if head_shared:
        return None
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i][2] == entries[j][2]:
                d = _factor_dim(entries[i][0]) + _factor_dim(entries[j][0])
                merged = (SL(d), 1, entries[i][2])
                new = entries[:i] + [merged] + entries[i + 1:j] + entries[j + 1:]
                if len(new) == 1:
                    # Whole u-side collapses (r = 1, a_1 = 0): the module is
                    # a tensor line, i.e. family one on the former tail pair.
                    return _pack_x1(new[0][0], 1,
                                    [(tail_factor, tail[0], 0),
                                     (tail_factor, tail[1], 0)])
                return _pack_x2(new, tail_factor, tail)
    return None


def _rule_type_c_x2(spec):
    entries, tail_factor, tail = _unpack_x2(spec)
    head_shared = spec.alphas[0].factor == spec.alphas[1].factor and spec.r == 1
    changed = False
    out = []
    for pos, (fac, idx, a) in enumerate(entries):
        shared = head_shared and pos <= 1
        if not shared and fac.family == "C" and idx == 1:
            out.append((SL(2 * fac.rank), 1, a))
            changed = True
        elif not shared and fac.family == "A" and idx == fac.rank and fac.rank >= 2:
            out.append((fac, 1, a))
            changed = True
        else:
            out.append((fac, idx, a))
    if not changed:
        return None
    return _pack_x2(out, tail_factor, tail)


_GATHER_TAIL = {
    1: lambda f, i, j: _case1_tail(f),
    2: lambda f, i, j: (GroupFactor("A", f.rank + 1), min(i, j) + 1),
    6: lambda f, i, j: (GroupFactor("B", f.rank), f.rank),
}


def _case1_tail(f):
    if f.rank == 2:
        return GroupFactor("A", 3), 2  # SO(6): vector node is the middle one
    df, relabel = simple_factor("D", f.rank + 1)
    return df, relabel[1]


def _rule_tail_x2(spec):
    """Convert away tails that are split or smooth homogeneous."""
    from .rootdata import triple_case
    entries, tail_factor, tail = _unpack_x2(spec)
    n = spec.n
    an, an1 = spec.alphas[n], spec.alphas[n + 1]
    if an.factor != an1.factor:
        d = _factor_dim(spec.G.factors[an.factor]) + \
            _factor_dim(spec.G.factors[an1.factor])
        return _pack_x1(SL(d), 1, entries)
    case = triple_case(tail_factor.family, tail_factor.rank, tail[0], tail[1])
    if case is None:
        raise NotSmoothInput("the tail pair is not smooth")
    if case in (3, 4, 5, 7, 8):
        return None
    if case == 6 and tail_factor.rank == 4 and {tail[0], tail[1]} != {3, 4}:
        # triality of the rank-four binary type: move the pair to (3, 4)
        return _pack_x2(entries, tail_factor, (3, 4))
    g0p, betap = _GATHER_TAIL[case](tail_factor, tail[0], tail[1])
    return _pack_x1(g0p, betap, entries)


X2_RULES = (_rule_product_x2, _rule_merge_x2, _rule_type_c_x2, _rule_tail_x2)


def normalize(raw, x1_rules=X1_RULES, x2_rules=X2_RULES, _depth=0):
    """Rewrite a raw spec to its normal form.

    Terminates: every rule strictly decreases (number of factors, n) or the
    count of non-canonical labels.  The rule order is configurable so the
    confluence of the system can be exercised in tests.
    """
    if _depth > 64:
        raise RewriteDepthExceeded("rewrite depth exceeded")
    if isinstance(raw, X2Spec):
        _smoothness_gate_x2(raw)
        spec = raw
        while True:
            for rule in x2_rules:
                new = rule(spec)
                if new is not None:
                    break
            else:
                rc = check_rc2(spec)
                if isinstance(rc, RCFail):
                    raise NotSmoothInput(f"no rule applies but: {rc.reason}")
                return NormalForm("x2", spec=spec, rc=rc)
            if isinstance(new, NormalForm):
                return new
            if isinstance(new, X1Spec):
                return normalize(new, x1_rules, x2_rules, _depth + 1)
            spec = new
    if isinstance(raw, X1Spec):
        _smoothness_gate_x1(raw)
        spec = raw
        while True:
            for rule in x1_rules:
                new = rule(spec)
                if new is not None:
                    break
            else:
                rc = check_rc1(spec)
                if isinstance(rc, RCFail):
                    raise NotSmoothInput(f"no rule applies but: {rc.reason}")
                return NormalForm("x1", spec=spec, rc=rc)
            if isinstance(new, NormalForm):
                return new
            spec = new
    raise TypeError("normalize expects an X1Spec or X2Spec")


# ---------------------------------------------------------------------------
# Exceptional loci, fiber dimensions, the first fibration


def _value_groups(a):
    """Start indices i_1 < ... < i_k of the distinct nonzero values of a."""
    starts = []
    for i in range(1, len(a)):
        if a[i] != a[i - 1]:
            starts.append(i)
    return starts


def _require_restricted(spec):
    if isinstance(spec, X1Spec):
        rc = check_rc1(spec)
    else:
        rc = check_rc2(spec)
    if isinstance(rc, RCFail):
        raise NotRestrictedForm(rc.reason)
    return rc


def _pq_dim(G, numerator, denominator):
    """dim P(numerator set)/P(denominator set) for intersections of maximal
    parabolics given by root sets (trivial roots ignored)."""
    def levi(ws):
        drop = {w for w in ws if not G.is_trivial_root(w)}
        return {r for r in G.nontrivial_roots() if r not in drop}
    return flag_dimension(G, levi(denominator)) - flag_dimension(G, levi(numerator))


class ExceptionalLocus(Record):
    level: int
    face_index_set: tuple
    weights: tuple        # highest weights spanning the ambient module
    subspec: object       # X1Spec/X2Spec or None when homogeneous
    dim: int
    rank: int


def exceptional_loci(spec):
    """The nested loci E_0 c ... c E_k = X of the second program, family one;
    family two uses the analogous chain indexed by the u-side."""
    _require_restricted(spec)
    G = spec.G
    if isinstance(spec, X1Spec):
        n = spec.n
        if spec.a[n] == 0:
            raise NotRestrictedForm("the chain needs a_n != 0")
        starts = _value_groups(spec.a)
        k = len(starts)
        wb = G.fundamental_weight(spec.beta)
        out = []
        for l in range(k + 1):
            top = starts[l] if l < k else n + 1
            weights = []
            for i in range(top):
                wi = G.fundamental_weight(spec.alphas[i])
                weights.append(tuple(x + (1 + spec.a[i]) * y
                                     for x, y in zip(wi, wb)))
            sub = None
            if top >= 2:
                sub = _subspec_x1(spec, top)
            rank_l = top - 1
            rset = {spec.beta} | {r for r in spec.alphas[:top]
                                  if not G.is_trivial_root(r)}
            levi = {r for r in G.nontrivial_roots() if r not in rset}
            dim_l = flag_dimension(G, levi) + rank_l
            out.append(ExceptionalLocus(l, tuple(range(top, n + 1)), tuple(weights),
                                        sub, dim_l, rank_l))
        return out
    # family two
    n, r = spec.n, spec.r
    wn = G.fundamental_weight(spec.alphas[n])
    wn1 = G.fundamental_weight(spec.alphas[n + 1])
    out = []
    for i in range(r + 1):
        weights = []
        for j in range(i + 1):
            wj = G.fundamental_weight(spec.alphas[j])
            for b in range(spec.a[j] + 2):
                weights.append(tuple(x + b * y + (1 + spec.a[j] - b) * z
                                     for x, y, z in zip(wj, wn, wn1)))
        sub = _subspec_x2(spec, i) if i >= 1 else None
        rset = {x for x in list(spec.alphas[:i + 1]) + [spec.alphas[n], spec.alphas[n + 1]]
                if not G.is_trivial_root(x)}
        levi = {x for x in G.nontrivial_roots() if x not in rset}
        dim_i = flag_dimension(G, levi) + (i + 1)
        out.append(ExceptionalLocus(i, tuple(range(i + 1, r + 1)), tuple(weights),
                                    sub, dim_i, i + 1))
    return out


def _subspec_x1(spec, top):
    """Family-one data of the orbit closure on the first `top` lines."""
    keep = list(range(top))
    factors = [spec.G.factors[0]]
    alphas = []
    for i in keep:
        r = spec.alphas[i]
        if r.factor == 0:
            alphas.append(Root(0, r.index))
        else:
            factors.append(spec.G.factors[r.factor])
            alphas.append(Root(len(factors) - 1, r.index))
    return X1Spec(GroupProduct(tuple(factors)), Root(0, spec.beta.index),
                  tuple(alphas), tuple(spec.a[:top]))


def _subspec_x2(spec, i):
    factors = []
    alphas = []
    for j in range(i + 1):
        r = spec.alphas[j]
        factors.append(spec.G.factors[r.factor])
        alphas.append(Root(len(factors) - 1, r.index))
    t_old = len(spec.G.factors) - 1
    factors.append(spec.G.factors[t_old])
    k = len(factors) - 1
    alphas += [Root(k, spec.alphas[-2].index), Root(k, spec.alphas[-1].index)]
    return X2Spec(GroupProduct(tuple(factors)), tuple(alphas),
                  tuple(spec.a[:i + 1]))


class FiberRow(Record):
    level: int
    case: int                 # 1..4 for family one; 0 for family two
    base_orbits: tuple        # descriptions of the locally (almost) maximal loci
    fiber_dims: tuple         # matching d_j values
    js: tuple                 # the indices j the dims belong to


def fiber_dimension_table(spec):
    """Fiber data of the restricted contractions, family by family."""
    _require_restricted(spec)
    G = spec.G
    if isinstance(spec, X2Spec):
        rows = []
        for i in range(spec.r + 1):
            num = [spec.alphas[i]]
            den = [spec.alphas[n_] for n_ in range(i + 1)] + \
                [spec.alphas[-2], spec.alphas[-1]]
            d = i + 1 + _pq_dim(G, num, den)
            rows.append(FiberRow(i, 0, (f"G/P({spec.alphas[i]})",), (d,), (i,)))
        return rows
    n = spec.n
    if n == 1 and spec.alphas[0].factor == spec.alphas[1].factor and \
            spec.alphas[0].factor != 0:
        raise NotRestrictedForm("rank-one same-factor pairs use the two-orbit "
                                "fiber description instead")
    if n == 1 and spec.alphas[0].factor == 0 and spec.alphas[1].factor == 0:
        comps = levi_components(G.factors[0].family, G.factors[0].rank,
                                spec.beta.index)
        for c in comps:
            idxs = [m.index if hasattr(m, "index") else m for m in c.members]
            if spec.alphas[0].index in idxs and spec.alphas[1].index in idxs:
                raise NotRestrictedForm("rank-one same-component pairs use the "
                                        "two-orbit fiber description instead")
    if spec.a[n] == 0:
        raise NotRestrictedForm("fiber tables need a_n != 0")
    starts = _value_groups(spec.a)
    k = len(starts)
    bounds = [0] + starts + [n + 1]
    dim_flag_beta = flag_dimension(
        G, {r for r in G.nontrivial_roots() if r != spec.beta})
    loci = exceptional_loci(spec)
    rows = []
    for l in range(k + 1):
        il, il1 = bounds[l], bounds[l + 1]
        gap = il1 - il
        in_g0 = spec.alphas[il].factor == 0
        dim_prev = loci[l - 1].dim if l >= 1 else dim_flag_beta - 1
        if gap == 1 and not in_g0:
            rows.append(FiberRow(l, 1, (f"G/P({spec.alphas[il]})",),
                                 (1 + dim_prev,), (il,)))
            continue
        if gap == 1 and in_g0:
            d = il + _pq_dim(G, [spec.alphas[il]],
                             [spec.beta] + [spec.alphas[i] for i in range(il + 1)])
            rows.append(FiberRow(l, 2, (f"G/P({spec.alphas[il]})",), (d,), (il,)))
            continue
        ds, bases, js = [], [], []
        if not in_g0:
            bases.append(f"G/P({spec.alphas[il]})")
            ds.append(1 + dim_prev)
            js.append(il)
            jrange = range(il + 1, il1)
            case = 3
        else:
            jrange = range(il, il1)
            case = 4
        for j in jrange:
            d = il + _pq_dim(G, [spec.alphas[j]],
                             [spec.beta] + [spec.alphas[i] for i in range(il)] +
                             [spec.alphas[j]])
            ds.append(d)
            bases.append(f"G/P({spec.alphas[j]})")
            js.append(j)
        rows.append(FiberRow(l, case, tuple(bases), tuple(ds), tuple(js)))
    return rows


PROJECTIVE_SPACE = "ProjectiveSpace"
HOMOGENEOUS_NON_PS = "HomogeneousNonPS"
TWO_ORBIT = "TwoOrbit"


class PsiFibration(Record):
    target: str
    fiber_class: str
    fiber_dim: int


def psi_fibration(spec):
    """The first program: one fibration; target and general-fiber class."""
    _require_restricted(spec)
    G = spec.G
    if isinstance(spec, X1Spec):
        target = f"G/P({spec.beta})"
        dim_target = flag_dimension(
            G, {r for r in G.nontrivial_roots() if r != spec.beta})
        fiber_dim = spec.dim() - dim_target
        pair = _rank_one_pair_x1(spec)
    else:
        t = len(G.factors) - 1
        tail = RankOneLeaf(G.factors[t], spec.alphas[-2].index,
                           spec.alphas[-1].index)
        target = f"two-orbit({G.factors[t]},{tail.gamma},{tail.delta})"
        dim_target = _pq_dim(G, [], [spec.alphas[-2], spec.alphas[-1]]) + 1
        fiber_dim = spec.dim() - dim_target
        pair = None
        if spec.r == 1 and spec.alphas[0].factor == spec.alphas[1].factor:
            pair = (G.factors[spec.alphas[0].factor], spec.alphas[0].index,
                    spec.alphas[1].index)
    if pair is None:
        return PsiFibration(target, PROJECTIVE_SPACE, fiber_dim)
    K, g, d = pair
    cls = smooth_triple_class(K, g, d)
    if cls == SMOOTH_TWO_ORBIT:
        return PsiFibration(target, TWO_ORBIT, fiber_dim)
    return PsiFibration(target, HOMOGENEOUS_NON_PS, fiber_dim)


def _rank_one_pair_x1(spec):
    """The (factor, gamma, delta) pair when the psi fiber is not projective
    space: n = 1 with both roots in one simple subgroup of the Levi."""
    if spec.n != 1:
        return None
    a0, a1 = spec.alphas
    if a0.factor == a1.factor and a0.factor != 0:
        return (spec.G.factors[a0.factor], a0.index, a1.index)
    if a0.factor == a1.factor == 0:
        comps = levi_components(spec.G.factors[0].family,
                                spec.G.factors[0].rank, spec.beta.index)
        for c in comps:
            if a0.index in c.members and a1.index in c.members:
                return (GroupFactor(c.family, c.rank),
                        c.internal_index(a0.index), c.internal_index(a1.index))
    return None
