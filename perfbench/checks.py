"""
Correctness checks of the workloads' outputs.

Every check compares an output with a computation made apart from the
engine: the closed-form traces and face lists of the two standard families
(`mmp.predict_trace_case*`, `mmp.faces_case*`), and for polytopes an
exhaustive enumeration written here with `fractions` alone.  Each check
returns a list of problems; an empty list means the output is correct.
Outputs are plain data, so the self-tests can corrupt them.
"""

from fractions import Fraction
from itertools import combinations

from horokit import mmp
from horokit.classify import X1Spec


def closed_form_trace(spec):
    """((epsilon, kind), ...) and eps_max from the closed form."""
    sk = (mmp.predict_trace_case1(spec) if isinstance(spec, X1Spec)
          else mmp.predict_trace_case2(spec))
    return tuple(sk.events), sk.eps_max


def closed_form_masks(spec, eps):
    """Face signatures at eps as row bitmasks, or None where the family-one
    face proposition does not apply (a_n = 0)."""
    if isinstance(spec, X1Spec):
        if spec.a[spec.n] == 0:
            return None
        faces = mmp.faces_case1(spec.n, spec.a, eps)
    else:
        faces = mmp.faces_case2(spec.r, spec.a, eps)
    return frozenset(sum(1 << i for i in sig) for sig in faces)


def _trace_problems(spec, events, eps_max):
    want_events, want_max = closed_form_trace(spec)
    out = []
    if tuple(events) != want_events:
        out.append(f"events {events} != closed form {want_events}")
    if eps_max != want_max:
        out.append(f"eps_max {eps_max} != closed form {want_max}")
    if eps_max != 1 + spec.a[-1]:
        out.append(f"eps_max {eps_max} != 1 + a_last = {1 + spec.a[-1]}")
    eps = [e for e, _ in events]
    if any(x >= y for x, y in zip(eps, eps[1:])):
        out.append(f"breakpoints {eps} do not strictly increase")
    return out


def grid_problems(spec, out, expect_masks):
    """out: {"events", "eps_max", "faces": [(eps, masks), ...]};
    expect_masks(eps) gives the closed-form masks of spec at eps."""
    problems = _trace_problems(spec, out["events"], out["eps_max"])
    for eps, masks in out["faces"]:
        want = expect_masks(eps)
        if want is not None and masks != want:
            problems.append(f"face lattice at eps={eps} differs from the "
                            f"closed form ({len(masks)} vs {len(want)} faces)")
    return problems


def cli_problems(spec, out):
    """out: {"check": (exit code, report), "mmp": (exit code, doc)}."""
    problems = []
    rc, report = out["check"]
    if rc != 0:
        problems.append(f"check exited {rc}")
    else:
        for key in ("validate", "complete", "locally_factorial", "smooth",
                    "nef_basis"):
            if report.get(key) is not True:
                problems.append(f"check report: {key} = {report.get(key)!r}")
        if report.get("picard_rank") != 2:
            problems.append(f"check report: picard_rank = "
                            f"{report.get('picard_rank')!r}")
    rc, doc = out["mmp"]
    if rc != 0:
        problems.append(f"mmp exited {rc}")
    else:
        events = tuple((Fraction(bp["epsilon"]), bp["kind"])
                       for bp in doc["breakpoints"])
        eps_max = events[-1][0] if events else None
        problems += _trace_problems(spec, events, eps_max)
    return problems


# ---------------------------------------------------------------------------
# Exhaustive polytope oracle (fractions only)


def _solve(mat, rhs):
    """Unique solution of a square system, or None when singular."""
    n = len(mat)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _rank(vectors):
    m = [list(v) for v in vectors]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _affine_dim(points):
    base = points[0]
    return _rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def oracle_faces(A, b):
    """{signature: dim} of the nonempty faces of {x : A x >= b}, by brute
    force: every basic point, then every subset T of rows, whose face is
    cut out by the vertices tight on all of T."""
    m, n = len(A), len(A[0])
    verts = {}
    for sub in combinations(range(m), n):
        x = _solve([A[i] for i in sub], [b[i] for i in sub])
        if x is None or x in verts:
            continue
        slack = [sum(a * v for a, v in zip(A[i], x)) - b[i] for i in range(m)]
        if min(slack) >= 0:
            verts[x] = sum(1 << i for i in range(m) if slack[i] == 0)
    faces = {}
    for T in range(1 << m):
        hit = [p for p, act in verts.items() if act & T == T]
        if not hit:
            continue
        sig = ~0
        for p in hit:
            sig &= verts[p]
        if sig not in faces:
            faces[sig] = _affine_dim([p for p in hit if verts[p] & sig == sig])
    return {frozenset(i for i in range(m) if s >> i & 1): d
            for s, d in faces.items()}


def polytope_problems(out, oracle):
    """out: [(signature, dim), ...] as reported by the engine."""
    problems = []
    got = dict(out)
    if len(got) != len(out):
        problems.append("a face is reported twice")
    if got != oracle:
        missing = len(set(oracle) - set(got))
        extra = len(set(got) - set(oracle))
        wrong = sum(1 for s in set(got) & set(oracle) if got[s] != oracle[s])
        problems.append(f"faces differ from the oracle: {missing} missing, "
                        f"{extra} extra, {wrong} with another dimension")
    euler = sum((-1) ** d for _, d in out)
    if euler != 1:
        problems.append(f"Euler sum over faces is {euler}, not 1")
    if out:
        whole = min(got, key=len)
        if any(not whole <= s for s in got):
            problems.append("no face signature lies in every other one")
        elif got[whole] != max(oracle.values()):
            problems.append(f"polytope dimension {got[whole]} != oracle "
                            f"{max(oracle.values())}")
    return problems
