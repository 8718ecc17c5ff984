"""
Command-line driver.

Spec files are JSON documents with the keys

    group   "A5 x C* x 1" or a list of factor tokens
            (families A..G with rank, C*, 1; also SLd, Spd, Spind; B2 and
            D3 inputs are relabeled to their canonical C2 / A3 forms)
    kind    "x1" | "x2" | "fan"
    beta    root token, x1 only           e.g. "(0,a3)"
    alphas  list of root tokens           e.g. ["(1,triv)", "(0,a1)"]
    a       list of integers
    m_basis list of integer weight vectors     (fan kind), one entry per
            fundamental weight and per C* factor, in factor order
    colors  list of root tokens                (fan kind)
    cones   [{"generators": [[...]], "colors": [...]}, ...]  (fan kind)

Root tokens are "(factor_index, aK)" with Bourbaki numbering, or
"(factor_index, triv)" for the trivial root of a C*/{1} factor.  Unknown
keys are rejected.  Exact rationals appear in outputs as "p/q" strings.

Exit codes: 0 ok, 1 domain failure, 2 input error.  A file that is not
UTF-8 JSON, a field of the wrong type, a document that does not describe a
valid spec, or an output path that cannot be written is an input error.
A command whose reader closes standard output early (a broken pipe, as in
`horokit appendix | head -1`) stops there and exits 1, with nothing on
standard error.  `mmp --svg FIG` writes the figure before the report, so
when FIG cannot be written no report is written either.

Each command imports the modules it runs inside its own function, so that
`check` does not pay for the Log-MMP engine or the reference tables.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import classify, horo
from .errors import HorokitError
from .rootdata import parse_group, parse_root


def _rat(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


class InputError(Exception):
    pass


_SPEC_KEYS = {"group", "kind", "beta", "alphas", "a", "m_basis", "colors", "cones"}


def _strings(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _ints(v):
    return isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool)
                                       for x in v)


def _vectors(v):
    return isinstance(v, list) and all(map(_ints, v))


def _cones(v):
    return isinstance(v, list) and all(
        isinstance(c, dict) and _vectors(c.get("generators", []))
        and _strings(c.get("colors", [])) for c in v)


# key -> (type test, what the value must be)
_FIELD_TYPES = {
    "group": (lambda v: isinstance(v, str) or _strings(v),
              "a string or a list of strings"),
    "beta": (lambda v: isinstance(v, str), "a string"),
    "alphas": (_strings, "a list of strings"),
    "colors": (_strings, "a list of strings"),
    "a": (_ints, "a list of integers"),
    "m_basis": (_vectors, "a list of integer vectors"),
    "cones": (_cones, "a list of cones with integer generators and string colors"),
}


def load_spec(path):
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(str(exc))
    with fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise InputError(f"not UTF-8 text: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("spec file must hold a JSON object")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise InputError(f"unknown keys: {sorted(unknown)}")
    if "group" not in doc or "kind" not in doc:
        raise InputError("spec needs 'group' and 'kind'")
    for key, (test, what) in _FIELD_TYPES.items():
        if key in doc and not test(doc[key]):
            raise InputError(f"'{key}' must be {what}")
    try:
        return _spec_from_doc(doc)
    except (HorokitError, ValueError, TypeError, LookupError) as exc:
        raise InputError(str(exc)) from exc


def _spec_from_doc(doc):
    group_field = doc["group"]
    text = group_field if isinstance(group_field, str) else " x ".join(group_field)
    G, relabels = parse_group(text)
    kind = doc["kind"]
    if kind == "x1":
        for key in ("beta", "alphas", "a"):
            if key not in doc:
                raise InputError(f"x1 spec needs '{key}'")
        return classify.X1Spec(G, parse_root(doc["beta"], relabels),
                               tuple(parse_root(t, relabels) for t in doc["alphas"]),
                               tuple(doc["a"]))
    if kind == "x2":
        for key in ("alphas", "a"):
            if key not in doc:
                raise InputError(f"x2 spec needs '{key}'")
        return classify.X2Spec(G,
                               tuple(parse_root(t, relabels) for t in doc["alphas"]),
                               tuple(doc["a"]))
    if kind == "fan":
        for key in ("m_basis", "colors", "cones"):
            if key not in doc:
                raise InputError(f"fan spec needs '{key}'")
        hs = horo.HomSpaceData(G, frozenset(parse_root(t, relabels)
                                            for t in doc["colors"]),
                               tuple(tuple(v) for v in doc["m_basis"]))
        cones = []
        for c in doc["cones"]:
            extra = set(c) - {"generators", "colors"}
            if extra:
                raise InputError(f"unknown cone keys: {sorted(extra)}")
            if any(len(g) != hs.rank for g in c.get("generators", ())):
                raise InputError(f"cone generators need {hs.rank} entries")
            cones.append(horo.ColoredCone(
                tuple(tuple(g) for g in c.get("generators", ())),
                frozenset(parse_root(t, relabels) for t in c.get("colors", ()))))
        return hs, horo.ColoredFan(tuple(cones))
    raise InputError(f"unknown kind {kind!r}")


def build_variety(spec):
    if isinstance(spec, classify.X1Spec):
        return classify.build_x1(spec)
    if isinstance(spec, classify.X2Spec):
        return classify.build_x2(spec)
    hs, fan = spec
    return horo.HoroVariety(hs, fan)


def spec_to_doc(spec):
    if isinstance(spec, classify.X1Spec):
        return {"group": repr(spec.G).split(" x "), "kind": "x1",
                "beta": repr(spec.beta), "alphas": [repr(r) for r in spec.alphas],
                "a": list(spec.a)}
    return {"group": repr(spec.G).split(" x "), "kind": "x2",
            "alphas": [repr(r) for r in spec.alphas], "a": list(spec.a)}


def cmd_check(args):
    from . import divisor

    spec = load_spec(args.file)
    X = build_variety(spec)
    issues = horo.validate_fan(X)
    report = {"validate": not issues, "violations": issues}
    ok = not issues
    if not issues:
        report["complete"] = X.complete()
        report["locally_factorial"] = X.locally_factorial()
        report["smooth"] = X.smooth()
        ok = report["complete"] and report["locally_factorial"] and report["smooth"]
        if report["complete"] and report["locally_factorial"]:
            report["picard_rank"] = X.picard_rank()
            report["fano"] = divisor.is_fano(X)
            if report["picard_rank"] == 2 and isinstance(spec, (classify.X1Spec,
                                                                classify.X2Spec)):
                nlast = len(X.divisors) - 1
                report["nef_basis"] = divisor.verify_nef_generators(
                    X, X.boundary_divisor(0), X.boundary_divisor(nlast))
    _emit(report, args.json)
    return 0 if ok else 1


def cmd_mmp(args):
    from . import divisor, mmp

    spec = load_spec(args.file)
    if not isinstance(spec, (classify.X1Spec, classify.X2Spec)):
        raise InputError("the parametric run needs an x1 or x2 spec")
    X = build_variety(spec)
    if not X.smooth() or X.picard_rank() != 2:
        print("input is not a smooth rank-two spec", file=sys.stderr)
        return 1
    nlast = len(X.divisors) - 1
    D0, Dlast = X.boundary_divisor(0), X.boundary_divisor(nlast)
    K = divisor.anticanonical(X)
    Delta = (-1 * (Dlast if args.delta == "dn1" else D0)) + K
    trace = mmp.run_log_mmp(X, D0 + Dlast, Delta)
    rc = classify.check_rc(spec)
    doc = {
        "inputs": spec_to_doc(spec) | {"delta": args.delta},
        "picard_rank": 2,
        "smooth": True,
        "rc": rc if isinstance(rc, str) else f"fail: {rc.reason}",
        "breakpoints": [
            {"epsilon": _rat(e.epsilon), "kind": e.kind,
             "pruned_rows": sorted(e.pruned_rows),
             "fiber": None if e.fiber is None else
             {"dim": e.fiber.dim, "rank": e.fiber.rank}}
            for e in trace.events],
        "intervals": [
            {"lo": _rat(lo), "hi": None if hi is None else _rat(hi),
             "num_faces": len(sigs)}
            for lo, hi, sigs in trace.intervals],
    }
    if args.svg:
        fam = trace.family
        samples = []
        for lo, hi, _ in trace.intervals:
            samples.append((lo + (hi if hi is not None else lo + 2)) / 2)
        for e in trace.events:
            if e.kind != mmp.FIBRATION:
                samples.append(e.epsilon)
        if trace.eps_max is not None:
            samples.append(trace.eps_max)
        samples = sorted(set(samples))
        if fam.n <= 2:
            from .svgfig import render_family
            _write(args.svg, render_family(fam, samples))
        else:
            print("svg output needs rank <= 2; skipped", file=sys.stderr)
    _emit(doc, args.json)
    return 0


def cmd_appendix(args):
    from . import reference_tables
    from .rootdata import enumerate_smooth_quadruples

    families = [args.family] if args.family else ["A", "B", "C", "D", "E", "F", "G"]
    bounds = {"A": (1, 99), "B": (3, 99), "C": (2, 99), "D": (4, 99),
              "E": (6, 8), "F": (4, 4), "G": (2, 2)}
    bad = 0
    for fam in families:
        lo, hi = bounds[fam]
        for m in range(lo, min(hi, args.max_rank) + 1):
            for n_flag in (1, 2):
                entries = enumerate_smooth_quadruples(fam, m, n_flag)
                print(f"{fam}{m} n{'=1' if n_flag == 1 else '>=2'}: "
                      f"{len(entries)} classes")
                for side, b, R, reason in \
                        reference_tables.diff_against_reference(fam, m, n_flag):
                    tag = "ok (known deviation)" if reason else "MISMATCH"
                    print(f"  {tag}: {side} beta=a{b} R={{{','.join('a%d' % i for i in sorted(R))}}}"
                          + (f"  [{reason}]" if reason else ""))
                    if not reason:
                        bad += 1
    return 1 if bad else 0


def cmd_normalize(args):
    from .normalform import normalize

    spec = load_spec(args.file)
    if not isinstance(spec, (classify.X1Spec, classify.X2Spec)):
        raise InputError("normalize needs an x1 or x2 spec")
    nf = normalize(spec)
    if nf.kind == "product":
        doc = {"kind": "product", "parts": [repr(p) for p in nf.parts]}
    else:
        doc = spec_to_doc(nf.spec) | {"rc": nf.rc}
    _emit(doc, args.json)
    return 0


def _emit(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        _write(path, text + "\n")
    else:
        print(text)


def _write(path, text):
    """An output file that cannot be written is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(str(exc))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="horokit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validity / completeness / smoothness report")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("mmp", help="run the parametric program")
    p.add_argument("file")
    p.add_argument("--delta", choices=("d0", "dn1"), default="dn1")
    p.add_argument("--svg", metavar="OUT")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(fn=cmd_mmp)

    p = sub.add_parser("appendix", help="enumerate smooth quadruples and diff "
                                        "against the bundled reference")
    p.add_argument("--family", choices=("A", "B", "C", "D", "E", "F", "G"))
    p.add_argument("--max-rank", type=int, default=8)
    p.set_defaults(fn=cmd_appendix)

    p = sub.add_parser("normalize", help="rewrite a spec to its normal form")
    p.add_argument("file")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(fn=cmd_normalize)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull, so that the flush at
        # exit has nowhere to fail (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (HorokitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
