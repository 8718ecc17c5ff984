import json
import os
import subprocess
import sys

from hypothesis import HealthCheck, example, given, settings, strategies as st

import horokit
from horokit import cli


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "horokit.cli", *args],
                          capture_output=True, text=True)
    return proc


W3 = {"group": "A2 x 1 x C* x C*", "kind": "x1", "beta": "(0,a1)",
      "alphas": ["(1,triv)", "(2,triv)", "(3,triv)"], "a": [0, 2, 3]}


FAN_A1 = {"group": "A1 x C* x C*", "kind": "fan",
          "m_basis": [[0, 1, 0], [0, 0, 1]], "colors": [],
          "cones": [{"generators": [[1, 0]], "colors": []}]}


# a fan with a line, and a fan with a non-simplicial cone
FAN_LINE = FAN_A1 | {"cones": [{"generators": g, "colors": []} for g in
                               [[], [[1, 0], [-1, 0]], [[1, 0]], [[-1, 0]]]]}
_APEX = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
FAN_PYRAMID = {"group": "A1 x C* x C* x C*", "kind": "fan",
               "m_basis": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "colors": [],
               "cones": [{"generators": g, "colors": []} for g in
                         [[], _APEX] + [[r] for r in _APEX] +
                         [[_APEX[k - 1], _APEX[k]] for k in range(4)]]}


def test_cmd_check_w3(tmp_path):
    f = tmp_path / "w3.json"
    f.write_text(json.dumps(W3))
    out = tmp_path / "report.json"
    assert cli.main(["check", str(f), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["smooth"] and report["picard_rank"] == 2
    assert report["fano"] is False
    assert report["nef_basis"] is True


def test_cmd_check_case0(tmp_path):
    doc = {"group": "A3", "kind": "fan", "m_basis": [],
           "colors": ["(0,a1)", "(0,a2)"],
           "cones": [{"generators": [], "colors": []}]}
    f = tmp_path / "case0.json"
    f.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert cli.main(["check", str(f), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["picard_rank"] == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    # not JSON, an unknown key, nesting deeper than the decoder recurses
    # (a RecursionError traceback once), and bytes that are not UTF-8 (a
    # domain failure once)
    for i, data in enumerate((b"{not json", json.dumps(W3 | {"surprise": 1}).encode(),
                              b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe\x00")):
        f = tmp_path / f"bad{i}.json"
        f.write_bytes(data)
        assert cli.main(["check", str(f)]) == 2, data[:10]
        assert capsys.readouterr().err.startswith("input error: ")
    # an x1 spec with no roots and an empty group factor (IndexError text
    # once), a basis weight that is not a character of P (Fraction reprs
    # once), and root tokens with too few or too many parts, a factor that
    # is not a number and an index with no digits (Python's own unpacking
    # and int() messages once)
    fan_a2 = {"group": "A2", "kind": "fan", "m_basis": [[1, 0], [0, 1]],
              "colors": [], "cones": [{"generators": [], "colors": []}]}
    for i, (doc, message) in enumerate((
            (W3 | {"alphas": [], "a": []},
             "need n >= 1 and enough roots to cover every outer factor"),
            (W3 | {"group": []}, "cannot parse group factor ''"),
            (W3 | {"group": "A5 x "}, "cannot parse group factor ''"),
            (fan_a2, "basis weight (1, 0) is not a character of P "
                     "(pairs with (0,a1))"),
            (W3 | {"beta": "(0)"}, "cannot parse root '(0)'"),
            (W3 | {"beta": "(0,a1,2)"}, "cannot parse root '(0,a1,2)'"),
            (W3 | {"beta": "(x,a1)"}, "cannot parse root '(x,a1)'"),
            (W3 | {"beta": "(0,a)"}, "cannot parse root '(0,a)'"))):
        f = tmp_path / f"invalid{i}.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["check", str(f)]) == 2, doc
        assert capsys.readouterr().err == f"input error: {message}\n"


def test_cmd_mmp_trace_and_svg(tmp_path):
    f = tmp_path / "w3.json"
    f.write_text(json.dumps(W3))
    out = tmp_path / "trace.json"
    svg = tmp_path / "fig.svg"
    assert cli.main(["mmp", str(f), "--json", str(out), "--svg", str(svg)]) == 0
    doc = json.loads(out.read_text())
    assert [(b["epsilon"], b["kind"]) for b in doc["breakpoints"]] == \
        [("1", "Flip"), ("3", "DivisorialContraction"), ("4", "Fibration")]
    assert doc["rc"] == "c"
    assert all("/" in i["lo"] or i["lo"].lstrip("-").isdigit()
               for i in doc["intervals"])
    text = svg.read_text()
    assert text.startswith("<svg") and "polygon" in text
    # figure emission does not change the trace
    out2 = tmp_path / "trace2.json"
    assert cli.main(["mmp", str(f), "--json", str(out2)]) == 0
    assert json.loads(out2.read_text()) == doc
    # the first-program variant is a single fibration
    out3 = tmp_path / "trace3.json"
    assert cli.main(["mmp", str(f), "--delta", "d0", "--json", str(out3)]) == 0
    doc3 = json.loads(out3.read_text())
    assert [b["kind"] for b in doc3["breakpoints"]] == ["Fibration"]


def test_cmd_normalize_idempotent(tmp_path):
    raw = {"group": "SL2 x SL3 x Sp8 x Spin7", "kind": "x2",
           "alphas": ["(0,a1)", "(1,a1)", "(2,a1)", "(3,a1)", "(3,a3)"],
           "a": [0, 0, 1]}
    f = tmp_path / "w2.json"
    f.write_text(json.dumps(raw))
    out = tmp_path / "nf.json"
    assert cli.main(["normalize", str(f), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["rc"] == "b" and doc["group"] == ["A4", "A7", "B3"]
    # normalizing the output reproduces it byte for byte
    nf_file = tmp_path / "nf_input.json"
    nf_file.write_text(json.dumps({k: v for k, v in doc.items() if k != "rc"}))
    out2 = tmp_path / "nf2.json"
    assert cli.main(["normalize", str(nf_file), "--json", str(out2)]) == 0
    assert out.read_text() == out2.read_text()


def test_cmd_appendix():
    assert cli.main(["appendix", "--family", "G", "--max-rank", "2"]) == 0
    assert cli.main(["appendix", "--family", "F", "--max-rank", "4"]) == 0
    assert cli.main(["appendix", "--family", "B", "--max-rank", "5"]) == 0


def test_wrong_field_types_exit_2(tmp_path):
    # each of these used to escape as a traceback or exit 1
    for i, patch in enumerate(({"group": 5}, {"a": ["x", 2, 3]},
                               {"alphas": "(1,triv)"})):
        f = tmp_path / f"bad{i}.json"
        f.write_text(json.dumps(W3 | patch))
        assert cli.main(["check", str(f)]) == 2, patch
    # a cone generator whose length is not the rank of M
    f = tmp_path / "badgen.json"
    f.write_text(json.dumps(FAN_A1 | {"cones": [{"generators": [[1, 0, 0]],
                                                  "colors": []}]}))
    assert cli.main(["check", str(f)]) == 2
    # M-basis weights shorter (a traceback once) or longer (silently cut
    # once) than the weights of the group
    short = {"group": "B3 x C*", "kind": "fan", "m_basis": [[2, 2]],
             "colors": ["(0,a1)", "(0,a2)", "(0,a3)"],
             "cones": [{"generators": [[-1]], "colors": ["(0,a3)"]}]}
    long = {"group": "A2 x C*", "kind": "fan", "m_basis": [[1, 0, 0, 7]],
            "colors": ["(0,a1)", "(0,a2)"],
            "cones": [{"generators": [], "colors": []},
                      {"generators": [[1]], "colors": []},
                      {"generators": [[-1]], "colors": []}]}
    for name, doc in (("short", short), ("long", long)):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["check", str(f)]) == 2, name


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    # each of these once exited 1 with a FileNotFoundError traceback
    f = tmp_path / "w3.json"
    f.write_text(json.dumps(W3))
    nowhere = str(tmp_path / "missing" / "out")
    for args in (["check", str(f), "--json", nowhere],
                 ["mmp", str(f), "--json", nowhere],
                 ["mmp", str(f), "--svg", nowhere],
                 ["normalize", str(f), "--json", nowhere]):
        assert cli.main(args) == 2, args
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("input error: "), (args, err)
        assert nowhere in err[0]
    # a figure that cannot be written leaves no report behind, in a file or
    # on stdout
    report = tmp_path / "report.json"
    for args in (["mmp", str(f), "--json", str(report), "--svg", nowhere],
                 ["mmp", str(f), "--svg", nowhere]):
        assert cli.main(args) == 2, args
        out = capsys.readouterr()
        assert out.out == "" and nowhere in out.err, (args, out)
        assert not report.exists(), args


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the reader of stdout is gone before the command writes (as with
    # `horokit appendix | head -1`): exit 1, and nothing on stderr
    f = tmp_path / "w3.json"
    f.write_text(json.dumps(W3))
    for args in (["appendix", "--family", "G", "--max-rank", "2"], ["mmp", str(f)],
                 ["check", str(f)]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "horokit.cli", *args],
                                  stdout=write, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, ""), args


def test_subprocess_entry_point(tmp_path):
    f = tmp_path / "w3.json"
    f.write_text(json.dumps(W3))
    proc = run_cli(["check", str(f)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["picard_rank"] == 2


def test_program_paths_do_not_import_lp(tmp_path):
    # the simplex of horokit.lp is the tests' reference: check and mmp on
    # the README spec, and check on a fan with a line and on a fan with a
    # non-simplicial cone, run in a fresh interpreter without importing it
    runs = []
    for name, doc, cmds in (("w3", W3, ("check", "mmp")), ("line", FAN_LINE, ("check",)),
                            ("pyramid", FAN_PYRAMID, ("check",))):
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(doc))
        runs += [[cmd, str(f)] for cmd in cmds]
    code = ("import json, sys\nfrom horokit import cli\n"
            f"codes = [cli.main(args) for args in {runs!r}]\n"
            "print(json.dumps([codes, 'horokit.lp' in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 1, 1], False], proc.stderr


# One fresh interpreter per command: the horokit modules it loads, and
# whether it loads dataclasses or typing.  -S keeps site hooks from loading
# a module.
_PROBE = """import json, sys
from horokit import cli
argv = json.loads(sys.argv[1])
code = cli.main(argv) if argv else None
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("horokit.")),
                  sorted({"dataclasses", "typing"} & set(sys.modules))]))
"""


def test_each_command_imports_only_what_it_runs(tmp_path):
    src = os.path.dirname(os.path.dirname(horokit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    files = {}
    for name, doc in (("w3", W3), ("fan", FAN_A1), ("line", FAN_LINE),
                      ("pyramid", FAN_PYRAMID)):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(doc))

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, json.dumps(argv)],
                              env=env, capture_output=True, text=True)
        code, modules, stdlib = json.loads(proc.stdout.splitlines()[-1])
        assert stdlib == [], argv
        return code, set(modules)

    unused = {"horokit.mmp", "horokit.quadruple", "horokit.reference_tables",
              "horokit.lp", "horokit.normalform"}
    code, modules = loaded()
    assert code is None and not modules & unused
    for name, want in (("w3", 0), ("fan", 1), ("line", 1), ("pyramid", 1)):
        code, modules = loaded("check", str(files[name]))
        assert code == want and not modules & (unused | {"horokit.polyhedra"}), \
            (name, modules)
    code, modules = loaded("mmp", str(files["w3"]))
    assert code == 0 and "horokit.mmp" in modules
    assert not modules & {"horokit.reference_tables", "horokit.lp",
                          "horokit.normalform"}
    code, modules = loaded("normalize", str(files["w3"]))
    assert code == 0 and "horokit.normalform" in modules
    assert loaded("appendix", "--family", "G", "--max-rank", "2")[0] == 0


# Fuzzing the exit-code contract on mutated copies of W3 and FAN_A1: each
# field is dropped, replaced by a value of the wrong JSON type, or re-valued
# within its type, weights and generators of other lengths included.
def _type_ok(key, v):
    def strings(x):
        return isinstance(x, list) and all(isinstance(t, str) for t in x)

    def ints(x):
        return isinstance(x, list) and all(type(t) is int for t in x)

    if key == "group":
        return isinstance(v, str) or strings(v)
    if key in ("kind", "beta"):
        return isinstance(v, str)
    if key in ("alphas", "colors"):
        return strings(v)
    if key == "m_basis":
        return isinstance(v, list) and all(map(ints, v))
    if key == "cones":
        return isinstance(v, list) and all(
            isinstance(c, dict) and _type_ok("m_basis", c.get("generators", []))
            and strings(c.get("colors", [])) for c in v)
    return ints(v)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5)
_ROOTS = st.sampled_from(["(0,a1)", "(0,a2)", "(0,a9)", "(1,triv)",
                          "(2,triv)", "(3,triv)", "(4,triv)", "(1,a1)", "a1"])
_VECTORS = st.lists(st.lists(st.integers(-1, 2), min_size=1, max_size=4),
                    max_size=3)
_REVALUE = {
    "group": st.sampled_from(["A2 x 1 x C* x C*", "A1 x 1 x C* x C*",
                              "A2 x C* x C*", "A2 x 1 x C* x C* x C*",
                              "B2 x 1 x C* x C*", "A1 x C* x C*", "B3 x C*",
                              "Z3", ""])
    | st.lists(st.sampled_from(["A2", "1", "C*", "G2", "X"]), max_size=4),
    "kind": st.sampled_from(["x1", "x2", "fan", "x3"]),
    "beta": _ROOTS,
    "alphas": st.lists(_ROOTS, max_size=4),
    "a": st.lists(st.integers(-1, 4), max_size=4),
    "m_basis": _VECTORS,
    "colors": st.lists(_ROOTS, max_size=3),
    "cones": st.lists(st.fixed_dictionaries(
        {"generators": _VECTORS, "colors": st.lists(_ROOTS, max_size=2)}),
        max_size=4),
}


@st.composite
def _mutated_doc(draw):
    """(document, must it exit 2?)"""
    base = draw(st.sampled_from((W3, FAN_A1)))
    doc = dict(base)
    wrong_type = False
    for key in draw(st.lists(st.sampled_from(sorted(base)), min_size=1,
                             max_size=3, unique=True)):
        ops = ("drop", "retype", "revalue") + \
            (("resize",) if key in ("m_basis", "cones") else ())
        op = draw(st.sampled_from(ops))
        if op == "drop":
            doc.pop(key)
        elif op == "retype":
            doc[key] = draw(_JSON.filter(lambda v: not _type_ok(key, v)))
            wrong_type = True
        elif op == "revalue":
            doc[key] = draw(_REVALUE[key])
        else:
            # cut or pad every weight or generator to another length
            k, pad = draw(st.sampled_from((1, 2, 4, 5))), draw(st.integers(-1, 2))
            resize = lambda vs: [(v + [pad] * k)[:k] for v in vs]
            doc[key] = resize(doc[key]) if key == "m_basis" else \
                [c | {"generators": resize(c["generators"])} for c in doc[key]]
    # the weights of FAN_A1's group A1 x C* x C* have three entries
    wrong_length = doc.get("group") == FAN_A1["group"] and \
        doc.get("kind") == "fan" and _type_ok("m_basis", doc.get("m_basis")) and \
        any(len(w) != 3 for w in doc["m_basis"])
    return doc, wrong_type or wrong_length


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_doc())
@example((FAN_A1 | {"m_basis": [[0, 1, 0, 2], [0, 0, 1, 2]]}, True))
def test_exit_code_contract_on_mutated_specs(tmp_path, case):
    doc, input_error = case
    f = tmp_path / "fuzz.json"
    f.write_text(json.dumps(doc))
    code = cli.main(["check", str(f)])
    assert code in (0, 1, 2), doc
    if input_error:
        assert code == 2, doc
