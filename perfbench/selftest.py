"""
Self-tests of the benchmark: the inputs are the acceptance grid, every check
rejects a corrupted output, the metric names agree with BENCHMARK.json, the
tracer restores what it patched, and the work counters of a traced run
repeat exactly under another PYTHONHASHSEED.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_grid_is_the_acceptance_grid():
    grid = inputs.grid()
    assert len(grid) == 669
    assert sum(1 for s in grid if s.n == 4) == 384
    sizes = {}
    for s in grid:
        sizes[inputs.stratum(s)] = sizes.get(inputs.stratum(s), 0) + 1
    assert sizes == {("x1", 1): 13, ("x1", 2): 46, ("x1", 3): 129,
                     ("x1", 4): 288, ("x2", 2): 25, ("x2", 3): 72,
                     ("x2", 4): 96}


def test_samples_follow_the_seed():
    grid = inputs.grid()
    a = inputs.sample_grid(grid, random.Random(3), workloads.GRID_BLOCK)
    b = inputs.sample_grid(grid, random.Random(3), workloads.GRID_BLOCK)
    c = inputs.sample_grid(grid, random.Random(4), workloads.GRID_BLOCK)
    assert a == b and a != c
    assert [inputs.stratum(s) for s in a] == [inputs.stratum(s) for s in c]
    assert (inputs.polytope_systems(random.Random(3), 2)
            == inputs.polytope_systems(random.Random(3), 2))


def _shift_first_breakpoint(events):
    (eps, kind), rest = events[0], tuple(events[1:])
    return ((eps + Fraction(1, 3), kind),) + rest


def test_grid_check_rejects_corrupted_outputs():
    wl = workloads.GridMMP(5, None)
    i = next(k for k, s in enumerate(wl.items)
             if s.n == 2 and s.a[-1] != 0)
    out = wl.run(i)
    assert wl.problems(i, out) == []
    assert len(out["events"]) >= 2
    assert wl.problems(i, dict(out, events=_shift_first_breakpoint(
        out["events"])))
    assert wl.problems(i, dict(out, eps_max=out["eps_max"] + 1))
    eps, masks = out["faces"][0]
    dropped = [(eps, masks - {max(masks)})] + out["faces"][1:]
    assert wl.problems(i, dict(out, faces=dropped))


def test_cli_check_rejects_corrupted_outputs(tmp_path):
    wl = workloads.CLICheck(5, str(tmp_path))
    wl.in_process = True
    i = next(k for k, s in enumerate(wl.items) if s.n == 2)
    out = wl.run(i)
    assert wl.problems(i, out) == []
    spec = wl.items[i]
    read = {}
    for cmd in ("check", "mmp"):
        with open(f"{wl.files[i]}.{cmd}.out") as fh:
            read[cmd] = (0, json.load(fh))
    assert checks.cli_problems(spec, read) == []
    report = dict(read["check"][1], smooth=False)
    assert checks.cli_problems(spec, dict(read, check=(0, report)))
    doc = json.loads(json.dumps(read["mmp"][1]))
    first = Fraction(doc["breakpoints"][0]["epsilon"])
    doc["breakpoints"][0]["epsilon"] = str(first + Fraction(1, 3))
    assert checks.cli_problems(spec, dict(read, mmp=(0, doc)))
    assert checks.cli_problems(spec, dict(read, mmp=(1, None)))


def test_polytope_check_rejects_corrupted_outputs():
    wl = workloads.PolytopeOracle(5, None)
    i = next(k for k, (A, b) in enumerate(wl.systems) if len(A[0]) == 3)
    out = wl.run(i)
    assert wl.problems(i, out) == []
    assert wl.problems(i, out[1:])                      # a dropped face
    sig, dim = out[-1]
    assert wl.problems(i, out[:-1] + [(sig, dim + 1)])  # a wrong dimension
    whole = min(out, key=lambda f: len(f[0]))
    wrong_whole = [(s, d + 1 if s == whole[0] else d) for s, d in out]
    assert any("dimension" in p for p in wl.problems(i, wrong_whole))
    assert wl.problems(i, out + [out[0]])               # a face twice


def test_oracle_on_known_polytopes():
    square = ((1, 0), (-1, 0), (0, 1), (0, -1))
    faces = checks.oracle_faces(square, (0, -1, 0, -1))
    assert sorted(faces.values()) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    segment = checks.oracle_faces(square, (0, 0, 0, -1))   # x = 0
    assert sorted(segment.values()) == [0, 0, 1]
    assert segment[frozenset({0, 1})] == 1
    point = checks.oracle_faces(((1,), (-1,)), (2, -2))
    assert point == {frozenset({0, 1}): 0}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = set(Tracer().table()) | {"cli.import_s", "trace.overhead_s"}
    assert set(run.PER_LAYER) <= traced


def test_tracer_restores_what_it_patched():
    from horokit import divisor, horo, mmp, polyhedra
    before = (horo.extreme_rays, divisor.extreme_rays, mmp.solve_two,
              mmp.MMPFamily.admissible, polyhedra.det_int)
    tr = Tracer()
    tr.install()
    try:
        assert divisor.extreme_rays is horo.extreme_rays
        assert divisor.extreme_rays is not before[0]
        assert mmp.MMPFamily.admissible is not before[3]
    finally:
        tr.uninstall()
    assert (horo.extreme_rays, divisor.extreme_rays, mmp.solve_two,
            mmp.MMPFamily.admissible, polyhedra.det_int) == before


def _traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        env=env, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counters_repeat_under_another_hash_seed(workload):
    first = _traced_counts(workload, 1)
    assert any(first.values())
    assert _traced_counts(workload, 2) == first


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "grid-mmp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
