"""
horokit benchmark: one workload per run.

    python3 perfbench/run.py --workload grid-mmp --seed 1 --seconds 40 --trace 0

With --trace 0 the run repeats passes over every item of the workload for
about --seconds of timed work and reports the end-to-end metrics; with
--trace 1 it makes one untraced and one traced pass and reports the
per-layer metrics.  Outputs are checked after every pass, outside the
timing.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the same record, with details, is
written to perfbench/out/.

horokit is imported from the src/ next to this directory, never from an
installed copy; without it the run exits 2 and prints no result.
"""

import time

_BOOT_AT_ENTRY = time.clock_gettime(time.CLOCK_BOOTTIME)

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "run_s", "peak_rss_mb")

PER_LAYER = (
    "lp.solve_lp.calls", "lp.solve_lp.self_s",
    "linalg.solve_two.calls", "linalg.solve_two.singular",
    "linalg.affine_dim.calls", "linalg.affine_dim.self_s",
    "linalg.det_int.calls",
    "horo.extreme_rays.calls", "horo.extreme_rays.self_s",
    "horo.cone_contains.calls", "horo.cone_contains.self_s",
    "horo.validate_fan.self_s", "horo.cone_faces.calls",
    "classify.build_x1.self_s", "classify.build_x2.self_s",
    "divisor.pl_function.calls", "divisor.pl_function.self_s",
    "divisor.ample_status.calls", "divisor.ample_status.self_s",
    "divisor.verify_nef_generators.self_s",
    "mmp.build_family.self_s",
    "mmp.critical_epsilons.self_s", "mmp.critical_epsilons.candidates",
    "mmp.MMPFamily.admissible.calls", "mmp.MMPFamily.admissible.self_s",
    "mmp.classify_breakpoints.self_s",
    "mmp.MMPFamily.pruned_rows_at.calls", "mmp.MMPFamily.pruned_rows_at.self_s",
    "mmp.MMPFamily.signatures_at.calls", "mmp.MMPFamily.signatures_at.self_s",
    "mmp.general_fiber.self_s",
    "mmp.run_log_mmp.self_s",
    "mmp.MMPFamily.signature_masks_at.calls",
    "mmp.MMPFamily.signature_masks_at.self_s",
    "polyhedra.face_lattice.self_s",
    "polyhedra.basic_points.calls", "polyhedra.basic_points.self_s",
    "polyhedra.signature_closure.calls", "polyhedra.signature_closure.self_s",
    "polyhedra.signature_closure.faces",
    "polyhedra.closure_masks.self_s",
    "cli.import_s", "cli.cmd_check.self_s", "cli.cmd_mmp.self_s",
    "trace.overhead_s",
)

IMPORT_PROBE = ("import time; t = time.perf_counter(); import horokit.cli; "
                "print(time.perf_counter() - t)")


def unit_of(metric):
    if metric == "peak_rss_mb":
        return "MB"
    return "s" if metric.endswith("_s") else "count"


def process_start():
    """CLOCK_BOOTTIME seconds at which this process started (from
    /proc/self/stat, one clock tick of resolution), or the moment this file
    began to run where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return _BOOT_AT_ENTRY


def run_pass(wl, before=None):
    """One timed pass over every item: (seconds, outputs).  A raised
    exception is the item's output and counts as a failed operation."""
    outs = []
    t0 = time.perf_counter()
    for i in range(len(wl.items)):
        if before is not None:
            before(i)
        try:
            outs.append(wl.run(i))
        except Exception as exc:
            outs.append(exc)
    return time.perf_counter() - t0, outs


def check_pass(wl, outs):
    """(failed operations, correct) for one pass's outputs."""
    failed = 0
    correct = True
    for i, out in enumerate(outs):
        if isinstance(out, Exception):
            failed += 1
            print(f"item {i} failed: {out!r}", file=sys.stderr)
            continue
        for problem in wl.problems(i, out):
            correct = False
            print(f"item {i}: {problem}", file=sys.stderr)
    return failed, correct


def measure(wl, seconds):
    """Whole passes over every item while the timed work stays within
    `seconds`; run_s is the mean time of one pass.

    The mean, not the median, of the passes: on a shared host the CPU's
    speed drifts over tens of seconds, and the mean averages the states a
    run goes through where a median picks one of them.
    """
    pass_s = []
    failed = 0
    correct = True
    while True:
        gc.collect()
        took, outs = run_pass(wl)
        pass_s.append(took)
        f, ok = check_pass(wl, outs)
        failed += f
        correct = correct and ok
        done = sum(pass_s)
        if done + done / len(pass_s) > seconds:
            break
    run_s = sum(pass_s) / len(pass_s)
    peak_mb = resource.getrusage(wl.rusage).ru_maxrss / 1024   # KiB on Linux
    return (correct, len(wl.items) * len(pass_s), failed,
            {"run_s": run_s, "peak_rss_mb": peak_mb}, {"pass_s": pass_s})


def import_seconds(env, repeats=5):
    """Median time of `import horokit.cli` in a fresh interpreter."""
    took = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        took.append(float(proc.stdout))
    return statistics.median(took)


def trace(wl, stem):
    """One untraced and one traced pass, both in-process."""
    from tracer import Tracer

    wl.in_process = True   # cli-check calls cli.main instead of a child
    gc.collect()
    base_s, outs = run_pass(wl)
    f1, ok1 = check_pass(wl, outs)

    tr = Tracer()
    gc.collect()
    tr.install()
    try:
        traced_s, outs = run_pass(wl, before=lambda i: setattr(tr, "item", i))
    finally:
        tr.uninstall()
    f2, ok2 = check_pass(wl, outs)

    table = tr.table()
    table["trace.overhead_s"] = traced_s - base_s
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HOROKIT_THREADS", None)
    table["cli.import_s"] = import_seconds(env)
    spans = OUT / f"{stem}.spans.csv.gz"
    tr.write_spans(spans)
    details = {"untraced_pass_s": base_s, "traced_pass_s": traced_s,
               "absent": tr.absent, "spans": tr.span_count,
               "spans_file": spans.name, "layers": table}
    if tr.absent:
        print(f"absent from horokit (read 0): {tr.absent}", file=sys.stderr)
    metrics = {m: table.get(m, 0) for m in PER_LAYER}
    return (ok1 and ok2, 2 * len(wl.items), f1 + f2, metrics, details)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("grid-mmp", "cli-check", "polytope-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "horokit" / "__init__.py").is_file():
        print(f"no horokit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import horokit
    if Path(horokit.__file__).resolve().parent != (SRC / "horokit").resolve():
        print(f"horokit was imported from {horokit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - process_start()
        if args.trace:
            correct, attempted, failed, metrics, details = trace(wl, stem)
        else:
            correct, attempted, failed, metrics, details = measure(
                wl, args.seconds)
            metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": unit_of(m)}
                          for m in names}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "items": len(wl.items), "python": sys.version.split()[0],
              "cpus": os.cpu_count(), "setup_s": setup_s, **details,
              "result": result}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
