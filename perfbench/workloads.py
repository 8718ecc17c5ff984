"""
The three workloads.  Each one holds its seeded items, runs one item with
`run(i)` (the timed part), and checks an output with `problems(i, out)`
against a computation made apart from the engine (not timed; expected
values are memoized, so later passes only compare).
"""

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction

import horokit
from horokit import classify as cl, cli, divisor as dv, mmp, polyhedra as ph
from horokit.classify import X1Spec

import checks
import inputs

# One grid spec per block of GRID_BLOCK neighbours in each (family, rank)
# stratum: 30 of the 669 specs, keeping the grid's mix of sizes.
GRID_BLOCK = 24
# Generic query points per interval, as in the acceptance grid.
QUERIES = 20
# The CLI sample: one spec from each stratum.  Family two at rank 4 is left
# out because its `check` alone takes ~6 s on a 2-core machine, too long for
# the repeated passes that keep the timing steady.
CLI_STRATA = (("x1", 1), ("x1", 2), ("x1", 3), ("x1", 4), ("x2", 2), ("x2", 3))
# Random systems per (dimension, extra rows) stratum: 20 strata, 160 systems.
POLY_PER_STRATUM = 8


def _build(spec):
    return cl.build_x1(spec) if isinstance(spec, X1Spec) else cl.build_x2(spec)


class GridMMP:
    """Build each sampled variety, run the Log-MMP with the canonical
    Delta (dn1), then query the face lattice at generic points of every
    interval."""

    name = "grid-mmp"
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = inputs.sample_grid(inputs.grid(), rng, GRID_BLOCK)
        self._masks = {}

    def run(self, i):
        X = _build(self.items[i])
        last = len(X.divisors) - 1
        D0, Dlast = X.boundary_divisor(0), X.boundary_divisor(last)
        trace = mmp.run_log_mmp(X, D0 + Dlast, (-1 * Dlast) + dv.anticanonical(X))
        fam = trace.family
        faces = []
        for lo, hi, _ in trace.intervals:
            for j in range(1, QUERIES + 1):
                eps = lo + (hi - lo) * Fraction(2 * j - 1, 2 * QUERIES + 1)
                faces.append((eps, fam.signature_masks_at(eps)))
        return {"events": tuple(trace.event_list()), "eps_max": trace.eps_max,
                "faces": faces}

    def problems(self, i, out):
        spec = self.items[i]

        def expect(eps):
            if (i, eps) not in self._masks:
                self._masks[i, eps] = checks.closed_form_masks(spec, eps)
            return self._masks[i, eps]

        return checks.grid_problems(spec, out, expect)


class CLICheck:
    """`horokit check` and `horokit mmp` on each sampled spec, each as a
    fresh `python -m horokit.cli` process (or in-process `cli.main` when
    traced, since wrappers cannot reach child processes)."""

    name = "cli-check"
    rusage = resource.RUSAGE_CHILDREN   # peak memory of the largest child

    def __init__(self, seed, workdir):
        grid = inputs.grid()
        # a block as large as the grid: one spec from each stratum
        self.items = inputs.sample_grid(grid, random.Random(seed), len(grid),
                                        strata=CLI_STRATA)
        self.workdir = workdir
        self.in_process = False
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("HOROKIT_THREADS", "PYTHONPATH")}
        # the child imports the same source tree as this process
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(horokit.__file__))
        self.files = []
        for i, spec in enumerate(self.items):
            path = os.path.join(workdir, f"spec{i}.json")
            with open(path, "w") as fh:
                json.dump(cli.spec_to_doc(spec), fh)
            self.files.append(path)

    def _call(self, cmd, path, out):
        if os.path.exists(out):
            os.remove(out)
        argv = [cmd, path, "--json", out]
        if self.in_process:
            return cli.main(argv)
        proc = subprocess.run([sys.executable, "-m", "horokit.cli", *argv],
                              env=self.env, cwd=self.workdir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode

    def run(self, i):
        out = {cmd: self._call(cmd, self.files[i], f"{self.files[i]}.{cmd}.out")
               for cmd in ("check", "mmp")}
        if any(out.values()):
            raise RuntimeError(f"horokit exited {out}")
        return out

    def problems(self, i, out):
        read = {}
        for cmd, rc in out.items():
            try:
                with open(f"{self.files[i]}.{cmd}.out") as fh:
                    read[cmd] = (rc, json.load(fh))
            except (OSError, ValueError) as exc:
                return [f"{cmd} wrote no JSON report: {exc}"]
        return checks.cli_problems(self.items[i], read)


class PolytopeOracle:
    """`polyhedra.face_lattice` on seeded bounded systems A x >= b."""

    name = "polytope-oracle"
    rusage = resource.RUSAGE_SELF

    def __init__(self, seed, workdir):
        self.systems = inputs.polytope_systems(random.Random(seed),
                                               POLY_PER_STRATUM)
        self.items = [ph.InequalitySystem(A, b) for A, b in self.systems]
        self._oracle = {}

    def run(self, i):
        return [(f.active_rows, f.dim) for f in ph.face_lattice(self.items[i])]

    def problems(self, i, out):
        if i not in self._oracle:
            self._oracle[i] = checks.oracle_faces(*self.systems[i])
        return checks.polytope_problems(out, self._oracle[i])


WORKLOADS = {w.name: w for w in (GridMMP, CLICheck, PolytopeOracle)}
