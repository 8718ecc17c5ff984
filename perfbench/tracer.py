"""
Spans and work counters recorded from outside the program.

Each traced name is a public function (or `Class.method`) of a horokit
module.  Installing the tracer replaces the function by a wrapper in every
horokit module that binds it, since several modules import their kernels by
value (`divisor` binds `extreme_rays` and `cone_contains`, `mmp` binds
`pl_function`, `ample_status`, `signature_closure` and `solve_two`,
`polyhedra` binds `affine_dim` and `det_int`).  A name that no longer exists
is reported as absent and reads 0.

Spans (name, start, end, parent span, item) are kept in compact arrays and
written out once at the end.  Self time is a span's duration minus the
time covered by its child spans.
"""

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter

TRACED = {
    "lp": ("solve_lp",),
    "linalg": ("solve_two", "affine_dim", "det_int"),
    "horo": ("extreme_rays", "cone_contains", "validate_fan", "cone_faces"),
    "classify": ("build_x1", "build_x2"),
    "divisor": ("pl_function", "ample_status", "verify_nef_generators"),
    "mmp": ("build_family", "critical_epsilons", "classify_breakpoints",
            "general_fiber", "run_log_mmp", "MMPFamily.admissible",
            "MMPFamily.pruned_rows_at", "MMPFamily.signatures_at",
            "MMPFamily.signature_masks_at"),
    "polyhedra": ("face_lattice", "basic_points", "signature_closure",
                  "closure_masks"),
    "cli": ("cmd_check", "cmd_mmp"),
}

# Counters read off a traced call's result: name -> (counter, function).
RESULT_COUNTERS = {
    "linalg.solve_two": ("singular", lambda res: res is None),
    "mmp.critical_epsilons": ("candidates", lambda res: len(res[0])),
    "polyhedra.signature_closure": ("faces", len),
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attrs in TRACED.items()
                      for attr in attrs]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {f"{name}.{counter}": 0
                         for name, (counter, _) in RESULT_COUNTERS.items()}
        self.absent = []
        self.item = -1
        self._stack = []          # [span id, time covered by children]
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._item = array("l")
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        for idx, name in enumerate(self.names):
            mod_name, _, attr = name.partition(".")
            module = importlib.import_module(f"horokit.{mod_name}")
            owner, _, meth = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            orig = getattr(holder, meth or attr, None) if holder else None
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(idx, name, orig)
            if owner:
                self._patch(holder, meth, orig, wrapper)
                continue
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("horokit"):
                    for key, value in list(vars(loaded).items()):
                        if value is orig:
                            self._patch(loaded, key, orig, wrapper)

    def _patch(self, holder, key, orig, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, orig))

    def uninstall(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def _wrap(self, idx, name, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        names, starts, ends = self._name, self._start, self._end
        parents, items = self._parent, self._item
        counter = RESULT_COUNTERS.get(name)
        counter_key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            frame = [sid, 0.0]
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[sid] = end
                dur = end - start
                self_s[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                self.counters[counter_key] += int(counter[1](res))
            return res

        return wrapper

    # -- results ---------------------------------------------------------

    def table(self):
        """{metric: value}: calls and self time of every name, plus the
        result counters."""
        out = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out.update(self.counters)
        return out

    @property
    def span_count(self):
        return len(self._start)

    def write_spans(self, path):
        """One CSV line per span: id, name, start, end, parent, item; times
        in seconds from the first span."""
        t0 = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,item\n")
            for sid in range(len(self._start)):
                fh.write(f"{sid},{self.names[self._name[sid]]},"
                         f"{self._start[sid] - t0:.7f},"
                         f"{self._end[sid] - t0:.7f},"
                         f"{self._parent[sid]},{self._item[sid]}\n")
