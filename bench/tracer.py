"""Timing wrappers around the public functions of each ribbonlab module.

`install()` patches the package in the current process: module-level
functions are replaced at every binding site (the defining module and every
module that imported the name with ``from .x import ...``), and methods are
replaced on their class.  Each wrapped call records one span
``(thread, name, start, end, self, lib_depth)``; spans and counters stay in
memory until `Recorder.dump` writes them when the job exits.

Self time is computed per thread: a span's self time is its duration minus
the durations of the wrapped calls it made directly on the same thread and
the time the tracer spent counting their arguments and results.
"""

import importlib
import json
import sys
import threading
import time
import types

# Metric name -> (module, attribute).  "Class.method" attributes are patched
# on the class; plain names are patched wherever the function object is bound.
FUNCTIONS = {
    "exact.rref": ("exact", "RatMatrix.rref"),
    "exact.kernel_basis": ("exact", "RatMatrix.kernel_basis"),
    "exact.det": ("exact", "RatMatrix.det"),
    "exact.row_space_matrix": ("exact", "row_space_matrix"),
    "exact.sparse_rank": ("exact", "sparse_rank"),
    "exact.sparse_kernel_basis": ("exact", "sparse_kernel_basis"),
    "exact.row_eliminator": ("exact", "RowEliminator.add"),
    "poly.monomials": ("poly", "monomials"),
    "poly.wpoly_mul": ("poly", "WPoly.__mul__"),
    "poly.veronese_pullback": ("poly", "veronese_pullback"),
    "rnc.ideal_slice": ("rnc", "ideal_slice"),
    "rnc.contains": ("rnc", "IdealSlice.contains"),
    "rnc.ideal_square_slice": ("rnc", "ideal_square_slice"),
    "conormal.phi_d": ("conormal", "phi_d"),
    "conormal.phi_kernel_slice": ("conormal", "phi_kernel_slice"),
    "conormal.ribbon_slice": ("conormal", "ribbon_slice"),
    "xg.syzygies_by_degree": ("xg", "syzygies_by_degree"),
    "xg.eliminate_v_degree": ("xg", "eliminate_v_degree"),
    "xg.ribbon_ell_space": ("xg", "ribbon_ell_space"),
    "xg.hilbert_function": ("xg", "hilbert_function"),
    "xg.buchberger": ("xg", "buchberger"),
    "fitting.verify_power_ideal": ("fitting", "verify_power_ideal"),
    "fitting.symbolic_minor": ("fitting", "symbolic_minor"),
    "families.perturb_hyperelliptic": ("families", "perturb_hyperelliptic"),
    "families.rescale_v": ("families", "rescale_v"),
    "families.ribbon_order": ("families", "ribbon_order"),
    "families.hyperell_order": ("families", "hyperell_order"),
    "families.discriminant_section": ("families", "discriminant_section"),
    "families.reduction_hilbert_function": ("families", "reduction_hilbert_function"),
}

# Functions whose arguments are small and hashable, so a repeat (same
# arguments as an earlier call in the process) can be counted cheaply.
REPEAT_TRACKED = {"poly.monomials", "rnc.ideal_slice", "xg.ribbon_ell_space"}

# The CLI's command handlers; their self time is the CLI's own work.
CLI_COMMANDS = ("cmd_limit_quadric", "cmd_limit_relation", "cmd_verify",
                "cmd_family_build", "cmd_family_rescale", "cmd_family_order",
                "cmd_family_discriminant")

JSON_SPAN = "cli.json"


def _nnz(rows):
    return sum(1 for row in rows for x in row if x)


def _rref_counts(args, kwargs, result):
    matrix, (reduced, pivots) = args[0], result
    return {"cells": matrix.nrows * matrix.ncols, "nnz_in": _nnz(matrix.rows),
            "nnz_out": _nnz(reduced.rows), "rows": matrix.nrows, "rank": len(pivots)}


def _sparse_counts(rank_of):
    def counts(args, kwargs, result):
        rows, ncols = args
        return {"nnz_in": sum(len(r) for r in rows), "rows": len(rows),
                "rank": rank_of(ncols, result)}
    return counts


# Metric name -> function(args, kwargs, result) returning counters to add.
COUNTERS = {
    "exact.rref": _rref_counts,
    "exact.sparse_rank": _sparse_counts(lambda ncols, rank: rank),
    "exact.sparse_kernel_basis": _sparse_counts(lambda ncols, kernel: ncols - len(kernel)),
    "exact.row_eliminator": lambda args, kwargs, result: {"accepted": int(bool(result))},
    "poly.monomials": lambda args, kwargs, result: {"produced": len(result)},
}


class Recorder:
    """In-memory spans and counters of one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []
        self.counters = {}
        self.seen_args = {}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.import_s = 0.0

    def _stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def wrap(self, name, fn, library=True):
        """Return fn wrapped in a span named `name`."""
        counter = COUNTERS.get(name)
        repeat = name in REPEAT_TRACKED

        def wrapper(*args, **kwargs):
            stack = self._stack()
            lib_depth = sum(1 for frame in stack if frame[1])
            frame = [0.0, library]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.spans.append((threading.get_ident(), name, start, end,
                                   duration - frame[0], lib_depth))
            if counter is not None or repeat:
                hook_start = time.perf_counter()
                added = counter(args, kwargs, result) if counter is not None else {}
                with self.lock:
                    counts = self.counters.setdefault(name, {})
                    for key, value in added.items():
                        counts[key] = counts.get(key, 0) + value
                    if repeat:
                        key = (args, tuple(sorted(kwargs.items())))
                        seen = self.seen_args.setdefault(name, set())
                        if key in seen:
                            counts["repeats"] = counts.get("repeats", 0) + 1
                        seen.add(key)
                # the counting is the tracer's work, not the caller's self time
                if stack:
                    stack[-1][0] += time.perf_counter() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def dump(self, path):
        threads = {}
        spans = []
        for tid, name, start, end, self_s, depth in self.spans:
            spans.append([threads.setdefault(tid, len(threads)), name,
                          start, end, self_s, depth])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job_id, "import_s": self.import_s,
                       "counters": self.counters, "spans": spans}, fh)


class _JsonProxy:
    """Stands in for the `json` module inside ribbonlab.cli, timing each call."""

    def __init__(self, module, recorder):
        self.JSONDecodeError = module.JSONDecodeError
        self.loads = recorder.wrap(JSON_SPAN, module.loads, library=False)
        self.load = recorder.wrap(JSON_SPAN, module.load, library=False)
        self.dumps = recorder.wrap(JSON_SPAN, module.dumps, library=False)


def install(recorder):
    """Patch every ribbonlab module in this process; return the recorder."""
    modules = {name: importlib.import_module("ribbonlab." + name)
               for name in ("exact", "poly", "rnc", "conormal", "xg", "fitting",
                            "families", "cli")}
    wrappers = {}
    for metric, (module_name, attr) in FUNCTIONS.items():
        module = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(metric, cls.__dict__[method]))
        else:
            original = getattr(module, attr)
            wrappers[original] = recorder.wrap(metric, original)
    cli = modules["cli"]
    for name in CLI_COMMANDS:
        original = getattr(cli, name)
        wrappers[original] = recorder.wrap("cli." + name, original, library=False)
    for name, module in list(sys.modules.items()):
        if name == "ribbonlab" or name.startswith("ribbonlab."):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    cli.json = _JsonProxy(json, recorder)
    return recorder
