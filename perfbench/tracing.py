"""Per-layer spans recorded from outside the program.

A Tracer replaces each listed public function with a wrapper in every loaded
``zchain`` namespace that bound it (modules import with ``from .intlinalg
import snf``, so patching the defining module alone would miss most calls).
While ``enabled`` is set, each call records a span (name, start, end, parent,
case id) in memory; ``write_spans`` saves them when the run ends.  A
wrapper hides ``cache_clear`` and ``cache_info`` of the lru_cache objects, so
callers keep their own handles to the originals, taken before ``install``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# module -> public functions whose calls become spans.  Names are reported as
# "<module>.<function>", the per-layer metric prefix in BENCHMARK.json.
LAYERS = {
    "intlinalg": ("hnf", "snf", "kernel_basis", "solve", "inverse_unimodular"),
    "abelian": ("mk_group", "mk_hom", "kernel", "cokernel", "preimage", "tensor_group"),
    "complexes": ("homology", "induced_map", "kernel_complex", "cokernel_complex", "tensor"),
    "modelcls": ("classify", "split_free_complex"),
    "groupring": ("build_I", "build_I2"),
    "factor": ("factor_acf_fib", "factor_cof_afb", "gamma"),
    "lifting": ("solve_lift", "build_T", "nullhomotopy", "lift_against_acyclic_fibration"),
    "monoidal_proper": ("pushout", "pullback", "pushout_product", "check_proper"),
    "documents": ("doc_to_map", "doc_to_complex", "map_to_doc", "complex_to_doc"),
    "cli": ("main",),
}
CACHED = ("hnf", "snf", "kernel_basis")


def _max_bits(result):
    """Largest entry bit length over the matrices in an intlinalg result."""
    if hasattr(result, "data"):
        mats = (result,)
    elif hasattr(result, "U"):
        mats = (result.D, result.U, result.V)
    else:
        mats = result
    best = 0
    for m in mats:
        for row in m.data:
            if row:
                best = max(best, max(row).bit_length(), min(row).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.enabled = False
        self.case = -1
        self.names = []
        # One entry per span, column-wise to keep large runs small in memory.
        self.spans = {"name": array("i"), "start": array("d"), "end": array("d"),
                      "parent": array("i"), "case": array("i")}
        self.stack = []
        self.cache_calls = {name: [0, 0] for name in CACHED}
        self.constructions = 0
        self.max_bits = 0
        self._restore = []

    def install(self):
        """Wrap every listed function in all loaded zchain namespaces."""
        import zchain.cli  # noqa: F401  (load every module before patching)
        import zchain.documents  # noqa: F401
        from zchain import complexes, intlinalg

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zchain" or name.startswith("zchain."))]
        for mod_name, fns in LAYERS.items():
            mod = sys.modules[f"zchain.{mod_name}"]
            for fn_name in fns:
                label = f"{mod_name}.{fn_name}"
                if label == "complexes.homology":
                    # The module function only delegates to this method, and
                    # every internal caller uses the method.
                    self._patch(complexes.ChainComplex, "homology",
                                self._wrap(label, complexes.ChainComplex.homology))
                    continue
                original = getattr(mod, fn_name)
                wrapper = self._wrap(label, original)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)

        init = intlinalg.IntMatrix.__init__
        tracer = self

        def counting_init(matrix, *args, **kwargs):
            if tracer.enabled:
                tracer.constructions += 1
            init(matrix, *args, **kwargs)

        self._patch(intlinalg.IntMatrix, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, label, fn):
        idx = len(self.names)
        self.names.append(label)
        stack, clock, tracer = self.stack, time.perf_counter, self
        names, starts, ends = self.spans["name"], self.spans["start"], self.spans["end"]
        parents, cases = self.spans["parent"], self.spans["case"]
        cache = self.cache_calls.get(label.split(".")[-1]) if label.startswith("intlinalg.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            cases.append(tracer.case)
            ends.append(0.0)
            stack.append(i)
            misses = fn.cache_info().misses if cache is not None else 0
            starts.append(clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if cache is not None:
                if fn.cache_info().misses != misses:
                    cache[1] += 1
                    tracer.max_bits = max(tracer.max_bits, _max_bits(return_value))
                else:
                    cache[0] += 1
            return return_value

        return wrapper

    def raw(self):
        """Per-name [calls, total_s, self_s] plus counters, mergeable across processes."""
        sp = self.spans
        durations = [t1 - t0 for t0, t1 in zip(sp["start"], sp["end"])]
        child = [0.0] * len(durations)
        for parent, d in zip(sp["parent"], durations):
            if parent >= 0:
                child[parent] += d
        per_name = {label: [0, 0.0, 0.0] for label in self.names}
        for idx, d, c in zip(sp["name"], durations, child):
            entry = per_name[self.names[idx]]
            entry[0] += 1
            entry[1] += d
            entry[2] += d - c
        return {
            "functions": per_name,
            "cache_calls": self.cache_calls,
            "constructions": self.constructions,
            "max_bits": self.max_bits,
        }

    def span_columns(self):
        """Spans as JSON-ready columns; "name" indexes "names", "parent" indexes
        the span list (-1 for a top-level span)."""
        return {"names": self.names, **{k: v.tolist() for k, v in self.spans.items()}}


def write_spans(path, columns):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(columns, fh, separators=(",", ":"))


def merge(raws):
    """Sum the raw counters of several traced processes."""
    out = {"functions": {}, "cache_calls": {name: [0, 0] for name in CACHED},
           "constructions": 0, "max_bits": 0}
    for raw in raws:
        for label, (calls, total, self_s) in raw["functions"].items():
            entry = out["functions"].setdefault(label, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, (hits, misses) in raw["cache_calls"].items():
            out["cache_calls"][name][0] += hits
            out["cache_calls"][name][1] += misses
        out["constructions"] += raw["constructions"]
        out["max_bits"] = max(out["max_bits"], raw["max_bits"])
    return out


def layer_metrics(raw):
    """The per-layer metrics of BENCHMARK.json that come from spans and counters."""
    metrics = {}
    for mod_name, fns in LAYERS.items():
        for fn_name in fns:
            label = f"{mod_name}.{fn_name}"
            calls, total, self_s = raw["functions"].get(label, (0, 0.0, 0.0))
            metrics[f"{label}.calls"] = (calls, "count")
            metrics[f"{label}.self_s"] = (self_s, "s")
            metrics[f"{label}.total_s"] = (total, "s")
    for name, (hits, misses) in raw["cache_calls"].items():
        metrics[f"intlinalg.{name}.hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0,
                                                 "ratio")
    metrics["intlinalg.IntMatrix.constructions"] = (raw["constructions"], "count")
    metrics["intlinalg.max_bits"] = (raw["max_bits"], "bits")
    return metrics
