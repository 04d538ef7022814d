"""The benchmark workloads.

Each workload builds its inputs one block at a time from the seed, runs one
case per call to ``run`` (the timed part), checks the result with tests that
hold for any seed, and gives canonical JSON for the input and output digests.
The program only ever sees the generated inputs.

* construct: the four certified constructions, interleaved, at the sizes of
  the acceptance suite.  Many small matrices; the normal-form caches warm
  across the cases of a block as in a library session, and certification
  (``classify``) dominates.
* cli: one fresh ``zchain`` process per command on generated documents, as a
  README user runs it.  Every case pays interpreter start, import, document
  validation and cold caches.
"""

from __future__ import annotations

import bisect
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from zchain import (abelian, complexes, documents, factor, intlinalg, lifting,
                    monoidal_proper, randgen)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Handles taken before any tracing wrapper replaces the module attributes.
CACHES = (intlinalg.hnf, intlinalg.snf, intlinalg.kernel_basis, abelian.free_group)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


class Case:
    __slots__ = ("index", "kind", "inputs")

    def __init__(self, index, kind, inputs):
        self.index = index
        self.kind = kind
        self.inputs = inputs


# --------------------------------------------------------------------------
# construct


def _proper_pushout(rng):
    ps = randgen.random_finite_complex(rng, with_pieces=True)
    b = randgen.random_finite_complex(rng)
    c = randgen.random_finite_complex(rng)
    i = factor.factor_cof_afb(randgen.random_map_out(rng, ps, b)).left
    w = factor.factor_acf_fib(randgen.random_map_out(rng, ps, c)).left
    return i, w


def _proper_pullback(rng):
    m = randgen.random_finite_complex(rng)
    ps = randgen.random_finite_complex(rng, with_pieces=True)
    q = factor.factor_acf_fib(randgen.random_map_out(rng, ps, m)).right
    _, p = factor.gamma(m)
    return q, p


def _maps_doc(maps):
    return [documents.map_to_doc(f) for f in maps]


def _input_size(maps):
    """Generators summed over every complex of the input maps; the log of a
    case's time grows nearly linearly with it (correlation 0.8 to 0.96)."""
    return sum(c.group(n).ngens for f in maps for c in (f.src, f.dst) for n in c.degrees())


class Construct:
    """Factorization pairs, lifting squares on both routes, properness squares
    of both kinds, and plain and acyclic pushout products, in rotation.

    Case times are heavy-tailed in the input size, so i.i.d. draws make the
    totals of a run swing with the seed.  Each block instead holds, for every
    kind, one case from each input-size quintile of that kind's generator:
    candidates are drawn in order and kept for the first block whose stratum
    is still open, so every seed gets the same size mix.  Candidates at or
    above a cap near the 97.5th size percentile are dropped: one of them takes
    as long as a block of the others, and a run holds too few to average."""

    name = "construct"
    tail_pct = 75
    min_cases = 100
    KINDS = ("factorization", "lift_route1", "lift_route2", "proper_pushout",
             "proper_pullback", "pushout_product", "pushout_product_acyclic")
    # Quintile bounds, then the cap, of _input_size over 300 draws of each
    # kind's generator.
    SIZE_BOUNDS = {
        "factorization": (3, 5, 7, 9, 13),
        "lift_route1": (43, 69, 105, 163, 265),
        "lift_route2": (35, 57, 79, 113, 203),
        "proper_pushout": (51, 67, 81, 103, 151),
        "proper_pullback": (29, 45, 61, 83, 169),
        "pushout_product": (19, 24, 28, 32, 45),
        "pushout_product_acyclic": (22, 27, 31, 35, 46),
    }
    MAX_DRAWS = 1000

    def __init__(self, seed, workdir):
        self.seed = seed
        self.drawn = {kind: 0 for kind in self.KINDS}
        self.spare = {kind: [[] for _ in range(5)] for kind in self.KINDS}

    def draw(self, kind):
        """The kind's next candidate below the size cap, with its size."""
        cap = self.SIZE_BOUNDS[kind][-1]
        while self.drawn[kind] < self.MAX_DRAWS:
            k = self.drawn[kind]
            self.drawn[kind] += 1
            inputs = self._generate(kind, randgen.rng_for(self.seed, f"construct-{kind}-{k}"), k)
            size = _input_size(inputs)
            if size < cap:
                return inputs, size
        raise RuntimeError(f"{kind}: no usable input in {self.MAX_DRAWS} draws")

    def draw_spare(self, kind):
        """Draw the kind's next candidate into the spares of its stratum."""
        inputs, size = self.draw(kind)
        self.spare[kind][bisect.bisect_right(self.SIZE_BOUNDS[kind][:-1], size)].append(inputs)

    def stratum_case(self, kind, stratum):
        """The next unused candidate of the kind whose input size lies in the stratum."""
        spare = self.spare[kind]
        while not spare[stratum]:
            self.draw_spare(kind)
        return spare[stratum].pop(0)

    def round_case(self, kind, used):
        """The next unused candidate of the kind from a stratum not in ``used``,
        which it adds to; ``used`` starts over once it holds all five.  Unlike
        a fixed stratum order, the first case needs only the first draw."""
        if len(used) == 5:
            used.clear()
        while True:
            for stratum, spare in enumerate(self.spare[kind]):
                if spare and stratum not in used:
                    used.add(stratum)
                    return spare.pop(0)
            self.draw_spare(kind)

    def block(self, b):
        first = b * 5 * len(self.KINDS)
        cases = []
        for stratum in range(5):
            for kind in self.KINDS:
                cases.append(Case(first + len(cases), kind, self.stratum_case(kind, stratum)))
        clear_caches()
        return cases

    @staticmethod
    def _generate(kind, rng, k):
        if kind == "factorization":
            max_order = 16 if k % 10 == 0 else 8
            return (randgen.random_finite_chain_map(rng, max_order=max_order, lo=-3, hi=4),)
        if kind == "lift_route1":
            return randgen.random_lift_square(rng, route=1)
        if kind == "lift_route2":
            return randgen.random_lift_square(rng, route=2)
        if kind == "proper_pushout":
            return _proper_pushout(rng)
        if kind == "proper_pullback":
            return _proper_pullback(rng)
        if kind == "pushout_product":
            return (randgen.random_free_cofibration(rng, max_rank=3),
                    randgen.random_free_cofibration(rng, max_rank=3))
        return (randgen.random_free_cofibration(rng, acyclic=True, max_rank=3),
                randgen.random_free_cofibration(rng, max_rank=3))

    @staticmethod
    def finish():
        """The peak RSS of this process, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @staticmethod
    def run(case):
        kind, x = case.kind, case.inputs
        if kind == "factorization":
            return factor.factor_acf_fib(x[0]), factor.factor_cof_afb(x[0])
        if kind.startswith("lift"):
            i, q, f, g = x
            return lifting.solve_lift(lifting.LiftProblem(i=i, q=q, f=f, g=g))
        if kind == "proper_pushout":
            return monoidal_proper.check_proper("pushout", *x)
        if kind == "proper_pullback":
            return monoidal_proper.check_proper("pullback", *x)
        return monoidal_proper.pushout_product(*x)

    @staticmethod
    def check(case, out):
        kind, x = case.kind, case.inputs
        if kind == "factorization":
            fa, fc = out
            if fa.right @ fa.left != x[0] or fc.right @ fc.left != x[0]:
                return "a factorization does not compose to f"
            if not (fa.left_classification.acyclic_cofibration
                    and fa.right_classification.fibration):
                return "acf-fib factors are not classified (acyclic cofibration, fibration)"
            if not (fc.left_classification.cofibration
                    and fc.right_classification.acyclic_fibration):
                return "cof-afb factors are not classified (cofibration, acyclic fibration)"
            return None
        if kind.startswith("lift"):
            i, q, f, g = x
            if q @ out != g:
                return "q o h != g"
            if out @ i != f:
                return "h o i != f"
            return None
        if kind.startswith("proper"):
            return None if out.certified else "properness square not certified"
        if kind == "pushout_product":
            return None if out.classification.cofibration else "pushout product is not a cofibration"
        if not out.classification.acyclic_cofibration:
            return "pushout product is not an acyclic cofibration"
        return None

    @staticmethod
    def canonical_input(case):
        return {"kind": case.kind, "maps": _maps_doc(case.inputs)}

    @staticmethod
    def canonical_output(case, out):
        kind = case.kind
        if kind == "factorization":
            return [{"middle": documents.complex_to_doc(fact.middle),
                     "maps": _maps_doc((fact.left, fact.right)),
                     "classes": [fact.left_classification.as_dict(),
                                 fact.right_classification.as_dict()]} for fact in out]
        if kind.startswith("lift"):
            return documents.map_to_doc(out)
        if kind.startswith("proper"):
            return {"certified": out.certified, "ladder": out.ladder,
                    "opposite": documents.map_to_doc(out.opposite),
                    "class": out.classification.as_dict()}
        return {"k": documents.map_to_doc(out.k), "class": out.classification.as_dict(),
                "coker": documents.complex_to_doc(out.coker_k)}


# --------------------------------------------------------------------------
# cli


class Cli:
    """Every zchain subcommand once per block, each in a fresh process.

    The lifting, pushout-product and properness documents come from the
    construct generators, each kind taking its five input-size quintiles in
    turn over every five of its cases: these commands are the slow part of a
    block, so i.i.d. draws would make case_tail_s swing with the seed.  ``verify`` gets a seed per block, so
    that no single input sets a run's figures."""

    name = "cli"
    tail_pct = 75
    min_cases = 40

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.launcher = None      # set to a trace-writing launcher for traced runs
        self.maps = Construct(f"{seed}-cli", workdir)
        self.used_strata = collections.defaultdict(set)
        self.block_peaks = {}
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def block(self, b):
        d = self.workdir / f"docs-{b}"
        d.mkdir(parents=True, exist_ok=True)

        def rng(label):
            return randgen.rng_for(self.seed, f"cli-{b}-{label}")

        def doc(label, value):
            path = d / f"{label}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
            return str(path)

        c = documents.complex_to_doc
        m = documents.map_to_doc
        r = rng("snf")
        matrix = [[str(r.randint(-9, 9)) for _ in range(12)] for _ in range(12)]
        def heavy(kind):
            return self.maps.round_case(kind, self.used_strata[kind])

        square = heavy(f"lift_route{1 + b % 2}")
        po_i, po_w = heavy("proper_pushout")
        pb_q, pb_p = heavy("proper_pullback")
        pp_i, pp_j = heavy("pushout_product")
        commands = [
            ("snf", ["snf", doc("matrix", {"matrix": matrix})]),
            ("homology", ["homology", doc("homology", c(randgen.random_finite_complex(rng("homology"))))]),
            ("classify", ["classify", doc("classify", m(randgen.random_finite_chain_map(
                rng("classify"), lo=-3, hi=4)))]),
            ("factorize-cof-acf", ["factorize", "--mode", "cof-acf", doc("factorize-cof", m(
                randgen.random_finite_chain_map(rng("factorize-cof"), lo=-3, hi=4)))]),
            ("factorize-acf-fib", ["factorize", "--mode", "acf-fib", doc("factorize-fib", m(
                randgen.random_finite_chain_map(rng("factorize-fib"), lo=-3, hi=4)))]),
            ("resolve", ["resolve", doc("resolve", c(randgen.random_finite_complex(rng("resolve"))))]),
            ("lift", ["lift", doc("lift", dict(zip("iqfg", map(m, square))))]),
            ("tensor", ["tensor",
                        doc("tensor-a", c(randgen.random_finite_complex(rng("tensor-a"), max_pieces=2))),
                        doc("tensor-b", c(randgen.random_finite_complex(rng("tensor-b"), max_pieces=2)))]),
            ("pushout-product", ["pushout-product", doc("pp-i", m(pp_i)), doc("pp-j", m(pp_j))]),
            ("proper-check-pushout", ["proper-check", "--kind", "pushout",
                                      doc("po-i", m(po_i)), doc("po-w", m(po_w))]),
            ("proper-check-pullback", ["proper-check", "--kind", "pullback",
                                       doc("pb-q", m(pb_q)), doc("pb-p", m(pb_p))]),
            ("verify", ["verify", "--seed", f"{self.seed}-{b}"]),
        ]
        self.block_size = len(commands)
        return [Case(b * len(commands) + pos, label, argv)
                for pos, (label, argv) in enumerate(commands)]

    def run(self, case):
        if self.launcher is None:
            cmd = [sys.executable, "-m", "zchain.cli", *case.inputs]
        else:
            cmd = self.launcher(case)
        request = {"cmd": cmd, "cwd": str(ROOT), "env": self.env, "timeout": 120}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        block = case.index // self.block_size
        self.block_peaks[block] = max(self.block_peaks.get(block, 0), reply["maxrss_kb"])
        return reply["code"], reply["stdout"]

    def finish(self):
        """Stop the spawner.  Returns, in KiB, the median over blocks of the
        largest peak RSS of a command in the block: the largest of a whole run
        is nearly always one verify seed's and swings with it."""
        self.spawner.stdin.close()
        self.spawner.wait()
        return statistics.median(self.block_peaks.values()) if self.block_peaks else 0

    @staticmethod
    def check(case, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}: {stdout[:200]!r}"
        try:
            json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        return None

    @staticmethod
    def canonical_input(case):
        docs = {}
        for arg in case.inputs:
            if arg.endswith(".json"):
                with open(arg, encoding="utf-8") as fh:
                    docs[Path(arg).name] = json.load(fh)
        return {"command": case.kind, "docs": docs,
                "flags": [a for a in case.inputs if not a.endswith(".json")]}

    @staticmethod
    def canonical_output(case, out):
        code, stdout = out
        try:
            payload = json.loads(stdout)
        except ValueError:
            return {"exit": code, "raw": stdout}
        if case.kind == "snf":
            # U and V are not canonical; D and the rank are.
            payload.pop("u", None)
            payload.pop("v", None)
        return {"exit": code, "stdout": payload}


WORKLOADS = {w.name: w for w in (Construct, Cli)}
