"""Randomized end-to-end verification of the model-structure axioms.

Each axiom runs a fixed number of independent cases; case k of an axiom
draws from a generator seeded by (seed, axiom, k), so reports are
reproducible byte for byte.  A failing case stops its axiom and records a
counterexample certificate; the overall status is "pass" only if every case
of every axiom passed.
"""

from __future__ import annotations

from .errors import ZchainError
from .abelian import cokernel as group_cokernel, kernel as group_kernel, preimage
from .complexes import cone, induced_map, is_quasi_iso
from .factor import factor_acf_fib, factor_cof_afb, gamma
from .intlinalg import IntMatrix, inverse_unimodular, kernel_basis, snf, hnf
from .lifting import LiftProblem, rlp_instance, solve_lift
from .modelcls import classify, is_contractible, split_free_complex
from .monoidal_proper import check_proper, pushout, pushout_product
from .randgen import (
    random_acyclic_fibration,
    random_cycle,
    random_element,
    random_finite_chain_map,
    random_finite_complex,
    random_free_cofibration,
    random_free_complex,
    random_lift_square,
    random_map_out,
    random_surjective_non_weq,
    rng_for,
)


def _case_rng(seed, axiom, k):
    return rng_for(f"{seed}/{axiom}", k)


def _check_snf_hnf(rng, max_order, degrees):
    m = rng.randrange(0, 9)
    n = rng.randrange(0, 9)
    mat = IntMatrix(m, n, [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
    res = snf(mat)
    if res.U @ mat @ res.V != res.D:
        return "transform identity failed"
    for u in (res.U, res.V):
        inverse_unimodular(u)  # raises when not unimodular
    diag = [d for d in res.diagonal if d]
    if any(b % a for a, b in zip(diag, diag[1:])) or not res.D.is_diagonal():
        return "divisibility chain failed"
    h, u = hnf(mat)
    if u @ mat != h:
        return "row transform identity failed"
    k = kernel_basis(mat)
    for j in range(k.cols):
        if any(mat.mul_vec(k.col(j))):
            return "kernel vector not annihilated"
    if k.cols != mat.cols - res.rank:
        return "kernel rank mismatch"
    if k.cols and any(d != 1 for d in snf(k).diagonal[: k.cols]):
        return "kernel basis not saturated"
    return None


def _check_factorization(rng, max_order, degrees):
    f = random_finite_chain_map(rng, max_order=max_order,
                                lo=degrees[0], hi=degrees[1])
    fa = factor_acf_fib(f)
    if (fa.right @ fa.left) != f:
        return "first factorization composite failed"
    if not fa.left_classification.acyclic_cofibration or not fa.right_classification.fibration:
        return "first factorization classification failed"
    fc = factor_cof_afb(f)
    if (fc.right @ fc.left) != f:
        return "second factorization composite failed"
    if not fc.left_classification.cofibration or not fc.right_classification.acyclic_fibration:
        return "second factorization classification failed"
    return None


def _check_replacement(rng, max_order, degrees):
    b = random_finite_complex(rng, max_order=max_order, lo=degrees[0], hi=degrees[1])
    g, p = gamma(b)
    if not g.is_degreewise_free():
        return "replacement is not degreewise free"
    cls = classify(p)
    if not cls.surjective:
        return "projection is not surjective"
    for n in set(g.window(1)) | set(b.window(1)):
        if not induced_map(p, n).is_iso():
            return f"homology comparison fails in degree {n}"
    return None


def _check_lifting(rng, max_order, degrees):
    route = 1 + (rng.random() < 0.5)
    i, q, f, g = random_lift_square(rng, route=route, max_order=max_order)
    h = solve_lift(LiftProblem(i=i, q=q, f=f, g=g))
    if (q @ h) != g or (h @ i) != f:
        return "lift does not satisfy the square identities"
    return None


def _check_cofibrant_generation(rng, max_order, degrees):
    q = random_acyclic_fibration(rng, max_order=max_order)
    a, b = q.src, q.dst
    window = sorted(set(a.window(0)) | set(b.window(0)))
    for n in window:
        # surjectivity instances
        bp = random_element(rng, b.group(n + 1))
        if rlp_instance(q, "disk", n, bprime=bp) is None:
            return f"surjectivity instance failed in degree {n}"
        # sphere/disk instances from a boundary pair
        a0 = random_element(rng, a.group(n + 1))
        cyc = a.group(n).canon(a.diff(n + 1).matrix.mul_vec(a0))
        bp2 = b.group(n + 1).canon(q.component(n + 1).matrix.mul_vec(a0))
        z = random_cycle(rng, b, n + 1)
        bp2 = b.group(n + 1).canon(tuple(x + y for x, y in zip(bp2, z)))
        if rlp_instance(q, "sphere", n, a=cyc, bprime=bp2) is None:
            return f"cycle instance failed in degree {n}"
    # a surjection that is not a quasi-isomorphism admits a failing instance
    proj, deg = random_surjective_non_weq(rng, max_order=max_order)
    witness = _failing_instance(proj)
    if witness is None:
        return "no failing instance found for a non-quasi-isomorphism"
    n, cyc, bp = witness
    if rlp_instance(proj, "sphere", n, a=cyc, bprime=bp) is not None:
        return "claimed counterexample instance was solvable"
    return None


def _failing_instance(q):
    """Search homology generators for an instance certifying RLP failure.

    A nonzero class killed by the induced map gives an unsolvable cycle
    instance directly; a class not hit gives one through a chain-level
    preimage of its representative.
    """
    a, b = q.src, q.dst
    for n in sorted(set(a.window(1)) | set(b.window(1))):
        hm = induced_map(q, n)
        ha = a.homology(n)
        hb = b.homology(n)
        ker, incl = group_kernel(hm)
        for j in range(ker.ngens):
            coords = ha.group.canon(incl.matrix.col(j))
            if not any(coords):
                continue
            cyc = ha.lift(coords)
            qc = b.group(n).canon(q.component(n).matrix.mul_vec(cyc))
            bp = preimage(b.diff(n + 1), IntMatrix.from_cols([qc]))
            if bp is not None:
                return n, a.group(n).canon(cyc), bp.col(0)
        ck, proj = group_cokernel(hm)
        for j in range(hb.group.ngens):
            if ck.contains_zero(proj.matrix.col(j)):
                continue
            target = hb.lift(tuple(1 if t == j else 0 for t in range(hb.group.ngens)))
            astar = preimage(q.component(n), IntMatrix.from_cols([b.group(n).canon(target)]))
            if astar is None:
                continue
            cyc = a.group(n - 1).canon(a.diff(n).matrix.mul_vec(astar.col(0)))
            return n - 1, cyc, b.group(n).zero()
    return None


def _check_properness(rng, max_order, degrees):
    if rng.random() < 0.5:
        ps = random_finite_complex(rng, max_order=max_order, lo=degrees[0],
                                   hi=degrees[1], with_pieces=True)
        b = random_finite_complex(rng, max_order=max_order, lo=degrees[0], hi=degrees[1])
        c = random_finite_complex(rng, max_order=max_order, lo=degrees[0], hi=degrees[1])
        i = factor_cof_afb(random_map_out(rng, ps, b)).left
        w = factor_acf_fib(random_map_out(rng, ps, c)).left
        report = check_proper("pushout", i, w)
    else:
        m = random_finite_complex(rng, max_order=max_order, lo=degrees[0], hi=degrees[1])
        ps = random_finite_complex(rng, max_order=max_order, lo=degrees[0],
                                   hi=degrees[1], with_pieces=True)
        q = factor_acf_fib(random_map_out(rng, ps, m)).right
        g, p = gamma(m)
        report = check_proper("pullback", q, p)
    if not report.certified:
        return "opposite map is not a weak equivalence"
    return None


def _check_monoidal(rng, max_order, degrees):
    acyclic = rng.random() < 0.35
    i = random_free_cofibration(rng, acyclic=acyclic, max_rank=1)
    j = random_free_cofibration(rng, max_rank=1)
    cert = pushout_product(i, j)
    if not cert.classification.cofibration:
        return "pushout product is not a cofibration"
    if acyclic and not cert.classification.acyclic_cofibration:
        return "pushout product lost acyclicity"
    for n in set(cert.coker_k.degrees()) | set(cert.m.dst.degrees()):
        if not cert.m.component(n).is_iso():
            return "cokernel comparison is not an isomorphism"
    return None


def _check_oracles(rng, max_order, degrees):
    f = random_finite_chain_map(rng, max_order=max_order, lo=degrees[0], hi=degrees[1])
    qiso = is_quasi_iso(f)
    c, incl = cone(f.src)
    po = pushout(incl, f)
    if qiso != po.complex.is_acyclic():
        return "mapping cone criterion disagrees with induced maps"
    a = random_free_complex(rng, max_rank=2)
    split = split_free_complex(a)
    contraction = is_contractible(a, split)
    if (contraction is not None) != a.is_acyclic():
        return "contractibility disagrees with acyclicity"
    return None


AXIOMS = [
    ("snf_hnf", _check_snf_hnf),
    ("factorization", _check_factorization),
    ("cofibrant_replacement", _check_replacement),
    ("lifting", _check_lifting),
    ("cofibrant_generation", _check_cofibrant_generation),
    ("properness", _check_properness),
    ("monoidal", _check_monoidal),
    ("oracle_crosschecks", _check_oracles),
]

# relative case weights: structural axioms are cheap, certificates are not
_SCALE = {
    "snf_hnf": 4.0,
    "factorization": 1.0,
    "cofibrant_replacement": 1.0,
    "lifting": 0.5,
    "cofibrant_generation": 0.5,
    "properness": 0.5,
    "monoidal": 0.25,
    "oracle_crosschecks": 1.0,
}


def run_verify(seed, cases, max_order=6, degrees=(-2, 2)):
    """Run every axiom; returns the machine-readable report."""
    report = {
        "seed": str(seed),
        "cases": cases,
        "max_order": max_order,
        "degrees": list(degrees),
        "axioms": [],
        "status": "pass",
    }
    for name, fn in AXIOMS:
        n_cases = max(1, int(cases * _SCALE[name]))
        entry = {
            "name": name,
            "cases": n_cases,
            "passed": 0,
            "failed": 0,
            "status": "pass",
            "counterexample": None,
        }
        for k in range(n_cases):
            rng = _case_rng(seed, name, k)
            try:
                failure = fn(rng, max_order, degrees)
            except ZchainError as e:
                failure = f"{type(e).__name__}: {e}"
            if failure is None:
                entry["passed"] += 1
            else:
                entry["failed"] += 1
                entry["status"] = "fail"
                entry["counterexample"] = {"case": k, "detail": failure}
                report["status"] = "fail"
                break
        report["axioms"].append(entry)
    return report
