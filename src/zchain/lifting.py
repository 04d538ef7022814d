"""Constructive solutions to lifting problems.

The two model-structure lifting axioms are implemented as algorithms rather
than existence statements.  The route, for a commutative square

        f
    A -----> L
    |i       |q
    v        v
    B -----> M
        g

with i injective (cokernel C) and q surjective (kernel K), is:

  1. form the pullback Z of (q, g), the comparison (i, f): A -> Z, and the
     quotient T = Z / A, giving a short exact sequence K -> T -> C;
  2. split r: T -> C, either by lifting the identity of C through r (an
     acyclic fibration when K is acyclic and C is degreewise free) or by a
     section over C (when C is contractible and free);
  3. push the splitting through the pullback to obtain the diagonal B -> L.

Single instances against the generating cofibrations 0 -> D^n and
S^n -> D^n over Z are ``rlp_disk`` and ``rlp_sphere``.

Nullhomotopies against acyclic complexes and graded lifts through
surjections are the workhorses.  Every choice is resolved by canonical
normal-form solutions, so the returned lift is deterministic; every homotopy,
section, extension and lift is certified through ``zchain.certify``.
"""

from __future__ import annotations

from . import certify
from .errors import (
    NotAcyclic,
    NotAcyclicFibration,
    NotASplitting,
    NotContractible,
    NotFree,
    NotLiftable,
    NotMonoNotEpi,
    PreconditionFailed,
)
from .abelian import DirectSum, GroupHom, factor_through, lift_free_hom, preimage
from .complexes import (
    ChainComplex,
    ChainMap,
    cokernel_complex,
    identity_chain_map,
    kernel_complex,
    suspend,
    zero_chain_map,
)
from .intlinalg import IntMatrix, vstack
from .modelcls import Homotopy, classify, is_contractible, split_free_complex
from .monoidal_proper import pullback


class LiftProblem:
    """Commutative square q o f = g o i, checked at construction; a failure
    names the least degree where the corners differ or the square does not
    commute."""

    def __init__(self, i: ChainMap, q: ChainMap, f: ChainMap, g: ChainMap):
        self.i = i
        self.q = q
        self.f = f
        self.g = g
        for message, corners in (
                ("top map endpoints do not match the square",
                 ((f.src, i.src), (f.dst, q.src))),
                ("bottom map endpoints do not match the square",
                 ((g.src, i.dst), (g.dst, q.dst)))):
            for a, b in corners:
                n = a.first_difference(b)
                if n is not None:
                    raise PreconditionFailed(message, n)
        bad = (q @ f).first_difference(g @ i)
        if bad is not None:
            raise PreconditionFailed("square does not commute", bad[0])


def nullhomotopy(k: ChainMap) -> Homotopy:
    """r with d r + r d = k, for k: A -> K with A degreewise free, K acyclic.

    Split A = Y + Z.  On Z_n choose t with d t = k (cycles are boundaries in
    an acyclic target); on Y_n choose s with d s(y) = k(y) - t(d'y); then
    r(y + z) = s(y) + t(z).
    """
    a, kc = k.src, k.dst
    split = split_free_complex(a)  # raises NotFree on torsion
    if not kc.is_acyclic():
        raise NotAcyclic("target complex has nonzero homology")

    def bounding(n, cycles):
        """x with d x == cycles in K_n, column by column."""
        x = preimage(kc.diff(n + 1), kc.group(n).canon_cols(cycles))
        if x is None:
            raise NotAcyclic("cycle is not a boundary in the target")
        return x

    # t[n]: K_{n+1} <- Z_n coordinates
    t = {n: bounding(n, k.component(n).matrix @ split.degrees[n].z_amb) for n in a.degrees()}
    comps = {}
    for n in a.degrees():
        sd = split.degrees[n]
        target = k.component(n).matrix @ sd.y_amb
        if sd.y_amb.cols:  # d'_n, and Z_{n-1} below it, exist only where Y_n does
            target = target - t[n - 1] @ split.dprime(n)
        comps[n] = bounding(n, target) @ sd.y_coords + t[n] @ sd.z_coords
    r = Homotopy(a, kc, comps)
    certify.homotopy_identity(r, k, "nullhomotopy")
    return r


def lift_against_acyclic_fibration(g: ChainMap, q: ChainMap) -> ChainMap:
    """Chain map h with q o h = g, for a degreewise-free source and an
    acyclic fibration q.

    Take a graded lift through the surjection, measure its failure to be a
    chain map inside the (suspended) kernel, null-homotope the defect, and
    correct the lift by the homotopy.
    """
    a = g.src
    if g.dst != q.dst:
        raise PreconditionFailed("maps do not share a target")
    for n in a.degrees():
        if a.group(n).invariant_factors:
            raise NotFree(f"source has torsion in degree {n}")
    kc, incl = kernel_complex(q)
    if not cokernel_complex(q)[0].is_zero():
        raise NotAcyclicFibration("map is not surjective")
    if not kc.is_acyclic():
        raise NotAcyclicFibration("kernel is not acyclic")
    hprime = {n: lift_free_hom(q.component(n), g.component(n)).matrix for n in a.degrees()}

    def hp(n):
        m = hprime.get(n)
        if m is None:
            return IntMatrix.zeros(q.src.group(n).ngens, a.group(n).ngens)
        return m

    # the defect d h' - h' d lands in the kernel, one degree down
    sk = suspend(kc, 1)
    defect_comps = {}
    for n in set(a.window(1)):
        defect = q.src.diff(n).matrix @ hp(n) - hp(n - 1) @ a.diff(n).matrix
        defect_hom = GroupHom(a.group(n), q.src.group(n - 1), defect)
        defect_comps[n] = factor_through(incl.component(n - 1), defect_hom).matrix
    kdef = ChainMap(a, sk, defect_comps)
    certify.chain_map(kdef, "lift_against_acyclic_fibration")
    r = nullhomotopy(kdef)
    comps = {}
    for n in a.degrees():
        # r lands in (suspended kernel)_{n+1} = K_n; push into the total space
        comps[n] = hp(n) + incl.component(n).matrix @ r.component(n)
    h = ChainMap(a, q.src, comps)
    certify.chain_map(h, "lift_against_acyclic_fibration")
    certify.equal_maps(q @ h, g, "lift_against_acyclic_fibration",
                       "constructed lift does not cover the map")
    return h


def split_ses(p: ChainMap) -> ChainMap:
    """Section of a surjection with acyclic kernel onto a degreewise-free
    target, by lifting the identity."""
    return lift_against_acyclic_fibration(identity_chain_map(p.dst), p)


def section_over_contractible(r: ChainMap) -> ChainMap:
    """Section of any surjection onto a contractible degreewise-free complex.

    Split C = Y + dY and let sigma lift the Y part through r, zero on Z;
    with the contraction h, s = sigma + d sigma h extends it by
    s(dy) = d s(y), since h carries dy to y.
    """
    c = r.dst
    split = split_free_complex(c)  # NotFree on torsion
    h = is_contractible(split)
    if h is None:
        raise NotContractible("target complex is not contractible")
    if not cokernel_complex(r)[0].is_zero():
        raise PreconditionFailed("map is not surjective")
    sigma = {}
    for n in c.degrees():
        sd = split.degrees[n]
        target = c.group(n).canon_cols(sd.y_amb)
        sigma[n] = certify.found(preimage(r.component(n), target), "section_over_contractible",
                                 n, "surjection must hit the free basis") @ sd.y_coords
    comps = {}
    for n in c.degrees():
        comps[n] = sigma[n]
        if n + 1 in sigma:  # above the support h, and with it d sigma h, is zero
            comps[n] = sigma[n] + r.src.diff(n + 1).matrix @ sigma[n + 1] @ h.component(n)
    s = ChainMap(c, r.src, comps)
    certify.chain_map(s, "section_over_contractible")
    certify.equal_maps(r @ s, identity_chain_map(c), "section_over_contractible",
                       "section identity failed")
    return s


class Extension:
    """The short exact sequence K -> T -> C attached to a lifting square,
    with the pullback witnesses used to convert splittings into lifts."""

    def __init__(self, K: ChainComplex, T: ChainComplex, C: ChainComplex, k: ChainMap,
                 r: ChainMap, Z: ChainComplex, gtilde: ChainMap, qtilde: ChainMap,
                 ptilde: ChainMap, pC: ChainMap, problem: LiftProblem):
        self.K = K
        self.T = T
        self.C = C
        self.k = k              # K -> T
        self.r = r              # T -> C
        self.Z = Z              # pullback of (q, g)
        self.gtilde = gtilde    # Z -> L
        self.qtilde = qtilde    # Z -> B
        self.ptilde = ptilde    # Z -> T
        self.pC = pC            # B -> C (cokernel projection of i)
        self.problem = problem


def build_T(problem: LiftProblem) -> Extension:
    """The extension K -> T -> C of a lifting square, fully witnessed and
    checked for exactness."""
    i, q, f, g = problem.i, problem.q, problem.f, problem.g
    if not kernel_complex(i)[0].is_zero() or not cokernel_complex(q)[0].is_zero():
        raise NotMonoNotEpi("square sides are not (mono, epi)")
    c, p_c = cokernel_complex(i)
    kq, j_k = kernel_complex(q)
    pb = pullback(q, g)               # legs: to_first -> L, to_second -> B
    itilde = pb.induce(f, i)
    t, p_t = cokernel_complex(itilde)
    k_map = p_t @ pb.induce(j_k, zero_chain_map(kq, i.dst))
    to_c = p_c @ pb.to_second
    r_map = ChainMap(t, c, {n: to_c.component(n).matrix for n in t.degrees()})
    certify.chain_map(r_map, "build_T")
    ext = Extension(
        K=kq, T=t, C=c, k=k_map, r=r_map,
        Z=pb.complex, gtilde=pb.to_first, qtilde=pb.to_second,
        ptilde=p_t, pC=p_c,
        problem=problem,
    )
    certify.extension(ext)
    return ext


def lift_from_splitting(ext: Extension, n_map: ChainMap) -> ChainMap:
    """Turn a splitting of K -> T -> C into a diagonal of the original
    square: lift (n o pC, id_B) through the pullback, project to L."""
    if (ext.r @ n_map) != identity_chain_map(ext.C):
        raise NotASplitting("map does not split the extension")
    problem = ext.problem
    b = problem.i.dst
    ntilde_comps = {}
    for deg in b.degrees():
        # (qtilde, ptilde): Z -> B + T
        pair = GroupHom(ext.Z.group(deg), DirectSum([b.group(deg), ext.T.group(deg)]).group,
                        vstack([ext.qtilde.component(deg).matrix,
                                ext.ptilde.component(deg).matrix]))
        target_t = n_map.component(deg).matrix @ ext.pC.component(deg).matrix
        # column j: an element of Z over the generator e_j of B and over n(pC(e_j)) in T
        rhs = vstack([IntMatrix.identity(b.group(deg).ngens), target_t])
        ntilde_comps[deg] = certify.found(preimage(pair, rhs), "lift_from_splitting", deg,
                                          "pullback lift must exist for a splitting")
    ntilde = ChainMap(b, ext.Z, ntilde_comps)
    certify.chain_map(ntilde, "lift_from_splitting")
    h = ext.gtilde @ ntilde
    for got, expected in ((problem.q @ h, problem.g), (h @ problem.i, problem.f)):
        certify.equal_maps(got, expected, "lift_from_splitting",
                           "reconstructed lift fails a square identity")
    return h


def solve_lift(problem: LiftProblem) -> ChainMap:
    """Dispatch on the two liftable configurations; no search outside them."""
    cls_i = classify(problem.i)
    cls_q = classify(problem.q)
    if cls_i.cofibration and cls_q.acyclic_fibration:
        section = split_ses
    elif cls_i.acyclic_cofibration and cls_q.fibration:
        section = section_over_contractible
    else:
        raise NotLiftable("square is not in a supported configuration")
    ext = build_T(problem)
    return lift_from_splitting(ext, section(ext.r))


def rlp_disk(q: ChainMap, n: int, bprime):
    """Lifting against the generating cofibration 0 -> D^n: given b' in
    B_{n+1}, return x in A_{n+1} with q(x) = b', or None if there is none."""
    bprime = q.dst.group(n + 1).canon(tuple(bprime))
    x = preimage(q.component(n + 1), IntMatrix.from_cols([bprime]))
    return None if x is None else x.col(0)


def rlp_sphere(q: ChainMap, n: int, a, bprime):
    """Lifting against the generating cofibration S^n -> D^n: given a cycle
    a in A_n and b' in B_{n+1} with d b' = q(a), one integer linear system
    gives x in A_{n+1} with d x = a and q(x) = b', or None if there is none."""
    src, dst = q.src, q.dst
    bprime = dst.group(n + 1).canon(tuple(bprime))
    a = src.group(n).canon(tuple(a))
    if not src.group(n - 1).contains_zero(src.diff(n).matrix.mul_vec(a)):
        raise PreconditionFailed("given element is not a cycle")
    d_bprime = dst.group(n).canon(dst.diff(n + 1).matrix.mul_vec(bprime))
    q_a = dst.group(n).canon(q.component(n).matrix.mul_vec(a))
    if d_bprime != q_a:
        raise PreconditionFailed("square does not commute: d b' differs from q a")
    # (d, q): A_{n+1} -> A_n + B_{n+1}
    pair = GroupHom(src.group(n + 1), DirectSum([src.group(n), dst.group(n + 1)]).group,
                    vstack([src.diff(n + 1).matrix, q.component(n + 1).matrix]))
    x = preimage(pair, IntMatrix.from_cols([a + bprime]))
    return None if x is None else x.col(0)
