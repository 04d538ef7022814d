"""Pushouts, pullbacks, the pushout product, and properness certificates.

Pushouts are cokernels of the difference map out of the span corner;
pullbacks are degreewise kernels of the difference map into the cospan
corner.  Both carry universal-factorization operations.  The pushout
product of two cofibrations is certified by exhibiting its cokernel as the
tensor of the two cokernels; properness is certified by classifying the
opposite map of the square directly.  The certificates run through
``zchain.certify``.
"""

from __future__ import annotations

from . import certify
from .errors import NotCofibration, PreconditionFailed
from .abelian import GroupHom, factor_through
from .complexes import (
    ChainComplex,
    ChainMap,
    cokernel_complex,
    comparison_degrees,
    dsum_complex,
    identity_chain_map,
    induced_map,
    kernel_complex,
    _tensor,
    _tensor_map,
)
from .intlinalg import hstack, vstack
from .modelcls import MapClassification, classify


class PushoutData:
    """P = (B + C) / (i - f)(A) with its two legs and universal factorization."""

    def __init__(self, complex: ChainComplex, from_first: ChainMap, from_second: ChainMap,
                 span: tuple):
        self.complex = complex
        self.from_first = from_first      # B -> P
        self.from_second = from_second    # C -> P
        self.span = span                  # (i, f)

    def induce(self, u, v):
        """The unique map P -> Q with (P -> Q) o legs = (u, v)."""
        i, f = self.span
        if (u @ i) != (v @ f):
            raise PreconditionFailed("cocone does not commute over the span")
        comps = {n: hstack([u.component(n).matrix, v.component(n).matrix])
                 for n in self.complex.degrees()}
        out = ChainMap(self.complex, u.dst, comps)
        certify.chain_map(out, "PushoutData.induce")
        return out


def pushout(i: ChainMap, f: ChainMap) -> PushoutData:
    """Pushout of B <--i-- A --f--> C."""
    if i.src != f.src:
        raise PreconditionFailed("span legs do not share a source")
    _, incls, _ = dsum_complex([i.dst, f.dst])
    diff = (incls[0] @ i) - (incls[1] @ f)
    p, proj = cokernel_complex(diff)
    return PushoutData(
        complex=p,
        from_first=proj @ incls[0],
        from_second=proj @ incls[1],
        span=(i, f),
    )


class PullbackData:
    """P = {(x, y) : first(x) = second(y)} with projections and induction."""

    def __init__(self, complex: ChainComplex, to_first: ChainMap, to_second: ChainMap,
                 incl: ChainMap, cospan: tuple):
        self.complex = complex
        self.to_first = to_first      # P -> src(first)
        self.to_second = to_second    # P -> src(second)
        self.incl = incl              # P -> src(first) + src(second)
        self.cospan = cospan          # (first, second)

    def induce(self, u, v):
        """The unique map W -> P with legs u, v (first o u = second o v)."""
        first, second = self.cospan
        if (first @ u) != (second @ v):
            raise PreconditionFailed("cone does not commute over the cospan")
        comps = {}
        for n in u.src.degrees():
            pair = GroupHom(u.src.group(n), self.incl.dst.group(n),
                            vstack([u.component(n).matrix, v.component(n).matrix]))
            comps[n] = factor_through(self.incl.component(n), pair).matrix
        out = ChainMap(u.src, self.complex, comps)
        certify.chain_map(out, "PullbackData.induce")
        return out


def pullback(first: ChainMap, second: ChainMap) -> PullbackData:
    """Pullback of src(first) --first--> M <--second-- src(second)."""
    if first.dst != second.dst:
        raise PreconditionFailed("cospan legs do not share a target")
    total, incls, projs = dsum_complex([first.src, second.src])
    diff = (first @ projs[0]) - (second @ projs[1])
    p, incl = kernel_complex(diff)
    return PullbackData(
        complex=p,
        to_first=projs[0] @ incl,
        to_second=projs[1] @ incl,
        incl=incl,
        cospan=(first, second),
    )


class PushoutProductCert:
    """The induced map out of the pushout corner, with its cofibration
    certificate: injectivity plus an isomorphism from its cokernel onto the
    tensor of the two cokernels."""

    def __init__(self, k: ChainMap, m: ChainMap, coker_k: ChainComplex,
                 classification: MapClassification):
        self.k = k                  # P -> B (x) D
        self.m = m                  # coker(k) -> coker(i) (x) coker(j)
        self.coker_k = coker_k
        self.classification = classification


def pushout_product(i: ChainMap, j: ChainMap) -> PushoutProductCert:
    """For cofibrations i: A -> B and j: C -> D, the induced map
    P = (B(x)C) +_{A(x)C} (A(x)D) -> B(x)D, certified to be a cofibration
    (acyclic whenever one input is)."""
    cls_i = classify(i)
    cls_j = classify(j)
    if not cls_i.cofibration or not cls_j.cofibration:
        raise NotCofibration("both inputs must be cofibrations")
    # each tensor complex is built once and shared by the maps into and out of it
    ac = _tensor(i.src, j.src)
    bc = _tensor(i.dst, j.src)
    ad = _tensor(i.src, j.dst)
    bd = _tensor(i.dst, j.dst)
    i_tensor_c = _tensor_map(i, identity_chain_map(j.src), ac, bc)
    a_tensor_j = _tensor_map(identity_chain_map(i.src), j, ac, ad)
    po = pushout(i_tensor_c, a_tensor_j)
    b_tensor_j = _tensor_map(identity_chain_map(i.dst), j, bc, bd)
    i_tensor_d = _tensor_map(i, identity_chain_map(j.dst), ad, bd)
    k = po.induce(b_tensor_j, i_tensor_d)
    u, pu = cokernel_complex(i)
    v, pv = cokernel_complex(j)
    uv_pair = _tensor(u, v)
    uv = uv_pair[0]
    pq = _tensor_map(pu, pv, bd, uv_pair)
    ck, _ = cokernel_complex(k)
    m = ChainMap(ck, uv, {n: pq.component(n).matrix for n in ck.degrees()})
    certify.chain_map(m, "pushout_product")
    certify.classified(k, "cofibration", "pushout_product", "pushout product")
    for n in m.degrees():
        certify.check(m.component(n).is_iso(), "pushout_product",
                      "cokernel comparison is not an isomorphism", n)
    if cls_i.acyclic_cofibration or cls_j.acyclic_cofibration:
        certify.classified(k, "acyclic_cofibration", "pushout_product", "pushout product")
    return PushoutProductCert(k, m, ck, classify(k))


class ProperReport:
    """Certificate that the opposite map of a (co)base-change square of a
    weak equivalence is again a weak equivalence, with the homology ladder
    evidence."""

    def __init__(self, kind: str, opposite: ChainMap, classification: MapClassification,
                 ladder: list):
        self.kind = kind
        self.opposite = opposite
        self.classification = classification
        self.ladder = ladder

    @property
    def certified(self):
        return self.classification.quasi_iso


def _homology_ladder(h, key):
    """Per degree: whether H_n(h) is an isomorphism (under key), and both sides' factors."""
    return [{"degree": n, key: induced_map(h, n).is_iso(),
             "source_factors": list(h.src.homology(n).group.invariant_factors),
             "target_factors": list(h.dst.homology(n).group.invariant_factors)}
            for n in comparison_degrees(h)]


def check_proper(kind: str, one: ChainMap, other: ChainMap) -> ProperReport:
    """kind="pushout": one = cofibration i: A -> B, other = weak equivalence
    f: A -> C; certifies B -> P by its map of cokernels.  kind="pullback":
    one = fibration q: L -> M, other = weak equivalence g: B -> M; certifies
    P -> L by its map of kernels."""
    if kind not in ("pushout", "pullback"):
        raise ValueError(f"unknown square kind: {kind}")
    needed, side = ("cofibration", "cokernel") if kind == "pushout" else ("fibration", "kernel")
    cls_one, cls_other = classify(one), classify(other)
    if not getattr(cls_one, needed):
        raise PreconditionFailed(f"first map must be a {needed}")
    if not cls_other.weak_equivalence:
        raise PreconditionFailed("second map must be a weak equivalence")
    if kind == "pushout":
        po = pushout(one, other)
        opposite = po.from_first
        src, _ = cokernel_complex(one)
        dst, _ = cokernel_complex(po.from_second)
        comps = {n: opposite.component(n).matrix for n in src.degrees()}
    else:
        pb = pullback(one, other)
        opposite = pb.to_first        # P -> L, covering the weak equivalence
        dst, ker_q_incl = kernel_complex(one)
        # the kernel of the pulled-back fibration P -> B maps isomorphically onto ker q
        src, ker_incl = kernel_complex(pb.to_second)
        to_l = opposite @ ker_incl
        comps = {n: factor_through(ker_q_incl.component(n), to_l.component(n)).matrix
                 for n in src.degrees()}
    h = ChainMap(src, dst, comps)
    certify.chain_map(h, "check_proper")
    key = f"{side}_map_iso"
    ladder = _homology_ladder(h, key)
    certify.ladder(ladder, key, "check_proper",
                   f"{side} comparison of the {kind} is not an isomorphism")
    return ProperReport(kind, opposite, classify(opposite), ladder)
