"""Classification of chain maps and structural splitting of free complexes.

A map is a cofibration when injective with degreewise-free cokernel, a
fibration when surjective, a weak equivalence when a quasi-isomorphism; the
acyclic variants combine those.  All six underlying booleans are exact.
Injectivity, surjectivity, freeness and acyclicity are read off the kernel
and cokernel complexes.  Acyclicity builds no homology group: it is read off
the twisted cone of the complex's two-stage free model
(``ChainComplex.is_acyclic``).  Whether f is a quasi-isomorphism comes from
the long exact homology sequence of 0 -> ker f -> A -> B -> coker f -> 0
(Weibel 1994, Thm 1.3.1) when f is injective or surjective: an injective f
is one exactly when its cokernel is acyclic, a surjective f exactly when its
kernel is.  For a map that is neither, it comes from the induced maps on
homology, each an isomorphism exactly when it is a surjection between
isomorphic groups (finitely generated abelian groups are Hopfian,
``GroupHom.is_iso``), so no kernel is built.

For a degreewise-free complex the differential splits as A_n = Y_n + Z_n
with d(y + z) = d'(y), d' injective and Z_n the cycle subgroup; the complex
is acyclic exactly when every d' is an isomorphism, in which case the
splitting assembles an explicit contraction.
"""

from __future__ import annotations

from . import certify
from .errors import NotFree
from .complexes import (
    ChainComplex,
    ChainMap,
    cokernel_complex,
    identity_chain_map,
    is_quasi_iso,
    kernel_complex,
    memoized_on_map,
)
from .intlinalg import (
    IntMatrix,
    column_lattice,
    hstack,
    inverse_unimodular,
    kernel_basis,
    solve,
)


# The five classes of the model structure, in label order, and the
# classification booleans whose conjunction each one is.
CLASSES = {
    "cofibration": ("injective", "coker_degreewise_free"),
    "fibration": ("surjective",),
    "weak_equivalence": ("quasi_iso",),
    "acyclic_cofibration": ("injective", "coker_degreewise_free", "quasi_iso"),
    "acyclic_fibration": ("surjective", "kernel_acyclic"),
}


def _member(name):
    """The property that a classified map lies in the class name."""
    return property(lambda self: all(getattr(self, part) for part in CLASSES[name]))


class MapClassification:
    """The six booleans of classify; immutable, compared and hashed by value."""

    __slots__ = ("injective", "surjective", "coker_degreewise_free", "quasi_iso",
                 "kernel_acyclic", "coker_acyclic")

    def __init__(self, injective: bool, surjective: bool, coker_degreewise_free: bool,
                 quasi_iso: bool, kernel_acyclic: bool, coker_acyclic: bool):
        for name, value in zip(self.__slots__, (injective, surjective, coker_degreewise_free,
                                                quasi_iso, kernel_acyclic, coker_acyclic)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MapClassification is immutable")

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, MapClassification) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)}" for name in self.__slots__)
        return f"MapClassification({fields})"

    cofibration = _member("cofibration")
    fibration = _member("fibration")
    weak_equivalence = _member("weak_equivalence")
    acyclic_cofibration = _member("acyclic_cofibration")
    acyclic_fibration = _member("acyclic_fibration")

    @property
    def labels(self):
        return tuple(name for name in CLASSES if getattr(self, name))

    def as_dict(self):
        return dict(zip(self.__slots__, self._key()), labels=list(self.labels))


@memoized_on_map
def classify(f: ChainMap) -> MapClassification:
    """All six booleans, each computed exactly from normal forms; once per map.

    quasi_iso is coker_acyclic for an injective f and kernel_acyclic for a
    surjective f, by the long exact homology sequence (Weibel 1994, Thm
    1.3.1); for any other f, H_n(f) is tested in every degree.
    """
    kc, _ = kernel_complex(f)
    cc, _ = cokernel_complex(f)
    injective, surjective = kc.is_zero(), cc.is_zero()
    kernel_acyclic, coker_acyclic = kc.is_acyclic(), cc.is_acyclic()
    if injective:
        quasi_iso = coker_acyclic
    elif surjective:
        quasi_iso = kernel_acyclic
    else:
        quasi_iso = is_quasi_iso(f)
    return MapClassification(
        injective=injective,
        surjective=surjective,
        coker_degreewise_free=cc.is_degreewise_free(),
        quasi_iso=quasi_iso,
        kernel_acyclic=kernel_acyclic,
        coker_acyclic=coker_acyclic,
    )


class SplitDegree:
    """Coordinates of one degree of a free splitting, on the ambient
    generators: embeddings of the Y and Z bases and coordinate extractors."""

    def __init__(self, y_amb: IntMatrix, z_amb: IntMatrix, y_coords: IntMatrix,
                 z_coords: IntMatrix):
        self.y_amb = y_amb          # ambient <- Y
        self.z_amb = z_amb          # ambient <- Z
        self.y_coords = y_coords    # Y <- ambient
        self.z_coords = z_coords    # Z <- ambient


class FreeSplitting:
    """A_n = Y_n + Z_n with d(y + z) = d'(y), Z_n = ker(d_n), d' injective."""

    def __init__(self, complex: ChainComplex):
        self.complex = complex
        self.degrees = {}   # n -> SplitDegree

    def y_rank(self, n) -> int:
        d = self.degrees.get(n)
        return d.y_amb.cols if d else 0

    def z_rank(self, n) -> int:
        d = self.degrees.get(n)
        return d.z_amb.cols if d else 0

    def dprime(self, n) -> IntMatrix:
        """d'_n: Y_n -> Z_{n-1} in the two bases, for n with Y_n nonzero.

        d carries Y_n into the cycles, on which z_coords is exact."""
        return self.degrees[n - 1].z_coords @ self.complex.diff(n).matrix @ self.degrees[n].y_amb


def split_free_complex(a: ChainComplex) -> FreeSplitting:
    """Deterministic splitting of a degreewise-free complex.

    Y_n is spanned by the canonical preimages of the HNF basis of the image
    lattice of d_n; Z_n is the canonical kernel basis.  NotFree names the
    lowest degree with torsion.
    """
    split = FreeSplitting(a)
    c_below = IntMatrix.zeros(0, 0)  # free <- ambient coordinates one degree down
    for n in a.degrees():
        g = a.group(n)
        if g.invariant_factors:
            raise NotFree(f"group in degree {n} has torsion")
        B, C = g.free_basis()
        dn = c_below @ a.diff(n).matrix @ B  # d_n in free coordinates
        Y = certify.found(solve(dn, IntMatrix.from_cols(column_lattice(dn), rows=dn.rows)),
                          "split_free_complex", n, "image basis must have preimages")
        Zc = kernel_basis(dn)
        Sinv = inverse_unimodular(hstack([Y, Zc]))
        ky = Y.cols
        split.degrees[n] = SplitDegree(
            y_amb=B @ Y,
            z_amb=B @ Zc,
            y_coords=Sinv.take_rows(range(ky)) @ C,
            z_coords=Sinv.take_rows(range(ky, Sinv.rows)) @ C,
        )
        c_below = C
    return split


class Homotopy:
    """Degree +1 maps r(n): A_n -> K_{n+1}; the identity d r + r d = (stated
    map) is certified by the operation that produced the homotopy."""

    def __init__(self, src: ChainComplex, dst: ChainComplex, components: dict):
        self.src = src
        self.dst = dst
        self.components = components

    def component(self, n) -> IntMatrix:
        m = self.components.get(n)
        if m is None:
            return IntMatrix.zeros(self.dst.group(n + 1).ngens, self.src.group(n).ngens)
        return m


def is_contractible(split: FreeSplitting):
    """The contraction of a = split.complex: a homotopy s with d s + s d = 1, or None.

    The criterion is that every d' is an isomorphism of free groups.  The
    Y_n basis is carried by d onto the HNF basis of the image of d_n, and
    the Z_{n-1} basis is the HNF basis of the cycles, so the injective d'_n
    is an isomorphism exactly when the two lattices, and so the two bases,
    are equal: when d'_n is the identity.  Then s_n sends the cycle with
    coordinates z to the y with d y = z.
    """
    a = split.complex
    for n in a.window(1):
        k = split.y_rank(n)
        if k != split.z_rank(n - 1) or (k and split.dprime(n) != IntMatrix.identity(k)):
            return None
    # above the top degree Y is zero, so the iso check left Z_n zero there
    s = Homotopy(a, a, {n: split.degrees[n + 1].y_amb @ split.degrees[n].z_coords
                        for n in a.degrees()[:-1]})
    certify.homotopy_identity(s, identity_chain_map(a), "is_contractible")
    return s
