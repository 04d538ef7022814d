"""Small shared fixtures for the test suite, and the constructions that only
tests use, built on the checked entry points mk_hom and mk_chain_map."""

from types import SimpleNamespace

from zchain.abelian import DirectSum, free_group, mk_group, mk_hom, tensor_group, trivial_group
from zchain.complexes import disk, mk_chain_map, mk_complex, sphere  # noqa: F401  (re-exported for tests)
from zchain.intlinalg import IntMatrix, hstack, kron, solve
from zchain.randgen import random_hom  # noqa: F401  (re-exported for tests)


def Zmod(n):
    return mk_group(1, IntMatrix.from_rows([[n]]))


def r2_complex():
    """Z --x2--> Z in degrees 1, 0."""
    Z = free_group(1)
    return mk_complex((0, 1), {0: Z, 1: Z}, {1: IntMatrix.from_rows([[2]])})


def ext1(c, k):
    """Ext^1(c, k) from the invariant factors of c: additive, Z/n contributes k/nk."""
    parts = [mk_group(k.ngens, hstack([k.relations, IntMatrix.identity(k.ngens).scale(n)]))
             for n in c.invariant_factors]
    return DirectSum(parts).group if parts else trivial_group()


def tensor_hom(u, v):
    return mk_hom(tensor_group(u.src, v.src), tensor_group(u.dst, v.dst), kron(u.matrix, v.matrix))


def class_of(h, cycle):
    """Coordinates of the class of a cycle vector in the homology data h."""
    x = solve(h.cycle_lift, IntMatrix.from_cols([cycle]))
    if x is None:
        raise ValueError("vector is not a cycle")
    return h.group.canon(x.col(0))


def augmentation_data(a):
    """Z[A] for a finite group A, with epsilon: Z[A] -> Z, theta: Z[A] -> A
    and the columns [a]-[0] over the nonzero a, in lex order as in build_I."""
    elements = tuple(a.elements())
    n = len(elements)
    za = free_group(n)
    # elements[0] is 0, so [a]-[0] is -1 in row 0 and 1 in the row of a
    differences = [[-1] * (n - 1)] + [[int(i == j) for j in range(n - 1)] for i in range(n - 1)]
    return SimpleNamespace(
        epsilon=mk_hom(za, free_group(1), IntMatrix(1, n, [[1] * n])),
        theta=mk_hom(za, a, IntMatrix.from_cols([list(e) for e in elements], rows=a.ngens)),
        differences=IntMatrix(n, n - 1, differences))


def map_to_disk(a, n, u):
    """Chain map a -> disk(n, m) from a hom u: a_n -> m."""
    return mk_chain_map(a, disk(n, u.dst), {n: u.matrix, n + 1: (u @ a.diff(n + 1)).matrix})


def map_to_sphere(a, n, u):
    """Chain map a -> sphere(n, m) from a hom u on a_n vanishing on boundaries."""
    return mk_chain_map(a, sphere(n, u.dst), {n: u.matrix})


def map_from_sphere(a, n, v_into_cycles, cycles_incl):
    """Chain map sphere(n, m) -> a from a hom m -> cycles composed with the
    inclusion of the cycle subgroup."""
    return mk_chain_map(sphere(n, v_into_cycles.src), a, {n: (cycles_incl @ v_into_cycles).matrix})
