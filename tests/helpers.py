"""Small shared fixtures for the test suite."""

from zchain.abelian import free_group, mk_group
from zchain.complexes import disk, mk_complex, sphere  # noqa: F401  (re-exported for tests)
from zchain.intlinalg import IntMatrix
from zchain.randgen import random_hom  # noqa: F401  (re-exported for tests)


def Zmod(n):
    return mk_group(1, IntMatrix.from_rows([[n]]))


def r2_complex():
    """Z --x2--> Z in degrees 1, 0."""
    Z = free_group(1)
    return mk_complex((0, 1), {0: Z, 1: Z}, {1: IntMatrix.from_rows([[2]])})
