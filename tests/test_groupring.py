import inspect
import random

import pytest

from zchain.abelian import free_group, identity_hom, is_isomorphic, mk_group, mk_hom, zero_hom
from zchain.errors import InfiniteGroup, RankCapExceeded
from zchain.groupring import I2_map, I_map, build_I, build_I2
from zchain.intlinalg import IntMatrix, row_lattice

from helpers import Zmod, augmentation_data, random_hom
from oracles import in_row_lattice


def test_build_I_examples():
    i = build_I(Zmod(2))
    assert i.rank == 1
    assert i.nonzero_elements == ((1,),)
    assert i.theta_restricted.matrix == IntMatrix.from_rows([[1]])

    assert build_I(mk_group(0, IntMatrix.zeros(0, 0))).rank == 0

    i3 = build_I(Zmod(3))
    assert i3.rank == 2
    assert i3.theta_restricted.matrix == IntMatrix.from_rows([[1, 2]])


def test_build_I_requires_finite():
    with pytest.raises(InfiniteGroup):
        build_I(free_group(1))
    with pytest.raises(RankCapExceeded):
        build_I(Zmod(9), max_rank=4)


def test_build_I2_examples():
    i2 = build_I2(build_I(Zmod(2)))
    assert i2.rank == 1
    assert i2.inclusion_matrix == IntMatrix.from_rows([[2]])

    assert build_I2(build_I(mk_group(0, IntMatrix.zeros(0, 0)))).rank == 0

    i2 = build_I2(build_I(Zmod(3)))
    assert i2.rank == 2
    # only the lattice is the contract: index 3 inside I(Z/3)
    q = mk_group(2, i2.inclusion_matrix)
    assert q.invariant_factors == (3,)


def test_I_map_examples():
    a = Zmod(3)
    ia = build_I(a)
    assert I_map(identity_hom(a), ia, ia).matrix == IntMatrix.identity(2)

    z2 = Zmod(2)
    iz2 = build_I(z2)
    assert I_map(zero_hom(z2, z2), iz2, iz2).is_zero()

    doubling = mk_hom(a, a, [[2]])
    m = I_map(doubling, ia, ia)
    assert m.matrix == IntMatrix.from_rows([[0, 1], [1, 0]])  # swaps [1]-[0] and [2]-[0]


def test_epsilon_theta_identities():
    for n in [1, 2, 3, 4, 6]:
        a = Zmod(n)
        aug = augmentation_data(a)
        ig = build_I(a)
        # eps vanishes on I(A)
        comp = aug.epsilon.matrix @ aug.differences
        assert comp.is_zero()
        # theta restricted to I agrees with the elementwise difference a - 0
        comp2 = aug.theta.matrix @ aug.differences
        for j in range(ig.rank):
            assert a.canon(comp2.col(j)) == ig.nonzero_elements[j]
        # theta kills I^2
        i2 = build_I2(ig)
        killed = ig.theta_restricted.matrix @ i2.inclusion_matrix
        assert all(a.contains_zero(killed.col(j)) for j in range(i2.rank))


def test_I_map_agrees_with_elementwise_images():
    # column j of I(f) is the basis vector of the nonzero e' with f(e_j) - e'
    # in the relation lattice of the target, or zero when f(e_j) lies in it
    rng = random.Random("I-map-elementwise")
    groups = [Zmod(2), Zmod(4), Zmod(6), mk_group(2, IntMatrix.from_rows([[2, 0], [0, 2]])),
              mk_group(2, IntMatrix.from_rows([[2, 1], [0, 3]]))]
    picked_any = False
    for _ in range(30):
        a, b = rng.choice(groups), rng.choice(groups)
        f = random_hom(rng, a, b)
        ia, ib = build_I(a), build_I(b)
        m = I_map(f, ia, ib).matrix
        rels = b.relations.columns()
        for j, e in enumerate(ia.nonzero_elements):
            col = m.col(j)
            picked = [i for i, x in enumerate(col) if x]
            assert set(col) <= {0, 1} and len(picked) <= 1
            image = f.matrix.mul_vec(e)
            if picked:
                e2 = ib.nonzero_elements[picked[0]]
                assert in_row_lattice([x - y for x, y in zip(image, e2)], rels, b.ngens)
                picked_any = True
            else:
                assert in_row_lattice(image, rels, b.ngens)
    assert picked_any


def test_quotient_recovers_group():
    for rel in [[[4]], [[2, 0], [0, 2]], [[2, 0], [0, 4]]]:
        a = mk_group(len(rel), IntMatrix.from_rows(rel))
        ig = build_I(a)
        i2 = build_I2(ig)
        q = mk_group(ig.rank, i2.inclusion_matrix)
        assert is_isomorphic(q, a)


def test_functoriality_and_naturality():
    rng = random.Random("groupring-functorial")
    groups = [Zmod(2), Zmod(3), Zmod(4), mk_group(2, IntMatrix.from_rows([[2, 0], [0, 2]]))]
    for _ in range(25):
        a, b, c = (rng.choice(groups) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        ia, ib, ic = build_I(a), build_I(b), build_I(c)
        assert I_map(g @ f, ia, ic) == I_map(g, ib, ic) @ I_map(f, ia, ib)
        # zero preservation
        assert I_map(zero_hom(a, b), ia, ib).is_zero()
        # naturality of theta
        lhs = ib.theta_restricted @ I_map(f, ia, ib)
        rhs = f @ ia.theta_restricted
        assert lhs == rhs
        # functoriality at the I^2 level
        i2a, i2b, i2c = build_I2(ia), build_I2(ib), build_I2(ic)
        lhs2 = I2_map(g @ f, i2a, i2c)
        rhs2 = I2_map(g, i2b, i2c) @ I2_map(f, i2a, i2b)
        assert lhs2 == rhs2


def test_i2_lattice_is_theta_kernel():
    rng = random.Random("i2-kernel")
    for n in [2, 3, 4, 6, 8]:
        a = Zmod(n)
        ig = build_I(a)
        i2 = build_I2(ig)
        rows = row_lattice([i2.inclusion_matrix.col(j) for j in range(i2.rank)], ig.rank)
        for _ in range(20):
            v = tuple(rng.randrange(-3, 4) for _ in range(ig.rank))
            in_kernel = a.contains_zero(ig.theta_restricted.matrix.mul_vec(v))
            assert in_kernel == in_row_lattice(v, rows, ig.rank)


def test_functors_take_exactly_what_they_read():
    # the I and I^2 objects are required: no call builds them a second time
    for fn in (build_I2, I_map, I2_map):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params), fn.__name__
