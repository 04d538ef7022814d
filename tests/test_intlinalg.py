import hashlib
import random

from zchain.intlinalg import (
    IntMatrix,
    hnf,
    inverse_unimodular,
    kernel_basis,
    reduce_cols_mod_rows,
    row_lattice,
    snf,
    solve,
)

from oracles import det_bareiss, in_row_lattice, matmul_naive, rank_rational, solve_rational


def rand_matrix(rng, max_dim=8, lo=-9, hi=9):
    m = rng.randrange(0, max_dim + 1)
    n = rng.randrange(0, max_dim + 1)
    return IntMatrix(m, n, [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)])


def check_hnf_contract(M):
    H, U = hnf(M)
    assert U @ M == H
    assert abs(det_bareiss(U.data)) == 1
    # echelon shape with positive pivots, reduced above
    last_pivot = -1
    for i in range(H.rows):
        row = H.data[i]
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            assert all(not any(H.data[k]) for k in range(i, H.rows))
            break
        p = nz[0]
        assert p > last_pivot
        assert row[p] > 0
        for k in range(i):
            assert 0 <= H.data[k][p] < row[p]
        last_pivot = p
    # row lattices agree
    for r in M.data:
        assert in_row_lattice(r, [list(x) for x in H.data], M.cols)
    for r in H.data:
        assert in_row_lattice(r, [list(x) for x in M.data], M.cols)


def check_snf_contract(M):
    res = snf(M)
    assert res.U @ M @ res.V == res.D
    assert abs(det_bareiss(res.U.data)) == 1
    assert abs(det_bareiss(res.V.data)) == 1
    assert res.D.is_diagonal()
    diag = res.diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert len(nonzero) == res.rank
    assert all(diag[i] != 0 for i in range(res.rank))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert res.rank == rank_rational(M.data, M.cols)


def test_hnf_examples():
    H, U = hnf(IntMatrix.from_rows([[1, 2], [3, 4]]))
    assert H == IntMatrix.from_rows([[1, 0], [0, 2]])
    assert U @ IntMatrix.from_rows([[1, 2], [3, 4]]) == H

    I3 = IntMatrix.identity(3)
    H, U = hnf(I3)
    assert H == I3 and U == I3

    Z = IntMatrix.from_rows([[0, 0]])
    H, U = hnf(Z)
    assert H == Z


def test_snf_examples():
    res = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert res.diagonal == (1, 6)

    res = snf(IntMatrix.zeros(2, 2))
    assert res.D == IntMatrix.zeros(2, 2)
    assert res.U == IntMatrix.identity(2)
    assert res.V == IntMatrix.identity(2)
    assert res.rank == 0

    res = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.diagonal == (2, 4)


def test_kernel_examples():
    K = kernel_basis(IntMatrix.from_rows([[2, -4]]))
    assert K.cols == 1
    v = K.col(0)
    assert v == (2, 1)

    assert kernel_basis(IntMatrix.identity(4)).cols == 0
    assert kernel_basis(IntMatrix(1, 0, [[]])).cols == 0


def vec(*xs):
    """A vector as the one-column matrix that solve takes and returns."""
    return IntMatrix.from_cols([xs])


def test_solve_examples():
    assert solve(IntMatrix.from_rows([[2]]), vec(4)) == vec(2)
    assert solve(IntMatrix.from_rows([[2]]), vec(3)) is None
    assert solve(IntMatrix.from_rows([[1, 1]]), vec(0)) == vec(0, 0)
    # one column per right-hand side; None when any column is unsolvable
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve(m, IntMatrix.from_rows([[4, 2], [3, 0]])) == IntMatrix.from_rows([[2, 1], [1, 0]])
    assert solve(m, IntMatrix.from_rows([[4, 1], [3, 0]])) is None


def test_solve_zero_cols():
    assert solve(IntMatrix(2, 0, [[], []]), vec(0, 0)) == vec()
    assert solve(IntMatrix(2, 0, [[], []]), vec(1, 0)) is None
    assert solve(IntMatrix.from_rows([[2, 1]]), IntMatrix(1, 0, [[]])) == IntMatrix(2, 0, [[], []])


def test_hnf_canonical_under_row_ops():
    rng = random.Random("hnf-canonical")
    for _ in range(50):
        M = rand_matrix(rng, max_dim=5, lo=-4, hi=4)
        H, _ = hnf(M)
        # permute and shear the rows: same row lattice, same H
        rows = [list(r) for r in M.data]
        rng.shuffle(rows)
        if len(rows) >= 2:
            rows[0] = [a + 3 * b for a, b in zip(rows[0], rows[1])]
        H2, _ = hnf(IntMatrix(M.rows, M.cols, rows))
        assert H2 == H


def test_random_contracts():
    rng = random.Random("intlinalg-contracts")
    for _ in range(120):
        M = rand_matrix(rng, max_dim=6, lo=-9, hi=9)
        check_hnf_contract(M)
        check_snf_contract(M)
        K = kernel_basis(M)
        for j in range(K.cols):
            assert M.mul_vec(K.col(j)) == (0,) * M.rows
        assert K.cols + snf(M).rank == M.cols
        # saturation: the quotient by the kernel lattice is torsion free
        if K.cols:
            assert all(d == 1 for d in snf(K).diagonal[: K.cols])


def test_solve_round_trip():
    rng = random.Random("solve-roundtrip")
    for _ in range(120):
        M = rand_matrix(rng, max_dim=6, lo=-6, hi=6)
        x0 = tuple(rng.randrange(-5, 6) for _ in range(M.cols))
        b = vec(*M.mul_vec(x0))
        x = solve(M, b)
        assert x is not None
        assert M @ x == b
        # canonical: shifting by a kernel vector does not change the answer
        K = kernel_basis(M)
        if K.cols:
            shifted = tuple(a + 2 * b2 for a, b2 in zip(x0, K.col(0)))
            assert solve(M, vec(*M.mul_vec(shifted))) == solve(M, b)


def test_solve_matrix_is_columnwise():
    # column j of solve(M, B) is exactly the solution for column j alone
    rng = random.Random("solve-columnwise")
    for _ in range(80):
        M = rand_matrix(rng, max_dim=5, lo=-6, hi=6)
        k = rng.randrange(0, 4)
        X0 = IntMatrix(M.cols, k, [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(M.cols)])
        B = M @ X0
        if k and rng.random() < 0.3:
            # perturb one entry: that column may become unsolvable
            rows = [list(r) for r in B.data]
            if rows:
                rows[rng.randrange(len(rows))][rng.randrange(k)] += 1
            B = IntMatrix(B.rows, k, rows)
        per_column = [solve(M, vec(*B.col(j))) for j in range(k)]
        X = solve(M, B)
        if any(x is None for x in per_column):
            assert X is None
        else:
            assert X == IntMatrix.from_cols([x.col(0) for x in per_column], rows=M.cols)


def test_lattice_utilities():
    rows = row_lattice([(2, 0), (0, 3), (2, 3)], 2)
    assert rows == ((2, 0), (0, 3))
    # the columns (4, -3), (1, 0) and (5, 4), reduced in one call
    reduced = reduce_cols_mod_rows(IntMatrix.from_cols([(4, -3), (1, 0), (5, 4)]), rows)
    assert reduced.columns() == [(0, 0), (1, 0), (1, 1)]


def test_inverse_unimodular():
    U = IntMatrix.from_rows([[1, 2], [0, 1]])
    W = inverse_unimodular(U)
    assert W @ U == IntMatrix.identity(2)
    try:
        inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    except ValueError:
        pass
    else:
        raise AssertionError("expected failure on non-unimodular input")


def pinned_matrices():
    """A fixed seeded set: ~10%, ~30% and fully dense matrices up to 12x12,
    the 0xn and nx0 shapes, and one dense 64x64 matrix in [-9, 9]."""
    rng = random.Random("normal-form-pin")
    out = []
    for density in (0.1, 0.3, 1.0):
        for _ in range(60):
            m, n = rng.randrange(1, 13), rng.randrange(1, 13)
            out.append(IntMatrix(m, n, [[rng.randrange(-9, 10) if rng.random() < density else 0
                                         for _ in range(n)] for _ in range(m)]))
    for k in range(4):
        out.append(IntMatrix(0, k, []))
        out.append(IntMatrix(k, 0, [[]] * k))
    out.append(IntMatrix(64, 64, [[rng.randrange(-9, 10) for _ in range(64)] for _ in range(64)]))
    return out


# sha256 over the reprs of every result below, transforms included; any
# change to a pivot choice or an elimination order shows up here
PINNED_NORMAL_FORMS = "f8eb23848be82832719df6bc121427c32fc8f1385462a739a89eac48fcf24017"


def test_normal_forms_are_pinned():
    h = hashlib.sha256()
    rng = random.Random("normal-form-pin-rhs")
    for M in pinned_matrices():
        res = snf(M)
        H, U = hnf(M)
        X0 = IntMatrix(M.cols, 2, [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(M.cols)])
        B = M @ X0
        if B.rows:
            # perturb the first row: some systems become unsolvable (None)
            B = B + IntMatrix(B.rows, 2, [[rng.randrange(0, 2) if i == 0 else 0 for _ in range(2)]
                                          for i in range(B.rows)])
        for x in (res.D, res.U, res.V, res.rank, H, U, kernel_basis(M),
                  solve(M, M @ X0), solve(M, B)):
            h.update(repr(x).encode())
    assert h.hexdigest() == PINNED_NORMAL_FORMS


def sparse_rows(rng, m, n, density, units=False):
    """m x n row lists with about `density` nonzeros; with units, some rows
    hold a single entry of 1 or -1."""
    rows = []
    for _ in range(m):
        if units and rng.random() < 0.3:
            row = [0] * n
            if n:
                row[rng.randrange(n)] = rng.choice((1, -1))
        else:
            row = [rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(n)]
        rows.append(row)
    return rows


def test_kernels_match_naive_oracle():
    rng = random.Random("sparse-kernels")
    shapes = [(3, 0, 4), (0, 3, 4), (0, 0, 0), (2, 3, 0), (4, 1, 1)]
    shapes += [tuple(rng.randrange(0, 9) for _ in range(3)) for _ in range(150)]
    for m, k, n in shapes:
        for density in (0.0, 0.1, 0.5, 1.0):
            a = sparse_rows(rng, m, k, density, units=True)
            b = sparse_rows(rng, k, n, density)
            A, B = IntMatrix(m, k, a), IntMatrix(k, n, b)
            prod = A @ B
            assert (prod.rows, prod.cols) == (m, n)
            assert [list(r) for r in prod.data] == matmul_naive(a, b, k, n)
            assert all(type(r) is tuple for r in prod.data)
            cols = [tuple(r[j] for r in a) for j in range(k)]
            assert A.columns() == cols
            assert IntMatrix.from_cols(cols, rows=m) == A
            assert A.is_zero() == all(x == 0 for r in a for x in r)


def test_product_edge_rows():
    B = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    # rows whose only nonzero is 1 or -1, and an all-zero row
    A = IntMatrix.from_rows([[1, 0], [0, -1], [0, 0], [0, 2]])
    assert A @ B == IntMatrix.from_rows([[1, 2, 3], [-4, -5, -6], [0, 0, 0], [8, 10, 12]])
    assert IntMatrix(2, 0, [[], []]) @ IntMatrix(0, 3, []) == IntMatrix.zeros(2, 3)
    assert IntMatrix(0, 2, []) @ B == IntMatrix(0, 3, [])
    assert B @ IntMatrix(3, 0, [[], [], []]) == IntMatrix(2, 0, [[], []])
    assert IntMatrix.from_cols([], rows=2) == IntMatrix(2, 0, [[], []])
    assert IntMatrix(2, 0, [[], []]).columns() == []
    assert IntMatrix(0, 2, []).columns() == [(), ()]
    try:
        IntMatrix.from_cols([(1, 2), (3,)])
    except ValueError:
        pass
    else:
        raise AssertionError("expected failure on ragged columns")


def snf_kernel_basis(M):
    """The kernel basis by way of the Smith form: the columns of V past the rank."""
    res = snf(M)
    return IntMatrix.from_cols(row_lattice(res.V.columns()[res.rank:], M.cols), rows=M.cols)


def snf_solve(M, B):
    """The solve by way of the Smith form: U M V = D, so M X = B exactly when
    D Y = U B, with X = V Y reduced against the kernel basis."""
    res = snf(M)
    C = res.U @ B
    if any(map(any, C.data[res.rank:])):
        return None
    Y = []
    for i in range(res.rank):
        d = res.D.data[i][i]
        if any(x % d for x in C.data[i]):
            return None
        Y.append([x // d for x in C.data[i]])
    Y += [[0] * B.cols for _ in range(M.cols - res.rank)]
    X = res.V @ IntMatrix(M.cols, B.cols, Y)
    return reduce_cols_mod_rows(X, snf_kernel_basis(M).columns())


def oracle_matrices(rng):
    """Empty shapes, random shapes, and rank-deficient products of thin factors."""
    out = [IntMatrix(0, k, []) for k in range(4)] + [IntMatrix(k, 0, [[]] * k) for k in range(4)]
    for _ in range(120):
        out.append(rand_matrix(rng, max_dim=7, lo=-6, hi=6))
        m, n, r = rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(0, 4)
        a = IntMatrix(m, r, [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(m)])
        b = IntMatrix(r, n, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(r)])
        out.append(a @ b)
    return out


def test_solve_and_kernel_match_oracles_and_smith_route():
    rng = random.Random("hermite-solve-oracle")
    for M in oracle_matrices(rng):
        K = kernel_basis(M)
        assert K.cols == M.cols - rank_rational(M.data, M.cols)
        assert (M @ K).is_zero()
        assert K == snf_kernel_basis(M)
        k = rng.randrange(1, 4)
        X0 = IntMatrix(M.cols, k, [[rng.randrange(-5, 6) for _ in range(k)] for _ in range(M.cols)])
        # solvable, possibly perturbed, and scaled by 2 (solvable over Q only
        # when the scaled system is)
        candidates = [M @ X0, M @ X0 + IntMatrix(M.rows, k, [[rng.randrange(0, 2) for _ in range(k)]
                                                                for _ in range(M.rows)])]
        for B in candidates + [(M @ X0).scale(2)]:
            for A in (M, M.scale(2), M.scale(3)):
                X = solve(A, B)
                assert X == snf_solve(A, B)
                over_z = [in_row_lattice(B.col(j), A.columns(), A.rows) for j in range(k)]
                over_q = [solve_rational(A.data, A.cols, B.col(j)) is not None for j in range(k)]
                assert all(q or not z for z, q in zip(over_z, over_q))
                if all(over_z):
                    assert A @ X == B
                else:
                    assert X is None


def test_solvable_over_q_but_not_over_z():
    cases = [
        (IntMatrix.from_rows([[2]]), vec(3)),
        (IntMatrix.from_rows([[2, 4], [0, 6]]), vec(2, 3)),
        (IntMatrix.from_rows([[1, 1], [1, -1]]), vec(1, 0)),           # x = (1/2, 1/2)
        (IntMatrix.from_rows([[2, 0], [0, 0], [4, 0]]), vec(1, 0, 2)),  # rank deficient
        (IntMatrix.from_rows([[3, 3, 6]]), vec(2)),                     # wide
    ]
    for M, b in cases:
        assert solve_rational(M.data, M.cols, b.col(0)) is not None
        assert solve(M, b) is None
        assert snf_solve(M, b) is None
