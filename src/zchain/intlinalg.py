"""Exact integer linear algebra on arbitrary-precision matrices.

Hermite and Smith normal forms with unimodular transforms, integer kernel
lattices, and deterministic linear solving.  Kernels and solutions come from
the cached Hermite form of the transpose (``hnf(m.transpose())``, whose row
transform holds both); the Smith form is for invariant factors and explicit
diagonalizations.  All entries are Python ints, so nothing ever overflows;
all results are canonical, so repeated runs produce identical output.  0xN
and Nx0 matrices are legal throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count
from operator import mul


def xgcd(a, b):
    # Invariants:  x * a + y * b == g,  nx * a + ny * b == ng.
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix:
    """Immutable integer matrix with explicit row/column counts.

    Entries must be Python ints; they are stored as given, without
    conversion.  Untyped input is checked where it enters, in
    ``documents.json_to_matrix``.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if entries is None:
            data = ((0,) * cols,) * rows
        else:
            data = tuple(map(tuple, entries))
        if len(data) != rows or not set(map(len, data)) <= {cols}:
            raise ValueError(f"expected {rows}x{cols} entries")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [list(r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def from_cols(cls, cols, rows=None):
        cols = list(cols)
        if rows is None:
            if not cols:
                raise ValueError("rows required for a matrix with no columns")
            rows = len(cols[0])
        if not set(map(len, cols)) <= {rows}:
            raise ValueError(f"expected columns of length {rows}")
        return cls(rows, len(cols), list(zip(*cols)) if cols else ((),) * rows)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, _identity_rows(n))

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self.data))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def col(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def transpose(self):
        return IntMatrix(self.cols, self.rows, list(zip(*self.data)) if self.rows else [[] for _ in range(self.cols)])

    def __neg__(self):
        return IntMatrix(self.rows, self.cols, [[-x for x in r] for r in self.data])

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return IntMatrix(self.rows, self.cols, [[k * x for x in r] for r in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix(self.rows, other.cols, _product_rows(self.data, other.data, other.cols))

    def mul_vec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        if self.cols == 0:
            return (0,) * self.rows
        return tuple(sum(map(mul, row, v)) for row in self.data)

    def take_cols(self, indices):
        return IntMatrix(self.rows, len(indices), [[r[j] for j in indices] for r in self.data])

    def take_rows(self, indices):
        return IntMatrix(len(indices), self.cols, [self.data[i] for i in indices])

    def is_zero(self):
        return not any(map(any, self.data))

    def is_diagonal(self):
        return all(x == 0 for i, r in enumerate(self.data) for j, x in enumerate(r) if i != j)


def hstack(blocks):
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hstack needs at least one block")
    rows = blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("row mismatch in hstack")
    data = [tuple(chain.from_iterable(r)) for r in zip(*[b.data for b in blocks])]
    return IntMatrix(rows, sum(b.cols for b in blocks), data)


def vstack(blocks):
    blocks = list(blocks)
    if not blocks:
        raise ValueError("vstack needs at least one block")
    cols = blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("column mismatch in vstack")
    data = [row for b in blocks for row in b.data]
    return IntMatrix(sum(b.rows for b in blocks), cols, data)


def blockdiag(blocks):
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            out[r0 + i][c0:c0 + b.cols] = b.data[i]
        r0 += b.rows
        c0 += b.cols
    return IntMatrix(rows, cols, out)


def kron(a, b):
    """Kronecker product: entry ((i*b.rows+k), (j*b.cols+l)) = a[i,j]*b[k,l]."""
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [[0] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            x = a.data[i][j]
            if x:
                for k in range(b.rows):
                    br = b.data[k]
                    orow = out[i * b.rows + k]
                    for l in range(b.cols):
                        orow[j * b.cols + l] = x * br[l]
    return IntMatrix(rows, cols, out)


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _product_rows(left, right, ncols):
    """Rows of left @ right: each is the combination of the rows of right
    picked out by the nonzero entries of the left row."""
    zero = (0,) * ncols
    out = []
    for row in left:
        ks = list(compress(count(), row))
        if not ks:
            out.append(zero)
        elif len(ks) == 1:
            k = ks[0]
            a = row[k]
            out.append(right[k] if a == 1 else tuple([a * x for x in right[k]]))
        else:
            coeffs = [row[k] for k in ks]
            out.append(tuple([sum(map(mul, coeffs, col)) for col in zip(*[right[k] for k in ks])]))
    return out


def _axpy(dst, src, q):
    # dst += q * src, in place, over the nonzero entries of src
    for j in compress(count(), src):
        dst[j] += q * src[j]


@lru_cache(maxsize=4096)
def hnf(m):
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U @ m == H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    The row lattice of H equals the row lattice of m, and H is the canonical
    basis of that lattice.
    """
    nrows, ncols = m.rows, m.cols
    H = [list(r) for r in m.data]
    U = _identity_rows(nrows)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # Euclid down the column until a single nonzero entry remains at row r.
        # The pivot is the first row with the least nonzero |entry|; no entry
        # is below 1, so the search stops at the first unit.
        piv = None
        for i in range(r, nrows):
            b = H[i][c]
            if b and (piv is None or abs(b) < least):
                piv, least = i, abs(b)
                if least == 1:
                    break
        while piv is not None:
            if piv != r:
                H[r], H[piv] = H[piv], H[r]
                U[r], U[piv] = U[piv], U[r]
            a = H[r][c]
            # every remainder is smaller than |a|, so the next pivot is the
            # least one left below row r
            piv = None
            for i in range(r + 1, nrows):
                b = H[i][c]
                if b:
                    q = b // a
                    if q:
                        _axpy(H[i], H[r], -q)
                        _axpy(U[i], U[r], -q)
                        b = H[i][c]
                    if b and (piv is None or abs(b) < least):
                        piv, least = i, abs(b)
        if H[r][c] == 0:
            continue
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        a = H[r][c]
        for i in range(r):
            q = H[i][c] // a
            if q:
                _axpy(H[i], H[r], -q)
                _axpy(U[i], U[r], -q)
        r += 1
    return IntMatrix(nrows, ncols, H), IntMatrix(nrows, nrows, U)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form data: U @ A @ V == D with U, V unimodular."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    rank: int

    @property
    def diagonal(self):
        return tuple(self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols)))


@lru_cache(maxsize=4096)
def snf(m):
    """Smith normal form with both transforms.

    The diagonal entries are positive and each divides the next; everything
    off the diagonal is zero.
    """
    nrows, ncols = m.rows, m.cols
    D = [list(r) for r in m.data]
    U = _identity_rows(nrows)
    V = _identity_rows(ncols)

    def add_col_multiples(src, ops):
        # column j += q * column src for each (j, q) in ops, in D and V
        for row in chain(D, V):
            s = row[src]
            if s:
                for j, q in ops:
                    row[j] += q * s

    for t in range(min(nrows, ncols)):
        while True:
            # the first entry in row-major order with the least nonzero
            # |value|; the search stops at the first unit
            best = None
            for i in range(t, nrows):
                seg = D[i][t:]
                if any(seg):
                    seg = list(map(abs, seg))
                    v = min(filter(None, seg))
                    if best is None or v < best[0]:
                        best = (v, i, t + seg.index(v))
                        if v == 1:
                            break
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                D[t], D[bi] = D[bi], D[t]
                U[t], U[bi] = U[bi], U[t]
            if bj != t:
                for row in chain(D, V):
                    row[t], row[bj] = row[bj], row[t]
            a = D[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                b = D[i][t]
                if b:
                    q = b // a
                    if q:
                        _axpy(D[i], D[t], -q)
                        _axpy(U[i], U[t], -q)
                    if D[i][t]:
                        dirty = True
            if dirty:
                continue
            # clear row t in one pass: column t is the source of every column
            # operation and none of them changes it
            pivot_row = D[t]
            ops = [(j, -q) for j, q in enumerate([b // a for b in pivot_row[t + 1:]], t + 1) if q]
            if ops:
                add_col_multiples(t, ops)
            if not any(pivot_row[t + 1:]):
                break
        if best is None:
            break

    n = min(nrows, ncols)
    for t in range(n):
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    rank = sum(1 for t in range(n) if D[t][t])

    # Divisibility fix: replace each bad pair (a, b) by (gcd, lcm).
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = D[i][i], D[j][j]
            if b % a:
                add_col_multiples(j, [(i, 1)])
                # Rows i, j now read [[a, 0], [b, b]] on columns i, j.
                g, x, y = xgcd(a, b)
                ri, rj = list(D[i]), list(D[j])
                ui, uj = list(U[i]), list(U[j])
                for k in range(ncols):
                    D[i][k] = x * ri[k] + y * rj[k]
                    D[j][k] = (-b // g) * ri[k] + (a // g) * rj[k]
                for k in range(nrows):
                    U[i][k] = x * ui[k] + y * uj[k]
                    U[j][k] = (-b // g) * ui[k] + (a // g) * uj[k]
                # Clear the remaining entry above the new lcm pivot.
                q = D[i][j] // g
                if q:
                    add_col_multiples(i, [(j, -q)])

    return SnfResult(
        IntMatrix(nrows, ncols, D),
        IntMatrix(nrows, nrows, U),
        IntMatrix(ncols, ncols, V),
        rank,
    )


def row_lattice(vectors, ambient):
    """Canonical HNF row basis of the lattice spanned by the given vectors."""
    vecs = [tuple(v) for v in vectors]
    H, _ = hnf(IntMatrix(len(vecs), ambient, vecs))
    return tuple(r for r in H.data if any(r))


def column_lattice(m):
    """Canonical HNF row basis of the lattice spanned by the columns of m."""
    return row_lattice(m.columns(), m.rows)


def row_pivots(rows):
    """Column of the first nonzero entry of each of the given nonzero rows."""
    return tuple(next(compress(count(), row)) for row in rows)


def reduce_cols_mod_rows(m, rows, pivots=None):
    """m with every column replaced by its canonical representative modulo
    the lattice given by HNF rows; pivots are the rows' ``row_pivots``, for
    callers that keep them.

    The same reduction runs on all columns at once, one HNF row at a time,
    as row operations on m.
    """
    if not rows:
        return m
    X = list(m.data)
    _eliminate(X, rows, pivots or row_pivots(rows))
    return IntMatrix(m.rows, m.cols, X)


def _eliminate(X, rows, pivots):
    """Reduce the columns of the row list X in place against the HNF rows;
    returns the quotient row that each HNF row was subtracted with."""
    Y = []
    for row, p in zip(rows, pivots):
        a = row[p]
        qs = X[p] if a == 1 else [x // a for x in X[p]]
        Y.append(qs)
        if any(qs):
            for j in compress(count(), row):
                c = row[j]
                X[j] = [x - c * q for x, q in zip(X[j], qs)]
    return Y


@lru_cache(maxsize=4096)
def kernel_basis(m):
    """Columns form the canonical basis of the full kernel lattice {v : mv = 0}.

    Read off the Hermite form of m's transpose: U @ m.T == H, so the rows
    of U past the rank of H span the kernel.  The returned basis is the
    HNF-canonical one, so it only depends on the kernel itself.
    """
    H, U = hnf(m.transpose())
    rank = sum(1 for r in H.data if any(r))
    return IntMatrix.from_cols(row_lattice(U.data[rank:], m.cols), rows=m.cols)


def solve(m, B):
    """Deterministic X with m @ X == B over the integers, or None.

    B is an IntMatrix of right-hand sides; a single vector is a one-column
    matrix.  Uses the Hermite form of m's transpose, U @ m.T == H: each
    column of B is reduced down the pivots of H's rows, which span the
    column lattice of m, and X = U.T @ (the quotients).  Column j of X is
    the canonical representative of the solution coset of column j of B
    modulo the kernel lattice (reduced against the HNF kernel basis), so it
    does not depend on any internal choices.  None when some column has no
    solution: a pivot that does not divide, or a nonzero residual.
    """
    if B.rows != m.rows:
        raise ValueError("right-hand side row mismatch")
    if B.cols == 0:
        return IntMatrix.zeros(m.cols, 0)
    H, U = hnf(m.transpose())
    rows = [r for r in H.data if any(r)]
    # forward substitution: the rows of H after the i-th vanish at its pivot
    R = list(B.data)
    Y = _eliminate(R, rows, row_pivots(rows))
    if any(map(any, R)):
        return None
    # X = U.T @ Y over the first rank rows of U; the rows past them span the kernel
    Ut = list(zip(*U.data[:len(rows)])) or [()] * m.cols
    X = IntMatrix(m.cols, B.cols, _product_rows(Ut, Y, B.cols))
    # kernel_basis columns are the HNF rows of the kernel lattice, in order
    return reduce_cols_mod_rows(X, kernel_basis(m).columns())


def inverse_unimodular(m):
    """Exact inverse of a unimodular square matrix."""
    if m.rows != m.cols:
        raise ValueError("not square")
    H, U = hnf(m)
    if H != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return U
