"""Independent cross-check routines used by the tests.

Everything here works over exact rationals (fractions.Fraction) or by direct
enumeration, deliberately sharing no code with the library under test.
"""

from fractions import Fraction


def det_bareiss(rows):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank_rational(rows, ncols):
    """Rank over Q via plain Gaussian elimination with Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def solve_rational(rows, ncols, b):
    """One rational solution x of (rows) @ x == b, or None if inconsistent."""
    m = [[Fraction(x) for x in r] + [Fraction(bi)] for r, bi in zip(rows, b)]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b2 for a, b2 in zip(m[i], pr)]
        pivots.append(c)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = m[i][ncols] / m[i][c]
    return x


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


class ZLattice:
    """Incremental echelon basis of an integer row span; membership by exact division."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivrow = {}  # pivot column -> row (zero left of the pivot)

    def add(self, vec):
        vec = list(vec)
        for j in range(self.ncols):
            if not vec[j]:
                continue
            row = self.pivrow.get(j)
            if row is None:
                self.pivrow[j] = vec
                return
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for k in range(j, self.ncols):
                    vec[k] -= q * row[k]
            else:
                g, x, y = _xgcd(a, b)
                mbg, ag = -b // g, a // g
                for k in range(j, self.ncols):
                    rk, vk = row[k], vec[k]
                    row[k] = x * rk + y * vk
                    vec[k] = mbg * rk + ag * vk

    def __contains__(self, vec):
        vec = list(vec)
        for j in range(self.ncols):
            if not vec[j]:
                continue
            row = self.pivrow.get(j)
            if row is None or vec[j] % row[j]:
                return False
            q = vec[j] // row[j]
            for k in range(j, self.ncols):
                vec[k] -= q * row[k]
        return True


def in_row_lattice(v, rows, ncols):
    """Is v an integer combination of the given rows?"""
    lat = ZLattice(ncols)
    for r in rows:
        lat.add(r)
    return v in lat


def matmul_naive(a, b, inner, ncols):
    """Row lists of a @ b by the textbook triple loop (a has `inner` columns)."""
    return [[sum(row[k] * b[k][j] for k in range(inner)) for j in range(ncols)] for row in a]
