"""Independent cross-check routines used by the tests.

Everything here works over exact rationals (fractions.Fraction) or by direct
enumeration, deliberately sharing no code with the library under test.  The
routines that take library objects read only their fields (matrices,
relations, supports, splitting coordinates).
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


def inverse_rational(rows):
    """Inverse of an invertible square integer matrix by Gauss-Jordan over Q,
    as integer rows; raises ValueError when the inverse is not integral."""
    n = len(rows)
    m = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    inv = [r[n:] for r in m]
    if any(x.denominator != 1 for r in inv for x in r):
        raise ValueError("inverse is not integral")
    return [[int(x) for x in r] for r in inv]


def dprime_invertible(split):
    """Does every d': Y_n -> Z_{n-1} of the free splitting have an integer
    inverse, in each degree of the support and one past its top?  Both
    ranks are read off the splitting's columns; the injective d' is
    inverted by inverse_rational."""
    c = split.complex
    if c.support is None:
        return True
    lo, hi = c.support
    for n in range(lo, hi + 2):
        ky = split.degrees[n].y_amb.cols if n in split.degrees else 0
        kz = split.degrees[n - 1].z_amb.cols if n - 1 in split.degrees else 0
        if ky != kz:
            return False
        if ky:
            try:
                inverse_rational(split.dprime(n).data)
            except ValueError:
                return False
    return True


def _columns(m):
    return [[row[j] for row in m.data] for j in range(m.cols)]


def _same_quotient(g, h):
    """Same generator count and the same relation lattice, by membership of
    every relation of each in the other's lattice."""
    gr, hr = _columns(g.relations), _columns(h.relations)
    return (g.ngens == h.ngens
            and all(in_row_lattice(v, hr, g.ngens) for v in gr)
            and all(in_row_lattice(v, gr, g.ngens) for v in hr))


def first_differing_column(a, b, target):
    """Index of the first column on which the matrices a and b differ modulo
    the relations of the group target, or None."""
    rels = _columns(target.relations)
    for j, (u, v) in enumerate(zip(_columns(a), _columns(b))):
        if not in_row_lattice([x - y for x, y in zip(u, v)], rels, target.ngens):
            return j
    return None


def complex_first_difference(a, b):
    """The least degree where the complexes a and b differ in a group or a
    differential, by a loop over the degrees of both supports."""
    for n in sorted(set(a.degrees()) | set(b.degrees())):
        da, db = a.diff(n), b.diff(n)
        if (not _same_quotient(a.group(n), b.group(n)) or not _same_quotient(da.dst, db.dst)
                or first_differing_column(da.matrix, db.matrix, da.dst) is not None):
            return n
    return None


def map_first_difference(f, g):
    """(degree, generator) of the least generator on which the chain maps f
    and g, between the same complexes, differ, by a loop over the degrees of
    both complexes."""
    for n in sorted(set(f.src.degrees()) | set(f.dst.degrees())):
        j = first_differing_column(f.component(n).matrix, g.component(n).matrix, f.dst.group(n))
        if j is not None:
            return n, j
    return None


def section_by_inverses(r, split, y_lifts):
    """Integer rows, per degree, of the section of r onto the contractible
    free complex split.complex as d y_lift (d')^-1 on Z: the lift of the Y
    part is y_lifts[n] (ambient of r.src <- Y_n), and on Z_n, the image of
    d': Y_{n+1} -> Z_n, the section is d of the lift of (d')^-1."""
    c = split.complex
    out = {}
    for n in c.degrees():
        sd = split.degrees[n]
        s = matmul_naive(y_lifts[n].data, sd.y_coords.data, sd.y_coords.rows, sd.y_coords.cols)
        if sd.z_amb.cols:
            d = r.src.diff(n + 1).matrix
            dy = matmul_naive(d.data, y_lifts[n + 1].data, d.cols, y_lifts[n + 1].cols)
            inv = inverse_rational(split.dprime(n + 1).data)
            t = matmul_naive(matmul_naive(dy, inv, len(inv), len(inv)), sd.z_coords.data,
                             sd.z_coords.rows, sd.z_coords.cols)
            s = [[x + y for x, y in zip(p, q)] for p, q in zip(s, t)]
        out[n] = s
    return out
