"""Certificates: the checks every construction passes before it returns.

Each check returns or raises CertificateFailed with the construction, the
degree (None for a whole map) and a JSON-ready witness; only this module
raises it.  No check is an assert, so all of them run under ``python -O``.
"""

from __future__ import annotations

from .errors import CertificateFailed
from .intlinalg import row_lattice


def check(ok, construction, message, degree=None, witness=None):
    if not ok:
        raise CertificateFailed(message, construction, degree, witness)


def found(x, construction, degree, message):
    """x, unless it is the None of an unsolvable system that must be solvable."""
    check(x is not None, construction, message, degree)
    return x


def classified(f, prop, construction, piece):
    """classify(f), a memo hit after the first call, has the property prop,
    e.g. "acyclic_cofibration".

    The degree named is the first where f fails a boolean that prop needs:
    a nonzero kernel or cokernel group, a cokernel with torsion, an H_n(f)
    that is not an isomorphism or a kernel homology group that is not zero.
    """
    from .modelcls import CLASSES, classify

    cls = classify(f)
    if getattr(cls, prop):
        return

    found = (_first_failing_degree(f, part) for part in CLASSES[prop] if not getattr(cls, part))
    degree = next((n for n in found if n is not None), None)
    check(False, construction, f"{piece} failed its {prop.replace('_', ' ')} certificate",
          degree, cls.as_dict())


def _first_failing_degree(f, part):
    """The least degree where f fails the classification boolean part, or
    None; kernel and cokernel complexes are memo hits after classify(f)."""
    from .complexes import cokernel_complex, comparison_degrees, induced_map, kernel_complex

    if part == "quasi_iso":
        return next((n for n in comparison_degrees(f) if not induced_map(f, n).is_iso()), None)
    c, _ = kernel_complex(f) if part in ("injective", "kernel_acyclic") else cokernel_complex(f)
    for n in c.degrees():
        g = c.homology(n).group if part == "kernel_acyclic" else c.group(n)
        if g.invariant_factors if part == "coker_degreewise_free" else not g.is_trivial():
            return n
    return None


def _nonzero_column(m, g, key="generator"):
    """The first column of m that is nonzero in g, as a witness, or None."""
    bad = g.first_nonzero(m)
    return None if bad is None else {key: bad[0], "value": list(bad[1])}


def equal_maps(got, expected, construction, message):
    """got == expected; the witness is the first generator they disagree on."""
    if got.src != expected.src or got.dst != expected.dst:
        check(False, construction, message)
    bad = got.first_difference(expected)
    if bad is not None:
        check(False, construction, message, bad[0], {"generator": bad[1], "value": list(bad[2])})


def d_squared(c, construction):
    """d o d = 0 in every degree of c; the witness is a generator of degree n."""
    if c.support is None:
        return
    for n in range(c.support[0] + 2, c.support[1] + 1):
        bad = _nonzero_column(c.diff(n - 1).matrix @ c.diff(n).matrix, c.group(n - 2))
        check(bad is None, construction, "d o d is nonzero", n, bad)


def chain_map(f, construction):
    """Every component of f is well defined and every square commutes.

    The witness names the first source relation a component fails to carry
    into the target lattice, or the first generator on which d f and f d
    disagree.
    """
    degrees = f.degrees()
    for n in sorted({*degrees, *(d + 1 for d in degrees)}):
        c = f.component(n)
        bad = _nonzero_column(c.matrix @ c.src.relations, c.dst, key="relation")
        check(bad is None, construction, "component is not well defined", n, bad)
        m = f.component(n - 1).matrix @ f.src.diff(n).matrix - f.dst.diff(n).matrix @ c.matrix
        bad = _nonzero_column(m, f.dst.group(n - 1))
        check(bad is None, construction, "square does not commute", n, bad)


def homotopy_identity(r, k, construction):
    """d r + r d = k in every degree, for a homotopy r on k: A -> K."""
    a, kc = k.src, k.dst
    for n in a.window(1):
        m = (kc.diff(n + 1).matrix @ r.component(n)
             + r.component(n - 1) @ a.diff(n).matrix
             - k.component(n).matrix)
        bad = _nonzero_column(m, kc.group(n))
        check(bad is None, construction, "homotopy identity failed", n, bad)


def extension(ext):
    """k mono, r epi, image of k = kernel of r, in every degree."""
    from .abelian import preimage_lattice

    for n in sorted(set(ext.T.degrees()) | set(ext.K.degrees()) | set(ext.C.degrees())):
        k_n = ext.k.component(n)
        r_n = ext.r.component(n)
        check(k_n.is_injective(), "build_T", "kernel piece fails to embed", n)
        check(r_n.is_surjective(), "build_T", "quotient piece fails to surject", n)
        check((r_n @ k_n).is_zero(), "build_T", "composite through the extension is nonzero", n)
        t_n = ext.T.group(n)
        rel_cols = t_n.relations.columns()
        img_rows = row_lattice(k_n.matrix.columns() + rel_cols, t_n.ngens)
        ker_lat = preimage_lattice(r_n.matrix, ext.C.group(n).rel_rows)
        ker_rows = row_lattice(ker_lat.columns() + rel_cols, t_n.ngens)
        check(img_rows == ker_rows, "build_T", "extension is not exact in the middle", n)


def ladder(rows, key, construction, message):
    """Every rung of a homology ladder is an isomorphism; the witness is the first that is not."""
    bad = next((row for row in rows if not row[key]), None)
    check(bad is None, construction, message, bad and bad["degree"], bad)
