"""The exact search for a split toral element, by which
``cohomology.leibniz_cohomology`` grades an input that no basis element
grades.  The argument, and the proof that the element found is split
toral, are in the ``cohomology`` module docstring.  ``cohomology``
imports this module only when a search runs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .algebra import LeibnizAlgebra, quotient_data
from .bimodule import Bimodule
from .cohomology import _basis_weights, _trace_form
from .linear import Mat, _shifted_kernels, lincomb, pivot_extension, solve

# The most candidates ``split_toral`` tries, whatever the dimension of h:
# every line of the [-2, 2] box in a three-dimensional Lie quotient.
_CANDIDATES = 49


def _candidates(k: int):
    """The vectors that ``split_toral`` tries in a Lie quotient of
    dimension k, at most _CANDIDATES of them: integer entries in
    [-2, 2], gcd 1 and first nonzero entry positive (one per line
    through 0), those with every entry in [-1, 1] first, each run in
    ``itertools.product`` order of the entries 0, 1, -1, 2, -2."""
    def runs():
        for top in (1, 2):
            for v in itertools.product((0, 1, -1, 2, -2)[:2 * top + 1], repeat=k):
                if max(map(abs, v), default=0) == top and gcd(*v) == 1 \
                        and next(x for x in v if x) > 0:
                    yield v
    return itertools.islice(runs(), _CANDIDATES)


def _eigenspaces(a: Mat) -> list | None:
    """The eigenspaces of the n x n matrix ``a``, in the order their
    eigenvalues are tried, when they span K^n and every eigenvalue is
    k / D with |k| <= 2n; None otherwise.

    D a, with D the lcm of the denominators of a, is an integer matrix,
    so its rational eigenvalues are integers and those of a are k / D.
    They are tried for k = 0, 1, -1, 2, -2, ..., each by one
    ``linear._shifted_kernels`` elimination.  Where the eigenspaces span,
    tr(a^2) is the sum of the squares of the eigenvalues, so once those
    found leave r dimensions and a part s of tr(a^2), every eigenvalue
    left has r (k / D)^2 <= s for the next k: when that fails, they do
    not span.  The cap |k| <= 2n bounds the work whatever the size of the entries
    (V_m, of dimension m + 1, has the weights -2m..2m under 2h); a matrix
    past it is only left ungraded.
    """
    n = a.rows
    den, kernel = _shifted_kernels(a)
    spaces, left, rest, k = [], n, _trace_form([a])[0][0], 0
    while left:
        lam = Fraction(k, den)
        if left * lam * lam > rest or abs(k) > 2 * n:
            return None
        space = kernel(k)
        if space.dim:
            spaces.append(space)
            left -= space.dim
            rest -= space.dim * lam * lam
        k = -k if k > 0 else 1 - k
    return spaces


def split_toral(h: LeibnizAlgebra, m: Bimodule) -> tuple | None:
    """(h, m, alpha, mu) with h and m transported into eigenbases of a
    split toral element x, x the first basis element of h, and (alpha,
    mu) its weights from ``cohomology._basis_weights``; None when no
    candidate of ``_candidates`` passes the tests of the ``cohomology``
    module docstring."""
    data = quotient_data(h)
    ads = [h.left_mult(i) for i in data.complement]
    lefts = [m.left[i] for i in data.complement]
    form = [[x + y for x, y in zip(r, s)] for r, s in zip(_trace_form(ads), _trace_form(lefts))]
    den = lcm(*(x.denominator for row in form for x in row))  # the form times den, in ints
    form = [[x.numerator * (den // x.denominator) for x in row] for row in form]
    for v in _candidates(len(ads)):
        if sum(x * y * row[j] for x, row in zip(v, form) for j, y in enumerate(v)) <= 0:
            continue
        on_h = _eigenspaces(lincomb(ads, v, h.dim))
        if on_h is None:
            continue
        on_m = _eigenspaces(lincomb(lefts, v, m.dim))
        if on_m is None:
            continue
        lift = [0] * h.dim
        for i, c in zip(data.complement, v):
            lift[i] = c
        # Eigenvalue 0 is tried first, and the lift has a component there.
        p = Mat.hstack([e.matrix() for e in on_h])
        zero = on_h[0].matrix()
        x = zero.apply(solve(p, Mat.from_cols([lift], rows=h.dim)).col(0)[:zero.cols])
        p = Mat.hstack([pivot_extension(Mat.from_cols([x], rows=h.dim), zero)[1]]
                       + [e.matrix() for e in on_h[1:]])
        q = Mat.hstack([Mat.zero(m.dim, 0)] + [e.matrix() for e in on_m])
        h2, m2 = _transport(h, m, p, q)
        weights = _basis_weights(h2, m2, 0)
        return (h2, m2) + weights if weights else None
    return None


def _transport(h: LeibnizAlgebra, m: Bimodule, p: Mat, q: Mat) -> tuple:
    """h and m in the bases given by the columns of the invertible p (of
    h) and q (of M).  This is transport of structure: p and q are
    isomorphisms from the new coordinates to the old, the new ad(b_i),
    L(b_i) and R(b_i) are p^-1 ad(p_i) p, q^-1 L(p_i) q and q^-1 R(p_i) q
    for the columns p_i of p, so every identity that h and m satisfy
    holds for the new tables, which are built unchecked."""
    n = h.dim
    pinv, qinv = solve(p, Mat.identity(n)), solve(q, Mat.identity(m.dim))
    cols = [p.col(i) for i in range(n)]
    ads = [h.left_mult(i) for i in range(n)]
    c = []
    for u in cols:  # column j of p^-1 ad(u) p is [u, p_j] in the new basis
        ad = (pinv * lincomb(ads, u, n) * p).transpose()
        c.append([ad.row(j) for j in range(n)])
    h2 = LeibnizAlgebra(n, c, check=False)
    return h2, Bimodule(h2, m.dim, [qinv * m.left_by(u) * q for u in cols],
                        [qinv * m.right_by(u) * q for u in cols], check=False)
