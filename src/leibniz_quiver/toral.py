"""The exact search for a split toral element x of an input that no
basis element grades.  It only changes the basis: it returns h and M
in eigenbases of x, x first, and ``cohomology`` grades that pair by the
rule it uses on every pair.  The argument, and the proof that the
element found is split toral, are in the ``cohomology`` module
docstring.  The eigenspaces come from ``linear._eigenspaces``, by which
``repsl2.decompose`` also counts weights.  This module imports nothing
from ``cohomology``, which imports it only when a search runs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .algebra import LeibnizAlgebra, quotient_data
from .bimodule import Bimodule
from .linear import (Mat, _columns, _common_int_rows, _common_ints, _eigenspaces, _int_product,
                     _trace_form, _wrap, lincomb, solve)

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


def _zigzag(a: Mat):
    """The eigenvalues that ``split_toral`` tries for the n x n matrix
    ``a``: k / D for k = 0, 1, -1, 2, -2, ..., 2n, -2n, with D the lcm of
    the denominators of a, whose rational eigenvalues are all of that
    form (``linear._eigenspaces``).  The cap |k| <= 2n bounds the work
    whatever the size of the entries (V_m, of dimension m + 1, has the
    weights -2m..2m under 2h); a matrix past it is only left ungraded."""
    n = a.rows
    den = _common_int_rows(a)[1]
    ks = [0] + [s * k for k in range(1, 2 * n + 1) for s in (1, -1)]
    return [Fraction(k, den) for k in ks]


def split_toral(h: LeibnizAlgebra, m: Bimodule) -> tuple | None:
    """(h, m) transported into eigenbases of a split toral element x, x
    the first basis element of h; None when no candidate of
    ``_candidates`` passes the tests of the ``cohomology`` module
    docstring."""
    data = quotient_data(h)
    ads = [h.left_mult(i) for i in data.complement]
    lefts = [m.left[i] for i in data.complement]
    k = len(ads)
    # The trace form, flat and times the lcm of its denominators.
    form = _common_ints(x + y for r, s in zip(_trace_form(ads), _trace_form(lefts))
                        for x, y in zip(r, s))[0]
    for v in _candidates(k):
        if sum(x * y * form[i * k + j] for i, x in enumerate(v) for j, y in enumerate(v)) <= 0:
            continue
        a = lincomb(ads, v, h.dim)
        on_h = _eigenspaces(a, _zigzag(a))
        if on_h is None:
            continue
        a = lincomb(lefts, v, m.dim)
        on_m = _eigenspaces(a, _zigzag(a))
        if on_m is None:
            continue
        lift = [0] * h.dim
        for i, c in zip(data.complement, v):
            lift[i] = c
        # ad(lift) has eigenvalue 0 on h, as ad(xbar) has xbar in its
        # kernel on the quotient.
        spaces = {lam: e.matrix() for lam, e in on_h}
        zero = spaces.pop(0)
        p = Mat.hstack([zero, *spaces.values()])
        pinv = solve(p, Mat.identity(h.dim))
        c = pinv.apply(lift)[:zero.cols] + (0,) * (h.dim - zero.cols)
        # x = p c, in the span of zero, is not 0: else lift lies in the
        # image of the diagonalizable ad(lift), and v = [v, y] in both the
        # kernel and the image of the diagonalizable ad(v) on the
        # quotient.  The columns of zero are independent, so zero_i lies
        # in span(x, zero_<i) only at the last nonzero i of c: [x | p off
        # i] is x extended by the pivot columns of [x | zero], then the
        # other eigenspaces.
        last = max(i for i, v in enumerate(c) if v)
        rest = [i for i in range(h.dim) if i != last]
        # That basis is p T, T sending e_0 to c and the other unit vectors
        # to those of rest, so (p T)^-1 = T^-1 p^-1, where T^-1 y has
        # y_last / c_last first and then y_i - c_i y_last / c_last for i in rest.
        tinv = Mat.from_sparse(h.dim, h.dim, [{last: 1 / c[last]}]
                               + [{i: 1, last: -c[i] / c[last]} for i in rest])
        p = Mat.hstack([Mat.from_cols([p.apply(c)], rows=h.dim), _columns(p, rest)])
        q = Mat.hstack([Mat.zero(m.dim, 0)] + [e.matrix() for _, e in on_m])
        return _transport(h, m, p, q, tinv * pinv)
    return None


def _transport(h: LeibnizAlgebra, m: Bimodule, p: Mat, q: Mat, pinv: Mat) -> tuple:
    """h and m in the bases given by the columns of the invertible p (of
    h), whose inverse is ``pinv``, and q (of M).  This is transport of
    structure: p and q are isomorphisms from the new coordinates to the
    old, the new ad(b_i), L(b_i) and R(b_i) are p^-1 ad(p_i) p,
    q^-1 L(p_i) q and q^-1 R(p_i) q for the columns p_i of p, so every
    identity that h and m satisfy holds for the new tables, which are
    built unchecked."""
    n = h.dim
    # ad(b_0), ..., ad(b_(n-1)) stacked: row k of ad(b_a) holds the
    # [b_a, b_j]_k, and column j of the new ad(b_i) is [b_i, b_j].
    ads = _wrap(n * n, n, ({j: h.c[a][j][k] for j in range(n) if h.c[a][j][k]}
                          for a in range(n) for k in range(n)))
    ads = _conjugates(ads, p, p, pinv)
    h2 = LeibnizAlgebra(n, [[a.col(j) for j in range(n)] for a in ads], check=False)
    qinv = solve(q, Mat.identity(m.dim))
    return h2, Bimodule(h2, m.dim, _conjugates(Mat.vstack(m.left), p, q, qinv),
                        _conjugates(Mat.vstack(m.right), p, q, qinv), check=False)


def _conjugates(stacked: Mat, p: Mat, q: Mat, qinv: Mat) -> list:
    """[q^-1 A(p_i) q for each column p_i of p], A(u) = sum_a u_a A_a, for
    ``stacked`` = [A_0; ...; A_(n-1)], n blocks of size d x d, and p of
    size n x n.  ``_common_int_rows`` scales stacked, p, q and qinv = q^-1
    to integers, so every product is of integer rows, and each entry is
    divided once, by the product of the four denominators."""
    d = q.rows
    arows, da = _common_int_rows(stacked)
    pcols, dp = _common_int_rows(p.transpose())
    qrows, dq = _common_int_rows(q)
    irows, di = _common_int_rows(qinv)
    den = da * dp * dq * di
    out = []
    for col in pcols:
        comb = [{} for _ in range(d)]  # the rows of da dp A(p_i)
        for a, x in col.items():
            for acc, row in zip(comb, arows[a * d:(a + 1) * d]):
                for j, v in row.items():
                    acc[j] = acc.get(j, 0) + x * v
        rows = _int_product(list(_int_product(irows, comb)), qrows)
        out.append(_wrap(d, d, [{j: Fraction(v, den) for j, v in r.items() if v} for r in rows]))
    return out
