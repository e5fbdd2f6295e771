"""Cohomology of Leibniz algebras and of Lie algebras.

The Leibniz complex of an algebra h with coefficients in a bimodule M
has cochain spaces CL^n = Hom(h^(ox n), M) and differential

    (d f)(x_0, ..., x_n) =
        sum_{i<n}   (-1)^i     x_i . f(..., x_i^, ..., x_n)
      + (-1)^(n-1)  f(x_0, ..., x_{n-1}) . x_n
      + sum_{i<j}   (-1)^(i+1) f(..., x_i^, ..., [x_i, x_j] at slot j-1, ...)

so in degree zero (d m)(x) = -m.x and HL^0 is the right-invariant part
of M.  Cochains are flattened row-major: the coordinate of f at
(tuple t, module index j) is ``flat(t) * dim M + j``.

Both matrices split off the first slot, the outermost factor of CL^q.
With L_a, R_a the actions of b_a on M and ad(b_a) = ``h.left_mult(a)``,
the action A^(q)_a of b_a on CL^q (``cochain_action``) and d_n are

    A^(0)_a = L_a,    A^(q)_a = I_h (x) A^(q-1)_a - ad(b_a)^T (x) I,
    d_0 = -[R_0; ...; R_(dim h - 1)],    d_n = [A^(n)_0; ...] - I_h (x) d_(n-1):

in (b_a . f)(y_1, ...) the bracket with y_1 is the ad term, the rest is b_a
on f(y_1, ...); in (d f)(x_0, ...) the i = 0 terms are (x_0 . f)(x_1, ...),
the rest is -(d g)(x_1, ...) for g = f(x_0, ...) with each index i one lower.

So with (i_a f)(y, ...) = f(b_a, y, ...), row block a of d_q reads
i_a d_q = A^(q)_a - d_(q-1) i_a, which is Cartan's formula

    A^(q)_a = i_a d_q + d_(q-1) i_a    (q >= 1).

On a cocycle z it leaves the coboundary d_(q-1)(i_a z): h acts by zero
on HL^q for every q >= 1, and only HL^0, the right invariants of M,
keeps a nonzero (left) action.

The Chevalley-Eilenberg complex of a Lie algebra g with coefficients in
a left module (M, rho) has C^p = Hom(Lambda^p g, M), flattened in the
same way over the sorted p-subsets T of the basis in lexicographic order:

    (d f)(x_0, ..., x_p) = sum_i (-1)^i x_i . f(..., x_i^, ...)
        + sum_{i<j} (-1)^(i+j) f([x_i, x_j], ..., x_i^, ..., x_j^, ...),
    d_p = delta_p (x) I_M + sum_a eps_a (x) rho(b_a),

with delta_p the differential for trivial coefficients and eps_a the wedge
with b^a, (eps_a phi)(T) = (-1)^(position of a in T) phi(T - a), where
T - a drops a from T.  The bracket terms apply rho to no value of f, so
they are delta_p on the g-slots and I_M on M; the module term at T with
a = t_i is (-1)^i rho(b_a) f(T - a), and (-1)^i is eps_a at (T, T - a).

Both complexes verify d.d = 0 on construction.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .errors import ComplexError, DimensionError, InputError, StabilityError
from .linear import (
    Mat,
    SubspaceBasis,
    _column_basis,
    _kernel_and_pivots,
    _sum,
    _wrap,
    intersect_kernels,
    kron,
    lincomb,
    rank,
    restrict_and_project,
)
from .algebra import LeftModule, LeibnizAlgebra, LieAlgebra, quotient_data
from .bimodule import Bimodule


# The largest cochain space, dim h^(q+1) * dim M, that a Leibniz
# differential may map into.  HL^4(hemi_sl2(2), V_2^a) needs 23 328;
# degree 5 over a 6-dimensional algebra with a 3-dimensional bimodule
# would need 139 968 rows and is refused.
COCHAIN_BUDGET = 50_000


class CochainComplex:
    """A finite run of a cochain complex: spaces and differentials.

    ``dims[q]`` is the dimension of the degree-q space and
    ``differentials[q]`` maps degree q to degree q+1; shapes must chain
    and all compositions must vanish (ComplexError otherwise).
    """

    __slots__ = ("dims", "differentials")

    def __init__(self, dims: Sequence[int], differentials: Sequence[Mat]):
        dims = tuple(dims)
        differentials = tuple(differentials)
        if len(dims) != len(differentials) + 1:
            raise ComplexError("need one differential per consecutive pair of spaces")
        for q, d in enumerate(differentials):
            if d.cols != dims[q] or d.rows != dims[q + 1]:
                raise ComplexError(f"differential {q} has shape {d.rows}x{d.cols}, "
                                   f"expected {dims[q + 1]}x{dims[q]}")
        for q in range(len(differentials) - 1):
            if not (differentials[q + 1] * differentials[q]).is_zero():
                raise ComplexError(f"d({q + 1}) . d({q}) is nonzero")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "differentials", differentials)

    def __setattr__(self, name, value):
        raise AttributeError("CochainComplex is immutable")


class DegreeGroup:
    """Cohomology in one degree: dimension plus witness bases."""

    __slots__ = ("dim", "cocycles", "coboundaries")

    def __init__(self, dim: int, cocycles: SubspaceBasis, coboundaries: SubspaceBasis):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cocycles", cocycles)
        object.__setattr__(self, "coboundaries", coboundaries)

    def __setattr__(self, name, value):
        raise AttributeError("DegreeGroup is immutable")


class CohomologyResult:
    """Per-degree cohomology of a complex, degrees 0..qmax."""

    __slots__ = ("groups",)

    def __init__(self, groups: Sequence[DegreeGroup]):
        object.__setattr__(self, "groups", tuple(groups))

    def __setattr__(self, name, value):
        raise AttributeError("CohomologyResult is immutable")

    @property
    def dims(self) -> list:
        return [g.dim for g in self.groups]

    def __getitem__(self, q: int) -> DegreeGroup:
        return self.groups[q]


def cohomology_of_complex(cx: CochainComplex) -> CohomologyResult:
    """Kernels modulo images of a verified complex, through degree
    len(differentials) - 1.

    Each differential d_q is eliminated once, for its cocycles and for
    its pivot columns, which give the coboundaries im d_q of degree
    q + 1.  The elimination stops at the bound

        rank d_q <= dim C^q - rank d_(q-1)

    which holds because im d_(q-1) lies in ker d_q: the complex verified
    d_q . d_(q-1) = 0 exactly when it was built.  The bound is reached
    exactly when the degree-q group is zero; otherwise every row is
    read.  The containment of the coboundaries in the cocycles is
    checked in every degree.
    """
    groups = []
    coboundaries = SubspaceBasis.empty(cx.dims[0])
    last = len(cx.differentials) - 1
    for q, d in enumerate(cx.differentials):
        cocycles, pivots = _kernel_and_pivots(d, cx.dims[q] - coboundaries.dim)
        if not cocycles.contains_all(coboundaries):
            raise ComplexError(f"coboundaries escape cocycles in degree {q}")
        groups.append(DegreeGroup(cocycles.dim - coboundaries.dim, cocycles, coboundaries))
        if q < last:
            coboundaries = _column_basis(d, pivots)
    return CohomologyResult(groups)


# ---------------------------------------------------------------------------
# The Leibniz complex.
# ---------------------------------------------------------------------------


def _check_budget(space: str, size: int, unit: str = "") -> None:
    """Refuse, before it is allocated, a space of dimension above
    COCHAIN_BUDGET, or with ``unit`` (such as "degrees") more than
    COCHAIN_BUDGET of those; ``space`` names it in the message."""
    if size > COCHAIN_BUDGET:
        amount = f"{size} {unit}" if unit else f"dimension {size}"
        raise InputError(f"{space} has {amount}, above the budget of {COCHAIN_BUDGET}")


def _check_degrees(last: int) -> None:
    """Refuse, before any per-degree list is built, a run of degrees
    0..last longer than COCHAIN_BUDGET: each space may be small (every
    CE space above dim g is zero), but the run is not."""
    _check_budget(f"the degree range 0..{last}", last + 1, "degrees")


def _action(h: LeibnizAlgebra, m: Bimodule, a: int, q: int) -> Mat:
    """A^(q)_a, the matrix of b_a on CL^q (module docstring)."""
    if q == 0:
        return m.left[a]
    below = _action(h, m, a, q - 1)
    minus_ad_t = Mat.from_sparse(h.dim, h.dim, [{k: -x for k, x in enumerate(r)} for r in h.c[a]])
    return kron(Mat.identity(h.dim), below) + kron(minus_ad_t, Mat.identity(below.rows))


def _differential(h: LeibnizAlgebra, m: Bimodule, q: int) -> Mat:
    """d_q (module docstring) by its row blocks A^(q)_a - e_a^T (x) d_(q-1),
    which share the entries of -d_(q-1) and hold one A^(q)_a at a time."""
    if q == 0:
        blocks, cols = [-r for r in m.right], m.dim
    else:
        minus_below = -_differential(h, m, q - 1)
        blocks = [_action(h, m, a, q) + kron(Mat.from_sparse(1, h.dim, [{a: 1}]), minus_below)
                  for a in range(h.dim)]
        cols = minus_below.rows
    return Mat.vstack(blocks) if blocks else Mat.zero(0, cols)  # dim h = 0: no blocks


def leibniz_differential(h: LeibnizAlgebra, m: Bimodule, n: int) -> Mat:
    """Matrix of d: CL^n -> CL^(n+1) for the bimodule m over h;
    InputError when CL^(n+1) exceeds COCHAIN_BUDGET."""
    if m.algebra != h:
        raise DimensionError("bimodule is not over the given algebra")
    if n < 0:
        raise DimensionError(f"cochain degree {n} is negative")
    _check_budget(f"the cochain space CL^{n + 1}", h.dim ** (n + 1) * m.dim)
    return _differential(h, m, n)


def leibniz_complex(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> CochainComplex:
    if qmax < 0:
        raise DimensionError("qmax must be nonnegative")
    _check_degrees(qmax + 1)
    _check_budget(f"the cochain space CL^{qmax + 1}", h.dim ** (qmax + 1) * m.dim)
    d, dm = h.dim, m.dim
    dims = [d ** q * dm for q in range(qmax + 2)]
    diffs = [leibniz_differential(h, m, q) for q in range(qmax + 1)]
    return CochainComplex(dims, diffs)


def leibniz_cohomology(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> CohomologyResult:
    """HL^q(h, m) for q = 0..qmax, with cocycle/coboundary bases."""
    return cohomology_of_complex(leibniz_complex(h, m, qmax))


def cochain_action(h: LeibnizAlgebra, m: Bimodule, q: int) -> list:
    """Action matrices of the h basis on CL^q = Hom(h^(ox q), M):

        (x . f)(y_1, ..., y_q) = x . f(y_1, ..., y_q)
                                 - sum_i f(y_1, ..., [x, y_i], ..., y_q)

    The Leibniz kernel acts by zero (left multiplications by squares
    vanish), so this is really an action of the Lie quotient.
    """
    if q < 0:
        raise DimensionError(f"cochain degree {q} is negative")
    return [_action(h, m, a, q) for a in range(h.dim)]


def induced_module(h: LeibnizAlgebra, actions: Sequence[Mat],
                   sub: SubspaceBasis, quot: SubspaceBasis) -> LeftModule:
    """Left module over the Lie quotient of h induced on
    span(sub)/span(quot) by one action matrix per h basis element.

    Failure to preserve either space raises StabilityError, as does a
    Leibniz-kernel element acting nonzero on the quotient.
    """
    data = quotient_data(h)
    induced = restrict_and_project(actions, sub, quot)
    dim = sub.dim - quot.dim
    kernel = data.kernel.matrix()
    for j in range(kernel.cols):
        if not lincomb(induced, kernel.col(j), dim).is_zero():
            raise StabilityError("Leibniz kernel acts nonzero on the quotient")
    return LeftModule(data.lie, dim, [induced[i] for i in data.complement])


def hl_modules(h: LeibnizAlgebra, m: Bimodule, cohom: CohomologyResult) -> list:
    """The groups of ``cohom = leibniz_cohomology(h, m, qmax)`` as
    modules over the Lie quotient of h: the cochain action restricted to
    the cocycles and projected modulo the coboundaries.  By Cartan's
    formula (module docstring) every HL^q with q >= 1 comes out as a
    trivial module."""
    return [induced_module(h, cochain_action(h, m, q), g.cocycles, g.coboundaries)
            for q, g in enumerate(cohom.groups)]


def hl_module_structure(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> list:
    """[HL^0(h, m), ..., HL^qmax(h, m)] as modules over the Lie quotient
    of h, from the verified complex of ``leibniz_cohomology(h, m, qmax)``."""
    return hl_modules(h, m, leibniz_cohomology(h, m, qmax))


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cohomology of Lie algebras.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bracket_and_wedges(g: LieAlgebra, p: int) -> tuple:
    """delta_p and [eps_0, ..., eps_(dim g - 1)] (module docstring), the
    scalar matrices from the p-subsets to the (p+1)-subsets of the basis.
    They depend on g and p only, so every module over g shares them."""
    n = g.dim
    index = {s: c for c, s in enumerate(itertools.combinations(range(n), p))}
    subsets = list(itertools.combinations(range(n), p + 1))
    delta, wedges = [], [[{} for _ in subsets] for _ in range(n)]
    for r, t in enumerate(subsets):
        for i, a in enumerate(t):
            wedges[a][r][index[t[:i] + t[i + 1:]]] = Fraction((-1) ** i)
        row = {}
        for (i, x), (j, y) in itertools.combinations(enumerate(t), 2):
            rest = t[:i] + t[i + 1:j] + t[j + 1:]
            for k, ck in enumerate(g.c[x][y]):
                if ck and k not in rest:
                    pos = bisect_left(rest, k)  # moving b_k there costs (-1)^pos
                    c = index[rest[:pos] + (k,) + rest[pos:]]
                    row[c] = row.get(c, 0) + (ck if (i + j + pos) % 2 == 0 else -ck)
        delta.append({c: v for c, v in row.items() if v})
    shape = len(subsets), len(index)
    return _wrap(*shape, delta), [_wrap(*shape, w) for w in wedges]


def ce_differential(g: LieAlgebra, m: LeftModule, p: int) -> Mat:
    """Matrix of d: Hom(Lambda^p g, M) -> Hom(Lambda^(p+1) g, M), as
    delta_p (x) I_M + sum_a eps_a (x) rho(b_a) (module docstring)."""
    if m.algebra != g:
        raise DimensionError("module is not over the given Lie algebra")
    if p < 0:
        raise DimensionError(f"cochain degree {p} is negative")
    delta, wedges = _bracket_and_wedges(g, p)
    return _sum([kron(delta, Mat.identity(m.dim))]
                + [kron(e, rho) for e, rho in zip(wedges, m.action) if not rho.is_zero()])


def ce_complex(g: LieAlgebra, m: LeftModule, pmax: int) -> CochainComplex:
    """The complex C^0 -> ... -> C^(pmax+1); InputError, before any
    differential is built, when a C^p or the number of degrees exceeds
    COCHAIN_BUDGET."""
    if pmax < 0:
        raise DimensionError("pmax must be nonnegative")
    _check_degrees(pmax + 1)
    dims = [comb(g.dim, p) * m.dim for p in range(pmax + 2)]
    for p, size in enumerate(dims):
        _check_budget(f"the cochain space C^{p}", size)
    diffs = [ce_differential(g, m, p) for p in range(pmax + 1)]
    return CochainComplex(dims, diffs)


def ce_cohomology(g: LieAlgebra, m: LeftModule, pmax: int) -> CohomologyResult:
    """H^p(g, m) for p = 0..pmax; degrees above dim g are reported 0."""
    return cohomology_of_complex(ce_complex(g, m, pmax))


def invariants_dim(g: LieAlgebra, m: LeftModule) -> int:
    """Dimension of the g-invariant subspace of m."""
    if m.dim == 0:
        return 0
    return intersect_kernels(m.action).dim


def ce_dims_via_invariants(g: LieAlgebra, m: LeftModule, pmax: int) -> list:
    """Cohomology dimensions via H^p(g, M) = H^p(g, K) ox M^g.

    Only valid when every finite-dimensional g-module is semisimple
    (for sl2 in characteristic zero, in particular); callers are
    responsible for that hypothesis.  Useful as a fast cross-check
    against the full complex.
    """
    trivial = LeftModule(g, 1, [Mat.zero(1, 1)] * g.dim)
    base = ce_cohomology(g, trivial, pmax).dims
    inv = invariants_dim(g, m)
    return [b * inv for b in base]


# ---------------------------------------------------------------------------
# Closed forms over the one-dimensional algebra.
# ---------------------------------------------------------------------------


def trivial_algebra_closed_form(m: Bimodule, qmax: int) -> list:
    """HL dimensions over the one-dimensional algebra:

        HL^0 = M^h,   HL^odd = M^0 / M.h,   HL^even>0 = M^h / M_0

    where M^h = ker R, M^0 = ker(L + R), M.h = im R and M_0 = im(L + R).
    """
    if m.algebra.dim != 1:
        raise DimensionError("closed form needs the one-dimensional algebra")
    if qmax < 0:
        raise DimensionError("qmax must be nonnegative")
    _check_degrees(qmax)
    L, R = m.left[0], m.right[0]
    rank_r = rank(R)
    rank_lr = rank(L + R)
    mh = m.dim - rank_r
    m0 = m.dim - rank_lr
    odd = m0 - rank_r
    even = mh - rank_lr
    out = [mh]
    for q in range(1, qmax + 1):
        out.append(odd if q % 2 else even)
    return out
