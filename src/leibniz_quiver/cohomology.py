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

Over a semisimple Lie quotient g = h / Leib(h) Cartan's formula gives
every HL^q in closed form, with no complex (Leib(h), the span of the
squares, is recalled below):

    HL^0 = M^R,    dim HL^1 = dim Hom_g(h, M^R) - dim M^g + dim(M^g n M^R),
    HL^q = 0 for q >= 2,

with M^R the right invariants, M^g the invariants of the left action
and g acting on h by ad and on M^R by L.

  1. Leib(h) acts by zero on every CL^q: for x in Leib(h), L_x = 0 and
     ad(x) = 0, so A^(q)_x = 0 by the recursion.  So h acts on CL^q
     through g, and with g semisimple each CL^q is a semisimple g-module
     (Weyl).  d is equivariant: d_q A^(q)_a = d_q i_a d_q = A^(q+1)_a d_q
     by Cartan's formula for q >= 1, and for q = 0 by (LML), as in the
     grading argument below.
  2. g acts by zero on HL^q for q >= 1 (above).  Taking invariants is
     exact on semisimple modules, and d is equivariant, so the invariant
     cocycles modulo d of the invariant cochains are (HL^q)^g = HL^q:
     HL^q = H^q((CL^.)^g) for q >= 1.
  3. Split off the first slot, CL^q = Hom(h, CL^(q-1)): by the recursion
     A^(q)_a is the Hom action (x . f)(y) = x . f(y) - f([x, y]), so
     (CL^q)^g = Hom_g(h, CL^(q-1)), and on such an f row block a of d_q
     is A^(q)_a f - d_(q-1) i_a f = -d_(q-1)(f(b_a)): d_q f = -d_(q-1) o f.
     At q = 1 the cocycles are Hom_g(h, ker d_0) = Hom_g(h, M^R) and the
     coboundaries are d_0(M^g), of dimension dim M^g - dim(M^g n M^R),
     ker d_0 being M^R.  That is the formula for HL^1.
  4. Hom_g(h, -) is exact on semisimple modules, so for q >= 2 the
     cohomology of Hom_g(h, CL^(.-1)) in degree q is
     HL^q = Hom_g(h, HL^(q-1)).  HL^(q-1) is a trivial g-module (step 2),
     and an equivariant map into one kills every x . y = [x, y]:
     HL^q = Hom(h / [h, h], HL^(q-1)).
  5. h is perfect: g = [g, g] as g is semisimple, so h = [h, h] + Leib(h),
     and every square [y, y] lies in [h, h].  Hence HL^q = 0 for q >= 2.

The zeros are a theorem, as the Whitehead identity behind
``ce_dims_via_invariants`` is.  One predicate of this module,
``_killing_form_nondegenerate``, picks the route of every E2 row
(``_hl_row``) and column (``_ce_dims``) of ``ext``: a nondegenerate
Killing form says, by Cartan's criterion, that g is semisimple, and
then the rows take this closed form and the columns the invariants.
M^R comes from ``right_invariants``, M^g and (M^R)^g = M^g n M^R from
one kernel each, and Hom_g(h, M^R) as the invariants of the one Hom
construction, ``hom_module_action`` of ``h_as_lie_module`` and HL^0.
Over any other g both come from their complexes.

Cartan's formula also cuts the complex down above degree 0.  The
argument needs no particular basis, only an element b of h with
[b, b] = 0 whose ad(b) and L_b are diagonalizable over Q.  Write h in
an eigenbasis of ad(b) that contains b = b_g and M in an eigenbasis of
L_b: [b, b_t] = alpha_t b_t and b . m_j = mu_j m_j, with alpha_g = 0.
By the recursion A_b = A^(q)_g is diagonal on CL^q, with eigenvalue
mu_j - sum_i alpha_(t_i) at the basis cochain (t, j); call its
eigenspaces C_lambda.

  * d commutes with A_b.  For q >= 1, d_q A^(q)_b and A^(q+1)_b d_q
    both equal d_q i_b d_q, by Cartan's formula in degrees q and q + 1
    and d.d = 0.  For q = 0, row block a of A^(1)_b d_0 is
    -L_b R_a + R_([b, b_a]), which the bimodule axiom (LML) makes
    -R_a L_b, row block a of d_0 L_b.  So each d_q maps C_lambda into
    C_lambda, and the complex is the direct sum of the complexes C_lambda.
  * i_b preserves each C_lambda: it takes the coordinate (g, t, j) to
    (t, j), and alpha_g = 0 gives the two the same eigenvalue.
  * For q >= 1 and lambda != 0, Cartan's formula on C_lambda reads
    lambda id = i_b d + d i_b.  A cocycle z of C_lambda^q is therefore
    the coboundary d(i_b z / lambda) of a cochain of C_lambda^(q-1), and
    C_lambda is acyclic in every degree q >= 1.

Hence HL^q = H^q(C_0) for q >= 1, where C_0 spans the cochains (t, j)
with sum_i alpha_(t_i) = mu_j.  The formula does not hold in degree 0
(i_b d_0 = -R_b, not L_b), so HL^0 stays ker d_0 on all of M.  An
element of the Leibniz kernel has ad(b) = 0 and L_b = 0, diagonal with
every weight zero, and grading by it makes C_0 the whole complex; so
some weight must be nonzero.  ``leibniz_cohomology`` takes the first
basis element that qualifies (``_weights``).  It grades by D b, with D
the lcm of the denominators of the alpha_t and mu_j: D b has the
eigenspaces of b, each C_lambda is C_(D lambda) of D b with the same
cochains in the same order, and every eigenvalue is an integer, so
blocks are keyed, added and compared as ints.  The block of d_q at
eigenvalue lambda reads, in row block a, A^(q)_a from lambda to
lambda + alpha_a and d_(q-1) at lambda + alpha_a.  So C_0 up to degree
qmax needs, in degree q, only the blocks at 0 and at sums of at most
qmax - q of the alphas, and the complex is built upward once.

With no basis element that qualifies, ``toral.split_toral`` looks for a
split toral element x, exactly (de Graaf, Lie Algebras: Theory and
Algorithms, 2000; Jacobson, Lie Algebras, 1962).  The Leibniz kernel
Leib(h), spanned by the squares, acts by zero from the left: by the
left Leibniz identity [[y, y], z] = 0, and by (LLM) L_([y, y]) = 0.  So
ad and L of an element depend only on its class xbar in the Lie
quotient h / Leib(h) of ``quotient_data``.

  * Candidates are the integer vectors xbar of ``toral._candidates`` in
    the quotient's coordinates, a fixed list of at most 49.
  * A necessary test first: when ad(xbar) and L_xbar are diagonalizable
    over Q with some eigenvalue nonzero, tr(ad(xbar)^2) + tr(L_xbar^2),
    the sum of the squares of their eigenvalues, is positive.  It is a
    quadratic form in xbar, with its Gram matrix built once per call.
    Over so(3) x_hs so(3) it is negative definite, and every candidate
    stops here.
  * Then the eigenspaces (``linear._eigenspaces`` at the eigenvalues of
    ``toral._zigzag``): a candidate passes only when those of ad(xbar)
    span h and those of L_xbar span M.
  * The lift: x is the eigenvalue-0 component of the lift y of xbar at
    the quotient's basis indices.  The projection pi onto the quotient
    is an algebra map, so pi ad(y) = ad(xbar) pi, and pi takes the
    lambda-component of y to the lambda-component of pi(y) = xbar, which
    is 0 for lambda != 0 since [xbar, xbar] = 0.  So every other
    component lies in Leib(h), where ad and L vanish: ad(x) = ad(y),
    L_x = L_y, and [x, x] = ad(y) x = 0 as x has eigenvalue 0.
  * h and M are then carried into the eigenbases, x first
    (``toral._transport``), and the pass grades the transported pair
    with ``_weights``, which accepts b_0 = x: ad(x) and L_x are diagonal
    there, [x, x] = 0, and the form test left some eigenvalue nonzero.

With no candidate left, or if ``_weights`` ever found nothing in the
transported pair, the pass keeps the caller's pair and is ungraded,
which is exact: the search changes how fast an answer comes, never the
answer.

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

Both complexes are read in one pass per complex (``CochainComplex``) on
integer rows, which checks each differential against the coboundaries
and eliminates it, so d.d = 0 is verified on construction.  The Leibniz
pass builds those rows itself.  With E the lcm of every denominator in
h.c, m.left and m.right (``_integer_tables``), it builds E A^(q)_a and
E d_q by the recursion above from E c, E L_a and E R_a, and that is
exact: A^(0)_a = L_a, each lift adds I (x) A^(q-1)_a and
-ad(b_a)^T (x) I, d_0 = -[R_a] and d_q = [A^(q)_a] - I (x) d_(q-1), so
every entry of A^(q)_a and of d_q is a sum of entries of L, R and c
with signs, E times it is an integer, and the recursion, being linear,
builds E d_q from the scaled tables step for step.  The weights' D
divides E.  A positive scalar changes no kernel, no pivot column, no
probe decision and no content-reduced echelon row of the elimination
(the ``linear`` docstring: every row it reduces is a positive multiple
of the row it reduces from the unscaled matrix), so every basis is the
one the Fractions would give.  Fractions are made only where a caller
reads them: the cocycle bases, by back-substitution; the coboundary
bases, the pivot columns of E d_q divided by E; and
``leibniz_differential``, ``cochain_action`` and the ``differentials``
of a Leibniz complex, divided by E when they are read.  A complex given
as Mats, as the CE complex is, has each differential scaled once, by
the lcm of its denominators, and takes the same pass.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

from .errors import ComplexError, DimensionError, InputError
from .linear import (
    Mat,
    SubspaceBasis,
    _Frozen,
    _basis,
    _common_int_rows,
    _common_ints,
    _fraction_rows,
    _int_kernel_and_pivots,
    _int_product,
    _int_rows,
    _read_off,
    _sum,
    _trace_form,
    _wrap,
    intersect_kernels,
    kron,
    rank,
    restrict_and_project,
)
from .algebra import LeftModule, LeibnizAlgebra, LieAlgebra, _zero_module, quotient_data
from .bimodule import Bimodule, hom_module_action, right_invariants

# The most rows a matrix of a Leibniz pass may have, and the most entries
# of its weight table (``_checked_grading``): HL^5(hemi_sl2(2), V_2^a)
# builds blocks of at most 25 152 rows; the ungraded complex to degree 5
# maps into all of CL^6 (139 968).
COCHAIN_BUDGET = 50_000

# ``_check_budget`` writes a count from here up only as over a power of
# ten, and ``_Grading`` stores no larger block size.
_SIZE_CAP = 1 << 4096


class CochainComplex(_Frozen):
    """A finite run of a cochain complex: spaces and differentials, and
    its cohomology, computed in one pass over the differentials.

    ``dims[q]`` is the dimension of the degree-q space and
    ``differentials[q]`` maps degree q to degree q+1; shapes must chain
    and all compositions must vanish (ComplexError otherwise).  So every
    complex that exists has been verified, and ``cohomology_of_complex``
    returns the groups that the pass stored.

    The pass (``_build``) reads in each degree q the integer rows of
    c_q d_q for a constant c_q > 0: E for a Leibniz complex, whose blocks
    are built in integers (module docstring), and the lcm of the
    denominators of d_q for a complex given as Mats, each scaled once
    here.  It handles each degree once, with B_(q-1), the coboundary
    basis of degree q (empty in degree 0), and the integer rows of
    c_(q-1) B_(q-1), the pivot columns of c_(q-1) d_(q-1):

      1. it checks d_q . B_(q-1) = 0 as the product of those two integer
         matrices.  A factor scaled by a positive constant scales the
         product, so it is zero exactly when the rational one is; and
         each factor is scaled as a whole: one scale per row would
         change the matrix ([1/2; -1/3] scales to [3; -2], but to
         [1; -1] one row at a time, and [1 1] times the latter is 0);
      2. it eliminates a copy of the rows, for the cocycles Z_q and the
         pivot columns, under the bound

             rank d_q <= dim C^q - rank d_(q-1);

      3. it certifies B_(q-1) in Z_q against the same integer columns
         (below) and stores the group;
      4. the pivot columns of c_q d_q are c_q B_q, for the next degree,
         and divided by c_q they are B_q.

    Why d_q . B_(q-1) = 0 is all of d_q . d_(q-1) = 0: B_(q-1) is the
    pivot columns of d_(q-1), and they span im d_(q-1) once the
    elimination of d_(q-1) has found every pivot, that is, once its
    bound is at least rank d_(q-1).  By induction it is: d_0 is
    eliminated with the bound dim C^0, its column count, and d_(q-1)
    under dim C^(q-1) - rank d_(q-2), which is at least rank d_(q-1)
    because im d_(q-2) lies in ker d_(q-1), as d_(q-1) . B_(q-2) = 0 was
    checked before that elimination.  So the product has rank d_(q-1)
    columns rather than dim C^(q-1), and it rests on the same
    elimination core as every basis the pass reports.

    The bound is reached exactly when the degree-q group is zero;
    otherwise every row is read.  Below dim C^q the bound also lets the
    elimination defer the rows that a null-vector probe finds spanned
    already (see the ``linear`` docstring): where the bound is met, as
    for d_3 and d_4 of the sheared V_1^a over V_1 x_hs sl2, those rows
    are never reduced.

    Every degree checks that its coboundaries B lie in its cocycles Z,
    without a second elimination.  Z is the kernel basis of
    ``_int_kernel_and_pivots``, the identity at the free columns of d_q, so
    the coordinates of B in Z can only be B's own rows there, and B lies
    in the span of Z exactly when Z B[free] = B: one integer product
    (``linear._read_off``) of Z scaled to integers and the rows of
    c_(q-1) B_(q-1) that step 1 read.  A pass is a proof, since the
    product writes each coboundary as a combination of the cocycles
    returned; a wrong cocycle basis can only fail it.

    The elimination consumes its copy of the rows.  The rows themselves
    stay with the complex: ``differentials`` returns the Mats given, or,
    for a Leibniz complex, its integer blocks divided by E.
    """

    __slots__ = ("dims", "_differentials", "_groups")

    def __init__(self, dims: Sequence[int], differentials: Sequence[Mat]):
        dims = tuple(dims)
        differentials = tuple(differentials)
        if len(dims) != len(differentials) + 1:
            raise ComplexError("need one differential per consecutive pair of spaces")
        for q, d in enumerate(differentials):
            if d.cols != dims[q] or d.rows != dims[q + 1]:
                raise ComplexError(f"differential {q} has shape {d.rows}x{d.cols}, "
                                   f"expected {dims[q + 1]}x{dims[q]}")
        self._build(dims, differentials, map(_common_int_rows, differentials))

    @property
    def differentials(self) -> tuple:
        """d_q from degree q to degree q + 1, for each q: the Mats given
        to the constructor, or, for a Leibniz complex, its integer blocks
        of E d_q divided by E (module docstring), anew on each read."""
        return tuple(d if isinstance(d, Mat) else
                     _wrap(self.dims[q + 1], self.dims[q], _fraction_rows(*d))
                     for q, d in enumerate(self._differentials))

    def _build(self, dims: tuple, differentials, scaled) -> None:
        """Set the spaces ``dims``, the ``differentials`` and the groups
        of the one pass (class docstring) over ``scaled``, which yields,
        degree by degree, the integer rows of c_q d_q and the constant
        c_q > 0.  The rows are read and never changed, as the elimination
        consumes a copy, and ``differentials`` is read after the pass, so
        a list that ``scaled`` fills as it goes may be given."""
        groups = []
        coboundaries, brows = SubspaceBasis.empty(dims[0]), [{}] * dims[0]
        for q, (rows, den) in enumerate(scaled):
            if coboundaries.dim and any(any(acc.values()) for acc in _int_product(rows, brows)):
                raise ComplexError(f"d({q}) . d({q - 1}) is nonzero")
            cocycles, pivots = _int_kernel_and_pivots([dict(r) for r in rows], dims[q],
                                                      dims[q] - coboundaries.dim)
            zrows, dz = _common_int_rows(cocycles.matrix())
            if not (found := _read_off(zrows, cocycles.dim, dz, brows)) or found[1]:
                raise ComplexError(f"coboundaries escape cocycles in degree {q}")
            groups.append(DegreeGroup(cocycles.dim - coboundaries.dim, cocycles, coboundaries))
            if q < len(dims) - 2:  # the pivot columns of c_q d_q; B_q = those of d_q
                at = {j: k for k, j in enumerate(pivots)}
                brows = [{at[j]: v for j, v in row.items() if j in at} for row in rows]
                coboundaries = _basis(_wrap(dims[q + 1], len(pivots), _fraction_rows(brows, den)))
        for name, value in (("dims", dims), ("_differentials", tuple(differentials)),
                            ("_groups", tuple(groups))):
            object.__setattr__(self, name, value)


class DegreeGroup(_Frozen):
    """Cohomology in one degree: dimension plus witness bases."""

    __slots__ = ("dim", "cocycles", "coboundaries")

    def __init__(self, dim: int, cocycles: SubspaceBasis, coboundaries: SubspaceBasis):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cocycles", cocycles)
        object.__setattr__(self, "coboundaries", coboundaries)


class CohomologyResult(_Frozen):
    """Per-degree cohomology of a complex, degrees 0..qmax."""

    __slots__ = ("groups",)

    def __init__(self, groups: Sequence[DegreeGroup]):
        object.__setattr__(self, "groups", tuple(groups))

    @property
    def dims(self) -> list:
        return [g.dim for g in self.groups]

    def __getitem__(self, q: int) -> DegreeGroup:
        return self.groups[q]


def cohomology_of_complex(cx: CochainComplex) -> CohomologyResult:
    """Kernels modulo images of a verified complex, through degree
    len(differentials) - 1, with cocycle and coboundary bases: the groups
    that the one pass of ``CochainComplex`` computed and stored when the
    complex was built."""
    return CohomologyResult(cx._groups)


# ---------------------------------------------------------------------------
# The Leibniz complex.
# ---------------------------------------------------------------------------


def _check_budget(space: str, size: int, unit: str = "") -> None:
    """Refuse, before it is allocated, a space of dimension above
    COCHAIN_BUDGET, or with ``unit`` (such as "degrees") more than
    COCHAIN_BUDGET of those; ``space`` names it in the message."""
    if size > COCHAIN_BUDGET:
        if size >= _SIZE_CAP:  # too long for str(); 0.301029995 < log10 2
            size = f"over 10^{(size.bit_length() - 1) * 301029995 // 10 ** 9}"
        amount = f"{size} {unit}" if unit else f"dimension {size}"
        raise InputError(f"{space} has {amount}, above the budget of {COCHAIN_BUDGET}")


def _check_degrees(last: int) -> None:
    """Refuse, before any per-degree list is built, a run of degrees
    0..last longer than COCHAIN_BUDGET: each space may be small (every
    CE space above dim g is zero), but the run is not."""
    _check_budget(f"the degree range 0..{last}", last + 1, "degrees")


def _weights(h: LeibnizAlgebra, m: Bimodule) -> tuple:
    """(alpha, mu) of the first basis element b = b_g with ad(b) and L_b
    diagonal, ad(b) b = 0 and some eigenvalue nonzero: the eigenvalues of
    ad(b) on the basis of h and of L_b on the basis of M, all times D,
    the lcm of their denominators, as ints.  These are the eigenvalues of
    D b, whose eigenspaces are those of b.  All zero when no basis
    element qualifies.  A basis element of the Leibniz kernel has
    ad(b) = 0 and L_b = 0, so it passes the first three tests and fails
    the last."""
    for g, plane in enumerate(h.c):  # plane[t] = [b_g, b_t]
        alpha = tuple(row[t] for t, row in enumerate(plane))
        if alpha[g] or any(x for t, row in enumerate(plane) for s, x in enumerate(row) if s != t):
            continue
        left = m.left[g]
        if any(k != j for j in range(m.dim) for k, _ in left.nonzeros(j)):
            continue
        mu = tuple(left[j, j] for j in range(m.dim))
        if any(alpha) or any(mu):
            ints = _common_ints(alpha + mu)[0]
            return tuple(ints[:h.dim]), tuple(ints[h.dim:])
    return (0,) * h.dim, (0,) * m.dim


class _Grading:
    """The eigenvalue blocks of A_b on CL^0..CL^(top+1) (module
    docstring), for the integer eigenvalues ``alpha`` of ad(b) on the
    basis of h and ``mu`` of L_b on the basis of M that ``_weights``
    gives, those of D b.  All zero is the ungraded complex: one block
    per degree, the whole space.

    The basis cochain (t, j) has eigenvalue mu_j - sum_i alpha_(t_i).  A
    block lists its cochains in increasing flat order: first slot
    t_1 = 0, 1, ... in turn, each followed by the block of eigenvalue
    nu + alpha_(t_1) one degree below.  ``members`` and ``pos`` list the
    cochains of M per eigenvalue and their places in its block, for every
    eigenvalue.  ``need[q]``, for q <= top, holds 0 and every eigenvalue
    nu + alpha_a at which the nonempty blocks of ``need[q + 1]`` read d_q
    or A^(q), and ``need[top + 1]`` = {0}.

    ``sizes[q]`` maps eigenvalues of CL^q to the sizes of their blocks,
    but only in the window |nu| <= (top + 1 - q) reach, with reach the
    largest |alpha_a| (0 with no alpha).  It drops only entries that no
    code reads:

      * ``need[q]`` holds sums of at most top - q alphas;
      * beside ``need[q]``, ``offsets``, ``_differential_blocks``,
        ``_lift_actions`` and the block count of ``_checked_grading``
        read ``sizes[q + 1]`` at ``need[q]`` itself, ``sizes[q]`` at most
        one alpha away and ``sizes[q - 1]`` at most two: in ``sizes[p]``
        at sums of at most top + 1 - p alphas, inside its window
        (``cochain_action`` lifts to degree top + 1 only on the ungraded
        pass, where reach is 0);
      * a kept size of CL^q is a sum of sizes of CL^(q-1) one alpha
        away, all inside the wider window of degree q - 1 and so kept.

    Over the one-dimensional algebra every alpha is 0 ([b, b] lies in
    Leib(h), where ad vanishes), and the table holds at most one entry
    per degree however many weights M has.  The table counts its own
    entries against COCHAIN_BUDGET after each degree, and degree q takes
    dim h steps per entry of degree q - 1, so it costs at most dim h
    times the budget before a refusal.  With every alpha 0 (reach 0: the
    ungraded pass and the one-dimensional algebra), ``need[q - 1]`` is
    {0} and d_(q-1) has exactly the rows of the one entry of degree q,
    so the table refuses a d_(q-1) above the budget, with the text and
    threshold of ``_checked_grading``, right after building degree q
    and before the next one.

    A graded table can hold one entry per degree and still grow: that of
    alpha = (0, 1, 1), mu = (5001,) and top 5000 stores 2^q at eigenvalue
    5001 - q.  So a size is stored only up to _SIZE_CAP = 2^4096, and
    each entry has at most 4097 bits.  Every count compared with the budget is then exact
    or at least the cap, and every comparison goes as it would uncapped.
    A built block reads only exact sizes: its columns, and the runs it
    is cut into, are at most its rows (alpha_g = 0, so block nu of CL^q
    is the run of first slot g in block nu of CL^(q+1)), which the
    budget bounds.  A count at least the cap is written by
    ``_check_budget`` as over a power of ten that the true count exceeds
    too.
    """

    __slots__ = ("alpha", "mu", "members", "pos", "sizes", "need")

    def __init__(self, alpha: Sequence, mu: Sequence, top: int):
        self.alpha, self.mu = alpha, mu
        self.members, self.pos = {}, []
        for j, x in enumerate(mu):
            block = self.members.setdefault(x, [])
            self.pos.append(len(block))
            block.append(j)
        reach = max(map(abs, alpha), default=0)
        window = (top + 1) * reach
        self.sizes = [Counter({x: len(js) for x, js in self.members.items() if abs(x) <= window})]
        entries = len(self.sizes[0])
        for q in range(1, top + 2):
            window -= reach
            here = Counter()
            for a in alpha:
                for nu, s in self.sizes[-1].items():
                    if abs(nu - a) <= window:
                        here[nu - a] += s
            self.sizes.append(Counter({nu: min(s, _SIZE_CAP) for nu, s in here.items()}))
            entries += len(here)
            _check_budget(f"the weight table of CL^0..CL^{q}", entries, "entries")
            if not reach:  # need[q - 1] = {0}: d_(q-1) is the one block here[0]
                _check_budget(f"the block differential d_{q - 1}", here[0], "rows")
        need = [{0}]
        for q in range(top, 0, -1):  # below[nu + a] > 0 makes block nu of CL^q nonempty
            below = self.sizes[q - 1]
            need.append({0} | {nu + a for nu in need[-1] for a in alpha if below[nu + a]})
        self.need = need[::-1] + [{0}]

    def offsets(self, q: int, nu) -> list:
        """Where the run of each first slot starts in block nu of CL^q."""
        below, out, at = self.sizes[q - 1], [], 0
        for a in self.alpha:
            out.append(at)
            at += below[nu + a]
        return out


def _integer_tables(h: LeibnizAlgebra, m: Bimodule) -> tuple:
    """(E, minus, left, right) for a Leibniz pass: E the lcm of every
    denominator in h.c, m.left and m.right, ``minus[a][t]`` the terms
    (s, -E [b_a, b_t]_s) with a nonzero entry, and ``left[a]`` and
    ``right[a]`` the integer rows of E L_a and E R_a.  Every block the
    pass builds from them is E times the block of d_q or A^(q) (module
    docstring)."""
    den = lcm(*[x.denominator for plane in h.c for row in plane for x in row],
              *[x.denominator for a in m.left + m.right for i in range(a.rows)
                for _, x in a.nonzeros(i)])
    minus = [[[(s, -x.numerator * (den // x.denominator)) for s, x in enumerate(row) if x]
              for row in plane] for plane in h.c]
    return den, minus, [_int_rows(a, den) for a in m.left], [_int_rows(a, den) for a in m.right]


def _degree_zero(g: _Grading, mats: Sequence[list], nu, negate: bool) -> list:
    """Per basis element b_a of h, the block of the integer rows
    ``mats[a]`` (negated if ``negate``) from eigenvalue nu of M to
    nu + alpha_a, as block-local rows.  Both L_a and R_a raise
    eigenvalues by alpha_a (the bimodule axioms (LLM) and (LML) with
    x = b); ComplexError if an entry says otherwise."""
    out = []
    for rows, a in zip(mats, g.alpha):
        block = []
        for j in g.members.get(nu + a, ()):
            row = {}
            for k, x in rows[j].items():
                if g.mu[k] != nu:
                    raise ComplexError("the bimodule does not respect the grading")
                row[g.pos[k]] = -x if negate else x
            block.append(row)
        out.append(block)
    return out


def _lift_actions(minus: list, g: _Grading, q: int, below: dict) -> dict:
    """The blocks of A^(q)_a = I_h (x) A^(q-1)_a - ad(b_a)^T (x) I at the
    nonempty eigenvalues nu of ``g.need[q]``, from ``below``, those of
    A^(q-1)_a, and ``minus`` of ``_integer_tables``: ``{nu: [rows of
    A^(q)_a from nu to nu + alpha_a, for each a]}``.  The run of first
    slot t holds A^(q-1)_a at nu + alpha_t, and -[b_a, b_t]_s times the
    identity into the run of slot s, whose block is the same because
    ad(b) is a derivation."""
    alpha, sizes = g.alpha, g.sizes[q - 1]
    out = {}
    for nu in g.need[q]:
        if not g.sizes[q][nu]:
            continue
        off = g.offsets(q, nu)
        blocks = []
        for a, terms in enumerate(minus):
            rows = []
            for t, (shift, at) in enumerate(zip(off, alpha)):
                src = below.get(nu + at)
                run = src[a] if src else ({},) * sizes[nu + at + alpha[a]]
                ad = [(off[s], x) for s, x in terms[t]]
                for r, src_row in enumerate(run):
                    row = {j + shift: x for j, x in src_row.items()}
                    for base, x in ad:
                        k = base + r
                        v = row.get(k)
                        if v is None:
                            row[k] = x
                        elif v := v + x:
                            row[k] = v
                        else:
                            del row[k]
                    rows.append(row)
            blocks.append(rows)
        out[nu] = blocks
    return out


def _differential_blocks(right: list, g: _Grading, q: int, actions: dict | None,
                         below: dict | None) -> dict:
    """``{nu: rows of d_q at nu}`` for nu in ``g.need[q]``.  Row block a
    at nu is -R_a (``right`` of ``_integer_tables``) for q = 0 and
    otherwise A^(q)_a at nu, whose rows in ``actions`` it takes over,
    minus d_(q-1) at nu + alpha_a (from ``below``) shifted into the run
    of first slot a."""
    out = {}
    for nu in g.need[q]:
        if q == 0:
            rows = [row for block in _degree_zero(g, right, nu, True) for row in block]
        else:
            rows = []
            own = actions.get(nu)
            for a, (shift, at) in enumerate(zip(g.offsets(q, nu), g.alpha)):
                block = own[a] if own else [{} for _ in range(g.sizes[q][nu + at])]
                for row, sub in zip(block, below.get(nu + at, ())):
                    for j, x in sub.items():
                        k = j + shift
                        v = row.get(k)
                        if v is None:
                            row[k] = -x
                        elif v := v - x:
                            row[k] = v
                        else:
                            del row[k]
                rows += block
        out[nu] = rows
    return out


def _block_differentials(h: LeibnizAlgebra, m: Bimodule, g: _Grading, top: int):
    """Yield (E, the blocks of E d_q) for q = 0, ..., top, the blocks as
    ``_differential_blocks`` gives them from ``_integer_tables(h, m)``,
    in one upward pass.  A^(q) is lifted to A^(q+1) before d_q takes over
    its rows, and each degree's blocks are dropped once the next degree
    is built."""
    den, minus, left, right = _integer_tables(h, m)
    actions = {nu: _degree_zero(g, left, nu, False) for nu in g.need[0] if g.sizes[0][nu]}
    blocks = None
    for q in range(top + 1):
        lifted = _lift_actions(minus, g, q + 1, actions) if q < top else None
        blocks = _differential_blocks(right, g, q, actions, blocks)
        yield den, blocks
        actions = lifted


def _check_pass(h: LeibnizAlgebra, m: Bimodule, top: int) -> None:
    """The checks every Leibniz entry point makes past its sign check,
    before any matrix is built, for the degrees up to top + 1: the run
    of degrees 0..top+1, the algebra of m, then the bimodule M against
    COCHAIN_BUDGET (CL^0, which every route reads whole)."""
    _check_degrees(top + 1)
    if m.algebra != h:
        raise DimensionError("bimodule is not over the given algebra")
    _check_budget("the cochain space CL^0", m.dim)


def _checked_grading(h: LeibnizAlgebra, m: Bimodule, top: int,
                     graded: bool = False) -> tuple:
    """(h, m, g): the grading g of a pass that builds d_0, ..., d_top, and
    the algebra and bimodule it grades, after the checks of ``_check_pass``.
    The rule is the same on every route, and it counts only what the
    pass builds: past those checks, against COCHAIN_BUDGET, the entries
    of the weight table (counted by ``_Grading`` as it builds them) and
    the rows of each d_q's blocks.  Ungraded, the one block of d_q is all
    of CL^(q+1).

    Graded, the pass is graded by one rule, ``_weights``: on h and m
    themselves or, where it finds no basis element, on the pair that
    ``toral.split_toral`` returns, h and m in the eigenbases of a split
    toral element, which are then returned in their place.  With neither,
    and whenever ``graded`` is False, the pass is ungraded."""
    _check_pass(h, m, top)
    alpha, mu = (0,) * h.dim, (0,) * m.dim
    if graded and h.dim:
        alpha, mu = _weights(h, m)
        if not (any(alpha) or any(mu)):
            from .toral import split_toral  # compiled only where a search runs
            found = split_toral(h, m)
            weights = _weights(*found) if found else (alpha, mu)
            if any(weights[0]) or any(weights[1]):
                (h, m), (alpha, mu) = found, weights
    g = _Grading(alpha, mu, top)
    for q in range(top + 1):
        _check_budget(f"the block differential d_{q}",
                      sum(g.sizes[q + 1][nu] for nu in g.need[q]), "rows")
    return h, m, g


def leibniz_differential(h: LeibnizAlgebra, m: Bimodule, n: int) -> Mat:
    """Matrix of d: CL^n -> CL^(n+1), refused as ``leibniz_complex(h, m, n)`` is."""
    if n < 0:
        raise DimensionError(f"cochain degree {n} is negative")
    g = _checked_grading(h, m, n)[2]
    for den, blocks in _block_differentials(h, m, g, n):
        pass
    return _wrap(g.sizes[n + 1][0], g.sizes[n][0], _fraction_rows(blocks[0], den))


def _zero_block_complex(h: LeibnizAlgebra, m: Bimodule, g: _Grading,
                        qmax: int) -> CochainComplex:
    """The eigenvalue-0 blocks of CL^0 -> ... -> CL^(qmax+1), verified by
    the one pass of ``CochainComplex`` on their integer rows, each block
    built as the pass reaches its degree."""
    kept = []

    def scaled():
        for den, blocks in _block_differentials(h, m, g, qmax):
            kept.append((blocks[0], den))
            yield kept[-1]

    cx = object.__new__(CochainComplex)
    cx._build(tuple(g.sizes[q][0] for q in range(qmax + 2)), kept, scaled())
    return cx


def leibniz_complex(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> CochainComplex:
    """The complex CL^0 -> ... -> CL^(qmax+1), built in one ungraded pass
    and refused, before anything is built, as ``_checked_grading`` says."""
    if qmax < 0:
        raise DimensionError("qmax must be nonnegative")
    return _zero_block_complex(h, m, _checked_grading(h, m, qmax)[2], qmax)


def leibniz_cohomology(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> CohomologyResult:
    """HL^q(h, m) for q = 0..qmax, with cocycle/coboundary bases.

    HL^0 is ker d_0 on all of M, ``right_invariants(m)`` in the
    coordinates of m, on every route: where C_0^0 is all of M it is the
    degree-0 group of the pass too, as ker(-[R_a]) = ker([R_a]) and a
    grading with every weight of M zero forces R_a = 0 at alpha_a != 0.
    For q >= 1 the groups are those of the eigenvalue-0 block C_0 of
    the grading element (module docstring), as
    ``cohomology_of_complex`` returns them: their bases live in the
    coordinates of C_0^q, the block's cochains in ``_Grading`` order, not
    in CL^q.  The grading element is the first basis element that
    ``_weights`` finds, and C_0 is a block of the cochains of the bases
    of h and m.  With none, it is the split toral element of
    ``toral.split_toral``, and C_0 is a block of the cochains of its
    eigenbases, those of the transported algebra and bimodule.  With
    neither, C_0 is the whole complex and the bases are those of all of
    Z^q and B^q, which ``cohomology_of_complex(leibniz_complex(h, m,
    qmax))`` gives for any input.  ``_checked_grading`` decides the
    budget.
    """
    if qmax < 0:
        raise DimensionError("qmax must be nonnegative")
    groups = cohomology_of_complex(_zero_block_complex(
        *_checked_grading(h, m, qmax, graded=True), qmax)).groups
    z0 = right_invariants(m)
    return CohomologyResult((DegreeGroup(z0.dim, z0, SubspaceBasis.empty(m.dim)),) + groups[1:])


def cochain_action(h: LeibnizAlgebra, m: Bimodule, q: int) -> list:
    """Action matrices of the h basis on CL^q = Hom(h^(ox q), M):

        (x . f)(y_1, ..., y_q) = x . f(y_1, ..., y_q)
                                 - sum_i f(y_1, ..., [x, y_i], ..., y_q)

    The Leibniz kernel acts by zero (left multiplications by squares
    vanish), so this is really an action of the Lie quotient.  It is
    what the pass to degree q - 1 lifts to CL^q, refused as that pass is.
    """
    if q < 0:
        raise DimensionError(f"cochain degree {q} is negative")
    g = _checked_grading(h, m, q - 1)[2]
    den, minus, left, _ = _integer_tables(h, m)
    actions = {0: _degree_zero(g, left, 0, False)}
    for p in range(1, q + 1):
        actions = _lift_actions(minus, g, p, actions)
    size = g.sizes[q][0]
    return [_wrap(size, size, _fraction_rows(rows, den)) for rows in actions.get(0, [[]] * h.dim)]


def induced_module(m: Bimodule, sub: SubspaceBasis) -> LeftModule:
    """The left action of ``m`` induced on span(sub), for a kernel basis
    ``sub``, as a module over the Lie quotient of its algebra;
    StabilityError unless span(sub) is stable.
    The induced maps form a representation, and (LLM) makes L vanish on
    every [x, x] and [x, y] + [y, x], which span the Leibniz kernel, so the
    module is built unchecked."""
    data = quotient_data(m.algebra)
    induced = restrict_and_project(m.left, sub, Mat.zero(sub.ambient_dim, 0))
    return LeftModule(data.lie, sub.dim, [induced[i] for i in data.complement], check=False)


@lru_cache(maxsize=None)
def h_as_lie_module(h: LeibnizAlgebra) -> LeftModule:
    """h as a module over its Lie quotient by left brackets, built once per
    algebra and unchecked: the left Leibniz identity of h is the axiom
    for left multiplication, which kills the Leibniz kernel."""
    data = quotient_data(h)
    return LeftModule(data.lie, h.dim, [h.left_mult(i) for i in data.complement], check=False)


def _invariants_dim(mats: Sequence[Mat], n: int) -> int:
    """dim of the common kernel of ``mats`` in K^n, the invariants of the
    action they give; 0 with no elimination when n = 0."""
    return intersect_kernels(mats, n).dim if n else 0


def _hl_row(h: LeibnizAlgebra, m: Bimodule, top: int) -> tuple:
    """(z0, [HL^0(h, m), ..., HL^top(h, m)]): the HL^0 cocycle basis
    ``right_invariants(m)`` and the groups as modules over the Lie
    quotient g of h, for top >= -1, after the checks of ``_check_pass``.
    With top = -1 there is only z0, and no complex on any route.

    One route rule for every E2 row and column of ``ext``, the one of
    ``_ce_dims``: when ``_killing_form_nondegenerate(g)`` holds, g is
    semisimple (Cartan's criterion) and the dims of HL^1..HL^top are the
    closed form of the module docstring, HL^1 from the formula and every
    group above it zero.  For top >= 1 that route builds Hom(h, M^R),
    and counts its dim h * dim M^R cochains against COCHAIN_BUDGET
    first.  Over any other g they are those of
    ``leibniz_cohomology(h, m, top)``, whose HL^0 cocycles are z0.  On
    both routes HL^0 is the left action induced on z0, and every HL^q
    with q >= 1 is the zero-action module of its dimension: by Cartan's
    formula h acts by zero there, and the bases of the graded route
    live in the eigenvalue-0 block C_0^q, on which h has no action to
    restrict."""
    _check_pass(h, m, top)
    if top < 0:
        return right_invariants(m), []
    data = quotient_data(h)
    if _killing_form_nondegenerate(data.lie):
        z0 = right_invariants(m)
        hl0 = induced_module(m, z0)
        dims = []
        if top:
            _check_budget("the space Hom(h, HL^0)", h.dim * z0.dim)
            hom = hom_module_action(data.lie, h_as_lie_module(h), hl0)
            dims = [_invariants_dim(hom.action, hom.dim)
                    - _invariants_dim([m.left[i] for i in data.complement], m.dim)
                    + _invariants_dim(hl0.action, z0.dim)] + [0] * (top - 1)
    else:
        cohom = leibniz_cohomology(h, m, top)
        z0, dims = cohom[0].cocycles, cohom.dims[1:]
        hl0 = induced_module(m, z0)
    zero = {d: _zero_module(data.lie, d) for d in set(dims)}  # one module per dimension
    return z0, [hl0] + [zero[d] for d in dims]


def hl_module_structure(h: LeibnizAlgebra, m: Bimodule, qmax: int) -> list:
    """[HL^0(h, m), ..., HL^qmax(h, m)] as modules over the Lie quotient
    of h, by the route rule of ``_hl_row``: the closed form over a
    semisimple quotient, and the verified complex of
    ``leibniz_cohomology(h, m, qmax)`` over any other, or over every
    quotient where ``_killing_form_nondegenerate`` is patched to say
    False."""
    if qmax < 0:
        raise DimensionError("qmax must be nonnegative")
    return _hl_row(h, m, qmax)[1]


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


@lru_cache(maxsize=None)
def _killing_form_nondegenerate(g: LieAlgebra) -> bool:
    """Whether the Killing form tr(ad_i ad_j) of g is nondegenerate,
    which by Cartan's criterion says that g is semisimple."""
    return rank(Mat.from_rows(_trace_form([g.left_mult(i) for i in range(g.dim)]))) == g.dim


@lru_cache(maxsize=None)
def _trivial_ce_dims(g: LieAlgebra, pmax: int) -> tuple:
    """dim H^p(g, K) for p = 0..pmax, from the complex with trivial
    one-dimensional coefficients, computed once per algebra and degree."""
    return tuple(ce_cohomology(g, _zero_module(g, 1), pmax).dims)


def ce_dims_via_invariants(g: LieAlgebra, m: LeftModule, pmax: int) -> list:
    """Cohomology dimensions via H^p(g, M) = H^p(g, K) ox M^g.

    The identity holds for semisimple g (Whitehead's lemmas), sl2 in
    particular, and can fail otherwise.  So g is refused with InputError
    unless its Killing form is nondegenerate (Cartan's criterion), a
    check made once per algebra, as is H^*(g, K) per algebra and pmax.
    A zero-dimensional M has M^g = 0 without an elimination; H^*(g, K)
    is still read, so its degree range is still checked.  ``_ce_dims``
    reads every E2 column of ``ext`` this way over a semisimple quotient.
    """
    if not _killing_form_nondegenerate(g):
        raise InputError("the invariants shortcut needs a semisimple Lie algebra, "
                         "and the Killing form is degenerate")
    inv = _invariants_dim(m.action, m.dim)  # dim M^g
    return [b * inv for b in _trivial_ce_dims(g, pmax)]


def _ce_dims(g: LieAlgebra, m: LeftModule, pmax: int) -> list:
    """dim H^p(g, m) for p = 0..pmax, as an E2 column of ``ext`` reads
    it, by the route rule of the rows (``_hl_row``): through invariants
    (``ce_dims_via_invariants``) when ``_killing_form_nondegenerate(g)``
    holds, from the Chevalley-Eilenberg complex (``ce_cohomology``)
    otherwise."""
    if _killing_form_nondegenerate(g):
        return ce_dims_via_invariants(g, m, pmax)
    return ce_cohomology(g, m, pmax).dims


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
