"""Bimodules over Leibniz algebras and the Hom-space module structure.

A bimodule carries a left and a right action subject to

    (LLM)  L([x,y]) = L(x) L(y) - L(y) L(x)
    (LML)  R(y) L(x) = L(x) R(y) - R([x,y])
    (MLL)  R(y) R(x) = R([x,y]) - L(x) R(y)

so the left action alone is a left module.  ``symmetric`` and
``antisymmetric`` build the two standard bimodules attached to a left
module (right action minus the left, respectively zero).  As for
algebras and modules (``algebra.py``), a bimodule is checked when its
matrices come from outside the library, and one that the library
derives is built with ``check=False`` by a construction whose docstring
carries the proof.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError, InputError, ModuleAxiomError
from .linear import (
    Mat,
    SubspaceBasis,
    _Frozen,
    _wrap,
    as_scalar,
    image_basis,
    intersect_kernels,
    lincomb,
    parse_rational,
    restrict_and_project,
)
from .algebra import LeftModule, LeibnizAlgebra, LieAlgebra, _is_int, lift_module, trivial_algebra
from .algebra import _acts_on_pair, _commutator

_ZERO = Fraction(0)

KIND_TRIVIAL = "trivial"
KIND_SYMMETRIC = "symmetric"
KIND_ANTISYMMETRIC = "antisymmetric"
_KINDS = (KIND_TRIVIAL, KIND_SYMMETRIC, KIND_ANTISYMMETRIC)


class Bimodule(_Frozen):
    """An exact Leibniz bimodule; the three axioms are checked on
    construction unless ``check=False``, by the rule of the module
    docstring."""

    __slots__ = ("algebra", "dim", "left", "right")
    _fields = __slots__

    def __init__(
        self,
        algebra: LeibnizAlgebra,
        dim: int,
        left: Sequence[Mat],
        right: Sequence[Mat],
        *,
        check: bool = True,
    ):
        left = tuple(left)
        right = tuple(right)
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise ValueError("need one left and one right matrix per basis element")
        for m in list(left) + list(right):
            if not isinstance(m, Mat) or m.rows != dim or m.cols != dim:
                raise ValueError("action matrix has wrong shape")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        if check:
            failure = _axiom_failure(self)
            if failure is not None:
                raise ModuleAxiomError(failure)

    def __repr__(self):
        return f"Bimodule(dim={self.dim} over dim-{self.algebra.dim} algebra)"

    def left_by(self, coords: Sequence) -> Mat:
        return lincomb(self.left, coords, self.dim)

    def right_by(self, coords: Sequence) -> Mat:
        return lincomb(self.right, coords, self.dim)


def _axiom_failure(b: Bimodule) -> str | None:
    """The first axiom to fail, in a row-major scan of the basis pairs.

    (LLM) forms [L_i, L_j] only at i < j, as ``algebra._action_failure``
    does.  (LML) reads R(c_ij) = [L_i, R_j].  Given (LML), R(c_ij) in
    (MLL) is L_i R_j - R_j L_i, so (MLL) is exactly R_j (L_i + R_i) = 0.
    """
    a = b.algebra
    L, R = b.left, b.right
    both = [x + y for x, y in zip(L, R)]
    for i in range(a.dim):
        for j in range(a.dim):
            if not _acts_on_pair(a.c, L, b.dim, i, j):
                return f"(LLM) fails at basis pair ({i}, {j})"
            if b.right_by(a.c[i][j]) != _commutator(L[i], R[j]):
                return f"(LML) fails at basis pair ({i}, {j})"
            if not (R[j] * both[i]).is_zero():
                return f"(MLL) fails at basis pair ({i}, {j})"
    return None


def check_bimodule(b: Bimodule) -> bool:
    """Whether the three bimodule axioms hold: the check of a bimodule
    built with ``check=False``, and the reference the tests hold the
    derived constructions to."""
    return _axiom_failure(b) is None


def symmetric(h: LeibnizAlgebra, m: LeftModule) -> Bimodule:
    """The symmetric bimodule on ``m``: right action = minus the left.

    ``m`` may be given over ``h`` or over its Lie quotient; the lift
    along the quotient projection is applied automatically.  Built
    unchecked: with R = -L, (LML) and (MLL) both reduce to (LLM), the
    module axiom of the lifted module.
    """
    lifted = lift_module(h, m)
    return Bimodule(h, m.dim, lifted.action, [(-a) for a in lifted.action], check=False)


def antisymmetric(h: LeibnizAlgebra, m: LeftModule) -> Bimodule:
    """The antisymmetric bimodule on ``m``: right action zero.  Built
    unchecked: (LLM) is the module axiom of the lifted module, and with
    R = 0, (LML) and (MLL) both read 0 = 0."""
    lifted = lift_module(h, m)
    zero = Mat.zero(m.dim, m.dim)
    return Bimodule(h, m.dim, lifted.action, [zero] * h.dim, check=False)


def trivial_bimodule(h: LeibnizAlgebra) -> Bimodule:
    """The one-dimensional bimodule with both actions zero, unchecked:
    with L = R = 0 all three axioms read 0 = 0."""
    zero = Mat.zero(1, 1)
    return Bimodule(h, 1, [zero] * h.dim, [zero] * h.dim, check=False)


def _simple_bimodule(h: LeibnizAlgebra, kind: str, m: LeftModule) -> Bimodule:
    """The bimodule of ``kind`` on ``m``; the trivial kind ignores ``m``."""
    if kind == KIND_TRIVIAL:
        return trivial_bimodule(h)
    return (symmetric if kind == KIND_SYMMETRIC else antisymmetric)(h, m)


def _antisymmetric_span(b: Bimodule) -> Mat:
    """[L_0 + R_0 | ... | L_(k-1) + R_(k-1)], behind a dim M x 0 block so
    that the zero algebra stacks too: its columns span M_0."""
    return Mat.hstack([Mat.zero(b.dim, 0)] + [l + r for l, r in zip(b.left, b.right)])


def antisymmetric_kernel(b: Bimodule) -> SubspaceBasis:
    """Span of all (L_i + R_i) v: the largest subbimodule on which the
    quotient becomes symmetric."""
    return image_basis(_antisymmetric_span(b))


def sym_quotient(b: Bimodule) -> Bimodule:
    """The symmetric quotient bimodule M / M_0 with the induced actions.
    ``restrict_and_project`` divides by the columns that span M_0 as they
    stand, in one elimination; with no algebra there are no actions to
    induce and no columns, so the quotient is all of M.

    Built unchecked: ``restrict_and_project`` refuses unless
    M_0 = sum_i (L_i + R_i) M is stable under every L_i and R_i, and a
    bimodule modulo a sub-bimodule is a bimodule.  L_i + R_i maps M into
    M_0, so it is 0 on M / M_0: the quotient is symmetric."""
    induced = restrict_and_project(b.left + b.right, SubspaceBasis.full(b.dim),
                                   _antisymmetric_span(b))
    k = b.algebra.dim
    return Bimodule(b.algebra, induced[0].rows if induced else b.dim, induced[:k], induced[k:],
                    check=False)


def right_invariants(b: Bimodule) -> SubspaceBasis:
    """The common kernel of the right actions (degree-0 cohomology)."""
    return intersect_kernels(b.right, b.dim)


def hom_module_action(g: LeibnizAlgebra, u: LeftModule, v: LeftModule) -> LeftModule:
    """Hom(U, V) with the action (x . f)(a) = x . f(a) - f(x . a).

    The matrix-flattening basis E_ij (1 at row i, column j) is ordered
    row-major by (i, j), matching ``linear.kron``; the action matrix of
    x is rho_v(x) ox I - I ox rho_u(x)^T.  That is a homomorphism
    whenever rho_u and rho_v are: with A = rho_v(x) ox I and B = I ox
    rho_u(x)^T for x and A', B' for y, A commutes with B' and A' with B,
    so the commutator of the two action matrices is [A, A'] + [B, B'],
    which is rho_v([x, y]) ox I - I ox rho_u([x, y])^T.  Hom of two
    modules is a module by construction, and is built unchecked.  Row
    (i, i') holds rho_v(x)[i, j] at (j, i') and -rho_u(x)[j', i'] at
    (i, j'), meeting only at (i, i').
    """
    if u.algebra != g or v.algebra != g:
        raise ModuleAxiomError("both modules must be over the given algebra")
    p, q = v.dim, u.dim
    mats = []
    for au, av in zip(u.action, v.action):
        neg = (-au).transpose()
        rows = []
        for i in range(p):
            vrow = av.nonzeros(i)
            for i2 in range(q):
                acc = {i * q + j2: y for j2, y in neg.nonzeros(i2)}
                for j, x in vrow:
                    c = j * q + i2
                    if c in acc:  # only at c = (i, i2)
                        x += acc[c]
                        if not x:
                            del acc[c]
                            continue
                    acc[c] = x
                rows.append(acc)
        mats.append(_wrap(p * q, p * q, rows))
    return LeftModule(g, p * q, mats, check=False)


class OneDimBimodule(_Frozen):
    """Descriptor of a simple one-dimensional bimodule over the
    one-dimensional algebra: trivial, symmetric (L, -L) or antisymmetric
    (L, 0), with the left eigenvalue ``lam``."""

    __slots__ = ("kind", "lam")
    _fields = __slots__

    def __init__(self, kind: str, lam=0):
        lam = as_scalar(lam)
        if kind not in _KINDS:
            raise InputError(f"unknown bimodule kind {kind!r}")
        if kind == KIND_TRIVIAL and lam != 0:
            raise InputError("the trivial bimodule has eigenvalue 0")
        if kind != KIND_TRIVIAL and lam == 0:
            article = "an" if kind == KIND_ANTISYMMETRIC else "a"
            raise InputError(
                f"{article} {kind} one-dimensional bimodule needs a nonzero eigenvalue")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lam", lam)

    def __repr__(self):
        if self.kind == KIND_TRIVIAL:
            return "OneDimBimodule(trivial)"
        return f"OneDimBimodule({self.kind}, lam={self.lam})"

    def label(self) -> str:
        if self.kind == KIND_TRIVIAL:
            return "K"
        tag = "a" if self.kind == KIND_ANTISYMMETRIC else "s"
        return f"M^{tag}({self.lam})"

    def realize(self, h: LeibnizAlgebra | None = None) -> Bimodule:
        """The actual bimodule over the one-dimensional algebra."""
        if h is None:
            h = trivial_algebra()
        if h.dim != 1:
            raise DimensionError("one-dimensional bimodules live over a 1-dim algebra")
        return _simple_bimodule(h, self.kind, self.underlying_module(h))

    def underlying_module(self, glie: LieAlgebra) -> LeftModule:
        """The underlying 1-dim module over the (1-dim) Lie quotient,
        unchecked: in a one-dimensional left Leibniz algebra
        [e, [e, e]] = [[e, e], e] + [e, [e, e]] forces [e, e] = 0, so
        every 1 x 1 matrix is a module."""
        if glie.dim != 1:
            raise DimensionError("expected the one-dimensional Lie algebra")
        return LeftModule(glie, 1, [Mat(1, 1, [[self.lam]])], check=False)


# ---------------------------------------------------------------------------
# JSON interchange for bimodules.
# ---------------------------------------------------------------------------


def _entry_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise InputError("bimodule entries must be rationals, not booleans")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return parse_rational(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {x!r}") from exc
    raise InputError(f"bimodule entries must be ints or 'num/den' strings, got {x!r}")


def _matrix_from_json(rows, dim: int) -> Mat:
    if not isinstance(rows, list) or len(rows) != dim or any(
        not isinstance(r, list) or len(r) != dim for r in rows
    ):
        raise InputError(f"matrix must be {dim} x {dim}")
    return Mat(dim, dim, [[_entry_from_json(x) for x in r] for r in rows])


def bimodule_from_spec(h: LeibnizAlgebra, spec: dict) -> Bimodule:
    """Build a bimodule from its JSON form.

    Expected shape::

        {"dim": d,
         "left":  [d x d matrix per algebra basis element],
         "right": [d x d matrix per algebra basis element]}

    Entries are ints or "num/den" strings.
    """
    try:
        dim = spec["dim"]
        left = spec["left"]
        right = spec["right"]
    except (TypeError, KeyError) as exc:
        raise InputError(f"bimodule spec missing field: {exc}") from exc
    if not _is_int(dim) or dim < 0:
        raise InputError("bimodule dim must be a nonnegative integer")
    if not isinstance(left, list) or not isinstance(right, list):
        raise InputError("left/right must be lists of matrices")
    if len(left) != h.dim or len(right) != h.dim:
        raise InputError("need one left and one right matrix per algebra basis element")
    lmats = [_matrix_from_json(mat, dim) for mat in left]
    rmats = [_matrix_from_json(mat, dim) for mat in right]
    try:
        return Bimodule(h, dim, lmats, rmats)
    except ModuleAxiomError as exc:
        raise InputError(f"bimodule axioms fail: {exc}") from exc


def bimodule_to_spec(b: Bimodule) -> dict:
    def render(m: Mat):
        return [
            [str(x) if x.denominator != 1 else x.numerator for x in m.row(i)]
            for i in range(m.rows)
        ]

    return {
        "dim": b.dim,
        "left": [render(m) for m in b.left],
        "right": [render(m) for m in b.right],
    }
