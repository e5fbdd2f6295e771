"""Finite-dimensional Leibniz and Lie algebras from structure constants.

An algebra is stored as the table c[i][j][k] with
``[b_i, b_j] = sum_k c[i][j][k] b_k``.  A table that comes from outside
the library is checked on construction against the left Leibniz identity
``[x, [y, z]] = [[x, y], z] + [y, [x, z]]`` on basis triples.  An algebra
or module that the library derives from structures it holds (the Lie
quotient, the hemi-semidirect product, ...) is built with ``check=False``
by a construction whose docstring carries the proof.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import AlgebraAxiomError, InputError, ModuleAxiomError
from .linear import (Mat, SubspaceBasis, _Frozen, _common_int_rows, _complement, _int_product,
                     _wrap, as_scalar, image_basis, lincomb)

_ZERO = Fraction(0)


def _freeze_constants(dim: int, c) -> tuple:
    table = tuple(
        tuple(tuple(as_scalar(x) for x in row) for row in plane) for plane in c
    )
    if len(table) != dim or any(
        len(plane) != dim or any(len(row) != dim for row in plane) for plane in table
    ):
        raise ValueError(f"structure constants do not have shape {dim}^3")
    return table


class LeibnizAlgebra(_Frozen):
    """A left Leibniz algebra given by exact structure constants, checked
    against the left Leibniz identity unless ``check=False``."""

    __slots__ = ("dim", "c", "labels", "_hash")

    def __init__(self, dim: int, c, labels: Sequence[str] | None = None, *, check: bool = True):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c", _freeze_constants(dim, c))
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count mismatch")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", hash((dim, self.c)))  # algebras key lru caches
        if check and not check_left_leibniz(self):
            raise AlgebraAxiomError("structure constants violate the left Leibniz identity")

    # Its own pair, not ``_fields``: a LieAlgebra equals a LeibnizAlgebra
    # with the same table, and the hash is precomputed for lru cache keys.
    # Equal tables are interchangeable, so ``other`` takes this one: the
    # next comparison of the pair meets identical planes and skips them.
    def __eq__(self, other):
        if not (isinstance(other, LeibnizAlgebra) and self.dim == other.dim
                and self.c == other.c):
            return False
        object.__setattr__(other, "c", self.c)
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dim={self.dim})"

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"b{i}"

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        """Bracket of two coordinate vectors."""
        n = self.dim
        out = [_ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            plane = self.c[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                coeff = xi * yj
                for k, ck in enumerate(plane[j]):
                    if ck:
                        out[k] += coeff * ck
        return tuple(out)

    def left_mult(self, i: int) -> Mat:
        """Matrix of y -> [b_i, y]."""
        n = self.dim
        return Mat(n, n, [[self.c[i][j][k] for j in range(n)] for k in range(n)])


class LieAlgebra(LeibnizAlgebra):
    """A Leibniz algebra whose bracket is also antisymmetric.

    Antisymmetry plus the left Leibniz identity is equivalent to the
    Jacobi identity, so a checked construction checks both.
    """

    def __init__(self, dim: int, c, labels: Sequence[str] | None = None, *, check: bool = True):
        super().__init__(dim, c, labels, check=check)
        c = self.c  # antisymmetry: c_ij + c_ji = 0, once per pair j <= i
        if check and any(x + y for i in range(dim) for j in range(i + 1)
                         for x, y in zip(c[i][j], c[j][i])):
            raise AlgebraAxiomError("bracket is not antisymmetric")


def check_left_leibniz(a: LeibnizAlgebra) -> bool:
    """Whether [x,[y,z]] = [[x,y],z] + [y,[x,z]] holds on basis triples,
    that is L([b_i, b_j]) = [L_i, L_j] for L_i = ``a.left_mult(i)``: the
    left-module axiom for ad."""
    return _action_failure(a, [a.left_mult(i) for i in range(a.dim)], a.dim) is None


def _action_failure(a: LeibnizAlgebra, rho: Sequence[Mat], dim: int) -> str | None:
    """Where rho([b_i, b_j]) = [rho(b_i), rho(b_j)] fails, if anywhere.

    Each commutator is formed once, at i < j.  At i >= j the condition is
    rho(c_ij + c_ji) = 0: [rho_i, rho_j] = -[rho_j, rho_i], which is zero
    at i = j and is -rho(c_ji) once the row-major scan has passed (j, i).
    """
    for i in range(a.dim):
        for j in range(a.dim):
            if not _acts_on_pair(a.c, rho, dim, i, j):
                return f"rho([b{i}, b{j}]) differs from the commutator"
    return None


def _acts_on_pair(c, rho: Sequence[Mat], dim: int, i: int, j: int) -> bool:
    """rho(c_ij) = [rho_i, rho_j], given it at every earlier pair of a row-major scan."""
    if i < j:
        return lincomb(rho, c[i][j], dim) == _commutator(rho[i], rho[j])
    return lincomb(rho, [x + y for x, y in zip(c[i][j], c[j][i])], dim).is_zero()


def _commutator(a: Mat, b: Mat) -> Mat:
    """a b - b a as (A B - B A) / (d_a d_b) for the integer A = d_a a, B = d_b b."""
    (arows, da), (brows, db) = _common_int_rows(a), _common_int_rows(b)
    den = da * db
    out = []
    for ab, ba in zip(_int_product(arows, brows), _int_product(brows, arows)):
        for j, v in ba.items():
            ab[j] = ab.get(j, 0) - v
        out.append({j: Fraction(v, den) for j, v in ab.items() if v})
    return _wrap(a.rows, a.cols, out)


def trivial_algebra() -> LeibnizAlgebra:
    """The one-dimensional algebra with zero bracket."""
    return LeibnizAlgebra(1, [[[_ZERO]]], labels=("e",), check=False)


def leibniz_kernel(a: LeibnizAlgebra) -> SubspaceBasis:
    """Span of all squares [x, x], via the basis polarization
    {[b_i, b_i]} together with {[b_i, b_j] + [b_j, b_i] : i < j}."""
    gens = []
    n = a.dim
    for i in range(n):
        gens.append(a.c[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(tuple(a.c[i][j][k] + a.c[j][i][k] for k in range(n)))
    return image_basis(Mat.from_cols(gens, rows=n))


class QuotientData(_Frozen):
    """Canonical Lie quotient of a Leibniz algebra.

    ``complement`` lists the basis indices of the original algebra whose
    classes form the quotient basis, the positions off the last nonzero
    entries of the vectors of the Leibniz kernel, ``projection`` sends
    original coordinates to quotient coordinates along the kernel (both
    from ``linear._complement``), and ``lie`` is the quotient algebra
    itself, whose bracket of the classes of b_i and b_j is the
    projection of [b_i, b_j].

    ``lie`` is built unchecked.  Leib(h), the span of the squares, is a
    two-sided ideal: [Leib, h] = 0 by the left Leibniz identity, and
    [x, [y, y]] = [[x, y], y] + [y, [x, y]] is a polarized square.  So
    the projected bracket is the bracket of h/Leib(h).  It is
    antisymmetric, as [x, y] + [y, x] lies in Leib(h), and it satisfies
    the Leibniz identity as the image of h.
    """

    __slots__ = ("algebra", "kernel", "complement", "projection", "lie")

    def __init__(self, algebra: LeibnizAlgebra):
        kernel = leibniz_kernel(algebra)
        n = algebra.dim
        comp, prows = _complement(_common_int_rows(kernel.matrix())[0], kernel.dim)
        nq = len(comp)
        d = prows[0][comp[0]] if comp else 1  # the projection is the identity on comp
        proj = _wrap(nq, n, ({j: Fraction(v, d) for j, v in row.items()} for row in prows))
        cq = [[None] * nq for _ in range(nq)]
        for ai, i in enumerate(comp):
            for bj, j in enumerate(comp):
                cq[ai][bj] = proj.apply(algebra.c[i][j])
        lie = LieAlgebra(
            nq,
            cq,
            labels=tuple(algebra.label(i) for i in comp) if algebra.labels else None,
            check=False,
        )
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "complement", tuple(comp))
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "lie", lie)


@lru_cache(maxsize=None)
def quotient_data(a: LeibnizAlgebra) -> QuotientData:
    """The canonical Lie quotient of ``a``, built once per algebra.

    The quotient is a Lie algebra by the proof in ``QuotientData``; for
    an algebra that is already Lie it is an equal algebra with the
    identity projection.  Algebras are immutable, so the result can be
    shared.
    """
    return QuotientData(a)


class LeftModule(_Frozen):
    """A left module over a Leibniz (or Lie) algebra.

    ``action[i]`` is the matrix of b_i acting on the module.  The axiom
    ``rho([b_i, b_j]) = [rho(b_i), rho(b_j)]`` is checked unless
    ``check=False``, by the rule of the module docstring.
    """

    __slots__ = ("algebra", "dim", "action")
    _fields = __slots__

    def __init__(self, algebra: LeibnizAlgebra, dim: int, action: Sequence[Mat], *, check: bool = True):
        action = tuple(action)
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis element")
        for m in action:
            if not isinstance(m, Mat) or m.rows != dim or m.cols != dim:
                raise ValueError("action matrix has wrong shape")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "action", action)
        if check:
            err = _action_failure(algebra, action, dim)
            if err is not None:
                raise ModuleAxiomError(err)

    def act_by(self, coords: Sequence) -> Mat:
        """Action matrix of an arbitrary algebra element."""
        return lincomb(self.action, coords, self.dim)

    def __repr__(self):
        return f"LeftModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


def _zero_module(g: LeibnizAlgebra, dim: int) -> LeftModule:
    """The module of dimension ``dim`` on which ``g`` acts by zero,
    unchecked: zero matrices satisfy rho([x, y]) = 0 = [rho(x), rho(y)]."""
    zero = Mat.zero(dim, dim)
    return LeftModule(g, dim, [zero] * g.dim, check=False)


def adjoint_module(g: LieAlgebra) -> LeftModule:
    """A Lie algebra acting on itself by left multiplication, unchecked: the
    left Leibniz identity of ``g`` is its module axiom."""
    return LeftModule(g, g.dim, [g.left_mult(i) for i in range(g.dim)], check=False)


def lift_module(h: LeibnizAlgebra, m: LeftModule) -> LeftModule:
    """Present ``m`` as a module over ``h`` itself.

    Accepts a module over ``h`` (returned unchanged) or over the
    canonical Lie quotient of ``h`` (lifted, unchecked, along the
    projection: an algebra homomorphism, so the lift is a module).
    """
    if m.algebra == h:
        return m
    data = quotient_data(h)
    if m.algebra == data.lie:
        mats = [m.act_by(data.projection.col(i)) for i in range(h.dim)]
        return LeftModule(h, m.dim, mats, check=False)
    raise ModuleAxiomError("module is over neither the algebra nor its Lie quotient")


def hemi_semidirect(g: LieAlgebra, m: LeftModule) -> LeibnizAlgebra:
    """The hemi-semidirect product of a Lie algebra with a left module.

    On M + g the bracket is [(a, x), (b, y)] = (x.b, [x, y]); the module
    coordinates come first, then the Lie algebra coordinates.  The
    result is a genuine (typically non-Lie) Leibniz algebra, built
    unchecked: on (a, x), (b, y), (c, z) the left Leibniz identity reads
    x.(y.c) = [x, y].c + y.(x.c) in the first slot, the module axiom,
    and is the Jacobi identity of g in the second.  Its squares
    (x.a, [x, x]) = (x.a, 0) all land in the module summand; a ``g``
    with a nonzero square [b_x, b_x] of a basis element is refused.
    """
    if m.algebra != g:
        raise ModuleAxiomError("module is not over the given Lie algebra")
    if any(any(g.c[x][x]) for x in range(g.dim)):
        raise AlgebraAxiomError("square escapes the module summand")
    dm, dg = m.dim, g.dim
    n = dm + dg
    zero_row = (_ZERO,) * n
    c = [[zero_row for _ in range(n)] for _ in range(n)]
    for x in range(dg):
        rho = m.action[x]
        for b in range(dm):
            c[dm + x][b] = tuple(rho[k, b] for k in range(dm)) + (_ZERO,) * dg
        for y in range(dg):
            c[dm + x][dm + y] = (_ZERO,) * dm + tuple(g.c[x][y])
    labels = None
    if g.labels is not None:
        labels = tuple(f"m{i}" for i in range(dm)) + tuple(g.labels)
    return LeibnizAlgebra(n, c, labels=labels, check=False)


# ---------------------------------------------------------------------------
# JSON interchange for algebras.
# ---------------------------------------------------------------------------


def _is_int(x) -> bool:
    """A JSON integer; JSON booleans decode to bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def algebra_from_spec(spec: dict) -> LeibnizAlgebra:
    """Build an algebra from its JSON form.

    Expected shape::

        {"dim": d,
         "bracket": [[[k, num, den], ...] per (i, j) ...],
         "labels": [...]}        # optional

    ``bracket[i][j]`` lists the nonzero coefficients of [b_i, b_j] as
    ``[k, num, den]`` triples.
    """
    try:
        dim = spec["dim"]
        bracket = spec["bracket"]
    except (TypeError, KeyError) as exc:
        raise InputError(f"algebra spec missing field: {exc}") from exc
    if not _is_int(dim) or dim < 0:
        raise InputError("algebra dim must be a nonnegative integer")
    if not isinstance(bracket, list) or len(bracket) != dim or any(
        not isinstance(row, list) or len(row) != dim
        or any(not isinstance(cell, list) for cell in row)
        for row in bracket
    ):
        raise InputError("bracket table must be dim x dim")
    from .cohomology import _check_budget  # cohomology imports this module
    _check_budget("the bracket table of the algebra", dim ** 3, "entries")
    c = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for triple in bracket[i][j]:
                try:
                    k, num, den = triple
                except (TypeError, ValueError) as exc:
                    raise InputError("bracket entries must be [k, num, den] triples") from exc
                if not _is_int(k) or not 0 <= k < dim:
                    raise InputError(f"bracket index {k} out of range")
                if not _is_int(num) or not _is_int(den) or den == 0:
                    raise InputError("bracket coefficients must be exact integers num/den")
                c[i][j][k] += Fraction(num, den)
    labels = spec.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != dim
    ):
        raise InputError("labels must list one name per basis element")
    return LeibnizAlgebra(dim, c, labels=labels)


def algebra_to_spec(a: LeibnizAlgebra) -> dict:
    """Inverse of algebra_from_spec (nonzero coefficients only)."""
    bracket = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            entries = []
            for k in range(a.dim):
                x = a.c[i][j][k]
                if x:
                    entries.append([k, x.numerator, x.denominator])
            row.append(entries)
        bracket.append(row)
    spec = {"dim": a.dim, "bracket": bracket}
    if a.labels is not None:
        spec["labels"] = list(a.labels)
    return spec
