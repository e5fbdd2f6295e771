"""Representation theory of sl2 over the rationals.

The fixed basis is (e, h, f) with [h, e] = 2e, [h, f] = -2f and
[e, f] = h.  The simple module of highest weight m has the weight basis
v_0, ..., v_m with

    h . v_k = (m - 2k) v_k
    e . v_k = k (m - k + 1) v_{k-1}
    f . v_k = v_{k+1}

Decomposition into simples counts highest-weight vectors: every simple
summand V_m contributes one line to ker e, on which h acts by m, so the
multiplicity of V_m is the dimension of the eigenspace of h|_{ker e} at
m (``linear._eigenspaces`` over m = 0, 1, 2, ...).  In a weight basis
ker e has a basis of weight vectors, h|_{ker e} is diagonal and the
eigenspaces are read off; any other basis takes one elimination per m.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import NonIntegralWeightError
from .linear import Mat, _Frozen, _eigenspaces, kernel_basis, restrict_and_project
from .algebra import LeftModule, LeibnizAlgebra, LieAlgebra, hemi_semidirect
from .bimodule import hom_module_action
from .cohomology import _check_budget

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def sl2() -> LieAlgebra:
    """The rational Lie algebra sl2 in the (e, h, f) basis, unchecked: the
    table is antisymmetric, and the Jacobi identity on its one basis
    triple reads [e, [h, f]] + [h, [f, e]] + [f, [e, h]] = -2h + 0 + 2h = 0."""
    z3 = (_ZERO, _ZERO, _ZERO)
    c = [[z3, z3, z3], [z3, z3, z3], [z3, z3, z3]]
    E, H, F = 0, 1, 2
    c[H][E] = (Fraction(2), _ZERO, _ZERO)
    c[E][H] = (Fraction(-2), _ZERO, _ZERO)
    c[H][F] = (_ZERO, _ZERO, Fraction(-2))
    c[F][H] = (_ZERO, _ZERO, Fraction(2))
    c[E][F] = (_ZERO, _ONE, _ZERO)
    c[F][E] = (_ZERO, Fraction(-1), _ZERO)
    return LieAlgebra(3, c, labels=("e", "h", "f"), check=False)


class SL2Module(_Frozen):
    """A finite-dimensional sl2-module (a LeftModule over sl2)."""

    __slots__ = ("underlying",)
    _fields = __slots__

    def __init__(self, underlying: LeftModule):
        if underlying.algebra != sl2():
            raise ValueError("SL2Module requires a module over sl2")
        object.__setattr__(self, "underlying", underlying)

    @property
    def dim(self) -> int:
        return self.underlying.dim

    @property
    def e(self) -> Mat:
        return self.underlying.action[0]

    @property
    def h(self) -> Mat:
        return self.underlying.action[1]

    @property
    def f(self) -> Mat:
        return self.underlying.action[2]

    def __repr__(self):
        return f"SL2Module(dim={self.dim})"


@lru_cache(maxsize=None)
def simple_module(m: int) -> SL2Module:
    """The simple sl2-module of highest weight m (dimension m + 1), in the
    weight basis of the module docstring (Humphreys, section 7.2), built
    unchecked.  h is diagonal, and e and f send v_k to multiples of the
    weight vectors of weights m - 2k + 2 and m - 2k - 2, so [h, e] = 2e
    and [h, f] = -2f; [e, f] v_k = ((k + 1)(m - k) - k(m - k + 1)) v_k =
    (m - 2k) v_k = h v_k, the terms at k = m and k = 0 being 0."""
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    _check_budget(f"the module V_{m}", m + 1)
    n = m + 1
    e = [{k + 1: (k + 1) * (m - k)} for k in range(m)] + [{}]
    h = [{k: m - 2 * k} for k in range(n)]
    f = [{}] + [{k: 1} for k in range(m)]
    mats = [Mat.from_sparse(n, n, rows) for rows in (e, h, f)]
    return SL2Module(LeftModule(sl2(), n, mats, check=False))


def tensor(u: SL2Module, v: SL2Module) -> SL2Module:
    """Tensor product with the diagonal action x (u ox v) =
    (x u) ox v + u ox (x v), built as the Hom module Hom(V*, U): its
    action rho_U(x) ox I - I ox (-rho_V(x)^T)^T is rho_U(x) ox I + I ox
    rho_V(x), in the same row-major order."""
    return SL2Module(hom_module_action(sl2(), dual(v).underlying, u.underlying))


def dual(v: SL2Module) -> SL2Module:
    """Dual module, x acting by minus the transpose: the Hom module
    Hom(V, V_0), whose action is 0 ox I - I ox rho_V(x)^T."""
    return SL2Module(hom_module_action(sl2(), v.underlying, simple_module(0).underlying))


def direct_sum(*mods: SL2Module) -> SL2Module:
    """Block-diagonal direct sum of sl2-modules, unchecked: block-diagonal
    matrices multiply blockwise, so a sum of representations is one."""
    total = sum(m.dim for m in mods)
    mats = []
    for idx in range(3):
        rows = []
        off = 0
        for m in mods:
            a = m.underlying.action[idx]
            rows.extend({off + j: x for j, x in a.nonzeros(i)} for i in range(m.dim))
            off += m.dim
        mats.append(Mat.from_sparse(total, total, rows))
    return SL2Module(LeftModule(sl2(), total, mats, check=False))


class WeightMultiset(_Frozen):
    """Multiset of highest weights, i.e. a finite multiset of simples."""

    __slots__ = ("mults",)

    def __init__(self, mults: dict):
        clean = {}
        for w in sorted(mults):
            k = mults[w]
            if k < 0 or w < 0:
                raise ValueError("weights and multiplicities must be nonnegative")
            if k:
                clean[int(w)] = int(k)
        object.__setattr__(self, "mults", clean)

    # Its own pair, not ``_fields``: its field is a dict.
    def __eq__(self, other):
        return isinstance(other, WeightMultiset) and self.mults == other.mults

    def __hash__(self):
        return hash(tuple(sorted(self.mults.items())))

    def __repr__(self):
        inner = ", ".join(f"{w}: {k}" for w, k in sorted(self.mults.items()))
        return f"WeightMultiset({{{inner}}})"

    def multiplicity(self, w: int) -> int:
        return self.mults.get(w, 0)

    def module_dim(self) -> int:
        return sum((w + 1) * k for w, k in self.mults.items())


def decompose(v: SL2Module) -> WeightMultiset:
    """Decompose into simples by the highest-weight rule.

    The highest-weight vectors span ker e, which h preserves; the
    multiplicity of V_m is the dimension of the eigenspace of h on ker e
    at m.  Raises NonIntegralWeightError when those eigenspaces, for m =
    0..dim-1, do not span ker e or the weights do not account for the
    module, and StabilityError when h does not preserve ker e (neither
    can happen for an actual sl2-module over the rationals, but both
    guard corrupted inputs).
    """
    d = v.dim
    top = kernel_basis(v.e)
    [h_top] = restrict_and_project([v.h], top, Mat.zero(d, 0))
    spaces = _eigenspaces(h_top, range(d))
    if spaces is None:
        raise NonIntegralWeightError(
            f"the weights 0..{d - 1} do not span the {top.dim} highest-weight vectors")
    out = WeightMultiset({m: space.dim for m, space in spaces})
    if out.module_dim() != d:
        raise NonIntegralWeightError("weight multiset does not account for the module")
    return out


def clebsch_gordan(m: int, n: int) -> WeightMultiset:
    """The decomposition of V_m ox V_n: weights m+n, m+n-2, ..., |m-n|.

    >>> clebsch_gordan(2, 2).mults
    {0: 1, 2: 1, 4: 1}
    """
    if m < 0 or n < 0:
        raise ValueError("weights must be nonnegative")
    return WeightMultiset({w: 1 for w in range(abs(m - n), m + n + 1, 2)})


def hom_dim(a: WeightMultiset, b: WeightMultiset) -> int:
    """dim of the space of sl2-maps between semisimple modules with the
    given decompositions (sum over shared weights of the products)."""
    return sum(k * b.multiplicity(w) for w, k in a.mults.items())


@lru_cache(maxsize=None)
def hemi_sl2(n: int) -> LeibnizAlgebra:
    """The hemi-semidirect product V_n x_hs sl2, module basis first.

    Simple as a Leibniz algebra for n >= 1, with Leibniz kernel V_n and
    Lie quotient sl2.
    """
    if n < 1:
        raise ValueError("hemi-semidirect weight must be >= 1")
    _check_budget(f"the bracket table of V_{n} x_hs sl2", (n + 4) ** 3)
    return hemi_semidirect(sl2(), simple_module(n).underlying)
