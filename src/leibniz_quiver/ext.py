"""Ext groups between simple bimodules of a Leibniz algebra.

Two standing tools:

* base-change groups: Ext^q against the symmetrized enveloping module
  of the Lie quotient, computed as Ker(f) / Coker(f) / Hom(h, HL^(q-1))
  where f: X -> Hom(h, HL^0) sends m to x |-> x.m + m.x;
* two first-quadrant spectral sequences converging to Ext(Y^a, X) and
  Ext(Z^s, X), with E2 terms given by Lie-algebra cohomology of the
  quotient with Hom coefficient modules.  This module only builds the
  Hom coefficients and assembles the pages: the route of every row and
  of every column is picked in ``cohomology`` by one predicate on the
  quotient, ``_killing_form_nondegenerate``.  Over a semisimple
  quotient the rows HL^q come from the closed form of ``_hl_row`` and
  the columns through invariants; over any other from the Leibniz and
  the Chevalley-Eilenberg complexes (``_hl_row``, ``_ce_dims``).

Nothing here assumes the sequences collapse: a certificate is computed
from the E2 zero pattern and degreewise dimensions are only assembled
when every potentially nonzero higher differential has zero source or
zero target.  Closed-form counterparts (the one-dimensional-algebra
table, the hemi-semidirect degree-1 and degree-2 formulas) are kept
independent of the linear-algebra stack so they can serve as oracles.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    CollapseNotCertifiedError,
    DimensionError,
    InputError,
    StabilityError,
    UnsupportedDegreeError,
)
from .linear import (Mat, SubspaceBasis, _Frozen, _kernel_coordinates, kernel_basis, rank,
                     restrict_and_project)
from .algebra import LeftModule, LeibnizAlgebra, _is_int, _zero_module, lift_module, quotient_data
from .bimodule import (
    Bimodule,
    OneDimBimodule,
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    _simple_bimodule,
    hom_module_action,
)
from .cohomology import (_ce_dims, _check_budget, _check_degrees, _hl_row, h_as_lie_module,
                         hl_module_structure, induced_module)
from .repsl2 import SL2Module, WeightMultiset, decompose, hemi_sl2, sl2, simple_module


class E2Page(_Frozen):
    """Second page of a cohomological spectral sequence, as a grid of
    dimensions only: dims[p][q] for 0 <= p <= pmax, 0 <= q <= qmax."""

    __slots__ = ("pmax", "qmax", "dims")

    def __init__(self, pmax: int, qmax: int, dims: Sequence[Sequence[int]]):
        if pmax < 0 or qmax < 0:
            raise DimensionError("page bounds must be nonnegative")
        grid = tuple(tuple(int(x) for x in row) for row in dims)
        if len(grid) != pmax + 1 or any(len(r) != qmax + 1 for r in grid):
            raise DimensionError("dims grid does not match pmax/qmax")
        if any(x < 0 for row in grid for x in row):
            raise DimensionError("negative dimension in E2 grid")
        object.__setattr__(self, "pmax", pmax)
        object.__setattr__(self, "qmax", qmax)
        object.__setattr__(self, "dims", grid)

    def entry(self, p: int, q: int) -> int:
        """dims[p][q], with positions outside the grid counting as 0."""
        if 0 <= p <= self.pmax and 0 <= q <= self.qmax:
            return self.dims[p][q]
        return 0


class CollapseCertificate(_Frozen):
    """Outcome of the zero-pattern collapse check.

    Certified (witness None) when no differential d_r (r >= 2) can be
    nonzero on dimension grounds; otherwise witness = (r, p, q) locates
    the first potentially nonzero differential out of position (p, q).
    """

    __slots__ = ("witness",)

    def __init__(self, witness: tuple | None = None):
        object.__setattr__(self, "witness", witness)

    @property
    def certified(self) -> bool:
        return self.witness is None


class ExtResult(_Frozen):
    """Degreewise Ext dimensions together with the collapse certificate
    and the E2 page they were assembled from."""

    __slots__ = ("dims", "certificate", "page")

    def __init__(self, dims: Sequence[int], certificate: CollapseCertificate, page: E2Page):
        object.__setattr__(self, "dims", tuple(int(x) for x in dims))
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "page", page)


# ---------------------------------------------------------------------------
# Simple-bimodule descriptors.
# ---------------------------------------------------------------------------


class SimpleDescriptor(_Frozen):
    """A simple bimodule over a hemi-semidirect product, by kind and
    highest weight.  Weight 0 collapses to the trivial kind (V_0 with
    either symmetrization is the trivial bimodule)."""

    __slots__ = ("kind", "weight")
    _fields = __slots__

    def __init__(self, kind: str, weight: int = 0):
        if kind not in (KIND_TRIVIAL, KIND_SYMMETRIC, KIND_ANTISYMMETRIC):
            raise InputError(f"unknown bimodule kind {kind!r}")
        if not _is_int(weight):
            raise InputError(f"weight must be an int, not {weight!r}")
        if weight < 0:
            raise InputError("weight must be nonnegative")
        if weight == 0:
            kind = KIND_TRIVIAL
        elif kind == KIND_TRIVIAL:
            raise InputError("trivial kind carries weight 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "weight", weight)

    def __repr__(self):
        return f"SimpleDescriptor({self.kind!r}, {self.weight})"

    def label(self) -> str:
        if self.kind == KIND_TRIVIAL:
            return "V_0"
        tag = "s" if self.kind == KIND_SYMMETRIC else "a"
        return f"V_{self.weight}^{tag}"

    def underlying_module(self, glie) -> LeftModule:
        """The underlying simple module of the Lie quotient (trivial or
        a weight module of sl2)."""
        if self.kind == KIND_TRIVIAL:
            return _zero_module(glie, 1)
        if glie != sl2():
            raise InputError("weight descriptors need an sl2 quotient")
        return simple_module(self.weight).underlying

    def realize(self, h: LeibnizAlgebra) -> Bimodule:
        """The bimodule over h this descriptor names, refused as
        ``underlying_module`` refuses the Lie quotient of h."""
        return _simple_bimodule(h, self.kind, self.underlying_module(quotient_data(h).lie))


# ---------------------------------------------------------------------------
# Base-change groups.
# ---------------------------------------------------------------------------


def _cokernel_module(hom: LeftModule, f: Mat) -> LeftModule:
    """Coker f = hom / span f with the induced action, for a map f into
    hom given as it is, dependent columns and all; its image must be a
    submodule (StabilityError otherwise), so the induced maps form a
    representation, built unchecked.  Over the zero algebra there is no
    action to induce and the dimension is dim hom - rank f."""
    induced = restrict_and_project(hom.action, SubspaceBasis.full(hom.dim), f)
    dim = induced[0].rows if induced else hom.dim - rank(f)
    return LeftModule(hom.algebra, dim, induced, check=False)


def _into_hom(stacked: Mat, k: int, dx: int) -> Mat:
    """The map x |-> (b_j |-> B_j x) from K^dx to Hom(h, K^dv) for
    ``stacked = [B_0 | ... | B_(k-1)]``, k = dim h, in the row-major Hom
    coordinates (i, j) |-> i * k + j.  Callers stack behind a dv x 0
    block, so that dim h = 0 stacks too."""
    rows = [{} for _ in range(stacked.rows * k)]
    for i in range(stacked.rows):
        for col, v in stacked.nonzeros(i):
            rows[i * k + col // dx][col % dx] = v
    return Mat.from_sparse(stacked.rows * k, dx, rows)


def base_change_map(h: LeibnizAlgebra, x: Bimodule, z0: SubspaceBasis) -> Mat:
    """The map f: X -> Hom(h, HL^0(h, X)), f(m)(y) = y.m + m.y, with
    HL^0 in the coordinates of its cocycle basis ``z0``, the right
    invariants ``right_invariants(x)``, which are the degree-0 cocycles
    of ``leibniz_cohomology(h, x, ...)`` on every route.

    ``z0`` is a kernel basis, so f is read off it with no elimination
    (``linear._kernel_coordinates``).  The values of f land in HL^0
    because R_y(L_x + R_x) = 0 follows from the bimodule axioms;
    StabilityError if they do not, or if ``z0`` is not a kernel basis.
    Its columns need not be independent: ``ext_base_sym`` takes Ker f
    from one elimination and divides by f itself for Coker f.
    """
    if x.algebra != h:
        raise DimensionError("bimodule is not over the given algebra")
    sums = [x.left[j] + x.right[j] for j in range(h.dim)]
    stacked = _kernel_coordinates(z0.matrix(), Mat.hstack([Mat.zero(x.dim, 0), *sums]))
    if stacked is None:
        raise StabilityError("f does not land in the degree-0 cocycles")
    return _into_hom(stacked, h.dim, x.dim)


def ext_base_sym(h: LeibnizAlgebra, x: Bimodule, qmax: int) -> list:
    """Ext^q against the symmetrized enveloping module of the Lie
    quotient for q = 0..qmax, as modules over the quotient; their dims
    are the counts.

    q = 0 is Ker(f), q = 1 is Coker(f), and q >= 2 is the full Hom
    space Hom(h, HL^(q-1)(h, X)) with the usual action.  The degree-0
    cocycles z0 that give f and the carriers HL^0..HL^(qmax-1) come from
    one ``cohomology._hl_row(h, x, qmax - 1)``, by its route rule: the
    closed form over a semisimple Lie quotient, the complex over any
    other.  qmax = 0 reads only z0, with no complex on any route.
    """
    if qmax < 0:
        raise DimensionError("degree must be nonnegative")
    z0, carriers = _hl_row(h, x, qmax - 1)
    f = base_change_map(h, x, z0)
    ker = induced_module(x, kernel_basis(f))
    if qmax == 0:
        return [ker]
    hmod = h_as_lie_module(h)
    homs = [hom_module_action(hmod.algebra, hmod, w) for w in carriers]
    return [ker, _cokernel_module(homs[0], f)] + homs[1:]


# ---------------------------------------------------------------------------
# The two spectral sequences.
# ---------------------------------------------------------------------------


def _page_from_columns(h: LeibnizAlgebra, src: LeftModule, carriers: Sequence[LeftModule],
                       pmax: int) -> E2Page:
    """The page whose column q is H^*(h_Lie, Hom(src, carriers[q])):
    each Hom is built here and read by ``cohomology._ce_dims``, whose
    route rule is the one that gave the carriers."""
    glie = quotient_data(h).lie
    cols = [_ce_dims(glie, hom_module_action(glie, src, w), pmax) for w in carriers]
    return E2Page(pmax, len(cols) - 1, [[col[p] for col in cols] for p in range(pmax + 1)])


def e2_first(h: LeibnizAlgebra, y: LeftModule, x: Bimodule, pmax: int, qmax: int) -> E2Page:
    """E2 of the sequence converging to Ext(Y^a, X):

        E2^{pq} = H^p(h_Lie, Hom(Y, HL^q(h, X))).

    The rows HL^q are ``hl_module_structure(h, x, qmax)``: the closed
    form over a semisimple Lie quotient, where every row above q = 1 is
    zero, and the Leibniz complex over any other, by the one route rule
    of ``cohomology`` that also picks the route of the columns.
    """
    return _page_from_columns(h, y, hl_module_structure(h, x, qmax), pmax)


def e2_second(h: LeibnizAlgebra, z: LeftModule, x: Bimodule, pmax: int, qmax: int) -> E2Page:
    """E2 of the sequence converging to Ext(Z^s, X):

        E2^{pq} = H^p(h_Lie, Hom(Z, ext_base_sym(h, X, qmax)[q])).
    """
    return _page_from_columns(h, z, ext_base_sym(h, x, qmax), pmax)


def certify_collapse(page: E2Page) -> CollapseCertificate:
    """Certified iff every differential d_r (r >= 2) has zero source or
    zero target on the page; grid positions outside count as zero.  The
    witness names the first potential differential in scan order
    (p ascending, then q, then r)."""
    for p in range(page.pmax + 1):
        for q in range(page.qmax + 1):
            if page.dims[p][q] == 0:
                continue
            for r in range(2, min(page.pmax - p, q + 1) + 1):
                if page.entry(p + r, q - r + 1) > 0:
                    return CollapseCertificate((r, p, q))
    return CollapseCertificate()


def assemble_ext(page: E2Page, nmax: int) -> ExtResult:
    """Anti-diagonal sums of a certified page; raises
    CollapseNotCertifiedError (with the witness) otherwise."""
    cert = certify_collapse(page)
    if not cert.certified:
        raise CollapseNotCertifiedError(cert.witness)
    dims = [sum(page.entry(p, n - p) for p in range(min(n, page.pmax) + 1))
            for n in range(nmax + 1)]
    return ExtResult(dims, cert, page)


def ext_dims(h: LeibnizAlgebra, m_kind, n_bimodule: Bimodule, nmax: int,
             *, fast: bool = False) -> ExtResult:
    """Ext^n(M, N) for n = 0..nmax via the appropriate spectral sequence.

    m_kind is a descriptor of the simple source (OneDimBimodule or
    SimpleDescriptor): trivial and antisymmetric sources go through the
    first sequence, symmetric sources through the second.  Raises
    CollapseNotCertifiedError when the E2 zero pattern does not force
    collapse.

    Every row and column of the page takes the one route that
    ``cohomology`` picks from the Lie quotient, so ``fast`` selects
    nothing; it is accepted and ignored so that callers written when it
    chose the invariants route keep working.
    """
    if nmax < 0:
        raise DimensionError("nmax must be nonnegative")
    data = quotient_data(h)
    src = m_kind.underlying_module(data.lie)
    if m_kind.kind == KIND_SYMMETRIC:
        page = e2_second(h, src, n_bimodule, data.lie.dim, nmax)
    else:
        page = e2_first(h, src, n_bimodule, data.lie.dim, nmax)
    return assemble_ext(page, nmax)


# ---------------------------------------------------------------------------
# The hemi-semidirect degree-1 module and closed forms.
# ---------------------------------------------------------------------------


def nhat(h: LeibnizAlgebra, n: LeftModule) -> LeftModule:
    """Coker(f: N -> Hom(h, N)), f(v)(x) = x.v, as a module over the
    Lie quotient; its equivariant Hom against a simple source computes
    degree-1 Ext with antisymmetric coefficients."""
    data = quotient_data(h)
    if n.algebra != data.lie:
        raise DimensionError("module is not over the Lie quotient")
    hom = hom_module_action(data.lie, h_as_lie_module(h), n)
    acts = lift_module(h, n).action
    f = _into_hom(Mat.hstack([Mat.zero(n.dim, 0), *acts]), h.dim, n.dim)
    return _cokernel_module(hom, f)


# Degree-1 Ext between simples over V_n x_hs sl2 can be nonzero only
# from these source kinds to these target kinds, the pairs that
# ext1_hemi_oracle computes: dim Ext^1(V_p^s, V_m^a), V_0 being both.
EXT1_SOURCE_KINDS = (KIND_TRIVIAL, KIND_SYMMETRIC)
EXT1_TARGET_KINDS = (KIND_TRIVIAL, KIND_ANTISYMMETRIC)


def ext1_hemi_oracle(n: int, m: int) -> WeightMultiset:
    """decompose(N-hat(V_m)) over V_n x_hs sl2: its multiplicity of V_p
    is dim Ext^1(V_p^s, V_m^a), the oracle for ``ext1_hemi_closed``;
    InputError when dim Hom(h, V_m) exceeds ``cohomology.COCHAIN_BUDGET``."""
    _check_budget(f"Hom(h, V_{m}) over V_{n} x_hs sl2", (n + 4) * (m + 1))
    return decompose(SL2Module(nhat(hemi_sl2(n), simple_module(m).underlying)))


def ext1_hemi_closed(n: int, p: int, m: int) -> int:
    """dim Ext^1(V_p^s, V_m^a) over V_n x_hs sl2, counted as the
    multiplicity of V_p in the closed-form decomposition of N-hat:
    V_m (x) V_n, whose weights run over |m - n| <= p <= m + n with
    p = m + n (mod 2), plus V_(m+2) and V_(m-2)."""
    if n < 1:
        raise InputError("the hemi-semidirect module weight n must be >= 1")
    if p < 0 or m < 0:
        raise InputError("weights must be nonnegative")
    in_tensor = abs(m - n) <= p <= m + n and (m + n - p) % 2 == 0
    return int(in_tensor) + int(p in (m + 2, m - 2))


def ext_trivial_closed(mk: OneDimBimodule, nk: OneDimBimodule, nmax: int) -> list:
    """Ext^n table over the one-dimensional algebra: (K, K) gives
    1, 2, 2, ...; a nontrivial kind against itself with equal weight
    gives 1, 1, 0, ...; everything else vanishes."""
    if nmax < 0:
        raise DimensionError("nmax must be nonnegative")
    _check_degrees(nmax)
    if mk.kind == KIND_TRIVIAL and nk.kind == KIND_TRIVIAL:
        return [1] + [2] * nmax
    if mk.kind == nk.kind and mk.lam == nk.lam:
        return [1, 1][: nmax + 1] + [0] * (nmax - 1)
    return [0] * (nmax + 1)


def ext_simple_closed(n: int, src: SimpleDescriptor, dst: SimpleDescriptor,
                      degree: int) -> int:
    """Closed-form Ext^degree between simples over V_n x_hs sl2,
    degree <= 2 (UnsupportedDegreeError above that).

    Degree 0 is Schur; degree 1 is the N-hat multiplicity formula,
    nonzero only from trivial/symmetric sources to trivial/antisymmetric
    targets; degree 2 is nonzero only for symmetric-to-antisymmetric
    pairs with both weights in {n, 2}, where it is 4 when the Leibniz
    kernel and the Lie quotient coincide as modules (n = 2) and 1
    otherwise.
    """
    if n < 1:
        raise InputError("the hemi-semidirect module weight n must be >= 1")
    if degree not in (0, 1, 2):
        raise UnsupportedDegreeError(f"closed forms cover degrees 0..2, not {degree}")
    if degree == 0:
        return 1 if src == dst else 0
    if degree == 1:
        if src.kind in EXT1_SOURCE_KINDS and dst.kind in EXT1_TARGET_KINDS:
            return ext1_hemi_closed(n, src.weight, dst.weight)
        return 0
    if (src.kind == KIND_SYMMETRIC and dst.kind == KIND_ANTISYMMETRIC
            and src.weight in (n, 2) and dst.weight in (n, 2)):
        return 4 if n == 2 else 1
    return 0
