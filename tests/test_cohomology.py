"""Leibniz and Chevalley-Eilenberg cohomology: differentials, closed forms,
induced module structures."""

import itertools
import json
import random
import time
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_quiver.algebra import (
    LeftModule,
    LieAlgebra,
    adjoint_module,
    hemi_semidirect,
    lift_module,
    trivial_algebra,
)
from leibniz_quiver.bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    OneDimBimodule,
    antisymmetric,
    hom_module_action,
    symmetric,
    trivial_bimodule,
)
from leibniz_quiver import cohomology, linear, toral
from leibniz_quiver.cohomology import (
    COCHAIN_BUDGET,
    CochainComplex,
    ce_cohomology,
    ce_complex,
    ce_differential,
    ce_dims_via_invariants,
    cochain_action,
    cohomology_of_complex,
    leibniz_cohomology,
    leibniz_complex,
    leibniz_differential,
    trivial_algebra_closed_form,
    hl_module_structure,
)
from leibniz_quiver.algebra import LeibnizAlgebra
from leibniz_quiver.bimodule import Bimodule
from leibniz_quiver.errors import ComplexError, DimensionError, InputError
from leibniz_quiver.ext import SimpleDescriptor, ext_dims, ext_trivial_closed
from leibniz_quiver.linear import (Mat, SubspaceBasis, image_basis, kernel_basis, rank,
                                   restrict_and_project, solve)
from leibniz_quiver.repsl2 import (SL2Module, decompose, direct_sum, hemi_sl2, simple_module, sl2,
                                   tensor)

from conftest import _diag_join, _unimodular, basis_vector, make_trivial_bimodule, one_dim_module


DATA = Path(__file__).resolve().parent / "data"


def one_dim(kind, lam=0):
    return OneDimBimodule(kind, lam).realize()


# ----------------------------------------------------------- complex plumbing

def test_cochain_complex_validates_composition():
    good = CochainComplex([1, 2, 3], [Mat.zero(2, 1), Mat.zero(3, 2)])
    assert len(good.differentials) == 2
    with pytest.raises(ComplexError):
        CochainComplex([2, 2, 2], [Mat.identity(2), Mat.identity(2)])
    with pytest.raises(ComplexError):
        CochainComplex([1, 3, 3], [Mat.zero(3, 1), Mat.zero(3, 2)])


def test_cohomology_of_complex_known_value():
    # K^2 --[1 0;0 0]--> K^2 --0--> K: dims 1, 1, 1
    d0 = Mat.from_rows([[1, 0], [0, 0]])
    cx = CochainComplex([2, 2, 1], [d0, Mat.zero(1, 2)])
    res = cohomology_of_complex(cx)
    # one group per degree that has an outgoing differential
    assert res.dims == [1, 1]
    assert res[0].dim == 1
    assert res[1].cocycles.dim == 2
    assert res[1].coboundaries.dim == 1


def test_cochain_complex_checks_compositions_over_a_common_denominator():
    # [1 1] . [1/2; -1/3] = 1/6.  Scaled one row at a time, the right
    # factor would read [1; -1] and the product 0.
    b = Mat.from_rows([[Fraction(1, 2)], [Fraction(-1, 3)]])
    with pytest.raises(ComplexError, match=r"^d\(1\) \. d\(0\) is nonzero$"):
        CochainComplex([1, 2, 1], [b, Mat.from_rows([[1, 1]])])
    good = CochainComplex([1, 2, 1], [b, Mat.from_rows([[2, 3]])])
    assert cohomology_of_complex(good).dims == [0, 0]


@pytest.mark.parametrize("drop", [True, False], ids=["dropped", "moved"])
def test_a_cocycle_basis_missing_a_coboundary_is_refused(monkeypatch, drop):
    # K --[1; 1]--> K^2 --[1 -1]--> K: the coboundary (1, 1) spans the
    # cocycles, whose basis from the elimination is (1, 1) itself.
    def complex_():
        return CochainComplex([1, 2, 1], [Mat.from_rows([[1], [1]]), Mat.from_rows([[1, -1]])])

    assert cohomology_of_complex(complex_()).dims == [0, 0]
    real = cohomology._int_kernel_and_pivots

    def wrong(rows, n, limit):
        """In degree 1, the cocycle basis with its vector dropped, or
        moved off the coboundary by a unit at a pivot row."""
        z, pivots = real(rows, n, limit)
        if n != 2:
            return z, pivots
        cols = [list(v) for v in z.vectors]
        if drop:
            cols = cols[1:]
        else:
            cols[0][pivots[0]] += 1
        return linear._basis(Mat.from_cols(cols, rows=n)), pivots

    monkeypatch.setattr(cohomology, "_int_kernel_and_pivots", wrong)
    with pytest.raises(ComplexError, match="^coboundaries escape cocycles in degree 1$"):
        complex_()


def test_a_bimodule_that_breaks_the_grading_is_refused():
    # V_1^a over hemi_sl2(1) with R_0 replaced by the identity, built
    # unchecked: R_0 no longer raises eigenvalues by the weight of b_0.
    h = hemi_sl2(1)
    v = antisymmetric(h, simple_module(1).underlying)
    bad = Bimodule(h, v.dim, v.left, [Mat.identity(v.dim), *v.right[1:]], check=False)
    with pytest.raises(ComplexError, match="^the bimodule does not respect the grading$"):
        leibniz_cohomology(h, bad, 1)


class _CountedRows(list):
    """A row list that counts the rows an elimination reads from it."""

    read = 0

    def __iter__(self):
        for row in super().__iter__():
            self.read += 1
            yield row


def _in_bases(h, b, p, q):
    """h and b in the bases given by the columns of p (for h) and q (for
    the bimodule)."""
    p_inv, q_inv = solve(p, Mat.identity(h.dim)), solve(q, Mat.identity(b.dim))
    c = [[p_inv.apply(h.bracket(p.col(i), p.col(j))) for j in range(h.dim)]
         for i in range(h.dim)]
    h2 = LeibnizAlgebra(h.dim, c)
    return h2, Bimodule(h2, b.dim, [q_inv * b.left_by(p.col(i)) * q for i in range(h.dim)],
                        [q_inv * b.right_by(p.col(i)) * q for i in range(h.dim)])


def _sheared(h, b):
    """h and b in the bases b_(k+1) += b_k (a chain of shears over every
    coordinate), so that no differential is graded by weight."""
    def chain(n):
        return Mat.from_rows([[int(j <= i) for j in range(n)] for i in range(n)])

    return _in_bases(h, b, chain(h.dim), chain(b.dim))


def _spy_eliminations(monkeypatch) -> list:
    """Record ``((rows, cols), limit, rows read)`` for every elimination;
    ``limit`` is None where the caller passes none, as ``solve`` does."""
    calls = []
    eliminate = linear._forward_eliminate

    def counting(rows, ncols, *limit):
        rows = _CountedRows(rows)
        out = eliminate(rows, ncols, *limit)
        calls.append(((len(rows), ncols), limit[0] if limit else None, rows.read))
        return out

    monkeypatch.setattr(linear, "_forward_eliminate", counting)
    return calls


def _hemi1_v1a():
    h = hemi_sl2(1)
    return h, antisymmetric(h, lift_module(h, simple_module(1).underlying))


@pytest.mark.parametrize("sheared", [False, True], ids=["weight", "sheared"])
def test_one_elimination_per_differential_stopping_at_the_bound(monkeypatch, sheared):
    h, bm = _hemi1_v1a()
    if sheared:
        h, bm = _sheared(h, bm)
    calls = _spy_eliminations(monkeypatch)
    # The full complex, the ungraded core, in both bases: leibniz_cohomology
    # would take an eigenvalue-0 block in both, of h in the weight basis
    # (the next test) and of a split toral element in the sheared one.
    res = cohomology_of_complex(leibniz_complex(h, bm, 3))
    monkeypatch.undo()
    diffs = leibniz_complex(h, bm, 3).differentials
    assert res.dims == [2, 1, 0, 0]
    # One elimination per differential and none else: the containment
    # checks are products, not solves.
    assert all(limit is not None for _, limit, _ in calls)
    bounded = [(shape, read) for shape, limit, read in calls]
    assert [shape for shape, _ in bounded] == [(d.rows, d.cols) for d in diffs]
    for q, (d, (_, read)) in enumerate(zip(diffs, bounded)):
        if res.dims[q]:
            assert read == d.rows  # HL^q != 0: the bound exceeds rank d_q
    assert bounded[3][1] < diffs[3].rows  # HL^3 = 0: the bound is rank d_3
    for q, g in enumerate(res.groups):
        assert g.cocycles == kernel_basis(diffs[q])
        assert g.coboundaries == (image_basis(diffs[q - 1]) if q
                                  else SubspaceBasis.empty(diffs[0].cols))


def test_content_reduction_changes_no_cohomology_basis(monkeypatch):
    # The full complexes of the sheared problems of the hl_dense
    # benchmark, whose coefficients grow: with _REDUCE_BOUND at 16 every
    # basis must stay bit for bit.
    h, v1a = _hemi1_v1a()
    v1s = symmetric(h, lift_module(h, simple_module(1).underlying))
    problems = [_sheared(h, v1a), _sheared(h, v1s)]
    calls = []
    real = linear._reduce_row
    monkeypatch.setattr(linear, "_reduce_row", lambda row: calls.append(1) or real(row))
    expected = [cohomology_of_complex(leibniz_complex(hs, b, 3)).groups for hs, b in problems]
    unpatched = len(calls)
    monkeypatch.setattr(linear, "_REDUCE_BOUND", 1 << 4)
    calls.clear()
    for (hs, b), groups in zip(problems, expected):
        got = cohomology_of_complex(leibniz_complex(hs, b, 3)).groups
        assert [(g.cocycles, g.coboundaries) for g in got] == [
            (g.cocycles, g.coboundaries) for g in groups]
    assert len(calls) > 2 * unpatched


def _spy_complexes(monkeypatch) -> list:
    """Record every complex that ``cohomology_of_complex`` is given."""
    seen = []
    real = cohomology.cohomology_of_complex

    def recording(cx):
        seen.append(cx)
        return real(cx)

    monkeypatch.setattr(cohomology, "cohomology_of_complex", recording)
    return seen


def test_one_bounded_elimination_per_block_differential(monkeypatch):
    h, bm = _hemi1_v1a()
    full = leibniz_complex(h, bm, 3).differentials
    complexes = _spy_complexes(monkeypatch)
    calls = _spy_eliminations(monkeypatch)
    res = leibniz_cohomology(h, bm, 3)
    monkeypatch.undo()
    assert res.dims == [2, 1, 0, 0]
    (block,) = complexes
    # C_0 spans the cochains (t, j) whose h-weights sum to the weight of
    # m_j: none in M (weights 1, -1), and 160 of the 1250 in CL^4.
    assert block.dims == (0, 2, 8, 36, 160)
    diffs = block.differentials
    # One elimination per block differential, one for HL^0 = ker d_0 on
    # all of M, and none else: the containment checks are products.
    assert all(limit is not None for _, limit, _ in calls)
    assert [shape for shape, _, _ in calls] == (
        [(d.rows, d.cols) for d in diffs] + [(full[0].rows, full[0].cols)])
    assert calls[1][2] == diffs[1].rows  # H^1(C_0) != 0: every row is read
    assert calls[3][2] < diffs[3].rows  # H^3(C_0) = 0: the bound is the rank
    assert res[0].cocycles == kernel_basis(full[0])
    # Above degree 0 the bases live in C_0^q, as the block run gives them:
    # cocycles in ker d_q of the block, coboundaries spanning im d_(q-1).
    for q in range(1, 4):
        g = res[q]
        assert g.cocycles.ambient_dim == g.coboundaries.ambient_dim == block.dims[q]
        assert all(not any(diffs[q].apply(v)) for v in g.cocycles.vectors)
        assert image_basis(Mat.hstack([diffs[q - 1], g.coboundaries.matrix()])).dim \
            == rank(diffs[q - 1]) == g.coboundaries.dim


def test_ext_where_the_bound_is_never_reached(monkeypatch):
    # HL^0 and HL^1 of V_1^a over hemi_sl2(1), which the row of
    # Ext(V_1^a, V_1^a) reads, are nonzero, so the bounds on d_0 (on all
    # of M) and on the eigenvalue-0 block of d_1 exceed their ranks and
    # those eliminations read every row.  Over sl2 the Ext rows take the
    # closed form, so the complex is driven directly.
    h, bm = _hemi1_v1a()
    complexes = _spy_complexes(monkeypatch)
    calls = _spy_eliminations(monkeypatch)
    assert leibniz_cohomology(h, bm, 3).dims == [2, 1, 0, 0]
    monkeypatch.undo()
    # Among the eliminations given a limit, HL^0..3 of V_1^a come first:
    # the block run d_0..d_3, then ker d_0 on all of M.
    bounded = [(shape, limit, read) for shape, limit, read in calls if limit is not None]
    diffs = list(complexes[0].differentials) + [leibniz_differential(h, bm, 0)]
    assert [shape for shape, _, _ in bounded[:5]] == [(d.rows, d.cols) for d in diffs]
    for d, (_, limit, read) in ((diffs[4], bounded[4]), (diffs[1], bounded[1])):
        assert limit > rank(d) and read == d.rows


def test_each_differential_is_scaled_to_integers_once(monkeypatch):
    # One pass per complex: the d.d = 0 check and the elimination read the
    # same integer rows of each differential.  The Leibniz pass builds its
    # blocks as the integer rows of E d_q, so it scales none of them; a
    # complex given as Mats, such as the CE complex, is scaled once per Mat.
    h, bm = _hemi1_v1a()
    complexes = _spy_complexes(monkeypatch)
    scaled = []
    real = linear._common_int_rows

    def recording(m):
        scaled.append(m)
        return real(m)

    for module in (linear, cohomology):
        monkeypatch.setattr(module, "_common_int_rows", recording)
    assert leibniz_cohomology(h, bm, 3).dims == [2, 1, 0, 0]
    assert ce_cohomology(sl2(), simple_module(2).underlying, 3).dims == [0, 0, 0, 0]
    monkeypatch.undo()
    leibniz, ce = complexes
    assert not any(m == d for m in scaled for d in leibniz.differentials)
    assert [sum(m is d for m in scaled) for d in ce.differentials] == [1] * 4


# --------------------------------------------------------- Loday differential

def test_degree_zero_differential_is_minus_right_action():
    h = trivial_algebra()
    b = one_dim(KIND_SYMMETRIC, 3)
    d0 = leibniz_differential(h, b, 0)
    assert d0 == -b.right[0]


def test_differential_squares_to_zero_everywhere():
    cases = [
        (trivial_algebra(), one_dim(KIND_TRIVIAL)),
        (trivial_algebra(), one_dim(KIND_SYMMETRIC, 2)),
        (trivial_algebra(), one_dim(KIND_ANTISYMMETRIC, Fraction(1, 2))),
    ]
    h1 = hemi_sl2(1)
    m1 = lift_module(h1, simple_module(1).underlying)
    cases.append((h1, symmetric(h1, m1)))
    cases.append((h1, antisymmetric(h1, m1)))
    cases.append((h1, trivial_bimodule(h1)))
    for h, bm in cases:
        # construction runs the d.d = 0 check at every degree
        leibniz_complex(h, bm, 3)


def test_differential_wrong_algebra_rejected():
    with pytest.raises(DimensionError):
        leibniz_differential(hemi_sl2(1), one_dim(KIND_TRIVIAL), 1)


def test_differential_commutes_with_cochain_action():
    weight = _hemi1_v1a()
    for h, bm in (weight, _sheared(*weight)):
        for q in (0, 1, 2):
            d_q = leibniz_differential(h, bm, q)
            act_q = cochain_action(h, bm, q)
            act_q1 = cochain_action(h, bm, q + 1)
            for x in range(h.dim):
                assert (d_q * act_q[x] - act_q1[x] * d_q).is_zero()


def _at(h, m, f, t):
    """The value in M of the flat cochain f at the basis tuple t."""
    i = 0
    for x in t:
        i = i * h.dim + x
    return f[i * m.dim:(i + 1) * m.dim]


def _plus(acc, c, v):
    return [a + c * x for a, x in zip(acc, v)]


def _reference_differential(h, m, f, n):
    """d f for the cochain f of CL^n (a flat coordinate tuple), by the
    formula of the cohomology module docstring, at every basis tuple."""
    e = partial(basis_vector, h.dim)
    out = []
    for x in itertools.product(range(h.dim), repeat=n + 1):
        acc = [Fraction(0)] * m.dim
        for i in range(n):
            acc = _plus(acc, (-1) ** i, m.left[x[i]].apply(_at(h, m, f, x[:i] + x[i + 1:])))
        acc = _plus(acc, (-1) ** (n - 1), m.right[x[n]].apply(_at(h, m, f, x[:n])))
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = list(x[:i] + x[i + 1:])
                for k, ck in enumerate(h.bracket(e(x[i]), e(x[j]))):
                    if ck:
                        rest[j - 1] = k
                        acc = _plus(acc, (-1) ** (i + 1) * ck, _at(h, m, f, tuple(rest)))
        out.extend(acc)
    return tuple(out)


def _reference_action(h, m, a, f, q):
    """b_a . f for the cochain f of CL^q, by the formula of the
    ``cochain_action`` docstring, at every basis tuple."""
    e = partial(basis_vector, h.dim)
    out = []
    for y in itertools.product(range(h.dim), repeat=q):
        acc = m.left[a].apply(_at(h, m, f, y))
        for i in range(q):
            for k, ck in enumerate(h.bracket(e(a), e(y[i]))):
                if ck:
                    acc = _plus(acc, -ck, _at(h, m, f, y[:i] + (k,) + y[i + 1:]))
        out.extend(acc)
    return tuple(out)


def _rational_cases() -> dict:
    """V_1^a over hemi_sl2(1) in bases with denominators, E the lcm of
    the denominators of the structure constants and of both actions (the
    scale of the integer Leibniz pass).  With h in the basis (2/3) b_a
    both sides give 3; with b_1 replaced by 3 b_1 the structure constants
    give 3 and L gives 2, so E = 6 and neither side alone gives it."""
    h, v1a = _hemi1_v1a()
    half = Mat.diagonal([1, Fraction(1, 2)])
    return {"V_1^a, h in the basis (2/3) b_a, M in the basis (m_0, m_1/2)":
            _in_bases(h, v1a, Mat.diagonal([Fraction(2, 3)] * h.dim), half),
            "V_1^a, h in the basis (b_0, 3 b_1, b_2, b_3, b_4), M in the basis (m_0, m_1/2)":
            _in_bases(h, v1a, Mat.diagonal([1, 3, 1, 1, 1]), half)}


def _reference_cases():
    h, v1a = _hemi1_v1a()
    v1s = symmetric(h, lift_module(h, simple_module(1).underlying))
    h0 = LeibnizAlgebra(0, [])
    return {
        "V_1^a": (h, v1a), "V_1^s": (h, v1s),
        "V_1^a sheared": _sheared(h, v1a), "V_1^s sheared": _sheared(h, v1s),
        **_rational_cases(),
        "one-dim": (trivial_algebra(), make_trivial_bimodule(random.Random(11), 4)),
        "0-dim": (h0, Bimodule(h0, 2, [], [])),
    }


@pytest.mark.parametrize("case", list(_reference_cases()))
def test_matrices_match_the_defining_formulas(case):
    h, m = _reference_cases()[case]
    rng = random.Random(case)
    for q in range(4):
        size = h.dim ** q * m.dim
        f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(size))
        d = leibniz_differential(h, m, q)
        assert (d.rows, d.cols) == (h.dim ** (q + 1) * m.dim, size)
        assert d.apply(f) == _reference_differential(h, m, f, q)
        actions = cochain_action(h, m, q)
        assert len(actions) == h.dim
        for a, act in enumerate(actions):
            assert act.apply(f) == _reference_action(h, m, a, f, q)


def test_negative_degrees_are_refused():
    h, bm = _hemi1_v1a()
    with pytest.raises(DimensionError):
        leibniz_differential(h, bm, -1)
    with pytest.raises(DimensionError):
        cochain_action(h, bm, -1)
    with pytest.raises(DimensionError):
        ce_differential(sl2(), simple_module(1).underlying, -1)


_ENTRY_POINTS = (leibniz_complex, leibniz_cohomology, leibniz_differential, cochain_action)


@pytest.mark.parametrize("entry", _ENTRY_POINTS, ids=lambda f: f.__name__)
def test_entry_points_check_sign_degree_run_algebra_in_that_order(entry, monkeypatch):
    # a bimodule over hemi_sl2(1) offered to hemi_sl2(2); a complex to
    # degree q runs over 0..q+1, the action on CL^q over 0..q
    h, other = hemi_sl2(2), _hemi1_v1a()[1]
    with pytest.raises(DimensionError, match="negative"):
        entry(h, other, -1)
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 3)
    with pytest.raises(InputError, match="^the degree range 0..4 has 5 degrees"):
        entry(h, other, 4 if entry is cochain_action else 3)
    with pytest.raises(DimensionError, match="bimodule is not over the given algebra"):
        entry(h, other, 1)


def test_huge_differential_degree_is_refused_at_once():
    h, bm = _hemi1_v1a()
    start = time.perf_counter()
    with pytest.raises(InputError, match="^the degree range 0..3000001 has 3000002 degrees"):
        leibniz_differential(h, bm, 3_000_000)
    assert time.perf_counter() - start < 1


def test_cochain_action_is_refused_before_any_action(monkeypatch):
    # CL^2 of V_1^a over hemi_sl2(1) has 5^2 * 2 = 50 cochains, the one
    # block of the ungraded d_1
    h, bm = _hemi1_v1a()
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 49)
    lifted = []
    monkeypatch.setattr(cohomology, "_lift_actions", lambda *args: lifted.append(args))
    with pytest.raises(InputError, match="^the block differential d_1 has 50 rows, "):
        cochain_action(h, bm, 2)
    assert lifted == []
    monkeypatch.undo()
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 50)
    assert [a.rows for a in cochain_action(h, bm, 2)] == [50] * h.dim


# ------------------------------------------------- trivial-algebra closed form

def test_closed_form_for_one_dim_kinds():
    assert trivial_algebra_closed_form(one_dim(KIND_TRIVIAL), 6) == [1] * 7
    assert trivial_algebra_closed_form(one_dim(KIND_SYMMETRIC, 1), 6) == [0] * 7
    assert trivial_algebra_closed_form(one_dim(KIND_ANTISYMMETRIC, 1), 6) == [1] + [0] * 6


def test_closed_form_requires_one_dim_algebra():
    h = hemi_sl2(1)
    with pytest.raises(DimensionError):
        trivial_algebra_closed_form(trivial_bimodule(h), 2)


def test_closed_form_matches_brute_force_on_random_bimodules():
    rng = random.Random(5)
    for _ in range(8):
        b = make_trivial_bimodule(rng, max_dim=4)
        brute = leibniz_cohomology(trivial_algebra(), b, 4).dims
        assert brute == trivial_algebra_closed_form(b, 4)


# ------------------------------------------------------ hemi-semidirect cases

def test_hemi1_antisymmetric_v1_dims_and_structure():
    h = hemi_sl2(1)
    bm = antisymmetric(h, lift_module(h, simple_module(1).underlying))
    assert leibniz_cohomology(h, bm, 3).dims == [2, 1, 0, 0]
    hl0, hl1 = hl_module_structure(h, bm, 1)
    assert decompose(SL2Module(hl0)).mults == {1: 1}
    assert decompose(SL2Module(hl1)).mults == {0: 1}


def test_hemi1_symmetric_v1_vanishes():
    h = hemi_sl2(1)
    bm = symmetric(h, lift_module(h, simple_module(1).underlying))
    assert leibniz_cohomology(h, bm, 2).dims == [0, 0, 0]


def test_hemi_trivial_coefficients_low_degrees():
    # HL^0(h, K) = K; HL^1(h, K) = Hom(h_Lie-invariants of h, K) = 0 here
    h = hemi_sl2(1)
    dims = leibniz_cohomology(h, trivial_bimodule(h), 2).dims
    assert dims[0] == 1
    assert dims[1] == 0


def test_hl_structure_theorem_window():
    # For the simple hemi-semidirect algebras: HL^0 = N, HL^1 is the
    # intertwiner space Hom(h, N) with trivial action, HL^2 = 0.
    for n in (1, 2):
        h = hemi_sl2(n)
        for m in (1, 2):
            bm = antisymmetric(h, lift_module(h, simple_module(m).underlying))
            dims = leibniz_cohomology(h, bm, 2).dims
            expect1 = (1 if m == n else 0) + (1 if m == 2 else 0)
            assert dims == [m + 1, expect1, 0]


def _hl_action_cases():
    """(name, h, M, qmax) for the HL^q action test: hemi_sl2(1) and
    hemi_sl2(2) with K, V_1..V_3 of both kinds and V_1 (x) V_n, the two
    sheared problems, and random bimodules over the one-dim algebra."""
    cases = []
    for n, qmax in ((1, 3), (2, 2)):
        h = hemi_sl2(n)
        cases.append((f"n={n} K", h, trivial_bimodule(h), qmax))
        for m in (1, 2, 3):
            v = simple_module(m).underlying
            cases += [(f"n={n} V_{m}^s", h, symmetric(h, v), qmax),
                      (f"n={n} V_{m}^a", h, antisymmetric(h, v), qmax)]
        v1vn = tensor(simple_module(1), simple_module(n)).underlying
        cases.append((f"n={n} V_1 x V_{n} ^a", h, antisymmetric(h, v1vn), qmax))
    refs = _reference_cases()
    cases += [(name, *refs[name], 2) for name in ("V_1^a sheared", "V_1^s sheared")]
    rng = random.Random(5)
    cases += [(f"one-dim {i}", trivial_algebra(), make_trivial_bimodule(rng), 4)
              for i in range(8)]
    return cases


def test_h_acts_by_zero_on_hl_above_degree_zero():
    # Cartan's formula A^(q)_a = i_a d_q + d_(q-1) i_a (cohomology module
    # docstring) sends every cocycle of degree q >= 1 to a coboundary.
    nonzero_hl0_action = nonzero_higher = 0
    for name, h, m, qmax in _hl_action_cases():
        for q, g in enumerate(cohomology_of_complex(leibniz_complex(h, m, qmax)).groups):
            if g.dim == 0:
                continue
            induced = restrict_and_project(cochain_action(h, m, q), g.cocycles,
                                           g.coboundaries.matrix())
            if q == 0:
                nonzero_hl0_action += not all(a.is_zero() for a in induced)
            else:
                nonzero_higher += 1
                assert all(a.is_zero() for a in induced), (name, q)
    assert nonzero_hl0_action > 0 and nonzero_higher > 0


# ------------------------------------------------- the eigenvalue-0 block route

def test_grading_skips_the_leibniz_kernel():
    # b_0 and b_1 span the Leibniz kernel V_1 of hemi_sl2(1): ad and L of
    # either are zero, hence diagonal with ad(b)b = 0, but every weight is
    # 0, and grading by them would make C_0 the whole complex.  The
    # grading element is h = b_3.
    h, bm = _hemi1_v1a()
    for g in (0, 1):
        assert h.left_mult(g).is_zero() and bm.left[g].is_zero()
    alpha, mu = cohomology._weights(h, bm)
    assert (alpha, mu) == ((1, -1, 2, 0, -2), (1, -1))
    sizes = cohomology._Grading(alpha, mu, 3).sizes
    assert (sizes[4][0], h.dim ** 4 * bm.dim) == (160, 1250)


def _rescaled(h, m, s):
    """h and m in the basis s b_a: structure constants and actions are
    multiplied by s, and so is every weight of the grading element."""
    return _in_bases(h, m, Mat.diagonal([s] * h.dim), Mat.identity(m.dim))


@pytest.mark.parametrize("s, denominator", [(Fraction(1, 2), 2), (Fraction(2, 3), 3), (3, 1)])
def test_weights_are_integers_scaled_by_their_common_denominator(s, denominator):
    # Rescaled by s, the weights are s times those of the weight basis,
    # and _weights returns them times D, the lcm of their denominators:
    # the grading by D b, whose blocks are those of b.
    h, bm = _hemi1_v1a()
    alpha, mu = cohomology._weights(h, bm)
    alpha2, mu2 = cohomology._weights(*_rescaled(h, bm, s))
    assert all(type(x) is int for x in alpha + mu + alpha2 + mu2)
    assert (alpha2, mu2) == (tuple(x * s * denominator for x in alpha),
                             tuple(x * s * denominator for x in mu))
    sizes = cohomology._Grading(alpha, mu, 4).sizes
    sizes2 = cohomology._Grading(alpha2, mu2, 4).sizes
    for q in range(5):
        assert sizes2[q][0] == sizes[q][0]
        assert sorted(sizes2[q].values()) == sorted(sizes[q].values())


def _golden_cases() -> dict:
    h, v1a = _hemi1_v1a()
    return {"V_1^a": (h, v1a),
            "V_1^s": (h, symmetric(h, lift_module(h, simple_module(1).underlying))),
            "V_1^a in the basis b_a / 2": _rescaled(h, v1a, Fraction(1, 2)),
            **_rational_cases()}


def _frozen(res) -> dict:
    """The dims and the cocycle and coboundary bases of ``res``, with
    every entry an exact fraction string."""
    def vectors(basis):
        return [[str(x) for x in v] for v in basis.vectors]

    return {"HL": res.dims, "bases": [{"cocycles": vectors(g.cocycles),
                                       "coboundaries": vectors(g.coboundaries)}
                                      for g in res.groups]}


def test_graded_route_is_bit_identical_to_the_frozen_bases():
    # tests/data/leibniz_cohomology_hemi1_q3.json holds _frozen of
    # leibniz_cohomology(h, m, 3) for _golden_cases as computed while the
    # weights were still Fractions; the rescaled case has D = 2.  The
    # cases of _rational_cases were frozen before the Leibniz pass built
    # its blocks in integers.
    golden = json.loads((DATA / "leibniz_cohomology_hemi1_q3.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(_golden_cases())
    for name, (h, m) in _golden_cases().items():
        assert _frozen(leibniz_cohomology(h, m, 3)) == golden[name], name


def _check_graded_route(h, m, qmax):
    """leibniz_cohomology against the full complex: equal dims, and for
    q >= 1 the zero-action modules of ``hl_module_structure``, forced
    onto the complex route, against the action restricted to all of Z^q
    modulo B^q."""
    graded = leibniz_cohomology(h, m, qmax)
    full = cohomology_of_complex(leibniz_complex(h, m, qmax))
    assert graded.dims == full.dims
    assert graded[0].cocycles == full[0].cocycles
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cohomology, "_killing_form_nondegenerate", lambda g: False)
        modules = hl_module_structure(h, m, qmax)
    for q, module in enumerate(modules[1:], 1):
        g = full[q]
        induced = restrict_and_project(cochain_action(h, m, q), g.cocycles,
                                       g.coboundaries.matrix())
        assert module.dim == g.dim
        assert all(a.is_zero() for a in module.action)
        assert all(a.is_zero() for a in induced)


_SCALES = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 2), m=st.integers(0, 3),
       make=st.sampled_from([symmetric, antisymmetric]), data=st.data())
def test_graded_route_matches_the_full_complex_over_hemi(n, m, make, data):
    # A diagonal rescaling keeps ad(h) and L_h diagonal and rescales
    # their weights, so the graded route runs on rational weights.
    h = hemi_sl2(n)
    bm = make(h, simple_module(m).underlying)
    p = Mat.diagonal(data.draw(st.lists(_SCALES, min_size=h.dim, max_size=h.dim)))
    q = Mat.diagonal(data.draw(st.lists(_SCALES, min_size=bm.dim, max_size=bm.dim)))
    h2, bm2 = _in_bases(h, bm, p, q)
    assert any(cohomology._weights(h2, bm2)[0])
    _check_graded_route(h2, bm2, 3 if n == 1 else 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=4))
def test_graded_route_matches_the_full_complex_over_the_one_dim_algebra(entries):
    # L = diag(lam) and R = diag(-lam or 0) satisfy LR = RL and R(L+R) = 0.
    left = Mat.diagonal([lam for lam, _ in entries])
    right = Mat.diagonal([-lam if sym else 0 for lam, sym in entries])
    _check_graded_route(trivial_algebra(), Bimodule(trivial_algebra(), len(entries),
                                                    [left], [right]), 4)


def _spy_block_builds(monkeypatch) -> list:
    """Record the degree of every call that builds the blocks of a d_q."""
    degrees = []
    real = cohomology._differential_blocks

    def recording(m, g, q, *rest):
        degrees.append(q)
        return real(m, g, q, *rest)

    monkeypatch.setattr(cohomology, "_differential_blocks", recording)
    return degrees


def test_one_dim_algebra_to_degree_one_hundred(monkeypatch):
    # The seeded inputs are conjugated, so the basis element grades only
    # the one-dimensional one, and the split toral search two more; the
    # first takes the ungraded route.  {"left": [[[2]]], "right": [[[0]]]}
    # is graded with an empty C_0.
    rng = random.Random(100)
    cases = [make_trivial_bimodule(rng, max_dim=4) for _ in range(4)]
    cases.append(Bimodule(trivial_algebra(), 1, [Mat.from_rows([[2]])], [Mat.zero(1, 1)]))
    graded = [any(cohomology._weights(trivial_algebra(), b)[1]) for b in cases]
    assert graded == [False, True, False, False, True]
    searched = [toral.split_toral(trivial_algebra(), b) is not None for b in cases]
    assert searched == [False, True, True, True, True]
    for b in cases:
        built = _spy_block_builds(monkeypatch)
        assert leibniz_cohomology(trivial_algebra(), b, 100).dims == \
            trivial_algebra_closed_form(b, 100)
        assert built == list(range(101))  # each degree's blocks once
        monkeypatch.undo()


# ------------------------------------------------------ the split toral search

def _spy_searches(monkeypatch) -> list:
    """Record what every call of ``toral.split_toral`` returns."""
    found = []
    real = toral.split_toral

    def recording(h, m):
        found.append(real(h, m))
        return found[-1]

    monkeypatch.setattr(toral, "split_toral", recording)
    return found


def test_weight_basis_inputs_never_reach_the_search(monkeypatch):
    found = _spy_searches(monkeypatch)
    for n in (1, 2):
        h = hemi_sl2(n)
        for make in (antisymmetric, symmetric):
            leibniz_cohomology(h, make(h, simple_module(n).underlying), 2)
    assert found == []


def test_sheared_inputs_are_graded_by_a_split_toral_element(monkeypatch):
    # No basis element of a sheared problem has diagonal ad and L, so the
    # search grades it; HL^0..3 must be those of the weight basis, and the
    # HL^0 basis that of ker d_0 on the caller's bimodule.
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        for m in range(4):
            for make in (antisymmetric, symmetric):
                bm = make(h, simple_module(m).underlying)
                hs, ms = _sheared(h, bm)
                assert not any(cohomology._weights(hs, ms)[0])
                found = _spy_searches(monkeypatch)
                res = leibniz_cohomology(hs, ms, 3)
                monkeypatch.undo()
                assert found[0] is not None
                assert res.dims == leibniz_cohomology(h, bm, 3).dims, (n, m, make)
                assert res[0].cocycles == kernel_basis(leibniz_differential(hs, ms, 0))


def _so3():
    """so(3, Q), the cross-product algebra: [e_i, e_(i+1)] = e_(i+2)."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c[i][j][k], c[j][i][k] = 1, -1
    return LieAlgebra(3, c)


def test_no_split_toral_element_over_so3(monkeypatch):
    # tr(ad(x)^2) + tr(L_x^2) is negative definite over so(3) x_hs so(3),
    # so every candidate fails the form test before any eigenspace is
    # computed, and the answer is the full complex's.
    so3 = _so3()
    h = hemi_semidirect(so3, adjoint_module(so3))
    real = toral._candidates
    for bm in (antisymmetric(h, adjoint_module(so3)), symmetric(h, adjoint_module(so3)),
               trivial_bimodule(h)):
        tried, eigen = [], []
        monkeypatch.setattr(toral, "_candidates",
                            lambda k: (tried.append(v) or v for v in real(k)))
        monkeypatch.setattr(toral, "_eigenspaces", lambda a: eigen.append(a))
        found = _spy_searches(monkeypatch)
        res = leibniz_cohomology(h, bm, 2)
        monkeypatch.undo()
        assert found == [None]
        assert len(tried) == toral._CANDIDATES and eigen == []
        assert res.dims == cohomology_of_complex(leibniz_complex(h, bm, 2)).dims


def _spy_eigenspaces(monkeypatch) -> list:
    """Record ``(a, eigenspaces)`` for every eigenspace computation of the
    search."""
    seen = []
    real = toral._eigenspaces

    def recording(a, candidates):
        seen.append((a, real(a, candidates)))
        return seen[-1][1]

    monkeypatch.setattr(toral, "_eigenspaces", recording)
    return seen


def test_transport_with_rational_bases():
    # The eigenbases of the search are rational; in such bases the tables
    # that ``_transport`` builds from integer products must be those of
    # p^-1 [p_i, p_j] and q^-1 L(p_i) q, R likewise, computed over Q.
    rng = random.Random(11)
    for n, m, make in ((1, 1, antisymmetric), (1, 2, symmetric), (2, 1, symmetric)):
        h = hemi_sl2(n)
        bm = make(h, simple_module(m).underlying)
        for _ in range(3):
            p, q = (Mat.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                    if i != j else Fraction(rng.choice([1, -2]), 3)
                                    for j in range(d)] for i in range(d)])
                    for d in (h.dim, bm.dim))
            p_inv = solve(p, Mat.identity(h.dim))
            if p_inv is None or solve(q, Mat.identity(bm.dim)) is None:
                continue
            assert toral._transport(h, bm, p, q, p_inv) == _in_bases(h, bm, p, q)


def test_an_accepted_candidate_solves_at_most_twice(monkeypatch):
    # One inverse of the eigenbasis p of h gives both c = p^-1 lift and
    # the inverse (p T)^-1 = T^-1 p^-1 of the basis that puts x first; the
    # other solve is q^-1.
    h, bm = _sheared(*_hemi1_v1a())
    solved = []
    real = toral.solve
    monkeypatch.setattr(toral, "solve", lambda a, b: solved.append(a) or real(a, b))
    found = toral.split_toral(h, bm)
    monkeypatch.undo()
    assert found is not None and len(solved) <= 2
    assert any(cohomology._weights(*found)[0])


def test_no_candidate_with_a_diagonalizable_ad(monkeypatch):
    # [x, y] = y, [x, z] = y + z: ad(a x + b y + c z) has the eigenvalue a
    # in a Jordan block on span(y, z), and tr ad^2 = 2 a^2.  So the 41
    # candidates with a != 0 pass the form test and fail on ad, the rest
    # have form 0, and the bimodule is never reached.
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1], c[0][2] = [0, 1, 0], [0, 1, 1]
    c[1][0], c[2][0] = [0, -1, 0], [0, -1, -1]
    g = LieAlgebra(3, c)
    k = trivial_bimodule(g)
    seen = _spy_eigenspaces(monkeypatch)
    assert toral.split_toral(g, k) is None
    monkeypatch.undo()
    assert len(seen) == 41
    assert all((a.rows, a.cols) == (3, 3) and e is None for a, e in seen)
    res = leibniz_cohomology(g, k, 3)
    assert res.dims == cohomology_of_complex(leibniz_complex(g, k, 3)).dims == [1, 1, 1, 1]


def test_a_module_that_rejects_the_first_candidate(monkeypatch):
    # Over the abelian two-dimensional Lie algebra ad = 0, so every
    # candidate passes on ad.  The first, b_1, acts by a Jordan block at 1
    # (tr L^2 = 2 passes the form test) and fails on M; the next, b_0,
    # acts by diag(1, 1, 2), which commutes with it.  Both are conjugated
    # by a shear chain, so no basis element grades M, and the search must
    # go on to b_0 and answer as the full complex does.
    s = Mat.from_rows([[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    s_inv = solve(s, Mat.identity(3))
    left = [s * Mat.diagonal([1, 1, 2]) * s_inv,
            s * Mat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 0]]) * s_inv]
    h = LieAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    bm = Bimodule(h, 3, left, [Mat.zero(3, 3)] * 2)
    assert not any(cohomology._weights(h, bm)[1])
    seen = _spy_eigenspaces(monkeypatch)
    found = toral.split_toral(h, bm)
    monkeypatch.undo()
    zero = Mat.zero(2, 2)
    assert [(a, e is not None) for a, e in seen] == [
        (zero, True), (left[1], False), (zero, True), (left[0], True)]
    h2, m2 = found
    alpha, mu = cohomology._weights(h2, m2)
    assert alpha == (0, 0) and mu == (1, 1, 2) and m2.left[0] == Mat.diagonal([1, 1, 2])
    res = leibniz_cohomology(h, bm, 4)
    assert res.dims == cohomology_of_complex(leibniz_complex(h, bm, 4)).dims == [3, 0, 0, 0, 0]


def test_one_dim_algebra_with_a_diagonalizable_left_action(monkeypatch):
    # L is not diagonal but has the eigenbasis (1, 0), (1, 1) with
    # eigenvalues 1, 2 on the first block, (3, 1), (1, -1) with 3, -1 on
    # the second (R = -L there), and 0 on the third.
    left = Mat.from_rows([[1, 1, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 0, 3, 0],
                          [0, 0, 1, 2, 0], [0, 0, 0, 0, 0]])
    right = Mat.from_rows([[0] * 5, [0] * 5, [0, 0, 0, -3, 0], [0, 0, -1, -2, 0], [0] * 5])
    h = trivial_algebra()
    bm = Bimodule(h, 5, [left], [right])
    assert not any(cohomology._weights(h, bm)[1])
    found = _spy_searches(monkeypatch)
    res = leibniz_cohomology(h, bm, 6)
    assert found[0] is not None
    assert res.dims == trivial_algebra_closed_form(bm, 6) == [3, 1, 1, 1, 1, 1, 1]
    assert res[0].cocycles == kernel_basis(leibniz_differential(h, bm, 0))


def test_huge_eigenvalues_leave_the_search_at_once():
    # A Jordan block at 10^50: the trace bound alone would try about
    # 10^50 eigenvalues, the cap |k| <= 2n = 4 stops the search after
    # nine, and the input is answered on the ungraded route.
    big = 10 ** 50
    h = trivial_algebra()
    bm = Bimodule(h, 2, [Mat.from_rows([[big, 1], [0, big]])], [Mat.zero(2, 2)])
    start = time.perf_counter()
    assert toral.split_toral(h, bm) is None
    assert leibniz_cohomology(h, bm, 3).dims == trivial_algebra_closed_form(bm, 3)
    assert time.perf_counter() - start < 1


def test_fast_ext_over_a_sheared_hemi_sl2(monkeypatch):
    # A weight descriptor needs sl2 in its own basis, so the source is K.
    # The Ext rows read HL from the closed form, which needs no grading;
    # the complex of the same sheared input is graded by the search.
    h = hemi_sl2(1)
    src = SimpleDescriptor("trivial")
    for m in (0, 1, 2):
        bm = antisymmetric(h, simple_module(m).underlying)
        want = ext_dims(h, src, bm, 4, fast=True)
        hs, ms = _sheared(h, bm)
        got = ext_dims(hs, src, ms, 4, fast=True)
        assert got.dims == want.dims and got.certificate.certified
        found = _spy_searches(monkeypatch)
        dims = leibniz_cohomology(hs, ms, 4).dims
        monkeypatch.undo()
        assert found and None not in found
        assert dims == leibniz_cohomology(h, bm, 4).dims


def test_weight_descriptors_refuse_a_sheared_hemi_sl2():
    # Its Lie quotient is sl2 in another basis, so a weight descriptor
    # names no module there: ext_dims and realize refuse it alike.
    h = hemi_sl2(1)
    hs, ms = _sheared(h, antisymmetric(h, simple_module(1).underlying))
    v1a = SimpleDescriptor("antisymmetric", 1)
    with pytest.raises(InputError, match="weight descriptors need an sl2 quotient"):
        ext_dims(hs, v1a, ms, 2)
    with pytest.raises(InputError, match="weight descriptors need an sl2 quotient"):
        v1a.realize(hs)
    assert v1a.realize(h) == antisymmetric(h, simple_module(1).underlying)
    assert SimpleDescriptor("trivial").realize(hs) == trivial_bimodule(hs)


# ------------------------------------ the closed form over a semisimple quotient

def _adjoint_bimodule(h):
    """h as a bimodule over itself, L_a = [b_a, -] and R_a = [-, b_a],
    built checked."""
    right = [Mat.from_sparse(h.dim, h.dim, [{j: h.c[j][a][k] for j in range(h.dim) if h.c[j][a][k]}
                                            for k in range(h.dim)]) for a in range(h.dim)]
    return Bimodule(h, h.dim, [h.left_mult(a) for a in range(h.dim)], right)


def _closed_route_cases():
    cases = {}
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        for w in range(4):
            for tag, make in (("a", antisymmetric), ("s", symmetric)):
                cases[f"n={n} V_{w}^{tag}"] = (h, make(h, simple_module(w).underlying))
    for n in (1, 2):
        cases[f"n={n} adjoint"] = (hemi_sl2(n), _adjoint_bimodule(hemi_sl2(n)))
    h = hemi_semidirect(sl2(), direct_sum(simple_module(1), simple_module(1)).underlying)
    for w in range(3):
        for tag, make in (("a", antisymmetric), ("s", symmetric)):
            cases[f"V_1+V_1 V_{w}^{tag}"] = (h, make(h, simple_module(w).underlying))
    cases["V_1+V_1 adjoint"] = (h, _adjoint_bimodule(h))
    h = hemi_sl2(1)
    v1v2 = tensor(simple_module(1), simple_module(2)).underlying
    for tag, make in (("a", antisymmetric), ("s", symmetric)):
        cases[f"n=1 V_1xV_2^{tag}"] = (h, make(h, v1v2))
    # The route needs no grading: sheared inputs, and so(3) x_hs so(3),
    # which no element grades.
    for w, tag, make in ((1, "a", antisymmetric), (1, "s", symmetric), (2, "a", antisymmetric)):
        cases[f"n=1 sheared V_{w}^{tag}"] = _sheared(h, make(h, simple_module(w).underlying))
    cases["n=1 sheared adjoint"] = _sheared(h, _adjoint_bimodule(h))
    so3 = _so3()
    h = hemi_semidirect(so3, adjoint_module(so3))
    for name, bm in (("ad^a", antisymmetric(h, adjoint_module(so3))),
                     ("ad^s", symmetric(h, adjoint_module(so3))),
                     ("K", trivial_bimodule(h)), ("adjoint", _adjoint_bimodule(h))):
        cases[f"so3 {name}"] = (h, bm)
    return cases


_CLOSED_ROUTE_CASES = _closed_route_cases()


def _check_closed_route(h, m, qmax, monkeypatch):
    """hl_module_structure, which takes the closed form over these
    semisimple quotients and builds no block differential, against the
    modules of the verified complex."""
    built = []
    real = cohomology._block_differentials
    monkeypatch.setattr(cohomology, "_block_differentials",
                        lambda *args: built.append(args) or real(*args))
    closed = hl_module_structure(h, m, qmax)
    assert built == []
    monkeypatch.setattr(cohomology, "_killing_form_nondegenerate", lambda g: False)
    complex_route = hl_module_structure(h, m, qmax)
    monkeypatch.undo()
    assert len(built) == 1
    assert closed == complex_route


@pytest.mark.parametrize("name", sorted(_CLOSED_ROUTE_CASES))
def test_closed_route_matches_the_complex(name, monkeypatch):
    # HL^0 = M^R, dim HL^1 = dim Hom_g(h, M^R) - dim M^g + dim(M^g n M^R)
    # and HL^q = 0 for q >= 2 (cohomology.py docstring), to q = 3; the
    # adjoint bimodules are not semisimple, as Leib(h) is a sub-bimodule.
    h, m = _CLOSED_ROUTE_CASES[name]
    _check_closed_route(h, m, 3, monkeypatch)


_SUMMANDS = st.sampled_from([("a", 0), ("a", 1), ("a", 2), ("s", 1), ("s", 2), ("adjoint", 0)])


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 2), parts=st.lists(_SUMMANDS, min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
def test_closed_route_matches_the_complex_on_direct_sums(n, parts, seed):
    # Direct sums of simple and adjoint bimodules over hemi_sl2(n), in a
    # random unimodular basis, so that no basis element grades them.
    h = hemi_sl2(n)
    summands = [_adjoint_bimodule(h) if kind == "adjoint" else
                (antisymmetric if kind == "a" else symmetric)(h, simple_module(w).underlying)
                for kind, w in parts]
    dim = sum(b.dim for b in summands)
    p = _unimodular(random.Random(seed), dim)
    p_inv = solve(p, Mat.identity(dim))

    def join(mats):
        return p * _diag_join(mats) * p_inv

    m = Bimodule(h, dim, [join([b.left[a] for b in summands]) for a in range(h.dim)],
                 [join([b.right[a] for b in summands]) for a in range(h.dim)])
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_closed_route(h, m, 3, monkeypatch)


def test_the_closed_route_checks_as_the_complex_does(monkeypatch):
    # The sign, the run of degrees, the algebra and CL^0, with the texts of
    # the complex, then Hom(h, HL^0), all before any block is built.
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    h, other = hemi_sl2(2), _hemi1_v1a()[1]
    with pytest.raises(DimensionError, match="^qmax must be nonnegative$"):
        hl_module_structure(h, other, -1)
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 3)
    with pytest.raises(InputError, match="^the degree range 0..4 has 5 degrees"):
        hl_module_structure(h, other, 3)
    with pytest.raises(DimensionError, match="^bimodule is not over the given algebra$"):
        hl_module_structure(h, other, 1)
    h = hemi_sl2(1)
    bm = antisymmetric(h, simple_module(3).underlying)  # Hom(h, HL^0 = V_3) has 5 * 4 cochains
    with pytest.raises(InputError, match="^the cochain space CL\\^0 has dimension 4, "):
        hl_module_structure(h, bm, 1)
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 19)
    with pytest.raises(InputError, match="^the space Hom\\(h, HL\\^0\\) has dimension 20, "
                                         "above the budget of 19$"):
        hl_module_structure(h, bm, 1)
    assert [x.dim for x in hl_module_structure(h, bm, 0)] == [4]  # builds no Hom
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 20)
    assert [x.dim for x in hl_module_structure(h, bm, 6)] == [4, 0, 0, 0, 0, 0, 0]
    assert built == []


# --------------------------------------------------------------- CE cohomology

def test_ce_sl2_trivial_coefficients():
    g = sl2()
    k = one_dim_module(g, [0, 0, 0])
    assert ce_cohomology(g, k, 3).dims == [1, 0, 0, 1]


def test_ce_sl2_nontrivial_simples_vanish():
    g = sl2()
    for m in range(1, 5):
        v = simple_module(m).underlying
        assert ce_cohomology(g, v, 3).dims == [0, 0, 0, 0]


def test_ce_vanishes_above_dimension():
    g = sl2()
    k = one_dim_module(g, [0, 0, 0])
    assert ce_cohomology(g, k, 5).dims == [1, 0, 0, 1, 0, 0]


def test_ce_one_dim_abelian():
    a = trivial_algebra()
    from leibniz_quiver.algebra import LieAlgebra

    lie = LieAlgebra(1, [[[0]]])
    k = one_dim_module(lie, [0])
    assert ce_cohomology(lie, k, 2).dims == [1, 1, 0]
    nontriv = one_dim_module(lie, [2])
    assert ce_cohomology(lie, nontriv, 2).dims == [0, 0, 0]


def test_ce_complex_d_squared_zero():
    g = sl2()
    ce_complex(g, adjoint_module(g), 3)  # validates internally
    ce_complex(g, simple_module(4).underlying, 3)


def _reference_ce(g, m, f, p):
    """d f for the alternating cochain f of C^p (flat over the sorted
    p-subsets), by the classical formula of the cohomology module
    docstring, at every sorted (p+1)-subset."""
    subsets = list(itertools.combinations(range(g.dim), p))

    def at(t):  # f at any p-tuple of basis indices, by alternation
        if len(set(t)) < len(t):
            return [Fraction(0)] * m.dim
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(t, 2))
        c = subsets.index(tuple(sorted(t)))
        return [sign * v for v in f[c * m.dim:(c + 1) * m.dim]]

    e = partial(basis_vector, g.dim)
    out = []
    for x in itertools.combinations(range(g.dim), p + 1):
        acc = [Fraction(0)] * m.dim
        for i in range(p + 1):
            acc = _plus(acc, (-1) ** i, m.action[x[i]].apply(at(x[:i] + x[i + 1:])))
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = x[:i] + x[i + 1:j] + x[j + 1:]
            for k, ck in enumerate(g.bracket(e(x[i]), e(x[j]))):
                if ck:
                    acc = _plus(acc, (-1) ** (i + j) * ck, at((k,) + rest))
        out.extend(acc)
    return tuple(out)


def _ce_reference_cases():
    g = sl2()
    one = LieAlgebra(1, [[[0]]])
    gl2 = LieAlgebra(4, [[list(g.c[i][j]) + [0] if i < 3 and j < 3 else [0] * 4
                          for j in range(4)] for i in range(4)])
    v1 = simple_module(1).underlying
    zero = LieAlgebra(0, [])
    cases = {
        "sl2 K": (g, one_dim_module(g, [0, 0, 0]), 5),
        "sl2 V_2": (g, simple_module(2).underlying, 5),
        "sl2 adjoint": (g, adjoint_module(g), 5),
        "sl2 Hom(V_1, V_2)": (g, hom_module_action(g, v1, simple_module(2).underlying), 5),
        "gl2 natural": (gl2, LeftModule(gl2, 2, list(v1.action) + [Mat.identity(2)]), 5),
        "0-dim": (zero, LeftModule(zero, 2, []), 2),
    }
    for lam in (0, 2, Fraction(1, 3)):
        cases[f"1-dim {lam}"] = (one, one_dim_module(one, [lam]), 3)
    return cases


@pytest.mark.parametrize("case", list(_ce_reference_cases()))
def test_ce_matrices_match_the_classical_formula(case):
    g, m, pmax = _ce_reference_cases()[case]
    rng = random.Random(case)
    for p in range(pmax + 1):
        size = comb(g.dim, p) * m.dim
        f = tuple(Fraction(rng.randint(-3, 3)) for _ in range(size))
        d = ce_differential(g, m, p)
        assert (d.rows, d.cols) == (comb(g.dim, p + 1) * m.dim, size)
        assert d.apply(f) == _reference_ce(g, m, f, p)


def test_oversized_ce_complex_is_refused_before_any_differential(monkeypatch):
    built = []
    monkeypatch.setattr(cohomology, "ce_differential", lambda *args: built.append(args))
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 8)
    with pytest.raises(InputError, match="the cochain space C\\^1 has dimension 9"):
        ce_cohomology(sl2(), simple_module(2).underlying, 0)
    assert built == []


def test_invariants_dim():
    g = sl2()
    # H^0(g, M) is M^g
    assert ce_dims_via_invariants(g, one_dim_module(g, [0, 0, 0]), 0) == [1]
    assert ce_dims_via_invariants(g, simple_module(3).underlying, 0) == [0]
    assert ce_dims_via_invariants(g, adjoint_module(g), 0) == [0]


def test_weyl_shortcut_agrees_with_brute_force():
    g = sl2()
    mods = [one_dim_module(g, [0, 0, 0]), simple_module(2).underlying,
            adjoint_module(g)]
    for m in mods:
        fast = ce_dims_via_invariants(g, m, 3)
        brute = ce_cohomology(g, m, 3).dims
        assert fast == brute


def test_trivial_coefficients_are_computed_once_per_algebra_and_degree(monkeypatch):
    # Each ext_dims(..., fast=True) call reads H^*(sl2, K) for every E2
    # column; the trivial-coefficient complex is built once per (g, pmax).
    built = []
    real = cohomology.ce_cohomology

    def recording(g, m, pmax):
        built.append((g, m.dim, pmax))
        return real(g, m, pmax)

    monkeypatch.setattr(cohomology, "ce_cohomology", recording)
    cohomology._trivial_ce_dims.cache_clear()
    h, bm = _hemi1_v1a()
    src = SimpleDescriptor("antisymmetric", 1)
    first = ext_dims(h, src, bm, 3, fast=True).dims
    assert ext_dims(h, src, bm, 3, fast=True).dims == first == (1, 0, 0, 1)
    assert built == [(sl2(), 1, 3)]
    assert ce_dims_via_invariants(sl2(), simple_module(0).underlying, 4) == [1, 0, 0, 1, 0]
    assert built == [(sl2(), 1, 3), (sl2(), 1, 4)]


# ------------------------------------------------------------ resource budget

def test_cochain_budget_sits_between_the_largest_target_and_qmax_five():
    # HL^5(hemi_sl2(2), V_2^a) builds weight blocks of at most 25 152 rows,
    # so it is allowed; the ungraded complex to qmax 5 on the same pair
    # maps into all of CL^6, 6^6 * 3 = 139 968 rows.
    assert 25_152 <= COCHAIN_BUDGET < 6 ** 6 * 3


def test_oversized_complex_is_refused_before_any_differential(monkeypatch):
    # HL^6 would build blocks of 70 848 rows for d_5 and 141 696 for d_6;
    # the ungraded complex to qmax 5 has one block of 139 968 rows for d_5.
    h = hemi_sl2(2)
    bm = antisymmetric(h, simple_module(2).underlying)
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    for refused, rows in ((lambda: leibniz_cohomology(h, bm, 6), 70848),
                          (lambda: leibniz_complex(h, bm, 5), 139968)):
        with pytest.raises(InputError, match=f"^the block differential d_5 has {rows} rows, "):
            refused()
    assert built == []


def test_graded_route_counts_the_blocks_it_builds(monkeypatch):
    # Over hemi_sl2(2) with V_2^a to qmax 1 the blocks of d_0 and d_1 have
    # 14 and 28 rows; the ungraded d_1 maps into all 108 cochains of CL^2.
    h = hemi_sl2(2)
    bm = antisymmetric(h, simple_module(2).underlying)
    want = leibniz_cohomology(h, bm, 1).dims
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 27)
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    with pytest.raises(InputError, match="^the block differential d_1 has 28 rows, "
                                         "above the budget of 27$"):
        leibniz_cohomology(h, bm, 1)
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 28)
    assert leibniz_cohomology(h, bm, 1).dims == want
    with pytest.raises(InputError, match="^the block differential d_1 has 108 rows, "):
        leibniz_complex(h, bm, 1)


def test_inputs_beyond_the_full_space_budget_are_answered():
    # CL^5 has 7^5 * 3 = 50 421 cochains, above the budget; the graded
    # route builds blocks of at most 4 111 rows and writes into CL^4.
    h = hemi_sl2(3)
    assert leibniz_cohomology(h, antisymmetric(h, simple_module(2).underlying), 4).dims \
        == [3, 1, 0, 0, 0]


def test_empty_blocks_answer_past_the_full_space_budget():
    # Every weight of V_1^a over hemi_sl2(2) is odd and every alpha even,
    # so the eigenvalue-0 blocks are empty above degree 0, while CL^12
    # has 6^12 * 2 cochains.
    h = hemi_sl2(2)
    assert leibniz_cohomology(h, antisymmetric(h, simple_module(1).underlying), 12).dims \
        == [2] + [0] * 12


def test_many_weights_over_the_one_dimensional_algebra_keep_one_table_entry():
    # Over the one-dimensional algebra every alpha is 0, so the weight
    # table keeps only eigenvalue 0, however many weights M has.
    h = trivial_algebra()
    weights = range(-150, 150)
    bm = Bimodule(h, len(weights), [Mat.diagonal(weights)],
                  [Mat.diagonal([-w for w in weights])])
    assert leibniz_cohomology(h, bm, 4000).dims == trivial_algebra_closed_form(bm, 4000)
    g = cohomology._checked_grading(h, bm, 4000, graded=True)[2]
    assert len(g.sizes) == 4002 and all(len(sizes) <= 1 for sizes in g.sizes)


def test_weight_table_is_refused_before_any_differential(monkeypatch):
    # 49 999 degrees pass the degree range; the weight table of V_1^a over
    # hemi_sl2(1) has 2 eigenvalues in degree 0 and 4q + 3 in degree q.
    h = hemi_sl2(1)
    bm = antisymmetric(h, simple_module(1).underlying)
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    with pytest.raises(InputError, match="^the weight table of CL\\^0..CL\\^157 has 50085 "
                                         f"entries, above the budget of {COCHAIN_BUDGET}$"):
        leibniz_cohomology(h, bm, 49998)
    assert built == []
    assert 2 + sum(4 * q + 3 for q in range(1, 158)) == 50085


def test_weight_table_stores_sizes_up_to_the_cap():
    # A graded table with one entry per degree: block 5001 - q of CL^q has
    # 2^q cochains, stored up to 2^4096.  Ungraded over a two-dimensional
    # algebra CL^q has 2^q cochains too, and a refusal names the first
    # block over the budget, d_15 into CL^16, exactly.
    g = cohomology._Grading((0, 1, 1), (5001,), 5000)
    assert [g.sizes[q][5001 - q] for q in (4095, 4096, 5001)] == [1 << 4095] + [1 << 4096] * 2
    h = LeibnizAlgebra(2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(InputError, match="^the block differential d_15 has 65536 rows, "):
        leibniz_complex(h, Bimodule(h, 1, [Mat.zero(1, 1)] * 2, [Mat.zero(1, 1)] * 2), 5000)


def test_an_ungraded_weight_table_is_refused_as_it_grows():
    # With every alpha 0, d_(q-1) is the one block of CL^q, refused right
    # after that degree is built: CL^7 over a five-dimensional algebra and
    # a two-dimensional bimodule has 2 * 5^7 cochains, and none of the
    # 49 992 degrees above it is built.
    with pytest.raises(InputError, match="^the block differential d_6 has 156250 rows, "
                                         f"above the budget of {COCHAIN_BUDGET}$"):
        cohomology._Grading((0,) * 5, (0,) * 2, 49998)


def test_cl0_over_the_zero_algebra_counts_against_the_budget(monkeypatch):
    # Over the zero algebra CL^0 = M and every higher CL^q is zero; every
    # pass reads all of M, so M is counted first on every route.
    h = LeibnizAlgebra(0, [])
    big = Bimodule(h, COCHAIN_BUDGET + 1, [], [])
    built = []
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    monkeypatch.setattr(cohomology, "_Grading", lambda *args: built.append(args))
    for refused in (lambda: leibniz_cohomology(h, big, 1), lambda: leibniz_complex(h, big, 1),
                    lambda: leibniz_differential(h, big, 0)):
        with pytest.raises(InputError, match="^the cochain space CL\\^0 has dimension "
                                             f"{COCHAIN_BUDGET + 1}, above the budget of "
                                             f"{COCHAIN_BUDGET}$"):
            refused()
    assert built == []
    monkeypatch.undo()
    assert leibniz_cohomology(h, Bimodule(h, 7, [], []), 2).dims == [7, 0, 0]


def test_degree_ranges_count_against_the_budget(monkeypatch):
    # Every space below has dimension at most 3; only the number of
    # degrees, 9 against a budget of 8, is too large.
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 8)
    built = []
    monkeypatch.setattr(cohomology, "ce_differential", lambda *args: built.append(args))
    monkeypatch.setattr(cohomology, "_block_differentials", lambda *args: built.append(args))
    k = OneDimBimodule(KIND_TRIVIAL)
    for refused in (lambda: ce_complex(sl2(), simple_module(0).underlying, 7),
                    lambda: leibniz_complex(trivial_algebra(), k.realize(), 7),
                    lambda: trivial_algebra_closed_form(k.realize(), 8),
                    lambda: ext_trivial_closed(k, k, 8)):
        with pytest.raises(InputError, match="the degree range 0..8 has 9 degrees, "
                                             "above the budget of 8"):
            refused()
    assert built == []
    assert trivial_algebra_closed_form(k.realize(), 7) == [1] * 8
    assert ext_trivial_closed(k, k, 7) == [1] + [2] * 7


def test_differential_checks_its_own_target_dimension(monkeypatch):
    h = hemi_sl2(1)
    bm = antisymmetric(h, simple_module(1).underlying)
    want = [x.dim for x in hl_module_structure(h, bm, 1)]
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 5 * 2)
    assert leibniz_differential(h, bm, 0).rows == 10
    with pytest.raises(InputError, match="^the block differential d_1 has 50 rows"):
        leibniz_differential(h, bm, 1)
    # the graded route builds blocks of 6 and 8 rows
    assert [x.dim for x in hl_module_structure(h, bm, 1)] == want


def test_sizes_past_the_int_to_str_limit_are_refused_by_name():
    # A bimodule of dimension 10^5000, a number of 5 001 digits: past the
    # 4 300 digits that str() converts.
    big = Bimodule(LeibnizAlgebra(0, []), 10 ** 5000, [], [])
    with pytest.raises(InputError, match="^the cochain space CL\\^0 has dimension "
                                         f"over 10\\^4999, above the budget of {COCHAIN_BUDGET}$"):
        leibniz_complex(big.algebra, big, 1)
