"""Finite-dimensional sl2 representation theory: weights and decompositions."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_quiver.algebra import LeftModule
from leibniz_quiver import cohomology, ext, linear, repsl2
from leibniz_quiver.errors import InputError, NonIntegralWeightError
from leibniz_quiver.linear import Mat, kron, solve
from leibniz_quiver.quiver import quiver_hemi
from leibniz_quiver.repsl2 import (
    SL2Module,
    WeightMultiset,
    clebsch_gordan,
    decompose,
    direct_sum,
    dual,
    hemi_sl2,
    hom_dim,
    simple_module,
    sl2,
    tensor,
)


def test_simple_module_h_spectrum():
    v3 = simple_module(3)
    rho_h = v3.underlying.action[1]
    # diagonal with weights m, m-2, ..., -m
    diag = [rho_h[i, i] for i in range(4)]
    assert diag == [Fraction(3), Fraction(1), Fraction(-1), Fraction(-3)]
    assert simple_module(0).underlying.action[0].is_zero()


def test_decompose_simples():
    for m in range(6):
        assert decompose(simple_module(m)).mults == {m: 1}


def test_decompose_zero_module():
    zero = SL2Module(LeftModule(sl2(), 0, [Mat.zero(0, 0)] * 3))
    assert decompose(zero) == WeightMultiset({})


def test_weight_multiset_api():
    w = WeightMultiset({2: 1, 0: 2})
    assert w.multiplicity(0) == 2
    assert w.multiplicity(5) == 0
    assert w.module_dim() == 3 + 2 * 1


def test_clebsch_gordan_values():
    assert clebsch_gordan(2, 3).mults == {5: 1, 3: 1, 1: 1}
    assert clebsch_gordan(1, 1).mults == {2: 1, 0: 1}
    assert clebsch_gordan(0, 4).mults == {4: 1}
    with pytest.raises(ValueError):
        clebsch_gordan(-1, 0)


def _shear_conjugate(v, check=True):
    """v in the basis given by the columns of L L^T, with L the lower
    unitriangular all-ones matrix, so that e, h and f are dense instead
    of being given in a weight basis; ``check`` is the module check."""
    d = v.dim
    low = Mat.from_rows([[int(j <= i) for j in range(d)] for i in range(d)])
    low_inv = Mat.from_rows([[int(i == j) - int(i == j + 1) for j in range(d)] for i in range(d)])
    p, p_inv = low * low.transpose(), low_inv.transpose() * low_inv
    return SL2Module(LeftModule(sl2(), d, [p_inv * a * p for a in v.underlying.action],
                                check=check))


def test_tensor_decomposition_matches_clebsch_gordan_small():
    for m in range(4):
        for n in range(4):
            t = tensor(simple_module(m), simple_module(n))
            assert decompose(t).mults == clebsch_gordan(m, n).mults
            assert decompose(_shear_conjugate(t)).mults == clebsch_gordan(m, n).mults


def test_decompose_through_a_non_unimodular_rational_change_of_basis(monkeypatch):
    # P is lower triangular with diagonal 1, 2, ..., d and 1/2 below it,
    # so h on ker e has denominators and each elimination of
    # ``_eigenspaces`` shifts the scaled rows by m * den with den > 1.
    dens = []
    real = repsl2._eigenspaces

    def recording(a, candidates):
        dens.append(lcm(*(x.denominator for i in range(a.rows) for _, x in a.nonzeros(i))))
        return real(a, candidates)

    monkeypatch.setattr(repsl2, "_eigenspaces", recording)
    cases = [(tensor(simple_module(m), simple_module(n)), clebsch_gordan(m, n))
             for m in range(1, 4) for n in range(m, 4)]
    cases.append((direct_sum(simple_module(2), simple_module(0), simple_module(2)),
                  WeightMultiset({2: 2, 0: 1})))
    for v, want in cases:
        d = v.dim
        p = Mat.from_rows([[i + 1 if i == j else Fraction(1, 2) * (j < i) for j in range(d)]
                           for i in range(d)])
        p_inv = solve(p, Mat.identity(d))
        conj = SL2Module(LeftModule(sl2(), d, [p_inv * a * p for a in v.underlying.action]))
        assert decompose(conj) == want
    assert len(dens) == len(cases) and min(dens) > 1


def _count_eliminations(monkeypatch) -> list:
    """The column count of each ``linear._int_kernel_and_pivots``
    elimination, the one under every kernel of ``linear``."""
    calls = []
    real = linear._int_kernel_and_pivots

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(linear, "_int_kernel_and_pivots", counting)
    return calls


def test_a_weight_basis_is_decomposed_by_one_elimination(monkeypatch):
    # In a weight basis h is diagonal on ker e, so its eigenspaces are
    # read off and the one elimination is that of ker e.
    calls = _count_eliminations(monkeypatch)
    for m in range(6):
        for n in range(m, 6):
            v = tensor(simple_module(m), simple_module(n))
            calls.clear()
            assert decompose(v) == clebsch_gordan(m, n)
            assert len(calls) == 1, (m, n)
    per_call = []
    real = ext.decompose

    def counted(v):
        before = len(calls)
        out = real(v)
        per_call.append(len(calls) - before)
        return out

    monkeypatch.setattr(ext, "decompose", counted)
    quiver_hemi(1, 8, verify=True)  # the N-hat cokernels of weights 0..8
    assert per_call == [1] * 9


def test_a_sheared_basis_takes_at_most_one_elimination_per_weight(monkeypatch):
    # h on ker e is not diagonal here: ker e, then at most one shifted
    # elimination for each m = 0..m + n, the top weight.
    calls = _count_eliminations(monkeypatch)
    for m, n in ((3, 30), (1, 40)):
        v = _shear_conjugate(tensor(simple_module(m), simple_module(n)), check=False)
        calls.clear()
        assert decompose(v) == clebsch_gordan(m, n)
        assert 1 < len(calls) <= m + n + 2


def test_dual_of_simple_is_isomorphic():
    for m in range(5):
        assert decompose(dual(simple_module(m))).mults == {m: 1}


def test_direct_sum_decomposition_is_additive():
    s = direct_sum(simple_module(2), simple_module(0), simple_module(2))
    assert decompose(s).mults == {2: 2, 0: 1}


def test_hom_dim_counts_common_simples():
    a = WeightMultiset({2: 2, 0: 1})
    b = WeightMultiset({2: 3, 4: 1})
    assert hom_dim(a, b) == 6
    assert hom_dim(a, WeightMultiset({})) == 0


def test_intertwiner_schur_numbers():
    for m in range(4):
        for n in range(4):
            expect = 1 if m == n else 0
            got = hom_dim(decompose(simple_module(m)), decompose(simple_module(n)))
            assert got == expect


def test_non_integral_weights_rejected():
    g = sl2()
    rho = [Mat.zero(1, 1), Mat.from_rows([[Fraction(1, 2)]]), Mat.zero(1, 1)]
    broken = SL2Module(LeftModule(g, 1, rho, check=False))
    with pytest.raises(NonIntegralWeightError):
        decompose(broken)


def test_hemi_sl2_structure():
    h = hemi_sl2(2)
    assert h.dim == 6
    with pytest.raises(ValueError):
        hemi_sl2(0)


def test_weights_beyond_budget_are_refused(monkeypatch):
    # hemi_sl2(3) has dimension 7 and a table of 7^3 = 343 structure constants
    monkeypatch.setattr(cohomology, "COCHAIN_BUDGET", 342)
    hemi_sl2.cache_clear()  # a cached algebra or module would skip its check
    simple_module.cache_clear()
    with pytest.raises(InputError, match="the bracket table of V_3 x_hs sl2 has dimension 343"):
        hemi_sl2(3)
    with pytest.raises(InputError, match="the module V_342 has dimension 343"):
        simple_module(342)
    assert (hemi_sl2(2).dim, simple_module(341).dim) == (6, 342)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_clebsch_gordan_dim_and_symmetry(m, n):
    cg = clebsch_gordan(m, n)
    assert cg.module_dim() == (m + 1) * (n + 1)
    assert cg.mults == clebsch_gordan(n, m).mults
    top = max(cg.mults)
    assert top == m + n and cg.mults[top] == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_hom_dim_symmetric_for_self_dual_inputs(m, n):
    a = clebsch_gordan(m, n)
    b = clebsch_gordan(n, m)
    assert hom_dim(a, b) == hom_dim(b, a)


def test_tensor_and_dual_are_the_kronecker_and_transpose_actions():
    # tensor is built as Hom(V*, U) and dual as Hom(V, V_0); both must
    # give the matrices of the textbook formulas, entry for entry
    for m in range(5):
        a = simple_module(m).underlying.action
        assert dual(simple_module(m)).underlying.action == tuple((-x).transpose() for x in a)
        for n in range(5):
            b = simple_module(n).underlying.action
            want = tuple(kron(x, Mat.identity(n + 1)) + kron(Mat.identity(m + 1), y)
                         for x, y in zip(a, b))
            got = tensor(simple_module(m), simple_module(n)).underlying
            assert (got.dim, got.action) == ((m + 1) * (n + 1), want)
