"""Leibniz algebras, the Leibniz kernel, Lie quotients, hemi-semidirect products."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_quiver.algebra import (
    LeftModule,
    LeibnizAlgebra,
    LieAlgebra,
    QuotientData,
    adjoint_module,
    algebra_from_spec,
    algebra_to_spec,
    check_left_leibniz,
    hemi_semidirect,
    leibniz_kernel,
    lift_module,
    quotient_data,
    trivial_algebra,
)
from leibniz_quiver.errors import AlgebraAxiomError, InputError, ModuleAxiomError
from leibniz_quiver import linear
from leibniz_quiver.linear import Mat, lincomb, rank, solve
from leibniz_quiver.repsl2 import direct_sum, hemi_sl2, simple_module, sl2

from conftest import _unimodular, basis_vector, one_dim_module


def br(a, i, j):
    """Bracket of two basis elements as a coordinate tuple."""
    return a.bracket(basis_vector(a.dim, i), basis_vector(a.dim, j))


def test_trivial_algebra_shape():
    a = trivial_algebra()
    assert a.dim == 1
    assert br(a, 0, 0) == (Fraction(0),)
    assert check_left_leibniz(a)
    assert leibniz_kernel(a).dim == 0


def test_sl2_is_leibniz_and_lie():
    g = sl2()
    assert isinstance(g, LieAlgebra)
    assert check_left_leibniz(g)
    assert leibniz_kernel(g).dim == 0
    # [e, f] = h in the standard basis order (e, h, f)
    assert br(g, 0, 2) == (Fraction(0), Fraction(1), Fraction(0))
    assert br(g, 2, 0) == (Fraction(0), Fraction(-1), Fraction(0))
    assert br(g, 0, 1) == (Fraction(-2), Fraction(0), Fraction(0))


def test_left_right_mult_consistency():
    g = sl2()
    for i in range(3):
        for j in range(3):
            via_left = g.left_mult(i).col(j)
            via_right = tuple(-x for x in g.left_mult(j).col(i))  # [b_i, b_j] = -[b_j, b_i]
            assert via_left == br(g, i, j) == via_right


def test_non_leibniz_table_rejected():
    # bracket [x,x] = x on a 1-dim space violates the left Leibniz identity
    with pytest.raises(AlgebraAxiomError):
        LeibnizAlgebra(1, [[[Fraction(1)]]])
    bad = LeibnizAlgebra(1, [[[Fraction(1)]]], check=False)
    assert not check_left_leibniz(bad)


def _leibniz_pointwise(a):
    """The left Leibniz identity on every basis triple, by ``a.bracket``."""
    e = partial(basis_vector, a.dim)
    for x, y, z in itertools.product(range(a.dim), repeat=3):
        lhs = a.bracket(e(x), a.bracket(e(y), e(z)))
        rhs = [u + v for u, v in zip(a.bracket(a.bracket(e(x), e(y)), e(z)),
                                     a.bracket(e(y), a.bracket(e(x), e(z))))]
        if list(lhs) != rhs:
            return False
    return True


@st.composite
def bracket_tables(draw):
    d = draw(st.integers(0, 3))
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    return LeibnizAlgebra(d, [[[draw(entry) for _ in range(d)] for _ in range(d)]
                              for _ in range(d)], check=False)


@settings(max_examples=200, deadline=None)
@given(bracket_tables())
def test_leibniz_check_agrees_with_pointwise_brackets(a):
    assert check_left_leibniz(a) == _leibniz_pointwise(a)


def test_lie_constructor_rejects_asymmetric_bracket():
    # [x,y] = y, [y,x] = 0 is Leibniz but not antisymmetric
    c = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
    assert check_left_leibniz(LeibnizAlgebra(2, c))
    with pytest.raises(AlgebraAxiomError, match="^bracket is not antisymmetric$"):
        LieAlgebra(2, c)


def test_hemi_semidirect_brackets():
    h = hemi_sl2(1)  # V_1 then sl2; dim 5
    assert h.dim == 5
    assert check_left_leibniz(h)
    # module elements multiply to zero on the left
    for j in range(5):
        assert br(h, 0, j) == (Fraction(0),) * 5
        assert br(h, 1, j) == (Fraction(0),) * 5
    # [(0,x),(b,0)] = x.b lands in the module block
    v1 = simple_module(1)
    for xi in range(3):
        for bj in range(2):
            got = br(h, 2 + xi, bj)
            assert got[2:] == (Fraction(0),) * 3
            assert got[:2] == tuple(v1.underlying.action[xi].col(bj))
    # [(0,x),(0,y)] = [x,y] in the sl2 block
    g = sl2()
    for xi in range(3):
        for yj in range(3):
            got = br(h, 2 + xi, 2 + yj)
            assert got[:2] == (Fraction(0),) * 2
            assert got[2:] == br(g, xi, yj)


def test_hemi_kernel_is_module_block():
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        k = leibniz_kernel(h)
        assert k.dim == n + 1
        for v in k.vectors:
            assert all(x == 0 for x in v[n + 1:])


def test_lie_quotient_of_hemi_is_sl2():
    h = hemi_sl2(2)
    glie, proj = quotient_data(h).lie, quotient_data(h).projection
    assert glie == sl2()
    assert proj.rows == 3 and proj.cols == 6
    # projection kills the module block and is identity on the sl2 block
    for j in range(3):
        assert proj.col(j) == (Fraction(0),) * 3
        assert proj.col(3 + j) == tuple(Mat.identity(3).col(j))


def test_lie_quotient_of_lie_algebra_is_identity():
    g = sl2()
    glie, proj = quotient_data(g).lie, quotient_data(g).projection
    assert glie == g
    assert proj == Mat.identity(3)


def test_quotient_data_complement_indices():
    data = quotient_data(hemi_sl2(1))
    assert list(data.complement) == [2, 3, 4]
    assert data.kernel.dim == 2
    assert data.lie == sl2()


def test_left_module_validation():
    g = sl2()
    with pytest.raises(ModuleAxiomError):
        LeftModule(g, 1, [Mat.from_rows([[1]])] * 3)
    adj = adjoint_module(g)
    assert adj.dim == 3
    assert adj.action[0] == g.left_mult(0)


def test_one_dim_module_over_trivial_algebra():
    m = one_dim_module(trivial_algebra(), [Fraction(3, 2)])
    assert m.dim == 1
    assert m.action[0][0, 0] == Fraction(3, 2)


def test_lift_module_through_quotient():
    h = hemi_sl2(1)
    v2 = simple_module(2).underlying
    lifted = lift_module(h, v2)
    assert lifted.algebra == h
    assert lifted.dim == 3
    # Leibniz kernel (the V_1 block) must act as zero
    assert lifted.action[0].is_zero()
    assert lifted.action[1].is_zero()
    assert lifted.action[2] == v2.action[0]


def test_act_by_combines_coordinates():
    g = sl2()
    adj = adjoint_module(g)
    got = adj.act_by([1, 0, -1])
    assert got == g.left_mult(0) - g.left_mult(2)


def test_hemi_semidirect_rejects_mismatched_module():
    v = simple_module(1).underlying
    wrong = LeftModule(trivial_algebra(), 1, [Mat.zero(1, 1)])
    with pytest.raises(ModuleAxiomError):
        hemi_semidirect(sl2(), wrong)
    assert hemi_semidirect(sl2(), v).dim == 5


def test_spec_roundtrip():
    for a in (trivial_algebra(), sl2(), hemi_sl2(1)):
        spec = algebra_to_spec(a)
        back = algebra_from_spec(spec)
        assert back == a


def test_spec_rejects_malformed_input():
    with pytest.raises(InputError):
        algebra_from_spec({"dim": 1})
    with pytest.raises(InputError):
        algebra_from_spec({"dim": 2, "bracket": [[[]]]})
    with pytest.raises(InputError):
        algebra_from_spec({"dim": 1, "bracket": [[[[0, "x", 1]]]]})
    with pytest.raises(InputError):
        algebra_from_spec({"dim": 1, "bracket": [[[[3, 1, 1]]]]})
    for bracket in (5, [5], [[5]], "x"):
        with pytest.raises(InputError):
            algebra_from_spec({"dim": 1, "bracket": bracket})
    for triple in ([True, 1, 1], [0, True, 1], [0, 1, True]):
        with pytest.raises(InputError):
            algebra_from_spec({"dim": 2, "bracket": [[[triple], []], [[], []]]})
    with pytest.raises(InputError):
        algebra_from_spec({"dim": True, "bracket": [[[]]]})
    with pytest.raises(AlgebraAxiomError):
        algebra_from_spec({"dim": 1, "bracket": [[[[0, 1, 1]]]]})


def test_spec_rational_coefficients():
    a = algebra_from_spec({"dim": 1, "bracket": [[[[0, 0, 2]]]]})
    assert a == trivial_algebra()


def test_algebra_equality_and_hash():
    assert trivial_algebra() == trivial_algebra()
    assert hash(sl2()) == hash(sl2())
    assert sl2() != trivial_algebra()


def test_equal_algebras_share_one_table():
    # A comparison that finds the tables equal leaves both algebras on
    # one table; unequal ones keep their own, and no hash changes.
    lie, s = quotient_data(hemi_sl2(2)).lie, LieAlgebra(3, sl2().c)
    hashes = hash(lie), hash(s)
    assert s.c is not lie.c and lie == s
    assert s.c is lie.c and (hash(lie), hash(s)) == hashes
    a, b = hemi_sl2(1), hemi_sl2(2)
    ca, cb = a.c, b.c
    assert a != b and b != a and a.c is ca and b.c is cb
    c = [[list(row) for row in plane] for plane in sl2().c]
    c[0][1][1] += 1
    changed = LieAlgebra(3, c, check=False)
    before = changed.c, hash(changed)
    assert changed != sl2() and sl2() != changed
    assert (changed.c, hash(changed)) == before and changed.c is before[0]


def _sheared(a: LeibnizAlgebra, rng: random.Random) -> LeibnizAlgebra:
    """a in the basis of the columns of a random unimodular P: the
    bracket of the new b_i and b_j is P^-1 [p_i, p_j]."""
    p = _unimodular(rng, a.dim)
    p_inv = solve(p, Mat.identity(a.dim))
    ads = [a.left_mult(i) for i in range(a.dim)]
    cols = [p.col(i) for i in range(a.dim)]
    return LeibnizAlgebra(a.dim, [[p_inv.apply(lincomb(ads, u, a.dim).apply(w)) for w in cols]
                                  for u in cols])


def _quotient_inputs():
    rng = random.Random(7)
    algebras = [hemi_sl2(n) for n in (1, 2, 3)]
    algebras.append(hemi_semidirect(sl2(), direct_sum(simple_module(1),
                                                      simple_module(1)).underlying))
    return algebras + [_sheared(a, rng) for a in algebras] + [sl2(), trivial_algebra()]


def test_quotient_data_matches_the_solve_on_kernel_and_complement():
    # comp takes each standard vector that is independent of the kernel K
    # and of the standard vectors before it, and v = K x + E_comp y has
    # quotient coordinates y: the projection is the last rows of the
    # solution of [K | E_comp] X = I.
    sheared_w = 0
    for a in _quotient_inputs():
        data = QuotientData(a)
        n, k = a.dim, data.kernel.matrix()
        e = [Mat.from_cols([Mat.identity(n).col(i) for i in range(j)], rows=n)
             for j in range(n + 1)]
        comp = [j for j in range(n)
                if rank(Mat.hstack([k, e[j + 1]])) > rank(Mat.hstack([k, e[j]]))]
        ecomp = Mat.from_cols([Mat.identity(n).col(j) for j in comp], rows=n)
        x = solve(Mat.hstack([k, ecomp]), Mat.identity(n))
        proj = Mat(len(comp), n, [x.row(k.cols + i) for i in range(len(comp))])
        assert data.complement == tuple(comp)
        assert data.projection == proj
        assert data.lie.c == tuple(tuple(proj.apply(a.c[i][j]) for j in comp) for i in comp)
        sheared_w += any(proj[i, j] for i in range(len(comp)) for j in range(n) if j not in comp)
    assert sheared_w > 0


def test_quotient_data_eliminates_twice(monkeypatch):
    # One elimination for the kernel basis, one for its complement and
    # the projection along it.
    calls = []
    real = linear._forward_eliminate
    monkeypatch.setattr(linear, "_forward_eliminate", lambda *args: calls.append(1) or real(*args))
    for a in _quotient_inputs():
        calls.clear()
        QuotientData(a)
        assert len(calls) == 2


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4))
def test_abelian_algebras_are_leibniz_with_zero_kernel(d):
    zero = [[[0] * d for _ in range(d)] for _ in range(d)]
    a = LeibnizAlgebra(d, zero)
    assert check_left_leibniz(a)
    assert leibniz_kernel(a).dim == 0
    glie, proj = quotient_data(a).lie, quotient_data(a).projection
    assert glie.dim == d
    assert proj == Mat.identity(d)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(1, 3))
def test_hemi_of_simple_module_satisfies_identity(m, n):
    # mixing weights: any sl2-module gives a Leibniz algebra this way
    del n
    h = hemi_semidirect(sl2(), simple_module(m).underlying)
    assert check_left_leibniz(h)
    assert leibniz_kernel(h).dim == (m + 1 if m >= 1 else 0)


def test_spec_bracket_table_counts_against_the_budget():
    # The input holds dim^2 cells but the table has dim^3 slots, refused
    # before any is allocated: 37^3 = 50 653, 36^3 = 46 656.
    def empty(dim):
        return {"dim": dim, "bracket": [[[] for _ in range(dim)] for _ in range(dim)]}

    with pytest.raises(InputError) as exc:
        algebra_from_spec(empty(37))
    assert str(exc.value) == (
        "the bracket table of the algebra has 50653 entries, above the budget of 50000")
    assert algebra_from_spec(empty(36)).dim == 36
