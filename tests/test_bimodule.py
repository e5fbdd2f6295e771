"""Bimodule axioms, canonical constructions, and subspace invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leibniz_quiver.algebra import LeftModule, LeibnizAlgebra, lift_module, trivial_algebra
from leibniz_quiver.bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    Bimodule,
    OneDimBimodule,
    antisymmetric,
    antisymmetric_kernel,
    bimodule_from_spec,
    bimodule_to_spec,
    check_bimodule,
    hom_module_action,
    right_invariants,
    sym_quotient,
    symmetric,
    trivial_bimodule,
)
from leibniz_quiver.errors import InputError, ModuleAxiomError
from leibniz_quiver.cohomology import leibniz_cohomology
from leibniz_quiver import linear
from leibniz_quiver.linear import (Mat, SubspaceBasis, image_basis, intersect_kernels, kron,
                                   restrict_and_project)
from leibniz_quiver.repsl2 import hemi_sl2, simple_module, sl2

from conftest import make_trivial_bimodule


def lifted_simple(n, m):
    """V_m pulled back to the hemi-semidirect algebra with parameter n."""
    h = hemi_sl2(n)
    return h, lift_module(h, simple_module(m).underlying)


# -------------------------------------------------------------------- axioms

def test_axiom_rejection():
    # over the 1-dim algebra, L = R = 1 violates (L+R)R = 0
    one = Mat.from_rows([[1]])
    with pytest.raises(ModuleAxiomError):
        Bimodule(trivial_algebra(), 1, [one], [one])
    b = Bimodule(trivial_algebra(), 1, [one], [one], check=False)
    assert not check_bimodule(b)


def test_symmetric_and_antisymmetric_over_hemi():
    for n in (1, 2):
        for m in (0, 1, 2):
            h, mod = lifted_simple(n, m)
            s = symmetric(h, mod)
            a = antisymmetric(h, mod)
            assert check_bimodule(s) and check_bimodule(a)
            for i in range(h.dim):
                assert s.right[i] == -s.left[i]
                assert a.right[i].is_zero()


def test_trivial_bimodule_shape():
    t = trivial_bimodule(hemi_sl2(1))
    assert t.dim == 1
    assert all(m.is_zero() for m in t.left + t.right)


def test_one_dim_bimodule_descriptor_validation():
    assert OneDimBimodule(KIND_TRIVIAL).label() == "K"
    assert OneDimBimodule(KIND_SYMMETRIC, 2).label() == "M^s(2)"
    assert OneDimBimodule(KIND_ANTISYMMETRIC, Fraction(1, 2)).label() == "M^a(1/2)"
    with pytest.raises(InputError):
        OneDimBimodule("weird", 1)
    with pytest.raises(InputError):
        OneDimBimodule(KIND_TRIVIAL, 1)
    with pytest.raises(InputError):
        OneDimBimodule(KIND_SYMMETRIC, 0)


def test_one_dim_realizations_satisfy_axioms():
    for d in (
        OneDimBimodule(KIND_TRIVIAL),
        OneDimBimodule(KIND_SYMMETRIC, 1),
        OneDimBimodule(KIND_ANTISYMMETRIC, Fraction(3, 7)),
    ):
        b = d.realize()
        assert check_bimodule(b)
        lam = d.lam
        assert b.left[0][0, 0] == lam
        if d.kind == KIND_SYMMETRIC:
            assert b.right[0][0, 0] == -lam
        else:
            assert b.right[0].is_zero()


# ------------------------------------------------------- subspace invariants

def test_antisymmetric_kernel_and_sym_quotient():
    # antisymmetric bimodule: x.m + m.x = x.m, so M_0 = image of the left action
    h, mod = lifted_simple(1, 1)
    a = antisymmetric(h, mod)
    m0 = antisymmetric_kernel(a)
    assert m0.dim == 2  # V_1 is simple nontrivial: g.V = V
    q = sym_quotient(a)
    assert q.dim == 0
    # symmetric bimodule: x.m + m.x = 0 identically
    s = symmetric(h, mod)
    assert antisymmetric_kernel(s).dim == 0
    assert sym_quotient(s).dim == 2
    assert check_bimodule(sym_quotient(s))


def test_sym_quotient_eliminates_the_stacked_actions_once(monkeypatch):
    # The columns of [L_0 + R_0 | ...] are divided by as they stand, in the
    # one elimination of restrict_and_project; their image basis would be a
    # second elimination of the same columns.  The quotient is the one
    # that the image basis gives, and over the zero algebra it is all of M.
    calls = []
    real = linear._forward_eliminate
    monkeypatch.setattr(linear, "_forward_eliminate",
                        lambda *args: calls.append(1) or real(*args))
    for m in (1, 2):
        h, mod = lifted_simple(1, m)
        calls.clear()
        assert sym_quotient(antisymmetric(h, mod)).dim == 0
        assert len(calls) == 1
    monkeypatch.undo()
    rng = random.Random(3)
    for _ in range(20):
        b = make_trivial_bimodule(rng, max_dim=4)
        induced = restrict_and_project(b.left + b.right, SubspaceBasis.full(b.dim),
                                       antisymmetric_kernel(b).matrix())
        q = sym_quotient(b)
        assert (q.dim, q.left + q.right) == (induced[0].rows, tuple(induced))
    zero = LeibnizAlgebra(0, [])
    assert sym_quotient(Bimodule(zero, 2, [], [])).dim == 2
    assert sym_quotient(Bimodule(hemi_sl2(1), 0, [Mat.zero(0, 0)] * 5,
                                 [Mat.zero(0, 0)] * 5)).dim == 0


def test_right_invariants():
    h, mod = lifted_simple(1, 1)
    assert right_invariants(antisymmetric(h, mod)).dim == 2
    assert right_invariants(symmetric(h, mod)).dim == 0
    assert right_invariants(trivial_bimodule(h)).dim == 1


def test_right_invariants_over_the_zero_algebra_are_the_whole_space():
    # No right action to intersect, so every vector is invariant, as
    # HL^0 of the same bimodule says.
    h = LeibnizAlgebra(0, [])
    b = Bimodule(h, 2, [], [])
    assert right_invariants(b) == SubspaceBasis.full(2)
    assert leibniz_cohomology(h, b, 0).dims == [2]
    assert right_invariants(Bimodule(h, 0, [], [])).dim == 0


# ------------------------------------------------------------ Hom module

def test_hom_module_action_decomposes_correctly():
    from leibniz_quiver.repsl2 import SL2Module, decompose

    g = sl2()
    u = simple_module(1).underlying
    v = simple_module(2).underlying
    hom = hom_module_action(g, u, v)
    assert hom.dim == 6
    assert decompose(SL2Module(hom)).mults == {3: 1, 1: 1}


_entries = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                            Fraction(-2, 3)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_hom_module_action_is_the_kronecker_formula(du, dv, data):
    # Any matrix is a module over the one-dimensional algebra, so these
    # are random modules; equal diagonal entries make the two terms
    # cancel on the diagonal.
    g = trivial_algebra()

    def module(d):
        grid = data.draw(st.lists(st.lists(_entries, min_size=d, max_size=d),
                                  min_size=d, max_size=d))
        return LeftModule(g, d, [Mat(d, d, grid)])

    u, v = module(du), module(dv)
    [au], [av] = u.action, v.action
    hom = hom_module_action(g, u, v)
    assert hom.dim == du * dv
    assert hom.action == (kron(av, Mat.identity(du)) - kron(Mat.identity(dv), au.transpose()),)


def test_intertwiner_dim_is_schur():
    g = sl2()
    for m in range(3):
        for n in range(3):
            u = simple_module(m).underlying
            v = simple_module(n).underlying
            hom = hom_module_action(g, u, v)
            assert intersect_kernels(hom.action, hom.dim).dim == (1 if m == n else 0)


def test_hom_flattening_convention():
    # f_{ij} at flat index i*dim_u + j maps u_j to v_i; check one entry
    g = sl2()
    u = simple_module(1).underlying
    v = simple_module(1).underlying
    hom = hom_module_action(g, u, v)
    # the identity map is an invariant vector
    ident = [1 if i == j else 0 for i in range(2) for j in range(2)]
    for k in range(3):
        assert all(x == 0 for x in hom.action[k].apply(ident))


# ----------------------------------------------------------------- JSON I/O

def test_bimodule_spec_roundtrip():
    h = trivial_algebra()
    b = OneDimBimodule(KIND_SYMMETRIC, Fraction(5, 3)).realize()
    spec = bimodule_to_spec(b)
    back = bimodule_from_spec(h, spec)
    assert back == b


def test_bimodule_spec_rejects_bad_input():
    h = trivial_algebra()
    with pytest.raises(InputError):
        bimodule_from_spec(h, {"dim": 1})
    with pytest.raises(InputError):
        bimodule_from_spec(h, {"dim": 1, "left": [[[1]]], "right": [[["bad"]]]})
    with pytest.raises(InputError):
        bimodule_from_spec(h, {"dim": 2, "left": [[[1]]], "right": [[[0]]]})
    with pytest.raises(InputError):
        bimodule_from_spec(h, {"dim": 1, "left": [[["1e5000"]]], "right": [[[0]]]})
    with pytest.raises(InputError):
        bimodule_from_spec(h, {"dim": True, "left": [[[1]]], "right": [[[0]]]})
    # axiom-violating matrices are rejected on load
    with pytest.raises((InputError, ModuleAxiomError)):
        bimodule_from_spec(h, {"dim": 1, "left": [[[1]]], "right": [[[1]]]})


def test_bimodule_spec_accepts_fraction_strings():
    h = trivial_algebra()
    b = bimodule_from_spec(h, {"dim": 1, "left": [[["1/2"]]], "right": [[["-1/2"]]]})
    assert b.left[0][0, 0] == Fraction(1, 2)


# -------------------------------------------------- randomized axiom checks

def test_random_bimodules_satisfy_inclusions():
    rng = random.Random(20240814)
    for _ in range(20):
        b = make_trivial_bimodule(rng)
        left, right = b.left[0], b.right[0]
        both = left + right
        # M.h lies inside M^0 and M_0 lies inside M^h
        mh_image = image_basis(right)
        m0_img = image_basis(both)
        for v in mh_image.vectors:
            assert all(x == 0 for x in both.apply(v))
        for v in m0_img.vectors:
            assert all(x == 0 for x in right.apply(v))


def test_one_dim_realize_is_the_explicit_bimodule():
    h = trivial_algebra()
    for kind, lam, right in ((KIND_TRIVIAL, 0, 0), (KIND_SYMMETRIC, 3, -3),
                             (KIND_ANTISYMMETRIC, Fraction(-1, 2), 0)):
        want = Bimodule(h, 1, [Mat(1, 1, [[lam]])], [Mat(1, 1, [[right]])])
        assert OneDimBimodule(kind, lam).realize() == want
        assert OneDimBimodule(kind, lam).realize(h) == want
