"""Ext computations: spectral sequences, collapse certification, closed forms."""

import random
from itertools import product

import pytest

from leibniz_quiver import cohomology, ext, repsl2
from leibniz_quiver.algebra import (
    LeftModule,
    LeibnizAlgebra,
    LieAlgebra,
    hemi_semidirect,
    lift_module,
    quotient_data,
    trivial_algebra,
)
from leibniz_quiver.bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    OneDimBimodule,
    antisymmetric,
    symmetric,
    trivial_bimodule,
)
from leibniz_quiver.cohomology import ce_cohomology, ce_dims_via_invariants, leibniz_cohomology
from leibniz_quiver.errors import (
    CollapseNotCertifiedError,
    InputError,
    UnsupportedDegreeError,
)
from leibniz_quiver.ext import (
    E2Page,
    SimpleDescriptor,
    base_change_map,
    certify_collapse,
    assemble_ext,
    e2_first,
    e2_second,
    ext1_hemi_closed,
    ext1_hemi_oracle,
    ext_base_sym,
    ext_dims,
    ext_simple_closed,
    ext_trivial_closed,
    nhat,
)
from leibniz_quiver.linear import Mat, rank
from leibniz_quiver.quiver import quiver_hemi
from leibniz_quiver.repsl2 import (
    SL2Module,
    clebsch_gordan,
    decompose,
    hemi_sl2,
    hom_dim,
    simple_module,
    sl2,
)

from conftest import make_trivial_bimodule, one_dim_module

TRIV = OneDimBimodule(KIND_TRIVIAL)
SYM1 = OneDimBimodule(KIND_SYMMETRIC, 1)
SYM2 = OneDimBimodule(KIND_SYMMETRIC, 2)
ANTI1 = OneDimBimodule(KIND_ANTISYMMETRIC, 1)
ANTI2 = OneDimBimodule(KIND_ANTISYMMETRIC, 2)
ALL_ONE_DIM = [TRIV, SYM1, SYM2, ANTI1, ANTI2]


def hemi_anti(n, m):
    h = hemi_sl2(n)
    if m == 0:
        return h, trivial_bimodule(h)
    return h, antisymmetric(h, lift_module(h, simple_module(m).underlying))


# ----------------------------------------------------------------- E2 pages

def test_e2_page_shape_and_entry():
    page = E2Page(1, 2, [[1, 0, 0], [2, 1, 0]])
    assert page.entry(0, 0) == 1
    assert page.entry(1, 1) == 1
    assert page.entry(5, 0) == 0
    assert page.entry(0, -1) == 0
    from leibniz_quiver.errors import DimensionError
    with pytest.raises(DimensionError):
        E2Page(1, 1, [[1, -1], [0, 0]])
    with pytest.raises(DimensionError):
        E2Page(1, 1, [[1, 0]])


def test_descriptor_normalization_and_labels():
    assert SimpleDescriptor(KIND_SYMMETRIC, 0).kind == KIND_TRIVIAL
    assert SimpleDescriptor(KIND_TRIVIAL).label() == "V_0"
    assert SimpleDescriptor(KIND_SYMMETRIC, 2).label() == "V_2^s"
    assert SimpleDescriptor(KIND_ANTISYMMETRIC, 1).label() == "V_1^a"
    with pytest.raises(InputError):
        SimpleDescriptor(KIND_TRIVIAL, 3)
    with pytest.raises(InputError):
        SimpleDescriptor("nope", 1)
    with pytest.raises(InputError):
        SimpleDescriptor(KIND_SYMMETRIC, -1)
    for weight in (1.5, "2", True):
        with pytest.raises(InputError):
            SimpleDescriptor(KIND_SYMMETRIC, weight)


def test_descriptor_realize_matches_kinds():
    h = hemi_sl2(1)
    b = SimpleDescriptor(KIND_SYMMETRIC, 2).realize(h)
    assert b.dim == 3
    assert all(b.right[i] == -b.left[i] for i in range(h.dim))
    a = SimpleDescriptor(KIND_ANTISYMMETRIC, 1).realize(h)
    assert all(m.is_zero() for m in a.right)
    t = SimpleDescriptor(KIND_TRIVIAL).realize(h)
    assert t.dim == 1


# ------------------------------------------------------------- base change f

def test_base_change_groups_over_trivial_algebra():
    h = trivial_algebra()
    # trivial coefficients: f = 0, so Ker = Coker = K and Hom carries K
    dims = [c.dim for c in ext_base_sym(h, TRIV.realize(), 4)]
    assert dims == [1, 1, 1, 1, 1]
    # symmetric coefficients: everything in degree 0 only
    dims = [c.dim for c in ext_base_sym(h, SYM1.realize(), 3)]
    assert dims == [1, 0, 0, 0]
    # antisymmetric coefficients: nothing anywhere
    dims = [c.dim for c in ext_base_sym(h, ANTI1.realize(), 3)]
    assert dims == [0, 0, 0, 0]


def test_base_change_rank_nullity():
    # Ext^0 and Ext^1 against the symmetrized module are Ker f and Coker f
    rng = random.Random(11)
    h = trivial_algebra()
    for _ in range(12):
        x = make_trivial_bimodule(rng, max_dim=4)
        z0 = leibniz_cohomology(h, x, 0)[0].cocycles
        f = base_change_map(h, x, z0)
        assert f.cols == x.dim
        assert f.rows == h.dim * z0.dim
        assert [m.dim for m in ext_base_sym(h, x, 1)] == [f.cols - rank(f), f.rows - rank(f)]


def test_degree_zero_stops_after_the_kernel_of_f():
    # nmax 0 asks ext_base_sym for Ker f alone; by Schur's lemma
    # Ext^0(V_1^s, N) is 1 for N = V_1^s and 0 for N = V_1^a.
    h = hemi_sl2(1)
    v1 = lift_module(h, simple_module(1).underlying)
    for x, want in ((antisymmetric(h, v1), 0), (symmetric(h, v1), 1)):
        [ker] = ext_base_sym(h, x, 0)
        assert ker == ext_base_sym(h, x, 1)[0]
        assert ext_dims(h, SimpleDescriptor(KIND_SYMMETRIC, 1), x, 0).dims == (want,)


def test_ext_base_sym_carries_lie_action():
    h = hemi_sl2(1)
    _, bm = hemi_anti(1, 1)
    carrier = ext_base_sym(h, bm, 2)[2]
    # Hom(h, HL^1) with HL^1 = V_0: dim = dim h * dim HL^1
    assert carrier.dim == 5
    assert carrier.algebra == sl2()
    assert decompose(SL2Module(carrier)).mults == {1: 1, 2: 1}


# --------------------------------------------------------------- E2 examples

def test_e2_first_trivial_algebra_examples():
    h = trivial_algebra()
    glie = quotient_data(h).lie
    k = TRIV.underlying_module(glie)
    page = e2_first(h, k, TRIV.realize(), 1, 3)
    for p in range(2):
        for q in range(4):
            assert page.entry(p, q) == 1
    page = e2_first(h, k, SYM1.realize(), 1, 3)
    assert all(page.entry(p, q) == 0 for p in range(2) for q in range(4))


def test_e2_second_trivial_algebra_examples():
    h = trivial_algebra()
    glie = quotient_data(h).lie
    m = SYM1.underlying_module(glie)
    page = e2_second(h, m, SYM1.realize(), 1, 3)
    assert page.entry(0, 0) == 1 and page.entry(1, 0) == 1
    assert all(page.entry(p, q) == 0 for p in range(2) for q in range(1, 4))
    page = e2_second(h, m, ANTI1.realize(), 1, 3)
    assert all(page.entry(p, q) == 0 for p in range(2) for q in range(4))
    page = e2_second(h, m, TRIV.realize(), 1, 3)
    assert all(page.entry(p, q) == 0 for p in range(2) for q in range(4))


def test_e2_first_hemi_concentrates_in_bottom_row():
    h, bm = hemi_anti(1, 1)
    y = simple_module(1).underlying
    page = e2_first(h, y, bm, 3, 2)
    assert [page.entry(p, 0) for p in range(4)] == [1, 0, 0, 1]
    assert all(page.entry(p, q) == 0 for p in range(4) for q in (1, 2))


# ------------------------------------------------------ collapse certification

def test_certify_single_row_and_adjacent_columns():
    single_row = E2Page(3, 2, [[1, 0, 0], [2, 0, 0], [1, 0, 0], [1, 0, 0]])
    assert certify_collapse(single_row).certified
    two_cols = E2Page(3, 2, [[1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0]])
    assert certify_collapse(two_cols).certified


def test_certify_rejects_synthetic_counterexample():
    page = E2Page(2, 1, [[0, 1], [0, 0], [1, 0]])
    cert = certify_collapse(page)
    assert not cert.certified
    assert cert.witness == (2, 0, 1)
    with pytest.raises(CollapseNotCertifiedError) as exc:
        assemble_ext(page, 2)
    assert exc.value.witness == (2, 0, 1)
    assert "d_2" in str(exc.value) or "(0, 1)" in str(exc.value)


def test_assemble_ext_sums_antidiagonals():
    page = E2Page(1, 3, [[1, 1, 1, 1], [1, 1, 1, 1]])
    res = assemble_ext(page, 3)
    assert list(res.dims) == [1, 2, 2, 2]
    assert res.certificate.certified
    assert res.page is page


# ------------------------------------------------- trivial-algebra Ext table

def test_ext_trivial_closed_rows():
    assert ext_trivial_closed(TRIV, TRIV, 3) == [1, 2, 2, 2]
    assert ext_trivial_closed(SYM1, SYM1, 3) == [1, 1, 0, 0]
    assert ext_trivial_closed(ANTI2, ANTI2, 3) == [1, 1, 0, 0]
    assert ext_trivial_closed(SYM1, SYM2, 3) == [0, 0, 0, 0]
    assert ext_trivial_closed(SYM1, ANTI1, 3) == [0, 0, 0, 0]
    assert ext_trivial_closed(TRIV, SYM1, 3) == [0, 0, 0, 0]
    assert ext_trivial_closed(TRIV, TRIV, 0) == [1]
    assert ext_trivial_closed(SYM1, SYM1, 0) == [1]


def test_spectral_path_matches_closed_table_all_pairs():
    h = trivial_algebra()
    for mk, nk in product(ALL_ONE_DIM, repeat=2):
        res = ext_dims(h, mk, nk.realize(), 4)
        assert res.certificate.certified
        assert list(res.dims) == ext_trivial_closed(mk, nk, 4), (mk, nk)


# ----------------------------------------------------------------- hemi nhat

def test_nhat_closed_form_examples():
    g = sl2()
    h1, h2 = hemi_sl2(1), hemi_sl2(2)
    v0 = SimpleDescriptor(KIND_TRIVIAL).underlying_module(g)
    v1 = simple_module(1).underlying
    assert decompose(SL2Module(nhat(h1, v0))).mults == {1: 1, 2: 1}
    assert decompose(SL2Module(nhat(h1, v1))).mults == {0: 1, 2: 1, 3: 1}
    assert decompose(SL2Module(nhat(h2, v0))).mults == {2: 2}


def test_ext1_hemi_closed_spot_values():
    assert ext1_hemi_closed(1, 2, 0) == 1
    assert ext1_hemi_closed(1, 1, 0) == 1
    assert ext1_hemi_closed(2, 2, 0) == 2
    assert ext1_hemi_closed(2, 4, 4) == 1
    assert ext1_hemi_closed(2, 3, 1) == 2
    assert ext1_hemi_closed(2, 6, 4) == 2
    assert ext1_hemi_closed(1, 0, 1) == 1
    assert ext1_hemi_closed(1, 5, 1) == 0
    with pytest.raises(InputError):
        ext1_hemi_closed(0, 1, 1)
    with pytest.raises(InputError):
        ext1_hemi_closed(1, -1, 0)


def test_ext1_closed_form_tests_membership_without_the_multiset(monkeypatch):
    # V_2 lies in V_m (x) V_m for m = 30 000 000, a multiset of 30 000 001
    # weights that the closed form must not build.
    def refuse(*args):
        raise AssertionError("clebsch_gordan was called")

    monkeypatch.setattr(repsl2, "clebsch_gordan", refuse)
    monkeypatch.setattr(ext, "clebsch_gordan", refuse, raising=False)
    assert ext1_hemi_closed(30_000_000, 2, 30_000_000) == 1
    assert ext1_hemi_closed(30_000_000, 3, 30_000_000) == 0
    monkeypatch.undo()
    for n, m, p in product(range(1, 7), range(13), range(13)):
        in_tensor = p in clebsch_gordan(m, n).mults
        assert ext1_hemi_closed(n, p, m) == int(in_tensor) + int(p in (m + 2, m - 2)), (n, m, p)


def test_ext1_closed_equals_nhat_oracle_window():
    for n in (1, 2):
        h = hemi_sl2(n)
        for m in range(3):
            target = (SimpleDescriptor(KIND_TRIVIAL) if m == 0 else
                      SimpleDescriptor(KIND_ANTISYMMETRIC, m))
            nmod = target.underlying_module(sl2())
            hat = decompose(SL2Module(nhat(h, nmod)))
            oracle = ext1_hemi_oracle(n, m)
            for p in range(5):
                src = decompose(simple_module(p))
                assert ext1_hemi_closed(n, p, m) == hom_dim(src, hat)
                assert ext1_hemi_closed(n, p, m) == oracle.multiplicity(p)


def test_nhat_builds_h_as_a_lie_module_once_per_algebra(monkeypatch):
    # quiver_hemi(3, 12, verify=True) computes N-hat for 13 target
    # weights; every Hom(h, N) is taken from one module h.
    seen = []
    real = ext.hom_module_action

    def recording(lie, hmod, n):
        seen.append(hmod)
        return real(lie, hmod, n)

    monkeypatch.setattr(ext, "hom_module_action", recording)
    ext.h_as_lie_module.cache_clear()
    quiver_hemi(3, 12, verify=True)
    assert len(seen) == 13
    assert all(m is seen[0] for m in seen)
    assert ext.h_as_lie_module.cache_info().misses == 1


def test_nhat_eliminates_only_for_the_complement_of_the_image(monkeypatch):
    # f goes to the cokernel as it is, so N-hat takes one elimination, of
    # the complement of span f, and none for V_0, on which f = 0.
    from leibniz_quiver import linear

    calls = []
    real = linear._forward_eliminate
    monkeypatch.setattr(linear, "_forward_eliminate", lambda *args: calls.append(1) or real(*args))
    for n in (1, 2):
        h = hemi_sl2(n)
        for m in range(4):
            module = simple_module(m).underlying
            nhat(h, module)  # the Lie quotient and h as its module are built once
            calls.clear()
            nhat(h, module)
            assert len(calls) == (1 if m else 0), (n, m)


def test_a_cokernel_over_the_zero_algebra_divides_by_the_rank():
    # With no action matrices there is nothing to induce; the dimension is
    # still dim hom - rank f, for f with dependent and zero columns.
    zero = LeibnizAlgebra(0, [])
    hom = LeftModule(zero, 3, [])
    f = Mat.from_cols([[1, 2, 0], [2, 4, 0], [0, 0, 0], [0, 1, 1]])
    assert ext._cokernel_module(hom, f) == LeftModule(zero, 1, [])
    assert ext._cokernel_module(hom, Mat.zero(3, 2)).dim == 3


def test_nhat_is_the_degree_one_base_change_cokernel():
    # Two constructions of Coker(f: V_m -> Hom(h, V_m)): nhat builds f
    # from the action, ext_base_sym from the degree-0 cocycles of V_m^a.
    for n in (1, 2, 3):
        for m in range(5):
            h, bm = hemi_anti(n, m)
            assert nhat(h, simple_module(m).underlying) == ext_base_sym(h, bm, 1)[1], (n, m)


# ------------------------------------------------------- hemi spectral checks

def test_hemi_spectral_consistency_degree_one():
    # first/second sequence output matches the closed form wherever the
    # collapse certificate holds
    n = 1
    h = hemi_sl2(n)
    checked = 0
    for p in range(4):
        src = (SimpleDescriptor(KIND_TRIVIAL) if p == 0 else
               SimpleDescriptor(KIND_SYMMETRIC, p))
        for m in range(3):
            _, bm = hemi_anti(n, m)
            try:
                res = ext_dims(h, src, bm, 1)
            except CollapseNotCertifiedError:
                continue
            assert res.dims[1] == ext1_hemi_closed(n, p, m), (p, m)
            checked += 1
    assert checked >= 8


def test_hemi_first_sequence_full_ext_row():
    # Ext(V_1^a, V_1^a) over the n=1 algebra: Schur in degree 0, then zeros
    h = hemi_sl2(1)
    _, bm = hemi_anti(1, 1)
    src = SimpleDescriptor(KIND_ANTISYMMETRIC, 1)
    res = ext_dims(h, src, bm, 2)
    assert res.certificate.certified
    assert list(res.dims) == [1, 0, 0]


def test_ext_job_builds_at_most_four_differentials(monkeypatch):
    # One complex per Ext job: the first sequence reads HL^0..3, so its
    # complex runs to d_3; the second reads HL^0..2, from one complex to
    # d_2 that also gives the HL^0 cocycles of the map f.
    real = cohomology._block_differentials
    built = []

    def counting(h, m, grading, top):
        built.append(top)
        return real(h, m, grading, top)

    monkeypatch.setattr(cohomology, "_block_differentials", counting)
    h = hemi_sl2(1)
    target = antisymmetric(h, simple_module(1).underlying)
    for kind, weight in ((KIND_TRIVIAL, 0), (KIND_ANTISYMMETRIC, 1), (KIND_SYMMETRIC, 1)):
        built.clear()
        assert ext_dims(h, SimpleDescriptor(kind, weight), target, 3, fast=True).dims
        assert built == ([2] if kind == KIND_SYMMETRIC else [3])


# ------------------------------------------------------------- closed degree 2

def test_ext_simple_closed_schur_degree_zero():
    descs = [SimpleDescriptor(KIND_TRIVIAL),
             SimpleDescriptor(KIND_SYMMETRIC, 1),
             SimpleDescriptor(KIND_SYMMETRIC, 2),
             SimpleDescriptor(KIND_ANTISYMMETRIC, 1)]
    for a in descs:
        for b in descs:
            assert ext_simple_closed(1, a, b, 0) == (1 if a == b else 0)


def test_ext_simple_closed_degree_one_dispatch():
    s2 = SimpleDescriptor(KIND_SYMMETRIC, 2)
    a0 = SimpleDescriptor(KIND_TRIVIAL)
    a1 = SimpleDescriptor(KIND_ANTISYMMETRIC, 1)
    assert ext_simple_closed(2, s2, a0, 1) == 2
    assert ext_simple_closed(1, a0, a1, 1) == 1
    # wrong directions vanish
    assert ext_simple_closed(1, a1, s2, 1) == 0
    assert ext_simple_closed(1, a1, a1, 1) == 0


def test_ext_simple_closed_degree_two_anomaly():
    s = SimpleDescriptor(KIND_SYMMETRIC, 2)
    a = SimpleDescriptor(KIND_ANTISYMMETRIC, 2)
    assert ext_simple_closed(2, s, a, 2) == 4
    for p in (1, 2):
        for m in (1, 2):
            sp = SimpleDescriptor(KIND_SYMMETRIC, p)
            am = SimpleDescriptor(KIND_ANTISYMMETRIC, m)
            assert ext_simple_closed(1, sp, am, 2) == 1
    # outside the {n, 2} window, degree 2 vanishes
    assert ext_simple_closed(1, SimpleDescriptor(KIND_SYMMETRIC, 3), a, 2) == 0
    assert ext_simple_closed(2, s, SimpleDescriptor(KIND_ANTISYMMETRIC, 4), 2) == 0


def test_closed_forms_match_certified_spectral_route():
    # A second route for the closed forms, their zero rules and the
    # degree-2 anomaly above: the certified E2 page must reproduce every
    # closed-form degree for every kind of source and target.
    def simples(wmax):
        return [SimpleDescriptor(KIND_TRIVIAL)] + [
            SimpleDescriptor(kind, w) for kind in (KIND_SYMMETRIC, KIND_ANTISYMMETRIC)
            for w in range(1, wmax + 1)]

    for n, src, dst in product((1, 2), simples(3), simples(2)):
        h = hemi_sl2(n)
        res = ext_dims(h, src, dst.realize(h), 2, fast=True)
        assert res.certificate.certified, (n, src, dst)
        assert list(res.dims) == [ext_simple_closed(n, src, dst, q) for q in range(3)], (n, src, dst)


def test_degree_four_over_hemi_three_beyond_the_full_space_budget():
    # HL^4(hemi_sl2(3), V_2^a) maps into CL^5, 7^5 * 3 = 50 421 cochains,
    # above the budget; the graded route builds blocks of at most 4 111 rows.
    h = hemi_sl2(3)
    src, dst = SimpleDescriptor(KIND_TRIVIAL), SimpleDescriptor(KIND_ANTISYMMETRIC, 2)
    runs = [ext_dims(h, src, dst.realize(h), 4, fast=fast) for fast in (True, False)]
    for res in runs:
        assert res.certificate.certified
        assert list(res.dims) == [0, 1, 0, 0, 1]
    assert runs[0].page.dims == runs[1].page.dims
    assert list(runs[0].dims[:3]) == [ext_simple_closed(3, src, dst, q) for q in range(3)]


def test_ext_simple_closed_degree_guard():
    s = SimpleDescriptor(KIND_SYMMETRIC, 2)
    with pytest.raises(UnsupportedDegreeError):
        ext_simple_closed(2, s, s, 3)
    with pytest.raises(InputError):
        ext_simple_closed(0, s, s, 1)


# ------------------------------------------------------------------ fast path

# The Ext rows of the benchmark's ext_rows workload over hemi_sl2(1).
EXT_ROWS = (
    ("trivial", 0, "antisymmetric", 1),
    ("antisymmetric", 1, "antisymmetric", 1),
    ("trivial", 0, "symmetric", 1),
    ("symmetric", 1, "antisymmetric", 1),
    ("symmetric", 2, "antisymmetric", 2),
    ("symmetric", 1, "symmetric", 2),
)


@pytest.mark.parametrize("skind, sw, dkind, dw", EXT_ROWS, ids=[
    f"{SimpleDescriptor(s, a).label()}->{SimpleDescriptor(d, b).label()}"
    for s, a, d, b in EXT_ROWS])
def test_weyl_fast_flag_gives_same_pages(skind, sw, dkind, dw):
    # Symmetric sources go through e2_second, the others through e2_first.
    h = hemi_sl2(1)
    src, x = SimpleDescriptor(skind, sw), SimpleDescriptor(dkind, dw).realize(h)
    slow, quick = (ext_dims(h, src, x, 3, fast=fast) for fast in (False, True))
    assert slow.page.dims == quick.page.dims
    assert slow.dims == quick.dims


def test_fast_route_over_the_zero_algebra_takes_all_of_m_as_invariants():
    # Over the zero Lie algebra every vector is invariant, so the
    # shortcut answers H^*(0, K) ox M = [dim M, 0, ...], as the full
    # complex does; the Killing form of the zero algebra is (vacuously)
    # nondegenerate.
    h = LeibnizAlgebra(0, [])
    k = trivial_bimodule(h)
    slow = ext_dims(h, SimpleDescriptor("trivial"), k, 2, fast=False).dims
    assert ext_dims(h, SimpleDescriptor("trivial"), k, 2, fast=True).dims == slow == (1, 0, 0)
    g = LieAlgebra(0, [])
    for dim in (0, 2):
        m = LeftModule(g, dim, [])
        assert ce_dims_via_invariants(g, m, 1) == ce_cohomology(g, m, 1).dims == [dim, 0]


def test_fast_route_reads_no_invariants_of_a_zero_dimensional_carrier(monkeypatch):
    # Most Hom carriers of this row are zero-dimensional; their M^g is 0
    # by dimension, with no elimination.
    h = hemi_sl2(1)
    v1a = SimpleDescriptor(KIND_ANTISYMMETRIC, 1)
    sizes = []
    real = cohomology.intersect_kernels

    def spy(mats, n):
        sizes.append(n)
        return real(mats, n)

    monkeypatch.setattr(cohomology, "intersect_kernels", spy)
    assert ext_dims(h, v1a, v1a.realize(h), 3, fast=True).dims == (1, 0, 0, 1)
    assert sizes and 0 not in sizes


def test_invariants_shortcut_refuses_a_lie_algebra_that_is_not_semisimple():
    # g = <x, y> with [x, y] = y and the character chi(x) = 1, chi(y) = 0:
    # H^*(g, chi) is [0, 1, 1] although chi^g = 0, so the shortcut would
    # answer [0, 0, 0].  The Killing form of g is degenerate (ad y is
    # nilpotent), and so is that of the one-dimensional algebra.
    g = LieAlgebra(2, [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    chi = one_dim_module(g, [1, 0])
    assert ce_cohomology(g, chi, 2).dims == [0, 1, 1]
    for lie, module in ((g, chi), (trivial_algebra(), one_dim_module(trivial_algebra(), [0]))):
        with pytest.raises(InputError, match="Killing form is degenerate"):
            ce_dims_via_invariants(lie, module, 2)
    # Over its hemi-semidirect product the full route finds E2 nonzero,
    # and the fast route refuses rather than print an all-zero page.
    h = hemi_semidirect(g, chi)
    inverse, k = one_dim_module(quotient_data(h).lie, [-1, 0]), trivial_bimodule(h)
    assert e2_first(h, inverse, k, 2, 2).dims == ((0, 0, 0), (1, 1, 1), (1, 1, 1))
    with pytest.raises(InputError, match="Killing form is degenerate"):
        e2_first(h, inverse, k, 2, 2, fast=True)
