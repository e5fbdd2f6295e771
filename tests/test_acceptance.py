"""End-to-end acceptance suite.

Each test covers one reproduction target: the two closed-form quivers,
the Ext tables over both base algebras, the cohomology closed forms,
the sl2 vanishing results, and the structural guarantees (differentials
square to zero, axioms hold, collapse is certified, the certifier
rejects a doctored page).  Every test prints one PASS line; timing
bounds are asserted where the target computation is meant to be cheap.
"""

import json
import random
import time
from itertools import product

import pytest

from leibniz_quiver import cli
from leibniz_quiver.algebra import lift_module, trivial_algebra
from leibniz_quiver.bimodule import (
    KIND_ANTISYMMETRIC,
    KIND_SYMMETRIC,
    KIND_TRIVIAL,
    OneDimBimodule,
    antisymmetric,
    check_bimodule,
    symmetric,
    trivial_bimodule,
)
from leibniz_quiver.cohomology import (
    ce_cohomology,
    ce_complex,
    leibniz_cohomology,
    leibniz_complex,
    trivial_algebra_closed_form,
)
from leibniz_quiver.errors import CollapseNotCertifiedError
from leibniz_quiver.ext import (
    E2Page,
    SimpleDescriptor,
    certify_collapse,
    e2_first,
    e2_second,
    ext1_hemi_closed,
    ext_dims,
    ext_simple_closed,
    ext_trivial_closed,
    nhat,
)
from leibniz_quiver.linear import image_basis, rank
from leibniz_quiver.quiver import quiver_hemi
from leibniz_quiver.repsl2 import (
    SL2Module,
    clebsch_gordan,
    decompose,
    hemi_sl2,
    hom_dim,
    simple_module,
    sl2,
    tensor,
)

from conftest import make_trivial_bimodule, one_dim_module

ONE_DIM_KINDS = [
    OneDimBimodule(KIND_TRIVIAL),
    OneDimBimodule(KIND_ANTISYMMETRIC, 1),
    OneDimBimodule(KIND_ANTISYMMETRIC, 2),
    OneDimBimodule(KIND_SYMMETRIC, 1),
    OneDimBimodule(KIND_SYMMETRIC, 2),
]


def expected_trivial_row(mk, nk, nmax):
    if mk.kind == KIND_TRIVIAL and nk.kind == KIND_TRIVIAL:
        return [1] + [2] * nmax
    if mk.kind == nk.kind and mk.lam == nk.lam:
        return ([1, 1] + [0] * (nmax - 1))[: nmax + 1]
    return [0] * (nmax + 1)


def test_acceptance_01_single_eigenvalue_quiver(capsys):
    t0 = time.monotonic()
    code = cli.main(["quiver", "trivial", "--lambdas", "1", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - t0
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 3
    loops = {doc["vertices"][e["src"]]["label"]: e["mult"] for e in doc["edges"]}
    assert loops == {"K": 2, "M^a(1)": 1, "M^s(1)": 1}
    assert all(e["src"] == e["dst"] for e in doc["edges"])
    assert elapsed < 1.0
    print(f"\nPASS acceptance 01: single-eigenvalue quiver exact in {elapsed:.3f}s")


def test_acceptance_02_one_dim_ext_table():
    t0 = time.monotonic()
    h = trivial_algebra()
    for mk, nk in product(ONE_DIM_KINDS, repeat=2):
        closed = ext_trivial_closed(mk, nk, 4)
        spectral = ext_dims(h, mk, nk.realize(), 4)
        assert spectral.certificate.certified
        assert list(spectral.dims) == closed == expected_trivial_row(mk, nk, 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS acceptance 02: 25 ordered Ext rows, both methods, in {elapsed:.3f}s")


def test_acceptance_03_one_dim_closed_forms():
    t0 = time.monotonic()
    h = trivial_algebra()
    for d in ONE_DIM_KINDS[:1] + [OneDimBimodule(KIND_SYMMETRIC, 1),
                                  OneDimBimodule(KIND_ANTISYMMETRIC, 1)]:
        b = d.realize()
        assert leibniz_cohomology(h, b, 6).dims == trivial_algebra_closed_form(b, 6)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS acceptance 03: brute-force HL matches closed forms in {elapsed:.3f}s")


def test_acceptance_04_random_bimodule_parity():
    rng = random.Random(314159)
    h = trivial_algebra()
    for _ in range(20):
        b = make_trivial_bimodule(rng, max_dim=5)
        left, right = b.left[0], b.right[0]
        both = left + right
        m0_over_mh = (b.dim - rank(both)) - rank(right)
        mh_over_m0 = (b.dim - rank(right)) - rank(both)
        assert m0_over_mh == mh_over_m0
        # the quotients are genuine: each image sits inside its kernel
        for v in image_basis(right).vectors:
            assert all(x == 0 for x in both.apply(v))
        for v in image_basis(both).vectors:
            assert all(x == 0 for x in right.apply(v))
        assert leibniz_cohomology(h, b, 5).dims == trivial_algebra_closed_form(b, 5)
    print("PASS acceptance 04: 20 random bimodules, parity and closed forms exact")


def test_acceptance_05_degree_one_oracle_equivalence():
    t0 = time.monotonic()
    g = sl2()
    for n in (1, 2):
        h = hemi_sl2(n)
        for m in range(7):
            v = simple_module(m)
            from leibniz_quiver.algebra import LeftModule

            hat = decompose(SL2Module(nhat(h, LeftModule(g, v.dim, v.underlying.action))))
            for p in range(9):
                closed = ext1_hemi_closed(n, p, m)
                oracle = hom_dim(decompose(simple_module(p)), hat)
                assert closed == oracle, (n, p, m)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS acceptance 05: closed form = cokernel oracle on the full window in {elapsed:.3f}s")


def test_acceptance_06_hemi_quiver_windows():
    expect1 = {
        ("V_0", "V_1^a"): 1, ("V_0", "V_2^a"): 1,
        ("V_1^s", "V_0"): 1, ("V_1^s", "V_2^a"): 1, ("V_1^s", "V_3^a"): 1,
        ("V_2^s", "V_0"): 1, ("V_2^s", "V_1^a"): 1, ("V_2^s", "V_3^a"): 1,
        ("V_2^s", "V_4^a"): 1,
        ("V_3^s", "V_1^a"): 1, ("V_3^s", "V_2^a"): 1, ("V_3^s", "V_4^a"): 1,
        ("V_4^s", "V_2^a"): 1, ("V_4^s", "V_3^a"): 1,
    }
    expect2 = {
        ("V_0", "V_2^a"): 2,
        ("V_1^s", "V_1^a"): 1, ("V_1^s", "V_3^a"): 2,
        ("V_2^s", "V_0"): 2, ("V_2^s", "V_2^a"): 1, ("V_2^s", "V_4^a"): 2,
        ("V_3^s", "V_1^a"): 2, ("V_3^s", "V_3^a"): 1,
        ("V_4^s", "V_2^a"): 2, ("V_4^s", "V_4^a"): 1,
    }
    for n, expect in ((1, expect1), (2, expect2)):
        q = quiver_hemi(n, 4, verify=True)
        got = {(q.vertices[s].label(), q.vertices[d].label()): k
               for s, d, k in q.edges}
        assert got == expect, n
    # the two-arrows-into-the-trivial-vertex statement for n = 2
    assert expect2[("V_2^s", "V_0")] == 2
    print("PASS acceptance 06: weight-window quivers match for n = 1 and n = 2")


def test_acceptance_07_degree_two_anomaly():
    s2 = SimpleDescriptor(KIND_SYMMETRIC, 2)
    a2 = SimpleDescriptor(KIND_ANTISYMMETRIC, 2)
    assert ext_simple_closed(2, s2, a2, 2) == 4
    for p in (1, 2):
        for m in (1, 2):
            src = SimpleDescriptor(KIND_SYMMETRIC, p)
            dst = SimpleDescriptor(KIND_ANTISYMMETRIC, m)
            assert ext_simple_closed(1, src, dst, 2) == 1
    print("PASS acceptance 07: degree-2 dimension is 4 for n = 2 and 1 for n = 1")


def test_acceptance_08_sl2_vanishing():
    t0 = time.monotonic()
    g = sl2()
    k = one_dim_module(g, [0, 0, 0])
    assert ce_cohomology(g, k, 3).dims == [1, 0, 0, 1]
    for m in range(1, 7):
        dims = ce_cohomology(g, simple_module(m).underlying, 3).dims
        assert dims == [0, 0, 0, 0], m
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS acceptance 08: sl2 cohomology vanishing and (1,0,0,1) in {elapsed:.3f}s")


def test_acceptance_09_clebsch_gordan_equivalence():
    for m in range(9):
        for n in range(9):
            brute = decompose(tensor(simple_module(m), simple_module(n)))
            assert brute.mults == clebsch_gordan(m, n).mults, (m, n)
    print("PASS acceptance 09: tensor decompositions equal the closed rule for m, n <= 8")


def test_acceptance_10_structural_suite():
    # differentials square to zero on a corpus of complexes
    h1 = hemi_sl2(1)
    t = trivial_algebra()
    corpus = [
        (t, OneDimBimodule(KIND_TRIVIAL).realize()),
        (t, OneDimBimodule(KIND_SYMMETRIC, 1).realize()),
        (t, OneDimBimodule(KIND_ANTISYMMETRIC, 2).realize()),
        (h1, trivial_bimodule(h1)),
        (h1, symmetric(h1, lift_module(h1, simple_module(1).underlying))),
        (h1, antisymmetric(h1, lift_module(h1, simple_module(1).underlying))),
    ]
    for h, bm in corpus:
        cx = leibniz_complex(h, bm, 3)
        for q in range(len(cx.differentials) - 1):
            assert (cx.differentials[q + 1] * cx.differentials[q]).is_zero()
        assert check_bimodule(bm)
    g = sl2()
    for m in range(3):
        cx = ce_complex(g, simple_module(m).underlying, 3)
        for q in range(len(cx.differentials) - 1):
            assert (cx.differentials[q + 1] * cx.differentials[q]).is_zero()

    # collapse certificates hold for every tabulated case
    from leibniz_quiver.algebra import quotient_data

    data = quotient_data(t)
    for mk, nk in product(ONE_DIM_KINDS, repeat=2):
        src = mk.underlying_module(data.lie)
        if mk.kind == KIND_SYMMETRIC:
            page = e2_second(t, src, nk.realize(), 1, 4)
        else:
            page = e2_first(t, src, nk.realize(), 1, 4)
        assert certify_collapse(page).certified, (mk, nk)
    for p in range(3):
        for m in range(2):
            src = (SimpleDescriptor(KIND_TRIVIAL) if p == 0
                   else SimpleDescriptor(KIND_SYMMETRIC, p))
            bm = (trivial_bimodule(h1) if m == 0 else
                  antisymmetric(h1, lift_module(h1, simple_module(m).underlying)))
            ext_dims(h1, src, bm, 1)  # raises if not certified

    # and the certifier rejects the doctored page with the right witness
    bad = E2Page(2, 1, [[0, 1], [0, 0], [1, 0]])
    cert = certify_collapse(bad)
    assert not cert.certified and cert.witness == (2, 0, 1)
    from leibniz_quiver.ext import assemble_ext

    with pytest.raises(CollapseNotCertifiedError):
        assemble_ext(bad, 2)
    print("PASS acceptance 10: structural suite (d.d = 0, axioms, certification)")
