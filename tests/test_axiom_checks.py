"""The module and bimodule axiom checks against every-pair oracles.

``algebra._action_failure`` forms each commutator once per unordered
basis pair, and ``bimodule._axiom_failure`` reduces (MLL) to
R_j (L_i + R_i) = 0.  The two oracles below check every ordered pair
with both products, as the axioms are written; the fast checks must
return the same message, or None, on valid inputs and on corruptions
of them.  The valid inputs include every algebra, module and bimodule
that the library builds unchecked, so the oracles also hold each of
those constructions to the axioms its docstring proves.
"""

import random
from fractions import Fraction

from leibniz_quiver.algebra import (LeibnizAlgebra, LieAlgebra, _action_failure, _commutator,
                                    adjoint_module, hemi_semidirect, lift_module, quotient_data)
from leibniz_quiver.bimodule import (
    Bimodule,
    OneDimBimodule,
    _axiom_failure,
    antisymmetric,
    hom_module_action,
    sym_quotient,
    symmetric,
    trivial_bimodule,
)
from leibniz_quiver.cohomology import hl_module_structure
from leibniz_quiver.ext import SimpleDescriptor, ext_base_sym, h_as_lie_module, nhat
from leibniz_quiver.linear import Mat, lincomb, solve
from leibniz_quiver.repsl2 import direct_sum, dual, hemi_sl2, simple_module, sl2, tensor

from conftest import make_trivial_bimodule


def action_failure_oracle(a, rho, dim):
    for i in range(a.dim):
        for j in range(a.dim):
            if lincomb(rho, a.c[i][j], dim) != rho[i] * rho[j] - rho[j] * rho[i]:
                return f"rho([b{i}, b{j}]) differs from the commutator"
    return None


def axiom_failure_oracle(b):
    a = b.algebra
    L, R = b.left, b.right
    for i in range(a.dim):
        for j in range(a.dim):
            cij = a.c[i][j]
            lb = b.left_by(cij)
            if lb != L[i] * L[j] - L[j] * L[i]:
                return f"(LLM) fails at basis pair ({i}, {j})"
            rb = b.right_by(cij)
            if R[j] * L[i] != L[i] * R[j] - rb:
                return f"(LML) fails at basis pair ({i}, {j})"
            if R[j] * R[i] != rb - L[i] * R[j]:
                return f"(MLL) fails at basis pair ({i}, {j})"
    return None


def random_rational(rng):
    """A nonzero rational with a denominator of 1 to 7."""
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 7))


def corrupt(rng, mats):
    """``mats`` with one entry of one matrix moved by a nonzero rational."""
    mats = list(mats)
    k = rng.randrange(len(mats))
    rows = mats[k].row_lists()
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    rows[i][j] += random_rational(rng)
    mats[k] = Mat(len(rows), len(rows), rows)
    return mats


def sl2_modules():
    """Modules over sl2 or over the Lie quotient of hemi_sl2(n), which the
    library builds checked or, by construction, unchecked."""
    g = sl2()
    simples = [simple_module(m) for m in range(5)]
    yield from (simple_module(m).underlying for m in range(13))
    yield from (tensor(simples[m], simples[n]).underlying
                for m in range(1, 4) for n in range(m, 4))
    yield from (hom_module_action(g, simples[m].underlying, simples[n].underlying)
                for m in range(3) for n in range(3))
    yield from (nhat(hemi_sl2(n), simples[m].underlying) for n in (1, 2) for m in range(4))
    yield from (dual(v).underlying for v in simples)
    yield direct_sum(simples[2], simples[0], simples[3]).underlying
    yield adjoint_module(g)
    for n in (1, 2):
        h = hemi_sl2(n)
        yield h_as_lie_module(h)
        for kind, m in [("trivial", 0)] + [(k, m) for k in ("symmetric", "antisymmetric")
                                           for m in (1, 2)]:
            x = SimpleDescriptor(kind, m).realize(h)
            yield hl_module_structure(h, x, 0)[0]  # HL^0, an induced module
            yield from ext_base_sym(h, x, 1)  # Ker f (induced) and Coker f


def so3():
    """so(3, Q), the cross-product algebra: [e_i, e_(i+1)] = e_(i+2)."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        c[i][j][k], c[j][i][k] = 1, -1
    return LieAlgebra(3, c)


def sheared_hemi_sl2():
    """hemi_sl2(1) in the basis b_(k+1) += b_k, whose Leibniz kernel meets
    the complement's coordinates, as a caller would build it."""
    h = hemi_sl2(1)
    p = Mat.from_rows([[int(j <= i) for j in range(h.dim)] for i in range(h.dim)])
    p_inv = solve(p, Mat.identity(h.dim))
    cols = [p.col(i) for i in range(h.dim)]
    return LeibnizAlgebra(h.dim, [[p_inv.apply(h.bracket(u, w)) for w in cols] for u in cols])


def other_leibniz_algebras():
    """The sheared hemi_sl2(1), and so(3) x_hs so(3)."""
    return [sheared_hemi_sl2(), hemi_semidirect(so3(), adjoint_module(so3()))]


def lie_algebras():
    """sl2, and the Lie quotients of hemi_sl2(1..3) and of
    ``other_leibniz_algebras``, all built unchecked."""
    yield sl2()
    for h in [hemi_sl2(n) for n in (1, 2, 3)] + other_leibniz_algebras():
        yield quotient_data(h).lie


def test_derived_lie_algebras_are_antisymmetric():
    for g in lie_algebras():
        assert isinstance(g, LieAlgebra)
        assert all(x + y == 0 for i in range(g.dim) for j in range(g.dim)
                   for x, y in zip(g.c[i][j], g.c[j][i]))


def non_lie_actions():
    """(algebra, action, dim): ad of the algebras above, and lifted simples
    over hemi_sl2(n)."""
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        yield h, [h.left_mult(i) for i in range(h.dim)], h.dim
        for m in range(3):
            lifted = lift_module(h, simple_module(m).underlying)
            yield h, lifted.action, lifted.dim
    for h in other_leibniz_algebras():
        yield h, [h.left_mult(i) for i in range(h.dim)], h.dim


def test_hemi_brackets_are_not_antisymmetric():
    # the i >= j branch of the fast check sees nonzero c_ij + c_ji here
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        assert any(x + y for i in range(h.dim) for j in range(i + 1)
                   for x, y in zip(h.c[i][j], h.c[j][i]))


def test_module_check_matches_the_every_pair_oracle():
    rng = random.Random(20261018)
    inputs = [(m.algebra, m.action, m.dim) for m in sl2_modules()]
    inputs += list(non_lie_actions())
    inputs += [(g, [g.left_mult(i) for i in range(g.dim)], g.dim) for g in lie_algebras()]
    failures = set()
    for a, rho, dim in inputs:
        assert _action_failure(a, rho, dim) is None
        assert action_failure_oracle(a, rho, dim) is None
        for _ in range(4 if dim else 0):
            bad = corrupt(rng, rho)
            want = action_failure_oracle(a, bad, dim)
            assert _action_failure(a, bad, dim) == want
            failures.add(want)
    # the corruptions fail at many pairs, not only at the first one
    assert len(failures) >= 10


def bimodules(rng):
    """Random bimodules over the one-dimensional algebra, the library's
    constructions over hemi_sl2(n), and the symmetric quotient of each."""
    built = [make_trivial_bimodule(rng) for _ in range(20)]
    built += [OneDimBimodule(kind, lam).realize()
              for kind, lam in (("trivial", 0), ("symmetric", 2), ("antisymmetric", -1))]
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        built.append(trivial_bimodule(h))
        for m in range(3):
            built.append(symmetric(h, simple_module(m).underlying))
            built.append(antisymmetric(h, simple_module(m).underlying))
    return built + [sym_quotient(b) for b in built]


def test_bimodule_check_matches_the_every_pair_oracle():
    rng = random.Random(1018)
    failures = set()
    for b in bimodules(rng):
        assert _axiom_failure(b) is None
        assert axiom_failure_oracle(b) is None
        for _ in range(6 if b.dim else 0):
            left, right = b.left, b.right
            if rng.randrange(2):
                left = corrupt(rng, left)
            else:
                right = corrupt(rng, right)
            bad = Bimodule(b.algebra, b.dim, left, right, check=False)
            want = axiom_failure_oracle(bad)
            assert _axiom_failure(bad) == want
            failures.add(want and want.split()[0])
    # every axiom is the first to fail somewhere; some corruptions of the
    # trivial-algebra bimodules are bimodules again
    assert failures == {"(LLM)", "(LML)", "(MLL)", None}


def test_commutator_is_the_difference_of_products():
    rng = random.Random(7)
    shapes = [0, 1] * 5 + [rng.randint(2, 6) for _ in range(40)]
    for n in shapes:
        a, b = (Mat(n, n, [[random_rational(rng) if rng.random() < 0.4 else 0
                            for _ in range(n)] for _ in range(n)]) for _ in range(2))
        assert _commutator(a, b) == a * b - b * a
