"""The module and bimodule axiom checks against every-pair oracles.

``algebra._action_failure`` forms each commutator once per unordered
basis pair, and ``bimodule._axiom_failure`` reduces (MLL) to
R_j (L_i + R_i) = 0.  The two oracles below check every ordered pair
with both products, as the axioms are written; the fast checks must
return the same message, or None, on valid inputs and on corruptions
of them.
"""

import random
from fractions import Fraction

from leibniz_quiver.algebra import _action_failure, _commutator, adjoint_module, lift_module
from leibniz_quiver.bimodule import (
    Bimodule,
    _axiom_failure,
    antisymmetric,
    hom_module_action,
    symmetric,
)
from leibniz_quiver.cohomology import hl_module_structure
from leibniz_quiver.ext import SimpleDescriptor, ext_base_sym, h_as_lie_module, nhat
from leibniz_quiver.linear import Mat, lincomb
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
    yield from (v.underlying for v in simples)
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


def non_lie_actions():
    """(algebra, action, dim) over hemi_sl2(n): ad and lifted simples."""
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        yield h, [h.left_mult(i) for i in range(h.dim)], h.dim
        for m in range(3):
            lifted = lift_module(h, simple_module(m).underlying)
            yield h, lifted.action, lifted.dim


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
    for _ in range(20):
        yield make_trivial_bimodule(rng)
    for n in (1, 2, 3):
        h = hemi_sl2(n)
        for m in range(3):
            yield symmetric(h, simple_module(m).underlying)
            yield antisymmetric(h, simple_module(m).underlying)


def test_bimodule_check_matches_the_every_pair_oracle():
    rng = random.Random(1018)
    failures = set()
    for b in list(bimodules(rng)):
        assert _axiom_failure(b) is None
        assert axiom_failure_oracle(b) is None
        for _ in range(6):
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
