"""Shared fixtures and generators for the test suite."""

import random
from fractions import Fraction

import pytest

from leibniz_quiver.algebra import LeftModule, trivial_algebra
from leibniz_quiver.bimodule import Bimodule
from leibniz_quiver.linear import Mat, solve


def basis_vector(n: int, i: int) -> tuple:
    """The i-th coordinate vector of K^n."""
    return tuple(Fraction(int(k == i)) for k in range(n))


def one_dim_module(algebra, weights) -> LeftModule:
    """The one-dimensional module where b_i acts by the scalar weights[i]."""
    return LeftModule(algebra, 1, [Mat(1, 1, [[w]]) for w in weights])


def _unimodular(rng: random.Random, n: int) -> Mat:
    """Random integer matrix with determinant +-1, built from shears."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            rows[j][k] += c * rows[i][k]
    return Mat.from_rows(rows)


def _invert(p: Mat) -> Mat:
    inv = solve(p, Mat.identity(p.rows))
    assert inv is not None
    return inv


# Building blocks that satisfy the one-dimensional-algebra bimodule
# constraints LR = RL and R(L+R) = (L+R)R = 0 by construction.

def _block(rng: random.Random):
    kind = rng.randrange(4)
    r = lambda: Fraction(rng.randint(-3, 3))
    if kind == 0:  # 1-dim, right action = -left
        a = r()
        return Mat.from_rows([[a]]), Mat.from_rows([[-a]])
    if kind == 1:  # 1-dim, right action zero
        return Mat.from_rows([[r()]]), Mat.zero(1, 1)
    if kind == 2:  # 2-dim nilpotent pair
        left = Mat.from_rows([[0, r()], [0, 0]])
        right = Mat.from_rows([[0, r()], [0, 0]])
        return left, right
    # 2-dim with right action = -left, left arbitrary
    left = Mat.from_rows([[r(), r()], [r(), r()]])
    return left, -left


def _diag_join(blocks):
    dim = sum(b.rows for b in blocks)
    out = [[Fraction(0)] * dim for _ in range(dim)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                out[at + i][at + j] = b[i, j]
        at += b.rows
    return Mat.from_rows(out)


def make_trivial_bimodule(rng: random.Random, max_dim: int = 5) -> Bimodule:
    """A random valid bimodule over the one-dimensional Leibniz algebra.

    Assembled from axiom-safe blocks, then conjugated by a random
    unimodular change of basis so the result is not visibly decomposed.
    """
    target = rng.randint(1, max_dim)
    blocks = []
    total = 0
    while total < target:
        left, right = _block(rng)
        if total + left.rows > target:
            a = Fraction(rng.randint(-3, 3))
            left, right = Mat.from_rows([[a]]), Mat.from_rows([[-a]])
        blocks.append((left, right))
        total += left.rows
    big_l = _diag_join([b[0] for b in blocks])
    big_r = _diag_join([b[1] for b in blocks])
    p = _unimodular(rng, total)
    pinv = _invert(p)
    return Bimodule(trivial_algebra(), total,
                    [p * big_l * pinv], [p * big_r * pinv])


@pytest.fixture
def trivial_bimodule_factory():
    return make_trivial_bimodule
