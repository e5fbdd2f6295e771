"""Exact linear algebra: ranks, kernels, solving, subspace arithmetic."""

import doctest
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from leibniz_quiver import linear, repsl2
from leibniz_quiver.errors import StabilityError
from leibniz_quiver.linear import (
    Mat,
    SubspaceBasis,
    image_basis,
    intersect_kernels,
    kernel_basis,
    kron,
    rank,
    restrict_and_project,
    solve,
)

F = Fraction


def mat(rows):
    return Mat.from_rows(rows)


def in_span(basis, vector):
    """Whether ``vector`` lies in the span of the basis, by ``solve``."""
    return solve(basis.matrix(), Mat.from_cols([vector], rows=basis.ambient_dim)) is not None


def complement(q):
    """``linear._complement`` of the columns of q: comp, and Pi as a
    rational matrix, d Pi divided by its entry d at comp."""
    comp, prows = linear._complement(linear._common_int_rows(q)[0], q.cols)
    d = prows[0][comp[0]] if comp else 1
    return comp, Mat.from_sparse(len(comp), q.rows, [{j: F(v, d) for j, v in r.items()}
                                                      for r in prows])


def kernel_and_pivots(m, limit):
    """``kernel_basis(m)`` and the pivot columns of m from one
    elimination that stops at ``limit`` echelon rows."""
    return linear._int_kernel_and_pivots(linear._common_int_rows(m)[0], m.cols, limit)


# ---------------------------------------------------------------- Mat basics

def test_scalar_coercion_rejects_floats():
    with pytest.raises(TypeError):
        mat([[0.5]])


def test_constructors_and_indexing():
    m = mat([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.row(1) == (F(3), F(4))
    assert m.col(0) == (F(1), F(3))
    assert Mat.identity(2) == Mat.diagonal([1, 1])
    assert Mat.from_cols([[1, 3], [2, 4]]) == m
    assert Mat.zero(2, 3).is_zero()


def test_mat_is_immutable():
    m = mat([[1]])
    with pytest.raises(AttributeError):
        m.rows = 5


def test_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b == mat([[1, 3], [4, 4]])
    assert a - a == Mat.zero(2, 2)
    assert -a == a.scale(-1)
    assert a * b == mat([[2, 1], [4, 3]])
    assert a * Mat.identity(2) == a
    assert 2 * a == a + a
    assert a.apply([1, 0]) == (F(1), F(3))
    assert a.transpose() == mat([[1, 3], [2, 4]])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        mat([[1]]) + mat([[1, 2]])
    with pytest.raises(ValueError):
        mat([[1, 2]]) * mat([[1, 2]])


def test_stack_helpers():
    a = mat([[1], [2]])
    b = mat([[3], [4]])
    assert Mat.hstack([a, b]) == mat([[1, 3], [2, 4]])
    assert Mat.vstack([a, b]) == mat([[1], [2], [3], [4]])


def test_kron_known_value():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    expect = mat([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ])
    assert kron(a, b) == expect


# ------------------------------------------------------------- rank / kernel

def test_rank_frozen_examples():
    assert rank(mat([[1, 2], [2, 4]])) == 1
    assert rank(mat([[1, 2], [3, 4]])) == 2
    assert rank(Mat.zero(3, 2)) == 0
    assert rank(mat([[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]])) == 1
    # 3x4 with one dependent row
    m = mat([[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2]])
    assert rank(m) == 2


def test_kernel_basis_spans_null_space():
    m = mat([[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2]])
    k = kernel_basis(m)
    assert k.dim == 2
    for v in k.vectors:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_of_injective_map_is_zero():
    assert kernel_basis(mat([[1, 0], [0, 1], [1, 1]])).dim == 0


def test_solve_consistent_and_inconsistent():
    a = mat([[1, 2], [3, 4]])
    b = mat([[5], [6]])
    x = solve(a, b)
    assert x is not None and a * x == b
    sing = mat([[1, 2], [2, 4]])
    assert solve(sing, mat([[1], [3]])) is None
    x2 = solve(sing, mat([[1], [2]]))
    assert x2 is not None and sing * x2 == mat([[1], [2]])


def test_image_basis_spans_column_space():
    m = mat([[1, 2, 3], [0, 0, 1]])
    im = image_basis(m)
    assert im.dim == 2
    for j in range(m.cols):
        assert in_span(im, m.col(j))


def test_span_of_dedupes_dependent_vectors():
    s = image_basis(Mat.from_cols([[1, 0], [2, 0], [1, 1]], rows=2))
    assert s.dim == 2
    assert image_basis(Mat.from_cols([], rows=3)).dim == 0


# ------------------------------------------------------------ SubspaceBasis

def test_solve_against_full_and_empty_bases():
    full = SubspaceBasis.full(3).matrix()
    empty = SubspaceBasis.empty(3).matrix()
    s = SubspaceBasis(3, [[1, 2, 3]]).matrix()
    assert solve(full, s) == s
    assert solve(s, empty) == Mat.zero(1, 0)
    assert solve(empty, empty) == Mat.zero(0, 0)
    assert solve(s, full) is None
    assert solve(empty, s) is None


def test_subspace_constructor_validates_and_keeps_one_matrix():
    for bad, error in (([[1, 0, 0]], ValueError), ([[0.5, 0]], TypeError),
                       ([[1, 2], [2, 4]], ValueError)):
        with pytest.raises(error):
            SubspaceBasis(2, bad)
    s = SubspaceBasis(3, [[1, 0, 2], [0, 0, 1]])
    assert s.matrix() == Mat.from_cols([[1, 0, 2], [0, 0, 1]])
    assert s.vectors == ((1, 0, 2), (0, 0, 1))
    assert (s.ambient_dim, s.dim, len(s)) == (3, 2, 2)
    full = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert SubspaceBasis.full(3) == full and hash(SubspaceBasis.full(3)) == hash(full)
    assert SubspaceBasis.empty(3) == SubspaceBasis(3, []) and SubspaceBasis.empty(3).vectors == ()
    with pytest.raises(AttributeError):
        s.ambient_dim = 4


def test_intersect_kernels_matches_stacked_kernel():
    a = mat([[1, 0, 0]])
    b = mat([[0, 1, -1]])
    both = intersect_kernels([a, b], 3)
    assert both.dim == 1
    v = both.vectors[0]
    assert a.apply(v) == (F(0),) and b.apply(v) == (F(0),)


def test_complement_pivot_indices():
    # A line in K^3, given by one vector, or repeated with a zero column:
    # comp is off its last nonzero, and Pi projects along it.
    for cols in ([[1, 0, 0]], [[2, 0, 0], [0, 0, 0], [-1, 0, 0]]):
        assert complement(Mat.from_cols(cols, rows=3)) == ([1, 2], mat([[0, 1, 0], [0, 0, 1]]))
    assert linear._complement([{0: 1}, {0: 1}, {}], 1) == ([0, 2], [{0: 1, 1: -1}, {2: 1}])
    assert linear._complement([{0: 2}, {0: 3}], 1) == ([0], [{0: 3, 1: -2}])
    assert linear._complement([{0: 1}, {1: 1}], 2) == ([], [])
    assert complement(Mat.zero(2, 0)) == complement(Mat.zero(2, 3)) == ([0, 1], Mat.identity(2))


def test_restrict_and_project_diagonal_example():
    # f = diag(1, 2, 3); restrict to span(e0, e1), project away span(e0)
    f = Mat.diagonal([1, 2, 3])
    sub = SubspaceBasis(3, [[1, 0, 0], [0, 1, 0]])
    quot = Mat.from_cols([[1, 0, 0]])
    [g] = restrict_and_project([f], sub, quot)
    # induced map on the 1-dim quotient spanned by the image of e1
    assert g.rows == g.cols == 1
    assert g[0, 0] == 2


def test_restrict_and_project_requires_stability():
    f = mat([[0, 1], [1, 0]])  # swaps the axes; span(e0) is not invariant
    sub = SubspaceBasis(2, [[1, 0]])
    with pytest.raises(StabilityError):
        restrict_and_project([f], sub, Mat.zero(2, 0))
    # span(e1) is not inside span(e0): refused even for the identity
    with pytest.raises(StabilityError):
        restrict_and_project([Mat.identity(2)], sub, Mat.from_cols([[0, 1]]))


def _flag_family(seed: int, count: int):
    """Maps preserving span(p0, p1, p2) and span(p0) for the columns
    p_i of a random invertible P: upper-triangular maps conjugated by P.
    The middle space comes as the kernel basis of the last row of P^-1,
    the form ``restrict_and_project`` requires of its ``sub``, and the
    quotient as the matrix with the one column p0."""
    rng = random.Random(seed)
    while True:
        p = mat([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        if rank(p) == 4:
            break
    p_inv = solve(p, Mat.identity(4))
    maps = [p * mat([[rng.randint(-3, 3) if j >= i else 0 for j in range(4)]
                     for i in range(4)]) * p_inv for _ in range(count)]
    sub = kernel_basis(Mat(1, 4, [p_inv.row(3)]))
    quot = Mat.from_cols([p.col(0)])
    return maps, sub, quot, p


def test_restrict_and_project_family_equals_maps_one_at_a_time():
    for seed in range(6):
        maps, sub, quot, _ = _flag_family(seed, 3)
        family = restrict_and_project(maps, sub, quot)
        assert family == [g for f in maps for g in restrict_and_project([f], sub, quot)]
        assert [(g.rows, g.cols) for g in family] == [(2, 2)] * 3
        assert restrict_and_project(maps, sub, Mat.zero(4, 0)) == [
            g for f in maps for g in restrict_and_project([f], sub, Mat.zero(4, 0))]
    assert restrict_and_project([], sub, quot) == []


def test_restrict_and_project_family_with_one_unstable_map_raises():
    maps, sub, quot, p = _flag_family(1, 2)
    p_inv = solve(p, Mat.identity(4))
    # p0 -> p3 leaves span(p0, p1, p2)
    escapes = p * Mat.from_sparse(4, 4, [{}, {}, {}, {0: 1}]) * p_inv
    # p0 -> p1 keeps span(p0, p1, p2) but moves the quotient span(p0)
    moves_quot = p * Mat.from_sparse(4, 4, [{}, {0: 1}, {}, {}]) * p_inv
    assert len(restrict_and_project([moves_quot], sub, Mat.zero(4, 0))) == 1
    for bad in (escapes, moves_quot):
        for family in (maps + [bad], [bad] + maps):
            with pytest.raises(StabilityError):
                restrict_and_project(family, sub, quot)


def _record_restrict_and_project(monkeypatch, modules):
    """Route ``restrict_and_project`` in ``modules`` through a recorder:
    each call appends (n, s, t, number of maps, shapes), shapes the
    (rows, columns) of every forward elimination the call runs."""
    log, open_calls = [], []
    eliminate, real = linear._forward_eliminate, linear.restrict_and_project

    def counting(rows, ncols, *rest):
        if open_calls:
            open_calls[-1].append((len(rows), ncols))
        return eliminate(rows, ncols, *rest)

    def recording(maps, sub, quot):
        open_calls.append([])
        try:
            return real(maps, sub, quot)
        finally:
            log.append((sub.ambient_dim, sub.dim, quot.cols, len(maps), open_calls.pop()))

    monkeypatch.setattr(linear, "_forward_eliminate", counting)
    for module in modules:
        monkeypatch.setattr(module, "restrict_and_project", recording)
    return log


def test_restrict_and_project_eliminates_only_the_quotient(monkeypatch):
    # Restricting eliminates nothing: S[R] = I at the last nonzeros R of
    # a kernel basis or of I, so the coordinates are read off.  The one
    # elimination, of the t rows of Q_S^T over s columns, projects, and
    # with nothing divided out there is none.
    log = _record_restrict_and_project(monkeypatch, [linear])
    for seed in range(3):
        maps, sub, quot, _ = _flag_family(seed, 3)
        for family, q in ((maps, quot), (maps[:1], quot), (maps, Mat.zero(4, 0))):
            linear.restrict_and_project(family, sub, q)
        linear.restrict_and_project(maps, SubspaceBasis.full(4), quot)
    assert len(log) == 12
    for _, s, t, _, shapes in log:
        assert shapes == ([(t, s)] if t else [])


def test_restrict_and_project_refuses_a_sub_it_cannot_read_off():
    # [1, 2] has its last nonzero 2, not 1, and the vectors [1, 1] and
    # [0, 1] both have theirs in row 1: neither basis is the identity there.
    for sub in (SubspaceBasis(2, [[1, 2]]), SubspaceBasis(2, [[1, 1], [0, 1]])):
        with pytest.raises(ValueError, match="not the identity at the last nonzero"):
            restrict_and_project([Mat.identity(2)], sub, Mat.zero(2, 0))


def test_an_empty_quotient_needs_no_pivot_extension(monkeypatch):
    # With nothing divided out each induced map is the X with S X = F S,
    # read off with no elimination.  decompose and induced_module
    # restrict kernel bases that way, and their outputs must not change.
    # A quotient takes the one elimination of its complement.
    from leibniz_quiver import cohomology
    from leibniz_quiver.algebra import quotient_data
    from leibniz_quiver.bimodule import antisymmetric
    from leibniz_quiver.cohomology import induced_module, leibniz_cohomology

    log = _record_restrict_and_project(monkeypatch, [linear, repsl2, cohomology])
    for seed in range(3):
        maps, sub, quot, _ = _flag_family(seed, 3)
        s = sub.matrix()
        assert linear.restrict_and_project(maps, sub, Mat.zero(4, 0)) == [
            solve(s, f * s) for f in maps]
    for m in range(1, 4):
        for n in range(m, 5):
            want = repsl2.clebsch_gordan(m, n)
            assert repsl2.decompose(repsl2.tensor(repsl2.simple_module(m),
                                                  repsl2.simple_module(n))) == want
    h = repsl2.hemi_sl2(1)
    for w in (1, 2):
        bm = antisymmetric(h, repsl2.simple_module(w).underlying)
        z0 = leibniz_cohomology(h, bm, 0)[0].cocycles
        module = induced_module(bm, z0)
        s = z0.matrix()
        assert module.action == tuple(solve(s, bm.left[i] * s)
                                      for i in quotient_data(h).complement)
    assert len(log) == 3 + 9 + 2
    for n, s, t, _, shapes in log:
        assert t == 0 and shapes == []
    linear.restrict_and_project(maps, sub, quot)
    assert log[-1][4] == [(1, 3)]


# ------------------------------------------------------------- property tests

small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r,
            ).map(Mat.from_rows)
        )
    )


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilated(m):
    k = kernel_basis(m)
    assert k.dim == m.cols - rank(m)
    for v in k.vectors:
        assert all(x == 0 for x in m.apply(v))


@settings(max_examples=40, deadline=None)
@given(matrices(3), matrices(3))
def test_kron_rank_multiplicative(a, b):
    assert rank(kron(a, b)) == rank(a) * rank(b)


@settings(max_examples=25, deadline=None)
@given(matrices(2), matrices(2), matrices(2))
def test_kron_associative(a, b, c):
    assert kron(kron(a, b), c) == kron(a, kron(b, c))


unit_entries = st.sampled_from([F(1), F(-1), F(0), F(2), F(-1, 2)])


def unit_matrices(rows, cols):
    """Matrices with many entries 1 and -1: ``kron`` stores the other
    factor's entry as it is where one is 1, and ``-`` negates."""
    return st.lists(st.lists(unit_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda g: Mat(rows, cols, g))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_sub_and_kron_match_entrywise_references(r, c, data):
    a, b = data.draw(unit_matrices(r, c)), data.draw(unit_matrices(r, c))
    assert a - b == a + b.scale(-1)
    assert -b == b.scale(-1)
    assert (a - b).row_lists() == [[x - y for x, y in zip(ra, rb)]
                                   for ra, rb in zip(a.row_lists(), b.row_lists())]
    k = data.draw(st.integers(0, 3).flatmap(
        lambda kr: st.integers(0, 3).flatmap(lambda kc: unit_matrices(kr, kc))))
    product = kron(a, k)
    assert (product.rows, product.cols) == (r * k.rows, c * k.cols)
    assert product.row_lists() == [[a[i, j] * k[i2, j2] for j in range(c) for j2 in range(k.cols)]
                                   for i in range(r) for i2 in range(k.rows)]


@settings(max_examples=40, deadline=None)
@given(matrices(3), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(m, rnd):
    rows = m.row_lists()
    rnd.shuffle(rows)
    assert rank(Mat.from_rows(rows)) == rank(m)


@settings(max_examples=40, deadline=None)
@given(matrices(3))
def test_solve_recovers_consistent_rhs(m):
    # any vector in the column space must be solvable exactly
    ones = Mat.from_rows([[1]] * m.cols)
    rhs = m * ones
    x = solve(m, rhs)
    assert x is not None and m * x == rhs


# ------------------------------------------- basis contract, by a reference

def _rref(rows, ncols):
    """Reduced row echelon form by textbook Gauss-Jordan over Fraction:
    (nonzero rows, pivot columns)."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a[:len(pivots)], pivots


def _ref_kernel(m):
    """One vector per free column f: 1 at f, 0 at the other free
    columns, read off the reduced echelon form."""
    red, pivots = _rref(m.row_lists(), m.cols)
    out = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [F(0)] * m.cols
        v[f] = F(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        out.append(tuple(v))
    return out


def _ref_solve(a, b):
    """The solution with free coordinates 0, or None if inconsistent."""
    n = a.cols
    aug = [ra + rb for ra, rb in zip(a.row_lists(), b.row_lists())]
    red, pivots = _rref(aug, n + b.cols)
    if any(pc >= n for pc in pivots):
        return None
    x = [[F(0)] * b.cols for _ in range(n)]
    for row, pc in zip(red, pivots):
        x[pc] = row[n:]
    return x


fractions_or_zero = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@st.composite
def contract_matrices(draw, max_dim=5):
    """Small matrices with non-integer entries and inserted zero rows and
    columns, or row-permuted block-diagonal sparse matrices."""
    if draw(st.booleans()):
        r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
        rows = [draw(st.lists(fractions_or_zero, min_size=c, max_size=c)) for _ in range(r)]
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(rows)))
            rows.insert(at, [F(0)] * c)
        zc = draw(st.lists(st.integers(0, c), max_size=2))
        for at in sorted(zc, reverse=True):
            for row in rows:
                row.insert(at, F(0))
        return Mat(len(rows), c + len(zc), rows)
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4))
    nrows, ncols = sum(s[0] for s in shapes), sum(s[1] for s in shapes)
    rows = [[F(0)] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for br, bc in shapes:
        for i in range(br):
            rows[r0 + i][c0:c0 + bc] = draw(st.lists(fractions_or_zero, min_size=bc, max_size=bc))
        r0, c0 = r0 + br, c0 + bc
    perm = draw(st.permutations(range(nrows)))
    return Mat(nrows, ncols, [rows[i] for i in perm])


@settings(max_examples=100, deadline=None)
@given(contract_matrices(), st.data())
def test_bases_match_independent_rref(m, data):
    assert kernel_basis(m).vectors == tuple(_ref_kernel(m))
    _, pivots = _rref(m.row_lists(), m.cols)
    assert image_basis(m).vectors == tuple(m.col(j) for j in pivots)
    assert rank(m) == len(pivots)
    # A consistent right-hand side and a free one (usually inconsistent).
    x0 = data.draw(st.lists(fractions_or_zero, min_size=m.cols, max_size=m.cols))
    consistent = Mat.from_cols([m.apply(x0)], rows=m.rows)
    free = Mat.from_cols([data.draw(st.lists(fractions_or_zero, min_size=m.rows,
                                             max_size=m.rows))], rows=m.rows)
    for b in (consistent, free, Mat.hstack([consistent, free])):
        expect = _ref_solve(m, b)
        got = solve(m, b)
        if expect is None:
            assert got is None
        else:
            assert got is not None and got.row_lists() == expect
    # The complement of span m: the standard vectors that extend the
    # columns of m to K^rows, and the projection onto them along span m.
    ident = [[F(int(i == j)) for j in range(m.rows)] for i in range(m.rows)]
    aug = [list(r) + e for r, e in zip(m.row_lists(), ident)]
    _, piv = _rref(aug, m.cols + m.rows)
    comp, pi = complement(m)
    assert comp == [p - m.cols for p in piv if p >= m.cols]
    assert (pi * m).is_zero()
    assert all(pi.col(j) == Mat.identity(len(comp)).col(k) for k, j in enumerate(comp))


@st.composite
def matrices_with_repeated_rows(draw):
    """``contract_matrices`` with up to two rows duplicated in place."""
    m = draw(contract_matrices())
    rows = m.row_lists()
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        copy = list(rows[draw(st.integers(0, len(rows) - 1))])
        rows.insert(draw(st.integers(0, len(rows))), copy)
    return Mat(len(rows), m.cols, rows)


@settings(max_examples=100, deadline=None)
@given(matrices_with_repeated_rows(), st.data())
def test_outputs_do_not_depend_on_row_order(m, data):
    perm = data.draw(st.permutations(range(m.rows)))

    def shuffle(a):
        return Mat(a.rows, a.cols, [a.row(i) for i in perm])

    p = shuffle(m)
    _, pivots = _rref(m.row_lists(), m.cols)
    assert rank(p) == rank(m) == len(pivots)
    assert kernel_basis(p) == kernel_basis(m)
    assert kernel_basis(p).vectors == tuple(_ref_kernel(m))
    assert image_basis(p).matrix() == shuffle(image_basis(m).matrix())
    assert image_basis(m).vectors == tuple(m.col(j) for j in pivots)
    # Any limit from the rank up stops the elimination without changing it.
    for limit in range(len(pivots), m.cols + 1):
        assert kernel_and_pivots(p, limit) == (kernel_basis(m), pivots)
    x0 = data.draw(st.lists(fractions_or_zero, min_size=m.cols, max_size=m.cols))
    free = data.draw(st.lists(fractions_or_zero, min_size=m.rows, max_size=m.rows))
    b = Mat.from_cols([m.apply(x0), free], rows=m.rows)
    for rhs in (Mat.from_cols([b.col(0)], rows=m.rows), b):
        got = solve(m, rhs)
        assert solve(p, shuffle(rhs)) == got
        expect = _ref_solve(m, rhs)
        assert got is None if expect is None else got.row_lists() == expect
    # The complement eliminates the rows of m as Q^T for Q = m^T, so its
    # rows, repeated ones included, are the columns of the quotient.
    q = m.transpose()
    comp, pi = complement(q)
    assert complement(p.transpose()) == (comp, pi)
    ident = [[F(int(i == j)) for j in range(q.rows)] for i in range(q.rows)]
    _, piv = _rref([list(r) + e for r, e in zip(q.row_lists(), ident)], q.cols + q.rows)
    assert comp == [c - q.cols for c in piv if c >= q.cols]


@st.composite
def low_rank_matrices(draw):
    """B C for integer B of shape rows x r and C of shape r x cols, with
    r < cols and about three times as many rows as columns, so that most
    rows cancel and a bounded elimination draws probes."""
    r = draw(st.integers(1, 3))
    cols = draw(st.integers(r + 1, 7))
    b = draw(st.lists(st.lists(small_entries, min_size=r, max_size=r),
                      min_size=2 * cols, max_size=4 * cols))
    c = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols),
                      min_size=r, max_size=r))
    return mat(b) * mat(c)


@settings(max_examples=100, deadline=None)
@given(low_rank_matrices())
def test_bounded_elimination_matches_the_unbounded_one(m):
    # A limit below the column count defers the rows a probe says are
    # spanned; at the rank or above it, nothing may change.
    _, pivots = _rref(m.row_lists(), m.cols)
    for limit in range(len(pivots), m.cols):
        assert kernel_and_pivots(m, limit) == (kernel_basis(m), pivots)


def test_a_deferred_independent_row_is_still_reduced(monkeypatch):
    # The copies of e_0 after the first cancel, reading one echelon entry
    # each; the sixth makes 6 > 4 columns + 1 echelon nonzero, so a probe
    # is drawn for the echelon {e_0}.  Row a is independent of e_0 but
    # orthogonal to that probe, so the scan defers it and ends with one
    # echelon row, below the limit 3: a must be reduced after the scan.
    probe = linear._null_vector({0: {0: 1}}, 4)
    a = {1: probe[2], 2: -probe[1]}
    assert probe[1] and probe[2] and not sum(v * probe.get(j, 0) for j, v in a.items())
    m = Mat.from_sparse(8, 4, [{0: 1}] * 7 + [a])
    drawn = []
    real = linear._null_vector

    def recording(echelon, ncols):
        drawn.append({c: dict(row) for c, row in echelon.items()})
        return real(echelon, ncols)

    monkeypatch.setattr(linear, "_null_vector", recording)
    assert kernel_and_pivots(m, 3) == (kernel_basis(m), [0, 1])
    assert drawn == [{0: {0: 1}}]


def _growth_cases():
    """Integer matrices B C of rank at most r, each with a right-hand
    side in its column span and a random one."""
    rng = random.Random(5)
    for _ in range(25):
        rows, cols, r = rng.randint(2, 9), rng.randint(2, 9), rng.randint(1, 5)
        b = mat([[rng.randint(-9, 9) for _ in range(r)] for _ in range(rows)])
        m = b * mat([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(r)])
        x = mat([[rng.randint(-9, 9)] for _ in range(cols)])
        yield m, m * x, mat([[rng.randint(-9, 9)] for _ in range(rows)])


def _growth_results(cases):
    return [(rank(m), kernel_basis(m), image_basis(m), solve(m, b), solve(m, c))
            for m, b, c in cases]


def test_content_reduction_changes_no_result(monkeypatch):
    # Rows whose entries pass _REDUCE_BOUND are divided by their content,
    # which is growth control only.  A bound of 16 makes it fire in most
    # reduction steps; every result must stay bit for bit the same.
    cases = list(_growth_cases())
    calls = []
    real = linear._reduce_row
    monkeypatch.setattr(linear, "_reduce_row", lambda row: calls.append(1) or real(row))
    expected = _growth_results(cases)
    unpatched = len(calls)
    monkeypatch.setattr(linear, "_REDUCE_BOUND", 1 << 4)
    calls.clear()
    assert _growth_results(cases) == expected
    assert len(calls) > 2 * unpatched


def test_restrict_and_project_matches_reference_complement():
    # The complement is the one a textbook rref of [S^-1 Q | I] picks,
    # and G is the induced map on the classes of B = S e_comp.  The
    # coordinates of p0 in the kernel basis S vary with P, and so does
    # the complement.
    comps = set()
    for seed in range(6):
        maps, sub, quot, _ = _flag_family(seed, 3)
        smat, qmat = sub.matrix(), quot
        aug = [row + [F(int(i == j)) for j in range(3)]
               for i, row in enumerate(_ref_solve(smat, qmat))]
        _, piv = _rref(aug, 4)
        comp = tuple(c - 1 for c in piv if c >= 1)
        comps.add(comp)
        b = Mat.from_cols([smat.col(j) for j in comp], rows=4)
        for f, g in zip(maps, restrict_and_project(maps, sub, quot)):
            assert _ref_solve(qmat, f * b - b * g) is not None
    assert len(comps) > 1


square_matrices = st.integers(0, 4).flatmap(lambda n: st.lists(
    st.lists(fractions_or_zero, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda grid: Mat(n, n, grid)))


@settings(max_examples=80, deadline=None)
@given(square_matrices, st.sampled_from(["any", "upper", "diagonal"]), st.booleans(),
       st.lists(st.integers(-3, 3), max_size=3))
def test_eigenspaces_are_the_kernels_at_the_candidates_when_they_span(a, shape, dense, extra):
    # Triangular inputs have their diagonal entries as eigenvalues, so
    # those are the candidates, with a few integers besides; ``dense``
    # conjugates by the unitriangular all-ones matrix, which keeps the
    # eigenvalues and fills the strict lower triangle.
    n = a.rows
    keep = {"any": lambda i, j: True, "upper": lambda i, j: j >= i,
            "diagonal": lambda i, j: j == i}[shape]
    a = Mat.from_sparse(n, n, [{j: x for j, x in a.nonzeros(i) if keep(i, j)} for i in range(n)])
    candidates = sorted({a[i, i] for i in range(n)} | set(map(F, extra)), key=abs)
    if dense:
        low = Mat.from_sparse(n, n, [{j: 1 for j in range(i + 1)} for i in range(n)])
        low_inv = Mat.from_sparse(n, n, [{j: 1 - 2 * (j < i) for j in (i - 1, i) if j >= 0}
                                         for i in range(n)])
        a = low_inv * a * low
    spaces = [(lam, kernel_basis(a - Mat.identity(n).scale(lam))) for lam in candidates]
    spaces = [(lam, k) for lam, k in spaces if k.dim]
    # Eigenspaces at distinct eigenvalues are independent: they span K^n
    # exactly when their dimensions add up to n.
    spans = sum(k.dim for _, k in spaces) == n
    assert linear._eigenspaces(a, candidates) == (spaces if spans else None)


def test_eigenspaces_refuse_what_they_cannot_span():
    jordan = mat([[2, 1], [0, 2]])
    assert linear._eigenspaces(jordan, range(5)) is None
    assert linear._eigenspaces(Mat.diagonal([0, 5]), range(5)) is None  # 5 is no candidate
    assert linear._eigenspaces(mat([[F(1, 2), 1], [0, 1]]), [0, F(1, 3), 1]) is None
    # With endless candidates only the trace bound can stop: at the
    # Jordan block, at the eigenvalues +-i and at (5 +- 33^(1/2)) / 2.
    for a in (jordan, mat([[0, 1], [-1, 0]]), mat([[1, 2], [3, 4]])):
        assert linear._eigenspaces(a, itertools.count()) is None
    assert linear._eigenspaces(mat([[F(1, 2), 1], [0, 1]]), [0, F(1, 2), 1]) == [
        (F(1, 2), kernel_basis(mat([[0, 1], [0, F(1, 2)]]))),
        (1, kernel_basis(mat([[F(-1, 2), 1], [0, 0]])))]


def _ref_restrict_and_project(maps, sub, quot):
    """The plain-Fraction reference: comp from the textbook rref of
    [S^-1 Q | I], C = [Q | S e_comp], and X_k from the solve on
    [C | F_k C]; StabilityError where Q is not inside span S, where
    some F_k C is not in span C or where X_k has a lower-left block."""
    smat, qmat = sub.matrix(), quot
    s, t = smat.cols, qmat.cols
    a = _ref_solve(smat, qmat)
    if a is None:
        raise StabilityError("quotient space is not inside the subspace")
    _, piv = _rref([row + [F(int(i == j)) for j in range(s)] for i, row in enumerate(a)], t + s)
    c = Mat.hstack([qmat, Mat.from_cols([smat.col(p - t) for p in piv if p >= t],
                                        rows=smat.rows)])
    xs = [_ref_solve(c, f * c) for f in maps]
    if None in xs:
        raise StabilityError("map does not preserve the subspace")
    if any(x[i][j] for x in xs for i in range(t, s) for j in range(t)):
        raise StabilityError("map does not preserve the quotient subspace")
    return [Mat(s - t, s - t, [row[t:] for row in x[t:]]) for x in xs]


def _caller_shapes(n, s, t, shape, breaker, seed):
    """Maps preserving span(p_0..p_(s-1)) and span(p_0..p_(t-1)) for the
    columns p_i of a random invertible rational P, the two spans, and
    whether a breaker applies.  S is the kernel basis of span S, the
    form ``restrict_and_project`` requires, and Q a random basis.
    ``shape`` "flag" takes that S, "full" takes S = I (s = n), as
    cokernels and symmetric quotients do, and "kernel" takes that S with
    nothing divided out, as decompose and induced_module do.  The
    breaker "leaves" adds a map sending p_0 out of span S, "moves" one
    sending p_0 into span S but out of span Q, and "outside" puts p_s
    into Q, where the dimensions allow it."""
    rng = random.Random(seed)
    entry = lambda: F(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
    while True:
        p = Mat(n, n, [[entry() for _ in range(n)] for _ in range(n)])
        if rank(p) == n:
            break
    p_inv = solve(p, Mat.identity(n))
    block = lambda i: (i >= t) + (i >= s)
    maps = [p * Mat(n, n, [[entry() if block(i) <= block(j) else 0 for j in range(n)]
                           for i in range(n)]) * p_inv for _ in range(rng.randint(1, 3))]
    target = {"leaves": s if 0 < s < n else None, "moves": t if 0 < t < s else None}.get(breaker)
    if target is not None:  # the map p_0 -> p_target
        maps.insert(rng.randint(0, len(maps)), p * Mat.from_sparse(
            n, n, [{0: 1} if i == target else {} for i in range(n)]) * p_inv)
    outside = breaker == "outside" and t and s < n

    def span(cols):
        # upper triangular with a nonzero diagonal: an invertible mix
        mix = [[rng.choice((1, 2, -1)) if i == j else rng.randint(-1, 1) * (i < j)
                for j in range(len(cols))] for i in range(len(cols))]
        return [tuple(sum(p[r, c] * mix[k][j] for k, c in enumerate(cols))
                      for r in range(n)) for j in range(len(cols))]

    quot = Mat.from_cols(span(list(range(t - 1)) + [s] if outside else list(range(t))), rows=n)
    broken = target is not None or bool(outside)
    if shape == "full":
        return maps, SubspaceBasis.full(n), quot, broken
    return maps, kernel_basis(Mat(n - s, n, [p_inv.row(i) for i in range(s, n)])), quot, broken


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(["flag", "full", "kernel"]),
       st.sampled_from([None, "leaves", "moves", "outside"]), st.integers(0, 1 << 16))
@example(3, 0, 0, "flag", None, 0)
@example(3, 2, 2, "flag", None, 1)
@example(0, 0, 0, "full", None, 2)
@example(4, 0, 0, "kernel", None, 3)
@example(4, 4, 0, "kernel", None, 3)
@example(4, 2, 1, "flag", "leaves", 4)
@example(4, 3, 1, "flag", "moves", 5)
@example(4, 2, 1, "flag", "outside", 6)
@example(4, 4, 2, "full", "moves", 7)
@example(3, 1, 1, "flag", "outside", 8)
def test_restrict_and_project_matches_the_plain_fraction_solve(n, s, t, shape, breaker, seed):
    s = n if shape == "full" else min(s, n)
    t = 0 if shape == "kernel" else min(t, s)
    maps, sub, quot, broken = _caller_shapes(n, s, t, shape, breaker, seed)
    try:
        want = _ref_restrict_and_project(maps, sub, quot)
    except StabilityError as exc:
        assert broken
        with pytest.raises(StabilityError, match=f"^{exc}$"):
            restrict_and_project(maps, sub, quot)
    else:
        assert not broken
        assert restrict_and_project(maps, sub, quot) == want


def _spanning_set(rng, q):
    """The columns of q with up to three more, each a repeat, a
    combination of two of them or a zero column, in a shuffled order:
    the same span, given by a matrix that is rarely a basis."""
    cols = [q.col(j) for j in range(q.cols)]
    mixed = list(cols)
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("repeat", "combination", "zero")) if cols else "zero"
        if kind == "zero":
            mixed.append((F(0),) * q.rows)
        elif kind == "repeat":
            mixed.append(rng.choice(cols))
        else:
            x, y = F(rng.randint(-2, 2), rng.choice((1, 2))), F(rng.randint(-2, 2))
            mixed.append(tuple(x * u + y * v for u, v in zip(rng.choice(cols), rng.choice(cols))))
    rng.shuffle(mixed)
    return Mat.from_cols(mixed, rows=q.rows)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.sampled_from(["flag", "full", "kernel"]),
       st.sampled_from([None, "leaves", "moves", "outside"]), st.integers(0, 1 << 16))
@example(3, 2, 1, "flag", None, 0)
@example(4, 4, 2, "full", "moves", 7)
@example(4, 2, 1, "flag", "outside", 6)
@example(4, 3, 0, "kernel", None, 3)
def test_a_spanning_set_divides_as_its_image_basis(n, s, t, shape, breaker, seed):
    # Repeated, dependent and zero columns change neither the matrices
    # nor the StabilityError: only span Q is divided out.
    s = n if shape == "full" else min(s, n)
    t = 0 if shape == "kernel" else min(t, s)
    maps, sub, quot, _ = _caller_shapes(n, s, t, shape, breaker, seed)
    spanning = _spanning_set(random.Random(seed), quot)
    outcomes = []
    for q in (spanning, image_basis(spanning).matrix(), quot):
        try:
            outcomes.append(restrict_and_project(maps, sub, q))
        except StabilityError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# ------------------------------------------------- equality and hashing

@settings(max_examples=40, deadline=None)
@given(contract_matrices(), st.data())
def test_equality_and_hash_ignore_construction_history(m, data):
    other = Mat(m.rows, m.cols, [data.draw(st.lists(fractions_or_zero, min_size=m.cols,
                                                    max_size=m.cols)) for _ in range(m.rows)])
    again = m + other - other
    assert again == m and hash(again) == hash(m)
    diff = m - m
    assert diff == Mat.zero(m.rows, m.cols) and hash(diff) == hash(Mat.zero(m.rows, m.cols))
    assert m.transpose().transpose() == m
    assert kron(Mat.identity(1), m) == m and hash(kron(Mat.identity(1), m)) == hash(m)
    assert Mat.from_sparse(m.rows, m.cols, [dict(m.nonzeros(i)) for i in range(m.rows)]) == m


def test_sparse_constructor_validates_like_dense():
    with pytest.raises(TypeError):
        Mat(1, 2, [[0.5, 0]])
    with pytest.raises(TypeError):
        Mat.from_sparse(1, 2, [{0: 0.5}])
    with pytest.raises(ValueError):
        Mat(1, 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        Mat.from_sparse(1, 2, [{2: 3}])
    with pytest.raises(ValueError):
        Mat.from_sparse(1, 2, [{-1: 3}])
    with pytest.raises(ValueError):
        Mat(2, 2, [[1, 2]])
    with pytest.raises(ValueError):
        Mat.from_sparse(2, 2, [{0: 1}])
    for bad in (lambda: Mat(-1, 0, []), lambda: Mat.from_sparse(-1, 0, []),
                lambda: Mat.zero(-1, 2), lambda: Mat.identity(-1)):
        with pytest.raises(ValueError):
            bad()
    m = Mat.from_sparse(2, 3, [{1: F(1, 2), 2: 0}, {}])
    assert m == mat([[0, F(1, 2), 0], [0, 0, 0]])
    assert sorted(m.nonzeros(0)) == [(1, F(1, 2))] and not list(m.nonzeros(1))


# ------------------------------------------- integer scaling of products

@st.composite
def rational_factors(draw):
    """A product a * b of rational matrices, 0 rows and 0 columns included,
    whose rows usually have different denominators."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    grid = lambda n, m: [draw(st.lists(fractions_or_zero, min_size=m, max_size=m))
                         for _ in range(n)]
    return Mat(r, k, grid(r, k)), Mat(k, c, grid(k, c))


@settings(max_examples=100, deadline=None)
@given(rational_factors())
@example((mat([[F(1, 2), 0], [0, F(1, 3)]]), mat([[2, F(1, 5)], [3, 1]])))
def test_product_matches_the_textbook_sum(factors):
    a, b = factors
    want = [[sum((a[i, t] * b[t, j] for t in range(a.cols)), F(0)) for j in range(b.cols)]
            for i in range(a.rows)]
    assert a * b == Mat(a.rows, b.cols, want)


@settings(max_examples=100, deadline=None)
@given(contract_matrices(), st.data())
def test_kernel_coordinates_read_off_exactly_the_span(m, data):
    kernel = kernel_basis(m).matrix()
    coeffs = Mat(kernel.cols, 3, [data.draw(st.lists(fractions_or_zero, min_size=3, max_size=3))
                                  for _ in range(kernel.cols)])
    inside = kernel * coeffs
    assert linear._kernel_coordinates(kernel, inside) == solve(kernel, inside) == coeffs
    outside = [j for j in range(m.cols) if any(m.col(j))]
    if outside:  # a standard vector at a nonzero column of m
        e = Mat.from_cols([[int(i == outside[0]) for i in range(m.cols)]], rows=m.cols)
        assert solve(kernel, e) is None
        assert linear._kernel_coordinates(kernel, Mat.hstack([inside, e])) is None
    # The same span in another basis: the first vector doubled, or the
    # second added to it, which moves its last nonzero to the second's.
    for j in range(1, min(kernel.cols, 2) + 1):
        mix = Mat.identity(kernel.cols) + Mat.from_sparse(
            kernel.cols, kernel.cols, [{0: 1} if i == j - 1 else {} for i in range(kernel.cols)])
        assert linear._kernel_coordinates(kernel * mix, inside) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_from_cols_is_the_transposed_grid(r, c, data):
    cols = [data.draw(st.lists(fractions_or_zero, min_size=r, max_size=r)) for _ in range(c)]
    want = Mat(r, c, [[cols[j][i] for j in range(c)] for i in range(r)])
    assert Mat.from_cols(cols, rows=r) == want
    if c:
        assert Mat.from_cols(cols) == want


def test_from_cols_edge_shapes_and_refusals():
    assert Mat.from_cols([], rows=0) == Mat.zero(0, 0)
    assert Mat.from_cols([], rows=3) == Mat.zero(3, 0)
    assert Mat.from_cols([[], []], rows=0) == Mat.zero(0, 2)
    with pytest.raises(ValueError, match="row count required"):
        Mat.from_cols([])
    with pytest.raises(ValueError):
        Mat.from_cols([[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat.from_cols([[1]], rows=-1)
    with pytest.raises(TypeError):
        Mat.from_cols([[0.5]])


# ------------------------------------------------------------------ doctests

def test_module_doctests_pass():
    for module in (linear, repsl2):
        result = doctest.testmod(module)
        assert result.failed == 0 and result.attempted > 0, module.__name__
