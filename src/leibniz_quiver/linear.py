"""Exact linear algebra over arbitrary-precision rationals.

Matrices are immutable grids of `fractions.Fraction` entries.  Ranks,
kernels, solutions and quotients all go through one fraction-free
Gaussian elimination (rows are scaled to integers first, then combined
by cross-multiplication), with the pivot always taken as the first
nonzero entry in column order, so every basis this module produces is
reproducible bit for bit.

Zero-row and zero-column matrices are first class throughout: a 0 x n
matrix is the unique linear map onto the zero space and an n x 0 matrix
is the inclusion of the zero space.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import StabilityError

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Entries larger than this trigger a gcd reduction of the row during
# fraction-free elimination; pure growth control, no effect on results.
_REDUCE_BOUND = 1 << 96


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to an exact scalar; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Mat:
    """An immutable ``rows x cols`` matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        grid = tuple(tuple(as_scalar(x) for x in row) for row in data)
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"data does not have shape {rows} x {cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Mat":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence], rows: int | None = None) -> "Mat":
        ncols = len(cols_data)
        if rows is None:
            if not ncols:
                raise ValueError("row count required for a matrix with no columns")
            rows = len(cols_data[0])
        data = [[cols_data[j][i] for j in range(ncols)] for i in range(rows)]
        return cls(rows, ncols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Mat":
        n = len(entries)
        return cls(n, n, [[entries[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def hstack(cls, mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("hstack of no matrices")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack row mismatch")
        data = [sum((list(m._data[i]) for m in mats), []) for i in range(rows)]
        return cls(rows, sum(m.cols for m in mats), data)

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("vstack of no matrices")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack column mismatch")
        data = [row for m in mats for row in m._data]
        return cls(sum(m.rows for m in mats), cols, data)

    # -- access -------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._data)

    def row_lists(self) -> list:
        """A fresh mutable copy of the entries, for elimination."""
        return [list(r) for r in self._data]

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(not x for row in self._data for x in row)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._shape_match(other)
        data = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self._data, other._data)
        ]
        return Mat(self.rows, self.cols, data)

    def __sub__(self, other: "Mat") -> "Mat":
        self._shape_match(other)
        data = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self._data, other._data)
        ]
        return Mat(self.rows, self.cols, data)

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[-a for a in row] for row in self._data])

    def scale(self, s) -> "Mat":
        s = as_scalar(s)
        return Mat(self.rows, self.cols, [[s * a for a in row] for row in self._data])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bd = other._data
        out = []
        for arow in self._data:
            acc = [_ZERO] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = bd[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return Mat(self.rows, other.cols, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "Mat":
        data = [[self._data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return Mat(self.cols, self.rows, data)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, returning a coordinate tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self._data:
            s = _ZERO
            for a, v in zip(row, vec):
                if a and v:
                    s += a * v
            out.append(s)
        return tuple(out)

    def _shape_match(self, other: "Mat"):
        if not isinstance(other, Mat):
            raise TypeError("expected a Mat")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product with row-major index pairing.

    Row (i, i') of the result is ``i * b.rows + i'`` and likewise for
    columns, so ``kron`` is compatible with flattening a matrix row by
    row into a coordinate vector.

    >>> kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)
    True
    """
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    grid = [[_ZERO] * cols for _ in range(rows)]
    for i in range(a.rows):
        arow = a.row(i)
        for j, av in enumerate(arow):
            if av:
                r0 = i * b.rows
                c0 = j * b.cols
                for bi in range(b.rows):
                    brow = b.row(bi)
                    tr = grid[r0 + bi]
                    for bj, bv in enumerate(brow):
                        if bv:
                            tr[c0 + bj] = av * bv
    return Mat(rows, cols, grid)


# ---------------------------------------------------------------------------
# Elimination core.
#
# Rows are scaled to integers (clearing denominators row by row, which
# changes neither the row space nor the null space), then brought to row
# echelon form by cross-multiplication:  row_j <- p * row_j - q * row_i.
# No rational division happens until back-substitution.
# ---------------------------------------------------------------------------


def _int_rows(m: Mat) -> list:
    out = []
    for row in m._data:
        denom_lcm = 1
        for x in row:
            d = x.denominator
            if d != 1:
                denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
        if denom_lcm == 1:
            out.append([x.numerator for x in row])
        else:
            out.append([int(x * denom_lcm) for x in row])
    return out


def _reduce_row(row: list) -> None:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for j, x in enumerate(row):
            if x:
                row[j] = x // g


def _forward_eliminate(rows: list, ncols: int) -> list:
    """In-place integer row echelon reduction; returns the pivot columns.

    The pivot for each column is the first not-yet-used row with a
    nonzero entry there, which keeps the reduction deterministic.
    """
    pivots = []
    nrows = len(rows)
    r = 0
    for c in range(ncols):
        prow = -1
        for i in range(r, nrows):
            if rows[i][c]:
                prow = i
                break
        if prow < 0:
            continue
        if prow != r:
            rows[r], rows[prow] = rows[prow], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(r + 1, nrows):
            row_i = rows[i]
            q = row_i[c]
            if q:
                big = False
                for j in range(c, ncols):
                    pj = pivot_row[j]
                    v = p * row_i[j] - q * pj if pj else p * row_i[j]
                    row_i[j] = v
                    if v > _REDUCE_BOUND or -v > _REDUCE_BOUND:
                        big = True
                if big:
                    _reduce_row(row_i)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _back_substitute(rows: list, pivots: list, ncols: int, rhs_col) -> list:
    """Solve the echelon system for one right-hand side column.

    ``rows`` must be the output of _forward_eliminate on the augmented
    matrix restricted to the coefficient columns, with ``rhs_col`` the
    matching entries of the augmented column after elimination.  Free
    variables are set to zero.  Returns the solution as Fractions.
    """
    x = [_ZERO] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        row = rows[r]
        s = Fraction(rhs_col[r])
        for j in range(pc + 1, ncols):
            aj = row[j]
            if aj and x[j]:
                s -= aj * x[j]
        x[pc] = s / row[pc]
    return x


def rank(m: Mat) -> int:
    """Rank by fraction-free elimination.

    >>> rank(Mat.from_rows([[1, 2], [2, 4]]))
    1
    """
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _int_rows(m)
    return len(_forward_eliminate(rows, m.cols))


def nullity(m: Mat) -> int:
    return m.cols - rank(m)


def cokernel_dim(m: Mat) -> int:
    """Dimension of the cokernel (target dimension minus rank)."""
    return m.rows - rank(m)


def kernel_basis(m: Mat) -> "SubspaceBasis":
    """Deterministic basis of the null space of ``m``.

    One basis vector per free column, with a 1 in the free position and
    the pivot coordinates solved by back-substitution, free columns in
    increasing order.

    >>> [v for v in kernel_basis(Mat.from_rows([[1, 1]])).vectors]
    [(Fraction(-1, 1), Fraction(1, 1))]
    """
    n = m.cols
    if m.rows == 0 or n == 0:
        vecs = [tuple(_ONE if i == j else _ZERO for i in range(n)) for j in range(n)]
        return SubspaceBasis(n, vecs, check=False)
    rows = _int_rows(m)
    pivots = _forward_eliminate(rows, n)
    pivot_set = set(pivots)
    vecs = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        # Solve A x = 0 with x[fc] = 1 and all other free coords 0; the
        # pivots right of fc stay 0, so only the rows left of it are solved.
        k = bisect(pivots, fc)
        x = _back_substitute(rows, pivots[:k], n, [-rows[r][fc] for r in range(k)])
        x[fc] = _ONE
        vecs.append(tuple(x))
    return SubspaceBasis(n, vecs, check=False)


def solve(a: Mat, b: Mat) -> Mat | None:
    """Exact solution X of ``a * X = b`` with free variables set to zero.

    Returns None when any column of ``b`` is outside the column span of
    ``a``.  The solution is deterministic (particular solution of the
    echelon system).
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    n = a.cols
    aug = Mat.hstack([a, b]) if n else b
    rows = _int_rows(aug)
    total = n + b.cols
    pivots_all = _forward_eliminate(rows, total)
    pivots = [p for p in pivots_all if p < n]
    if len(pivots) != len(pivots_all):
        return None  # a pivot landed in the right-hand block: inconsistent
    nr = len(pivots)
    # Rows below the pivot rows are zero in the coefficient block; any
    # nonzero right-hand entry there certifies inconsistency.
    for i in range(nr, len(rows)):
        if any(rows[i][n + k] for k in range(b.cols)):
            return None
    cols_out = []
    for k in range(b.cols):
        rhs = [rows[r][n + k] for r in range(nr)]
        cols_out.append(_back_substitute(rows, pivots, n, rhs))
    return Mat.from_cols(cols_out, rows=n)


def image_basis(m: Mat) -> "SubspaceBasis":
    """Basis of the column span: the pivot columns of ``m`` themselves."""
    if m.rows == 0 or m.cols == 0:
        return SubspaceBasis(m.rows, [], check=False)
    rows = _int_rows(m)
    pivots = _forward_eliminate(rows, m.cols)
    return SubspaceBasis(m.rows, [m.col(j) for j in pivots], check=False)


def span_of(vectors: Sequence[Sequence], ambient_dim: int) -> "SubspaceBasis":
    """Deterministic basis of the span of the given vectors (the subset
    of the input vectors sitting at pivot positions)."""
    vecs = [tuple(as_scalar(x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("vector length mismatch")
    if not vecs:
        return SubspaceBasis(ambient_dim, [], check=False)
    return image_basis(Mat.from_cols(vecs, rows=ambient_dim))


class SubspaceBasis:
    """An ordered, linearly independent list of vectors in K^ambient."""

    __slots__ = ("ambient_dim", "vectors")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence], *, check: bool = True):
        vecs = tuple(tuple(as_scalar(x) for x in v) for v in vectors)
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("basis vector has wrong length")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vectors", vecs)
        if check and vecs:
            if rank(self.matrix()) != len(vecs):
                raise ValueError("vectors are linearly dependent")

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        return cls(n, Mat.identity(n).transpose()._data, check=False)

    @classmethod
    def empty(cls, n: int) -> "SubspaceBasis":
        return cls(n, [], check=False)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.vectors == other.vectors
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.vectors))

    def __repr__(self):
        return f"SubspaceBasis(dim {len(self.vectors)} in K^{self.ambient_dim})"

    def matrix(self) -> Mat:
        """The ambient_dim x dim matrix whose columns are the basis."""
        return Mat.from_cols(self.vectors, rows=self.ambient_dim)

    def coords(self, vector: Sequence) -> tuple | None:
        """Coordinates of ``vector`` in this basis, or None if outside."""
        v = Mat.from_cols([vector], rows=self.ambient_dim)
        if not self.vectors:
            return () if v.is_zero() else None
        sol = solve(self.matrix(), v)
        return sol.col(0) if sol is not None else None

    def contains(self, vector: Sequence) -> bool:
        return self.coords(vector) is not None

    def contains_all(self, other: "SubspaceBasis") -> bool:
        if other.ambient_dim != self.ambient_dim:
            return False
        if not other.vectors:
            return True
        if not self.vectors:
            return other.matrix().is_zero()
        return solve(self.matrix(), other.matrix()) is not None


def lincomb(mats: Sequence[Mat], coords: Sequence, dim: int) -> Mat:
    """The ``dim x dim`` matrix sum of ``coords[i] * mats[i]``.

    >>> lincomb([Mat.identity(2), Mat.zero(2, 2)], [3, 5], 2) == Mat.identity(2).scale(3)
    True
    """
    grid = [[_ZERO] * dim for _ in range(dim)]
    for m, x in zip(mats, coords, strict=True):
        if x:
            for out, row in zip(grid, m._data):
                for j, a in enumerate(row):
                    if a:
                        out[j] += x * a
    return Mat(dim, dim, grid)


def intersect_kernels(mats: Sequence[Mat]) -> SubspaceBasis:
    """Basis of the common null space of a family of matrices."""
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    return kernel_basis(Mat.vstack(mats))


def complement_pivot_indices(coord_cols: Sequence[Sequence], dim: int) -> list:
    """Indices j such that the standard vectors e_j extend ``coord_cols``
    to a basis of K^dim (pivot-column extension, deterministic)."""
    ncols = len(coord_cols)
    cols = list(coord_cols) + [
        tuple(_ONE if i == j else _ZERO for i in range(dim)) for j in range(dim)
    ]
    m = Mat.from_cols(cols, rows=dim)
    rows = _int_rows(m)
    pivots = _forward_eliminate(rows, m.cols)
    return [p - ncols for p in pivots if p >= ncols]


def restrict_and_project(f: Mat, sub: SubspaceBasis, quot_of: SubspaceBasis) -> Mat:
    """Matrix of the map induced by ``f`` on span(sub)/span(quot_of).

    ``f`` must preserve span(sub), and ``quot_of`` must span an
    f-stable subspace of span(sub); StabilityError otherwise.  The
    quotient is presented in the deterministic complement basis obtained
    by extending quot_of (in sub coordinates) with standard vectors at
    pivot positions.
    """
    n = sub.ambient_dim
    if f.rows != n or f.cols != n:
        raise ValueError("endomorphism shape mismatch")
    if quot_of.ambient_dim != n:
        raise ValueError("ambient mismatch between sub and quot_of")
    s = sub.dim
    smat = sub.matrix()
    f_in_sub = solve(smat, f * smat) if s else Mat.zero(0, 0)
    if f_in_sub is None:
        raise StabilityError("map does not preserve the subspace")
    if quot_of.dim:
        qcoords = solve(smat, quot_of.matrix())
        if qcoords is None:
            raise StabilityError("quotient space is not inside the subspace")
        fq = f * quot_of.matrix()
        if solve(quot_of.matrix(), fq) is None:
            raise StabilityError("map does not preserve the quotient subspace")
        q_cols = [qcoords.col(j) for j in range(quot_of.dim)]
    else:
        q_cols = []
    comp = complement_pivot_indices(q_cols, s)
    t = len(q_cols)
    if len(comp) != s - t:
        raise StabilityError("quotient basis does not extend to the subspace")
    basis_cols = q_cols + [
        tuple(_ONE if i == j else _ZERO for i in range(s)) for j in comp
    ]
    if not comp:
        return Mat.zero(0, 0)
    bmat = Mat.from_cols(basis_cols, rows=s)
    images = Mat.from_cols([f_in_sub.col(j) for j in comp], rows=s)
    coords = solve(bmat, images)
    if coords is None:  # unreachable: basis_cols spans K^s
        raise StabilityError("internal: complement coordinates unsolvable")
    data = [coords.row(t + i) for i in range(s - t)]
    return Mat(s - t, s - t, data)
