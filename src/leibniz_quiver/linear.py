"""Exact linear algebra over arbitrary-precision rationals.

Matrices are immutable and sparse: each row is stored as one dict
``{column: Fraction}`` holding its nonzero entries only, never a stored
zero, so every operation costs in proportion to the nonzeros it
touches rather than to the cells of the grid.  ``Mat(rows, cols, data)``
takes a dense grid and ``Mat.from_sparse`` takes one ``{column: value}``
mapping per row; both validate their input and refuse floats.  Dense
views (``row``, ``col``, ``m[i, j]``, ``row_lists``) remain available,
and ``nonzeros(i)`` yields the (column, value) pairs of one row.

Ranks, kernels, solutions and quotients all go through one elimination
core, on integer rows: a matrix scaled by the lcm of all its
denominators (``_common_int_rows``), or rows built in integers as a
known positive multiple of the matrix, as the Leibniz pass builds its
blocks.  A positive scalar changes neither the row space nor the null
space, nor any step below: every row the elimination reduces is a
positive multiple of the row it would reduce from the matrix unscaled,
so the same rows cancel, the same probes are drawn and decide alike,
and each echelon row, divided by the gcd of its entries, is the same.
The rows are reduced one at a time, fraction-free, against a map
from pivot column to echelon row: while the row's leading column
already has an echelon row with leading entry p, and the row has entry
q there, the row becomes (p/g) * row - (q/g) * echelon row with
g = gcd(p, q); a row whose leading column is new is divided by the gcd
of its entries and becomes that column's echelon row, and a row that
cancels to nothing is dropped.  No rational division happens until
back-substitution, which solves all right-hand sides at once in
integers (one common denominator per solved coordinate) and walks only
the nonzeros of each echelon row.  Fill-in stays where the nonzeros
are: a cochain differential in a weight basis never mixes h-weights, so
neither does its elimination.

Why the results do not depend on the order of elimination: column j
is the leading column of some row of an echelon basis exactly when
column j of the matrix is not a combination of the columns before it.
That is a property of the null space, hence of the row space, so every
echelon basis of the row space has the same leading-column set.  Given
that set, the null-space vector with a 1 at free column f and 0 at the
other free columns is unique, and so is the solution of ``a x = b``
whose free coordinates are 0.  Hence the rank, the pivot columns,
``kernel_basis`` (one vector per free column, in increasing order),
``image_basis`` (the pivot columns of the matrix itself) and ``solve``
are reproducible bit for bit, whichever row ends up as the echelon row
of a column.  So is every quotient.  A subspace to divide by is given
by any matrix Q whose columns span it, dependent and zero columns
allowed, and ``_complement`` picks its complement: the coordinates comp
off the positions where the vectors of span Q have their last nonzero
entry, and the projection onto them along span Q, both fixed by span Q
alone.  That serves the Lie quotient (``algebra.QuotientData``) and
the matrices of ``restrict_and_project``: the induced maps have one
matrix in the complement basis ``S e_comp`` of span S / span Q, comp
that of Q_S = Q[R], the coordinates of Q in S, which are read off: S is
a kernel basis, the identity at the rows R of the last nonzeros of its
vectors (``_read_off``).

Three savings rest on that argument, and none can change an output.
The rows are reduced sparsest first, by a stable sort on their nonzero
counts (Markowitz's rule): a short row costs little to reduce and, once
it is an echelon row, brings little fill into the rows reduced against
it.  The elimination stops as soon as its echelon has ``limit`` rows,
for any ``limit`` at least the rank: an echelon that large has as many
independent rows as the row space has dimensions, so it spans the row
space, every row not yet read is a combination of it, and the
leading-column set is complete.  The default limit is the column
count; ``CochainComplex`` passes the bound that its check of
``d.d = 0`` gives.  And below the column count, where a
limit can be met with rows still unread, the elimination defers the
rows that would most likely cancel.  It keeps a probe, an integer
vector that its echelon annihilated when the probe was drawn, and sets
aside every row ``a`` with ``a . probe = 0`` (a null-vector test in the
sense of Schwartz, J. ACM 27, 1980) instead of reducing it.  The
deferred rows are reduced after the scan, unless the echelon has met
the limit by then, in which case the limit certifies that they are
spanned.  So the echelon always spans every row: a row with ``a . probe
!= 0`` lies outside the span the probe was drawn for, a row is left
unread only once the limit certifies the span, and a probe that is
unlucky, orthogonal to a row that is not spanned, costs time and never
an output.  A probe is one back-substitution with fixed pseudo-random
values on the free columns, drawn only once the rows that cancelled
since the last draw have read more echelon entries than it costs: the
column count plus the echelon's nonzeros.

Zero-row and zero-column matrices are first class throughout: a 0 x n
matrix is the unique linear map onto the zero space and an n x 0 matrix
is the inclusion of the zero space.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import StabilityError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

# Entries larger than this trigger a gcd reduction of the row during
# fraction-free elimination; pure growth control, no effect on results.
_REDUCE_BOUND = 1 << 96

_new = object.__new__
_set = object.__setattr__


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to an exact scalar; floats are refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """The rational written ``[+-]digits[/digits]``; ValueError for any
    other text, exponents included (``Fraction("1e5000")`` has 5001
    digits), and ZeroDivisionError for a zero denominator."""
    if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


class _Frozen:
    """Base of the package's value classes.  Their constructors set the
    slots through ``object.__setattr__``; assignment afterwards raises.

    A class that names its defining slots in ``_fields`` compares by
    value: an instance equals one of the same class whose fields are
    equal, and hashes its field tuple.  With ``_fields`` empty, the
    default, an instance equals only itself and hashes by identity.
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields) if self._fields else id(self)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _wrap(rows: int, cols: int, data: Iterable[dict]) -> "Mat":
    """A Mat over trusted row dicts: Fraction values, no zeros, columns
    in range.  The dicts become the matrix and are never mutated."""
    m = _new(Mat)
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_rows", tuple(data))
    return m


def _axpy(acc: dict, x, row: Mapping) -> None:
    """acc += x * row for a nonzero x, dropping entries that cancel."""
    scaled, negated = x != 1, x == -1
    for j, v in row.items():
        if scaled:
            v = -v if negated else x * v
        t = acc.get(j)
        if t is None:
            acc[j] = v
        else:
            t += v
            if t:
                acc[j] = t
            else:
                del acc[j]


class Mat(_Frozen):
    """An immutable ``rows x cols`` matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable]):
        _check_shape(rows, cols)
        grid = [[as_scalar(x) for x in row] for row in data]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"data does not have shape {rows} x {cols}")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_rows", tuple({j: x for j, x in enumerate(r) if x} for r in grid))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_sparse(cls, rows: int, cols: int, data: Iterable[Mapping]) -> "Mat":
        """A matrix from one ``{column: value}`` mapping per row.

        Values are coerced like the entries of ``Mat(...)`` (floats raise
        TypeError) and zeros are dropped; a column outside ``0..cols-1``
        or a row count other than ``rows`` raises ValueError.

        >>> Mat.from_sparse(2, 3, [{2: 5}, {}]) == Mat.from_rows([[0, 0, 5], [0, 0, 0]])
        True
        """
        _check_shape(rows, cols)
        out = []
        for entries in data:
            row = {}
            for j, x in entries.items():
                x = as_scalar(x)
                if not (isinstance(j, int) and 0 <= j < cols):
                    raise ValueError(f"column {j!r} is outside a matrix with {cols} columns")
                if x:
                    row[j] = x
            out.append(row)
        if len(out) != rows:
            raise ValueError(f"data does not have shape {rows} x {cols}")
        return _wrap(rows, cols, out)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "Mat":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def from_cols(cls, cols_data: Sequence[Sequence], rows: int | None = None) -> "Mat":
        if rows is None:
            if not cols_data:
                raise ValueError("row count required for a matrix with no columns")
            rows = len(cols_data[0])
        return cls(len(cols_data), rows, cols_data).transpose()

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        _check_shape(rows, cols)
        return _wrap(rows, cols, ({},) * rows)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        _check_shape(n, n)
        return _wrap(n, n, ({i: _ONE} for i in range(n)))

    @classmethod
    def diagonal(cls, entries: Sequence) -> "Mat":
        n = len(entries)
        diag = [as_scalar(x) for x in entries]
        return _wrap(n, n, ({i: x} if x else {} for i, x in enumerate(diag)))

    @classmethod
    def hstack(cls, mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("hstack of no matrices")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack row mismatch")
        out = [dict(r) for r in mats[0]._rows]
        off = mats[0].cols
        for m in mats[1:]:
            for acc, row in zip(out, m._rows):
                for j, x in row.items():
                    acc[off + j] = x
            off += m.cols
        return _wrap(rows, off, out)

    @classmethod
    def vstack(cls, mats: Sequence["Mat"]) -> "Mat":
        if not mats:
            raise ValueError("vstack of no matrices")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack column mismatch")
        return _wrap(sum(m.rows for m in mats), cols, (r for m in mats for r in m._rows))

    # -- access -------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i].get(range(self.cols)[j], _ZERO)

    def row(self, i: int) -> tuple:
        out = [_ZERO] * self.cols
        for j, x in self._rows[i].items():
            out[j] = x
        return tuple(out)

    def col(self, j: int) -> tuple:
        j = range(self.cols)[j]
        return tuple(r.get(j, _ZERO) for r in self._rows)

    def nonzeros(self, i: int):
        """The (column, value) pairs of the nonzero entries of row i,
        in no particular order."""
        return self._rows[i].items()

    def row_lists(self) -> list:
        """A fresh mutable dense copy of the entries."""
        return [list(self.row(i)) for i in range(self.rows)]

    # -- structure ----------------------------------------------------

    # Its own pair, not ``_fields``: the rows are dicts, hashed as frozensets.
    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self._rows)))

    def __repr__(self):
        if self.rows * self.cols > 36:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other: "Mat", x: Fraction) -> "Mat":
        self._shape_match(other)
        out = []
        for ra, rb in zip(self._rows, other._rows):
            acc = dict(ra)
            _axpy(acc, x, rb)
            out.append(acc)
        return _wrap(self.rows, self.cols, out)

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, _ONE)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, _MINUS_ONE)

    def __neg__(self) -> "Mat":
        return _wrap(self.rows, self.cols, ({j: -x for j, x in r.items()} for r in self._rows))

    def scale(self, s) -> "Mat":
        s = as_scalar(s)
        if not s:
            return Mat.zero(self.rows, self.cols)
        return _wrap(self.rows, self.cols, ({j: s * x for j, x in r.items()} for r in self._rows))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        # Integer accumulation: self is a / da and other is b / db, so the
        # product is (a * b) / (da * db).
        arows, da = _common_int_rows(self)
        brows, db = _common_int_rows(other)
        den = da * db
        return _wrap(self.rows, other.cols,
                     [{j: Fraction(v, den) for j, v in acc.items() if v}
                      for acc in _int_product(arows, brows)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "Mat":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                out[j][i] = x
        return _wrap(self.cols, self.rows, out)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product, returning a coordinate tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for row in self._rows:
            s = _ZERO
            for j, a in row.items():
                v = vec[j]
                if v:
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
    row into a coordinate vector.  An entry 1 of either factor stores
    the other factor's entry as it is.

    >>> kron(Mat.identity(2), Mat.identity(3)) == Mat.identity(6)
    True
    """
    bc = b.cols
    out = [
        {j * bc + k: y if x == 1 else x if y == 1 else x * y
         for j, x in arow.items() for k, y in brow.items()}
        for arow in a._rows
        for brow in b._rows
    ]
    return _wrap(a.rows * b.rows, a.cols * bc, out)


# ---------------------------------------------------------------------------
# Elimination core (see the module docstring).
# ---------------------------------------------------------------------------


def _common_int_rows(m: Mat) -> tuple:
    """Fresh ``{column: int}`` rows, every row of ``m`` times one common
    denominator, the lcm of all its denominators, and that lcm: the one
    integer scaling of the package, for eliminations and products alike,
    which ``_common_ints`` applies to a flat sequence."""
    den = lcm(*[x.denominator for r in m._rows for x in r.values()])
    return _int_rows(m, den), den


def _int_rows(m: Mat, den: int) -> list:
    """Fresh ``{column: int}`` rows of ``den * m``, for ``den`` a multiple
    of every denominator of ``m``."""
    if den == 1:  # an integer matrix, as most are: no scaling
        return [{j: x.numerator for j, x in r.items()} for r in m._rows]
    return [{j: x.numerator * (den // x.denominator) for j, x in r.items()} for r in m._rows]


def _fraction_rows(rows: Iterable[Mapping], den: int):
    """The rows of the matrix whose rows times ``den`` are the integer
    ``rows``, which hold no stored zero: the way back from integer rows
    to the entries of a ``Mat``.  Equal entries share one Fraction, as
    they do in a matrix built from the entries of another."""
    made = {}
    return ({j: made.get(v) or made.setdefault(v, Fraction(v, den)) for j, v in row.items()}
            for row in rows)


def _common_ints(values: Iterable) -> tuple:
    """``_common_int_rows`` of a flat sequence, as one list of ints."""
    values = list(values)
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _int_product(arows: Sequence[Mapping], brows: Sequence[Mapping]):
    """The rows of the product of two integer matrices given by their
    sparse rows, one fresh ``{column: int}`` at a time; an entry that
    cancels stays in its row as a stored 0."""
    for arow in arows:
        acc = {}
        for k, a in arow.items():
            for j, v in brows[k].items():
                acc[j] = acc.get(j, 0) + a * v
        yield acc


def _trace_form(mats: Sequence[Mat]) -> list:
    """The Gram matrix tr(A_i A_j) of a family of square matrices, summed
    over the integer rows of each (``_common_int_rows``) and divided once."""
    ints = [_common_int_rows(a) for a in mats]
    return [[Fraction(sum(x * b[j].get(i, 0) for i, r in enumerate(a) for j, x in r.items()),
                      da * db) for b, db in ints] for a, da in ints]


def _reduce_row(row: dict) -> None:
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _forward_eliminate(rows: list, ncols: int, limit: int | None = None) -> tuple:
    """Reduce the integer rows (sorted and consumed in place), sparsest
    first, to an echelon basis of their span; returns ``(echelon,
    pivots)`` with ``echelon`` the map from pivot column to its echelon
    row and ``pivots`` its sorted keys.  The elimination stops once the
    echelon has ``limit`` rows (default ``ncols``), which must be at
    least the rank of the rows.

    A ``limit`` below ``ncols`` also defers, as the module docstring
    argues, every row that a probe from ``_null_vector`` finds spanned;
    those rows are reduced after the scan unless the limit is met first.
    """
    if limit is None:
        limit = ncols
    rows.sort(key=len)
    echelon = {}
    deferred = []
    probe = None
    scanning = limit < ncols
    wasted = nnz = 0  # entries read by cancelled rows; echelon nonzeros
    for pending in (rows, deferred):
        for row in pending:
            if len(echelon) == limit:
                break
            if probe is not None and not sum(v * probe.get(j, 0) for j, v in row.items()):
                deferred.append(row)
                continue
            read = 0
            while row:
                c = min(row)
                prow = echelon.get(c)
                if prow is None:
                    _reduce_row(row)
                    echelon[c] = row
                    nnz += len(row)
                    break
                read += len(prow)
                p, q = prow[c], row[c]
                g = gcd(p, q)
                p //= g
                q //= g
                if p != 1:
                    row = {j: p * v for j, v in row.items()}
                for j, v in prow.items():
                    t = row.get(j)
                    if t is None:
                        row[j] = -q * v
                    else:
                        t -= q * v
                        if t:
                            row[j] = t
                        else:
                            del row[j]
                if row and (max(row.values()) > _REDUCE_BOUND
                            or min(row.values()) < -_REDUCE_BOUND):
                    _reduce_row(row)
            else:  # the row cancelled: its reading was wasted
                wasted += read
                if scanning and wasted > ncols + nnz:
                    probe = _null_vector(echelon, ncols)
                    wasted = 0
        probe = None
        scanning = False
    return echelon, sorted(echelon)


def _null_vector(echelon: dict, ncols: int) -> dict:
    """An integer vector that every echelon row annihilates: fixed
    pseudo-random values on the free columns, the outputs of the Lehmer
    generator 16807^(c+1) mod 2^31 - 1, and the pivot columns solved by
    back-substitution, all times the solution's common denominator."""
    free = {c: {0: pow(16807, c + 1, 2147483647)} for c in range(ncols) if c not in echelon}
    x = _integer_back_substitute(echelon, sorted(echelon), free)
    den = lcm(*[d for _, d in x.values()])
    return {c: num[0] * (den // d) for c, (num, d) in x.items()}


def _back_substitute(echelon: dict, pivots: list, fixed: dict) -> dict:
    """Solve the echelon rows for their pivot coordinates, for every
    right-hand side at once.

    ``fixed`` gives the integer values of non-pivot columns, each a
    sparse ``{k: value}`` over the right-hand sides k; an absent column
    is 0 in every right-hand side.  Returns the values of the pivot
    columns that make each echelon row vanish, as sparse ``{k:
    Fraction}`` without zeros.
    """
    x = _integer_back_substitute(echelon, pivots, fixed)
    return {pc: {k: Fraction(v, x[pc][1]) for k, v in x[pc][0].items()}
            for pc in pivots if pc in x}


def _integer_back_substitute(echelon: dict, pivots: list, fixed: dict) -> dict:
    """``_back_substitute`` in integers: every column of ``fixed`` and
    every pivot column with a nonzero value maps to its numerators over
    one common denominator, ``({k: numerator}, denominator)``."""
    x = {j: (values, 1) for j, values in fixed.items()}
    for pc in reversed(pivots):
        terms = [(a, x[j]) for j, a in echelon[pc].items() if j in x]
        if not terms:
            continue
        den = lcm(*[d for _, (_, d) in terms])
        acc = {}
        for a, (num, d) in terms:
            if d != den:
                a *= den // d
            for k, v in num.items():
                acc[k] = acc.get(k, 0) + a * v
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            den *= -echelon[pc][pc]
            g = gcd(den, *acc.values())
            if den < 0:
                g = -g
            x[pc] = ({k: v // g for k, v in acc.items()}, den // g)
    return x


def rank(m: Mat) -> int:
    """Rank by fraction-free elimination.

    >>> rank(Mat.from_rows([[1, 2], [2, 4]]))
    1
    """
    return len(_forward_eliminate(_common_int_rows(m)[0], m.cols)[0])


def kernel_basis(m: Mat) -> "SubspaceBasis":
    """Deterministic basis of the null space of ``m``.

    One basis vector per free column, with a 1 in the free position and
    the pivot coordinates solved by back-substitution, free columns in
    increasing order.

    >>> [v for v in kernel_basis(Mat.from_rows([[1, 1]])).vectors]
    [(Fraction(-1, 1), Fraction(1, 1))]
    """
    return _int_kernel_and_pivots(_common_int_rows(m)[0], m.cols, m.cols)[0]


def _int_kernel_and_pivots(rows: list, n: int, limit: int) -> tuple:
    """``kernel_basis`` and the pivot columns of the matrix with ``n``
    columns whose rows times one nonzero constant are the integer
    ``rows``, which have the same kernel and pivots, from one elimination
    that stops once its echelon has ``limit`` rows; ``limit`` must be at
    least the rank.  The elimination consumes ``rows`` and leaves the
    list empty, so the caller's reference holds nothing during
    back-substitution."""
    echelon, pivots = _forward_eliminate(rows, n, limit)
    rows.clear()
    free = [c for c in range(n) if c not in echelon]
    x = _back_substitute(echelon, pivots, {c: {k: 1} for k, c in enumerate(free)})
    x.update((c, {k: _ONE}) for k, c in enumerate(free))
    return _basis(_wrap(n, len(free), (x.get(i, {}) for i in range(n)))), pivots


def _eigenspaces(a: Mat, candidates: Iterable) -> list | None:
    """``[(lam, kernel_basis(a - lam I))]`` for the eigenvalues lam of
    the n x n matrix ``a`` among ``candidates``, in their order, when
    these eigenspaces span K^n; None otherwise.  The candidates are
    distinct rationals in nondecreasing absolute value.

    D a, with D the lcm of the denominators of a, is an integer matrix,
    so its rational eigenvalues are integers: a candidate with D lam not
    an integer is skipped.  Where the eigenspaces span, tr((D a)^2) is
    the sum of the squares of the eigenvalues D lam, so once those found
    leave r dimensions and a part s of it, every eigenvalue left has
    r (D lam)^2 <= s for the next candidate: when that fails, they do not
    span.  A diagonal ``a`` is read off, the coordinate vectors at its
    entries lam being the basis that ``kernel_basis`` gives; any other
    takes one elimination per candidate, of the integer rows of D a with
    D lam subtracted on the diagonal.
    """
    n = a.rows
    rows, den = _common_int_rows(a)
    diagonal = all(r.keys() <= {i} for i, r in enumerate(rows))
    rest = sum(v * rows[j].get(i, 0) for i, r in enumerate(rows) for j, v in r.items())
    spaces, left = [], n
    for lam in candidates:
        if not left:
            break
        k = lam * den
        if k.denominator != 1:
            continue
        k = k.numerator
        if left * k * k > rest:
            return None
        if diagonal:
            at = [i for i in range(n) if rows[i].get(i, 0) == k]
            space = _basis(_columns(Mat.identity(n), at))
        else:
            shifted = [dict(r) for r in rows]
            for i, row in enumerate(shifted):
                v = row.pop(i, 0) - k
                if v:
                    row[i] = v
            space = _int_kernel_and_pivots(shifted, n, n)[0]
        if space.dim:
            spaces.append((lam, space))
            left -= space.dim
            rest -= space.dim * k * k
    return None if left else spaces


def _read_off(srows: Sequence[Mapping], cols: int, scale: int,
              brows: Sequence[Mapping]) -> tuple | None:
    """For the integer rows of ``scale * S``, S with ``cols`` columns, and
    of B: ``(R, outside)`` when S[R] = I, R the row of the last nonzero
    of each column of S, and None otherwise.  A kernel basis has R its
    free columns.  S X = B then forces X = B[R], and ``outside`` holds the
    columns where S B[R] != B, from one integer product off R."""
    last = {}
    for i, row in enumerate(srows):
        for j in row:
            last[j] = i
    rr = [last.get(j) for j in range(cols)]
    if None in rr or any(srows[r] != {j: scale} for j, r in enumerate(rr)):
        return None
    others = sorted(set(range(len(srows))).difference(rr))
    outside = set()
    for acc, i in zip(_int_product([srows[i] for i in others], [brows[r] for r in rr]), others):
        row = brows[i]
        outside.update(c for c in acc.keys() | row.keys()
                       if acc.get(c, 0) != scale * row.get(c, 0))
    return rr, outside


def _kernel_coordinates(s: Mat, b: Mat) -> Mat | None:
    """X = b[R] with s X = b by ``_read_off``, no elimination; None when
    s is not of its form or b is outside span s.  Only the s given is
    read, so a result proves s X = b whatever s is."""
    srows, ds = _common_int_rows(s)
    found = _read_off(srows, s.cols, ds, _common_int_rows(b)[0])
    if found is None or found[1]:
        return None
    return _wrap(s.cols, b.cols, (b._rows[r] for r in found[0]))


def solve(a: Mat, b: Mat) -> Mat | None:
    """Exact solution X of ``a * X = b`` with free variables set to zero.

    Returns None when any column of ``b`` is outside the column span of
    ``a``.  The solution is deterministic (particular solution of the
    echelon system).
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch in solve")
    n = a.cols
    echelon, pivots = _forward_eliminate(_common_int_rows(Mat.hstack([a, b]))[0], n + b.cols)
    if pivots and pivots[-1] >= n:
        return None  # a pivot landed in the right-hand block: inconsistent
    # Column n + k carries right-hand side k with coefficient -1, so each
    # echelon row reads sum_j row[j] x[j] = row[n + k].
    x = _back_substitute(echelon, pivots, {n + k: {k: -1} for k in range(b.cols)})
    return _wrap(n, b.cols, (x.get(i, {}) for i in range(n)))


def image_basis(m: Mat) -> "SubspaceBasis":
    """Basis of the column span: the pivot columns of ``m`` themselves."""
    return _basis(_columns(m, _forward_eliminate(_common_int_rows(m)[0], m.cols)[1]))


def _columns(m: Mat, idx: Sequence[int]) -> Mat:
    """The columns of ``m`` at the given distinct indices, in that
    order."""
    at = {j: k for k, j in enumerate(idx)}
    return _wrap(m.rows, len(idx),
                 ({at[j]: x for j, x in row.items() if j in at} for row in m._rows))


def _basis(cols: Mat) -> "SubspaceBasis":
    """The basis formed by the independent columns of ``cols``, which
    it keeps as its matrix."""
    b = _new(SubspaceBasis)
    _set(b, "_matrix", cols)
    return b


class SubspaceBasis(_Frozen):
    """An ordered, linearly independent list of vectors in K^ambient.

    The basis is stored once, as the sparse ``ambient_dim x dim`` matrix
    whose columns are the vectors; ``ambient_dim``, ``dim`` and
    ``vectors`` are read from it.  The constructor takes the vectors
    themselves and refuses wrong lengths, floats and dependent vectors.
    """

    __slots__ = ("_matrix",)
    _fields = __slots__

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        m = Mat.from_cols(list(vectors), rows=ambient_dim)
        if m.cols and rank(m) != m.cols:
            raise ValueError("vectors are linearly dependent")
        _set(self, "_matrix", m)

    @classmethod
    def full(cls, n: int) -> "SubspaceBasis":
        return _basis(Mat.identity(n))

    @classmethod
    def empty(cls, n: int) -> "SubspaceBasis":
        return _basis(Mat.zero(n, 0))

    @property
    def ambient_dim(self) -> int:
        return self._matrix.rows

    @property
    def dim(self) -> int:
        return self._matrix.cols

    @property
    def vectors(self) -> tuple:
        """The basis vectors as dense tuples, built anew on each access."""
        t = self._matrix.transpose()
        return tuple(t.row(k) for k in range(t.rows))

    def __len__(self) -> int:
        return self.dim

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in K^{self.ambient_dim})"

    def matrix(self) -> Mat:
        """The ambient_dim x dim matrix whose columns are the basis."""
        return self._matrix


def lincomb(mats: Sequence[Mat], coords: Sequence, dim: int) -> Mat:
    """The ``dim x dim`` matrix sum of ``coords[i] * mats[i]``.

    >>> lincomb([Mat.identity(2), Mat.zero(2, 2)], [3, 5], 2) == Mat.identity(2).scale(3)
    True
    """
    out = [{} for _ in range(dim)]
    for m, x in zip(mats, coords, strict=True):
        if x:
            for acc, row in zip(out, m._rows):
                _axpy(acc, x, row)
    return _wrap(dim, dim, out)


def _sum(mats: Sequence[Mat]) -> Mat:
    """The sum of matrices of one shape, accumulated in one copy."""
    first, *rest = mats
    out = [dict(r) for r in first._rows]
    for m in rest:
        first._shape_match(m)
        for acc, row in zip(out, m._rows):
            if row:
                _axpy(acc, _ONE, row)
    return _wrap(first.rows, first.cols, out)


def intersect_kernels(mats: Sequence[Mat], n: int) -> SubspaceBasis:
    """Basis of the common null space in K^n of a family of matrices
    with n columns; all of K^n for an empty family."""
    return kernel_basis(Mat.vstack([Mat.zero(0, n), *mats]))


def _complement(qrows: Sequence[Mapping], t: int) -> tuple:
    """(comp, d Pi) for the integer rows, with no stored zero, of a
    matrix Q with ``t`` columns, dependent and zero columns allowed, from
    one elimination.

    comp, increasing, is the complement of the positions R' where the
    vectors of span Q have their last nonzero entry, and Pi = [I_comp |
    -W], W = Q[comp] Q[R']^-1 for any basis Q of the span, projects onto
    the coordinates comp along span Q; d, the lcm of its denominators,
    is each entry of d Pi at comp.  The rows of Pi are the kernel basis
    of Q^T in reversed coordinates, where pivots are last nonzeros, from
    the echelon of the t rows of Q^T.
    """
    s = len(qrows)
    cols = [{} for _ in range(t)]
    for i, row in enumerate(qrows):
        for c, v in row.items():
            cols[c][s - 1 - i] = v
    echelon, last = _forward_eliminate(cols, s)
    comp = [j for j in range(s) if s - 1 - j not in echelon]
    pi = _integer_back_substitute(echelon, last, {s - 1 - j: {k: 1} for k, j in enumerate(comp)})
    d = lcm(*[den for _, den in pi.values()])
    prows = [{} for _ in comp]
    for p, (num, den) in pi.items():
        for k, v in num.items():
            prows[k][s - 1 - p] = v * (d // den)
    return comp, prows


def restrict_and_project(maps: Sequence[Mat], sub: SubspaceBasis, quot: Mat) -> list:
    """Matrices of the maps induced by each of ``maps`` on
    span(sub)/span(quot), in the order given.

    ``sub`` must be the identity at the last nonzero of each vector, as
    ``SubspaceBasis.full`` and every kernel basis are (ValueError
    otherwise).  ``quot`` is any matrix whose columns span the subspace
    to divide by.  Each map must preserve span(sub) and span(quot),
    which must lie in span(sub); StabilityError if any map fails.  The
    quotient is presented in the complement basis S e_comp, comp as
    ``_complement`` picks it for Q_S, and has dimension len(comp).  The
    work is on integer rows.  Restrict: Y_k = (F_k S)[R] and Q_S = Q[R]
    are read off at those rows R, where S[R] = I, and one product checks
    S Y_k = F_k S and S Q_S = Q outside R (``_read_off``).  Project, the
    one elimination and only when Q has a nonzero entry: with d Pi from
    ``_complement(Q_S)``, X_k = (Pi Y_k)[:, comp], F_k keeping span Q iff
    Pi Y_k Q_S = 0.
    """
    n = sub.ambient_dim
    if any(f.rows != n or f.cols != n for f in maps):
        raise ValueError("endomorphism shape mismatch")
    if quot.rows != n:
        raise ValueError("ambient mismatch between sub and quot")
    if not maps:
        return []
    s, t = sub.dim, quot.cols
    ks = len(maps) * s
    srows, ds = _common_int_rows(sub.matrix())
    frows, df = _common_int_rows(Mat.vstack(maps))
    qrows, _ = _common_int_rows(quot)
    # Row i of b is [F_0 S | ... | F_(K-1) S | Q] at row i, times
    # integers; an entry that cancels stays as a stored 0.
    b = [{ks + u: v for u, v in q.items()} for q in qrows]
    for r, frow in enumerate(frows):
        k, i = divmod(r, n)
        acc, off = b[i], k * s
        for l, a in frow.items():
            for j, v in srows[l].items():
                acc[off + j] = acc.get(off + j, 0) + a * v
    # Restrict: x / ds = b[R] is [df Y_0 | ... | c Q_S] for a constant
    # c != 0, and S x / ds = b must hold off R too.
    found = _read_off(srows, s, ds, b)
    if found is None:
        raise ValueError("sub is not the identity at the last nonzero entry of each vector")
    rr, outside = found
    if any(c >= ks for c in outside):
        raise StabilityError("quotient space is not inside the subspace")
    if outside:
        raise StabilityError("map does not preserve the subspace")
    x = [b[r] for r in rr]
    comp, z, d = range(s), x, 1
    if any(qrows):
        qs = [{u - ks: v for u, v in row.items() if u >= ks} for row in x]
        comp, prows = _complement(qs, t)
        if comp:
            d = prows[0][comp[0]]
        z = list(_int_product(prows, x))
        # Pi Y_k Q_S for every k at once: z times the block-diagonal
        # matrix with Q_S in each of its K blocks.
        blocks = [{c // s * t + u: v for u, v in qs[c % s].items()} for c in range(ks)]
        if any(any(acc.values()) for acc in _int_product(z, blocks + [{}] * t)):
            raise StabilityError("map does not preserve the quotient subspace")
    at = {j: i for i, j in enumerate(comp)}
    den = d * ds * df
    out = [[{} for _ in comp] for _ in maps]
    for i, row in enumerate(z):
        for c, v in row.items():
            if v and c < ks:
                k, j = divmod(c, s)
                if j in at:
                    out[k][i][at[j]] = Fraction(v, den)
    return [_wrap(len(comp), len(comp), rows) for rows in out]
