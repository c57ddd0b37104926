"""Exact rational sparse linear algebra.

The field is Q; nothing here ever rounds.  A stored coefficient (a matrix
entry, a structure constant, a parsed file value, a vector entry) follows
rational(): an int when it is integral, else a Fraction with denominator
> 1, and never a float.  Vectors are sparse dicts {index: coefficient},
matrices sparse dicts {(row, col): coefficient}.  vec_axpy, vec_scale and
SpanTracker, and the kernel vectors and solutions of rref_kernel,
kernel_basis, rows_kernel and image_membership hold entries in that form,
so integral work stays in ints.
A true division is exact by construction: its left operand is ONE or a
Fraction, never an int, which would make a float of two ints.

Rank / kernel / solve run on the one integer elimination kernel,
``_elim_py.rref``: each matrix is scaled to integer rows and brought to
echelon form by forward elimination with a deterministic Markowitz pivot
rule (shortest row, then the sparsest column), found through a row-length
heap and a column -> row index.  A rank is the count of echelon rows, a
span of them goes through SpanTracker, and kernel_vector solves them.
A system solved once (inner tori, the common kernels of
algebra.graded_kernel, the d2 sectors of H_2, invariant forms) is kept as
row dicts and solved by rows_kernel, without building a matrix.  A scalar
enters through rational() like every stored coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _elim_py as _elim

BACKEND = _elim.BACKEND

ONE = Fraction(1)


class ShapeError(ValueError):
    pass


def rational(c):
    """c as a stored coefficient: an int, or a Fraction with denominator > 1.
    Any other type (a float, a bool, a str) raises TypeError."""
    t = type(c)
    if t is int:
        return c
    if t is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))


# ---------------------------------------------------------------------------
# sparse vectors


def vec_clean(v):
    return {k: x for k, x in v.items() if x}

def vec_rational(v):
    """The nonzero entries of v, each through rational(), which sees the
    zeros too: a float entry raises TypeError even when it is 0.0."""
    return {k: y for k, x in v.items() if (y := rational(x))}

def vec_scale(a, c):
    c = rational(c)
    if not c:
        return {}
    return {k: rational(c * x) for k, x in a.items()}

def vec_axpy(out, c, v):
    """out += c*v in place (out a plain dict).  Each entry it writes follows
    rational(): an integral Fraction sum becomes an int, and a sum of ints
    stays one."""
    if not c:
        return out
    for k, x in v.items():
        y = out.get(k, 0) + c * x
        if y:
            out[k] = y.numerator if type(y) is Fraction and y.denominator == 1 else y
        else:
            out.pop(k, None)
    return out

def vec_eq(a, b):
    return vec_clean(a) == vec_clean(b)

def vec_is_zero(a):
    return not any(a.values())

def integral_row(row):
    """A positive multiple of a row of ints and Fractions, with int entries;
    a row of ints is returned as it is."""
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return row
    mult = lcm(*[v.denominator for v in row.values()])
    # v * mult is an integer; with mult == 1 it is v.numerator
    return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}

# ---------------------------------------------------------------------------
# span tracking (incremental echelon basis; algebra.graded_subquotient
# orders its rows by degree and is the one way spans become bases)


class SpanTracker:
    """Incremental reduced echelon span of sparse rational vectors.

    Basis rows have pivot entry 1, are fully reduced against each other,
    and are returned sorted by pivot index, so the basis of a given span is
    independent of insertion order.  Rows, coordinates and remainders hold
    rational() entries, so a span of integer rows with unit pivots is kept
    in ints.
    """

    def __init__(self, vectors=()):
        self.rows = {}  # pivot index -> normalized row
        for v in vectors:
            self.add(v)

    @property
    def dim(self):
        return len(self.rows)

    def express(self, vec):
        """Coordinates of vec over the basis rows, keyed by pivot, plus the
        irreducible remainder.  Rows are fully reduced, so the coordinate
        at pivot p is the entry of vec at p."""
        v = {k: x.numerator if type(x) is Fraction and x.denominator == 1 else x
             for k, x in vec.items() if x}
        coords = {}
        for p in sorted(set(v) & set(self.rows)):
            c = v[p]
            coords[p] = c
            vec_axpy(v, -c, self.rows[p])
        return coords, v

    def reduce(self, vec):
        return self.express(vec)[1]

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert vec; returns True when the span grows."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        if v[p] != 1:
            inv = ONE / v[p]
            v = {k: rational(inv * x) for k, x in v.items()}
        for q, row in self.rows.items():
            c = row.get(p)
            if c:
                vec_axpy(row, -c, v)
        self.rows[p] = v
        return True

    def basis(self):
        return [dict(self.rows[p]) for p in sorted(self.rows)]


# ---------------------------------------------------------------------------
# matrices


class RationalSparseMatrix:
    """Immutable-by-convention sparse matrix over Q.

    entries maps (row, col) to a nonzero rational() coefficient; shape is
    fixed at construction.  Elimination results are cached, so do not mutate
    entries after construction.
    """

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeError("entry (%d,%d) outside %dx%d" % (r, c, rows, cols))
                v = rational(v)
                if v:
                    self.entries[(r, c)] = v
        self._echelon = None
        self._coldex = None

    # construction helpers -------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise ShapeError("ragged dense input")
        ent = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}
        return cls(rows, cols, ent)

    @classmethod
    def from_columns(cls, columns, rows):
        ent = {(r, c): v for c, col in enumerate(columns) for r, v in col.items()}
        return cls(rows, len(columns), ent)

    @staticmethod
    def block_diag(blocks):
        r0 = c0 = 0
        ent = {}
        for b in blocks:
            for (r, c), v in b.entries.items():
                ent[(r0 + r, c0 + c)] = v
            r0 += b.rows
            c0 += b.cols
        return RationalSparseMatrix(r0, c0, ent)

    # basic queries ---------------------------------------------------------

    def get(self, r, c):
        return self.entries.get((r, c), 0)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, RationalSparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "RationalSparseMatrix(%dx%d, %d nonzero)" % (
            self.rows,
            self.cols,
            len(self.entries),
        )

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def column(self, c):
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    # arithmetic ------------------------------------------------------------

    def transpose(self):
        return RationalSparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("add shape mismatch")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            w = ent.get(k, 0) + v
            if w:
                ent[k] = w
            else:
                ent.pop(k, None)
        return RationalSparseMatrix(self.rows, self.cols, ent)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = rational(c)
        if not c:
            return RationalSparseMatrix(self.rows, self.cols)
        return RationalSparseMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
        )

    def multiply(self, other):
        if self.cols != other.rows:
            raise ShapeError("multiply shape mismatch")
        rows_self = self.row_dicts()
        rows_other = other.row_dicts()
        ent = {}
        for r, row in enumerate(rows_self):
            acc = {}
            for k, v in row.items():
                vec_axpy(acc, v, rows_other[k])
            for c, v in acc.items():
                ent[(r, c)] = v
        return RationalSparseMatrix(self.rows, other.cols, ent)

    def apply(self, vec):
        """M * v for a sparse column vector {index: coefficient}."""
        if self._coldex is None:
            cd = {}
            for (r, c), v in self.entries.items():
                cd.setdefault(c, {})[r] = v
            self._coldex = cd
        out = {}
        for c, x in vec.items():
            if not x:
                continue
            if not 0 <= c < self.cols:
                raise ShapeError("vector index %d outside %d cols" % (c, self.cols))
            col = self._coldex.get(c)
            if col:
                vec_axpy(out, x, col)
        return out

    # elimination-backed queries ---------------------------------------------

    def _int_rows(self, extra_col=None):
        """Integer-scaled rows; extra_col appends a column from a vector."""
        rows = self.row_dicts()
        if extra_col is not None:
            for r, v in extra_col.items():
                if v:
                    rows[r][self.cols] = v
        return [integral_row(row) for row in rows]

    def echelon(self):
        """(piv_cols, piv_rows) of _elim.rref on the integer-scaled rows."""
        if self._echelon is None:
            self._echelon = _elim.rref(self._int_rows())
        return self._echelon

    def rank(self):
        return len(self.echelon()[0])

    def kernel_basis(self):
        """Basis of the right null space {x : Mx = 0}, sorted by free column."""
        return list(rref_kernel(self.cols, *self.echelon()))

    def image_membership(self, b):
        """Solve Mx = b; returns a solution vector or None when b is not in
        the image.  Solutions are verified by substitution.

        Works on the kernel of [M | -b], which is independent of the pivot
        order (the sparsity-driven pivoting may well pivot inside the
        appended column)."""
        b = vec_rational(b)
        if any(not 0 <= i < self.rows for i in b):
            raise ShapeError("rhs index outside %d rows" % self.rows)
        neg = {i: -v for i, v in b.items()}
        aug = self.cols
        kernel = rref_kernel(aug + 1, *_elim.rref(self._int_rows(extra_col=neg)))
        sol = next((v for v in kernel if v.get(aug)), None)
        if sol is None:
            return None
        scale = sol.pop(aug)
        x = {j: rational(Fraction(c, scale)) for j, c in sol.items()}
        if not vec_eq(self.apply(x), b):
            raise ArithmeticError("solver produced an invalid solution")
        return x


def kernel_vector(piv_cols, piv_rows, f):
    """The kernel vector of an echelon result at its free column f: 1 at f,
    0 at the other free columns, in rational() form.  Besides free columns
    a row holds only its pivot and the later rows' pivots, so the rows are
    solved last first, each against the entries solved so far."""
    v = {f: 1}
    for p, row in zip(reversed(piv_cols), reversed(piv_rows)):
        s = 0
        for c, x in v.items():
            y = row.get(c)
            if y:
                s += y * x
        if s:
            v[p] = rational(Fraction(-s, row[p]))
    return v


def rref_kernel(cols, piv_cols, piv_rows):
    """Kernel vectors of an echelon result over columns 0..cols-1, one per
    free column in increasing order (kernel_vector)."""
    pivset = set(piv_cols)
    for f in range(cols):
        if f not in pivset:
            yield kernel_vector(piv_cols, piv_rows, f)


def rows_kernel(rows, cols):
    """Basis of {x : row . x = 0 for every row} for sparse rows of ints and
    Fractions over columns 0..cols-1, sorted by free column."""
    return list(rref_kernel(cols, *_elim.rref([integral_row(r) for r in rows])))
