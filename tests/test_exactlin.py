import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from epslie import _elim_py
from epslie.exactlin import (
    BACKEND,
    RationalSparseMatrix,
    ShapeError,
    SpanTracker,
    rational,
    rows_kernel,
    vec_axpy,
    vec_clean,
    vec_eq,
    vec_scale,
)

from _sectors import sector_positions, split_sectors


def random_matrix(rng, rows, cols, density=0.4, scale=6):
    ent = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                num = rng.randint(-scale, scale)
                den = rng.randint(1, 3)
                if num:
                    ent[(r, c)] = Fraction(num, den)
    return RationalSparseMatrix(rows, cols, ent)


def test_rank_trivial_cases():
    assert RationalSparseMatrix.zero(3, 5).rank() == 0
    assert RationalSparseMatrix.identity(4).rank() == 4


def test_rank_transpose_oracle():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert m.rank() == m.transpose().rank()


def test_kernel_trivial_cases():
    assert RationalSparseMatrix.identity(3).kernel_basis() == []
    assert len(RationalSparseMatrix.zero(2, 3).kernel_basis()) == 3


def test_kernel_is_exact_and_independent():
    rng = random.Random(13)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 8))
        kb = m.kernel_basis()
        assert m.rank() + len(kb) == m.cols  # rank-nullity
        for v in kb:
            assert not m.apply(v)
        if kb:
            span = RationalSparseMatrix.from_columns(kb, m.cols)
            assert span.rank() == len(kb)


def test_image_membership_trivial():
    ident = RationalSparseMatrix.identity(3)
    b = {0: Fraction(2), 2: Fraction(-1, 3)}
    assert vec_eq(ident.image_membership(b), b)
    zero = RationalSparseMatrix.zero(2, 2)
    assert zero.image_membership({0: Fraction(1)}) is None
    assert vec_eq(zero.image_membership({}), {})


def test_image_membership_consistency():
    rng = random.Random(17)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x0 = {c: Fraction(rng.randint(-4, 4)) for c in range(m.cols)}
        b = m.apply(x0)
        x = m.image_membership(b)
        assert x is not None
        assert vec_eq(m.apply(x), b)


def test_multiply_identities():
    rng = random.Random(19)
    m = random_matrix(rng, 4, 5)
    ident = RationalSparseMatrix.identity(5)
    assert m.multiply(ident) == m
    n = random_matrix(rng, 5, 3)
    assert m.multiply(n).transpose() == n.transpose().multiply(m.transpose())
    p = random_matrix(rng, 3, 4)
    assert m.multiply(n).multiply(p) == m.multiply(n.multiply(p))


def test_add_scale_block_diag():
    rng = random.Random(23)
    m = random_matrix(rng, 3, 3)
    assert m.add(m.scale(-1)).is_zero()
    b = RationalSparseMatrix.block_diag([m, RationalSparseMatrix.identity(2)])
    assert b.rows == 5 and b.cols == 5
    assert b.rank() == m.rank() + 2


def test_shape_errors():
    m = RationalSparseMatrix.zero(2, 3)
    with pytest.raises(ShapeError):
        m.add(RationalSparseMatrix.zero(3, 2))
    with pytest.raises(ShapeError):
        m.multiply(RationalSparseMatrix.zero(2, 2))


def test_entries_are_stored_as_ints_or_proper_fractions():
    """An integral entry is stored as an int, any other as a Fraction; zeros
    are dropped and a float is refused."""
    m = RationalSparseMatrix(2, 3, {
        (0, 0): 3, (0, 1): 0, (0, 2): Fraction(6, 2), (1, 0): Fraction(1, 2),
        (1, 2): Fraction(0),
    })
    assert m.entries == {(0, 0): 3, (0, 2): 3, (1, 0): Fraction(1, 2)}
    assert [type(v) for v in m.entries.values()] == [int, int, Fraction]
    with pytest.raises(TypeError):
        RationalSparseMatrix(1, 1, {(0, 0): 0.5})
    with pytest.raises(ShapeError):
        RationalSparseMatrix(2, 3, {(2, 0): 1})


def test_rational_normalizes_and_refuses_other_types():
    assert rational(-7) == -7 and type(rational(-7)) is int
    assert rational(Fraction(-8, 4)) == -2 and type(rational(Fraction(-8, 4))) is int
    assert rational(Fraction(2, 3)) == Fraction(2, 3)
    for bad in (0.5, 2.0, True, "1/2", None):
        with pytest.raises(TypeError):
            rational(bad)


def test_scalars_are_admitted_like_stored_coefficients():
    """A scalar goes through rational(): an int or a Fraction is taken, and
    a float, bool or str is refused, never expanded into a binary fraction."""
    ident = RationalSparseMatrix.identity(2)
    assert ident.scale(Fraction(1, 10)).entries == {(0, 0): Fraction(1, 10), (1, 1): Fraction(1, 10)}
    assert ident.scale(3).entries == {(0, 0): 3, (1, 1): 3}
    assert vec_scale({0: Fraction(1, 2)}, 4) == {0: 2}
    assert ident.image_membership({0: 3, 1: Fraction(1, 2)}) == {0: 3, 1: Fraction(1, 2)}
    for bad in (0.1, 0.0, True, "1/2"):
        with pytest.raises(TypeError):
            ident.scale(bad)
        with pytest.raises(TypeError):
            vec_scale({0: 1}, bad)
        with pytest.raises(TypeError):
            ident.image_membership({0: bad})


def test_negative_indices_are_out_of_range():
    m = RationalSparseMatrix.identity(2)
    with pytest.raises(ShapeError):
        m.apply({-1: 1})
    with pytest.raises(ShapeError):
        m.image_membership({-1: 1})
    assert m.image_membership({1: 1}) == {1: 1}


def test_int_rows_clear_each_rows_denominators():
    m = RationalSparseMatrix(3, 3, {
        (0, 0): 2, (0, 2): -3,
        (1, 0): Fraction(1, 2), (1, 1): Fraction(-2, 3), (1, 2): 5,
    })
    assert m._int_rows() == [{0: 2, 2: -3}, {0: 3, 1: -4, 2: 30}, {}]
    assert m._int_rows(extra_col={1: Fraction(1, 4)}) == [
        {0: 2, 2: -3}, {0: 6, 1: -8, 2: 60, 3: 3}, {},
    ]


def test_span_tracker_basis_is_order_independent():
    rng = random.Random(29)
    vecs = []
    for _ in range(6):
        vecs.append({c: Fraction(rng.randint(-3, 3)) for c in range(5)})
    t1 = SpanTracker(vecs)
    t2 = SpanTracker(reversed(vecs))
    assert t1.basis() == t2.basis()


def test_span_tracker_express():
    t = SpanTracker()
    t.add({1: Fraction(1), 2: Fraction(1)})
    t.add({2: Fraction(2)})
    coords, rem = t.express({1: Fraction(3), 2: Fraction(5)})
    assert not rem
    assert set(coords) == {1, 2}  # keyed by pivot
    rebuilt = {}
    for p, c in coords.items():
        vec_axpy(rebuilt, c, t.rows[p])
    assert vec_eq(rebuilt, {1: Fraction(3), 2: Fraction(5)})
    _, rem2 = t.express({3: Fraction(1)})
    assert rem2


_vectors = st.dictionaries(
    st.integers(0, 5), st.fractions(-4, 4, max_denominator=3), max_size=6
)


@given(st.lists(_vectors, max_size=6), _vectors)
def test_span_tracker_reduce_is_a_full_reduction(added, vec):
    """One pass clears every pivot, and only span elements are removed."""
    t = SpanTracker()
    for v in added:
        t.add(v)
    red = t.reduce(vec)
    assert not set(red) & set(t.rows)
    removed = vec_clean(vec)
    vec_axpy(removed, -1, red)
    span = RationalSparseMatrix.from_columns(added, 6).rank()
    assert RationalSparseMatrix.from_columns(added + [removed], 6).rank() == span


def _rational_entries(vec):
    """Every entry follows rational(): an int, or a Fraction with
    denominator > 1; never a float or a bool."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in vec.values())


def _fraction_axpy(out, c, v):
    """out + c*v, every term a Fraction."""
    out = dict(out)
    for k, x in v.items():
        out[k] = out.get(k, Fraction(0)) + Fraction(c) * Fraction(x)
    return {k: x for k, x in out.items() if x}


def _fraction_echelon(vectors, ncols):
    """pivot -> row of the reduced echelon basis of the span, leading
    pivots, by Gauss-Jordan elimination in Fractions."""
    m = [[Fraction(v.get(c, 0)) for c in range(ncols)] for v in vectors]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return {min(k for k, x in enumerate(row) if x): {k: x for k, x in enumerate(row) if x}
            for row in m[:rank]}


# ints and Fractions, Fraction(n, 1) among them
_mixed = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
_mixed_vectors = st.dictionaries(st.integers(0, 5), _mixed, max_size=6)


@given(st.lists(st.tuples(_mixed, _mixed_vectors), max_size=4), _mixed, _mixed_vectors)
def test_vector_operations_return_rational_entries(terms, c, vec):
    """vec_axpy and vec_scale write ints where integral and Fractions only
    with denominator > 1, whatever mix of ints and Fractions goes in, and
    equal the same sums and products taken in Fractions."""
    acc, want = {}, {}
    for a, v in terms:
        vec_axpy(acc, a, v)
        want = _fraction_axpy(want, a, v)
        assert _rational_entries(acc) and acc == want
    for v in (acc, vec):
        scaled = vec_scale(v, c)
        assert _rational_entries(scaled)
        assert vec_clean(scaled) == _fraction_axpy({}, c, v)


@given(st.lists(_mixed_vectors, max_size=6), _mixed_vectors)
def test_span_tracker_returns_rational_entries(added, vec):
    """Rows, coordinates and remainders of a SpanTracker fed ints and
    Fractions hold rational() entries and equal the reduced echelon basis
    and the reduction computed in Fractions."""
    t = SpanTracker()
    for v in added:
        t.add(v)
    want = _fraction_echelon(added, 6)
    assert t.rows == want
    assert all(_rational_entries(row) for row in t.rows.values())
    coords, rem = t.express(vec)
    want_coords = {p: Fraction(vec[p]) for p in want if vec.get(p)}
    want_rem = _fraction_axpy({}, 1, vec)
    for p, c in want_coords.items():
        want_rem = _fraction_axpy(want_rem, -c, want[p])
    assert coords == want_coords and rem == want_rem
    assert _rational_entries(coords) and _rational_entries(rem)
    red = t.reduce(vec)
    assert red == want_rem and _rational_entries(red)


def test_split_sectors_matches_direct_slices():
    rng = random.Random(53)
    row_keys = [rng.choice("abc") for _ in range(9)]
    col_keys = [rng.choice("bcd") for _ in range(7)]
    rows, cols = sector_positions(row_keys), sector_positions(col_keys)
    assert list(rows) == ["a", "b", "c"] and list(cols) == ["b", "c", "d"]
    assert sorted(p for ps in rows.values() for p in ps) == list(range(9))
    full = random_matrix(rng, 9, 7, density=0.6)
    full = RationalSparseMatrix(9, 7, {
        (r, c): v for (r, c), v in full.entries.items() if row_keys[r] == col_keys[c]
    })
    blocks = split_sectors(full, rows, cols)
    assert list(blocks) == ["a", "b", "c", "d"]
    for key, block in blocks.items():
        rs, cs = rows.get(key, []), cols.get(key, [])
        assert (block.rows, block.cols) == (len(rs), len(cs))
        for i, r in enumerate(rs):
            for j, c in enumerate(cs):
                assert block.get(i, j) == full.get(r, c)
    assert sum(len(b.entries) for b in blocks.values()) == len(full.entries)

    r = next(r for r in range(9) if row_keys[r] != col_keys[0])
    crossing = RationalSparseMatrix(9, 7, {(r, 0): 1})
    with pytest.raises(ShapeError):
        split_sectors(crossing, rows, cols)


def test_elimination_preserves_the_row_space():
    """Exactness: the reduced rows span exactly the row space of the input,
    so nothing is lost or invented along the way."""
    rng = random.Random(41)
    from epslie import exactlin

    for _ in range(15):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        piv_cols, piv_rows = m.rref()
        original = SpanTracker()
        for row in m.row_dicts():
            original.add({c: Fraction(v) for c, v in row.items()})
        reduced = SpanTracker()
        for row in piv_rows:
            reduced.add({c: Fraction(v) for c, v in row.items()})
        assert original.basis() == reduced.basis()


def _plain_combine(target, tval, pivot_row, pval):
    """pval*target - tval*pivot_row with its content removed, entries in
    the order of target and then of pivot_row."""
    out = {c: pval * target.get(c, 0) - tval * pivot_row.get(c, 0)
           for c in list(target) + [c for c in pivot_row if c not in target]}
    return _primitive({c: v for c, v in out.items() if v})


def _primitive(row):
    """row divided by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return {c: v // g for c, v in row.items()}


def _scan_rref(rows):
    """Reference copy of the kernel before it was indexed: each step scans
    every live row for the pivot row and again for the rows to eliminate,
    recounts the columns of every row it changes, and scans every finished
    row for the pivot column."""
    work = [_primitive({c: v for c, v in r.items() if v}) for r in rows]
    work = [row for row in work if row]
    alive = [True] * len(work)
    col_count = {}
    for row in work:
        for c in row:
            col_count[c] = col_count.get(c, 0) + 1
    finished = []
    n_alive = len(work)
    while n_alive:
        best = min((len(row), i) for i, row in enumerate(work) if alive[i])[1]
        prow = work[best]
        alive[best] = False
        n_alive -= 1
        for c in prow:
            col_count[c] -= 1
        pcol = min(prow, key=lambda c: (col_count[c], abs(prow[c]).bit_length(), c))
        if prow[pcol] < 0:
            for c in prow:
                prow[c] = -prow[c]
        pval = prow[pcol]
        for i, row in enumerate(work):
            if not alive[i] or pcol not in row:
                continue
            for c in row:
                col_count[c] -= 1
            new = _plain_combine(row, row[pcol], prow, pval)
            work[i] = new
            for c in new:
                col_count[c] = col_count.get(c, 0) + 1
            if not new:
                alive[i] = False
                n_alive -= 1
        for k, (fc, frow) in enumerate(finished):
            if pcol in frow:
                finished[k] = (fc, _plain_combine(frow, frow[pcol], prow, pval))
        finished.append((pcol, prow))
    finished.sort(key=lambda t: t[0])
    return [t[0] for t in finished], [t[1] for t in finished]


def _assert_same_rref(rows):
    """The kernel returns the scan kernel's pivots, rows and entry order,
    and leaves its input as it was."""
    snapshot = [dict(r) for r in rows]
    got = _elim_py.rref(rows)
    assert rows == snapshot
    want = _scan_rref(snapshot)
    assert got == want
    assert [list(r) for r in got[1]] == [list(r) for r in want[1]]


@st.composite
def _int_rows(draw):
    """Sparse integer rows; often many more rows than columns."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-5, 5)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    return draw(st.lists(row, max_size=draw(st.sampled_from([6, 40]))))


_A, _B, _C = {0: 1, 1: -1, 2: 2}, {1: 1, 3: -1}, {0: 2, 3: 1, 4: 1}


def _sum(*terms):
    out = {}
    for k, row in terms:
        for c, v in row.items():
            out[c] = out.get(c, 0) + k * v
    return out


@settings(max_examples=200, deadline=None)
@given(_int_rows())
# Row 3 loses column 2 against the pivot row 0 and regains it from row 1.
@example([{1: 2, 2: -1}, {0: 1, 1: -1}, {1: 2, 3: 2}, {0: 2, 1: 2, 2: -1, 3: 1}])
# Row 0 finishes at column 2; clearing its column 0 against row 1 gives it
# column 1, where row 2 then pivots and must clear it.
@example([{0: 2, 2: -1}, {0: -2, 1: -2}, {1: -2, 2: 2}])
# The pivot entry of row 0 is negative, so the row is negated.
@example([{0: -1, 1: 2}, {0: 3, 1: 1, 2: 1}, {1: -4, 2: 2}])
# Above 2**64, with equal column counts, bit length decides: column 1
# (66 bits) before column 0 (71 bits).
@example([{0: 2**70 + 1, 1: -(2**65) - 3}, {0: 3, 1: 1, 2: 1}, {2: 2**64, 3: -1}])
# Tall: repeated and dependent rows of a rank-3 span, most of them dying.
@example([_A, _B, _A, _sum((2, _A)), _sum((1, _A), (1, _B)), _C, _sum((-1, _C)), _B,
          _sum((1, _A), (-1, _C)), _sum((3, _B)), _sum((2, _A), (-3, _B), (1, _C)), _C])
def test_indexed_rref_matches_the_scan_kernel(rows):
    """Same pivots, same rows and the same entry order as the scan kernel."""
    _assert_same_rref(rows)


@pytest.mark.parametrize("alg, mod, nmax, largest", [
    ("psl22", "adjoint", 3, (494, 192)), ("sl12", "trivial", 4, (52, 34)),
])
def test_indexed_rref_matches_the_scan_kernel_on_real_blocks(alg, mod, nmax, largest):
    """Every nonzero K-side block of delta(n), n <= nmax: up to hundreds of
    rows, so stale heap and column-list entries pile up as they never do
    on a few columns."""
    from epslie import catalog
    from epslie.cohomology import CochainComplex

    L = catalog.get_algebra(alg)
    cx = CochainComplex(L, catalog.get_module(L, alg, mod), nmax)
    shapes = []
    for n in range(nmax + 1):
        for block in cx._blocks(n, True).values():
            if block.entries:
                shapes.append((block.rows, block.cols))
                _assert_same_rref(block._int_rows())
    assert max(shapes) == largest


_int_row = st.dictionaries(st.integers(0, 7), st.integers(-6, 6).filter(bool), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_int_row, st.integers(-6, 6).filter(bool), _int_row,
       st.one_of(st.just(1), st.integers(1, 6)))
def test_combine_is_the_plain_formula(target, tval, pivot_row, pval):
    """pval*target - tval*pivot_row with its content removed, as a new dict,
    in particular for pval == 1, where target is copied, not scaled."""
    snapshot = dict(target), dict(pivot_row)
    want = {c: pval * target.get(c, 0) - tval * pivot_row.get(c, 0)
            for c in list(target) + [c for c in pivot_row if c not in target]}
    want = {c: v for c, v in want.items() if v}
    g = 0
    for v in want.values():
        g = gcd(g, v)
    got = _elim_py._combine(target, tval, pivot_row, pval)
    assert got == {c: v // g for c, v in want.items()}
    assert list(got) == list(want)
    assert (target, pivot_row) == snapshot and got is not target


@given(_int_rows())
def test_of_rref_returns_rational_entries(rows):
    """An rref row scaled to 1 at its pivot holds rational() entries, equal
    to the Fractions entry / pivot."""
    piv_cols, piv_rows = _elim_py.rref(rows)
    span = SpanTracker.of_rref(piv_cols, piv_rows)
    for p, row in zip(piv_cols, piv_rows):
        assert span.rows[p] == {c: Fraction(v, row[p]) for c, v in row.items()}
        assert _rational_entries(span.rows[p])


@st.composite
def _rational_matrix(draw):
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.dictionaries(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        st.fractions(-4, 4, max_denominator=3),
        max_size=nrows * ncols,
    )
    rhs = st.dictionaries(
        st.integers(0, nrows - 1), st.fractions(-4, 4, max_denominator=3)
    )
    return RationalSparseMatrix(nrows, ncols, vec_clean(draw(cells))), draw(rhs)


@settings(max_examples=60, deadline=None)
@given(_rational_matrix())
def test_rank_kernel_and_solve_agree_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    m, b = case
    ref = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.get(i, j)))
    assert m.rank() == ref.rank()
    # The pivots are chosen for sparsity, so the bases differ; the spans agree.
    ours = [[v.get(c, 0) for c in range(m.cols)] for v in m.kernel_basis()]
    theirs = [list(v) for v in ref.nullspace()]
    assert len(ours) == len(theirs)
    if ours:
        stacked = sympy.Matrix(ours + theirs).rank()
        assert sympy.Matrix(ours).rank() == stacked == len(ours)
    rhs = sympy.Matrix(m.rows, 1, lambda i, _: sympy.Rational(b.get(i, 0)))
    x = m.image_membership(b)
    if ref.row_join(rhs).rank() == ref.rank():
        assert x is not None and vec_eq(m.apply(x), b)
    else:
        assert x is None


@given(_rational_matrix())
def test_kernel_and_solution_vectors_hold_rational_entries(case):
    """kernel_basis, rows_kernel and image_membership return rational()
    entries: the kernel vectors lie in the kernel and the solution solves."""
    m, b = case
    kernel = m.kernel_basis()
    assert kernel == rows_kernel(m.row_dicts(), m.cols)
    for v in kernel:
        assert _rational_entries(v) and not m.apply(v)
    x = m.image_membership(b)
    assert x is None or (_rational_entries(x) and vec_eq(m.apply(x), b))


def test_rref_determinism():
    rng = random.Random(37)
    rows = [
        {c: rng.randint(-5, 5) for c in range(6) if rng.random() < 0.5}
        for _ in range(6)
    ]
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    from epslie import exactlin

    first = exactlin._elim.rref(rows)
    for _ in range(3):
        assert exactlin._elim.rref(rows) == first


def test_backend_name_exposed():
    assert BACKEND == "python"
