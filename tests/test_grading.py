import copy
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, strategies as st

from epslie import catalog
from epslie.algebra import EpsLieAlgebra
from epslie.gmodule import trivial
from epslie.grading import (
    CommutationFactor,
    GradingGroup,
    GradingError,
    super_factor,
    super_z_factor,
    trivial_factor,
)


def test_super_eps_values():
    f = super_factor()
    assert f.eps((1,), (1,)) == -1
    assert f.eps((0,), (1,)) == 1
    assert f.eps((1,), (0,)) == 1
    assert f.eps((0,), (0,)) == 1


def test_zero_degree_is_neutral():
    f = super_z_factor()
    for a in range(-3, 4):
        assert f.eps((0,), (a,)) == 1
        assert f.eps((a,), (0,)) == 1


def test_consistent_z_grading():
    f = super_z_factor()
    assert f.eps((2,), (3,)) == 1
    assert f.eps((1,), (3,)) == -1
    assert f.parity((3,)) == -1
    assert f.parity((2,)) == 1


def test_torsion_reduction():
    g = GradingGroup(0, (2, 2))
    assert g.reduce((3, -1)) == (1, 1)
    assert g.add((1, 1), (1, 0)) == (0, 1)
    assert g.neg((1, 0)) == (1, 0)


def test_form_must_be_symmetric_mod2():
    g = GradingGroup(0, (2, 2))
    with pytest.raises(GradingError):
        CommutationFactor(g, ((0, 1), (0, 0)))
    CommutationFactor(g, ((0, 1), (1, 0)))  # fine


def _raw_eps(form, a, b):
    total = sum(a[i] * form[i][j] * b[j] for i in range(len(a)) for j in range(len(b)))
    return -1 if total % 2 else 1


@pytest.mark.parametrize("torsion", [(3,), (2, 3), (3, 3), (4, 3)])
def test_accepted_forms_are_exactly_the_symmetric_bicharacters(torsion):
    """A form on a coordinate of odd order needs an even row; with
    torsion (3,) and form ((1,),), eps((1,)+(2,), (1,)) = 1 but
    eps((1,),(1,)) * eps((2,),(1,)) = -1."""
    g = GradingGroup(0, torsion)
    els = g.elements()
    n = len(torsion)
    for entries in itertools.product((0, 1), repeat=n * n):
        form = tuple(entries[i * n:(i + 1) * n] for i in range(n))
        good = all(
            _raw_eps(form, a, b) * _raw_eps(form, b, a) == 1
            and _raw_eps(form, g.add(a, b), c)
            == _raw_eps(form, a, c) * _raw_eps(form, b, c)
            and _raw_eps(form, c, g.add(a, b))
            == _raw_eps(form, c, a) * _raw_eps(form, c, b)
            for a in els
            for b in els
            for c in els
        )
        if good:
            CommutationFactor(g, form)
        else:
            with pytest.raises(GradingError):
                CommutationFactor(g, form)


@pytest.mark.parametrize(
    "factor",
    [
        super_factor(),
        CommutationFactor(GradingGroup(0, (2, 2)), ((1, 0), (0, 1))),
        CommutationFactor(GradingGroup(0, (2, 2)), ((1, 1), (1, 0))),
    ],
)
def test_symmetry_and_biadditivity_exhaustive(factor):
    els = factor.group.elements()
    for a in els:
        for b in els:
            assert factor.eps(a, b) * factor.eps(b, a) == 1
            for c in els:
                ab = factor.group.add(a, b)
                assert factor.eps(ab, c) == factor.eps(a, c) * factor.eps(b, c)


def test_biadditivity_on_free_part_sampled():
    f = super_z_factor()
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = ((rng.randint(-9, 9),) for _ in range(3))
        assert f.eps(a, b) * f.eps(b, a) == 1
        assert f.eps(f.group.add(a, b), c) == f.eps(a, c) * f.eps(b, c)


def test_eps_n_identity_and_swap():
    f = super_factor()
    assert f.eps_n((0, 1, 2), [(1,), (1,), (0,)]) == 1
    assert f.eps_n((1, 0), [(1,), (1,)]) == -1
    assert f.eps_n((1, 0), [(0,), (1,)]) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eps_n_multiplicative_exhaustive_super(n):
    f = super_factor()
    perms = list(itertools.permutations(range(n)))
    for degs in itertools.product([(0,), (1,)], repeat=n):
        degs = list(degs)
        for p in perms:
            for t in perms:
                comp = tuple(p[t[i]] for i in range(n))  # first p, then t
                lhs = f.eps_n(comp, degs)
                rhs = f.eps_n(p, degs) * f.eps_n(t, [degs[p[i]] for i in range(n)])
                assert lhs == rhs


def test_parity_trivial_factor():
    f = trivial_factor(2)
    assert f.parity((5, -3)) == 1
    assert f.eps((1, 0), (0, 1)) == 1


def test_degree_shape_errors():
    f = super_factor()
    with pytest.raises(GradingError):
        f.eps((1, 0), (1,))


def test_degrees_and_form_entries_must_be_ints():
    """A degree coordinate or form entry that is not an int is refused where
    a factor, algebra or module is built, never truncated."""
    g = GradingGroup(1)
    for bad in (1.7, 0.5, True):
        with pytest.raises(GradingError):
            CommutationFactor(g, ((bad,),))
    f = CommutationFactor(g, ((1,),))
    assert EpsLieAlgebra(f, ["a"], [[3]], {}).degrees == [(3,)]
    L = EpsLieAlgebra(f, ["a"], [(0,)], {})
    for bad in ((0.9,), (True,), (1.0,)):
        with pytest.raises(GradingError):
            EpsLieAlgebra(f, ["a"], [bad], {})
        with pytest.raises(GradingError):
            trivial(L, degrees=[bad])
    assert trivial(L, degrees=[(2,)]).degrees == [(2,)]


@st.composite
def _random_factor(draw):
    """A factor on free and torsion coordinates whose form is symmetric
    mod 2 but not always symmetric, with off-diagonal entries, and with
    even (not only zero) rows on the coordinates of odd order."""
    free = draw(st.integers(0, 2))
    torsion = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 5]), max_size=3 - free)))
    group = GradingGroup(free, torsion)
    n = group.ncoords
    odd = {free + k for k, t in enumerate(torsion) if t % 2}
    parity = {}
    for i in range(n):
        for j in range(i, n):
            parity[i, j] = parity[j, i] = 0 if {i, j} & odd else draw(st.integers(0, 1))
    form = tuple(tuple(parity[i, j] + 2 * draw(st.integers(-1, 1)) for j in range(n))
                 for i in range(n))
    return CommutationFactor(group, form)


@st.composite
def _factor_and_degrees(draw):
    """The factor of a catalog algebra or a random factor, and two lists of
    unreduced degrees, with repeats, so that equal reduced degrees come
    from different tuples."""
    catalog_factor = st.sampled_from(catalog.algebra_names()).map(
        lambda name: catalog.get_algebra(name).factor)
    factor = draw(st.one_of(catalog_factor, _random_factor()))
    pool = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * factor.group.ncoords),
                         min_size=1, max_size=4))
    side = st.lists(st.sampled_from(pool), max_size=6)
    return factor, draw(side), draw(side)


@given(_factor_and_degrees())
# the Z_2 x Z_2 color form, with no diagonal term
@example((CommutationFactor(GradingGroup(0, (2, 2)), ((0, 1), (1, 0))),
          [(1, 0), (0, 1), (1, 1), (3, -2), (0, 0)], [(0, 1), (1, 0), (1, 1), (2, 3)]))
def test_sign_table_is_eps_entry_by_entry(case):
    factor, left, right = case
    assert factor.sign_table(left, right) == [
        [factor.eps(a, b) for b in right] for a in left
    ]


def test_groups_and_factors_are_values():
    """Equal by value (and then of equal hash), never equal to a tuple or to
    a record of another class, immutable, and printed field by field."""
    g = GradingGroup(0, (2,))
    assert g == GradingGroup(torsion_orders=[2]) and hash(g) == hash(GradingGroup(0, (2,)))
    assert g != GradingGroup(1, (2,)) and g != (0, (2,)) and g != super_factor()
    f = super_factor()
    assert f == CommutationFactor(GradingGroup(0, (2,)), [[1]])
    assert hash(f) == hash(CommutationFactor(g, ((1,),)))
    assert f != CommutationFactor(g) and f != (g, ((1,),)) and f != g
    assert len({g, GradingGroup(0, (2,)), GradingGroup()}) == 2
    for record, field in ((g, "free_rank"), (g, "torsion_orders"), (f, "form"), (f, "group")):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        g.extra = 1
    assert repr(g) == "GradingGroup(free_rank=0, torsion_orders=(2,))"
    assert repr(f) == ("CommutationFactor(group=GradingGroup(free_rank=0, torsion_orders=(2,)), "
                       "form=((1,),))")
    assert repr(trivial_factor(1)) == (
        "CommutationFactor(group=GradingGroup(free_rank=1, torsion_orders=()), form=((0,),))")
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
