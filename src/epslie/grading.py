"""Grading groups, degrees, commutation factors and sign tables.

Degrees are plain integer tuples.  A degree is reduced (torsion coordinates
taken mod their orders) once, where it enters, by GradingGroup.degree, and by
the group's add/sub/neg/sum after that; every other module uses the stored
degrees as they are, as hashable dict keys.  A CommutationFactor
carries an integer bilinear form B, read mod 2, with
eps(a, b) = (-1)^(a^T B b); this covers the super, consistently Z-graded
and Z_2^n color cases, all of which take values in {+1, -1}.  The form is
checked to make eps a bicharacter, so eps ignores the representative of a
degree and neither eps nor sign_table reduces one.

eps is a bicharacter, so the sign between sums of basis degrees is the
product of the signs between the summands.  Algebras and modules therefore
keep a sign table between their basis elements (sign_table), and assembly
loops multiply table entries instead of adding degrees.
"""

from __future__ import annotations

import itertools
import operator

Degree = tuple  # integer tuple; length = free_rank + number of torsion coords


class GradingError(ValueError):
    pass


class Record:
    """An immutable value: equal (to a record of its own class only) and
    hashed by its fields, the names in __slots__, in order.  A constructor
    sets each field once through _set; assigning a field afterwards raises
    AttributeError."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class GradingGroup(Record):
    """Finitely generated abelian group Z^free_rank x Z_t1 x ... x Z_tk."""

    __slots__ = ("free_rank", "torsion_orders")

    def __init__(self, free_rank=0, torsion_orders=()):
        if free_rank < 0:
            raise GradingError("free_rank must be >= 0")
        self._set(free_rank=free_rank, torsion_orders=tuple(torsion_orders))
        if any(t < 2 for t in self.torsion_orders):
            raise GradingError("torsion orders must be >= 2")

    @property
    def ncoords(self):
        return self.free_rank + len(self.torsion_orders)

    def zero(self) -> Degree:
        return (0,) * self.ncoords

    def degree(self, coords) -> Degree:
        """A degree given to an algebra, a module or a construction, reduced;
        a coordinate that is not an int (a bool, a float) is rejected, never
        truncated."""
        if any(type(x) is not int for x in coords):
            raise GradingError("degree %r has a coordinate that is not an int" % (coords,))
        return self.reduce(coords)

    def reduce(self, coords) -> Degree:
        coords = tuple(coords)
        if len(coords) != self.ncoords:
            raise GradingError(
                "degree has %d coordinates, expected %d" % (len(coords), self.ncoords)
            )
        if not self.torsion_orders:
            return coords
        free = coords[: self.free_rank]
        return free + tuple(map(operator.mod, coords[self.free_rank :], self.torsion_orders))

    def add(self, a: Degree, b: Degree) -> Degree:
        return self.reduce(tuple(map(operator.add, a, b)))

    def neg(self, a: Degree) -> Degree:
        return self.reduce(tuple(-x for x in a))

    def sub(self, a: Degree, b: Degree) -> Degree:
        return self.reduce(tuple(map(operator.sub, a, b)))

    def sum(self, degs) -> Degree:
        total = [0] * self.ncoords
        for d in degs:
            for k, x in enumerate(d):
                total[k] += x
        return self.reduce(total)

    def elements(self):
        """All group elements; only for pure torsion groups."""
        if self.free_rank:
            raise GradingError("cannot enumerate a group with free part")
        return [
            self.reduce(c)
            for c in itertools.product(*[range(t) for t in self.torsion_orders])
        ]


def super_group() -> GradingGroup:
    return GradingGroup(0, (2,))


class CommutationFactor(Record):
    """eps(a, b) = (-1)^(a^T B b) with B symmetric mod 2 and even on every
    coordinate of odd torsion order, so that eps is a bicharacter.  The form
    is a tuple of row tuples of ints; None gives the zero form."""

    __slots__ = ("group", "form")

    def __init__(self, group, form=None):
        n = group.ncoords
        if form is None:
            form = ((0,) * n for _ in range(n))
        B = tuple(tuple(row) for row in form)
        self._set(group=group, form=B)
        if any(type(x) is not int for row in B for x in row):
            raise GradingError("form %r has an entry that is not an int" % (B,))
        if len(B) != n or any(len(row) != n for row in B):
            raise GradingError("form must be %d x %d" % (n, n))
        for i in range(n):
            for j in range(i):
                if (B[i][j] - B[j][i]) % 2:
                    raise GradingError("form must be symmetric mod 2")
        # eps(a + t e_i, b) = eps(a, b) for a coordinate of odd order t
        # needs every entry of row i even
        for i, t in enumerate(self.group.torsion_orders, self.group.free_rank):
            if t % 2 and any(x % 2 for x in B[i]):
                raise GradingError(
                    "form row %d must be even on a coordinate of odd order %d" % (i, t)
                )

    def eps(self, a: Degree, b: Degree) -> int:
        B = self.form
        if len(a) != len(B) or len(b) != len(B):
            raise GradingError("degrees %r and %r need %d coordinates" % (a, b, len(B)))
        total = 0
        for i, ai in enumerate(a):
            if ai:
                row = B[i]
                for j, bj in enumerate(b):
                    if bj:
                        total += ai * row[j] * bj
        return -1 if total % 2 else 1

    def sign_table(self, left, right):
        """[[eps(a, b) for b in right] for a in left].  Only parities count,
        so a^T B is formed once per distinct left degree a, as the mask of
        its odd coordinates, and each sign is the parity of that mask and the
        mask of b; left degrees with one mask share a row.  B has an even
        column on each coordinate of odd order, where parity is not reduced."""
        cols = list(zip(*self.form))
        a_mask = {a: _odd_mask(sum(map(operator.mul, a, col)) for col in cols)
                  for a in set(left)}
        b_masks = [_odd_mask(b) for b in right]
        rows = {m: [-1 if (m & bm).bit_count() & 1 else 1 for bm in b_masks]
                for m in set(a_mask.values())}
        return [list(rows[a_mask[a]]) for a in left]

    def parity(self, a: Degree) -> int:
        """Sign eps(a, a); -1 marks an odd degree."""
        return self.eps(a, a)

    def eps_n(self, perm, degs) -> int:
        """Sign attached to permuting homogeneous slots.

        perm is a 0-indexed tuple p; the value is the product of
        eps(degs[i], degs[j]) over pairs i < j whose order is inverted by
        the inverse permutation.  Satisfies
        eps_n(p∘q; degs) = eps_n(p; degs) * eps_n(q; degs∘p).
        """
        n = len(perm)
        if len(degs) != n:
            raise GradingError("permutation and degree list lengths differ")
        inv = [0] * n
        for pos, v in enumerate(perm):
            inv[v] = pos
        s = 1
        for i in range(n):
            for j in range(i + 1, n):
                if inv[i] > inv[j]:
                    s *= self.eps(degs[i], degs[j])
        return s


def _odd_mask(coords) -> int:
    """The bits j of the odd coordinates coords[j]."""
    return sum((x & 1) << j for j, x in enumerate(coords))


def super_factor() -> CommutationFactor:
    """The standard supersymmetry factor on Z_2."""
    return CommutationFactor(super_group(), ((1,),))


def super_z_factor() -> CommutationFactor:
    """Consistent Z-grading: eps(a, b) = (-1)^(ab) on Z."""
    return CommutationFactor(GradingGroup(1, ()), ((1,),))


def trivial_factor(free_rank=0, torsion=()) -> CommutationFactor:
    """eps identically +1 (plain Lie algebras, possibly with a weight grading)."""
    return CommutationFactor(GradingGroup(free_rank, tuple(torsion)))
