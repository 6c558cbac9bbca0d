"""Small exact linear algebra over the rationals.

Matrices are tuples of tuples of :class:`fractions.Fraction`; the matrix
helpers are dense and meant for the small numeric representations of monad
and relation checks.  :class:`Echelon` is the one row reduction: sparse, over
dict vectors, and shared by ideal membership (one per endpoint pair of an
``ncalg.MembershipSystem``, which ``reduce`` leaves unchanged), rank and the
cyclicity check.  Its entries stay exact: ``int`` where integral, else
``Fraction``, never ``float``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(r: int, c: int) -> Matrix:
    return tuple((Fraction(0),) * c for _ in range(r))


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch in matmul: {shape(a)} x {shape(b)}")
    bt = list(zip(*b)) if rb else [()] * cb
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(ca)), Fraction(0)) for j in range(cb))
        for i in range(ra)
    )


def max_abs(a: Matrix) -> Fraction:
    best = Fraction(0)
    for row in a:
        for x in row:
            if abs(x) > best:
                best = abs(x)
    return best


def exact(c) -> int | Fraction:
    """``c`` as an ``int`` when it is integral, else as a ``Fraction``;
    a float is refused, since it is not exact."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Echelon:
    """Incremental row echelon form over sparse vectors ``key -> coefficient``.

    Keys are mutually comparable; the pivot of a stored row is its least
    key, scaled to 1.  Each stored row carries the combination
    ``tag -> coefficient`` of inserted vectors that it equals.  Coefficients
    enter through :func:`exact`, so integral ones stay ``int``.
    """

    def __init__(self):
        self._rows: dict = {}  # pivot key -> (row, combination)

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, vec: Mapping) -> tuple[dict, dict]:
        """``(remainder, combination)`` with ``vec = remainder + sum(c * v_tag)``
        over the combination; the remainder vanishes at every pivot key.
        Both hold ``int`` or ``Fraction`` values."""
        # the int test inline spares a call per entry: rows are mostly int
        rem = {k: c if type(c) is int else exact(c) for k, c in vec.items() if c != 0}
        comb: dict = {}
        heap = [k for k in rem if k in self._rows]
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            f = rem.get(k)
            if f is None:
                continue
            row, row_comb = self._rows[k]
            # a row's keys all follow its pivot, so popped keys never return
            for key, x in row.items():
                if key not in rem:
                    rem[key] = -f * x
                    if key in self._rows:
                        heapq.heappush(heap, key)
                elif (new := rem[key] - f * x) != 0:
                    rem[key] = new
                else:
                    del rem[key]
            for tag, x in row_comb.items():
                comb[tag] = comb.get(tag, 0) + f * x
        return rem, {t: c for t, c in comb.items() if c != 0}

    def add(self, vec: Mapping, tag) -> bool:
        """Insert ``vec`` under ``tag``; True when it was independent of the
        rows already stored."""
        rem, comb = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        x = rem[pivot]
        # a unit is its own inverse; else the exact reciprocal, never 1 / x
        # (a float for an int x); exact() makes each stored value int if integral
        inv = x if x == 1 or x == -1 else Fraction(x.denominator, x.numerator)
        row_comb = {t: exact(-c * inv) for t, c in comb.items()}
        row_comb[tag] = exact(row_comb.get(tag, 0) + inv)
        self._rows[pivot] = ({k: exact(c * inv) for k, c in rem.items()}, row_comb)
        return True


def rank(a: Matrix) -> int:
    span = Echelon()
    for i, row in enumerate(a):
        span.add(dict(enumerate(row)), i)
    return len(span)


def is_nilpotent(a: Matrix) -> bool:
    n, m = shape(a)
    if n != m:
        return False
    power = a
    for _ in range(n):
        if max_abs(power) == 0:
            return True
        power = matmul(power, a)
    return max_abs(power) == 0
