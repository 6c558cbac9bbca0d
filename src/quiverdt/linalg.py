"""Small exact linear algebra over the rationals.

Every product and elimination runs on one sparse form, :data:`Rows`: row
dicts ``column -> nonzero entry``, exact through :func:`exact` (``int`` where
integral, else ``Fraction``, never ``float``).  A dense :data:`Matrix` is
only an input, checked and converted once by ``ncalg.check_matrix``.
:class:`Echelon` is the one row reduction, shared by ideal membership (one
per endpoint pair of an ``ncalg.MembershipSystem``, which ``reduce`` leaves
unchanged), rank and the cyclicity check.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping

Matrix = tuple[tuple[Fraction, ...], ...]
Rows = tuple[dict[int, int | Fraction], ...]


def zeros(r: int, c: int) -> Matrix:
    return tuple((Fraction(0),) * c for _ in range(r))


def sparse(m: Matrix) -> Rows:
    """The dense ``m`` as :data:`Rows`: its zero entries dropped, the rest
    through :func:`exact`."""
    return tuple({j: exact(x) for j, x in enumerate(row) if x != 0} for row in m)


def matmul(a: Rows, b: Rows) -> Rows:
    """The product ``a @ b``: the columns of ``a`` index the rows of ``b``."""
    out = []
    for row in a:
        acc: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: exact(c) for j, c in acc.items() if c != 0})
    return tuple(out)


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


def rank(a: Rows) -> int:
    span = Echelon()
    for i, row in enumerate(a):
        span.add(row, i)
    return len(span)


def is_nilpotent(a: Rows) -> bool:
    """Whether ``a ** n`` vanishes, for ``a`` square of size n."""
    power = a
    for _ in range(len(a) - 1):
        power = matmul(power, a)
    return not any(power)
