"""Vacuum characters of W-algebras from shift matrices and pyramids.

A shift matrix with non-negative subdiagonal entries determines, for each
family index t, a right-aligned pyramid: m even rows then n odd rows whose
lengths are t plus the cumulative shifts.  Every ordered pair of rows
contributes strong generators whose conformal weights are read off from
column positions (weight = half the column difference plus one),
and the character is the usual product over generators: a geometric factor
per even generator, a (1 + q^w)-type factor per odd one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import ShiftMatrix
from .qseries import QSeries, QSeriesError, compare_factor_products, factor_product

EVEN, ODD = 0, 1
VARS = ("q",)  # every character is a series in q


class CharacterError(ValueError):
    pass


class NonPositiveWeight(CharacterError):
    pass


@dataclass(frozen=True)
class PyramidRow:
    parity: int  # EVEN or ODD
    left: int  # leftmost column index
    length: int

    @property
    def right(self) -> int:
        return self.left + self.length - 1


@dataclass(frozen=True)
class Pyramid:
    rows: tuple[PyramidRow, ...]

    def __post_init__(self):
        for r in self.rows:
            if r.length < 1:
                raise CharacterError("rows must have positive length")
            if r.parity not in (EVEN, ODD):
                raise CharacterError("row parity must be 0 (even) or 1 (odd)")


def single_row_pyramid(length: int) -> Pyramid:
    return Pyramid((PyramidRow(EVEN, 1, length),))


def pyramid_from_shift(shift, t: int) -> Pyramid:
    """Right-aligned pyramid for a shift matrix at family index t >= 0.

    Row i (1-indexed) has length t plus the cumulative subdiagonal shift
    below it; the first m rows are even, the last n odd.  Rows of length
    zero (possible only at t = 0) are dropped.

    Mixed even/odd pyramids whose blocks are not rectangles exercise an
    ordering convention between the blocks that only the rectangular case
    pins down, so they are flagged with a warning.
    """
    if t < 0:
        raise CharacterError("family index must be non-negative")
    if shift.m >= 1 and shift.n >= 1 and any(s != 0 for s in shift.sub):
        import warnings

        warnings.warn(
            "mixed even/odd pyramid with non-rectangular blocks: the "
            "inter-block ordering convention is untested",
            stacklevel=2,
        )
    total = shift.m + shift.n
    lengths = []
    for i in range(1, total + 1):
        lengths.append(t + sum(shift.sub[i - 1 :]))
    right = max(lengths, default=0)
    rows = []
    for i, ell in enumerate(lengths):
        if ell == 0:
            continue
        parity = EVEN if i < shift.m else ODD
        rows.append(PyramidRow(parity, right - ell + 1, ell))
    return Pyramid(tuple(rows))


WeightMultiset = dict[tuple[int, int], int]  # (conformal weight, parity) -> multiplicity


def generator_weights(p: Pyramid) -> WeightMultiset:
    """Row-pair rule: the ordered pair (i, j) contributes min(len_i, len_j)
    generators of weights right_j - left_i - u + 2 for u = 1..min, with
    parity the XOR of the row parities."""
    out: WeightMultiset = {}
    for ri in p.rows:
        for rj in p.rows:
            parity = ri.parity ^ rj.parity
            for u in range(1, min(ri.length, rj.length) + 1):
                w = rj.right - ri.left - u + 2
                if w < 1:
                    raise NonPositiveWeight(
                        f"rows at columns [{ri.left},{ri.right}] and "
                        f"[{rj.left},{rj.right}] produce weight {w}"
                    )
                key = (w, parity)
                out[key] = out.get(key, 0) + 1
    return out


Factors = dict[tuple[tuple[int, ...], int], int]  # ((exponent,), sign) -> power


def _starts_by_sign(pochhammers) -> dict[int, dict[int, int]]:
    """sign -> {start w: summed power} of pochhammers ``(w, power[, sign])``
    (sign 1 if omitted), with the signs in the order they first occur."""
    starts: dict[int, dict[int, int]] = {}
    for w, power, *sign in pochhammers:
        at = starts.setdefault(sign[0] if sign else 1, {})
        at[w] = at.get(w, 0) + power
    return starts


def _pochhammer_factors(order: int, pochhammers) -> Factors:
    """Factor multiset of a product of pochhammers ``(w, power[, sign])``,
    each standing for prod_{k>=w} (1 - sign*q^k)**power (sign 1 if omitted):
    per sign, a running sum over k from the least w of the powers starting at k.
    A negative order is refused first, as :func:`factor_product` refuses it."""
    if order < 0:
        raise QSeriesError("order must be non-negative")
    factors: Factors = {}
    for sign, at in _starts_by_sign(pochhammers).items():
        power = 0
        for k in range(min(at), order + 1):
            power += at.get(k, 0)
            factors[(k,), sign] = power
    return factors


def pochhammer_map(order: int, pochhammers) -> Factors:
    """The pochhammers ``(w, power[, sign])`` as a map ``{((w,), sign):
    power}``: starts above the order dropped, repeated starts added up and
    zero powers dropped, except at a start below 1, which stays so that
    :func:`compare_pochhammer_maps` refuses it.  A negative order is refused
    first, as :func:`_pochhammer_factors` refuses it.

    Per sign, the factor multiset's power at k is the running sum F(k) of
    the powers at starts <= k, and the power at start w >= 1 is F(w) -
    F(w - 1), so two maps whose starts are all >= 1 are equal exactly when
    their factor multisets are equal once power-0 factors are dropped."""
    if order < 0:
        raise QSeriesError("order must be non-negative")
    return {
        ((w,), sign): power
        for sign, at in _starts_by_sign(pochhammers).items()
        for w, power in at.items()
        if w <= order and (power or w < 1)
    }


def compare_pochhammer_maps(order: int, a: Factors, b: Factors):
    """What :func:`compare_factor_products` returns for the factor multisets
    of two pochhammer maps, with the same errors.  Equal maps whose starts
    are all >= 1 return None without building either multiset; any others
    are expanded by the running sum and compared, so a start below 1 is
    refused with :class:`ConeViolation`, side a first, at any power."""
    if a == b and all(w >= 1 for (w,), _ in a):
        return None
    a, b = (_pochhammer_factors(order, [(w, p, s) for ((w,), s), p in m.items()]) for m in (a, b))
    return compare_factor_products(VARS, order, a, b)


def character_pochhammers(ws: WeightMultiset) -> list:
    """The pochhammers of the vacuum character of a strong-generator weight
    multiset: each even generator of weight w contributes
    prod_{k>=0} (1 - q^(w+k))^-1, each odd one prod_{k>=0} (1 + q^(w+k))."""
    return [(w, -mult) if parity == EVEN else (w, mult, -1) for (w, parity), mult in ws.items()]


def character(ws: WeightMultiset, order: int) -> QSeries:
    """Vacuum character of a strong-generator weight multiset."""
    return factor_product(VARS, order, _pochhammer_factors(order, character_pochhammers(ws)))


def character_from_shift(shift, t: int, order: int) -> QSeries:
    return character(generator_weights(pyramid_from_shift(shift, t)), order)


# -- closed forms of the displayed character figures -------------------------


def _upto(n: int, *power_sign) -> list:
    """The pochhammers ``(w, *power_sign)`` for w = 1..n."""
    return [(w, *power_sign) for w in range(1, n + 1)]


# figure kind -> (shift matrix, family index at rank r, pochhammers at rank r);
# the figure's pyramid at rank r is pyramid_from_shift(shift, t(r))
FIGURES = {
    "glr-principal": (ShiftMatrix(1, 0, ()), lambda r: r, lambda r: _upto(r, -1)),
    "gl2-s0": (ShiftMatrix(2, 0, (0,)), lambda r: r, lambda r: _upto(r, -4)),
    # rows (r, r-1), offset 1
    "gl2-s1": (ShiftMatrix(2, 0, (1,)), lambda r: r - 1, lambda r: [(1, 1), (r, 2)] + _upto(r, -4)),
    # rows (r+1, r-1), offset 2
    "gl2-s2": (
        ShiftMatrix(2, 0, (2,)), lambda r: r - 1,
        lambda r: [(1, 1), (2, 1), (r, 2), (r + 1, -2)] + _upto(r, -4),
    ),
    "glrr": (ShiftMatrix(1, 1, (0,)), lambda r: r, lambda r: _upto(r, -2) + _upto(r, 2, -1)),
}


def figure_pochhammers(kind: str, r: int) -> list:
    """The pochhammers of the displayed vacuum-character product formula of
    a figure kind at rank r, with factors that do not depend on the inner
    product index read globally."""
    if kind not in FIGURES:
        raise CharacterError(f"unknown figure kind {kind!r}")
    return FIGURES[kind][2](r)


def figure_series(kind: str, r: int, order: int) -> QSeries:
    """The displayed vacuum-character product formula of a figure kind."""
    return factor_product(VARS, order, _pochhammer_factors(order, figure_pochhammers(kind, r)))


# -- stable large-rank limits -------------------------------------------------


# (m, n, sub) -> pochhammers through q^order of the closed-form large-rank
# limit of the characters of that shift data; the character at family index
# t equals it through q^order once t >= order + sum(sub)
LIMITS = {
    # prod_k (1 - q^k)^(-4k), times prod_{k>=w} (1 - q^k) for w = 1..sub
    (2, 0, (0,)): lambda order: _upto(order, -4),
    (2, 0, (1,)): lambda order: _upto(order, -4) + _upto(1, 1),
    (2, 0, (2,)): lambda order: _upto(order, -4) + _upto(2, 1),
    # prod_k (1 + q^k)^(2k) (1 - q^k)^(-2k)
    (1, 1, (0,)): lambda order: _upto(order, -2) + _upto(order, 2, -1),
}


def limit_pochhammers(m: int, n: int, sub: tuple[int, ...], order: int) -> list:
    """The pochhammers through q^order of the closed-form large-rank limit
    of the vacuum characters of the shift data (m, n, sub), from
    :data:`LIMITS`."""
    if (m, n, sub) not in LIMITS:
        raise CharacterError(f"no stored closed-form limit for m={m}, n={n}, sub={sub}")
    return LIMITS[m, n, sub](order)


def limit_series(m: int, n: int, sub: tuple[int, ...], order: int) -> QSeries:
    """Closed-form large-rank limit of the vacuum characters of the shift
    data (m, n, sub), from :data:`LIMITS`."""
    pochhammers = limit_pochhammers(m, n, sub, order)
    return factor_product(VARS, order, _pochhammer_factors(order, pochhammers))

