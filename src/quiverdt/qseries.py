"""Exact truncated multivariate power series with integer coefficients.

A :class:`QSeries` stores the coefficients of a series in non-negative
exponents, truncated by total degree: a monomial ``prod(v_i ** e_i)`` has
grade ``sum(e_i)`` and is kept only when ``grade <= order``.

Half-integer exponents are handled by the caller through a doubled
variable (``q = qh**2``); :func:`format_terms` prints ``qh`` at half its
stored exponent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, mul
from typing import Mapping


class QSeriesError(ValueError):
    pass


class NonUnitConstantTerm(QSeriesError):
    """Inversion requested for a series whose constant term is not +-1."""


class ConeViolation(QSeriesError):
    """A negative exponent, or a factor or substitution image of degree 0."""


class Mono:
    """A signed monomial ``sign * prod(vars[i] ** exps[i])``."""

    __slots__ = ("sign", "exps")

    def __init__(self, sign: int, exps: tuple[int, ...]):
        if sign not in (1, -1):
            raise QSeriesError("monomial sign must be +1 or -1")
        self.sign = sign
        self.exps = tuple(exps)

    def __repr__(self) -> str:
        return f"Mono({self.sign}, {self.exps})"


def _add_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


class QSeries:
    """Truncated multivariate integer power series."""

    __slots__ = ("vars", "order", "coeffs")

    def __init__(
        self,
        vars: tuple[str, ...],
        order: int,
        coeffs: Mapping[tuple[int, ...], int] | None = None,
    ):
        self.vars = tuple(vars)
        if order < 0:
            raise QSeriesError("order must be non-negative")
        self.order = order
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (coeffs or {}).items():
            if c == 0:
                continue
            if not isinstance(c, int):
                raise QSeriesError(f"coefficient {c!r} is not an integer")
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise QSeriesError("exponent vector length mismatch")
            if min(exps, default=0) < 0:
                raise ConeViolation(f"monomial {exps} has a negative exponent")
            if sum(exps) <= order:
                clean[exps] = c
        self.coeffs = clean

    # -- basics ---------------------------------------------------------

    def grade(self, exps: tuple[int, ...]) -> int:
        return sum(exps)

    def _like(self, coeffs: Mapping[tuple[int, ...], int]) -> "QSeries":
        return QSeries(self.vars, self.order, coeffs)

    def _check_compatible(self, other: "QSeries") -> None:
        if self.vars != other.vars:
            raise QSeriesError("series have incompatible variables")

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self.coeffs.get((0,) * len(self.vars), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        raise TypeError("QSeries is not hashable")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QSeries(self.vars, min(self.order, other.order), out)

    def __neg__(self) -> "QSeries":
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check_compatible(other)
        order = min(self.order, other.order)
        out: dict[tuple[int, ...], int] = {}
        # bucket right factor by grade so products prune early
        by_grade: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for e, c in other.coeffs.items():
            by_grade.setdefault(sum(e), []).append((e, c))
        for e1, c1 in self.coeffs.items():
            g1 = sum(e1)
            for g2, terms in by_grade.items():
                if g1 + g2 > order:
                    continue
                for e2, c2 in terms:
                    e = _add_exps(e1, e2)
                    out[e] = out.get(e, 0) + c1 * c2
        return QSeries(self.vars, order, out)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse, grade by grade; needs unit constant term."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {c0} is not a unit in Z")
        n = len(self.vars)
        rhs = [0] * (self.order + 1) if n == 1 else {}  # grade -> coeff, or {packed exps: coeff}
        for e, c in self.coeffs.items():
            if n == 1:
                rhs[e[0]] = c
            else:
                rhs.setdefault(sum(e), {})[_pack(e, self.order)] = c
        # a * inv = 1: inv_e = -c0 * sum_f a_f * inv_(e-f) over grade(f) > 0
        coeffs = _grade_recurrence(n, self.order, c0, rhs, lambda g, c: -c0 * c)
        return self._like(coeffs)

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries.one(self.vars, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: tuple[str, ...], order: int) -> "QSeries":
        return QSeries(vars, order, {})

    @staticmethod
    def one(vars: tuple[str, ...], order: int) -> "QSeries":
        return QSeries(vars, order, {(0,) * len(vars): 1})

    @staticmethod
    def monomial(vars, order, exps, coeff=1) -> "QSeries":
        return QSeries(vars, order, {tuple(exps): coeff})

    # -- io ---------------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = [
            {"exp": list(e), "c": str(c)}
            for e, c in sorted(self.coeffs.items(), key=lambda ec: (self.grade(ec[0]), ec[0]))
        ]
        return {
            "vars": list(self.vars),
            "order": self.order,
            "grading": [1] * len(self.vars),
            "coeffs": coeffs,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"QSeries(vars={self.vars}, order={self.order}, {n} terms)"


# -- factor products -----------------------------------------------------


def _pack(exps, order: int) -> int:
    """``exps`` as base-``(order + 1)`` digits.  A monomial of degree <= order
    has every exponent <= order, and a sum of degree <= order never carries."""
    return sum(e * (order + 1) ** i for i, e in enumerate(exps))


def _unpack(packed: int, order: int, n: int) -> tuple[int, ...]:
    """The n exponents that :func:`_pack` packed under ``order``."""
    base = order + 1
    return tuple(packed // base**i % base for i in range(n))


def _grade_recurrence(n, order, c0, rhs, finish) -> dict[tuple[int, ...], int]:
    """Coefficients ``a`` of a series in n variables with ``a_0 = c0`` that
    obey, grade by grade, ``a_e = finish(g, sum_f rhs_f * a_(e-f))`` for every
    e of grade g >= 1, the sum running over the terms f of ``rhs`` of positive grade.

    In one variable grade g is the exponent g and ``rhs`` is a list indexed by
    grade 0..order, so the recurrence is a dense convolution, one C-level dot
    product per grade.  In more variables ``rhs`` maps grade -> {packed exps:
    coeff}."""
    if n == 1:
        b = rhs[1:]  # b[i]: grade i + 1
        a = [c0]
        for g in range(1, order + 1):
            a.append(finish(g, sum(map(mul, b, reversed(a)))))
        return {(i,): c for i, c in enumerate(a) if c}  # c0 != 0 stays
    terms = [list(rhs.get(h, {}).items()) for h in range(1, order + 1)]
    levels = [[(0, c0)]]  # grade -> [(packed exps, coeff)]
    for g in range(1, order + 1):
        level: dict[int, int] = {}
        for fs, below in zip(terms, reversed(levels)):  # grades h and g - h
            for f, b in fs:
                for e, a in below:
                    key = f + e
                    level[key] = level.get(key, 0) + b * a
        levels.append([(e, finish(g, c)) for e, c in level.items() if c])
    return {_unpack(p, order, n): c for level in levels for p, c in level}


def _check_factors(n: int, factors: Mapping) -> None:
    """Refuses, at the first bad factor of a multiset ``{(exps, sign): power}``
    in n variables and at any power, 0 included, an exponent vector of the
    wrong length (:class:`QSeriesError`) or a monomial outside the truncation
    cone (:class:`ConeViolation`)."""
    for (exps, _), power in factors.items():
        if len(exps) != n:
            raise QSeriesError("exponent vector length mismatch")
        g = sum(exps)
        if g < 1 or min(exps) < 0:
            raise ConeViolation(
                f"(1 - m)**{power} for m = {exps} leaves the truncation cone; "
                "m needs non-negative exponents and degree >= 1"
            )


def factor_product(vars, order, factors: Mapping) -> QSeries:
    """``prod (1 - sign*m)**power`` over a multiset ``{(exps, sign): power}``
    of monomials ``m`` of degree >= 1, expanded in one pass.

    The Euler operator ``D = sum x_i d/dx_i`` multiplies a monomial of
    degree g by g, so ``D F = F * D log F`` with ``D log F = -sum power *
    g(m) * sign**k * m**k`` over the factors and k >= 1.  Its degree-g part
    gives ``g * a_e = sum_f b_f * a_(e-f)``, so each coefficient follows
    from lower degrees by one exact integer division.

    In one variable ``b`` is a dense list indexed by degree.  In more,
    exponent vectors are packed as base-``(order + 1)`` digits (:func:`_pack`).
    """
    one = QSeries.one(vars, order)  # refuses a negative order before it is a base
    n = len(one.vars)
    log_deriv = [0] * (order + 1) if n == 1 else {}  # degree -> b, or {packed exps: b}
    _check_factors(n, factors)
    for (exps, sign), power in factors.items():
        g = sum(exps)
        b = -power * g
        if n == 1:  # degree k * g gains b * sign**k
            at = log_deriv[g::g]
            at = [c + b for c in at] if sign == 1 else [c + b * sign**k for k, c in enumerate(at, 1)]
            log_deriv[g::g] = at
            continue
        packed = _pack(exps, order)  # m**k packs to k * packed
        for k in range(1, order // g + 1):
            level = log_deriv.setdefault(k * g, {})
            level[k * packed] = level.get(k * packed, 0) + b * sign**k
    return QSeries(vars, order, _grade_recurrence(n, order, 1, log_deriv, lambda g, c: c // g))


def binomial_factor(vars, order, exps, sign=1, power=1) -> QSeries:
    """``(1 - sign*m)**power`` for a single monomial ``m`` and any integer
    power."""
    return factor_product(vars, order, {(tuple(exps), sign): power})


def macmahon(order: int, power: int = 1) -> QSeries:
    """MacMahon's ``prod_{k>=1} (1 - q**k)**(-k*power)`` in the one variable q;
    a MacMahon product in more variables is a :func:`factor_product` multiset."""
    return factor_product(("q",), order, {((k,), 1): -k * power for k in range(1, order + 1)})


def euler_factor(order: int, power: int = 1) -> QSeries:
    """``prod_{k>=1} (1 - q**k)**power`` in q (so ``power=-1`` is the partition series)."""
    return factor_product(("q",), order, {((k,), 1): power for k in range(1, order + 1)})


# -- substitution --------------------------------------------------------


class Substitution:
    """Variable -> signed monomial map between series rings.

    Each image must have one exponent per target variable, non-negative
    exponents and degree at least 1, so the image of a monomial has at
    least its degree and truncation at the source order stays sound.
    """

    def __init__(self, source_vars, target_vars, images: Mapping[str, Mono]):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.images = dict(images)
        for v in self.source_vars:
            if v not in self.images:
                raise QSeriesError(f"no image for variable {v!r}")
            exps = self.images[v].exps
            if len(exps) != len(self.target_vars):
                raise QSeriesError(
                    f"image {exps} of {v!r} needs one exponent for each of the "
                    f"{len(self.target_vars)} target variables"
                )
            if sum(exps) < 1 or min(exps, default=0) < 0:
                raise ConeViolation(
                    f"image {exps} of {v!r} needs non-negative exponents and degree >= 1"
                )


def substitute(sub: Substitution, a: QSeries) -> QSeries:
    if a.vars != sub.source_vars:
        raise QSeriesError("substitution source variables do not match series")
    nt = len(sub.target_vars)
    out: dict[tuple[int, ...], int] = {}
    for exps, c in a.coeffs.items():
        image = [0] * nt
        sign = 1
        for e, v in zip(exps, a.vars):
            if e == 0:
                continue
            m = sub.images[v]
            if m.sign < 0 and e % 2:
                sign = -sign
            for i, me in enumerate(m.exps):
                image[i] += e * me
        key = tuple(image)
        if sum(key) <= a.order:
            out[key] = out.get(key, 0) + sign * c
    return QSeries(sub.target_vars, a.order, out)


# -- comparison and printing ---------------------------------------------


def compare(a: QSeries, b: QSeries):
    """Coefficientwise comparison up to the lower of the two orders; returns
    None on equality, else the first mismatch ``(exps, coeff_a, coeff_b)``
    in (grade, lex) order."""
    if a.vars != b.vars:
        raise QSeriesError("cannot compare series in different variables")
    order = min(a.order, b.order)
    keys = set(a.coeffs) | set(b.coeffs)
    for _, e in sorted((g, e) for e in keys if (g := a.grade(e)) <= order):
        ca, cb = a.coeffs.get(e, 0), b.coeffs.get(e, 0)
        if ca != cb:
            return (e, ca, cb)
    return None


def compare_factor_products(vars, order, a: Mapping, b: Mapping):
    """``compare(factor_product(vars, order, a), factor_product(vars, order,
    b))``, with the same errors, side a checked before side b.  Two
    multisets that are equal once their power-0 factors are dropped give
    the same product, so they return None unexpanded; any others, even
    ones whose products agree, are expanded and compared."""
    n = len(QSeries.one(vars, order).vars)  # refuses a negative order first
    _check_factors(n, a)
    if a == b:  # b passes the checks a passed
        return None
    _check_factors(n, b)
    if {key: p for key, p in a.items() if p} == {key: p for key, p in b.items() if p}:
        return None
    return compare(factor_product(vars, order, a), factor_product(vars, order, b))


def format_terms(a: QSeries) -> str:
    """Aligned text table of coefficients, sorted by grade then lex.

    The doubled variable ``qh`` is printed at half its stored exponent.
    """
    lines = []
    for e in sorted(a.coeffs, key=lambda e: (a.grade(e), e)):
        parts = []
        for v, k in zip(a.vars, e):
            shown = Fraction(k, 2) if v == "qh" else k
            if shown:
                parts.append(f"{v}^{shown}" if shown != 1 else v)
        mono = "*".join(parts) if parts else "1"
        lines.append(f"{mono:>24}  {a.coeffs[e]}")
    return "\n".join(lines) if lines else "(zero series)"


def coefficients_in_single_var(a: QSeries) -> list[int]:
    """Dense coefficient list [c_0, ..., c_order] for a one-variable series."""
    if len(a.vars) != 1:
        raise QSeriesError("series is not univariate")
    out = [0] * (a.order + 1)
    for (e,), c in a.coeffs.items():
        out[e] = c
    return out
