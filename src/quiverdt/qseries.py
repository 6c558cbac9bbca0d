"""Exact truncated multivariate power series with integer coefficients.

A :class:`QSeries` stores the coefficients of a series truncated by a
grading vector: a monomial ``prod(v_i ** e_i)`` has grade ``sum(w_i * e_i)``
and is kept only when ``0 <= grade <= order``.  Individual exponents may be
negative (Laurent directions such as ``x**-1`` in MacMahon factors) as long
as the grade stays non-negative, which is what makes truncated products
well defined.

Half-integer exponents are handled by the caller through a doubled
variable (``q = qh**2``); :func:`format_terms` knows how to print it back.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping


class QSeriesError(ValueError):
    pass


class NonUnitConstantTerm(QSeriesError):
    """Inversion requested for a series whose constant term is not +-1."""


class ConeViolation(QSeriesError):
    """A monomial or substitution leaves the truncation cone."""


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

    __slots__ = ("vars", "order", "grading", "coeffs")

    def __init__(
        self,
        vars: tuple[str, ...],
        order: int,
        coeffs: Mapping[tuple[int, ...], int] | None = None,
        grading: tuple[int, ...] | None = None,
    ):
        self.vars = tuple(vars)
        if order < 0:
            raise QSeriesError("order must be non-negative")
        self.order = order
        self.grading = tuple(grading) if grading is not None else (1,) * len(self.vars)
        if len(self.grading) != len(self.vars):
            raise QSeriesError("grading length must match variable count")
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (coeffs or {}).items():
            if c == 0:
                continue
            if not isinstance(c, int):
                raise QSeriesError(f"coefficient {c!r} is not an integer")
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise QSeriesError("exponent vector length mismatch")
            g = self.grade(exps)
            if g < 0:
                raise ConeViolation(f"monomial {exps} has negative grade {g}")
            if g <= order:
                clean[exps] = c
        self.coeffs = clean

    # -- basics ---------------------------------------------------------

    def grade(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, self.grading, exps))

    def _like(self, coeffs: Mapping[tuple[int, ...], int]) -> "QSeries":
        return QSeries(self.vars, self.order, coeffs, self.grading)

    def _check_compatible(self, other: "QSeries") -> None:
        if self.vars != other.vars or self.grading != other.grading:
            raise QSeriesError("series have incompatible variables or grading")

    def coefficient(self, exps: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def constant_term(self) -> int:
        return self.coeffs.get((0,) * len(self.vars), 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.grading == other.grading
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
        return QSeries(self.vars, min(self.order, other.order), out, self.grading)

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
            by_grade.setdefault(other.grade(e), []).append((e, c))
        for e1, c1 in self.coeffs.items():
            g1 = self.grade(e1)
            for g2, terms in by_grade.items():
                if g1 + g2 > order:
                    continue
                for e2, c2 in terms:
                    e = _add_exps(e1, e2)
                    out[e] = out.get(e, 0) + c1 * c2
        return QSeries(self.vars, order, out, self.grading)

    def inverse(self) -> "QSeries":
        """Multiplicative inverse, grade by grade; needs unit constant term
        and no non-constant monomials of grade zero (otherwise the grade
        filtration cannot drive the recursion)."""
        c0 = self.constant_term()
        if c0 not in (1, -1):
            raise NonUnitConstantTerm(f"constant term {c0} is not a unit in Z")
        zero = (0,) * len(self.vars)
        dense = len(zero) == 1
        bound = 0 if dense else self.order * max(abs(x) for e in self.coeffs for x in e)
        rhs = [0] * (self.order + 1) if dense else {}  # grade -> coeff, or {packed exps: coeff}
        for e, c in self.coeffs.items():
            g = self.grade(e)
            if g == 0 and e != zero:
                raise ConeViolation(
                    f"cannot invert: non-constant monomial {e} has grade 0; "
                    "use a grading vector that weights it positively"
                )
            if dense:
                rhs[g] = c
            else:
                rhs.setdefault(g, {})[_pack(e, bound)] = c
        # a * inv = 1: inv_e = -c0 * sum_f a_f * inv_(e-f) over grade(f) > 0
        coeffs = _grade_recurrence(self.grading, self.order, bound, c0, rhs, lambda g, c: -c0 * c)
        return self._like(coeffs)

    def __pow__(self, k: int) -> "QSeries":
        if k < 0:
            return self.inverse() ** (-k)
        result = QSeries.one(self.vars, self.order, self.grading)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: tuple[str, ...], order: int, grading=None) -> "QSeries":
        return QSeries(vars, order, {}, grading)

    @staticmethod
    def one(vars: tuple[str, ...], order: int, grading=None) -> "QSeries":
        return QSeries(vars, order, {(0,) * len(vars): 1}, grading)

    @staticmethod
    def monomial(vars, order, exps, coeff=1, grading=None) -> "QSeries":
        return QSeries(vars, order, {tuple(exps): coeff}, grading)

    # -- io ---------------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = [
            {"exp": list(e), "c": str(c)}
            for e, c in sorted(self.coeffs.items(), key=lambda ec: (self.grade(ec[0]), ec[0]))
        ]
        return {
            "vars": list(self.vars),
            "order": self.order,
            "grading": list(self.grading),
            "coeffs": coeffs,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        n = len(self.coeffs)
        return f"QSeries(vars={self.vars}, order={self.order}, {n} terms)"


# -- factor products -----------------------------------------------------


def _pack(exps, bound: int) -> int:
    """``exps`` as signed base-``(2*bound + 1)`` digits, additive within ``+-bound``."""
    return sum(e * (2 * bound + 1) ** i for i, e in enumerate(exps))


def _grade_recurrence(grading, order, bound, c0, rhs, finish) -> dict[tuple[int, ...], int]:
    """Coefficients ``a`` of a series under ``grading`` with ``a_0 = c0`` that
    obey, grade by grade, ``a_e = finish(g, sum_f rhs_f * a_(e-f))`` for every
    e of grade g >= 1, the sum running over the terms f of ``rhs`` of positive grade.

    In one variable ``rhs`` is a list indexed by grade 0..order; under the
    weight w, grade g holds at most the exponent g / w, so the recurrence is
    a dense convolution over the multiples of |w|, one C-level dot product
    per grade (w < 0 gives exponents <= 0).  In more variables ``rhs`` maps
    grade -> {packed exps: coeff}, all exponents within +-bound."""
    n = len(grading)
    if n == 1:
        step = abs(grading[0]) or order + 1  # weight 0: only the constant term
        b = rhs[step::step]  # b[i]: grade (i + 1) * step
        a = [c0]
        for g in range(step, order + 1, step):
            a.append(finish(g, sum(map(mul, b, reversed(a)))))
        return {(i if grading[0] > 0 else -i,): c for i, c in enumerate(a) if c}  # c0 != 0 stays
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
    base, offset = 2 * bound + 1, _pack((bound,) * n, bound)  # offset: every digit +bound
    unpack = lambda p: tuple((p + offset) // base**i % base - bound for i in range(n))  # noqa: E731
    return {unpack(p): c for level in levels for p, c in level}


def factor_product(vars, order, factors: Mapping, grading=None) -> QSeries:
    """``prod (1 - sign*m)**power`` over a multiset ``{(exps, sign): power}``
    of monomials ``m``, expanded in one pass.

    The grade-weighted Euler operator ``D = sum w_i x_i d/dx_i`` multiplies
    a monomial of grade g by g, so ``D F = F * D log F`` with
    ``D log F = -sum power * g(m) * sign**k * m**k`` over the factors and
    k >= 1.  Its grade-g part gives ``g * a_e = sum_f b_f * a_(e-f)``, so
    each coefficient follows from lower grades by one exact integer
    division.  A grade-0 factor is invisible to D; with a non-negative
    power it is a polynomial, expanded directly and multiplied in last.

    In one variable ``b`` is a dense list indexed by grade.  In more,
    exponent vectors are packed as signed base-``(2*bound + 1)`` digits, with
    ``bound = order * max|exps_i|``: a grade <= order sums <= order factor ``m``.
    """
    one = QSeries.one(vars, order, grading)
    zero = (0,) * len(one.vars)
    flat = one  # product of the grade-0 factors
    dense = len(zero) == 1
    bound = 0 if dense else order * max((abs(x) for exps, _ in factors for x in exps), default=0)
    log_deriv = [0] * (order + 1) if dense else {}  # grade -> b, or {packed exps: b}
    for (exps, sign), power in factors.items():
        exps = tuple(exps)
        g = one.grade(exps)
        if g < 0 or (g == 0 and power < 0):
            raise ConeViolation(
                f"(1 - m)**{power} for m = {exps} of grade {g} leaves the truncation cone; "
                "choose a grading that weights m positively"
            )
        if len(exps) != len(zero):
            raise QSeriesError("exponent vector length mismatch")
        if g == 0:
            flat = flat * (one - QSeries.monomial(vars, order, exps, sign, grading)) ** power
            continue
        b = -power * g
        if dense:  # grade k * g gains b * sign**k
            at = log_deriv[g::g]
            at = [c + b for c in at] if sign == 1 else [c + b * sign**k for k, c in enumerate(at, 1)]
            log_deriv[g::g] = at
            continue
        packed = _pack(exps, bound)  # m**k packs to k * packed
        for k in range(1, order // g + 1):
            level = log_deriv.setdefault(k * g, {})
            level[k * packed] = level.get(k * packed, 0) + b * sign**k
    coeffs = _grade_recurrence(one.grading, order, bound, 1, log_deriv, lambda g, c: c // g)
    series = QSeries(vars, order, coeffs, grading)
    return series if flat is one else flat * series


def binomial_factor(vars, order, exps, sign=1, power=1, grading=None) -> QSeries:
    """``(1 - sign*m)**power`` for a single monomial ``m`` and any integer
    power."""
    return factor_product(vars, order, {(tuple(exps), sign): power}, grading)


def macmahon(order: int, power: int = 1) -> QSeries:
    """MacMahon's ``prod_{k>=1} (1 - q**k)**(-k*power)`` in the one variable q.

    Laurent or multivariate MacMahon products such as ``M(x**-1, q)`` are
    :func:`factor_product` multisets under a grading that weights every
    factor positively, e.g. (1, 2) on (x, q).
    """
    return factor_product(("q",), order, {((k,), 1): -k * power for k in range(1, order + 1)})


def euler_factor(order: int, power: int = 1) -> QSeries:
    """``prod_{k>=1} (1 - q**k)**power`` in q (so ``power=-1`` is the partition series)."""
    return factor_product(("q",), order, {((k,), 1): power for k in range(1, order + 1)})


# -- substitution --------------------------------------------------------


class Substitution:
    """Variable -> signed monomial map between series rings, into target
    variables graded by total degree.

    The image of each source variable must have target grade at least the
    source weight; a source variable that ever occurs with a negative
    exponent must map to a monomial of grade exactly its weight.  Together
    these guarantee that the image of any source monomial has grade at
    least the source grade, so truncation at the source order stays sound.
    """

    def __init__(self, source_vars, target_vars, images: Mapping[str, Mono]):
        self.source_vars = tuple(source_vars)
        self.target_vars = tuple(target_vars)
        self.images = dict(images)
        for v in self.source_vars:
            if v not in self.images:
                raise QSeriesError(f"no image for variable {v!r}")

    def image_grade(self, var: str) -> int:
        return sum(self.images[var].exps)


def substitute(sub: Substitution, a: QSeries) -> QSeries:
    if a.vars != sub.source_vars:
        raise QSeriesError("substitution source variables do not match series")
    grades = {v: sub.image_grade(v) for v in a.vars}
    for i, (v, w) in enumerate(zip(a.vars, a.grading)):
        if grades[v] < w:
            raise ConeViolation(f"image of {v!r} has grade {grades[v]} < weight {w}")
        if grades[v] > w and any(e[i] < 0 for e in a.coeffs):
            raise ConeViolation(
                f"{v!r} occurs with negative exponents but maps to grade {grades[v]} > {w}"
            )
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
        g = sum(key)
        if g < 0:
            raise ConeViolation(f"image of {exps} has negative grade")
        if g <= a.order:
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


def format_terms(a: QSeries, half_vars: Iterable[str] = ()) -> str:
    """Aligned text table of coefficients, sorted by grade then lex.

    Variables named in ``half_vars`` are printed at half their stored
    exponent (the doubled-variable encoding of half-integer powers).
    """
    half = set(half_vars)
    lines = []
    for e in sorted(a.coeffs, key=lambda e: (a.grade(e), e)):
        parts = []
        for v, k in zip(a.vars, e):
            if k == 0:
                continue
            if v in half:
                shown = Fraction(k, 2)
                parts.append(f"{v}^{shown}" if shown != 1 else v)
            else:
                parts.append(f"{v}^{k}" if k != 1 else v)
        mono = "*".join(parts) if parts else "1"
        lines.append(f"{mono:>24}  {a.coeffs[e]}")
    return "\n".join(lines) if lines else "(zero series)"


def coefficients_in_single_var(a: QSeries) -> list[int]:
    """Dense coefficient list [c_0, ..., c_order] for a one-variable series."""
    if len(a.vars) != 1:
        raise QSeriesError("series is not univariate")
    out = [0] * (a.order + 1)
    for (e,), c in a.coeffs.items():
        if 0 <= e <= a.order:
            out[e] = c
    return out
