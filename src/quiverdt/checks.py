"""Named cross-checks: enumerators against closed-form products, character
figures, limits, and monad certification.  These are the identities behind
the ``compare`` CLI command; each is one :data:`COMPARE_TARGETS` row that
yields its cases, and :func:`run_check` times and compares them.

Fixed-point signs.  The enumerators count unsigned objects.  For the
Y_{m,n} geometry, the signed series that the closed-form product computes
weighs the dimension vector d by (-1)^(d_0 + chi(d, d)), with chi the Euler
form of the geometry's quiver: the parity of the framed representation
space minus the gauge group (Szendroi, *Non-commutative Donaldson-Thomas
invariants and the conifold*).  Each arrow pair i -> i+1, i+1 -> i adds
an even amount, so the weight is multiplicative: q_c -> -q_c when [c = 0] +
chi(e_c, e_c) is odd.  That is q1 -> -q1 for the conifold (01) and q0 ->
-q0 for y{m}0 (0^m), each pinned order by order against the products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import isqrt

from . import catalog, characters, monad, partitions
from .catalog import ShiftMatrix, _ymn
from .ncalg import Quiver, chi_form
from .qseries import (
    Mono,
    QSeries,
    Substitution,
    compare,
    euler_factor,
    factor_product,
    macmahon,
    substitute,
)


@dataclass
class CheckResult:
    name: str
    equal: bool
    order: int
    mismatch: tuple | None
    seconds: float
    detail: str | None = None  # why a check without a coefficient mismatch failed

    def describe(self) -> str:
        if self.equal:
            return f"{self.name}: equal through total degree {self.order} ({self.seconds:.2f}s)"
        if self.mismatch is None:
            return f"{self.name}: FAILED: {self.detail}"
        e, ca, cb = self.mismatch
        return (
            f"{self.name}: FIRST MISMATCH at exponent {e}: "
            f"enumerator {ca} vs closed form {cb}"
        )


def _c3_dt(order):
    yield None, partitions.plane_partition_series(order), macmahon(order)


def _vw_rank1(order):
    yield None, partitions.partition_series(order), euler_factor(order, power=-1)


def _qs(n: int) -> tuple[str, ...]:
    return tuple(f"q{c}" for c in range(n))


def ymn_ncdt_product(sigma: str, order: int) -> QSeries:
    """The NCDT product of the Y_{m,n} geometry with parity sequence sigma
    of length N, in q0..q_(N-1): ``M(1,q)^N`` times ``(M(x_[a,b], q)
    M(x_[a,b]^-1, q))^e`` over 1 <= a <= b < N, with e = +1 when sigma_a =
    sigma_(b+1 mod N) and -1 otherwise, under q -> -q0...q_(N-1) and x_i ->
    q_i.  One :func:`factor_product` over the images ``(-1)^k q0^k q1^(k +
    x_1) ... q_(N-1)^(k + x_(N-1))`` of the factors ``(1 - x q^k)^(-k e)`` of
    ``M(x, q)^e``, each of total degree ``k N + sum(x)``."""
    n = len(sigma)
    powers = {(0,) * (n - 1): n}  # x-exponents of a MacMahon factor -> its power
    for a in range(1, n):
        for b in range(a, n):
            e = 1 if sigma[a] == sigma[(b + 1) % n] else -1
            x = tuple(1 if a <= i <= b else 0 for i in range(1, n))
            powers[x] = powers[tuple(-v for v in x)] = e
    factors = {}
    for x, power in powers.items():
        for k in range(1, (order - sum(x)) // n + 1):
            factors[((k,) + tuple(k + v for v in x), (-1) ** k)] = -k * power
    return factor_product(_qs(n), order, factors)


def fixed_point_flips(q: Quiver) -> tuple[bool, ...]:
    """Whether q_c -> -q_c, vertex by vertex: the parity of [c = 0] +
    chi(e_c, e_c)."""
    return tuple(
        ((c == 0) + chi_form(q, {v: 1}, {v: 1})) % 2 == 1 for c, v in enumerate(q.vertices)
    )


def ymn_ncdt_cases(sigma: str, enumerator, order: int):
    """The one case of an NCDT target: the unsigned count
    ``enumerator(order)`` in q0..q_(N-1), under the fixed-point sign twist of
    the quiver of sigma, against :func:`ymn_ncdt_product`."""
    n = len(sigma)
    target = ymn_ncdt_product(sigma, order)
    twist = {}
    for c, flip in enumerate(fixed_point_flips(_ymn(sigma)[0])):
        twist[f"q{c}"] = Mono(-1 if flip else 1, tuple(int(d == c) for d in range(n)))
    yield None, substitute(Substitution(_qs(n), _qs(n), twist), enumerator(order)), target


def _colored(m: int):
    return lambda order: partitions.plane_partition_series(order, colors=m)


def _nested_gl(order):
    for r in (1, 2, 3, 4):
        got = partitions.nested_series(r, order)
        pyramid = characters.single_row_pyramid(r)
        yield f"rank {r}", got, characters.character(characters.generator_weights(pyramid), order)


def _blowup(order):
    """Lattice sum against sum_k q^(k^2/2) / eta-squared, in the doubled
    variable qh with qh^2 = q."""
    got = partitions.blowup_series(order)
    qh = ("qh",)
    eta2 = factor_product(qh, 2 * order, {((2 * k,), 1): -2 for k in range(1, order + 1)})
    theta = {(k * k,): 1 if k == 0 else 2 for k in range(isqrt(2 * order) + 1)}
    yield None, got, QSeries(qh, 2 * order, theta) * eta2


def _character_figures(order):
    for kind, (shift, t, _) in characters.FIGURES.items():
        for r in range(1, 6):
            got = characters.character_from_shift(shift, t(r), order)
            yield f"{kind}, r={r}", got, characters.figure_series(kind, r, order)


def _character_limits(order):
    """Each stored limit against the character at family index order +
    sum(sub), past which the coefficients through q^order are stable."""
    for m, n, sub in characters.LIMITS:
        want = characters.limit_series(m, n, sub, order)
        got = characters.character_from_shift(ShiftMatrix(m, n, sub), order + sum(sub), order)
        yield f"m={m}, n={n}, sub={sub}", got, want


def _monad_certification(_order):
    """d^2 = 0 modulo relations for every stored monad template: each case
    is the reason it is not certified, or None."""
    for tpl_id in catalog.monad_template_ids():
        c, rels = catalog.monad_case(tpl_id)
        try:
            monad.certify_d_squared(c, rels, raise_on_failure=True)
        except monad.NotInIdeal as exc:
            yield tpl_id, str(exc), None
        else:
            yield tpl_id, None, None


# target -> (default order, or None for a target without one; the cases
# (label, got, want) at an order).  The NCDT enumerators look the partitions
# functions up at call time, so perfbench's tracer, which wraps them there,
# sees the calls.
COMPARE_TARGETS = {
    "c3-dt": (12, _c3_dt),
    "conifold-ncdt": (
        10, partial(ymn_ncdt_cases, "01", lambda order: partitions.pyramid_series(order))
    ),
    "y20-ncdt": (10, partial(ymn_ncdt_cases, "00", _colored(2))),
    "y30-ncdt": (8, partial(ymn_ncdt_cases, "000", _colored(3))),
    "vw-rank1": (12, _vw_rank1),
    "nested-gl": (10, _nested_gl),
    "blowup": (8, _blowup),
    "character-figures": (20, _character_figures),
    "character-limits": (12, _character_limits),
    "monad-certification": (None, _monad_certification),
}


def run_check(name: str, order: int | None = None) -> CheckResult:
    """Run a compare target at ``order`` (its default when None; a target
    without an order reports 0).  Cases are built one at a time: the first
    that differs names the result ``<name> (<label>)`` with its first
    mismatching coefficient, or with its detail when it is not a series,
    and no later case is built."""
    default, cases = COMPARE_TARGETS[name]
    if default is None:
        order = 0
    elif order is None:
        order = default
    t0 = time.perf_counter()
    for label, got, want in cases(order):
        if isinstance(got, QSeries):
            mismatch, detail = compare(got, want), None
        else:
            mismatch, detail = None, None if got == want else str(got)
        if mismatch is not None or detail is not None:
            failed = name if label is None else f"{name} ({label})"
            return CheckResult(failed, False, order, mismatch, time.perf_counter() - t0, detail)
    return CheckResult(name, True, order, None, time.perf_counter() - t0)
