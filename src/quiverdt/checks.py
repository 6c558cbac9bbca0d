"""Named cross-checks: enumerators against closed-form products, character
figures, limits, and monad certification, each returning a structured
verdict.  These are the identities behind the ``compare`` CLI command.

Fixed-point signs.  The enumerators count unsigned objects.  For the
Y_{m,n} geometry with parity sequence sigma, the signed series that the
closed-form product computes differs from the unsigned count by one sign
twist on the count: q_c -> -q_c for each vertex c != 0 without a loop, and
for c = 0 when vertex 0 has a loop (vertex c has one when sigma_c =
sigma_(c+1)).  That is q1 -> -q1 for the conifold (01) and q0 -> -q0 for
y{m}0 (0^m), each pinned order by order against the products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

from . import characters, partitions
from .catalog import ShiftMatrix
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


def _result(name, order, t0, mismatch) -> CheckResult:
    return CheckResult(name, mismatch is None, order, mismatch, time.perf_counter() - t0)


def check_c3_dt(order: int = 12) -> CheckResult:
    t0 = time.perf_counter()
    got = partitions.plane_partition_series(order)
    want = macmahon(None, order, vars=("q",))
    return _result("c3-dt", order, t0, compare(got, want))


def check_vw_rank1(order: int = 12) -> CheckResult:
    t0 = time.perf_counter()
    got = partitions.partition_series(order)
    want = euler_factor(("q",), order, power=-1)
    return _result("vw-rank1", order, t0, compare(got, want))


def _qs(n: int) -> tuple[str, ...]:
    return tuple(f"q{c}" for c in range(n))


def ymn_ncdt_product(sigma: str, order: int) -> QSeries:
    """The NCDT product of the Y_{m,n} geometry with parity sequence sigma
    of length N, in q0..q_(N-1): ``M(1,q)^N`` times ``(M(x_[a,b], q)
    M(x_[a,b]^-1, q))^e`` over 1 <= a <= b < N, with e = +1 when sigma_a =
    sigma_(b+1 mod N) and -1 otherwise, graded (1, ..., 1, N) on (x_1, ...,
    x_(N-1), q), under q -> -q0...q_(N-1) and x_i -> q_i.  One
    :func:`factor_product` over the factors ``(1 - x q^k)^(-k e)`` of
    ``M(x, q)^e``."""
    n = len(sigma)
    powers = {(0,) * (n - 1): n}  # x-exponents of a MacMahon factor -> its power
    for a in range(1, n):
        for b in range(a, n):
            e = 1 if sigma[a] == sigma[(b + 1) % n] else -1
            x = tuple(1 if a <= i <= b else 0 for i in range(1, n))
            powers[x] = powers[tuple(-v for v in x)] = e
    factors = {}
    for x, power in powers.items():
        k = 1
        while sum(x) + k * n <= order:
            factors[(x + (k,), 1)] = -k * power
            k += 1
    vars_ = tuple(f"x{i}" for i in range(1, n)) + ("q",)
    prod = factor_product(vars_, order, factors, (1,) * (n - 1) + (n,))
    images = {f"x{i}": Mono(1, tuple(int(c == i) for c in range(n))) for i in range(1, n)}
    images["q"] = Mono(-1, (1,) * n)
    return substitute(Substitution(vars_, _qs(n), images), prod)


def check_ymn_ncdt(sigma: str, enumerator, order: int, name: str) -> CheckResult:
    """The unsigned count ``enumerator(order)`` in q0..q_(N-1), under the
    sign twist of sigma, against :func:`ymn_ncdt_product`."""
    t0 = time.perf_counter()
    n = len(sigma)
    target = ymn_ncdt_product(sigma, order)
    twist = {}
    for c in range(n):
        loop = sigma[c] == sigma[(c + 1) % n]
        flip = loop if c == 0 else not loop
        twist[f"q{c}"] = Mono(-1 if flip else 1, tuple(int(d == c) for d in range(n)))
    signed = substitute(Substitution(_qs(n), _qs(n), twist), enumerator(order))
    return _result(name, order, t0, compare(signed, target))


def _colored(m: int):
    return lambda order: partitions.plane_partition_series(order, colors=m)


def check_nested_gl(order: int = 10, ranks=(1, 2, 3, 4)) -> CheckResult:
    t0 = time.perf_counter()
    for r in ranks:
        got = partitions.nested_series(r, order)
        want = characters.character(
            characters.generator_weights(characters.single_row_pyramid(r)), order
        )
        mismatch = compare(got, want)
        if mismatch is not None:
            return _result(f"nested-gl (rank {r})", order, t0, mismatch)
    return _result("nested-gl", order, t0, None)


def check_blowup(order: int = 8) -> CheckResult:
    """Lattice sum against sum_k q^(k^2/2) / eta-squared, in the doubled
    variable qh with qh^2 = q."""
    t0 = time.perf_counter()
    got = partitions.blowup_series(order)
    qh = ("qh",)
    eta2 = euler_factor(qh, 2 * order, q=Mono(1, (2,)), power=-2)
    theta = QSeries.zero(qh, 2 * order)
    k = 0
    while k * k <= 2 * order:
        mult = 1 if k == 0 else 2
        theta = theta + QSeries.monomial(qh, 2 * order, (k * k,), mult)
        k += 1
    want = theta * eta2
    return _result("blowup", order, t0, compare(got, want))


def check_character_figures(order: int = 20, max_rank: int = 5) -> CheckResult:
    t0 = time.perf_counter()
    for kind in ("glr-principal", "gl2-s0", "gl2-s1", "gl2-s2", "glrr"):
        for r in range(1, max_rank + 1):
            p = characters.figure_pyramid(kind, r)
            got = characters.character(characters.generator_weights(p), order)
            want = characters.figure_series(kind, r, order)
            mismatch = compare(got, want)
            if mismatch is not None:
                return _result(f"character-figures ({kind}, r={r})", order, t0, mismatch)
    return _result("character-figures", order, t0, None)


def check_character_limits(order: int = 12, t_max: int = 25) -> CheckResult:
    t0 = time.perf_counter()
    cases = [
        ShiftMatrix(2, 0, (0,)),
        ShiftMatrix(2, 0, (1,)),
        ShiftMatrix(2, 0, (2,)),
        ShiftMatrix(1, 1, (0,)),
    ]
    for shift in cases:
        report = characters.limit_check(shift, order, t_max)
        if not report.equal:
            name = f"character-limits (m={shift.m}, n={shift.n}, sub={shift.sub})"
            return _result(name, order, t0, report.mismatch)
    return _result("character-limits", order, t0, None)


def check_monad_certification() -> CheckResult:
    """d^2 = 0 modulo relations for every stored monad template."""
    from . import catalog, monad

    t0 = time.perf_counter()
    for tpl_id in catalog.monad_template_ids():
        c, rels = catalog.monad_case(tpl_id)
        try:
            monad.certify_d_squared(c, rels, raise_on_failure=True)
        except monad.NotInIdeal as exc:
            return CheckResult(
                f"monad ({tpl_id})", False, 0, None, time.perf_counter() - t0, detail=str(exc)
            )
    return CheckResult("monad-certification", True, 0, None, time.perf_counter() - t0)


# The NCDT enumerators look the partitions functions up at call time, so
# perfbench's tracer, which wraps them there, sees the calls.
COMPARE_TARGETS = {
    "c3-dt": check_c3_dt,
    "conifold-ncdt": partial(
        check_ymn_ncdt, "01", lambda order: partitions.pyramid_series(order), order=10,
        name="conifold-ncdt",
    ),
    "y20-ncdt": partial(check_ymn_ncdt, "00", _colored(2), order=10, name="y20-ncdt"),
    "y30-ncdt": partial(check_ymn_ncdt, "000", _colored(3), order=8, name="y30-ncdt"),
    "vw-rank1": check_vw_rank1,
    "nested-gl": check_nested_gl,
    "blowup": check_blowup,
    "character-figures": check_character_figures,
    "character-limits": check_character_limits,
    "monad-certification": check_monad_certification,
}


# targets without a truncation order
ORDERLESS_TARGETS = frozenset({"monad-certification"})


def run_check(name: str, order: int | None = None) -> CheckResult:
    """Run a compare target, at ``order`` when it takes one."""
    fn = COMPARE_TARGETS[name]
    if order is None or name in ORDERLESS_TARGETS:
        return fn()
    return fn(order=order)
