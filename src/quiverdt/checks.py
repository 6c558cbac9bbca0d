"""Named cross-checks: enumerators against closed-form products, character
figures, limits, and monad certification, each returning a structured
verdict.  These are the identities behind the ``compare`` CLI command.

Fixed-point signs.  The enumerators count unsigned objects.  The signed
series that the closed-form products compute differ from the unsigned
counts by a per-geometry sign character on the dimension vector, applied
here as a variable substitution on the enumerator side before comparison:
q1 -> -q1 for the small-resolution pyramid count and q0 -> -q0 for the
cyclically colored counts.  Both twists were pinned order-by-order against
the products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import characters, partitions
from .catalog import ShiftMatrix
from .qseries import (
    Mono,
    QSeries,
    Substitution,
    compare,
    euler_factor,
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


def _xq_product(order: int, inverse_outer: bool) -> QSeries:
    """M(1,q)^2 M(x^-1,q)^e M(x,q)^e in (x, q) with grading (1, 2), for
    e = -1 (small resolution) or +1 (double cover)."""
    vars_xq = ("x", "q")
    grading = (1, 2)
    e = -1 if inverse_outer else 1
    return (
        macmahon(None, order, vars_xq, grading=grading) ** 2
        * macmahon(Mono(1, (-1, 0)), order, vars_xq, grading=grading, power=e)
        * macmahon(Mono(1, (1, 0)), order, vars_xq, grading=grading, power=e)
    )


_XQ_TO_Q01 = Substitution(
    ("x", "q"), ("q0", "q1"), {"q": Mono(-1, (1, 1)), "x": Mono(1, (0, 1))}
)


def check_conifold_ncdt(order: int = 10) -> CheckResult:
    t0 = time.perf_counter()
    target = substitute(_XQ_TO_Q01, _xq_product(order, inverse_outer=True))
    pyramids = partitions.pyramid_series(order)
    signed = substitute(
        Substitution(
            ("q0", "q1"), ("q0", "q1"), {"q0": Mono(1, (1, 0)), "q1": Mono(-1, (0, 1))}
        ),
        pyramids,
    )
    return _result("conifold-ncdt", order, t0, compare(signed, target))


def check_y20_ncdt(order: int = 10) -> CheckResult:
    t0 = time.perf_counter()
    target = substitute(_XQ_TO_Q01, _xq_product(order, inverse_outer=False))
    colored = partitions.plane_partition_series(order, colors=2)
    signed = substitute(
        Substitution(
            ("q0", "q1"), ("q0", "q1"), {"q0": Mono(-1, (1, 0)), "q1": Mono(1, (0, 1))}
        ),
        colored,
    )
    return _result("y20-ncdt", order, t0, compare(signed, target))


def check_ym0_ncdt(m: int = 3, order: int = 8) -> CheckResult:
    """Cyclically colored count against M(1,q)^m times paired interval
    factors M(x_[a,b]^{+-1}, q) under q -> -q0...q_(m-1), x_i -> q_i."""
    t0 = time.perf_counter()
    xs = tuple(f"x{i}" for i in range(1, m))
    vars_ = xs + ("q",)
    grading = (1,) * (m - 1) + (m,)
    prod = macmahon(None, order, vars_, grading=grading) ** m
    for a in range(1, m):
        for b in range(a, m):
            exps = tuple(1 if a <= i <= b else 0 for i in range(1, m)) + (0,)
            inv = tuple(-e for e in exps)
            prod = prod * macmahon(Mono(1, exps), order, vars_, grading=grading)
            prod = prod * macmahon(Mono(1, inv), order, vars_, grading=grading)
    targets = tuple(f"q{c}" for c in range(m))
    images = {"q": Mono(-1, (1,) * m)}
    for i in range(1, m):
        images[f"x{i}"] = Mono(1, tuple(1 if c == i else 0 for c in range(m)))
    target = substitute(Substitution(vars_, targets, images), prod)
    colored = partitions.plane_partition_series(order, colors=m)
    twist = {f"q{c}": Mono(1, tuple(1 if d == c else 0 for d in range(m))) for c in range(m)}
    twist["q0"] = Mono(-1, tuple(1 if d == 0 else 0 for d in range(m)))
    signed = substitute(Substitution(targets, targets, twist), colored)
    return _result(f"y{m}0-ncdt", order, t0, compare(signed, target))


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


COMPARE_TARGETS = {
    "c3-dt": check_c3_dt,
    "conifold-ncdt": check_conifold_ncdt,
    "y20-ncdt": check_y20_ncdt,
    "y30-ncdt": check_ym0_ncdt,
    "vw-rank1": check_vw_rank1,
    "nested-gl": check_nested_gl,
    "blowup": check_blowup,
    "character-figures": check_character_figures,
    "character-limits": check_character_limits,
    "monad-certification": check_monad_certification,
}


def run_check(name: str, order: int | None = None) -> CheckResult:
    if name not in COMPARE_TARGETS:
        raise KeyError(name)
    fn = COMPARE_TARGETS[name]
    if order is None or name == "monad-certification":
        return fn()
    return fn(order=order)
