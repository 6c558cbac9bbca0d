import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from quiverdt.qseries import (
    ConeViolation,
    Mono,
    NonUnitConstantTerm,
    QSeries,
    QSeriesError,
    Substitution,
    binomial_factor,
    compare,
    coefficients_in_single_var,
    euler_factor,
    factor_product,
    format_terms,
    macmahon,
    substitute,
)


def q1(order, coeffs):
    return QSeries(("q",), order, {(k,): v for k, v in coeffs.items()})


def test_geometric_series_inverse():
    one_minus_q = q1(3, {0: 1, 1: -1})
    assert coefficients_in_single_var(one_minus_q.inverse()) == [1, 1, 1, 1]
    assert coefficients_in_single_var(one_minus_q ** -1) == [1, 1, 1, 1]


def test_one_minus_q_times_geometric_is_one():
    geo = q1(6, {k: 1 for k in range(7)})
    prod = q1(6, {0: 1, 1: -1}) * geo
    assert coefficients_in_single_var(prod) == [1, 0, 0, 0, 0, 0, 0]


def test_eta_inverse_is_partition_series():
    assert coefficients_in_single_var(euler_factor(5, power=-1)) == [1, 1, 2, 3, 5, 7]


def test_macmahon_small_coefficients():
    m = macmahon(6)
    assert coefficients_in_single_var(m) == [1, 1, 3, 6, 13, 24, 48]


def test_macmahon_xq_single_factor_coefficient():
    # M(x, q) = prod_k (1 - x q^k)^(-k) in (x, q) graded (1, 2): grade 1 + 2k <= 6
    m = factor_product(("x", "q"), 6, {((1, k), 1): -k for k in (1, 2)}, (1, 2))
    assert m.coefficient((1, 1)) == 1  # the k = 1 factor contributes x*q once


def test_macmahon_laurent_cone():
    # M(x^-1, q) in (x, q) graded (1, 2): grade 2k - 1 <= 8
    m = factor_product(("x", "q"), 8, {((-1, k), 1): -k for k in range(1, 5)}, (1, 2))
    assert all(e[0] + e[1] >= 0 for e in m.coeffs)  # b >= a in every x^-a q^b


def test_non_unit_constant_term():
    with pytest.raises(NonUnitConstantTerm):
        q1(3, {0: 2, 1: 1}).inverse()


def test_grade_zero_monomial_cannot_invert():
    s = QSeries(("x", "q"), 4, {(0, 0): 1, (-1, 1): 1})
    with pytest.raises(ConeViolation):
        s.inverse()


def test_substitute_simple_sign():
    s = q1(2, {0: 1, 1: 1})
    sub = Substitution(("q",), ("q0", "q1"), {"q": Mono(-1, (1, 1))})
    out = substitute(sub, s)
    assert out.coefficient((1, 1)) == -1 and out.constant_term() == 1


def test_substitute_cone_violation():
    s = q1(2, {1: 1})
    with pytest.raises(ConeViolation):
        # image of q has grade 0
        substitute(Substitution(("q",), ("q0",), {"q": Mono(1, (0,))}), s)


def test_compare_reports_first_mismatch():
    m = macmahon(4)
    eta_inv = euler_factor(4, power=-1)
    assert compare(m, eta_inv) == ((2,), 3, 2)
    assert compare(m, m) is None


def test_format_terms_half_variable():
    s = QSeries(("qh",), 4, {(0,): 1, (1,): 2, (2,): 3})
    text = format_terms(s, half_vars=("qh",))
    assert "qh^1/2" in text and "qh" in text


small_series = st.builds(
    lambda coeffs: q1(4, dict(coeffs)),
    st.dictionaries(st.integers(0, 4), st.integers(-4, 4), max_size=4).map(dict.items),
)


@settings(max_examples=60, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(1, 4), st.integers(-3, 3), max_size=3), st.integers(1, 3))
def test_pow_and_inverse_cancel(coeffs, k):
    coeffs = {0: 1, **coeffs}
    a = q1(6, coeffs)
    assert (a ** k) * (a ** -k) == QSeries.one(("q",), 6)


@settings(max_examples=40, deadline=None)
@given(small_series, small_series)
def test_substitute_is_ring_map(a, b):
    sub = Substitution(("q",), ("q0", "q1"), {"q": Mono(-1, (1, 1))})
    assert substitute(sub, a * b) == substitute(sub, a) * substitute(sub, b)
    assert substitute(sub, a + b) == substitute(sub, a) + substitute(sub, b)


def test_binomial_factor_negative_power():
    f = binomial_factor(("q",), 5, (1,), 1, -2)
    # (1-q)^-2 = sum (k+1) q^k
    assert coefficients_in_single_var(f) == [1, 2, 3, 4, 5, 6]


def _outcome(build, *args):
    """``("ok", series)`` or ``("raises", exception class)``."""
    try:
        return ("ok", build(*args))
    except QSeriesError as exc:
        return ("raises", type(exc))


def _random_factor_case(seed):
    """A uniformly drawn (vars, grading, factor multiset, order): univariate
    under grading None, (2,), (3,) or (-1,), with exponents -1..4 times the
    weight's sign, or (x, q) with grading (1, 2) and Laurent x^-1, x^-2;
    signs +-1, powers -4..4, orders 0..25.  Negative-grade and grade-0
    monomials occur too."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        vars, grading = ("q",), rng.choice((None, (2,), (3,), (-1,)))
        direction = -1 if grading == (-1,) else 1
        monomial = lambda: (direction * rng.randint(-1, 4),)
    else:
        vars, grading = ("x", "q"), (1, 2)
        monomial = lambda: (rng.randint(-2, 2), rng.randint(0, 2))
    factors = {
        (monomial(), rng.choice((1, -1))): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))
    }
    return vars, grading, factors, rng.randint(0, 25)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factor_product_matches_factor_by_factor_oracle(seed):
    vars, grading, factors, order = _random_factor_case(seed)
    assert _outcome(factor_product, vars, order, factors, grading) == _outcome(
        oracles.factor_product_by_factors, vars, order, factors, grading
    )


@pytest.mark.parametrize(
    "vars, grading, exps, power",
    [
        (("q",), None, (-1,), 0),  # negative grade, even at power 0
        (("x", "q"), (1, 2), (-1, 0), 2),
        (("q",), None, (0,), -1),  # grade-0 monomial with a negative power
        (("x", "q"), (1, 1), (-1, 1), -2),
    ],
)
def test_factor_product_cone_violations(vars, grading, exps, power):
    for build in (factor_product, oracles.factor_product_by_factors):
        for sign in (1, -1):
            with pytest.raises(ConeViolation):
                build(vars, 6, {(exps, sign): power}, grading)


def test_factor_product_grade_zero_monomial_with_nonnegative_power():
    # (1 + x^-1*q)^2 has every term at grade 0 under grading (1, 1)
    got = factor_product(("x", "q"), 3, {((-1, 1), -1): 2, ((0, 1), 1): -1}, (1, 1))
    want = oracles.factor_product_by_factors(
        ("x", "q"), 3, {((-1, 1), -1): 2, ((0, 1), 1): -1}, (1, 1)
    )
    assert got == want and got.coefficient((-2, 2)) == 1
    assert factor_product(("q",), 4, {((0,), 1): 3}) == QSeries.zero(("q",), 4)


def test_factor_product_exponent_length_mismatch():
    for build in (factor_product, oracles.factor_product_by_factors):
        with pytest.raises(QSeriesError):
            build(("q",), 5, {((1, 1), 1): -1})


# -- edges of the packed-exponent recurrence -------------------------------
# factor_product and inverse pack exponent vectors into signed base-(2*bound + 1)
# digits with bound = order * max|exps_i|; these cases sit on that bound.


def _y30_factors(order):
    """The MacMahon factors of the y30 product: (1 - x q^k)^(-k e) in
    (x1, x2, q) for the Laurent x = +-(1,0), +-(0,1), +-(1,1)."""
    factors = {}
    for (a, b), e in {(0, 0): 3, (1, 0): 1, (0, 1): 1, (1, 1): 1}.items():
        for x in {(a, b), (-a, -b)}:
            for k in range(1, (order - sum(x)) // 3 + 1):
                factors[(x + (k,), 1)] = -k * e
    return factors


@pytest.mark.parametrize("order", [0, 1, 4, 9])
def test_packed_recurrence_three_variables_graded_1_1_3(order):
    vars, grading, factors = ("x1", "x2", "q"), (1, 1, 3), _y30_factors(order)
    got = factor_product(vars, order, factors, grading)
    assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
    assert got.constant_term() == 1


@pytest.mark.parametrize("order", [0, 1, 2, 5, 8])
def test_packed_recurrence_reaches_the_bound_on_both_sides(order):
    # m1 = x^-1 q and m2 = x have grade 1 and max|exps_i| = 1, so bound = order:
    # m1**order = x^-order q^order and m2**order = x^order sit on +-bound
    vars, grading = ("x", "q"), (1, 2)
    factors = {((-1, 1), 1): -1, ((1, 0), -1): -2, ((0, 1), 1): 3}
    got = factor_product(vars, order, factors, grading)
    assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
    assert got.coefficient((-order, order)) == 1
    assert got.coefficient((order, 0)) == (-1) ** order * (order + 1)


def test_packed_recurrence_at_orders_zero_and_one():
    for vars, grading, factors in [
        (("q",), None, {((1,), 1): -1, ((2,), -1): 2}),
        (("x", "q"), (1, 2), {((-1, 1), 1): -2, ((-2, 2), -1): 1, ((1, 0), 1): 1}),
    ]:
        for order in (0, 1):
            got = factor_product(vars, order, factors, grading)
            assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
    assert factor_product(("q",), 0, {((1,), 1): -1}) == QSeries.one(("q",), 0)
    assert q1(0, {0: -1}).inverse() == q1(0, {0: -1})


def test_one_variable_recurrence_edges():
    # the dense one-variable path steps through the multiples of |w|, reads
    # the exponent of grade g as g / w, and skips grade 0 (inverse's constant
    # term) and every grade above the order
    vars = ("q",)
    factors = {((-1,), 1): -2, ((-2,), -1): 3, ((-3,), 1): 1}
    inverse = {key: -power for key, power in factors.items()}
    for order in (0, 1, 5, 12):
        series = factor_product(vars, order, factors, (-1,))
        assert series == oracles.factor_product_by_factors(vars, order, factors, (-1,))
        assert series.inverse() == oracles.factor_product_by_factors(vars, order, inverse, (-1,))
        assert order == 0 or series.coefficient((-1,)) == 2
    factors = {((1,), 1): 2, ((2,), -1): -1, ((3,), 1): 3}
    inverse = {key: -power for key, power in factors.items()}
    for order in (0, 2, 5, 14):
        series = -oracles.factor_product_by_factors(vars, order, factors, (2,))
        assert series.constant_term() == -1
        assert series.inverse() == -oracles.factor_product_by_factors(vars, order, inverse, (2,))
    for grading, exps in ((None, (2,)), ((2,), (1,)), ((3,), (1,)), ((-1,), (-2,))):
        factors = {(exps, 1): -1, ((3 * exps[0],), -1): 2}
        for order in (0, 1):
            got = factor_product(vars, order, factors, grading)
            assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
            assert got == QSeries.one(vars, order, grading)


def _one_variable_multisets(direction):
    """Factor multisets in q whose monomials point along ``direction``: the
    empty one, sign -1 factors whose multiples k * g alternate in sign at odd
    and even k, mixed signs and powers, and grade-0 factors."""
    q = lambda e: (direction * e,)  # noqa: E731
    return [
        {},
        {(q(1), -1): 3},
        {(q(1), -1): -2, (q(2), -1): 1, (q(3), -1): -1},
        {(q(2), -1): 4, (q(4), 1): -3, (q(5), -1): 1, (q(1), 1): 2},
        {(q(3), 1): -1, (q(3), -1): -1, (q(6), -1): 2},
        {((0,), 1): 0, ((0,), -1): 2, (q(1), -1): -1, (q(2), 1): 1},
    ]


@pytest.mark.parametrize("grading", [None, (1,), (2,), (3,), (-1,)])
def test_one_variable_dense_log_derivative_matches_the_oracle(grading):
    vars, direction = ("q",), -1 if grading == (-1,) else 1
    for factors in _one_variable_multisets(direction):
        positive = all(exps != (0,) for exps, _ in factors)
        inverse = {key: -power for key, power in factors.items()}
        for order in (0, 1, 2, 5, 9, 20):
            got = factor_product(vars, order, factors, grading)
            assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
            if positive:  # the inverse of a product is the product of the inverses
                want = oracles.factor_product_by_factors(vars, order, inverse, grading)
                assert got.inverse() == want and (-got).inverse() == -want


def test_one_variable_weight_zero_keeps_only_grade_zero_factors():
    # under grading (0,) every monomial has grade 0: a non-negative power is
    # expanded as a polynomial, a negative one leaves the cone
    vars, grading = ("q",), (0,)
    for order in (0, 3):
        factors = {((1,), -1): 2, ((2,), 1): 1}
        got = factor_product(vars, order, factors, grading)
        assert got == oracles.factor_product_by_factors(vars, order, factors, grading)
        assert got.coefficient((4,)) == -1
        with pytest.raises(ConeViolation):
            factor_product(vars, order, {((1,), 1): -1}, grading)
        assert QSeries(vars, order, {(0,): -1}, grading).inverse().coeffs == {(0,): -1}


@pytest.mark.parametrize("order", [0, 1, 3, 7, 10])
def test_inverse_of_laurent_series_graded_1_2(order):
    # inverse(prod (1 - m)^p) = prod (1 - m)^-p, both sides by the oracle
    vars, grading = ("x", "q"), (1, 2)
    factors = {((-1, 1), 1): 2, ((-2, 2), -1): 1, ((1, 0), 1): 1, ((-1, 2), -1): 3}
    series = oracles.factor_product_by_factors(vars, order, factors, grading)
    inverse = {key: -power for key, power in factors.items()}
    assert series.inverse() == oracles.factor_product_by_factors(vars, order, inverse, grading)
    assert (-series).inverse() == -series.inverse()
