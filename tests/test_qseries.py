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
    compare_factor_products,
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
    # M(x, q) = prod_k (1 - x q^k)^(-k) in (x, q): degree 1 + k <= 6
    m = factor_product(("x", "q"), 6, {((1, k), 1): -k for k in (1, 2)})
    assert m.coefficient((1, 1)) == 1  # the k = 1 factor contributes x*q once


def test_non_unit_constant_term():
    with pytest.raises(NonUnitConstantTerm):
        q1(3, {0: 2, 1: 1}).inverse()


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


@pytest.mark.parametrize(
    "sources, targets, images, name",
    [
        (("q",), ("q0",), {"q": Mono(1, (1, 1))}, "'q'"),  # a longer image
        (("q",), ("q0", "q1"), {"q": Mono(1, (1,))}, "'q'"),  # a shorter one
        (("x", "y"), ("q0", "q1"), {"x": Mono(1, (1, 0)), "y": Mono(-1, (1,))}, "'y'"),
    ],
)
def test_substitution_refuses_an_image_of_the_wrong_length(sources, targets, images, name):
    with pytest.raises(QSeriesError, match=f"{name}.*{len(targets)} target variables"):
        Substitution(sources, targets, images)


def test_compare_reports_first_mismatch():
    m = macmahon(4)
    eta_inv = euler_factor(4, power=-1)
    assert compare(m, eta_inv) == ((2,), 3, 2)
    assert compare(m, m) is None


def test_format_terms_half_variable():
    s = QSeries(("qh",), 4, {(0,): 1, (1,): 2, (2,): 3})
    text = format_terms(s)
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
    """A uniformly drawn (vars, factor multiset, order): in q with exponents
    -1..4, or in (x, q) with exponents -1..2 and 0..2; signs +-1, powers
    -4..4, orders 0..25.  Negative exponents and degree-0 monomials occur
    too."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        vars = ("q",)
        monomial = lambda: (rng.randint(-1, 4),)
    else:
        vars = ("x", "q")
        monomial = lambda: (rng.randint(-1, 2), rng.randint(0, 2))
    factors = {
        (monomial(), rng.choice((1, -1))): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))
    }
    return vars, factors, rng.randint(0, 25)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_factor_product_matches_factor_by_factor_oracle(seed):
    vars, factors, order = _random_factor_case(seed)
    assert _outcome(factor_product, vars, order, factors) == _outcome(
        oracles.factor_product_by_factors, vars, order, factors
    )


@pytest.mark.parametrize(
    "vars, exps, power",
    [
        (("q",), (-1,), 0),  # a negative exponent, even at power 0
        (("x", "q"), (-1, 0), 2),
        (("q",), (0,), -1),  # a degree-0 monomial, whatever the power
        (("x", "q"), (-1, 1), -2),  # degree 1 - 1 = 0
    ],
)
def test_factor_product_cone_violations(vars, exps, power):
    for build in (factor_product, oracles.factor_product_by_factors):
        for sign in (1, -1):
            with pytest.raises(ConeViolation):
                build(vars, 6, {(exps, sign): power})


def test_factor_product_exponent_length_mismatch():
    for build in (factor_product, oracles.factor_product_by_factors):
        with pytest.raises(QSeriesError):
            build(("q",), 5, {((1, 1), 1): -1})


# -- refusals of negative exponents and of a negative order -------------------


def test_series_refuses_a_negative_exponent():
    with pytest.raises(ConeViolation):
        QSeries(("x", "q"), 4, {(-1, 1): 1})


def test_factor_product_refuses_a_degree_zero_laurent_factor():
    with pytest.raises(ConeViolation):
        factor_product(("x", "q"), 4, {((-1, 1), 1): 2})


def test_substitution_refuses_an_image_with_a_negative_exponent():
    with pytest.raises(ConeViolation):
        substitute(Substitution(("q",), ("q0", "q1"), {"q": Mono(1, (2, -1))}), q1(4, {1: 1}))


def test_factor_product_refuses_a_negative_order_before_packing():
    # the packing base is order + 1, so order -1 must be refused first
    with pytest.raises(QSeriesError, match="order must be non-negative"):
        factor_product(("q0", "q1"), -1, {})


# -- edges of the packed-exponent recurrence -------------------------------
# factor_product and inverse pack exponent vectors into base-(order + 1)
# digits; these cases sit on the largest digit, order.


@pytest.mark.parametrize("order", [0, 1, 2, 5, 8])
def test_packed_recurrence_reaches_the_bound_on_both_sides(order):
    # m1 = q0 and m2 = q1 have degree 1: m1**order = q0^order and m2**order =
    # q1^order put the digit order in the lowest and the highest place, and
    # the factor 1 + q0^order has that digit itself
    vars = ("q0", "q1")
    factors = {((1, 0), 1): -1, ((0, 1), -1): -2, ((1, 1), 1): 3}
    if order:
        factors[((order, 0), -1)] = 1
    got = factor_product(vars, order, factors)
    assert got == oracles.factor_product_by_factors(vars, order, factors)
    assert got.coefficient((order, 0)) == 1 + (order > 0)
    assert got.coefficient((0, order)) == (-1) ** order * (order + 1)


def test_packed_recurrence_at_orders_zero_and_one():
    for vars, factors in [
        (("q",), {((1,), 1): -1, ((2,), -1): 2}),
        (("x", "q"), {((0, 1), 1): -2, ((1, 1), -1): 1, ((1, 0), 1): 1}),
    ]:
        for order in (0, 1):
            got = factor_product(vars, order, factors)
            assert got == oracles.factor_product_by_factors(vars, order, factors)
    assert factor_product(("q",), 0, {((1,), 1): -1}) == QSeries.one(("q",), 0)
    assert q1(0, {0: -1}).inverse() == q1(0, {0: -1})


def test_one_variable_recurrence_edges():
    # the dense one-variable path skips grade 0 (inverse's constant term)
    # and every grade above the order
    vars = ("q",)
    factors = {((1,), 1): 2, ((2,), -1): -1, ((3,), 1): 3}
    inverse = {key: -power for key, power in factors.items()}
    for order in (0, 2, 5, 14):
        series = -oracles.factor_product_by_factors(vars, order, factors)
        assert series.constant_term() == -1
        assert series.inverse() == -oracles.factor_product_by_factors(vars, order, inverse)
    factors = {((2,), 1): -1, ((6,), -1): 2}
    for order in (0, 1):
        got = factor_product(vars, order, factors)
        assert got == oracles.factor_product_by_factors(vars, order, factors)
        assert got == QSeries.one(vars, order)


@pytest.mark.parametrize("grading", [None, (1,)])
def test_one_variable_dense_log_derivative_matches_the_oracle(grading):
    # the empty multiset, sign -1 factors whose multiples k * g alternate in
    # sign at odd and even k, and mixed signs and powers; under grading (1,),
    # the weight total degree is in one variable, the product at each order
    # is also read off the order-20 product as its terms of weight <= order
    vars = ("q",)
    for factors in [
        {},
        {((1,), -1): 3},
        {((1,), -1): -2, ((2,), -1): 1, ((3,), -1): -1},
        {((2,), -1): 4, ((4,), 1): -3, ((5,), -1): 1, ((1,), 1): 2},
        {((3,), 1): -1, ((3,), -1): -1, ((6,), -1): 2},
        {((1,), -1): -1, ((2,), 1): 1},
    ]:
        inverse = {key: -power for key, power in factors.items()}
        top = factor_product(vars, 20, factors)
        for order in (0, 1, 2, 5, 9, 20):
            got = factor_product(vars, order, factors)
            assert got == oracles.factor_product_by_factors(vars, order, factors)
            if grading is not None:
                weight = lambda exps: sum(w * e for w, e in zip(grading, exps))  # noqa: E731
                kept = {e: c for e, c in top.coeffs.items() if weight(e) <= order}
                assert got.coeffs == kept
            want = oracles.factor_product_by_factors(vars, order, inverse)
            assert got.inverse() == want and (-got).inverse() == -want


@pytest.mark.parametrize("order", [0, 1, 3, 7, 10])
def test_inverse_of_multivariate_series(order):
    # inverse(prod (1 - m)^p) = prod (1 - m)^-p, both sides by the oracle
    vars = ("x", "q")
    factors = {((0, 1), 1): 2, ((1, 1), -1): 1, ((1, 0), 1): 1, ((1, 2), -1): 3}
    series = oracles.factor_product_by_factors(vars, order, factors)
    inverse = {key: -power for key, power in factors.items()}
    assert series.inverse() == oracles.factor_product_by_factors(vars, order, inverse)
    assert (-series).inverse() == -series.inverse()


# -- deciding two factor products from their multisets ------------------------


def _outcome_with_message(build, *args):
    """``("ok", value)`` or ``("raises", exception class, message)``."""
    try:
        return ("ok", build(*args))
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def _expanded_compare(vars, order, a, b):
    return compare(factor_product(vars, order, a), factor_product(vars, order, b))


def _add_power(factors, key, power):
    factors[key] = factors.get(key, 0) + power


def _random_factor_pair(seed):
    """A drawn (vars, order, a, b) in q or in (x, q).  b is a with power-0
    entries added and dropped, or a with one factor (1 + m)^p rewritten as
    (1 - m^2)^p (1 - m)^-p, or an unrelated multiset.  Now and then a
    degree-0 factor or an exponent vector of the wrong length goes into a
    or b, or the order is negative."""
    rng = random.Random(seed)
    n = rng.choice((1, 2))
    vars = ("q",) if n == 1 else ("x", "q")

    def monomial():
        exps = (0,) * n
        while not sum(exps):
            exps = tuple(rng.randint(0, 3) for _ in range(n))
        return exps

    def multiset():
        return {
            (monomial(), rng.choice((1, -1))): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))
        }

    a = multiset()
    kind = rng.choice(("zeros", "sign rewrite", "unrelated"))
    if kind == "zeros":
        b = {key: p for key, p in reversed(a.items()) if p or rng.random() < 0.5}
        for _ in range(rng.randint(1, 3)):
            b.setdefault((monomial(), rng.choice((1, -1))), 0)
    elif kind == "sign rewrite":
        b = dict(a)
        m, p = monomial(), rng.choice((-2, -1, 1, 2, 3))
        _add_power(a, (m, -1), p)
        _add_power(b, (tuple(2 * e for e in m), 1), p)
        _add_power(b, (m, 1), -p)
    else:
        b = multiset()
    fault = rng.choice((None, None, None, "degree 0", "length", "negative order"))
    side = rng.choice((a, b))
    if fault == "degree 0":
        side[(0,) * n, rng.choice((1, -1))] = rng.randint(-2, 2)
    elif fault == "length":
        side[(1,) * (n + 1), 1] = rng.randint(-2, 2)
    order = -1 if fault == "negative order" else rng.randint(0, 12)
    return vars, order, a, b


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compare_factor_products_matches_the_expanded_compare(seed):
    vars, order, a, b = _random_factor_pair(seed)
    assert _outcome_with_message(compare_factor_products, vars, order, a, b) == (
        _outcome_with_message(_expanded_compare, vars, order, a, b)
    )


@pytest.mark.parametrize(
    "vars, order, a, b",
    [
        (("q",), 5, {((1,), 1): 2, ((3,), -1): -1}, {((3,), -1): -1, ((1,), 1): 2}),  # equal
        (("x", "q"), 5, {((0, 0), 1): 0}, {((0, 0), 1): 0}),  # equal, and both of degree 0
        # equal once power-0 entries are dropped, one of them of degree 0
        (("q",), 8, {((1,), 1): -2, ((3,), -1): 0}, {((2,), 1): 0, ((1,), 1): -2}),
        # (1 + q^2)^3 = (1 - q^4)^3 (1 - q^2)^-3: equal series, different multisets
        (("q",), 12, {((2,), -1): 3}, {((4,), 1): 3, ((2,), 1): -3}),
        (("x", "q"), 9, {((1, 1), -1): -2}, {((2, 2), 1): -2, ((1, 1), 1): 2}),
        # unrelated: the first mismatch as the expansion finds it
        (("x", "q"), 5, {((1, 0), 1): -1}, {((0, 1), 1): -1}),
        (("q",), 6, {((1,), 1): -1}, {((1,), 1): -1, ((0,), 1): 0}),  # degree 0 in b, power 0
        (("q",), 6, {((1, 1), 1): 1}, {((0,), 1): 2}),  # wrong length in a before degree 0 in b
        (("x", "q"), 6, {((1, 0), 1): 1}, {((-1, 1), -1): 1}),  # a negative exponent in b
        (("q",), -1, {((0,), 1): 1}, {((1, 1), 1): 1}),  # the order before either side
    ],
)
def test_compare_factor_products_edges(vars, order, a, b):
    assert _outcome_with_message(compare_factor_products, vars, order, a, b) == (
        _outcome_with_message(_expanded_compare, vars, order, a, b)
    )


def test_equal_multisets_are_never_expanded(monkeypatch):
    import quiverdt.qseries as qseries_module

    def refuse(*args):
        raise AssertionError("factor_product was called")

    monkeypatch.setattr(qseries_module, "factor_product", refuse)
    a = {((1,), 1): -4, ((2,), -1): 3, ((5,), 1): 0}
    b = {((6,), -1): 0, ((2,), -1): 3, ((1,), 1): -4}
    assert compare_factor_products(("q",), 40, a, b) is None
    with pytest.raises(AssertionError, match="factor_product was called"):
        compare_factor_products(("q",), 40, a, {((1,), 1): -4})
