import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from quiverdt import characters as C
from quiverdt import partitions as P
from quiverdt.catalog import ShiftMatrix
from quiverdt.qseries import (
    ConeViolation,
    QSeriesError,
    coefficients_in_single_var,
    compare,
    compare_factor_products,
)


def test_pyramid_from_shift_aligned():
    p = C.pyramid_from_shift(ShiftMatrix(2, 0, (0,)), 4)
    assert [(r.left, r.length) for r in p.rows] == [(1, 4), (1, 4)]


def test_pyramid_from_shift_offset_one():
    p = C.pyramid_from_shift(ShiftMatrix(2, 0, (1,)), 3)  # rows (4, 3), offset 1
    assert [(r.left, r.length) for r in p.rows] == [(1, 4), (2, 3)]


def test_pyramid_from_shift_offset_two():
    p = C.pyramid_from_shift(ShiftMatrix(2, 0, (2,)), 2)  # rows (4, 2), offset 2
    assert [(r.left, r.length) for r in p.rows] == [(1, 4), (3, 2)]


def test_pyramid_from_shift_parities():
    p = C.pyramid_from_shift(ShiftMatrix(1, 1, (0,)), 3)
    assert [r.parity for r in p.rows] == [C.EVEN, C.ODD]


def test_pyramid_zero_length_rows_dropped():
    p = C.pyramid_from_shift(ShiftMatrix(2, 0, (2,)), 0)
    assert [(r.left, r.length) for r in p.rows] == [(1, 2)]


def test_single_row_weights():
    ws = C.generator_weights(C.single_row_pyramid(4))
    assert ws == {(1, 0): 1, (2, 0): 1, (3, 0): 1, (4, 0): 1}


def test_offset_pair_weights():
    # rows (2, 1) offset 1, both even: multiset {1: x3, 2: x2}
    p = C.Pyramid((C.PyramidRow(C.EVEN, 1, 2), C.PyramidRow(C.EVEN, 2, 1)))
    assert C.generator_weights(p) == {(1, 0): 3, (2, 0): 2}


def test_super_pair_weights():
    p = C.Pyramid((C.PyramidRow(C.EVEN, 1, 3), C.PyramidRow(C.ODD, 1, 3)))
    ws = C.generator_weights(p)
    for w in (1, 2, 3):
        assert ws[(w, 0)] == 2 and ws[(w, 1)] == 2


def test_generator_count_single_row():
    assert sum(C.generator_weights(C.single_row_pyramid(5)).values()) == 5


def test_generator_count_affine_like():
    # m aligned rows of length 1: m^2 weight-one generators
    for m in (2, 3):
        rows = tuple(C.PyramidRow(C.EVEN, 1, 1) for _ in range(m))
        ws = C.generator_weights(C.Pyramid(rows))
        assert ws == {(1, 0): m * m}


def figure_pyramid(kind, r):
    shift, t, _ = C.FIGURES[kind]
    return C.pyramid_from_shift(shift, t(r))


def test_reflection_invariance():
    for kind in C.FIGURES:
        for r in (2, 3, 4):
            p = figure_pyramid(kind, r)
            reflected = C.Pyramid(
                tuple(C.PyramidRow(row.parity, -row.right, row.length) for row in p.rows)
            )
            assert C.generator_weights(p) == C.generator_weights(reflected)


def test_nonpositive_weight_rejected():
    p = C.Pyramid((C.PyramidRow(C.EVEN, 1, 1), C.PyramidRow(C.EVEN, 5, 1)))
    with pytest.raises(C.NonPositiveWeight):
        C.generator_weights(p)


def test_character_eta_like():
    got = C.character({(1, 0): 1}, 5)
    assert coefficients_in_single_var(got) == [1, 1, 2, 3, 5, 7]


def test_character_four_weight_one_fields():
    got = C.character({(1, 0): 4}, 4)
    want = C.figure_series("gl2-s0", 1, 4)
    assert compare(got, want) is None


def test_character_super_weight_one():
    got = C.character({(1, 0): 2, (1, 1): 2}, 4)
    want = C.figure_series("glrr", 1, 4)
    assert compare(got, want) is None


def test_character_of_union_is_product():
    a = {(1, 0): 2, (2, 1): 1}
    b = {(2, 0): 1, (1, 1): 3}
    union = dict(a)
    for k, v in b.items():
        union[k] = union.get(k, 0) + v
    assert C.character(union, 8) == C.character(a, 8) * C.character(b, 8)


def test_figures_match_pyramid_rule():
    for kind in C.FIGURES:
        for r in range(1, 5):
            got = C.character(C.generator_weights(figure_pyramid(kind, r)), 14)
            assert compare(got, C.figure_series(kind, r, 14)) is None, (kind, r)


@pytest.mark.parametrize("kind", sorted(C.FIGURES))
def test_figures_against_factor_by_factor_oracle(kind):
    # each side of character-figures, built by factor_product, equals the
    # other side's multiset expanded one factor at a time
    for r in range(1, 6):
        ws = C.generator_weights(figure_pyramid(kind, r))
        pyramid = oracles.pochhammer_factors_by_k(20, C.character_pochhammers(ws))
        figure = oracles.pochhammer_factors_by_k(20, C.figure_pochhammers(kind, r))
        pyramid_side = oracles.factor_product_by_factors(("q",), 20, pyramid)
        figure_side = oracles.factor_product_by_factors(("q",), 20, figure)
        assert C.character(ws, 20) == figure_side, (kind, r)
        assert C.figure_series(kind, r, 20) == pyramid_side, (kind, r)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pochhammer_running_sum_matches_the_per_k_oracle(seed):
    # starts w from -1 to order + 2, drawn from a few values so that they
    # repeat; signs +-1 or omitted; powers -4..4, zero and negative included
    rng = random.Random(seed)
    order = rng.choice((0, 0, 1, 2, 3, 7, 12, 30))
    starts = [rng.randint(-1, order + 2) for _ in range(3)]
    pochhammers = [
        (rng.choice(starts), rng.randint(-4, 4), *rng.choice(((), (1,), (-1,))))
        for _ in range(rng.randint(0, 7))
    ]
    got = C._pochhammer_factors(order, pochhammers)
    assert got == oracles.pochhammer_factors_by_k(order, pochhammers)


@pytest.mark.parametrize(
    "order, pochhammers",
    [
        (0, [(1, -1), (0, 2, -1)]),
        (0, [(-1, 3)]),
        (4, [(5, 1), (6, -2, -1)]),  # every start above the order
        (4, [(2, 3), (3, -3)]),  # powers that cancel from k = 3 on stay as 0
        (5, [(1, 1, 1), (1, 1), (2, -1, -1), (2, 1, -1)]),
    ],
)
def test_pochhammer_running_sum_edges(order, pochhammers):
    assert C._pochhammer_factors(order, pochhammers) == oracles.pochhammer_factors_by_k(
        order, pochhammers
    )


def _random_pochhammer_pair(rng, order):
    """Two pochhammer lists with signs +-1, starts 1..order + 3 and powers
    -3..3: the second is the first shuffled, with powers split between
    repeated starts and cancelling pairs added, and one time in two
    changed by one pochhammer more."""
    def draw():
        return (rng.randint(1, order + 3), rng.randint(-3, 3), rng.choice((1, -1)))

    a = [draw() for _ in range(rng.randint(0, 6))]
    b = []
    for w, power, sign in a:
        part = rng.randint(-3, 3)
        b += [(w, part, sign), (w, power - part, sign)] if rng.random() < 0.3 else [(w, power, sign)]
    for _ in range(rng.randint(0, 2)):
        w, power, sign = draw()
        b += [(w, power, sign), (w, -power, sign)]
    if rng.random() < 0.5:
        b.append(draw())
    rng.shuffle(b)
    return a, b


@settings(max_examples=600, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pochhammer_maps_are_equal_exactly_when_the_nonzero_factors_are(seed):
    # the map keeps the differences of the running sum, which determine it
    rng = random.Random(seed)
    order = rng.randint(0, 12)
    a, b = _random_pochhammer_pair(rng, order)
    maps = [C.pochhammer_map(order, side) for side in (a, b)]
    nonzero = [
        {key: p for key, p in oracles.pochhammer_factors_by_k(order, side).items() if p}
        for side in (a, b)
    ]
    assert (maps[0] == maps[1]) == (nonzero[0] == nonzero[1])
    expanded = compare_factor_products(
        C.VARS, order, C._pochhammer_factors(order, a), C._pochhammer_factors(order, b)
    )
    assert C.compare_pochhammer_maps(order, *maps) == expanded


@pytest.mark.parametrize(
    "order, pochhammers, want",
    [
        (0, [(1, 2), (1, -2, -1)], {}),  # every start beyond the order
        (1, [(1, 2), (1, -2, -1)], {((1,), 1): 2, ((1,), -1): -2}),
        (3, [(4, 1), (2, 2), (2, -2, -1), (2, 2, -1)], {((2,), 1): 2}),  # beyond, and 0
        (4, [(0, 1), (0, -1), (-1, 0, -1), (2, 0)], {((0,), 1): 0, ((-1,), -1): 0}),
    ],
)
def test_pochhammer_map_drops_late_starts_and_zero_powers_from_1_on(order, pochhammers, want):
    assert C.pochhammer_map(order, pochhammers) == want


def test_pochhammer_map_refuses_a_negative_order_first():
    with pytest.raises(QSeriesError, match="order must be non-negative"):
        C.pochhammer_map(-1, [(0, 1)])


@pytest.mark.parametrize(
    "a, b",
    [
        ([(0, 1), (0, -1), (1, -4)], [(0, 1), (0, -1), (1, -4)]),  # equal, power 0 at start 0
        ([(1, -4)], [(-1, 2, -1), (1, -4)]),  # start -1 in b only
        # sign -1 is seen first, at a start beyond the order: its factor is named
        ([(9, 1, -1), (0, 2), (0, 1, -1)], [(1, -1)]),
    ],
)
def test_a_start_below_1_is_refused_as_the_factor_multiset_refuses_it(a, b):
    order = 5
    with pytest.raises(ConeViolation) as expanded:
        compare_factor_products(
            C.VARS, order, C._pochhammer_factors(order, a), C._pochhammer_factors(order, b)
        )
    with pytest.raises(ConeViolation) as got:
        C.compare_pochhammer_maps(order, C.pochhammer_map(order, a), C.pochhammer_map(order, b))
    assert str(got.value) == str(expanded.value)


def test_figure_pyramids_match_the_typed_figure_annotations():
    # the shift-matrix route (family index t per figure) rebuilds the rows
    for kind in C.FIGURES:
        for r in range(1, 12):
            assert figure_pyramid(kind, r) == oracles.figure_pyramid(kind, r), (kind, r)


@pytest.mark.parametrize("order", [*range(13), 23, 24, 30, 40])
def test_limits_equal_the_character_at_order_plus_total_shift(order):
    for (m, n, sub) in C.LIMITS:
        got = C.character_from_shift(ShiftMatrix(m, n, sub), order + sum(sub), order)
        assert compare(got, C.limit_series(m, n, sub, order)) is None, (m, n, sub)


def test_limits_differ_from_the_character_below_family_index_order():
    # the shortest row has length t, so t = order - 1 misses a generator
    for (m, n, sub) in C.LIMITS:
        got = C.character_from_shift(ShiftMatrix(m, n, sub), 11, 12)
        assert compare(got, C.limit_series(m, n, sub, 12)) is not None, (m, n, sub)


def test_unstored_limit_is_rejected():
    with pytest.raises(C.CharacterError):
        C.limit_series(3, 0, (0, 0), 4)


def test_mixed_nonrectangular_super_pyramid_warns():
    with pytest.warns(UserWarning):
        C.pyramid_from_shift(ShiftMatrix(1, 1, (1,)), 3)


def test_nested_equals_principal_character():
    for r in (1, 2, 3):
        got = P.nested_series(r, 8)
        want = C.character(C.generator_weights(C.single_row_pyramid(r)), 8)
        assert compare(got, want) is None
