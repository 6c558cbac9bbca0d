import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from quiverdt import characters as C
from quiverdt import partitions as P
from quiverdt.catalog import ShiftMatrix
from quiverdt.qseries import coefficients_in_single_var, compare


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
        pyramid_side = oracles.factor_product_by_factors(("q",), 20, C.character_factors(ws, 20))
        figure_side = oracles.factor_product_by_factors(("q",), 20, C.figure_factors(kind, r, 20))
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
