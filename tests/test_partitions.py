import pytest

from quiverdt import partitions as P
from quiverdt.qseries import Mono, Substitution, coefficients_in_single_var, compare, substitute

import oracles


def coeffs(series):
    return coefficients_in_single_var(series)


# -- linear partitions ----------------------------------------------------------


def test_partition_series_values():
    assert coeffs(P.partition_series(6)) == [1, 1, 2, 3, 5, 7, 11]


def test_partition_counts_match_recurrence():
    for n in range(12):
        assert P.partition_counts(n)[n] == oracles.partition_count_dp(n)


def test_partition_counts_match_enumeration():
    counts = P.partition_counts(25)
    for n in range(26):
        by_enumeration = sum(1 for _ in oracles.partitions_of(n))
        assert P.partition_counts(n)[n] == counts[n] == by_enumeration == oracles.partition_count_dp(n)
    assert oracles.partition_count_dp(-1) == sum(1 for _ in oracles.partitions_of(-1)) == 0


def test_partition_count_at_large_order():
    # p(200), Hardy and Ramanujan's check value; enumeration cannot reach it
    assert P.partition_counts(200)[200] == 3972999029388


def test_tuple_series_rank_two():
    assert coeffs(P.tuple_series(2, 3)) == [1, 2, 5, 10]


def test_tuple_series_rank_zero_and_one():
    assert coeffs(P.tuple_series(0, 3)) == [1, 0, 0, 0]
    assert coeffs(P.tuple_series(1, 4)) == coeffs(P.partition_series(4))


def test_nested_series_example():
    assert coeffs(P.nested_series(2, 2)) == [1, 1, 3]


def test_nested_series_values_match_filter_oracle():
    for r in (1, 2, 3):
        assert coeffs(P.nested_series(r, 6)) == oracles.nested_counts_by_filter(r, 6)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_nested_series_matches_chain_oracle(r):
    for order in range(11):
        want: dict[tuple[int], int] = {}
        for chain in oracles.nested_chains(r, order):
            n = (sum(sum(lam) for lam in chain),)
            want[n] = want.get(n, 0) + 1
        assert P.nested_series(r, order).coeffs == want, order


@pytest.mark.parametrize("order", range(17))
def test_nested_ranks_from_one_call_match_a_count_per_rank(order):
    # a separate count per rank, narrowest first, then every rank from one
    # call: a first-row state shared between widths fails one or the other.
    # Rank 5 exceeds the small orders' row lengths, so the split ends early.
    per_rank = [P.nested_series(r, order) for r in range(1, 6)]
    for r, got in enumerate(per_rank, 1):
        want = oracles.row_chains(order, 1, (0, r))
        assert got.coeffs == {(n,): c for n, c in want.items()}, r
        assert got.vars == ("q",) and got.order == order
    assert P.nested_series_by_rank(5, order) == per_rank


def test_nested_monotone_in_rank():
    low = coeffs(P.nested_series(2, 8))
    high = coeffs(P.nested_series(3, 8))
    assert all(a <= b for a, b in zip(low, high))


# -- plane partitions --------------------------------------------------------------


def test_plane_partition_series_values():
    assert coeffs(P.plane_partition_series(6)) == [1, 1, 3, 6, 13, 24, 48]


def test_plane_partitions_match_box_pile_oracle():
    assert coeffs(P.plane_partition_series(8)) == oracles.plane_partition_counts_by_boxes(8)


def test_colored_plane_partitions_match_box_pile_oracle():
    got = P.plane_partition_series(6, colors=2)
    want = oracles.colored_plane_partition_counts_by_boxes(6, 2)
    assert got.coeffs == {k: v for k, v in want.items() if v}


def test_pit_row_bound_equals_nested():
    for r in (1, 2, 3):
        pit = P.plane_partition_series(8, pit=(r, 0))
        nested = P.nested_series(r, 8)
        assert compare(pit, nested) is None


def test_pit_beyond_order_is_unconstrained():
    assert compare(
        P.plane_partition_series(6, pit=(10, 10)), P.plane_partition_series(6)
    ) is None


def test_pit_transpose_symmetry():
    # (0, N) bounds columns: the transpose convention of (N, 0)
    assert compare(
        P.plane_partition_series(7, pit=(0, 2)), P.plane_partition_series(7, pit=(2, 0))
    ) is None


def test_pit_general_counts_are_between():
    unconstrained = coeffs(P.plane_partition_series(6))
    rows2 = coeffs(P.plane_partition_series(6, pit=(2, 0)))
    pit21 = coeffs(P.plane_partition_series(6, pit=(2, 1)))
    assert all(a <= b <= c for a, b, c in zip(rows2, pit21, unconstrained))


@pytest.mark.parametrize("pit", [None, (2, 0), (0, 2), (2, 1), (10, 10)])
@pytest.mark.parametrize("colors", [None, 1, 2, 3])
def test_plane_partition_series_matches_row_oracle(colors, pit):
    # (0, N) is checked against the transposed (N, 0) partitions, which moves
    # color c to -c mod m
    for order in range(11):
        got = P.plane_partition_series(order, colors=colors, pit=pit)
        assert got.coeffs == oracles.plane_partition_weights(order, colors, pit), order
        assert got.vars == (("q",) if colors is None else tuple(f"q{c}" for c in range(colors)))


PITS = [None] + [(0, n) for n in (1, 2, 3)] + [(k, 0) for k in (1, 2, 3)] + [
    (k, n) for k in (1, 2, 3) for n in (1, 2, 3)
]


@pytest.mark.parametrize("pit", PITS, ids=str)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_row_chains_match_the_full_row_key_counter(m, pit):
    # the clipped memo key and the first-row split count what the counter
    # keyed on the full row counts
    for order in range(13):
        bound = pit if pit is not None else (0, order)
        by_length = P._row_chains(order, m, bound)
        assert P._merged(by_length) == oracles.row_chains(order, m, bound), order
        assert by_length[0] == {0: 1}


def test_plane_partition_bad_arguments():
    for pit in ((0, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="pit"):
            P.plane_partition_series(4, pit=pit)
    with pytest.raises(ValueError, match="color modulus"):
        P.plane_partition_series(4, colors=0)
    with pytest.raises(ValueError):
        P.plane_partition_series(-1)


def test_colored_collapse_to_uncolored():
    colored = P.plane_partition_series(8, colors=3)
    sub = Substitution(
        ("q0", "q1", "q2"), ("q",), {f"q{c}": Mono(1, (1,)) for c in range(3)}
    )
    assert compare(substitute(sub, colored), P.plane_partition_series(8)) is None


def test_order_envelope_enforced():
    with pytest.raises(P.OrderTooLarge):
        P.plane_partition_series(19)
    with pytest.raises(P.OrderTooLarge):
        P.pyramid_series(22)


# -- pyramids ------------------------------------------------------------------------


def test_pyramid_small_configurations():
    s = P.pyramid_series(3)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == 1  # single apex stone, color 0
    assert s.coefficient((0, 1)) == 0  # color-1 stones need the apex
    assert s.coefficient((1, 1)) == 2
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == 4


def test_pyramid_specialization_q1_zero():
    s = P.pyramid_series(5)
    only_q0 = {e: c for e, c in s.coeffs.items() if e[1] == 0}
    assert only_q0 == {(0, 0): 1, (1, 0): 1}


def test_pyramid_supports_need_both_stones():
    # two color-0 stones cannot appear without at least one color-1 stone
    s = P.pyramid_series(4)
    assert s.coefficient((2, 0)) == 0


@pytest.mark.parametrize("order", range(11))
def test_pyramid_series_matches_atom_walk_oracle(order):
    want: dict[tuple[int, int], int] = {}
    for key in oracles.pyramid_configurations(order):
        want[key] = want.get(key, 0) + 1
    assert P.pyramid_series(order).coeffs == want


# the weights the BFS oracle gave at order 6 when it read the package's atom
# poset; its own stone builder must reproduce them
PYRAMID_WEIGHTS_6 = {
    (0, 0): 1, (1, 0): 1, (1, 1): 2, (1, 2): 1, (2, 1): 4, (2, 2): 8,
    (2, 3): 4, (3, 1): 2, (3, 2): 14, (3, 3): 24, (4, 2): 8,
}


def test_pyramid_stone_oracle_reproduces_recorded_weights():
    for order in range(7):
        want = {k: v for k, v in PYRAMID_WEIGHTS_6.items() if sum(k) <= order}
        assert oracles.pyramid_weights_by_bfs(order) == want, order


def test_pyramid_matches_bfs_oracle():
    got = P.pyramid_series(6)
    want = oracles.pyramid_weights_by_bfs(6)
    assert got.coeffs == {k: v for k, v in want.items() if v}


# -- blowup --------------------------------------------------------------------------


def test_blowup_constant_and_half_power():
    s = P.blowup_series(4)
    assert s.coefficient((0,)) == 1  # q^0: k = 0, empty pair
    assert s.coefficient((1,)) == 2  # q^(1/2): k = +-1
    assert s.coefficient((2,)) == 2  # q^1: k = 0 with one box, two slots


def test_blowup_matches_direct_term_count():
    s = P.blowup_series(3)
    # q^(3/2): k = +-1 with one extra box in either partition slot
    assert s.coefficient((3,)) == 2 * 2


def test_blowup_k_range_restriction():
    zero_sector = P.blowup_series(4, k_max=0)
    assert all(e[0] % 2 == 0 for e in zero_sector.coeffs)
    assert zero_sector.coefficient((2,)) == 2  # two single-box pairs at k = 0
