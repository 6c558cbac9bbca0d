"""The named compare targets all pass; these back the CLI compare command."""

import itertools
import json
import re
from functools import partial
from math import prod

import pytest

import oracles
from quiverdt import catalog, characters, checks, ncalg, partitions, qseries
from quiverdt.catalog import ShiftMatrix
from quiverdt.cli import run
from quiverdt.qseries import QSeries, compare


@pytest.mark.parametrize("name", sorted(checks.COMPARE_TARGETS))
def test_compare_target_passes(name):
    result = checks.run_check(name)
    assert result.equal, result.describe()


def test_compare_all_cli_exits_zero(capsys):
    assert run(["compare", "all"]) == 0
    out = capsys.readouterr().out
    assert out.count("equal through") >= 9


def test_compare_with_reduced_order(capsys):
    assert run(["compare", "conifold-ncdt", "--order", "6"]) == 0


def test_unknown_target_usage_error():
    assert run(["compare", "not-a-target"]) == 2


@pytest.mark.parametrize("order", range(15))
def test_ymn_product_matches_macmahon_by_macmahon_oracle(order):
    conifold, y20 = (oracles.xq_ncdt_product(order, inverse_outer=e) for e in (True, False))
    assert checks.ymn_ncdt_product("01", order) == conifold
    assert checks.ymn_ncdt_product("00", order) == y20
    for m in (2, 3, 4):
        assert checks.ymn_ncdt_product("0" * m, order) == oracles.ym0_ncdt_product(m, order)


SIGMAS_UP_TO_5 = ["0" + "".join(t) for n in range(5) for t in itertools.product("01", repeat=n)]


@pytest.mark.parametrize("sigma", SIGMAS_UP_TO_5)
def test_ymn_product_matches_the_laurent_substitution_oracle(sigma):
    """Every sigma with sigma_0 = 0 of length <= 5, period-3 ones such as
    001 and 011 included, at orders 0-6."""
    for order in range(7):
        want = oracles.ymn_ncdt_product_by_substitution(sigma, order)
        assert checks.ymn_ncdt_product(sigma, order).dumps() == want.dumps(), order


def test_euler_form_twist_matches_the_parity_sequence_rule():
    """For every sigma with sigma_0 = 0 and N <= 6, at every d in {0,1,2}^N,
    (-1)^(d_0 + chi(d, d)) on the quiver of sigma is the product of the sign
    flips the sigma rule gives, and :func:`checks.fixed_point_flips` reads
    the same flips off the quiver."""
    vectors = 0
    for n in range(1, 7):
        for tail in itertools.product("01", repeat=n - 1):
            sigma = "0" + "".join(tail)
            q, _ = catalog._ymn(sigma)
            flips = oracles.ymn_sign_flips(sigma)
            assert checks.fixed_point_flips(q) == flips, sigma
            for d in itertools.product(range(3), repeat=n):
                dims = dict(zip(q.vertices, d))
                sign = (-1) ** (d[0] + ncalg.chi_form(q, dims, dims))
                assert sign == prod((-1) ** (f * k) for f, k in zip(flips, d))
                vectors += 1
    assert vectors == 27993


@pytest.mark.parametrize("m", [4, 5])
def test_ym0_ncdt_beyond_the_compare_targets(m):
    count = partial(partitions.plane_partition_series, colors=m)
    ((label, got, want),) = checks.ymn_ncdt_cases("0" * m, count, 8)
    assert label is None and compare(got, want) is None


def test_stray_key_error_in_compare_is_not_reported_as_unknown_target(monkeypatch):
    def broken(order):
        raise KeyError("q7")
        yield

    monkeypatch.setitem(checks.COMPARE_TARGETS, "conifold-ncdt", (10, broken))
    with pytest.raises(KeyError):
        run(["compare", "conifold-ncdt"])


def test_order_on_an_orderless_target_is_usage_error(capsys):
    assert run(["compare", "monad-certification", "--order", "5"]) == 2
    captured = capsys.readouterr()
    assert "monad-certification" in captured.err and captured.out == ""


def test_compare_all_applies_order_to_targets_that_take_one(capsys):
    assert run(["compare", "all", "--order", "5", "--json"]) == 0
    orders = {e["name"]: e["order"] for e in json.loads(capsys.readouterr().out)}
    assert orders.pop("monad-certification") == 0
    assert set(orders.values()) == {5} and len(orders) == len(checks.COMPARE_TARGETS) - 1


def test_monad_certification_text_line_counts_the_templates_certified(capsys):
    assert run(["compare", "monad-certification"]) == 0
    out = capsys.readouterr().out
    templates = len(catalog.monad_template_ids())
    assert re.fullmatch(rf"monad-certification: {templates} templates certified \(\d+\.\d\ds\)\n", out)

    assert run(["compare", "monad-certification", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"name": "monad-certification", "equal": True, "order": 0, "mismatch": None}
    ]


def test_failed_monad_certification_exits_one_naming_the_entry(monkeypatch, capsys):
    real = catalog.monad_case

    def y20_without_relations(tpl_id):
        c, rels = real(tpl_id)
        if tpl_id == "y20":
            rels = ncalg.RelationSet(rels.quiver, [])
        return c, rels

    monkeypatch.setattr(catalog, "monad_case", y20_without_relations)
    detail = "y20: stage 0 entry (0,0) monomial (0, 0, 0) has residual -A*D + C*B"

    assert run(["compare", "monad-certification"]) == 1
    assert capsys.readouterr().out == f"monad-certification (y20): FAILED: {detail}\n"

    assert run(["compare", "monad-certification", "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["name"] == "monad-certification (y20)"
    assert entry["equal"] is False and entry["detail"] == detail


@pytest.mark.parametrize("order", [24, 30])
def test_character_limits_run_at_every_order(order, capsys):
    assert run(["compare", "character-limits", "--order", str(order)]) == 0
    assert f"character-limits: equal through total degree {order}" in capsys.readouterr().out


# a figure whose product has one (1 - q^k)^-4 pochhammer too many, and a
# limit whose odd part stops one k short; the names, mismatches and exit
# codes are those of the coefficientwise compare of the two expansions
OFF_BY_ONE = {
    "character-figures": (
        lambda mp: mp.setitem(
            characters.FIGURES, "gl2-s0",
            (ShiftMatrix(2, 0, (0,)), lambda r: r, lambda r: characters._upto(r + 1, -4)),
        ),
        "character-figures (gl2-s0, r=1)", {None: ((2,), 14, 18), 7: ((2,), 14, 18)},
    ),
    "character-limits": (
        lambda mp: mp.setitem(
            characters.LIMITS, (1, 1, (0,)),
            lambda order: characters._upto(order, -2) + characters._upto(order - 1, 2, -1),
        ),
        "character-limits (m=1, n=1, sub=(0,))",
        {None: ((12,), 334752, 334750), 7: ((7,), 3896, 3894)},
    ),
}


@pytest.mark.parametrize("target", sorted(OFF_BY_ONE))
def test_character_targets_name_the_first_mismatch_of_an_off_by_one_row(
    target, monkeypatch, capsys
):
    patch, name, mismatches = OFF_BY_ONE[target]
    patch(monkeypatch)
    for order, mismatch in mismatches.items():
        result = checks.run_check(target, order)
        want_order = checks.COMPARE_TARGETS[target][0] if order is None else order
        assert (result.name, result.equal, result.order) == (name, False, want_order)
        assert result.mismatch == mismatch and result.detail is None

    assert run(["compare", target, "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    exps, a, b = mismatches[None]
    assert entry == {
        "name": name,
        "equal": False,
        "order": checks.COMPARE_TARGETS[target][0],
        "mismatch": {"exp": list(exps), "a": a, "b": b},
    }


@pytest.mark.parametrize("target, order", [("character-figures", 40), ("character-limits", 30)])
def test_character_targets_expand_no_product_when_the_multisets_agree(target, order, monkeypatch):
    def refuse(*args):
        raise AssertionError("factor_product was called")

    def refuse_multiset(*args):
        raise AssertionError("a factor multiset was built")

    for module in (qseries, characters, checks):
        monkeypatch.setattr(module, "factor_product", refuse)
    monkeypatch.setattr(characters, "_pochhammer_factors", refuse_multiset)
    assert checks.run_check(target, order).equal


# a figure row that starts at w = 0, once with power -4 and once with power
# 0 there; the messages were captured before the targets compared maps
CONE_VIOLATIONS = [
    (lambda r: [(w, -4) for w in range(r + 1)], "(1 - m)**-4 for m = (0,)"),
    (lambda r: [(0, 1), (0, -1)] + characters._upto(r, -4), "(1 - m)**0 for m = (0,)"),
]


@pytest.mark.parametrize("row, factor", CONE_VIOLATIONS)
def test_a_figure_row_starting_at_w_0_is_refused_as_before(row, factor, monkeypatch, capsys):
    monkeypatch.setitem(characters.FIGURES, "gl2-s0", (ShiftMatrix(2, 0, (0,)), lambda r: r, row))
    message = (
        f"{factor} leaves the truncation cone; m needs non-negative exponents and degree >= 1"
    )
    for order in (None, 0, 3):
        with pytest.raises(qseries.ConeViolation) as refused:
            checks.run_check("character-figures", order)
        assert str(refused.value) == message
    assert run(["compare", "character-figures"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_runner_names_the_first_differing_case_and_builds_no_later_one(monkeypatch, capsys):
    built = []

    def cases(order):
        one = QSeries.one(("q",), order)
        for label, coeff in (("first", 1), ("second", 2), ("third", 1)):
            built.append(label)
            yield label, one, QSeries.monomial(("q",), order, (0,), coeff)

    monkeypatch.setitem(checks.COMPARE_TARGETS, "c3-dt", (3, cases))
    result = checks.run_check("c3-dt")
    assert built == ["first", "second"]
    assert (result.name, result.equal, result.order) == ("c3-dt (second)", False, 3)
    assert result.mismatch == ((0,), 1, 2) and result.detail is None

    assert run(["compare", "c3-dt", "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["name"] == "c3-dt (second)" and entry["mismatch"] == {"exp": [0], "a": 1, "b": 2}


def test_nested_gl_names_the_first_wrong_rank_of_the_one_call(monkeypatch, capsys):
    # the four ranks come from one call; a wrong rank 2 still names rank 2
    real = partitions.nested_series_by_rank

    def wrong_rank_two(r, order):
        by_rank = real(r, order)
        by_rank[1] = by_rank[1] + QSeries.monomial(("q",), order, (3,), 1)
        return by_rank

    monkeypatch.setattr(partitions, "nested_series_by_rank", wrong_rank_two)
    result = checks.run_check("nested-gl", 6)
    assert (result.name, result.equal, result.order) == ("nested-gl (rank 2)", False, 6)
    e, got, want = result.mismatch
    assert e == (3,) and got == want + 1

    assert run(["compare", "nested-gl", "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["name"] == "nested-gl (rank 2)" and entry["equal"] is False


def test_runner_reports_a_case_that_is_not_a_series_by_its_detail(monkeypatch):
    def cases(order):
        yield "fine", None, None
        yield "broken", "entry (0,1) is not in the ideal", None

    monkeypatch.setitem(checks.COMPARE_TARGETS, "monad-certification", (None, cases))
    result = checks.run_check("monad-certification", 7)
    assert (result.name, result.order, result.mismatch) == ("monad-certification (broken)", 0, None)
    assert result.describe() == (
        "monad-certification (broken): FAILED: entry (0,1) is not in the ideal"
    )


ORDERED = [name for name, (default, _) in checks.COMPARE_TARGETS.items() if default is not None]


@pytest.mark.parametrize("name", ORDERED)
def test_negative_order_is_usage_error_naming_the_order(name, capsys):
    assert run(["compare", name, "--order", "-1"]) == 2
    assert capsys.readouterr().err == "error: order must be non-negative\n"
