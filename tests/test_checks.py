"""The named compare targets all pass; these back the CLI compare command."""

import itertools
import json
from functools import partial
from math import prod

import pytest

import oracles
from quiverdt import catalog, checks, monad, ncalg, partitions
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


def test_failed_monad_certification_exits_one_naming_the_entry(monkeypatch, capsys):
    real = catalog.monad_case

    def y20_without_relations(tpl_id):
        c, rels = real(tpl_id)
        if tpl_id == "y20":
            rels = ncalg.RelationSet(rels.quiver, [])
        return c, rels

    monkeypatch.setattr(catalog, "monad_case", y20_without_relations)
    c, rels = y20_without_relations("y20")
    first = monad.certify_d_squared(c, rels).failures[0]
    where = f"stage {first.stage} entry ({first.row},{first.col}) monomial {first.exps}"

    assert run(["compare", "monad-certification"]) == 1
    out = capsys.readouterr().out
    assert "monad-certification (y20): FAILED" in out and where in out

    assert run(["compare", "monad-certification", "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["name"] == "monad-certification (y20)"
    assert entry["equal"] is False and where in entry["detail"]


@pytest.mark.parametrize("order", [24, 30])
def test_character_limits_run_at_every_order(order, capsys):
    assert run(["compare", "character-limits", "--order", str(order)]) == 0
    assert f"character-limits: equal through total degree {order}" in capsys.readouterr().out


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
