"""The named compare targets all pass; these back the CLI compare command."""

import json
from functools import partial

import pytest

import oracles
from quiverdt import catalog, checks, monad, ncalg, partitions
from quiverdt.cli import run


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


@pytest.mark.parametrize("m", [4, 5])
def test_ym0_ncdt_beyond_the_compare_targets(m):
    count = partial(partitions.plane_partition_series, colors=m)
    result = checks.check_ymn_ncdt("0" * m, count, 8, f"y{m}0-ncdt")
    assert result.equal, result.describe()


def test_stray_key_error_in_compare_is_not_reported_as_unknown_target(monkeypatch):
    def broken(order=10):
        raise KeyError("q7")

    monkeypatch.setitem(checks.COMPARE_TARGETS, "conifold-ncdt", broken)
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
    assert "monad (y20): FAILED" in out and where in out

    assert run(["compare", "monad-certification", "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["equal"] is False and where in entry["detail"]
