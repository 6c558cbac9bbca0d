"""The named compare targets all pass; these back the CLI compare command."""

import json

import pytest

from quiverdt import catalog, checks, monad, ncalg
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
