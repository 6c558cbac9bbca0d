import dataclasses
import random
from fractions import Fraction

import pytest

import oracles
from quiverdt import catalog, framing, linalg, monad, ncalg


def c3_complex():
    tpl = catalog.get_monad_template("c3")
    q, w = catalog.get_quiver_with_potential("c3")
    rels = ncalg.relations_from_potential(q, w)
    return monad.assemble(tpl), rels


# -- assembly ------------------------------------------------------------------


def test_c3_assembled_entries():
    c, _ = c3_complex()
    first = c.diffs[0][0][0]
    assert first == {((0, 0, 0), ("B1",)): Fraction(1), ((1, 0, 0), ()): Fraction(-1)}


def test_adhm_assembled_shape():
    c = monad.assemble(catalog.get_monad_template("adhm3d"))
    assert len(c.diffs[0]) == 4 and len(c.diffs[1]) == 4 and len(c.diffs[2]) == 1
    # fourth row of the middle differential carries the framing block z
    corner = c.diffs[1][3][3]
    assert corner == {((0, 0, 1), ()): 1}


def test_ny_assembled_quadratic_entries():
    c = monad.assemble(catalog.get_monad_template("ny3d"))
    top_left = c.diffs[1][0][0]
    assert ((0, 1, 1), ()) in top_left  # the zy part
    assert ((0, 0, 0), ("C", "D")) in top_left  # quadratic word, C traversed first


def _with_entry(tpl, stage, i, j, entry):
    """A copy of the template with one differential entry replaced."""
    diffs = [[list(row) for row in mat] for mat in tpl.diffs]
    diffs[stage][i][j] = entry
    return dataclasses.replace(
        tpl, label="broken", diffs=tuple(tuple(map(tuple, mat)) for mat in diffs)
    )


def test_assemble_names_stage_and_entry_of_unknown_arrow():
    bad = _with_entry(catalog.get_monad_template("c3"), 1, 2, 0, {((0, 0, 0), ("ZZ",)): Fraction(1)})
    with pytest.raises(monad.MonadError, match=r"stage 1 entry \(2,0\): word \('ZZ',\) uses unknown arrow ZZ"):
        monad.assemble(bad)


# -- certification ---------------------------------------------------------------


def assert_certificates_expand(c, rels, report):
    """Every certificate re-expands to the composite component it certifies."""
    for cert in report.entries:
        entry = monad.compose_stage(c, cert.stage)[cert.row][cert.col]
        component = monad.entry_to_ncpolys(entry, c.terms[cert.stage][cert.col].vertex)[cert.exps]
        assert cert.membership.certificate.expand(rels.quiver, rels) == component


def test_certify_c3():
    c, rels = c3_complex()
    report = monad.certify_d_squared(c, rels)
    assert report.certified
    assert_certificates_expand(c, rels, report)


def test_certify_fails_with_empty_relations():
    c, _ = c3_complex()
    q, _ = catalog.get_quiver_with_potential("c3")
    empty = ncalg.RelationSet(q, [])
    report = monad.certify_d_squared(c, empty)
    assert not report.certified
    residual = report.failures[0].membership.residual
    assert residual is not None and not residual.is_zero()


# template -> number of nonzero d^2 components certified
COMPONENTS = {
    "c3": 6,
    "y20": 12,
    "pervsystem-c3": 6,
    "pervsystem-conifold": 8,
    "adhm3d": 8,
    "kn": 14,
    "ny3d": 10,
}


@pytest.mark.parametrize("template_id", catalog.monad_template_ids())
def test_certify_all_templates(template_id):
    c, rels = catalog.monad_case(template_id)
    report = monad.certify_d_squared(c, rels)
    assert report.certified
    assert len(report.entries) == COMPONENTS[template_id]
    assert_certificates_expand(c, rels, report)


@pytest.mark.parametrize("template_id", catalog.monad_template_ids())
def test_certificates_equal_those_of_eliminating_every_product(template_id, monkeypatch):
    """The rows a component reaches reduce it as every product of its
    endpoint pair does: the same parts, in the same order."""
    c, rels = catalog.monad_case(template_id)
    report = monad.certify_d_squared(c, rels)
    monkeypatch.setattr(monad, "MembershipSystem", oracles.EagerMembershipSystem)
    eager = monad.certify_d_squared(c, rels)
    assert report.membership["rows"] < eager.membership["rows"]
    assert [(e.stage, e.row, e.col, e.exps, e.membership) for e in report.entries] == [
        (e.stage, e.row, e.col, e.exps, e.membership) for e in eager.entries
    ]


def test_integral_coefficients_stay_int_through_composition():
    """Template entries and their composites keep integral coefficients as
    ``int``; only the certificates carry ``Fraction``."""
    for template_id in catalog.monad_template_ids():
        c, rels = catalog.monad_case(template_id)
        composites = [monad.compose_stage(c, k) for k in range(len(c.diffs) - 1)]
        coeffs = [x for mat in (*c.diffs, *composites) for row in mat for e in row for x in e.values()]
        assert coeffs and all(type(x) is int for x in coeffs), template_id
        report = monad.certify_d_squared(c, rels)
        parts = [p for e in report.entries for p in e.membership.certificate.parts]
        assert parts and all(type(p[0]) is Fraction for p in parts), template_id


@pytest.mark.parametrize("template_id", catalog.monad_template_ids())
def test_monad_case_uses_framed_relations_exactly_for_framed_templates(template_id):
    c, rels = catalog.monad_case(template_id)
    fq = catalog.get_framed_example(template_id)
    assert isinstance(rels, ncalg.RelationSet)
    assert c.quiver == fq.quiver
    expanded, w = framing.expand(framing.specialize(fq, framing.FramingStructure.zero(fq)))
    assert rels.quiver == expanded
    assert list(rels) == list(ncalg.relations_from_potential(expanded, w))


# -- numeric evaluation ------------------------------------------------------------


def test_evaluate_one_point_origin():
    c, rels = c3_complex()
    rep, _, _ = framing.numeric_solution_builder([(0, 0)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    res = monad.evaluate(c, rep, {"0": 1}, (0, 0, 0), relations=rels, resolution_certified=True)
    assert res.d_squared_zero
    assert res.sheaf_fibers == [0, 0, 0, 1]
    assert res.fiber_cohomology == [1, 3, 3, 1]


def test_evaluate_away_from_support():
    c, rels = c3_complex()
    rep, _, _ = framing.numeric_solution_builder([(0, 0)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    res = monad.evaluate(c, rep, {"0": 1}, (1, 1, 1), relations=rels)
    assert res.fiber_cohomology == [0, 0, 0, 0]
    assert res.sheaf_fibers == [0, 0, 0, 0]


def test_evaluate_total_cohomology_counts_points():
    c, rels = c3_complex()
    pts = [(0, 0), (1, 0), (2, 5)]
    rep, _, _ = framing.numeric_solution_builder(pts)
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    total = 0
    for p in pts:
        res = monad.evaluate(
            c, rep, {"0": 3}, (p[0], p[1], 0), relations=rels, resolution_certified=True
        )
        total += res.sheaf_fibers[-1]
    assert total == 3


def test_evaluate_rejects_bad_representation():
    c, rels = c3_complex()
    rep = {
        "B1": ((0, 1), (0, 0)),
        "B2": ((0, 0), (1, 0)),
        "B3": linalg.zeros(2, 2),
    }
    with pytest.raises(monad.RelationsViolated):
        monad.evaluate(c, rep, {"0": 2}, (0, 0, 0), relations=rels)


def test_evaluate_refuses_a_ragged_matrix():
    c, rels = c3_complex()
    rep = {"B1": ((0, 1), (0,)), "B2": linalg.zeros(2, 2), "B3": linalg.zeros(2, 2)}
    with pytest.raises(ncalg.ShapeMismatch, match="arrow B1"):
        monad.evaluate(c, rep, {"0": 2}, (0, 0, 0), relations=rels)


def test_evaluate_names_an_arrow_without_a_matrix():
    c, rels = c3_complex()
    rep, dims = {"B1": linalg.zeros(2, 2)}, {"0": 2}
    with pytest.raises(ncalg.ShapeMismatch, match="^arrow B3: no matrix$"):
        monad.evaluate(c, rep, dims, (0, 0, 0), relations=rels)
    # with no relations to check first, the differentials' own words ask
    with pytest.raises(ncalg.ShapeMismatch, match="^arrow B2: no matrix$"):
        monad.evaluate(c, rep, dims, (0, 0, 0), relations=ncalg.RelationSet(rels.quiver, []))


def test_d_squared_numerically_zero_at_random_points():
    c, rels = c3_complex()
    rep, _, _ = framing.numeric_solution_builder([(1, 2), (3, 4)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    rng = random.Random(11)
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        res = monad.evaluate(c, rep, {"0": 2}, pt, relations=rels)
        assert res.d_squared_zero


def test_adhm_evaluate_generic_point_exact():
    c, rels = catalog.monad_case("adhm3d")
    rep, _, _ = framing.numeric_solution_builder([(2, 3)])
    res = monad.evaluate(
        c, rep, {"0": 1, "inf": 1}, (5, 7, 1), relations=rels
    )
    assert res.d_squared_zero
    assert res.fiber_cohomology == [0, 0, 0, 0]


def test_y20_monad_resolves_curve_module():
    """The simple module at the first vertex is supported along the
    exceptional curve {x = 0, y = 0}: the evaluated complex is exact away
    from it and has one-dimensional last-slot fibres along it."""
    tpl = catalog.get_monad_template("y20")
    q, w = catalog.get_quiver_with_potential("y20")
    rels = ncalg.relations_from_potential(q, w)
    c = monad.assemble(tpl)
    dims = {"0": 1, "1": 0}
    rep = {
        a.name: linalg.zeros(dims[a.tgt], dims[a.src]) for a in q.arrows
    }
    for z in (0, 5):
        res = monad.evaluate(c, rep, dims, (0, 0, z), relations=rels)
        assert res.d_squared_zero and res.sheaf_fibers[-1] == 1
    for pt in ((1, 1, 1), (0, 3, 2), (2, 0, 0)):
        res = monad.evaluate(c, rep, dims, pt, relations=rels)
        assert res.fiber_cohomology == [0, 0, 0, 0]


def test_conifold_monad_resolves_curve_module():
    """Same support check for the small-resolution chart: the rank-(1,0)
    simple sits along {x = 0, y = 0} with the third coordinate free."""
    c, rels = catalog.monad_case("pervsystem-conifold")
    dims = {"0": 1, "1": 0, "inf": 0}
    rep = {a.name: linalg.zeros(dims[a.tgt], dims[a.src]) for a in rels.quiver.arrows}
    for z in (0, 7):
        res = monad.evaluate(c, rep, dims, (0, 0, z), relations=rels)
        assert res.d_squared_zero and res.sheaf_fibers[-1] == 1
    for pt in ((1, 0, 0), (0, 1, 3), (2, 3, 4)):
        res = monad.evaluate(c, rep, dims, pt, relations=rels)
        assert res.fiber_cohomology == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "template, want",
    [
        ("adhm3d", {(0, 0, 0): [0, 1, 1, 0], (1, 2, 3): [0, 0, 0, 0]}),
        ("pervsystem-c3", {(0, 0, 0): [0, 0, 1, 0], (1, 2, 3): [0, 0, 1, 0]}),
    ],
)
def test_evaluate_with_empty_gauge_vertex(template, want):
    """V = 0: a target slot at the framing vertex whose source slots all sit
    at the gauge vertex keeps its rows, of width 0."""
    c, rels = catalog.monad_case(template)
    dims = {"0": 0, "inf": 1}
    rep = {a.name: linalg.zeros(dims[a.tgt], dims[a.src]) for a in rels.quiver.arrows}
    for pt, fiber in want.items():
        res = monad.evaluate(c, rep, dims, pt, relations=rels)
        assert res.d_squared_zero
        assert res.fiber_cohomology == fiber


def test_validate_rejects_ill_typed_entry():
    tpl = catalog.get_monad_template("pervsystem-conifold")
    # d1 entry (0,1) holds B (vertex 1 -> 0); B*B does not compose
    assert tpl.diffs[0][0][1] == {((0, 0, 0), ("B",)): 1}
    bad = _with_entry(tpl, 0, 0, 1, {((0, 0, 0), ("B", "B")): Fraction(-1)})
    with pytest.raises(monad.MonadError, match=r"stage 0 entry \(0,1\): word \('B', 'B'\) is not composable"):
        monad.assemble(bad)


def test_validate_rejects_ragged_differential():
    tpl = catalog.get_monad_template("c3")
    bad = dataclasses.replace(tpl, diffs=(tpl.diffs[0][:2],) + tpl.diffs[1:])
    with pytest.raises(monad.MonadError, match="stage 0: differential is not 3 x 1"):
        monad.assemble(bad)
