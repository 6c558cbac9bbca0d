import random
from fractions import Fraction

import pytest

from quiverdt import catalog, framing, linalg, monad, ncalg


def c3_complex():
    tpl = catalog.get_monad_template("c3")
    q, w = catalog.get_quiver_with_potential("c3")
    rels = ncalg.relations_from_potential(q, w)
    return monad.assemble(tpl, [a.name for a in q.arrows]), rels


def framed_relations(example):
    fq = catalog.get_framed_example(example)
    return framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq)))


# -- assembly ------------------------------------------------------------------


def test_c3_assembled_entries():
    c, _ = c3_complex()
    first = c.diffs[0][0][0]
    assert first == {((0, 0, 0), ("B1",)): Fraction(1), ((1, 0, 0), ()): Fraction(-1)}


def test_adhm_assembled_shape():
    tpl = catalog.get_monad_template("adhm3d")
    rels = framed_relations("adhm3d")
    c = monad.assemble(
        tpl, [a.name for a in rels.quiver.arrows], marked_values={"Af": 0}
    )
    assert len(c.diffs[0]) == 4 and len(c.diffs[1]) == 4 and len(c.diffs[2]) == 1
    # fourth row of the middle differential carries the framing block -z
    corner = c.diffs[1][3][3]
    assert corner == {((0, 0, 1), ()): Fraction(-1)}


def test_ny_assembled_quadratic_entries():
    tpl = catalog.get_monad_template("ny3d")
    rels = framed_relations("ny3d")
    c = monad.assemble(tpl, [a.name for a in rels.quiver.arrows])
    top_left = c.diffs[1][0][0]
    assert ((0, 1, 1), ()) in top_left  # the zy part
    assert ((0, 0, 0), ("C", "D")) in top_left  # quadratic word, C traversed first


def test_assemble_role_mismatch():
    tpl = catalog.get_monad_template("c3")
    with pytest.raises(monad.RoleMismatch):
        monad.assemble(tpl, ["B1", "B2"])  # B3 missing


def test_marked_symbol_left_unbound_stays_in_entries():
    tpl = catalog.get_monad_template("adhm3d")
    rels = framed_relations("adhm3d")
    c = monad.assemble(tpl, [a.name for a in rels.quiver.arrows])
    corner = c.diffs[1][3][3]
    assert ((0, 0, 0), ("Af",)) in corner


# -- certification ---------------------------------------------------------------


def test_certify_c3():
    c, rels = c3_complex()
    report = monad.certify_d_squared(c, rels)
    assert report.certified
    # certificates re-expand to the composite entries they certify
    for cert in report.entries:
        entry = monad.compose_stage(c, cert.stage)[cert.row][cert.col]
        component = monad.entry_to_ncpolys(entry, c.terms[cert.stage][cert.col].vertex)[cert.exps]
        assert cert.membership.certificate.expand(rels.quiver, rels) == component


def test_certify_fails_with_empty_relations():
    c, _ = c3_complex()
    q, _ = catalog.get_quiver_with_potential("c3")
    empty = ncalg.RelationSet(q, [])
    report = monad.certify_d_squared(c, empty)
    assert not report.certified
    residual = report.failures[0].membership.residual
    assert residual is not None and not residual.is_zero()


def test_certify_can_raise_not_in_ideal():
    c, _ = c3_complex()
    q, _ = catalog.get_quiver_with_potential("c3")
    empty = ncalg.RelationSet(q, [])
    with pytest.raises(monad.NotInIdeal):
        monad.certify_d_squared(c, empty, raise_on_failure=True)


@pytest.mark.parametrize("template_id", catalog.monad_template_ids())
def test_certify_all_templates(template_id):
    c, rels = catalog.monad_case(template_id)
    assert monad.certify_d_squared(c, rels).certified


# -- numeric evaluation ------------------------------------------------------------


def test_evaluate_one_point_origin():
    c, rels = c3_complex()
    rep, _ = framing.numeric_solution_builder([(0, 0)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    res = monad.evaluate(c, rep, {"0": 1}, (0, 0, 0), relations=rels, resolution_certified=True)
    assert res.d_squared_zero
    assert res.sheaf_fibers == [0, 0, 0, 1]
    assert res.fiber_cohomology == [1, 3, 3, 1]


def test_evaluate_away_from_support():
    c, rels = c3_complex()
    rep, _ = framing.numeric_solution_builder([(0, 0)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    res = monad.evaluate(c, rep, {"0": 1}, (1, 1, 1), relations=rels)
    assert res.fiber_cohomology == [0, 0, 0, 0]
    assert res.sheaf_fibers == [0, 0, 0, 0]


def test_evaluate_total_cohomology_counts_points():
    c, rels = c3_complex()
    pts = [(0, 0), (1, 0), (2, 5)]
    rep, _ = framing.numeric_solution_builder(pts)
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
        "B1": linalg.mat([[0, 1], [0, 0]]),
        "B2": linalg.mat([[0, 0], [1, 0]]),
        "B3": linalg.zeros(2, 2),
    }
    with pytest.raises(monad.RelationsViolated):
        monad.evaluate(c, rep, {"0": 2}, (0, 0, 0), relations=rels)


def test_d_squared_numerically_zero_at_random_points():
    c, rels = c3_complex()
    rep, _ = framing.numeric_solution_builder([(1, 2), (3, 4)])
    rep = {k: rep[k] for k in ("B1", "B2", "B3")}
    rng = random.Random(11)
    for _ in range(20):
        pt = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
        res = monad.evaluate(c, rep, {"0": 2}, pt)
        assert res.d_squared_zero


def test_adhm_evaluate_generic_point_exact():
    tpl = catalog.get_monad_template("adhm3d")
    rels = framed_relations("adhm3d")
    rep, _ = framing.numeric_solution_builder([(2, 3)])
    c = monad.assemble(tpl, [a.name for a in rels.quiver.arrows], marked_values={"Af": 0})
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
    c = monad.assemble(tpl, [a.name for a in q.arrows])
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
    tpl = catalog.get_monad_template("pervsystem-conifold")
    rels = framed_relations("pervsystem-conifold")
    c = monad.assemble(tpl, [a.name for a in rels.quiver.arrows])
    dims = {"0": 1, "1": 0, "inf": 0}
    rep = {a.name: linalg.zeros(dims[a.tgt], dims[a.src]) for a in rels.quiver.arrows}
    for z in (0, 7):
        res = monad.evaluate(c, rep, dims, (0, 0, z), relations=rels)
        assert res.d_squared_zero and res.sheaf_fibers[-1] == 1
    for pt in ((1, 0, 0), (0, 1, 3), (2, 3, 4)):
        res = monad.evaluate(c, rep, dims, pt, relations=rels)
        assert res.fiber_cohomology == [0, 0, 0, 0]


def test_validate_rejects_ill_typed_entry():
    tpl = catalog.get_monad_template("pervsystem-conifold")
    quiver = tpl.quiver
    bad_blocks = list(tpl.blocks)
    stage0 = dict(bad_blocks[0])
    # move a B-block where an A-block belongs: word no longer composes
    stage0[("B", "B")] = stage0.pop(("B",))
    bad_blocks[0] = stage0
    bad = monad.MonadTemplate(
        "broken", tpl.coords, tpl.twists, tpl.terms, tuple(bad_blocks), quiver
    )
    with pytest.raises(monad.MonadError):
        monad.assemble(bad, [a.name for a in quiver.arrows])
