import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import expand_by_recursion
from quiverdt import catalog, framing, linalg, ncalg
from quiverdt.ncalg import NCPoly, Potential, Quiver, Arrow, relations_from_potential, word


def zero_framing(example):
    fq = catalog.get_framed_example(example)
    return framing.specialize(fq, framing.FramingStructure.zero(fq))


def relation_polys(rels):
    return {r.arrow: r.poly for r in rels.relations}


# -- specialize -----------------------------------------------------------------


def test_specialize_requires_all_marked_matrices():
    fq = catalog.get_framed_example("adhm3d")
    with pytest.raises(framing.ShapeMismatch):
        framing.specialize(fq, framing.FramingStructure({"inf": 1}, {}))


def test_shape_mismatch_is_one_class():
    assert framing.ShapeMismatch is ncalg.ShapeMismatch


def test_specialize_shape_check():
    fq = catalog.get_framed_example("adhm3d")
    bad = framing.FramingStructure({"inf": 2}, {"Af": linalg.zeros(1, 2)})
    with pytest.raises(framing.ShapeMismatch):
        framing.specialize(fq, bad)


def test_specialize_nilpotency_check():
    fq = catalog.get_framed_example("adhm3d")
    bad = framing.FramingStructure({"inf": 1}, {"Af": ((1,),)})
    with pytest.raises(framing.NilpotencyViolated):
        framing.specialize(fq, bad)
    ok = framing.FramingStructure(
        {"inf": 2}, {"Af": ((0, 1), (0, 0))}
    )
    bound = framing.specialize(fq, ok)
    assert bound.structure is ok


def test_specialize_keeps_potential_expression():
    fq = catalog.get_framed_example("adhm3d")
    bound = zero_framing("adhm3d")
    assert bound.potential == fq.potential


# -- framed relations ------------------------------------------------------------


def test_adhm_relations_with_zero_framing():
    rels = framing.framed_relations(zero_framing("adhm3d"))
    polys = relation_polys(rels)
    assert len(polys) == 5
    # [B1,B2] + IJ up to overall sign
    expected = NCPoly(
        {word("B1", "B2"): Fraction(-1), word("B2", "B1"): Fraction(1), word("J", "I"): Fraction(1)}
    )
    assert polys["B3"] == expected or polys["B3"] == expected.scale(-1)
    assert polys["I"] == NCPoly({word("B3", "J"): Fraction(1)})
    assert polys["J"] == NCPoly({word("I", "B3"): Fraction(1)})
    commutators = [polys["B1"], polys["B2"]]
    for c in commutators:
        assert len(c.terms) == 2 and all(len(p) == 2 for p in c.terms)


def test_adhm_relations_rank_two_zero_matrix():
    fq = catalog.get_framed_example("adhm3d")
    f = framing.FramingStructure({"inf": 2}, {"Af": linalg.zeros(2, 2)})
    rels = framing.framed_relations(framing.specialize(fq, f))
    polys = relation_polys(rels)
    # framing arrows split into two copies each
    assert {"I#1", "I#2", "J@1", "J@2"} <= set(polys)
    assert polys["I#2"] == NCPoly({word("B3", "J@2"): Fraction(1)})
    # the main relation picks up both framing couplings
    deriv = polys["B3"]
    assert word("J@1", "I#1") in deriv.terms and word("J@2", "I#2") in deriv.terms


def test_adhm_relations_rank_one_scalar_marked_value():
    # a scalar fixed loop stays inside the single framing copy
    fq = catalog.get_framed_example("kn")
    f = framing.FramingStructure({"inf": 1}, {"Gf": linalg.zeros(1, 1)})
    rels = framing.framed_relations(framing.specialize(fq, f))
    polys = relation_polys(rels)
    # J after E in operator order is the traversal word (E, J)
    assert polys["I"] == NCPoly({word("E", "J"): Fraction(1)})


def test_nonscalar_marked_matrix_rejected_in_relations():
    fq = catalog.get_framed_example("adhm3d")
    f = framing.FramingStructure({"inf": 2}, {"Af": ((0, 1), (0, 0))})
    bound = framing.specialize(fq, f)  # binding is fine
    with pytest.raises(framing.FramingError):
        framing.framed_relations(bound)  # relation expansion is scoped out


def test_marked_arrow_between_framing_vertices_needs_zero():
    fq = catalog.get_framed_example("chainsaw2")
    nonzero = framing.FramingStructure({"inf0": 1, "inf1": 1}, {"K": ((1,),)})
    with pytest.raises(framing.FramingError):
        framing.framed_relations(framing.specialize(fq, nonzero))
    zero = framing.FramingStructure.zero(fq)
    polys = relation_polys(framing.framed_relations(framing.specialize(fq, zero)))
    assert polys["J1"] == NCPoly({word("I", "A"): Fraction(1)})
    assert polys["I0"] == NCPoly({word("D", "J0"): Fraction(1)})


def test_pervsystem_relations_are_base_plus_framing_derivatives():
    rels = framing.framed_relations(zero_framing("pervsystem-c3"))
    polys = relation_polys(rels)
    assert polys["I"].is_zero()  # potential has no framing words
    base_q, base_w = catalog.get_quiver_with_potential("c3")
    base = relation_polys_from(base_q, base_w)
    for name in ("B1", "B2", "B3"):
        assert polys[name] == base[name]


def relation_polys_from(q, w):
    return {r.arrow: r.poly for r in relations_from_potential(q, w)}


def test_zero_potential_template_gives_zero_relations():
    q = Quiver(("0", "inf"), (Arrow("B", "0", "0"), Arrow("I", "inf", "0")))
    fq = framing.FramedQuiverWithPotential(q, frozenset({"inf"}), Potential(q, {}))
    bound = framing.specialize(fq, framing.FramingStructure.zero(fq))
    rels = framing.framed_relations(bound)
    assert all(r.poly.is_zero() for r in rels.relations)


def test_unbound_framing_rejected():
    fq = catalog.get_framed_example("adhm3d")
    with pytest.raises(framing.UnboundFraming):
        framing.framed_relations(fq)


@pytest.mark.parametrize("example", catalog.framed_example_ids())
def test_zero_framing_recovers_base_relations(example):
    fq = catalog.get_framed_example(example)
    bound = framing.specialize(fq, framing.FramingStructure.zero(fq))
    rels = relation_polys(framing.framed_relations(bound))
    base = fq.base_quiver()
    base_rels = relation_polys_from(base, fq.base_potential())
    for name, poly in base_rels.items():
        restricted = NCPoly(
            {
                p: c
                for p, c in rels[name].terms.items()
                if all(base.has_arrow(a) for a in p.arrows)
            }
        )
        assert restricted == poly, (example, name)


MARKED_LOOP_VALUES = (0, 1, Fraction(-2, 3))


def _oracle_framings(example):
    """Every rank in {1, 2, 3} at each framing vertex, times each marked-loop
    value v: a marked loop is bound to v times the identity, any other
    marked arrow to zero.  The structure is bound without ``specialize`` so
    that a nonzero value also reaches the nilpotent loops of adhm3d and kn;
    a nonzero loop of rank > 1 is the rejected case."""
    fq = catalog.get_framed_example(example)
    vertices = sorted(fq.framing_vertices)
    for ranks in itertools.product((1, 2, 3), repeat=len(vertices)):
        ranks = dict(zip(vertices, ranks))
        for value in MARKED_LOOP_VALUES:
            matrices = {
                a.name: tuple(
                    tuple(Fraction(value) if i == j and a.src == a.tgt else Fraction(0)
                          for j in range(ranks[a.src]))
                    for i in range(ranks[a.tgt])
                )
                for a in fq.quiver.arrows
                if a.marked
            }
            yield replace(fq, structure=framing.FramingStructure(ranks, matrices))


def _expansion(expand, fq):
    """The expanded quiver, the potential's terms in insertion order and the
    relations, or the exception class and message."""
    try:
        quiver, potential = expand(fq)
    except Exception as exc:  # compared between the two expansions
        return type(exc), str(exc)
    rels = relations_from_potential(quiver, potential)
    return (
        quiver,
        list(potential.terms.items()),
        [(r.arrow, r.src, r.tgt, r.poly) for r in rels],
    )


def test_oracle_framings_cover_every_example_rank_and_value():
    count = sum(1 for e in catalog.framed_example_ids() for _ in _oracle_framings(e))
    assert count == 180


@pytest.mark.parametrize("example", catalog.framed_example_ids())
def test_expand_matches_recursive_oracle(example):
    for fq in _oracle_framings(example):
        expected = _expansion(expand_by_recursion, fq)
        assert _expansion(framing.expand, fq) == expected, (example, fq.structure)


# -- framing compatibility ----------------------------------------------------------


@pytest.mark.parametrize("example", catalog.framed_example_ids())
def test_catalog_examples_are_framing_compatible(example):
    report = framing.verify_framing_compatibility(catalog.get_framed_example(example))
    assert report.ok


def test_unmarked_examples_pass_vacuously():
    report = framing.verify_framing_compatibility(catalog.get_framed_example("pervsystem-c3"))
    assert report.ok and report.vacuous


def test_quartic_routed_marked_derivative_passes():
    # d/dM = (I, J, I, J): every pass through the framing node pairs an
    # entering arrow with a leaving one, so the condition holds
    q = Quiver(
        ("0", "inf"),
        (
            Arrow("I", "inf", "0"),
            Arrow("J", "0", "inf"),
            Arrow("M", "inf", "inf", marked=True),
        ),
    )
    w = Potential.from_words(q, [(1, ("J", "M", "I", "J", "I"))])
    fq = framing.FramedQuiverWithPotential(q, frozenset({"inf"}), w)
    report = framing.verify_framing_compatibility(fq)
    assert report.ok and not report.vacuous


def test_synthetic_bad_monomial_detected():
    # potential word traversing inf -> inf twice via a marked arrow on one
    # side only: d/dM leaves a monomial J with no internal routing back
    q = Quiver(
        ("inf",),
        (Arrow("L", "inf", "inf"), Arrow("M", "inf", "inf", marked=True)),
    )
    w = Potential.from_words(q, [(1, ("L", "M"))])
    fq = framing.FramedQuiverWithPotential(q, frozenset({"inf"}), w)
    report = framing.verify_framing_compatibility(fq)
    assert not report.ok
    assert report.offending and report.offending[0][0] == "M"


# -- numeric witnesses -----------------------------------------------------------------


def test_numeric_solution_one_point_origin():
    rep, dims, cyclic = framing.numeric_solution_builder([(0, 0)])
    assert cyclic and dims == {"0": 1, "inf": 1}
    rels = framing.framed_relations(zero_framing("adhm3d"))
    from quiverdt.ncalg import numeric_relation_residual

    residuals = numeric_relation_residual(rels.relations, rep, dims)
    assert all(r == 0 for r in residuals)


def test_numeric_solution_two_points():
    rep, dims, cyclic = framing.numeric_solution_builder([(1, 0), (0, 1)])
    assert cyclic and dims == {"0": 2, "inf": 1}
    rels = framing.framed_relations(zero_framing("adhm3d"))
    from quiverdt.ncalg import numeric_relation_residual

    residuals = numeric_relation_residual(rels.relations, rep, dims)
    assert all(r == 0 for r in residuals)


def test_numeric_solution_duplicate_points():
    with pytest.raises(framing.DuplicatePoints):
        framing.numeric_solution_builder([(1, 0), (1, 0)])


def test_numeric_solution_noncyclic_would_need_distinctness():
    rep, _, cyclic = framing.numeric_solution_builder([(2, 3)])
    assert cyclic and rep["B1"][0][0] == 2
