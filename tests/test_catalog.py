from fractions import Fraction

import pytest

from hypothesis import given
from hypothesis import strategies as st

import oracles
from quiverdt import catalog
from quiverdt.ncalg import relations_from_potential


def test_c3_entry():
    q, w = catalog.get_quiver_with_potential("c3")
    assert q.vertices == ("0",)
    assert sorted(a.name for a in q.arrows) == ["B1", "B2", "B3"]
    assert len(w.terms) == 2


def test_conifold_entry():
    q, w = catalog.get_quiver_with_potential("conifold")
    assert {a.name: (a.src, a.tgt) for a in q.arrows} == {
        "A": ("0", "1"),
        "C": ("0", "1"),
        "B": ("1", "0"),
        "D": ("1", "0"),
    }
    assert all(len(word) == 4 for word in w.terms)


def test_y20_entry():
    q, w = catalog.get_quiver_with_potential("y20")
    loops = [a.name for a in q.arrows if a.src == a.tgt]
    assert sorted(loops) == ["E", "F"]
    assert len(w.terms) == 4


def test_ym0_matches_y20_relation_structure():
    q3, w3 = catalog.get_quiver_with_potential("y30")
    rels = relations_from_potential(q3, w3)
    assert len(rels) == 9
    assert all(not r.poly.is_zero() for r in rels)


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20", "y30", "y40", "y50", "y60"])
def test_generator_reproduces_the_literal_quivers_and_potentials(geometry):
    q, w = catalog.get_quiver_with_potential(geometry)
    literal_q, literal_w = oracles.literal_quiver_with_potential(geometry)
    assert q == literal_q  # arrow order included
    assert w == literal_w
    literal_rels = relations_from_potential(literal_q, literal_w)
    assert list(relations_from_potential(q, w)) == list(literal_rels)


@pytest.mark.parametrize("alias, geometry", [("y10", "c3"), ("y11", "conifold"), ("Y20", "y20")])
def test_aliases_name_the_same_geometry(alias, geometry):
    assert catalog.get_quiver_with_potential(alias) == catalog.get_quiver_with_potential(geometry)
    entry = catalog.get_entry(alias)
    assert entry.geometry == alias.lower()
    assert entry.resolutions == catalog.get_entry(geometry).resolutions


@pytest.mark.parametrize("m", [3, 4, 7])
def test_ym0_entries_follow_from_the_vertex_count(m):
    entry = catalog.get_entry(f"y{m}0")
    assert entry.simples == tuple(f"F{i}" for i in range(m))
    assert entry.curve_classes == tuple(f"C{i}" for i in range(1, m))
    assert (entry.twists, entry.resolutions, entry.generator_maps) == ((0, 0, 0), {}, {})


@given(st.text(alphabet="01", min_size=1, max_size=7))
def test_every_arrow_meets_two_potential_terms_of_opposite_sign(sigma):
    """The generator's W for any parity sequence: each arrow lies in exactly
    two terms, once each, with opposite signs; loops sit where sigma_i =
    sigma_(i+1)."""
    q, words = catalog._ymn(sigma)
    n = len(sigma)
    loops = {a.src for a in q.arrows if a.src == a.tgt}
    assert loops == {str(i) for i in range(n) if sigma[i] == sigma[(i + 1) % n]}
    for a in q.arrows:
        signs = [c for c, wd in words for x in wd if x == a.name]
        assert sorted(signs) == [-1, 1], (sigma, a.name)


def test_not_in_catalog():
    with pytest.raises(catalog.NotInCatalog):
        catalog.get_quiver_with_potential("y32")
    with pytest.raises(catalog.NotInCatalog):
        catalog.get_framed_example("nonsense")
    with pytest.raises(catalog.NotInCatalog):
        catalog.get_monad_template("y99")


def test_relation_counts_and_lengths():
    q, w = catalog.get_quiver_with_potential("conifold")
    rels = relations_from_potential(q, w).nonzero()
    assert len(rels) == 4
    assert all(len(p) == 3 for r in rels for p in r.poly.terms)
    q, w = catalog.get_quiver_with_potential("c3")
    rels = relations_from_potential(q, w).nonzero()
    assert len(rels) == 3
    assert all(len(p) == 2 for r in rels for p in r.poly.terms)


# -- resolutions are complexes, generator maps are chain maps --------------------


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _mat_mul(m1, m2):
    rows, inner, cols = len(m1), len(m2), len(m2[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = {}
            for k in range(inner):
                for e, c in _poly_mul(m1[i][k], m2[k][j]).items():
                    acc[e] = acc.get(e, Fraction(0)) + c
            row.append({e: c for e, c in acc.items() if c != 0})
        out.append(row)
    return out


def _is_zero(mat):
    return all(not cell for row in mat for cell in row)


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20"])
def test_resolutions_have_zero_composites(geometry):
    entry = catalog.get_entry(geometry)
    for res in entry.resolutions.values():
        for d1, d2 in zip(res.diffs, res.diffs[1:]):
            assert _is_zero(_mat_mul(d2, d1)), (geometry, res.vertex)


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20"])
def test_generator_maps_are_chain_maps(geometry):
    entry = catalog.get_entry(geometry)
    for arrow_name, stages in entry.generator_maps.items():
        arrow = entry.quiver.arrow(arrow_name)
        src = entry.resolutions[arrow.src]
        tgt = entry.resolutions[arrow.tgt]
        for k in range(len(stages) - 1):
            lhs = _mat_mul(tgt.diffs[k + 1], stages[k])
            rhs = _mat_mul(stages[k + 1], src.diffs[k])
            diff = [
                [
                    {
                        e: lhs[i][j].get(e, Fraction(0)) - rhs[i][j].get(e, Fraction(0))
                        for e in set(lhs[i][j]) | set(rhs[i][j])
                    }
                    for j in range(len(lhs[0]))
                ]
                for i in range(len(lhs))
            ]
            cleaned = [[{e: c for e, c in cell.items() if c != 0} for cell in row] for row in diff]
            assert _is_zero(cleaned), (geometry, arrow_name, k)


# -- framed examples ------------------------------------------------------------


@pytest.mark.parametrize("example", catalog.framed_example_ids())
def test_framed_potentials_restrict_to_base(example):
    fq = catalog.get_framed_example(example)
    base = fq.base_quiver()
    base_geometry = {
        "pervsystem-c3": "c3",
        "pervsystem-conifold": "conifold",
        "pervsystem-y20": "y20",
        "adhm3d": "c3",
        "spiked": "c3",
        "kn": "y20",
        "beilinson": "y20",
        "prechainsaw": "y20",
        "chainsaw2": "y20",
        "ny3d": "conifold",
    }[example]
    q, w = catalog.get_quiver_with_potential(base_geometry)
    assert set(a.name for a in base.arrows) == set(a.name for a in q.arrows)
    restricted = fq.base_potential()
    rebuilt = {tuple(word.names): c for word, c in restricted.terms.items()}
    wanted = {tuple(word.names): c for word, c in w.terms.items()}
    assert rebuilt == wanted


def test_framed_marked_arrows():
    fq = catalog.get_framed_example("adhm3d")
    marked = [a.name for a in fq.quiver.arrows if a.marked]
    assert marked == ["Af"] and "Af" in fq.nilpotent_marked
    fq = catalog.get_framed_example("chainsaw2")
    assert [a.name for a in fq.quiver.arrows if a.marked] == ["K"]


def test_spiked_has_three_framing_nodes():
    fq = catalog.get_framed_example("spiked")
    assert fq.framing_vertices == frozenset({"inf1", "inf2", "inf3"})
    assert len(fq.potential.terms) == 5  # two commutator words + three couplings


# -- shift matrices --------------------------------------------------------------


def test_shift_matrix_y32_subdiagonal():
    mu, nu = (7, 5, 4), (3, 1)
    s = catalog.divisor_to_shift_matrix(3, 2, mu, nu)
    assert s.sub == (2, 1, 1, 2)  # (mu1-mu2, mu2-mu3, mu3-nu1, nu1-nu2)


def test_shift_matrix_full_matrix_entries():
    s = catalog.divisor_to_shift_matrix(3, 2, (7, 5, 4), (3, 1))
    full = s.full_matrix()
    assert full[1][0] == 2 and full[2][0] == 3  # mu1-mu2, mu1-mu3
    assert full[3][0] == 4 and full[4][2] == 3  # mu1-nu1, mu3-nu2
    assert all(full[i][j] == 0 for i in range(5) for j in range(i, 5))


def test_shift_matrix_equal_parts():
    s = catalog.divisor_to_shift_matrix(3, 0, (4, 4, 4))
    assert s.sub == (0, 0)


def test_shift_matrix_telescoping():
    mu = (9, 6, 6, 2)
    s = catalog.divisor_to_shift_matrix(4, 0, mu)
    assert sum(s.sub) == mu[0] - mu[-1]


def test_shift_matrix_positivity_violations():
    with pytest.raises(catalog.NegativeShift):
        catalog.divisor_to_shift_matrix(2, 0, (1, 3))
    with pytest.raises(catalog.NegativeShift):
        catalog.divisor_to_shift_matrix(2, 1, (3, 2), (4,))
    with pytest.raises(catalog.NegativeShift):
        catalog.ShiftMatrix(2, 0, (-1,))


def test_shift_matrix_m2_book_cases():
    # aligned, offset one, offset two family data
    assert catalog.divisor_to_shift_matrix(2, 0, (5, 5)).sub == (0,)
    assert catalog.divisor_to_shift_matrix(2, 0, (6, 4)).sub == (2,)
