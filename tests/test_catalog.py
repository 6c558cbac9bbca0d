import pytest

from hypothesis import given
from hypothesis import strategies as st

import oracles
from quiverdt import catalog, framing, monad
from quiverdt.ncalg import relations_from_potential
from test_golden import GEOMETRIES


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
    target = catalog.get_entry(geometry)
    assert (entry.twists, entry.degrees, entry.point) == (target.twists, target.degrees, target.point)


@pytest.mark.parametrize("m", [3, 4, 7])
def test_ym0_entries_follow_from_the_vertex_count(m):
    entry = catalog.get_entry(f"y{m}0")
    assert entry.simples == tuple(f"F{i}" for i in range(m))
    assert entry.curve_classes == tuple(f"C{i}" for i in range(1, m))
    assert (entry.twists, entry.degrees, entry.point) == ((0, 0, 0), {}, {})


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
    # leading zeros name no further geometry: y020 is not a second y20
    for geometry in ("y32", "y020", "y030", "y0030"):
        with pytest.raises(catalog.NotInCatalog):
            catalog.get_quiver_with_potential(geometry)
        with pytest.raises(catalog.NotInCatalog):
            catalog.get_entry(geometry)
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


# -- the chart point and the monad templates ------------------------------------


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20"])
def test_chart_point_kills_every_cyclic_derivative(geometry):
    """mu(d_a W) is exactly 0 for every arrow a: each relation, abelianised
    by sending every arrow to its chart monomial, cancels term by term."""
    entry = catalog.get_entry(geometry)
    assert set(entry.point) == {a.name for a in entry.quiver.arrows}
    rels = relations_from_potential(entry.quiver, entry.potential)
    assert len(rels) == len(entry.quiver.arrows)
    for r in rels:
        image = {}
        for path, c in r.poly.terms.items():
            exps = tuple(sum(e) for e in zip((0, 0, 0), *(entry.point[a] for a in path.arrows)))
            image[exps] = image.get(exps, 0) + c
        assert all(c == 0 for c in image.values()), (geometry, r.arrow, image)


# -- the chart resolutions are complexes, the arrows' maps are chain maps ---------


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _mat_mul(m1, m2):
    out = []
    for row in m1:
        cells = []
        for j in range(len(m2[0])):
            acc = {}
            for k, cell in enumerate(row):
                for e, c in _poly_mul(cell, m2[k][j]).items():
                    acc[e] = acc.get(e, 0) + c
            cells.append({e: c for e, c in acc.items() if c != 0})
        out.append(cells)
    return out


def _is_zero(mat):
    return all(not cell for row in mat for cell in row)


def _chart_complexes(entry):
    """The chart's resolution of each vertex v, read off the point mu and
    the potential W independently of the monad templates,

        O -> (+)_{a into v} O -> (+)_{b out of v} O -> O,

    with d_0 = -mu(a), d_2 = -mu(b) and d_1[b][a] the sum of c * mu(R) over
    the rotations a b R of the terms c*w of W; and, for each arrow x, the
    chain map from the resolution of src x to that of tgt x: the unit at
    slot x in stages 0 and 2, and in stage 1 the sum of -c * mu(R) over the
    rotations a x b R (the part of the monad differentials linear in x,
    with the Koszul sign (-1)^k on stage k)."""
    q, mu = entry.quiver, entry.point
    zero = (0,) * len(entry.coords)
    into = {v: [a.name for a in q.arrows if a.tgt == v] for v in q.vertices}
    out_of = {v: [a.name for a in q.arrows if a.src == v] for v in q.vertices}

    def mono(names, c):
        return {tuple(map(sum, zip(zero, *(mu[x] for x in names)))): c}

    def add(cell, names, c):
        for e, d in mono(names, c).items():
            cell[e] = cell.get(e, 0) + d

    res = {
        v: (
            [[mono([a], -1)] for a in into[v]],
            [[{} for _ in into[v]] for _ in out_of[v]],
            [[mono([b], -1) for b in out_of[v]]],
        )
        for v in q.vertices
    }
    maps = {}
    for x in q.arrows:
        src, tgt = x.src, x.tgt
        maps[x.name] = (
            [[{zero: 1} if a == x.name else {}] for a in into[tgt]],
            [[{} for _ in into[src]] for _ in out_of[tgt]],
            [[{zero: 1} if b == x.name else {} for b in out_of[src]]],
        )
    for w, c in entry.potential.terms.items():
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            a, b = rot[0], rot[1]
            v = q.arrow(a).tgt
            add(res[v][1][out_of[v].index(b)][into[v].index(a)], rot[2:], c)
            if len(rot) >= 3:
                x, b = rot[1], rot[2]
                stage = maps[x][1]
                add(stage[out_of[q.arrow(x).tgt].index(b)][into[q.arrow(x).src].index(a)], rot[3:], -c)
    return res, maps


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20"])
def test_resolutions_have_zero_composites(geometry):
    res, _ = _chart_complexes(catalog.get_entry(geometry))
    for v, diffs in res.items():
        assert len(diffs) == 3
        for d1, d2 in zip(diffs, diffs[1:]):
            assert _is_zero(_mat_mul(d2, d1)), (geometry, v)


@pytest.mark.parametrize("geometry", ["c3", "conifold", "y20"])
def test_generator_maps_are_chain_maps(geometry):
    entry = catalog.get_entry(geometry)
    res, maps = _chart_complexes(entry)
    for arrow_name, stages in maps.items():
        arrow = entry.quiver.arrow(arrow_name)
        src, tgt = res[arrow.src], res[arrow.tgt]
        for k in range(len(stages) - 1):
            lhs = _mat_mul(tgt[k + 1], stages[k])
            rhs = _mat_mul(stages[k + 1], src[k])
            assert lhs == rhs, (geometry, arrow_name, k)


# template -> the basis sign of each slot, term by term, under which the
# derived differentials equal the hand-typed rows
LITERAL_SIGNS = {
    "c3": "+ / +-+ / +++ / -",
    "y20": "+- / ---+++ / ---+++ / +-",
    "pervsystem-c3": "+ / +-+ / +++- / -",
    "pervsystem-conifold": "++ / ---- / --+++ / +-",
    "adhm3d": "+ / +-++ / +++- / -",
    "kn": "+- / ---++++ / ---+++- / +-",
    "ny3d": "++ / ----- / --++- / +-",
}


@pytest.mark.parametrize("template", catalog.monad_template_ids())
def test_monad_templates_match_literal_rows(template):
    """The templates derived from (Q^f, W^f) and the chart equal the
    hand-typed rows slot for slot, quiver, coordinates and twists included,
    and entry for entry under a diagonal change of basis by signs:
    ``literal.d_k[i][j] == s_(k+1)[i] * s_k[j] * derived.d_k[i][j]``."""
    derived = catalog.get_monad_template(template)
    literal = oracles.literal_monad_templates()[template]
    signs = [[1 if ch == "+" else -1 for ch in term] for term in LITERAL_SIGNS[template].split(" / ")]
    assert derived.terms == literal.terms
    assert [len(term) for term in derived.terms] == [len(s) for s in signs]
    assert (derived.label, derived.coords, derived.twists, derived.quiver) == (
        literal.label, literal.coords, literal.twists, literal.quiver,
    )
    for k, (got, want) in enumerate(zip(derived.diffs, literal.diffs, strict=True)):
        for i, (got_row, want_row) in enumerate(zip(got, want, strict=True)):
            for j, (cell, want_cell) in enumerate(zip(got_row, want_row, strict=True)):
                flip = signs[k + 1][i] * signs[k][j]
                assert {key: flip * c for key, c in cell.items()} == want_cell, (k, i, j)


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
    assert restricted.terms == w.terms


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


@pytest.mark.parametrize("template", catalog.monad_template_ids())
def test_monad_case_builds_its_geometry_once(template, monkeypatch):
    calls, real = [], catalog.get_quiver_with_potential
    monkeypatch.setattr(
        catalog, "get_quiver_with_potential", lambda g: calls.append(g) or real(g)
    )
    c, _ = catalog.monad_case(template)
    assert calls == [catalog._framed_spec(template)[0]]
    assert c == monad.assemble(catalog.get_monad_template(template))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_a_geometry_is_its_own_framed_example_with_no_framing(geometry):
    """Expanded at zero framing, a geometry's framed example has the
    geometry's own quiver and relations, in order: the identity that lets
    every id take the framed route to its relations and its monad."""
    fq = catalog.get_framed_example(geometry)
    assert not fq.framing_vertices and not fq.nilpotent_marked
    got = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq)))
    q, w = catalog.get_quiver_with_potential(geometry)
    assert got.quiver == q
    assert [(r.arrow, r.src, r.tgt, r.poly) for r in got.relations] == [
        (r.arrow, r.src, r.tgt, r.poly) for r in relations_from_potential(q, w)
    ]


@pytest.mark.parametrize("template", ["adhm3d", "kn"])
def test_monad_case_keeps_no_word_with_a_marked_arrow(template):
    """The stored template has words through its marked arrow; the monad
    that ``monad_case`` assembles keeps none of them."""
    tpl = catalog.get_monad_template(template)
    marked = {a.name for a in tpl.quiver.arrows if a.marked}
    c, _ = catalog.monad_case(template)

    def words(t):
        return [w for mat in t.diffs for row in mat for e in row for _, w in e]

    assert any(not marked.isdisjoint(w) for w in words(tpl))
    assert words(c) and all(marked.isdisjoint(w) for w in words(c))


# -- shift matrices --------------------------------------------------------------


def test_shift_matrix_y32_subdiagonal():
    mu, nu = (7, 5, 4), (3, 1)
    s = catalog.divisor_to_shift_matrix(3, 2, mu, nu)
    assert s.sub == (2, 1, 1, 2)  # (mu1-mu2, mu2-mu3, mu3-nu1, nu1-nu2)


def test_shift_matrix_full_matrix_entries():
    s = catalog.divisor_to_shift_matrix(3, 2, (7, 5, 4), (3, 1))
    # entry (i, j), i > j, of the filled-in matrix is sum(sub[j:i])
    assert sum(s.sub[0:1]) == 2 and sum(s.sub[0:2]) == 3  # mu1-mu2, mu1-mu3
    assert sum(s.sub[0:3]) == 4 and sum(s.sub[2:4]) == 3  # mu1-nu1, mu3-nu2


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
