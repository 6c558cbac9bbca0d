import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import block_dims, paths_up_to
from quiverdt import catalog, framing, linalg
from quiverdt.ncalg import (
    Arrow,
    BoundTooSmall,
    MembershipCertificate,
    MembershipSystem,
    NCAlgError,
    NCPoly,
    Path,
    Potential,
    Quiver,
    Relation,
    RelationSet,
    ShapeMismatch,
    UnknownArrow,
    chi_form,
    cyclic_derivative,
    ideal_membership,
    nc_mul,
    numeric_relation_residual,
    relations_from_potential,
    trivial_path,
    word,
    word_sum_matrix,
)


def c3():
    return Quiver(("0",), (Arrow("B1", "0", "0"), Arrow("B2", "0", "0"), Arrow("B3", "0", "0")))


def conifold():
    return Quiver(
        ("0", "1"),
        (Arrow("A", "0", "1"), Arrow("C", "0", "1"), Arrow("B", "1", "0"), Arrow("D", "1", "0")),
    )


def commutator_potential(q):
    return Potential.from_words(q, [(1, ("B1", "B2", "B3")), (-1, ("B1", "B3", "B2"))])


# -- quivers and paths --------------------------------------------------------


def test_quiver_validation():
    with pytest.raises(NCAlgError):
        Quiver(("0", "0"), ())
    with pytest.raises(NCAlgError):
        Quiver(("0",), (Arrow("a", "0", "1"),))
    with pytest.raises(NCAlgError):
        Quiver(("0",), (Arrow("a", "0", "0"), Arrow("a", "0", "0")))


def test_path_composability():
    q = conifold()
    word("A", "B").validate(q)
    with pytest.raises(NCAlgError):
        word("A", "A").validate(q)
    with pytest.raises(UnknownArrow):
        word("ZZ").validate(q)  # a one-arrow word is looked up too
    p = word("A", "B")
    assert p.source(q) == "0" and p.target(q) == "0"


def test_arrow_lookup_by_name():
    q = conifold()
    assert q.arrow("B") == Arrow("B", "1", "0")
    assert [q.arrow_index(a.name) for a in q.arrows] == [0, 1, 2, 3]
    assert q.arrow_indices(("B", "A", "B")) == (2, 0, 2) and q.arrow_indices(()) == ()
    assert q.has_arrow("D") and not q.has_arrow("ZZ")
    for lookup in (q.arrow, q.arrow_index, lambda name: q.arrow_indices(("A", name))):
        with pytest.raises(UnknownArrow) as info:
            lookup("ZZ")
        assert info.value.args == ("ZZ",)
    assert q == conifold() and hash(q) == hash(conifold())


def test_quiver_json_and_dot():
    q = Quiver(("0", "inf"), (Arrow("I", "inf", "0"), Arrow("Af", "inf", "inf", marked=True)))
    dot = q.to_dot()
    assert "dashed" in dot and '"inf" -> "0"' in dot


def test_potential_rejects_open_words():
    q = conifold()
    with pytest.raises(NCAlgError):
        Potential.from_words(q, [(1, ("A",))])
    with pytest.raises(NCAlgError):
        Potential.from_words(q, [(1, ("A", "C"))])


# -- cyclic derivatives --------------------------------------------------------


def test_cyclic_derivative_commutator():
    q = c3()
    w = commutator_potential(q)
    d = cyclic_derivative(w, "B1")
    assert d == NCPoly({word("B2", "B3"): Fraction(1), word("B3", "B2"): Fraction(-1)})


def test_cyclic_derivative_zero_potential():
    q = c3()
    assert cyclic_derivative(Potential(q, {}), "B1").is_zero()


def test_cyclic_derivative_unknown_arrow():
    with pytest.raises(UnknownArrow):
        cyclic_derivative(commutator_potential(c3()), "nope")


def test_cyclic_derivative_framed_word():
    # commutator potential plus a framing coupling through B3
    q = Quiver(
        ("0", "inf"),
        (
            Arrow("B1", "0", "0"),
            Arrow("B2", "0", "0"),
            Arrow("B3", "0", "0"),
            Arrow("I", "inf", "0"),
            Arrow("J", "0", "inf"),
        ),
    )
    w = Potential.from_words(
        q, [(1, ("B1", "B3", "B2")), (-1, ("B1", "B2", "B3")), (1, ("J", "I", "B3"))]
    )
    d3 = cyclic_derivative(w, "B3")
    expected = NCPoly(
        {
            word("B2", "B1"): Fraction(1),
            word("B1", "B2"): Fraction(-1),
            word("J", "I"): Fraction(1),
        }
    )
    assert d3 == expected


def closed_words(q, max_len=4):
    """All closed composable words up to a length, for hypothesis draws."""
    out = []

    def rec(prefix):
        if prefix and Path(tuple(prefix)).source(q) == q.arrow(prefix[-1]).tgt:
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        tail = q.arrow(prefix[-1]).tgt if prefix else None
        for a in q.arrows:
            if tail is None or a.src == tail:
                rec(prefix + [a.name])

    rec([])
    return out


CONIFOLD_WORDS = closed_words(conifold())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from(CONIFOLD_WORDS),
    st.sampled_from(CONIFOLD_WORDS),
    st.sampled_from(["A", "B", "C", "D"]),
)
def test_cyclic_derivative_linear(alpha, beta, w1, w2, arrow):
    q = conifold()
    p1 = Potential.from_words(q, [(1, w1)])
    p2 = Potential.from_words(q, [(1, w2)])
    combined = Potential.from_words(q, [(alpha, w1), (beta, w2)])
    lhs = cyclic_derivative(combined, arrow)
    rhs = cyclic_derivative(p1, arrow).scale(alpha) + cyclic_derivative(p2, arrow).scale(beta)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CONIFOLD_WORDS), st.integers(0, 3), st.sampled_from(["A", "B", "C", "D"]))
def test_cyclic_derivative_rotation_invariant(names, shift, arrow):
    q = conifold()
    rotated = names[shift % len(names):] + names[: shift % len(names)]
    w1 = Potential.from_words(q, [(1, names)])
    w2 = Potential.from_words(q, [(1, rotated)])
    assert cyclic_derivative(w1, arrow) == cyclic_derivative(w2, arrow)


# -- relations ------------------------------------------------------------------


def test_relations_from_commutator_potential():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    assert len(rels) == 3
    polys = [r.poly for r in rels]
    assert NCPoly({word("B2", "B3"): Fraction(1), word("B3", "B2"): Fraction(-1)}) in polys


def test_relations_zero_potential():
    q = c3()
    rels = relations_from_potential(q, Potential(q, {}))
    assert len(rels) == 3 and all(r.poly.is_zero() for r in rels)


def test_relation_endpoints():
    q = conifold()
    w = Potential.from_words(q, [(1, ("A", "D", "C", "B")), (-1, ("A", "B", "C", "D"))])
    rels = relations_from_potential(q, w)
    byname = {r.arrow: r for r in rels}
    assert (byname["A"].src, byname["A"].tgt) == ("1", "0")
    assert all(len(p) == 3 for r in rels for p in r.poly.terms)


# -- ideal membership -------------------------------------------------------------


def test_membership_direct_relation():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    p = NCPoly({word("B2", "B3"): Fraction(1), word("B3", "B2"): Fraction(-1)})
    result = ideal_membership(q, p, rels, 0)
    assert result.success
    assert result.certificate.expand(q, rels) == p


def test_membership_one_step():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    p = NCPoly({word("B1", "B2", "B3"): Fraction(1), word("B1", "B3", "B2"): Fraction(-1)})
    result = ideal_membership(q, p, rels, 1)
    assert result.success
    assert result.certificate.expand(q, rels) == p


def test_membership_failure_with_residual():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    p = NCPoly({word("B1"): Fraction(1)})
    result = ideal_membership(q, p, rels, 1)
    assert not result.success
    assert not result.residual.is_zero()


def test_membership_bound_too_small():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    p = NCPoly({word("B1", "B1", "B2", "B3", "B1"): Fraction(1)})
    with pytest.raises(BoundTooSmall):
        ideal_membership(q, p, rels, 0)


def test_membership_certificate_indexes_all_relations():
    """Certificate parts name relations by position in ``relations.relations``,
    zero relations included, because that is what ``expand`` reads."""
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    padded = RelationSet(q, [Relation("0", "0", NCPoly.zero()), *rels.relations])
    p = padded.relations[1].poly
    result = ideal_membership(q, p, padded, 0)
    assert result.success
    assert result.certificate.expand(q, padded) == p


def _membership_systems():
    out = {}
    for name in ("c3", "conifold", "pervsystem-c3"):
        fq = catalog.get_framed_example(name)
        rels = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq)))
        out[name] = (rels.quiver, rels.relations)
    return out


MEMBERSHIP_SYSTEMS = _membership_systems()


@lru_cache(maxsize=None)
def _membership_pieces(name, bound):
    """Every nonzero u*r*v under the bound, and the words a query may add."""
    q, rels = MEMBERSHIP_SYSTEMS[name]
    words = paths_up_to(q, bound)
    products = []
    for r in rels:
        for u in words:
            for v in words:
                urv = nc_mul(q, nc_mul(q, NCPoly.from_path(u), r.poly), NCPoly.from_path(v))
                if not urv.is_zero():
                    products.append(urv)
    return products, paths_up_to(q, bound + 1)


COEFFS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MEMBERSHIP_SYSTEMS)), st.integers(0, 1), st.data())
def test_membership_matches_dense_oracle(name, bound, data):
    q, rels = MEMBERSHIP_SYSTEMS[name]
    products, extra = _membership_pieces(name, bound)
    p = NCPoly.zero()
    for i, c in data.draw(st.lists(st.tuples(st.integers(0, len(products) - 1), COEFFS), max_size=6)):
        p = p + products[i].scale(c)
    for i, c in data.draw(st.lists(st.tuples(st.integers(0, len(extra) - 1), COEFFS), max_size=2)):
        p = p + NCPoly.from_path(extra[i], c)
    result = ideal_membership(q, p, rels, bound)
    success, parts, residual = oracles.ideal_membership_dense(q, p, rels, bound)
    assert result.success == success
    if success:
        assert MembershipCertificate(parts).expand(q, rels) == p
        assert result.residual is None
        assert result.certificate.expand(q, rels) == p
    else:
        assert result.residual.terms == residual


@lru_cache(maxsize=None)
def _products_by_ends(name, bound):
    """The nonzero u*r*v under the bound, grouped by endpoint pair."""
    q, _ = MEMBERSHIP_SYSTEMS[name]
    groups = {}
    for urv in _membership_pieces(name, bound)[0]:
        w = next(iter(urv.terms))
        groups.setdefault((w.source(q), w.target(q)), []).append(urv)
    return [groups[ends] for ends in sorted(groups)]


@lru_cache(maxsize=None)
def _shared_system(name, bound):
    """One system per relation set and bound, shared by every example, so
    its echelon forms are built by whichever query reaches them first."""
    q, rels = MEMBERSHIP_SYSTEMS[name]
    return MembershipSystem(q, rels, bound)


@st.composite
def _member(draw, groups):
    group = groups[draw(st.integers(0, len(groups) - 1))]
    p = NCPoly.zero()
    for i, c in draw(st.lists(st.tuples(st.integers(0, len(group) - 1), COEFFS), min_size=1, max_size=3)):
        p = p + group[i].scale(c)
    return p


@st.composite
def _membership_query(draw, name, bound):
    """A member (a sum of products with one endpoint pair), a non-member
    (a member plus a word under the bound plus one), a sum over several
    endpoint pairs, or the zero polynomial."""
    groups = _products_by_ends(name, bound)
    kind = draw(st.sampled_from(["member", "nonmember", "multi", "zero"]))
    if kind == "zero":
        return NCPoly.zero()
    p = draw(_member(groups))
    if kind == "multi":
        p = p + draw(_member(groups)) + draw(_member(groups))
    if kind != "member":
        extra = _membership_pieces(name, bound)[1]
        for i, c in draw(st.lists(st.tuples(st.integers(0, len(extra) - 1), COEFFS), max_size=2)):
            p = p + NCPoly.from_path(extra[i], c)
    return p


def _answer(result):
    parts = None if result.certificate is None else result.certificate.parts
    residual = None if result.residual is None else list(result.residual.terms.items())
    return result.success, parts, residual


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(MEMBERSHIP_SYSTEMS)), st.integers(0, 1), st.data())
def test_shared_membership_system_matches_all_endpoints_oracle(name, bound, data):
    q, rels = MEMBERSHIP_SYSTEMS[name]
    system = _shared_system(name, bound)
    queries = data.draw(st.lists(_membership_query(name, bound), min_size=1, max_size=4))
    first = _answer(system.decide(queries[0]))
    for p in queries:
        result = system.decide(p)
        success, parts, residual = _answer(result)
        o_success, o_parts, o_residual = _answer(oracles.ideal_membership_all_endpoints(q, p, rels, bound))
        assert success == o_success and residual == o_residual
        if success:
            terms = {(u, ridx, v): c for c, u, ridx, v in parts}
            assert len(terms) == len(parts)
            assert terms == {(u, ridx, v): c for c, u, ridx, v in o_parts}
            if len({(w.source(q), w.target(q)) for w in p.terms}) <= 1:
                assert parts == o_parts  # one endpoint pair: the same rows, in the same order
            assert result.certificate.expand(q, rels) == p
    assert _answer(system.decide(queries[0])) == first


def test_bound_too_small_messages():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    with pytest.raises(BoundTooSmall, match="^negative word length bound$"):
        MembershipSystem(q, rels, -1)
    with pytest.raises(BoundTooSmall, match="^negative word length bound$"):
        ideal_membership(q, NCPoly.zero(), rels, -1)
    long_word = NCPoly({word("B1", "B1", "B2", "B3", "B1"): Fraction(1)})
    for ask in (lambda p: ideal_membership(q, p, rels, 1), MembershipSystem(q, rels, 1).decide):
        with pytest.raises(BoundTooSmall, match="^bound 1 cannot reach words of length 5$"):
            ask(long_word)


def test_membership_query_with_an_unknown_arrow_is_refused():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    with pytest.raises(UnknownArrow, match="^Z$"):
        ideal_membership(q, NCPoly.from_path(word("Z")), rels, 1)
    with pytest.raises(UnknownArrow, match="^Z$"):  # known endpoints, unknown middle
        ideal_membership(q, NCPoly.from_path(word("B1", "Z", "B1")), rels, 1)


def test_residual_keeps_the_trivial_path_of_every_endpoint_pair():
    """Each endpoint pair keys its trivial path alike, so the residual must
    map keys back to paths part by part; e_0 sorts before e_1."""
    q, rels = MEMBERSHIP_SYSTEMS["conifold"]
    e0, e1 = trivial_path("0"), trivial_path("1")
    member = next(r.poly for r in rels if r.src != r.tgt)
    p = NCPoly.from_path(e1, -3) + member + NCPoly.from_path(e0, Fraction(2, 3))
    assert list(p.terms)[0] == e1
    result = ideal_membership(q, p, rels, 1)
    assert not result.success
    assert list(result.residual.terms.items()) == [(e0, Fraction(2, 3)), (e1, Fraction(-3))]
    assert _answer(result) == _answer(oracles.ideal_membership_all_endpoints(q, p, rels, 1))


def test_membership_system_builds_only_the_endpoint_pairs_asked():
    q, rels = MEMBERSHIP_SYSTEMS["conifold"]
    system = MembershipSystem(q, rels, 1)
    assert system.stats() == {"systems": 0, "rows": 0, "nonzeros": 0, "pivots": 0}
    p = rels.relations[0].poly
    assert system.decide(p).success
    first = system.stats()
    assert first["systems"] == 1 and 0 < first["pivots"] <= first["rows"] <= first["nonzeros"]
    assert system.decide(p.scale(2)).success
    assert system.stats() == first  # a repeated endpoint pair builds nothing


def test_membership_query_word_that_is_not_a_path_is_refused():
    q = conifold()
    rels = relations_from_potential(
        q, Potential.from_words(q, [(1, ("A", "D", "C", "B")), (-1, ("A", "B", "C", "D"))])
    )
    not_a_path = NCPoly.from_path(word("A", "A"))
    for ask in (lambda p: ideal_membership(q, p, rels, 1), MembershipSystem(q, rels, 1).decide):
        with pytest.raises(NCAlgError, match=r"^word \('A', 'A'\) is not composable at A->A$"):
            ask(not_a_path)
        with pytest.raises(NCAlgError, match=r"^word \('A', 'A'\) is not composable at A->A$"):
            ask(rels.relations[0].poly + not_a_path)  # beside a member


def _c3_product(left, ridx, right):
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    return nc_mul(q, nc_mul(q, NCPoly.from_path(left), rels.relations[ridx].poly), NCPoly.from_path(right))


def test_queries_in_disjoint_components_answer_alike_in_either_order():
    """On c3 a word's arrow content is fixed along a component, so these
    two members (content B1 B2 B3, and B1 B1 B2) share no row: each is
    answered as by one form over every product, whichever comes first."""
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    e0 = trivial_path("0")
    first = _c3_product(word("B1"), 0, e0) - _c3_product(e0, 2, word("B3")).scale(Fraction(2, 3))
    second = _c3_product(word("B1"), 2, e0) + _c3_product(e0, 2, word("B1")).scale(3)
    alone = 0
    for p in (first, second):
        system = MembershipSystem(q, rels, 1)
        assert system.decide(p).success
        alone += system.stats()["rows"]
    for order in ((first, second), (second, first)):
        system = MembershipSystem(q, rels, 1)
        for p in order:
            result = system.decide(p)
            assert _answer(result) == _answer(oracles.ideal_membership_all_endpoints(q, p, rels, 1))
            assert len(result.certificate.parts) > 1
        assert system.stats()["rows"] == alone


def test_a_long_bound_inserts_only_the_component_of_the_query():
    """At bound 4 the pair of c3 has 43,923 products; relation 0 times B1
    reaches 6 of them."""
    q, w = catalog.get_quiver_with_potential("c3")
    rels = relations_from_potential(q, w)
    system = MembershipSystem(q, rels, 4)
    p = nc_mul(q, rels.relations[0].poly, NCPoly.from_path(word("B1")))
    result = system.decide(p)
    assert result.certificate.parts == [(Fraction(1), trivial_path("0"), 0, word("B1"))]
    assert system.stats() == {"systems": 1, "rows": 6, "nonzeros": 12, "pivots": 5}


@pytest.mark.parametrize("bound", [2, 3])
def test_mixed_term_lengths_and_a_term_met_twice_match_the_eager_oracle(bound):
    """ny3d's relations have terms of lengths 2 and 3, and C*J*I*C*J holds
    the term C*J at 0 and at 3: every split of it finds its row once."""
    _, rels = catalog.monad_case("ny3d")
    q = rels.quiver
    cjicj = NCPoly.from_path(word("C", "J", "I", "C", "J"))
    member = cjicj + nc_mul(
        q, nc_mul(q, NCPoly.from_path(word("C")), rels.relations[1].poly), NCPoly.from_path(word("C", "J"))
    ).scale(Fraction(2, 3))
    nonmember = member + NCPoly.from_path(word("A", "J"), -2)
    system = MembershipSystem(q, rels, bound)
    eager = oracles.EagerMembershipSystem(q, rels, bound)
    asked = set()
    for p in (member, nonmember, cjicj):
        result = system.decide(p)
        assert _answer(result) == _answer(eager.decide(p))
        assert _answer(result) == _answer(oracles.ideal_membership_all_endpoints(q, p, rels, bound))
        assert result.success == (p is not nonmember)
        asked |= {w.sort_key(q) for w in p.terms}
    reached = oracles.reached_rows(eager.products[("0", "inf")], asked)
    assert system.stats()["rows"] == len(reached) < len(eager.products[("0", "inf")])
    assert system.stats()["nonzeros"] == sum(len(row) for _, row in reached)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["A", "B", "C", "D"]), st.sampled_from(["A", "B", "C", "D"]))
def test_membership_roundtrip_on_padded_relations(left, right):
    q = conifold()
    w = Potential.from_words(q, [(1, ("A", "D", "C", "B")), (-1, ("A", "B", "C", "D"))])
    rels = relations_from_potential(q, w)
    r = rels.relations[0]
    u = word(left) if q.arrow(left).tgt == r.src else trivial_path(r.src)
    v = word(right) if q.arrow(right).src == r.tgt else trivial_path(r.tgt)
    p = nc_mul(q, nc_mul(q, NCPoly.from_path(u), r.poly), NCPoly.from_path(v))
    if p.is_zero():
        return
    result = ideal_membership(q, p, rels, 1)
    assert result.success
    assert result.certificate.expand(q, rels) == p


def _scaled_relation_sets():
    """Hand-built relations whose coefficients 2, -3 and 2/3 make pivot
    inverses non-integral; a trivial-path term in each set."""
    f = Fraction
    e0 = trivial_path("0")
    q = c3()
    c3_rels = RelationSet(q, [
        Relation("0", "0", NCPoly({word("B2", "B3"): f(2), word("B3", "B2"): f(-3)})),
        Relation("0", "0", NCPoly({word("B1"): f(2, 3), word("B3", "B1"): f(2)})),
        Relation("0", "0", NCPoly({e0: f(-3), word("B2", "B2"): f(2, 3)})),
    ])
    k = conifold()
    conifold_rels = RelationSet(k, [
        Relation("1", "1", NCPoly({word("B", "A"): f(2), word("D", "C"): f(-3)})),
        Relation("0", "1", NCPoly({word("A", "D", "C"): f(2, 3), word("C", "D", "A"): f(-2)})),
        Relation("0", "0", NCPoly({e0: f(2), word("A", "B"): f(-3)})),
    ])
    return {"c3": (q, c3_rels), "conifold": (k, conifold_rels)}


SCALED_RELATION_SETS = _scaled_relation_sets()


def _scaled_queries(name, bound):
    """Members (sums of products with one endpoint pair, and with several)
    and non-members (a member plus words one past the bound), drawn with a
    fixed seed."""
    q, rels = SCALED_RELATION_SETS[name]
    words = paths_up_to(q, bound)
    groups = {}
    for r in rels:
        for u in words:
            for v in words:
                urv = nc_mul(q, nc_mul(q, NCPoly.from_path(u), r.poly), NCPoly.from_path(v))
                if not urv.is_zero():
                    w = next(iter(urv.terms))
                    groups.setdefault((w.source(q), w.target(q)), []).append(urv)
    rng = random.Random(bound)
    coeffs = [Fraction(2), Fraction(-3), Fraction(2, 3), Fraction(-1, 2)]
    ends = sorted(groups)

    def member(group):
        p = NCPoly.zero()
        for urv in rng.sample(group, min(3, len(group))):
            p = p + urv.scale(rng.choice(coeffs))
        return p

    extra = [w for w in paths_up_to(q, bound + 1) if len(w) == bound + 1]
    queries = []
    for _ in range(2):
        queries.append(member(groups[rng.choice(ends)]))
        queries.append(sum((member(g) for g in groups.values()), NCPoly.zero()))
        word_past_bound = NCPoly.from_path(rng.choice(extra), rng.choice(coeffs))
        queries.append(member(groups[rng.choice(ends)]) + word_past_bound)
    return queries


@pytest.mark.parametrize("name", sorted(SCALED_RELATION_SETS))
@pytest.mark.parametrize("bound", [0, 1, 2])
def test_membership_with_non_unit_coefficients_matches_oracles(name, bound):
    q, rels = SCALED_RELATION_SETS[name]
    system = MembershipSystem(q, rels, bound)
    # on c3 at bound 2 the dense oracle solves a system of ~500 columns per
    # query, too slow here; the sparse oracle still checks every query
    dense = (name, bound) != ("c3", 2)
    verdicts = set()
    for p in _scaled_queries(name, bound):
        result = system.decide(p)
        o_success, o_parts, o_residual = _answer(oracles.ideal_membership_all_endpoints(q, p, rels, bound))
        assert result.success == o_success
        if dense:
            success, _, residual = oracles.ideal_membership_dense(q, p, rels, bound)
            assert success == o_success and (success or result.residual.terms == residual)
        verdicts.add(o_success)
        if o_success:
            assert result.certificate.expand(q, rels) == p
            assert {(u, r, v): c for c, u, r, v in result.certificate.parts} == {
                (u, r, v): c for c, u, r, v in o_parts
            }
            assert all(type(c) is Fraction for c, *_ in result.certificate.parts)
        else:
            assert list(result.residual.terms.items()) == o_residual
            assert all(type(c) is Fraction for c in result.residual.terms.values())
    assert verdicts == {True, False}
    # exact storage: int where integral, else Fraction; some pivots were not units
    stored = [
        x
        for span in system._echelons.values()
        for row, comb in span._rows.values()
        for x in (*row.values(), *comb.values())
    ]
    assert all(type(x) in (int, Fraction) for x in stored)
    assert any(type(x) is Fraction for x in stored)


# -- Euler form ---------------------------------------------------------------------


def test_chi_c3():
    q = c3()
    assert chi_form(q, {"0": 2}, {"0": 3}) == 2 * 3 - 3 * 2 * 3


def test_chi_conifold():
    q = conifold()
    assert chi_form(q, {"0": 1, "1": 0}, {"0": 0, "1": 1}) == -2


def test_chi_zero_vector():
    q = conifold()
    assert chi_form(q, {}, {"0": 5, "1": 7}) == 0


def test_block_dims_c3():
    q = c3()
    x_ab, g_ab, x_s, g_s, x_a, g_a, x_b, g_b = block_dims(q, {"0": 1}, {"0": 1})
    assert (x_ab, g_ab) == (9, 3)
    assert (x_a, g_a) == (3, 1) and (x_b, g_b) == (3, 1)


def test_block_dims_degenerate():
    q = conifold()
    b = {"0": 2, "1": 1}
    dims = block_dims(q, {}, b)
    assert dims[0] == dims[6] and dims[1] == dims[7]  # X_(0,b) = X_b, G_(0,b) = G_b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_chi_identity(a0, a1, b0, b1):
    q = conifold()
    a = {"0": a0, "1": a1}
    b = {"0": b0, "1": b1}
    x_ab, g_ab, _, _, x_a, g_a, x_b, g_b = block_dims(q, a, b)
    assert chi_form(q, a, b) == g_ab - g_a - g_b - x_ab + x_a + x_b


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_chi_diagonal_identity(d0, d1):
    q = conifold()
    d = {"0": d0, "1": d1}
    zero = {"0": 0, "1": 0}
    _, _, x_total, g_total, _, _, _, _ = block_dims(q, d, zero)
    assert chi_form(q, d, d) == g_total - x_total


# -- numeric evaluation ----------------------------------------------------------------


def test_numeric_residual_commuting_diagonals():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    rep = {
        "B1": linalg.mat([[1, 0], [0, 2]]),
        "B2": linalg.mat([[1, 0], [0, 2]]),
        "B3": linalg.zeros(2, 2),
    }
    residuals = numeric_relation_residual(rels, rep, {"0": 2})
    assert all(r == 0 for r in residuals)


def test_numeric_residual_noncommuting():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    rep = {
        "B1": linalg.mat([[0, 1], [0, 0]]),
        "B2": linalg.mat([[0, 0], [1, 0]]),
        "B3": linalg.zeros(2, 2),
    }
    residuals = numeric_relation_residual(rels, rep, {"0": 2})
    by_arrow = {r.arrow: res for r, res in zip(rels, residuals)}
    assert by_arrow["B3"] == 1  # commutator of the shift pair
    assert by_arrow["B1"] == 0 and by_arrow["B2"] == 0  # B3 = 0 kills [B2, B3], [B3, B1]


def test_numeric_residual_empty_relations():
    q = c3()
    from quiverdt.ncalg import RelationSet

    assert numeric_relation_residual(RelationSet(q, []), {}, {"0": 1}) == []


def test_numeric_residual_shape_mismatch():
    q = c3()
    rels = relations_from_potential(q, commutator_potential(q))
    from quiverdt.ncalg import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        numeric_relation_residual(rels, {"B1": linalg.zeros(1, 2)}, {"0": 2})


def test_numeric_residual_refuses_a_ragged_matrix():
    rels = relations_from_potential(c3(), commutator_potential(c3()))
    rep = {"B1": ((0, 1), (0,)), "B2": linalg.zeros(2, 2), "B3": linalg.zeros(2, 2)}
    with pytest.raises(ShapeMismatch, match=r"arrow B1: matrix has rows of lengths \[2, 1\]"):
        numeric_relation_residual(rels, rep, {"0": 2})


def test_numeric_residual_refuses_rowless_matrix_for_a_map_out_of_zero():
    """J of adhm3d at V = 0 is one row of length 0, not the empty tuple."""
    fq = catalog.get_framed_example("adhm3d")
    rels = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq))).relations
    dims = {"0": 0, "inf": 1}
    rep = {a.name: linalg.zeros(dims[a.tgt], dims[a.src]) for a in rels.quiver.arrows}
    assert numeric_relation_residual(rels, rep, dims) == [0] * len(rels)
    with pytest.raises(ShapeMismatch, match="arrow J: matrix has rows of lengths"):
        numeric_relation_residual(rels, {**rep, "J": ()}, dims)


def test_numeric_residual_names_an_arrow_without_a_matrix():
    q, w = catalog.get_quiver_with_potential("c3")
    rels = relations_from_potential(q, w)
    with pytest.raises(ShapeMismatch, match="^arrow B3: no matrix$"):
        numeric_relation_residual(rels, {"B1": linalg.zeros(2, 2)}, {"0": 2})


def test_numeric_residual_needs_no_matrix_out_of_a_zero_dimensional_vertex():
    fq = catalog.get_framed_example("adhm3d")
    rels = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq))).relations
    dims = {"0": 0, "inf": 1}
    rep = {"I": linalg.zeros(0, 1)}  # B1, B2, B3 and J all leave the empty vertex
    assert numeric_relation_residual(rels, rep, dims) == [0] * len(rels)


def word_sum_by_loops(q, terms, rep, dims, rows, cols):
    """``sum(coeff * M(word))`` by nested loops: each word is multiplied out
    from the identity at its source, one arrow at a time."""
    total = [[0] * cols for _ in range(rows)]
    for p, c in terms:
        m = [[int(i == j) for j in range(cols)] for i in range(cols)]
        for name in p.arrows:
            a = q.arrow(name)
            m = [
                [sum(rep[name][i][k] * m[k][j] for k in range(dims[a.src])) for j in range(cols)]
                for i in range(dims[a.tgt])
            ]
        for i in range(rows):
            for j in range(cols):
                total[i][j] += c * m[i][j]
    return tuple(map(tuple, total))


@pytest.mark.parametrize("example", ["conifold", "pervsystem-conifold", "ny3d"])
def test_word_sum_matrix_matches_loops_with_zero_dimensions(example):
    """ny3d's d/dC = J*I leaves vertices 1 and inf and ends at vertex 0, so
    a zero dimension there leaves a target with no rows after nonzero ones."""
    fq = catalog.get_framed_example(example)
    rels = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq))).relations
    q = rels.quiver
    rng = random.Random(22)
    for _ in range(60):
        dims = {v: rng.randint(0, 2) for v in q.vertices}
        rep = {
            a.name: linalg.mat(
                [[rng.randint(-2, 2) for _ in range(dims[a.src])] for _ in range(dims[a.tgt])]
            )
            for a in q.arrows
        }
        for r in rels:
            rows, cols = dims[r.tgt], dims[r.src]
            terms = r.poly.terms.items()
            got = word_sum_matrix(q, ((p.arrows, c) for p, c in terms), rep, dims, rows, cols)
            assert got == word_sum_by_loops(q, terms, rep, dims, rows, cols), (dims, r.arrow)


# -- the shared eliminator ---------------------------------------------------------


def test_rank_small_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(linalg.zeros(3, 2)) == 0
    assert linalg.rank(linalg.mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert linalg.rank(linalg.mat([[1, 2], [2, 4], [0, 0]])) == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.one_of(
                st.just([0] * cols),
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            ),
            min_size=1,
            max_size=6,
        )
    ),
    st.data(),
)
def test_rank_matches_dense_oracle(rows, data):
    # append combinations of existing rows so rank-deficient matrices are common
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        k = data.draw(st.integers(-2, 2))
        rows.append([x + k * y for x, y in zip(rows[a], rows[b])])
    m = linalg.mat(rows)
    assert linalg.rank(m) == oracles.rank_dense(m)
    # a reduced vector is its remainder plus the reported combination of rows,
    # and the remainder is empty exactly when the vector lies in the row span
    span = linalg.Echelon()
    for i, row in enumerate(rows):
        span.add(dict(enumerate(row)), i)
    target = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows[0]), max_size=len(rows[0])))
    rem, comb = span.reduce(dict(enumerate(target)))
    for j, x in enumerate(target):
        assert rem.get(j, 0) + sum(c * rows[i][j] for i, c in comb.items()) == x
    assert (not rem) == (oracles.rank_dense(m + (tuple(target),)) == len(span))


def test_echelon_keeps_int_input_exact_through_a_pivot_of_two():
    span = linalg.Echelon()
    assert span.add({"a": 2, "b": 1}, "r0")  # pivot 2: stored scaled by 1/2
    assert span.add({"a": 2, "b": 3}, "r1")  # remainder 2*b: pivot 2 again
    rows = span._rows
    assert rows["a"] == ({"a": 1, "b": Fraction(1, 2)}, {"r0": Fraction(1, 2)})
    assert type(rows["a"][0]["a"]) is int and type(rows["b"][0]["b"]) is int
    assert all(
        type(x) in (int, Fraction) for row, comb in rows.values() for x in (*row.values(), *comb.values())
    )
    assert span.reduce({"a": 4, "b": 2}) == ({}, {"r0": 2})
    rem, comb = span.reduce({"a": 1})
    assert rem == {} and comb == {"r0": Fraction(3, 4), "r1": Fraction(-1, 4)}
    with pytest.raises(TypeError, match="inexact"):
        span.add({"c": 0.5}, "r2")


def test_echelon_pivots_at_the_least_key():
    """Keys of membership forms are (length, arrow indices): the shorter
    word pivots first, whatever its indices."""
    span = linalg.Echelon()
    assert span.add({(2, (0, 0)): 1, (1, (5,)): 1}, 0)
    assert list(span._rows) == [(1, (5,))]
    assert span.add({(2, (0, 0)): 1}, 1)
    assert span.reduce({(1, (5,)): 1}) == ({}, {0: 1, 1: -1})


def test_echelon_tracks_combinations():
    span = linalg.Echelon()
    assert span.add({"a": 1, "b": 1}, "r0")
    assert span.add({"a": 1, "c": 1}, "r1")  # stored as r0 - r1, pivot b
    assert not span.add({"a": 2, "b": 1, "c": 1}, "r2")
    assert len(span) == 2
    rem, comb = span.reduce({"a": 2, "b": 3, "c": -1, "d": 5})
    assert rem == {"d": 5}
    assert comb == {"r0": 3, "r1": -1}
