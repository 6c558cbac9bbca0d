"""The benchmark's four workloads: their items, their inputs and the check
that each item's output is correct.

Every item is run through a public entry point of the package: ``cli.run``
for the ``monad verify`` and ``compare`` items, ``ncalg.ideal_membership``
for the membership queries.  The workload seed permutes the item order and
draws the membership queries; nothing else reaches the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# monad template -> number of certified d^2 components
MONAD_COMPONENTS = {
    "c3": 6,
    "y20": 12,
    "pervsystem-c3": 6,
    "pervsystem-conifold": 8,
    "adhm3d": 8,
    "kn": 14,
    "ny3d": 10,
}

CHARACTER_TARGETS = (("character-figures", 30), ("character-limits", 23))

# Orders at or near the enumerator caps, where configuration counts grow.
# They stay fixed if the caps are raised, so runs stay comparable.
ENUMERATE_TARGETS = (
    ("c3-dt", 14),
    ("conifold-ncdt", 12),
    ("y20-ncdt", 14),
    ("y30-ncdt", 14),
    ("nested-gl", 16),
    ("vw-rank1", 30),
    ("blowup", 20),
)

GEOMETRIES = ("c3", "conifold", "y20", "y30")
# Relation sets small enough for bound-2 queries (under ~1 s each); bound 2
# on any other set costs 3-30 s per query.
BOUND2_SETS = ("conifold", "pervsystem-conifold")
QUERY_TERMS = 3

WORKLOADS = ("certify", "membership", "characters", "enumerate")


@dataclass
class Item:
    """One unit of work: ``call()`` runs it through the package and returns
    its raw output; ``check(output)`` returns None when the output is
    correct, else a one-line reason."""

    id: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class CliOutput:
    """Exit code and captured output of one ``cli.run`` call."""

    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutput:
    import contextlib
    import io

    from quiverdt import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_failure(res: CliOutput) -> str | None:
    if res.code != 0:
        return f"exit {res.code}: {res.stderr.strip()[:200]}"
    return None


def check_monad(template: str) -> Callable[[CliOutput], str | None]:
    def check(res: CliOutput) -> str | None:
        bad = _cli_failure(res)
        if bad:
            return bad
        data = json.loads(res.stdout)
        if data.get("certified") is not True:
            return "not certified"
        if data.get("failures") != []:
            return f"failures reported: {data.get('failures')}"
        if data.get("components") != MONAD_COMPONENTS[template]:
            return f"{data.get('components')} components, want {MONAD_COMPONENTS[template]}"
        return None

    return check


def check_compare(target: str) -> Callable[[CliOutput], str | None]:
    def check(res: CliOutput) -> str | None:
        bad = _cli_failure(res)
        if bad:
            return bad
        entries = json.loads(res.stdout)
        if [e.get("name") for e in entries] != [target]:
            return f"unexpected entries {entries}"
        if entries[0].get("equal") is not True:
            return f"not equal: {entries[0].get('mismatch')}"
        return None

    return check


def cli_item(argv: list[str], check) -> Item:
    return Item(" ".join(argv[:-1]), lambda: run_cli(argv), check)


# -- membership queries ---------------------------------------------------------


@dataclass
class RelSystem:
    name: str
    quiver: object
    relations: object  # ncalg.RelationSet


@dataclass
class Query:
    """One ``ideal_membership`` query with the facts that make its verdict
    provable: members are sums of ``c*u*r*v`` products under the bound;
    non-members add ``c*e_v`` for a trivial path ``e_v``, which no such
    product reaches because every relation term has positive length."""

    system: RelSystem
    bound: int
    poly: object  # ncalg.NCPoly
    member: bool
    trivial: object = None  # the e_v path of a non-member
    trivial_coeff: Fraction = Fraction(0)


def relation_systems() -> list[RelSystem]:
    """The relation set of every catalog geometry and framed example (the
    framed ones at zero framing), checked to have only positive-length
    terms, the premise of the non-member construction."""
    from quiverdt import catalog, framing, ncalg

    systems = []
    for g in GEOMETRIES:
        q, w = catalog.get_quiver_with_potential(g)
        systems.append(RelSystem(g, q, ncalg.relations_from_potential(q, w)))
    for e in catalog.framed_example_ids():
        fq = catalog.get_framed_example(e)
        rels = framing.framed_relations(framing.specialize(fq, framing.FramingStructure.zero(fq)))
        systems.append(RelSystem(e, rels.quiver, rels.relations))
    for s in systems:
        for r in s.relations:
            for p in r.poly.terms:
                if len(p) == 0:
                    raise ValueError(f"{s.name}: relation {r.arrow} has a length-zero term")
    return systems


def _paths_up_to(q, bound: int) -> list:
    """Every path of length at most ``bound``; built here from public API,
    since the package's own helper is private."""
    from quiverdt import ncalg

    out = [ncalg.trivial_path(v) for v in q.vertices]
    frontier = list(out)
    for _ in range(bound):
        frontier = [
            ncalg.Path(p.arrows + (a.name,)) for p in frontier for a in q.arrows_from(p.target(q))
        ]
        out.extend(frontier)
    return out


def _products_by_endpoints(system: RelSystem, bound: int) -> dict:
    """Every nonzero ``u*r*v`` with |u|, |v| <= bound, grouped by
    (source, target), in a fixed order."""
    from quiverdt import ncalg

    q = system.quiver
    words = _paths_up_to(q, bound)
    groups: dict[tuple[str, str], list] = {}
    for r in system.relations.nonzero():
        for u in words:
            if u.target(q) != r.src:
                continue
            ur = ncalg.nc_mul(q, ncalg.NCPoly.from_path(u), r.poly)
            for v in words:
                if v.source(q) != r.tgt:
                    continue
                urv = ncalg.nc_mul(q, ur, ncalg.NCPoly.from_path(v))
                if not urv.is_zero():
                    groups.setdefault((u.source(q), v.target(q)), []).append(urv)
    return groups


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _random_member(rng: random.Random, products: list):
    from quiverdt import ncalg

    while True:
        poly = ncalg.NCPoly.zero()
        for urv in rng.sample(products, min(QUERY_TERMS, len(products))):
            poly = poly + urv.scale(_coeff(rng))
        if not poly.is_zero():
            return poly


def membership_queries(seed: int, systems: list[RelSystem]) -> list[Query]:
    """One query per (system, bound): bound 1 on every system, bound 2 on
    the small ones.  Along that fixed schedule the queries alternate
    between provable members and provable non-members, so the work per pass
    does not depend on the seed; the seed draws the endpoints, products and
    coefficients."""
    from quiverdt import ncalg

    rng = random.Random(seed)
    schedule = [(s, b) for s in systems for b in ((1, 2) if s.name in BOUND2_SETS else (1,))]
    queries = []
    for i, (s, bound) in enumerate(schedule):
        groups = _products_by_endpoints(s, bound)
        ends = sorted(groups)
        if i % 2 == 0:
            queries.append(Query(s, bound, _random_member(rng, groups[rng.choice(ends)]), True))
            continue
        src, _ = rng.choice([e for e in ends if e[0] == e[1]])
        e_v = ncalg.trivial_path(src)
        c = _coeff(rng)
        poly = _random_member(rng, groups[(src, src)]) + ncalg.NCPoly.from_path(e_v, c)
        queries.append(Query(s, bound, poly, False, e_v, c))
    return queries


def check_membership(query: Query) -> Callable[[object], str | None]:
    def check(res) -> str | None:
        if query.member:
            if not res.success:
                return "member reported as non-member"
            if res.certificate.expand(query.system.quiver, query.system.relations) != query.poly:
                return "certificate does not expand to the query"
            return None
        if res.success:
            return "non-member reported as member"
        if res.residual is None or res.residual.terms.get(query.trivial) != query.trivial_coeff:
            return "residual lost the trivial-path term"
        return None

    return check


def membership_item(index: int, query: Query) -> Item:
    from quiverdt import ncalg

    kind = "member" if query.member else "nonmember"
    return Item(
        f"{index}:{query.system.name}:b{query.bound}:{kind}",
        lambda: ncalg.ideal_membership(
            query.system.quiver, query.poly, query.system.relations, query.bound
        ),
        check_membership(query),
    )


# -- workloads ------------------------------------------------------------------


def items(workload: str, seed: int) -> list[Item]:
    """The workload's items in their canonical order."""
    if workload == "certify":
        return [
            cli_item(["monad", "verify", t, "--json"], check_monad(t)) for t in MONAD_COMPONENTS
        ]
    if workload == "membership":
        return [membership_item(i, q) for i, q in enumerate(membership_queries(seed, relation_systems()))]
    if workload == "characters":
        targets = CHARACTER_TARGETS
    elif workload == "enumerate":
        targets = ENUMERATE_TARGETS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        cli_item(["compare", t, "--order", str(o), "--json"], check_compare(t)) for t, o in targets
    ]


def pass_order(n: int, seed: int, pass_index: int) -> list[int]:
    """The seed's permutation of item order for one pass."""
    order = list(range(n))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order
