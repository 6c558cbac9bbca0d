"""Acceptance suite: one test per quantitative criterion, each printing a
pass/fail line.  All comparisons are exact (integer/rational arithmetic);
the runtime budgets are asserted as hard bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

import oracles
from quiverdt import catalog, characters, checks, framing, monad, ncalg, partitions
from quiverdt.ncalg import NCPoly, word
from quiverdt.qseries import compare, macmahon


def report(number, label, ok, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:>2} ({label}): {status} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_c3_macmahon():
    t0 = time.time()
    got = partitions.plane_partition_series(12)
    want = macmahon(12)
    report(1, "c3 DT vs MacMahon, order 12", compare(got, want) is None, t0, 10)


def test_criterion_02_conifold_ncdt():
    t0 = time.time()
    result = checks.run_check("conifold-ncdt", 10)
    report(2, "conifold NCDT, order 10", result.equal, t0, 60)


def test_criterion_03_y20_and_y30_ncdt():
    t0 = time.time()
    ok = checks.run_check("y20-ncdt", 10).equal and checks.run_check("y30-ncdt", 8).equal
    report(3, "colored NCDT (m=2 order 10, m=3 order 8)", ok, t0, 60)


def test_criterion_04_vw_rank1():
    t0 = time.time()
    result = checks.run_check("vw-rank1", 12)
    report(4, "rank-1 partition series vs eta^-1", result.equal, t0, 1)


def test_criterion_05_nested_vs_characters():
    t0 = time.time()
    result = checks.run_check("nested-gl", 10)
    report(5, "nested partitions vs principal characters", result.equal, t0, 10)


def test_criterion_06_blowup():
    t0 = time.time()
    result = checks.run_check("blowup", 8)
    report(6, "blowup lattice sum, order 8", result.equal, t0, 5)


def test_criterion_07_character_figures():
    t0 = time.time()
    result = checks.run_check("character-figures", 20)
    report(7, "five character figures, r <= 5, order 20", result.equal, t0, 5)


def test_criterion_08_character_limits():
    t0 = time.time()
    result = checks.run_check("character-limits", 12)
    report(8, "four stable character limits, order 12", result.equal, t0, 30)


def test_criterion_09_monad_certification():
    t0 = time.time()
    wanted = ("c3", "adhm3d", "pervsystem-conifold", "kn", "ny3d")
    ok = True
    for tpl_id in wanted:
        c, rels = catalog.monad_case(tpl_id)
        ok = ok and monad.certify_d_squared(c, rels).certified
    report(9, "d^2 certificates for five templates", ok, t0, 30)


def test_criterion_10_numeric_monad_exactness():
    t0 = time.time()
    tpl = catalog.get_monad_template("c3")
    q, w = catalog.get_quiver_with_potential("c3")
    rels = ncalg.relations_from_potential(q, w)
    c = monad.assemble(tpl)
    plane_points = [(0, 0), (1, 0), (0, 1)]
    rng = random.Random(2026)
    ok = True
    for n in (1, 2, 3):
        pts = plane_points[:n]
        rep, _, cyclic = framing.numeric_solution_builder(pts)
        rep = {k: rep[k] for k in ("B1", "B2", "B3")}
        ok = ok and cyclic
        for p in pts:
            res = monad.evaluate(
                c, rep, {"0": n}, (p[0], p[1], 0), relations=rels, resolution_certified=True
            )
            ok = ok and res.d_squared_zero and res.sheaf_fibers == [0, 0, 0, 1]
        for _ in range(20):
            pt = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 7)) for _ in range(3))
            res = monad.evaluate(c, rep, {"0": n}, pt, relations=rels)
            ok = ok and res.fiber_cohomology == [0, 0, 0, 0]
    report(10, "c3 numeric cohomology: skyscrapers + generic exactness", ok, t0, 5)


def test_criterion_11_chi_identity_suite():
    t0 = time.time()
    quivers = [
        catalog.get_quiver_with_potential(g)[0] for g in ("c3", "conifold", "y20", "y30")
    ]
    rng = random.Random(5)
    ok = True
    for _ in range(200):
        q = rng.choice(quivers)
        a = {v: rng.randint(0, 5) for v in q.vertices}
        b = {v: rng.randint(0, 5) for v in q.vertices}
        x_ab, g_ab, _, _, x_a, g_a, x_b, g_b = oracles.block_dims(q, a, b)
        ok = ok and ncalg.chi_form(q, a, b) == g_ab - g_a - g_b - x_ab + x_a + x_b
    report(11, "Euler-form identity, 200 random draws", ok, t0, 30)


def test_criterion_12_adhm_relations():
    t0 = time.time()
    fq = catalog.get_framed_example("adhm3d")
    rels = framing.framed_relations(
        framing.specialize(fq, framing.FramingStructure.zero(fq))
    )
    polys = {r.arrow: r.poly for r in rels.relations}
    expected = {
        "B3": NCPoly(
            {
                word("B1", "B2"): Fraction(1),
                word("B2", "B1"): Fraction(-1),
                word("J", "I"): Fraction(-1),
            }
        ),
        "B2": NCPoly({word("B1", "B3"): Fraction(1), word("B3", "B1"): Fraction(-1)}),
        "B1": NCPoly({word("B2", "B3"): Fraction(1), word("B3", "B2"): Fraction(-1)}),
        "J": NCPoly({word("I", "B3"): Fraction(1)}),
        "I": NCPoly({word("B3", "J"): Fraction(1)}),
    }
    ok = set(polys) == set(expected)
    for name, poly in expected.items():
        ok = ok and (polys[name] == poly or polys[name] == poly.scale(-1))
    report(12, "five ADHM-type relations, up to sign", ok, t0, 5)


def test_criterion_13_shift_matrix_samples():
    t0 = time.time()
    rng = random.Random(9)
    ok = True
    for _ in range(50):
        nu2 = rng.randint(0, 4)
        nu1 = nu2 + rng.randint(0, 4)
        mu3 = nu1 + rng.randint(0, 4)
        mu2 = mu3 + rng.randint(0, 4)
        mu1 = mu2 + rng.randint(0, 4)
        shift = catalog.divisor_to_shift_matrix(3, 2, (mu1, mu2, mu3), (nu1, nu2))
        ok = ok and shift.sub == (mu1 - mu2, mu2 - mu3, mu3 - nu1, nu1 - nu2)
    report(13, "shift-matrix subdiagonals, 50 random divisors", ok, t0, 5)
