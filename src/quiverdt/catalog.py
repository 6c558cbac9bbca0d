"""Geometry data: quivers with potential for the small toric Calabi-Yau
threefolds of the Y_{m,n} family, generated from cyclic parity sequences;
framed variants and chart resolutions with generator maps, stored as
tables; monad templates built from the chart data; and
divisor-to-shift-matrix arithmetic.

Potentials are transcribed into traversal-order words (see
:mod:`quiverdt.ncalg`); a product of operators reads right-to-left, so the
first arrow of each stored word is the one applied first.  A monad template
is the direct sum of its chart's vertex resolutions plus one term per arrow
from that arrow's chain map (Nagao-Nakajima, *Counting invariant of
perverse coherent sheaves and its wall-crossing*), plus the chart's
quadratic terms and the template's framing entries.  The stored chain maps
and entries carry the signs under which every template composes to zero
modulo its relation ideal; the framing entries differ from ad-hoc
conventions elsewhere only by harmless basis sign flips on framing
summands, plus the internal one-step differential of the framing-node
resolution on the diagonal framing entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import framing, monad
from .framing import FramedQuiverWithPotential
from .monad import MonadTemplate, Slot
from .ncalg import Arrow, Potential, Quiver, relations_from_potential


class NotInCatalog(KeyError):
    pass


class NegativeShift(ValueError):
    pass


# -- coordinate polynomial shorthand -----------------------------------------

O_ = (0, 0, 0)
X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)
XZ = (1, 0, 1)
ZY = (0, 1, 1)


def _poly(*terms) -> dict:
    out: dict[tuple[int, int, int], Fraction] = {}
    for coeff, exps in terms:
        out[exps] = out.get(exps, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in out.items() if c != 0}


def _pm(rows) -> tuple:
    """Polynomial matrix from entries that are term lists or 0."""
    return tuple(
        tuple(_poly(*e) if e else {} for e in row) for row in rows
    )


# -- geometries ----------------------------------------------------------------


@dataclass(frozen=True)
class Resolution:
    """Graded free modules over the chart with their differentials."""

    vertex: str
    degrees: tuple[tuple[int, ...], ...]
    diffs: tuple  # polynomial matrices, one per consecutive pair


@dataclass(frozen=True)
class CatalogEntry:
    geometry: str
    quiver: Quiver
    potential: Potential
    simples: tuple[str, ...]
    coords: tuple[str, ...]
    twists: tuple[int, ...]
    resolutions: dict
    generator_maps: dict  # arrow name -> tuple of polynomial matrices (degree-1 chain map)
    curve_classes: tuple[str, ...]
    quadratic_terms: dict  # monad entries no chain map carries, as in _MONAD_TEMPLATES


def geometry_ids() -> tuple[str, ...]:
    return ("c3", "conifold", "y20", "ym0 (m >= 2, e.g. y30)")


def _ymn(sigma: str) -> tuple[Quiver, list[tuple[int, tuple[str, ...]]]]:
    """The quiver and potential words of the Y_{m,n} geometry with cyclic
    parity sequence ``sigma`` in {0,1}^N (Nagao, *Derived categories of
    small toric Calabi-Yau 3-folds and curve counting invariants*;
    Li-Yamazaki, *Quiver Yangian from crystal melting*).

    Vertices are 0..N-1.  Vertex i has a loop ``w_i`` when sigma_i =
    sigma_(i+1); the arrows are the loops, then ``a_i: i -> i+1``, then
    ``b_i: i+1 -> i``.  A vertex with a loop contributes ``e_i (w_i a_i b_i -
    w_i b_(i-1) a_(i-1))`` to W, one without ``e_i b_(i-1) a_(i-1) a_i b_i``
    (traversal order).  The signs start at e_0 = 1 and flip at each
    loopless vertex, so the two terms that contain ``a_i`` have opposite
    signs.
    """
    n = len(sigma)
    loop = [sigma[i] == sigma[(i + 1) % n] for i in range(n)]
    arrows = [Arrow(f"w{i}", str(i), str(i)) for i in range(n) if loop[i]]
    arrows += [Arrow(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
    arrows += [Arrow(f"b{i}", str((i + 1) % n), str(i)) for i in range(n)]
    words, sign = [], 1
    for i in range(n):
        j = (i - 1) % n
        if i and not loop[i]:
            sign = -sign
        if loop[i]:
            words += [(sign, (f"w{i}", f"a{i}", f"b{i}")), (-sign, (f"w{i}", f"b{j}", f"a{j}"))]
        else:
            words.append((sign, (f"b{j}", f"a{j}", f"a{i}", f"b{i}")))
    return Quiver(tuple(str(i) for i in range(n)), tuple(arrows)), words


# geometry -> (parity sequence, generator arrow -> catalog name in catalog
# arrow order, overall sign of W); y{m}0 is 0^m with the generator's names
_YMN = {
    "c3": ("0", {"w0": "B1", "b0": "B2", "a0": "B3"}, 1),
    "conifold": ("01", {"a0": "A", "b1": "C", "b0": "B", "a1": "D"}, -1),
    "y20": ("00", {"w0": "E", "w1": "F", "a0": "A", "b1": "C", "a1": "B", "b0": "D"}, -1),
}
_ALIASES = {"y10": "c3", "y11": "conifold"}


def _lookup(geometry: str) -> tuple[str, str, dict[str, str], int]:
    """Catalog name, parity sequence, arrow renaming and sign of a geometry id."""
    g = _ALIASES.get(geometry.lower(), geometry.lower())
    if g in _YMN:
        return (g, *_YMN[g])
    match = re.fullmatch(r"y([1-9]\d*)0", g)
    if match and int(match.group(1)) >= 2:
        return g, "0" * int(match.group(1)), {}, 1
    raise NotInCatalog(geometry)


def get_quiver_with_potential(geometry: str) -> tuple[Quiver, Potential]:
    """The quiver and potential of a catalog geometry, from its parity
    sequence by :func:`_ymn`.

    c3, the conifold and y20 reproduce displayed potentials.  For y{m}0
    with m >= 3, and for any sequence that no crystal count has checked,
    the potential is the rule's extrapolation (each loop couples the
    neighbouring cycle arrows with opposite signs), flagged here rather
    than silently assumed elsewhere.
    """
    _, sigma, names, sign = _lookup(geometry)
    q, words = _ymn(sigma)
    if names:
        q = Quiver(q.vertices, tuple(
            Arrow(new, q.arrow(old).src, q.arrow(old).tgt) for old, new in names.items()
        ))
        words = [(c, tuple(names[a] for a in wd)) for c, wd in words]
    return q, Potential.from_words(q, [(sign * c, wd) for c, wd in words])


def _c3_chart():
    """Twists, the Koszul resolution of the vertex and the chain maps of
    the three loops."""
    res = {
        "0": Resolution(
            "0",
            ((0,), (0, 0, 0), (0, 0, 0), (0,)),
            (
                _pm([[[(-1, X)]], [[(1, Y)]], [[(-1, Z)]]]),
                _pm(
                    [
                        [0, [(-1, Z)], [(-1, Y)]],
                        [[(-1, Z)], 0, [(1, X)]],
                        [[(1, Y)], [(1, X)], 0],
                    ]
                ),
                _pm([[[(1, X)], [(1, Y)], [(1, Z)]]]),
            ),
        )
    }
    gmaps = {
        "B1": (
            _pm([[[(-1, O_)]], [0], [0]]),
            _pm([[0, 0, 0], [0, 0, [(-1, O_)]], [0, [(-1, O_)], 0]]),
            _pm([[[(1, O_)], 0, 0]]),
        ),
        "B2": (
            _pm([[0], [[(1, O_)]], [0]]),
            _pm([[0, 0, [(1, O_)]], [0, 0, 0], [[(-1, O_)], 0, 0]]),
            _pm([[0, [(1, O_)], 0]]),
        ),
        "B3": (
            _pm([[0], [0], [[(-1, O_)]]]),
            _pm([[0, [(1, O_)], 0], [[(1, O_)], 0, 0], [0, 0, 0]]),
            _pm([[0, 0, [(1, O_)]]]),
        ),
    }
    return (0, 0, 0), res, gmaps, {}


def _conifold_chart():
    """Twists, the resolutions of both vertices, the arrows' chain maps and
    the stage-1 monad terms quadratic in the arrows (second derivatives of
    the quartic W)."""
    res = {
        "0": Resolution(
            "0",
            ((0,), (1, 1), (1, 1), (0,)),
            (
                _pm([[[(1, O_)]], [[(1, Z)]]]),
                _pm([[[(1, ZY)], [(-1, Y)]], [[(-1, XZ)], [(1, X)]]]),
                _pm([[[(1, X)], [(1, Y)]]]),
            ),
        ),
        "1": Resolution(
            "1",
            ((1,), (0, 0), (0, 0), (1,)),
            (
                _pm([[[(1, X)]], [[(1, Y)]]]),
                _pm([[[(1, ZY)], [(-1, XZ)]], [[(-1, Y)], [(1, X)]]]),
                _pm([[[(1, O_)], [(1, Z)]]]),
            ),
        ),
    }
    gmaps = {
        "A": (
            _pm([[[(1, O_)]], [0]]),
            _pm([[0, [(1, Y)]], [[(-1, Y)], 0]]),
            _pm([[[(-1, O_)], 0]]),
        ),
        "C": (
            _pm([[0], [[(1, O_)]]]),
            _pm([[0, [(-1, X)]], [[(1, X)], 0]]),
            _pm([[0, [(-1, O_)]]]),
        ),
        "B": (
            _pm([[[(1, O_)]], [0]]),
            _pm([[0, [(1, Z)]], [[(-1, Z)], 0]]),
            _pm([[[(-1, O_)], 0]]),
        ),
        "D": (
            _pm([[0], [[(1, O_)]]]),
            _pm([[0, [(-1, O_)]], [[(1, O_)], 0]]),
            _pm([[0, [(-1, O_)]]]),
        ),
    }
    quadratic = {
        (1, i, j): ((c, O_, tuple(word)),)
        for i, j, c, word in (
            (0, 0, -1, "CD"), (0, 1, 1, "CB"), (1, 0, 1, "AD"), (1, 1, -1, "AB"),
            (2, 2, -1, "DC"), (2, 3, 1, "DA"), (3, 2, 1, "BC"), (3, 3, -1, "BA"),
        )
    }
    return (-1, -1, 1), res, gmaps, quadratic


def _y20_chart():
    """Twists, the resolutions of both vertices and the arrows' chain maps."""
    res = {
        "0": Resolution(
            "0",
            ((0,), (0, 1, 1), (0, 1, 1), (0,)),
            (
                _pm([[[(1, Y)]], [[(1, O_)]], [[(1, Z)]]]),
                _pm(
                    [
                        [0, [(1, XZ)], [(-1, X)]],
                        [[(-1, Z)], 0, [(1, Y)]],
                        [[(1, O_)], [(-1, Y)], 0],
                    ]
                ),
                _pm([[[(1, Y)], [(1, X)], [(1, XZ)]]]),
            ),
        ),
        "1": Resolution(
            "1",
            ((1,), (1, 0, 0), (1, 0, 0), (1,)),
            (
                _pm([[[(1, Y)]], [[(1, X)]], [[(1, XZ)]]]),
                _pm(
                    [
                        [0, [(1, Z)], [(-1, O_)]],
                        [[(-1, XZ)], 0, [(1, Y)]],
                        [[(1, X)], [(-1, Y)], 0],
                    ]
                ),
                _pm([[[(1, Y)], [(1, O_)], [(1, Z)]]]),
            ),
        ),
    }
    loop_map = (
        _pm([[[(1, O_)]], [0], [0]]),
        _pm([[0, 0, 0], [0, 0, [(-1, O_)]], [0, [(1, O_)], 0]]),
        _pm([[[(1, O_)], 0, 0]]),
    )
    hop_map_1 = (
        _pm([[0], [[(-1, O_)]], [0]]),
        _pm([[0, 0, [(-1, O_)]], [0, 0, 0], [[(1, O_)], 0, 0]]),
        _pm([[0, [(-1, O_)], 0]]),
    )
    hop_map_2 = (
        _pm([[0], [0], [[(-1, O_)]]]),
        _pm([[0, [(1, O_)], 0], [[(-1, O_)], 0, 0], [0, 0, 0]]),
        _pm([[0, 0, [(-1, O_)]]]),
    )
    gmaps = {
        "E": loop_map,
        "F": loop_map,
        "A": hop_map_1,
        "C": hop_map_2,
        "B": hop_map_1,
        "D": hop_map_2,
    }
    return (-2, 0, 1), res, gmaps, {}


# geometry -> its chart data; the y{m}0 with m >= 3 have none
_CHARTS = {"c3": _c3_chart, "conifold": _conifold_chart, "y20": _y20_chart}


def get_entry(geometry: str) -> CatalogEntry:
    """A geometry's catalog entry: simples F0..F(N-1) and curve classes
    C1..C(N-1) follow from its N vertices."""
    g = geometry.lower()
    q, w = get_quiver_with_potential(g)
    chart = _CHARTS.get(_lookup(g)[0])
    twists, res, gmaps, quadratic = chart() if chart else ((0, 0, 0), {}, {}, {})
    n = len(q.vertices)
    return CatalogEntry(
        g, q, w, tuple(f"F{i}" for i in range(n)), ("x", "y", "z"), twists, res, gmaps,
        tuple(f"C{i}" for i in range(1, n)), quadratic,
    )


# -- framed examples -------------------------------------------------------------


# example -> (base geometry, framing vertices, arrows added to the base quiver,
# words added to its potential, nilpotent marked arrows); every
# pervsystem-<geometry> frames vertex 0 of its geometry by one arrow I
_FRAMED = {
    "adhm3d": (
        "c3", ("inf",),
        (Arrow("I", "inf", "0"), Arrow("J", "0", "inf"), Arrow("Af", "inf", "inf", marked=True)),
        ((1, ("J", "I", "B3")), (-1, ("J", "Af", "I"))), ("Af",),
    ),
    "spiked": (
        "c3", ("inf1", "inf2", "inf3"),
        tuple(
            a for k in (1, 2, 3)
            for a in (Arrow(f"I{k}", f"inf{k}", "0"), Arrow(f"J{k}", "0", f"inf{k}"))
        ),
        tuple((1, (f"J{k}", f"I{k}", f"B{k}")) for k in (1, 2, 3)), (),
    ),
    "kn": (
        "y20", ("inf",),
        (Arrow("I", "inf", "0"), Arrow("J", "0", "inf"), Arrow("Gf", "inf", "inf", marked=True)),
        ((1, ("J", "I", "E")), (-1, ("J", "Gf", "I"))), ("Gf",),
    ),
    "beilinson": (
        "y20", ("inf",),
        (Arrow("I", "inf", "0"), Arrow("J1", "1", "inf"), Arrow("J2", "1", "inf")),
        ((1, ("A", "J1", "I")), (1, ("C", "J2", "I"))), (),
    ),
    "prechainsaw": (
        "y20", ("inf",),
        (Arrow("J", "0", "inf"), Arrow("I", "inf", "1"), Arrow("G", "inf", "inf", marked=True)),
        ((1, ("D", "J", "I")),), ("G",),
    ),
    "chainsaw2": (
        "y20", ("inf0", "inf1"),
        (
            Arrow("I", "inf1", "0"), Arrow("J1", "1", "inf1"), Arrow("J2", "1", "inf1"),
            Arrow("J0", "0", "inf0"), Arrow("I0", "inf0", "1"),
            Arrow("K", "inf1", "inf0", marked=True),
        ),
        (
            (1, ("A", "J1", "I")), (1, ("C", "J2", "I")),
            (1, ("D", "J0", "I0")), (1, ("J1", "K", "I0")),
        ),
        (),
    ),
    "ny3d": (
        "conifold", ("inf",), (Arrow("I", "inf", "0"), Arrow("J", "1", "inf")),
        ((1, ("C", "J", "I")),), (),
    ),
}


def framed_example_ids() -> tuple[str, ...]:
    return ("pervsystem-c3", "pervsystem-conifold", "pervsystem-y20") + tuple(_FRAMED)


def get_framed_example(example: str) -> FramedQuiverWithPotential:
    """Framed quiver-with-potential templates; marked arrows carry fixed
    matrices to be bound by a framing structure."""
    e = example.lower()
    if e.startswith("pervsystem-"):
        spec = (e.removeprefix("pervsystem-"), ("inf",), (Arrow("I", "inf", "0"),), (), ())
    elif e in _FRAMED:
        spec = _FRAMED[e]
    else:
        raise NotInCatalog(example)
    geometry, framing_vertices, arrows, words, nilpotent = spec
    base, w = get_quiver_with_potential(geometry)
    q = Quiver(base.vertices + framing_vertices, base.arrows + arrows)
    terms = [(c, wd.names) for wd, c in w.terms.items()] + list(words)
    return FramedQuiverWithPotential(
        q, frozenset(framing_vertices), Potential.from_words(q, terms),
        nilpotent_marked=frozenset(nilpotent), label=e,
    )


# -- monad templates --------------------------------------------------------------


# template -> (geometry, framed example or None, term -> (degree, vertex) slots
# appended after the chart's, entries added to the chart monad as
# {(stage, row, col): ((coeff, exps, word), ...)})
_MONAD_TEMPLATES = {
    "c3": ("c3", None, {}, {}),
    "y20": ("y20", None, {}, {}),
    "pervsystem-c3": (
        "c3", "pervsystem-c3", {2: ((0, "inf"),)}, {(2, 0, 3): ((1, O_, ("I",)),)},
    ),
    "pervsystem-conifold": (
        "conifold", "pervsystem-conifold", {2: ((0, "inf"),)}, {(2, 0, 4): ((1, O_, ("I",)),)},
    ),
    "adhm3d": (
        "c3", "adhm3d", {1: ((0, "inf"),), 2: ((0, "inf"),)},
        {
            (0, 3, 0): ((1, O_, ("J",)),), (1, 2, 3): ((1, O_, ("I",)),),
            (1, 3, 2): ((-1, O_, ("J",)),), (1, 3, 3): ((1, O_, ("Af",)), (-1, Z, ())),
            (2, 0, 3): ((1, O_, ("I",)),),
        },
    ),
    "kn": (
        "y20", "kn", {1: ((0, "inf"),), 2: ((0, "inf"),)},
        {
            (0, 6, 0): ((1, O_, ("J",)),), (1, 0, 6): ((-1, O_, ("I",)),),
            (1, 6, 0): ((1, O_, ("J",)),), (1, 6, 6): ((1, O_, ("Gf",)), (-1, Y, ())),
            (2, 0, 6): ((-1, O_, ("I",)),),
        },
    ),
    "ny3d": (
        "conifold", "ny3d", {1: ((1, "inf"),), 2: ((0, "inf"),)},
        {
            (0, 4, 1): ((-1, O_, ("J",)),), (1, 1, 4): ((1, O_, ("I",)),),
            (1, 4, 3): ((1, O_, ("J",)),), (1, 4, 4): ((1, Y, ()),),
            (2, 0, 4): ((-1, O_, ("I",)),),
        },
    ),
}


def monad_template_ids() -> tuple[str, ...]:
    return tuple(_MONAD_TEMPLATES)


def _monad_spec(template: str) -> tuple:
    try:
        return _MONAD_TEMPLATES[template.lower()]
    except KeyError:
        raise NotInCatalog(template) from None


def get_monad_template(template: str) -> MonadTemplate:
    """A catalog monad template, built from its geometry's chart.

    Term k holds one slot ``Slot(d, v)`` per degree d of vertex v's
    resolution in term k, vertices in quiver order, then the template's
    framing slots.  The differential d_k carries each resolution's d_k on
    the block diagonal with the empty word, and for each arrow a the chain
    map g_a[k] times the word ``(a,)`` with sign (-1)^(k+1), from the src(a)
    block of term k to the tgt(a) block of term k+1; the chart's quadratic
    terms and the template's framing entries are added to it.  Coordinates
    and twists come from the geometry, the quiver from the framed example
    (or the geometry when unframed).
    """
    geometry, example, framing_slots, framing_entries = _monad_spec(template)
    entry = get_entry(geometry)
    quiver = entry.quiver if example is None else get_framed_example(example).quiver
    res, vertices = entry.resolutions, entry.quiver.vertices
    terms, starts = [], []
    for k in range(len(res[vertices[0]].degrees)):
        slots, start = [], {}
        for v in vertices:
            start[v] = len(slots)
            slots += [Slot(d, v) for d in res[v].degrees[k]]
        terms.append(tuple(slots + [Slot(d, v) for d, v in framing_slots.get(k, ())]))
        starts.append(start)
    diffs = [[[{} for _ in src] for _ in tgt] for src, tgt in zip(terms, terms[1:])]
    for k in range(len(diffs)):
        blocks = [(v, v, (), 1, res[v].diffs[k]) for v in vertices] + [
            (a.src, a.tgt, (a.name,), (-1) ** (k + 1), entry.generator_maps[a.name][k])
            for a in entry.quiver.arrows
        ]
        for src, tgt, word, sign, mat in blocks:
            for i, row in enumerate(mat):
                for j, poly in enumerate(row):
                    cell = diffs[k][starts[k + 1][tgt] + i][starts[k][src] + j]
                    for exps, c in poly.items():
                        cell[exps, word] = sign * c
    for (k, i, j), ts in [*entry.quadratic_terms.items(), *framing_entries.items()]:
        for c, exps, word in ts:
            diffs[k][i][j][exps, word] = Fraction(c)
    return MonadTemplate(
        template.lower(), entry.coords, entry.twists, tuple(terms),
        tuple(tuple(tuple(row) for row in mat) for mat in diffs), quiver,
    )


def monad_case(template: str):
    """The assembled monad of a stored template, with its marked symbols at
    zero, and the relation set its d^2 is certified against: the
    potential's relations for an unframed template, the framed relations at
    zero framing for a framed one."""
    tpl = get_monad_template(template)
    geometry, example, _, _ = _monad_spec(template)
    if example is None:
        rels = relations_from_potential(*get_quiver_with_potential(geometry))
    else:
        fq = get_framed_example(example)
        rels = framing.framed_relations(
            framing.specialize(fq, framing.FramingStructure.zero(fq))
        )
    c = monad.assemble(tpl, {a.name: 0 for a in tpl.quiver.arrows if a.marked})
    return c, rels


# -- shift matrices -----------------------------------------------------------------


@dataclass(frozen=True)
class ShiftMatrix:
    """Lower-triangular shift data: subdiagonal entries s_(i+1,i), all
    non-negative (the standing positivity assumption)."""

    m: int
    n: int
    sub: tuple[int, ...]

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m + self.n < 1:
            raise ValueError("need m + n >= 1")
        if len(self.sub) != self.m + self.n - 1:
            raise ValueError("subdiagonal must have length m + n - 1")
        if any(s < 0 for s in self.sub):
            raise NegativeShift(f"negative subdiagonal entry in {self.sub}")

    def full_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The filled-in lower-triangular matrix: entry (i, j) for i > j is
        the sum of the subdiagonal entries between them."""
        size = self.m + self.n
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                if i <= j:
                    row.append(0)
                else:
                    row.append(sum(self.sub[j:i]))
            rows.append(tuple(row))
        return tuple(rows)


def divisor_to_shift_matrix(m: int, n: int, mu, nu=()) -> ShiftMatrix:
    """Shift matrix of the toric divisor encoded by the partitions mu (length
    m) and nu (length n): adjacent-root shifts are the successive
    differences of mu, the junction difference mu_m - nu_1 when n >= 1, and
    the successive differences of nu."""
    mu = list(mu)
    nu = list(nu)
    if len(mu) != m or len(nu) != n:
        raise ValueError("partition lengths must be m and n")
    if any(a < b for a, b in zip(mu, mu[1:])) or any(a < b for a, b in zip(nu, nu[1:])):
        raise NegativeShift("partitions must be weakly decreasing")
    if any(p < 0 for p in mu + nu):
        raise NegativeShift("partition parts must be non-negative")
    if n >= 1 and m >= 1 and mu[-1] < nu[0]:
        raise NegativeShift("positivity needs the last part of mu to dominate nu")
    sub: list[int] = []
    for i in range(m - 1):
        sub.append(mu[i] - mu[i + 1])
    if n >= 1 and m >= 1:
        sub.append(mu[-1] - nu[0])
    for j in range(n - 1):
        sub.append(nu[j] - nu[j + 1])
    return ShiftMatrix(m, n, tuple(sub))
