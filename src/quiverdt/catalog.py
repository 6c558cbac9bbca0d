"""Hard-coded geometry data: quivers with potential for the small toric
Calabi-Yau threefolds, framed variants, chart resolutions with generator
maps, monad templates, and divisor-to-shift-matrix arithmetic.

Potentials are transcribed into traversal-order words (see
:mod:`quiverdt.ncalg`); a product of operators reads right-to-left, so the
first arrow of each stored word is the one applied first.  Monad template
entries carry the sign conventions under which every stored template
composes to zero modulo its relation ideal; they differ from ad-hoc
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


_YM0_RE = re.compile(r"y(\d+)0$")


def geometry_ids() -> tuple[str, ...]:
    return ("c3", "conifold", "y20", "ym0 (m >= 2, e.g. y30)")


def _c3_quiver() -> Quiver:
    return Quiver(("0",), (Arrow("B1", "0", "0"), Arrow("B2", "0", "0"), Arrow("B3", "0", "0")))


def _conifold_quiver() -> Quiver:
    return Quiver(
        ("0", "1"),
        (Arrow("A", "0", "1"), Arrow("C", "0", "1"), Arrow("B", "1", "0"), Arrow("D", "1", "0")),
    )


def _y20_quiver() -> Quiver:
    return Quiver(
        ("0", "1"),
        (
            Arrow("E", "0", "0"),
            Arrow("F", "1", "1"),
            Arrow("A", "0", "1"),
            Arrow("C", "0", "1"),
            Arrow("B", "1", "0"),
            Arrow("D", "1", "0"),
        ),
    )


def _ym0_quiver(m: int) -> Quiver:
    vs = tuple(str(i) for i in range(m))
    arrows = []
    for i in range(m):
        arrows.append(Arrow(f"w{i}", str(i), str(i)))
    for i in range(m):
        arrows.append(Arrow(f"a{i}", str(i), str((i + 1) % m)))
    for i in range(m):
        arrows.append(Arrow(f"b{i}", str((i + 1) % m), str(i)))
    return Quiver(vs, tuple(arrows))


def get_quiver_with_potential(geometry: str) -> tuple[Quiver, Potential]:
    """The quiver and potential of a catalog geometry.

    For the loops-plus-cycle family y{m}0 with m >= 3 the potential is the
    direct generalization of the m = 2 display (each loop couples the
    neighbouring cycle arrows with opposite signs); only m = 2 has a
    displayed cross-check, so the general case is flagged as extrapolated
    in this docstring rather than silently assumed elsewhere.
    """
    g = geometry.lower()
    if g in ("c3", "y10"):
        q = _c3_quiver()
        # operator words B1.B2.B3 - B1.B3.B2 in traversal order
        w = Potential.from_words(q, [(1, ("B1", "B3", "B2")), (-1, ("B1", "B2", "B3"))])
        return q, w
    if g in ("conifold", "y11"):
        q = _conifold_quiver()
        w = Potential.from_words(q, [(1, ("A", "D", "C", "B")), (-1, ("A", "B", "C", "D"))])
        return q, w
    if g == "y20":
        q = _y20_quiver()
        w = Potential.from_words(
            q,
            [
                (1, ("E", "C", "B")),
                (-1, ("E", "A", "D")),
                (1, ("F", "D", "A")),
                (-1, ("F", "B", "C")),
            ],
        )
        return q, w
    m = _parse_ym0(g)
    if m is not None:
        q = _ym0_quiver(m)
        words = []
        for i in range(m):
            words.append((1, (f"a{i}", f"b{i}", f"w{i}")))
            j = (i - 1) % m
            words.append((-1, (f"b{j}", f"a{j}", f"w{i}")))
        return q, Potential.from_words(q, words)
    raise NotInCatalog(geometry)


def _parse_ym0(g: str) -> int | None:
    match = _YM0_RE.match(g)
    if match:
        m = int(match.group(1))
        if m >= 2:
            return m
    return None


def get_entry(geometry: str) -> CatalogEntry:
    g = geometry.lower()
    q, w = get_quiver_with_potential(g)
    if g in ("c3", "y10"):
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
        return CatalogEntry(g, q, w, ("F0",), ("x", "y", "z"), (0, 0, 0), res, gmaps, ())
    if g in ("conifold", "y11"):
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
                _pm([[[(-1, O_)]], [0]]),
                _pm([[0, [(-1, Y)]], [[(1, Y)], 0]]),
                _pm([[[(1, O_)], 0]]),
            ),
            "C": (
                _pm([[0], [[(-1, O_)]]]),
                _pm([[0, [(1, X)]], [[(-1, X)], 0]]),
                _pm([[0, [(1, O_)]]]),
            ),
            "B": (
                _pm([[[(-1, O_)]], [0]]),
                _pm([[0, [(-1, Z)]], [[(1, Z)], 0]]),
                _pm([[[(1, O_)], 0]]),
            ),
            "D": (
                _pm([[0], [[(-1, O_)]]]),
                _pm([[0, [(1, O_)]], [[(-1, O_)], 0]]),
                _pm([[0, [(1, O_)]]]),
            ),
        }
        return CatalogEntry(
            g, q, w, ("F0", "F1"), ("x", "y", "z"), (-1, -1, 1), res, gmaps, ("C1",)
        )
    if g == "y20":
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
            _pm([[0], [[(1, O_)]], [0]]),
            _pm([[0, 0, [(1, O_)]], [0, 0, 0], [[(-1, O_)], 0, 0]]),
            _pm([[0, [(1, O_)], 0]]),
        )
        hop_map_2 = (
            _pm([[0], [0], [[(1, O_)]]]),
            _pm([[0, [(-1, O_)], 0], [[(1, O_)], 0, 0], [0, 0, 0]]),
            _pm([[0, 0, [(1, O_)]]]),
        )
        gmaps = {
            "E": loop_map,
            "F": loop_map,
            "A": hop_map_1,
            "C": hop_map_2,
            "B": hop_map_1,
            "D": hop_map_2,
        }
        return CatalogEntry(
            g, q, w, ("F0", "F1"), ("x", "y", "z"), (-2, 0, 1), res, gmaps, ("C1",)
        )
    m = _parse_ym0(g)
    if m is not None:
        curve = tuple(f"C{i}" for i in range(1, m))
        return CatalogEntry(
            g, q, w, tuple(f"F{i}" for i in range(m)), ("x", "y", "z"), (0, 0, 0), {}, {}, curve
        )
    raise NotInCatalog(geometry)


# -- framed examples -------------------------------------------------------------


def framed_example_ids() -> tuple[str, ...]:
    return (
        "pervsystem-c3",
        "pervsystem-conifold",
        "pervsystem-y20",
        "adhm3d",
        "spiked",
        "kn",
        "beilinson",
        "prechainsaw",
        "chainsaw2",
        "ny3d",
    )


def get_framed_example(example: str) -> FramedQuiverWithPotential:
    """Framed quiver-with-potential templates; marked arrows carry fixed
    matrices to be bound by a framing structure."""
    e = example.lower()
    if e.startswith("pervsystem-"):
        geom = e.removeprefix("pervsystem-")
        q, w = get_quiver_with_potential(geom)
        framed = Quiver(
            q.vertices + ("inf",),
            q.arrows + (Arrow("I", "inf", "0"),),
        )
        return FramedQuiverWithPotential(
            framed,
            frozenset({"inf"}),
            Potential.from_words(framed, [(c, wd.names) for wd, c in w.terms.items()]),
            label=e,
        )
    if e == "adhm3d":
        base, w = get_quiver_with_potential("c3")
        q = Quiver(
            base.vertices + ("inf",),
            base.arrows
            + (Arrow("I", "inf", "0"), Arrow("J", "0", "inf"), Arrow("Af", "inf", "inf", marked=True)),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [(1, ("J", "I", "B3")), (-1, ("J", "Af", "I"))]
        return FramedQuiverWithPotential(
            q, frozenset({"inf"}), Potential.from_words(q, words),
            nilpotent_marked=frozenset({"Af"}), label=e,
        )
    if e == "spiked":
        base, w = get_quiver_with_potential("c3")
        arrows = list(base.arrows)
        vs = list(base.vertices)
        for k in (1, 2, 3):
            vs.append(f"inf{k}")
            arrows.append(Arrow(f"I{k}", f"inf{k}", "0"))
            arrows.append(Arrow(f"J{k}", "0", f"inf{k}"))
        q = Quiver(tuple(vs), tuple(arrows))
        words = [(c, wd.names) for wd, c in w.terms.items()]
        for k in (1, 2, 3):
            words.append((1, (f"J{k}", f"I{k}", f"B{k}")))
        return FramedQuiverWithPotential(
            q, frozenset({"inf1", "inf2", "inf3"}), Potential.from_words(q, words), label=e
        )
    if e == "kn":
        base, w = get_quiver_with_potential("y20")
        q = Quiver(
            base.vertices + ("inf",),
            base.arrows
            + (Arrow("I", "inf", "0"), Arrow("J", "0", "inf"), Arrow("Gf", "inf", "inf", marked=True)),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [(1, ("J", "I", "E")), (-1, ("J", "Gf", "I"))]
        return FramedQuiverWithPotential(
            q, frozenset({"inf"}), Potential.from_words(q, words),
            nilpotent_marked=frozenset({"Gf"}), label=e,
        )
    if e == "beilinson":
        base, w = get_quiver_with_potential("y20")
        q = Quiver(
            base.vertices + ("inf",),
            base.arrows
            + (Arrow("I", "inf", "0"), Arrow("J1", "1", "inf"), Arrow("J2", "1", "inf")),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [(1, ("A", "J1", "I")), (1, ("C", "J2", "I"))]
        return FramedQuiverWithPotential(
            q, frozenset({"inf"}), Potential.from_words(q, words), label=e
        )
    if e == "prechainsaw":
        base, w = get_quiver_with_potential("y20")
        q = Quiver(
            base.vertices + ("inf",),
            base.arrows
            + (Arrow("J", "0", "inf"), Arrow("I", "inf", "1"), Arrow("G", "inf", "inf", marked=True)),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [(1, ("D", "J", "I"))]
        return FramedQuiverWithPotential(
            q, frozenset({"inf"}), Potential.from_words(q, words),
            nilpotent_marked=frozenset({"G"}), label=e,
        )
    if e == "chainsaw2":
        base, w = get_quiver_with_potential("y20")
        q = Quiver(
            base.vertices + ("inf0", "inf1"),
            base.arrows
            + (
                Arrow("I", "inf1", "0"),
                Arrow("J1", "1", "inf1"),
                Arrow("J2", "1", "inf1"),
                Arrow("J0", "0", "inf0"),
                Arrow("I0", "inf0", "1"),
                Arrow("K", "inf1", "inf0", marked=True),
            ),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [
            (1, ("A", "J1", "I")),
            (1, ("C", "J2", "I")),
            (1, ("D", "J0", "I0")),
            (1, ("J1", "K", "I0")),
        ]
        return FramedQuiverWithPotential(
            q, frozenset({"inf0", "inf1"}), Potential.from_words(q, words), label=e
        )
    if e == "ny3d":
        base, w = get_quiver_with_potential("conifold")
        q = Quiver(
            base.vertices + ("inf",),
            base.arrows + (Arrow("I", "inf", "0"), Arrow("J", "1", "inf")),
        )
        words = [(c, wd.names) for wd, c in w.terms.items()]
        words += [(1, ("C", "J", "I"))]
        return FramedQuiverWithPotential(
            q, frozenset({"inf"}), Potential.from_words(q, words), label=e
        )
    raise NotInCatalog(example)


# -- monad templates --------------------------------------------------------------


def _c3_monad_rows(framing: str | None):
    """The Koszul complex of the C^3 chart; ``framing`` is None,
    "pervsystem" or "adhm3d"."""
    B1, B2, B3, I, J = ("B1",), ("B2",), ("B3",), ("I",), ("J",)
    d1 = [
        [[(1, O_, B1), (-1, X, ())]],
        [[(1, Y, ()), (-1, O_, B2)]],
        [[(1, O_, B3), (-1, Z, ())]],
    ]
    d2 = [
        [[], [(1, O_, B3), (-1, Z, ())], [(1, O_, B2), (-1, Y, ())]],
        [[(1, O_, B3), (-1, Z, ())], [], [(1, X, ()), (-1, O_, B1)]],
        [[(1, Y, ()), (-1, O_, B2)], [(1, X, ()), (-1, O_, B1)], []],
    ]
    d3 = [
        [
            [(1, X, ()), (-1, O_, B1)],
            [(1, Y, ()), (-1, O_, B2)],
            [(1, Z, ()), (-1, O_, B3)],
        ]
    ]
    if framing == "pervsystem":
        d2.append([[], [], []])
        d3[0].append([(1, O_, I)])
    elif framing == "adhm3d":
        d1.append([[(1, O_, J)]])
        for i, extra in enumerate([[], [], [(1, O_, I)]]):
            d2[i].append(extra)
        d2.append([[], [], [(-1, O_, J)], [(1, O_, ("Af",)), (-1, Z, ())]])
        d3[0].append([(1, O_, I)])
    return d1, d2, d3


def _conifold_monad_rows(framing: str | None):
    """Differential entry matrices of the 4-term chart complex for the
    two-vertex small-resolution quiver; ``framing`` is None, "pervsystem",
    or "ny3d"."""
    A, B, C, D = ("A",), ("B",), ("C",), ("D",)
    CD, CB, AD, AB = ("C", "D"), ("C", "B"), ("A", "D"), ("A", "B")
    DC, DA, BC, BA = ("D", "C"), ("D", "A"), ("B", "C"), ("B", "A")
    d1 = [
        [[(1, O_, ())], [(-1, O_, B)]],
        [[(1, Z, ())], [(-1, O_, D)]],
        [[(-1, O_, A)], [(1, X, ())]],
        [[(-1, O_, C)], [(1, Y, ())]],
    ]
    d2 = [
        [
            [(1, ZY, ()), (-1, O_, CD)],
            [(1, O_, CB), (-1, Y, ())],
            [],
            [(1, Z, B), (-1, O_, D)],
        ],
        [
            [(1, O_, AD), (-1, XZ, ())],
            [(1, X, ()), (-1, O_, AB)],
            [(1, O_, D), (-1, Z, B)],
            [],
        ],
        [
            [],
            [(1, Y, A), (-1, X, C)],
            [(1, ZY, ()), (-1, O_, DC)],
            [(1, O_, DA), (-1, XZ, ())],
        ],
        [
            [(1, X, C), (-1, Y, A)],
            [],
            [(1, O_, BC), (-1, Y, ())],
            [(1, X, ()), (-1, O_, BA)],
        ],
    ]
    d3 = [
        [[(1, X, ())], [(1, Y, ())], [(1, O_, B)], [(1, O_, D)]],
        [[(1, O_, A)], [(1, O_, C)], [(1, O_, ())], [(1, Z, ())]],
    ]
    if framing == "pervsystem":
        d2.append([[], [], [], []])
        d3[0].append([(1, O_, ("I",))])
        d3[1].append([])
    elif framing == "ny3d":
        d1.append([[], [(-1, O_, ("J",))]])
        for i, extra in enumerate([[], [(1, O_, ("I",))], [], []]):
            d2[i].append(extra)
        d2.append([[], [], [], [(1, O_, ("J",))], [(1, Y, ())]])
        d3[0].append([(-1, O_, ("I",))])
        d3[1].append([])
    return d1, d2, d3


def _y20_monad_rows(framing: str | None):
    """The 4-term chart complex for the loops-plus-doubled-edge quiver;
    ``framing`` is None or "kn"."""
    E, F, A, B, C, D = ("E",), ("F",), ("A",), ("B",), ("C",), ("D",)
    d1 = [
        [[(1, Y, ()), (-1, O_, E)], []],
        [[(1, O_, ())], [(1, O_, B)]],
        [[(1, Z, ())], [(1, O_, D)]],
        [[], [(1, Y, ()), (-1, O_, F)]],
        [[(1, O_, A)], [(1, X, ())]],
        [[(1, O_, C)], [(1, XZ, ())]],
    ]
    d2 = [
        [[], [(1, XZ, ())], [(-1, X, ())], [], [(1, O_, D)], [(-1, O_, B)]],
        [[(-1, Z, ())], [], [(1, Y, ()), (-1, O_, E)], [(-1, O_, D)], [], []],
        [[(1, O_, ())], [(1, O_, E), (-1, Y, ())], [], [(1, O_, B)], [], []],
        [[], [(1, O_, C)], [(-1, O_, A)], [], [(1, Z, ())], [(-1, O_, ())]],
        [[(-1, O_, C)], [], [], [(-1, XZ, ())], [], [(1, Y, ()), (-1, O_, F)]],
        [[(1, O_, A)], [], [], [(1, X, ())], [(1, O_, F), (-1, Y, ())], []],
    ]
    d3 = [
        [
            [(1, Y, ()), (-1, O_, E)],
            [(1, X, ())],
            [(1, XZ, ())],
            [],
            [(1, O_, B)],
            [(1, O_, D)],
        ],
        [
            [],
            [(1, O_, A)],
            [(1, O_, C)],
            [(1, Y, ()), (-1, O_, F)],
            [(1, O_, ())],
            [(1, Z, ())],
        ],
    ]
    if framing == "kn":
        d1.append([[(1, O_, ("J",))], []])
        for i, extra in enumerate([[(-1, O_, ("I",))], [], [], [], [], []]):
            d2[i].append(extra)
        d2.append([[(1, O_, ("J",))], [], [], [], [], [], [(1, O_, ("Gf",)), (-1, Y, ())]])
        d3[0].append([(-1, O_, ("I",))])
        d3[1].append([])
    return d1, d2, d3


# Slot shorthand: (line-bundle degree, vertex) per summand.
_C3_SLOT = ((0, "0"),)
_PAIR = ((0, "0"), (1, "1"))
_CONIFOLD_MID = ((1, "0"), (1, "0"), (0, "1"), (0, "1"))
_Y20_MID = ((0, "0"), (1, "0"), (1, "0"), (1, "1"), (0, "1"), (0, "1"))
_INF = ((0, "inf"),)

# template -> (geometry, framed example or None, slot terms, differential rows)
_MONAD_TEMPLATES = {
    "c3": ("c3", None, (_C3_SLOT, _C3_SLOT * 3, _C3_SLOT * 3, _C3_SLOT), _c3_monad_rows(None)),
    "y20": ("y20", None, (_PAIR, _Y20_MID, _Y20_MID, _PAIR), _y20_monad_rows(None)),
    "pervsystem-c3": (
        "c3", "pervsystem-c3",
        (_C3_SLOT, _C3_SLOT * 3, _C3_SLOT * 3 + _INF, _C3_SLOT), _c3_monad_rows("pervsystem"),
    ),
    "pervsystem-conifold": (
        "conifold", "pervsystem-conifold",
        (_PAIR, _CONIFOLD_MID, _CONIFOLD_MID + _INF, _PAIR), _conifold_monad_rows("pervsystem"),
    ),
    "adhm3d": (
        "c3", "adhm3d",
        (_C3_SLOT, _C3_SLOT * 3 + _INF, _C3_SLOT * 3 + _INF, _C3_SLOT), _c3_monad_rows("adhm3d"),
    ),
    "kn": (
        "y20", "kn",
        (_PAIR, _Y20_MID + _INF, _Y20_MID + _INF, _PAIR), _y20_monad_rows("kn"),
    ),
    "ny3d": (
        "conifold", "ny3d",
        (_PAIR, _CONIFOLD_MID + ((1, "inf"),), _CONIFOLD_MID + _INF, _PAIR),
        _conifold_monad_rows("ny3d"),
    ),
}


def monad_template_ids() -> tuple[str, ...]:
    return tuple(_MONAD_TEMPLATES)


def _monad_spec(template: str) -> tuple:
    try:
        return _MONAD_TEMPLATES[template.lower()]
    except KeyError:
        raise NotInCatalog(template) from None


def _entry_matrix(rows) -> tuple:
    """A differential from rows of entries, each a list of ``(coeff, exps,
    word)`` terms."""
    out = []
    for row in rows:
        cells = []
        for terms in row:
            cell: monad.Entry = {}
            for coeff, exps, wd in terms:
                cell[exps, wd] = cell.get((exps, wd), Fraction(0)) + Fraction(coeff)
            cells.append({k: c for k, c in cell.items() if c != 0})
        out.append(tuple(cells))
    return tuple(out)


def get_monad_template(template: str) -> MonadTemplate:
    """A stored monad template: the chart coordinates and twists come from
    its geometry, the quiver from its framed example (or the geometry when
    unframed)."""
    geometry, example, terms, rows = _monad_spec(template)
    entry = get_entry(geometry)
    quiver = entry.quiver if example is None else get_framed_example(example).quiver
    return MonadTemplate(
        template.lower(), entry.coords, entry.twists,
        tuple(tuple(Slot(d, v) for d, v in term) for term in terms),
        tuple(_entry_matrix(d) for d in rows), quiver,
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
