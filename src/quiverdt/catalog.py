"""Geometry data: quivers with potential for the small toric Calabi-Yau
threefolds of the Y_{m,n} family, generated from cyclic parity sequences;
framed variants; monad templates derived from the framed quiver with
potential and one chart monomial per arrow; and divisor-to-shift-matrix
arithmetic.

Potentials are transcribed into traversal-order words (see
:mod:`quiverdt.ncalg`); a product of operators reads right-to-left, so the
first arrow of each stored word is the one applied first.  A chart of a
geometry is a point of it: each internal arrow a takes a coordinate
monomial mu(a), so that mu kills every abelianised cyclic derivative of W,
and each vertex a line-bundle degree.  A monad template is the bimodule
Koszul resolution of the Jacobi algebra of (Q^f, W^f) (Ginzburg,
*Calabi-Yau algebras*) with its right factor taken at that point, the
construction behind the perverse coherent systems of Nagao-Nakajima
(*Counting invariant of perverse coherent sheaves and its wall-crossing*):
see :func:`get_monad_template`.
"""

from __future__ import annotations

import re
from contextlib import suppress
from dataclasses import dataclass

from . import framing, linalg, monad
from .framing import FramedQuiverWithPotential
from .monad import MonadTemplate, Slot
from .ncalg import Arrow, Potential, Quiver


class NotInCatalog(KeyError):
    pass


class NegativeShift(ValueError):
    pass


# -- geometries ----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    geometry: str
    quiver: Quiver
    potential: Potential
    simples: tuple[str, ...]
    coords: tuple[str, ...]
    twists: tuple[int, ...]
    degrees: dict[str, int]  # vertex -> line-bundle degree of its chart slots
    point: dict[str, tuple[int, ...]]  # arrow -> exponents of its chart monomial
    curve_classes: tuple[str, ...]


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


# geometry -> (twists, vertex -> degree, arrow -> chart monomial in x, y, z);
# the y{m}0 with m >= 3 have no chart
_CHARTS = {
    "c3": ((0, 0, 0), {"0": 0}, {"B1": (1, 0, 0), "B2": (0, 1, 0), "B3": (0, 0, 1)}),
    "conifold": (
        (-1, -1, 1), {"0": 0, "1": 1},
        {"A": (1, 0, 0), "C": (0, 1, 0), "B": (0, 0, 0), "D": (0, 0, 1)},
    ),
    "y20": (
        (-2, 0, 1), {"0": 0, "1": 1},
        {
            "E": (0, 1, 0), "F": (0, 1, 0), "A": (1, 0, 0), "C": (1, 0, 1),
            "B": (0, 0, 0), "D": (0, 0, 1),
        },
    ),
}


def get_entry(geometry: str) -> CatalogEntry:
    """A geometry's catalog entry: simples F0..F(N-1) and curve classes
    C1..C(N-1) follow from its N vertices."""
    g = geometry.lower()
    q, w = get_quiver_with_potential(g)
    twists, degrees, point = _CHARTS.get(_lookup(g)[0], ((0, 0, 0), {}, {}))
    n = len(q.vertices)
    return CatalogEntry(
        g, q, w, tuple(f"F{i}" for i in range(n)), ("x", "y", "z"), twists, degrees, point,
        tuple(f"C{i}" for i in range(1, n)),
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


def _framed_spec(example: str) -> tuple:
    """The :data:`_FRAMED` row of a framed example; a geometry is its own
    base, with no framing vertices, arrows, words or nilpotent arrows."""
    e = example.lower()
    if e.startswith("pervsystem-"):
        try:
            _lookup(e.removeprefix("pervsystem-"))
        except NotInCatalog:
            raise NotInCatalog(example) from None
        return (e.removeprefix("pervsystem-"), ("inf",), (Arrow("I", "inf", "0"),), (), ())
    if e in _FRAMED:
        return _FRAMED[e]
    _lookup(example)
    return e, (), (), (), ()


def get_framed_example(example: str) -> FramedQuiverWithPotential:
    """Framed quiver-with-potential templates; marked arrows carry fixed
    matrices to be bound by a framing structure.  A geometry id names the
    geometry's own quiver with potential, with no framing vertices."""
    return _frame(example, *get_quiver_with_potential(_framed_spec(example)[0]))


def _frame(example: str, base: Quiver, w: Potential) -> FramedQuiverWithPotential:
    """A framed example built on its base geometry's quiver and potential."""
    e = example.lower()
    _, framing_vertices, arrows, words, nilpotent = _framed_spec(e)
    q = Quiver(base.vertices + framing_vertices, base.arrows + arrows)
    terms = [(c, wd) for wd, c in w.terms.items()] + list(words)
    return FramedQuiverWithPotential(
        q, frozenset(framing_vertices), Potential.from_words(q, terms),
        nilpotent_marked=frozenset(nilpotent), label=e,
    )


# -- monad templates --------------------------------------------------------------


# the monad templates: each is derived from get_framed_example(id), whose
# geometry is its _FRAMED base (a geometry id frames itself with nothing)
_MONAD_TEMPLATES = ("c3", "y20", "pervsystem-c3", "pervsystem-conifold", "adhm3d", "kn", "ny3d")


def monad_template_ids() -> tuple[str, ...]:
    return _MONAD_TEMPLATES


def get_monad_template(template: str) -> MonadTemplate:
    """A catalog monad template, derived from the quiver with potential of
    its framed example (for a geometry id, the geometry's own, with no
    framing vertices) and the geometry's chart: the vertex degrees deg and
    the point mu, which is zero on framing and marked arrows.

    Terms 0 and 3 hold one slot ``Slot(deg v, v)`` per internal vertex v,
    term 1 one slot ``Slot(deg src a, tgt a)`` per unmarked arrow a with an
    internal source, and term 2 one slot ``Slot(deg tgt b, src b)`` per
    unmarked arrow b with an internal target; slots are grouped by vertex
    in quiver order, and by arrow in quiver order within a vertex.  d_0
    sends a to ``a - mu(a)`` and d_2 sends b to ``b - mu(b)``, the word a
    from the slot of src a and the monomial mu(a) from that of tgt a (for
    d_2, the word b into the slot of tgt b and mu(b) into that of src b).
    The d_1
    entry from a to b is the sum of ``c * P * mu(R)`` over the terms c*w of
    the potential and the rotations w = a P b R, with P as the word and
    mu(R) as the coordinate monomial.  So d_1 d_0 and d_2 d_1 are the
    cyclic derivatives of W; their coordinate-only parts vanish because mu
    kills every abelianised cyclic derivative.
    """
    return _derive_template(*_monad_source(template))


def _monad_source(template: str) -> tuple[CatalogEntry, FramedQuiverWithPotential]:
    """A template's geometry entry and the framed quiver with potential it
    is derived from, labelled by the template's id: the id folded to lower
    case, with a geometry alias, also after ``pervsystem-``, resolved."""
    t = template.lower()
    prefix = "pervsystem-" if t.startswith("pervsystem-") else ""
    with suppress(NotInCatalog):
        t = prefix + _lookup(t.removeprefix(prefix))[0]
    if t not in _MONAD_TEMPLATES:
        raise NotInCatalog(template)
    entry = get_entry(_framed_spec(t)[0])
    return entry, _frame(t, entry.quiver, entry.potential)


def _derive_template(entry: CatalogEntry, qp: FramedQuiverWithPotential) -> MonadTemplate:
    """The template of :func:`get_monad_template` from its
    :func:`_monad_source` pair."""
    quiver, deg, mu = qp.quiver, entry.degrees, entry.point
    zero = (0,) * len(entry.coords)
    unmarked = [a for a in quiver.arrows if not a.marked]
    outs = [a for v in quiver.vertices for a in unmarked if a.tgt == v and a.src in deg]
    ins = [b for v in quiver.vertices for b in unmarked if b.src == v and b.tgt in deg]
    vertex = {v: i for i, v in enumerate(entry.quiver.vertices)}
    ends = tuple(Slot(deg[v], v) for v in vertex)
    terms = (
        ends,
        tuple(Slot(deg[a.src], a.tgt) for a in outs),
        tuple(Slot(deg[b.tgt], b.src) for b in ins),
        ends,
    )
    diffs = [[[{} for _ in src] for _ in tgt] for src, tgt in zip(terms, terms[1:])]
    for i, a in enumerate(outs):
        diffs[0][i][vertex[a.src]][zero, (a.name,)] = 1
        if a.name in mu:
            diffs[0][i][vertex[a.tgt]][mu[a.name], ()] = -1
    for j, b in enumerate(ins):
        diffs[2][vertex[b.tgt]][j][zero, (b.name,)] = 1
        if b.name in mu:
            diffs[2][vertex[b.src]][j][mu[b.name], ()] = -1
    col = {a.name: j for j, a in enumerate(outs)}
    row = {b.name: i for i, b in enumerate(ins)}
    for w, c in qp.potential.terms.items():
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            for k in range(1, len(rot)):
                rest = rot[k + 1:]
                if rot[0] in col and rot[k] in row and all(x in mu for x in rest):
                    exps = tuple(map(sum, zip(zero, *(mu[x] for x in rest))))
                    cell = diffs[1][row[rot[k]]][col[rot[0]]]
                    cell[exps, rot[1:k]] = cell.get((exps, rot[1:k]), 0) + linalg.exact(c)
    return MonadTemplate(
        qp.label, entry.coords, entry.twists, terms,
        tuple(
            tuple(tuple({k: c for k, c in cell.items() if c} for cell in cells) for cells in mat)
            for mat in diffs
        ),
        quiver,
    )


def monad_case(template: str):
    """The assembled monad of a stored template, with its marked symbols at
    zero, and the relation set its d^2 is certified against: the relations
    of its framed quiver expanded at zero framing."""
    entry, qp = _monad_source(template)
    rels = framing.framed_relations(
        framing.specialize(qp, framing.FramingStructure.zero(qp))
    ).relations
    return monad.assemble(_derive_template(entry, qp)), rels


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
