"""Framed quivers with potential: fixed-matrix (marked) arrows, framing
structures, specialization, and the induced relation sets.

A marked arrow never generates a relation; its matrix is fixed data.  To
substitute the matrices, :func:`expand` splits each framing vertex v of
rank d into d rank-one copies ``v#1`` ... ``v#d`` (plain ``v`` when d = 1;
an internal vertex is its own single copy) and reads each cyclic word of
the potential at its junctions, the source vertex of each of its arrows.
The word expands to one word per choice of a copy at every junction:
arrow k runs from the copy at junction k to the copy at junction k + 1
(mod the word's length).  An unmarked arrow a from copy s to copy t
becomes the arrow ``a#s@t`` of the expanded quiver (``#s`` only when its
source has rank > 1, ``@t`` only when its target has), and a marked arrow
multiplies the word's coefficient by the (t, s) entry of its matrix.
Words whose coefficient is zero, or that keep no arrow, are dropped.
Relations of the framed quiver are then the cyclic derivatives of the
expanded potential with respect to every remaining arrow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from . import linalg
from .ncalg import (
    Arrow,
    Path,
    Potential,
    Quiver,
    RelationSet,
    ShapeMismatch,
    check_matrix,
    cyclic_derivative,
    relations_from_potential,
)


class FramingError(ValueError):
    pass


class NilpotencyViolated(FramingError):
    pass


class UnboundFraming(FramingError):
    pass


class DuplicatePoints(FramingError):
    pass


@dataclass(frozen=True)
class FramingStructure:
    """Ranks of the framing vertices plus one fixed rational matrix per
    marked arrow (shape target-rank x source-rank)."""

    ranks: Mapping[str, int]
    matrices: Mapping[str, linalg.Matrix] = field(default_factory=dict)

    @staticmethod
    def zero(fq: "FramedQuiverWithPotential", ranks: Mapping[str, int] | None = None):
        ranks = dict(ranks or {v: 1 for v in fq.framing_vertices})
        mats = {
            a.name: linalg.zeros(ranks[a.tgt], ranks[a.src])
            for a in fq.quiver.arrows
            if a.marked
        }
        return FramingStructure(ranks, mats)


@dataclass(frozen=True)
class FramedQuiverWithPotential:
    """Quiver with designated framing vertices; marked arrows live between
    framing vertices only.  The framing structure is optional until
    specialization."""

    quiver: Quiver
    framing_vertices: frozenset[str]
    potential: Potential
    nilpotent_marked: frozenset[str] = frozenset()
    structure: FramingStructure | None = None
    label: str = ""

    def __post_init__(self):
        for a in self.quiver.arrows:
            if a.marked and not (
                a.src in self.framing_vertices and a.tgt in self.framing_vertices
            ):
                raise FramingError(
                    f"marked arrow {a.name} must connect framing vertices"
                )
        for v in self.framing_vertices:
            self.quiver.vertex_index(v)

    def internal_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.quiver.vertices if v not in self.framing_vertices)

    def base_quiver(self) -> Quiver:
        """The quiver on internal vertices only (all framing arrows removed)."""
        keep = set(self.internal_vertices())
        return Quiver(
            tuple(v for v in self.quiver.vertices if v in keep),
            tuple(a for a in self.quiver.arrows if a.src in keep and a.tgt in keep),
        )

    def base_potential(self) -> Potential:
        return self.potential.restrict_to(self.base_quiver())


def specialize(
    template: FramedQuiverWithPotential, f: FramingStructure
) -> FramedQuiverWithPotential:
    """Bind the framing matrices; the potential is unchanged as an expression."""
    for v in template.framing_vertices:
        if v not in f.ranks or f.ranks[v] < 1:
            raise ShapeMismatch(f"framing vertex {v} needs a positive rank")
    for a in template.quiver.arrows:
        if not a.marked:
            continue
        if a.name not in f.matrices:
            raise ShapeMismatch(f"no matrix bound for marked arrow {a.name}")
        m = check_matrix(f"marked arrow {a.name}", f.matrices[a.name], f.ranks[a.tgt], f.ranks[a.src])
        if a.name in template.nilpotent_marked and not linalg.is_nilpotent(m):
            raise NilpotencyViolated(f"marked arrow {a.name} must be nilpotent")
    return replace(template, structure=f)


def expand(fq: FramedQuiverWithPotential) -> tuple[Quiver, Potential]:
    """Split framing vertices into rank-one copies and eliminate marked
    arrows into numeric coefficients, by the junction-copy rule of the
    module docstring.

    Rank-one vertices and their arrows keep their plain names, so for the
    common rank-one framings the expanded quiver reads like the original
    minus the marked arrows.
    """
    if fq.structure is None:
        raise UnboundFraming("framing structure not bound; call specialize() first")
    for a in (a for a in fq.quiver.arrows if a.marked):
        m = fq.structure.matrices[a.name]
        if any(any(row) for row in m) and (len(m) != 1 or a.src != a.tgt):
            # a nonzero fixed matrix that moves between framing copies (or
            # between two framing vertices) cannot be eliminated into cyclic
            # words of the split-vertex path algebra
            raise FramingError(
                f"marked arrow {a.name}: nonzero fixed matrices are supported "
                "only for rank-one marked loops; use the zero matrix otherwise"
            )
    rank = {
        v: fq.structure.ranks[v] if v in fq.framing_vertices else 1 for v in fq.quiver.vertices
    }

    def copy(name: str, v: str, i: int, mark: str = "#") -> str:
        """``name`` for copy i of vertex v: plain at a rank-one vertex."""
        return name if rank[v] == 1 else f"{name}{mark}{i + 1}"

    arrow_copies = {
        (a.name, si, ti): Arrow(
            copy(copy(a.name, a.src, si), a.tgt, ti, "@"), copy(a.src, a.src, si), copy(a.tgt, a.tgt, ti)
        )
        for a in fq.quiver.unmarked_arrows()
        for si, ti in product(range(rank[a.src]), range(rank[a.tgt]))
    }
    expanded = Quiver(
        tuple(copy(v, v, i) for v in fq.quiver.vertices for i in range(rank[v])),
        tuple(arrow_copies.values()),
    )
    terms: list[tuple[Fraction, tuple[str, ...]]] = []
    for w, coeff in fq.potential.terms.items():
        word = [fq.quiver.arrow(name) for name in w]
        # copies[k] is the copy at junction k, the source of word[k]
        for copies in product(*(range(rank[a.src]) for a in word)):
            weight, names = coeff, []
            for k, a in enumerate(word):
                si, ti = copies[k], copies[(k + 1) % len(word)]
                if a.marked:
                    weight *= fq.structure.matrices[a.name][ti][si]
                else:
                    names.append(arrow_copies[a.name, si, ti].name)
            # a fully marked cycle would expand to the empty word, which has
            # no relation content; no catalog potential contains one
            if weight and names:
                terms.append((weight, tuple(names)))
    return expanded, Potential.from_words(expanded, terms)


@dataclass
class FramedRelationSet:
    """Relations of the expanded framed quiver, one per unmarked arrow copy;
    :mod:`quiverdt.monad` certifies a template against its ``.relations``,
    whose ``.quiver`` is the same expanded quiver."""

    quiver: Quiver
    relations: RelationSet


def framed_relations(fq: FramedQuiverWithPotential) -> FramedRelationSet:
    expanded, potential = expand(fq)
    return FramedRelationSet(expanded, relations_from_potential(expanded, potential))


# -- framing compatibility ----------------------------------------------------


@dataclass
class CompatibilityReport:
    ok: bool
    offending: list[tuple[str, Path]]  # (marked arrow, bad monomial)
    vacuous: bool


def verify_framing_compatibility(fq: FramedQuiverWithPotential) -> CompatibilityReport:
    """Checks that differentiating the potential along each marked arrow
    only produces monomials that either consist of marked arrows alone or
    route through the internal vertices (an arrow into a framing vertex
    paired with one leaving it)."""
    marked = [a for a in fq.quiver.arrows if a.marked]
    if not marked:
        return CompatibilityReport(ok=True, offending=[], vacuous=True)
    offending: list[tuple[str, Path]] = []
    for a in marked:
        deriv = cyclic_derivative(fq.potential, a.name)
        for path in deriv.terms:
            names = path.arrows
            if all(fq.quiver.arrow(x).marked for x in names):
                continue
            into = any(
                fq.quiver.arrow(x).tgt in fq.framing_vertices
                and fq.quiver.arrow(x).src not in fq.framing_vertices
                for x in names
            )
            outof = any(
                fq.quiver.arrow(x).src in fq.framing_vertices
                and fq.quiver.arrow(x).tgt not in fq.framing_vertices
                for x in names
            )
            if not (into and outof):
                offending.append((a.name, path))
    return CompatibilityReport(ok=not offending, offending=offending, vacuous=False)


# -- numeric witnesses ----------------------------------------------------------


def numeric_solution_builder(points: Sequence[tuple]):
    """Representation matrices for a framed point configuration: n distinct
    plane points give diagonal B1, B2, vanishing B3, an all-ones column I,
    and zero J.  Satisfies the framed relations exactly.  Returns the
    matrices, their dimension vector ``{"0": n, "inf": 1}``, and whether the
    representation is cyclic (generated from the framing by the loops),
    which needs distinctness.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("stability witness requires distinct points")
    n = len(pts)
    diag = lambda vals: tuple(
        tuple(vals[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
    b1 = diag([p[0] for p in pts])
    b2 = diag([p[1] for p in pts])
    b3 = linalg.zeros(n, n)
    rep = {
        "B1": b1,
        "B2": b2,
        "B3": b3,
        "I": tuple((Fraction(1),) for _ in range(n)),
        "J": (tuple(Fraction(0) for _ in range(n)),),
    }
    cyclic = _is_cyclic(b1, b2, rep["I"], n)
    return rep, {"0": n, "inf": 1}, cyclic


def _is_cyclic(b1, b2, i_col, n: int) -> bool:
    """Krylov span of the framing column under words in B1, B2 fills V."""
    mats = (linalg.sparse(b1), linalg.sparse(b2))
    span = linalg.Echelon()
    frontier = [linalg.sparse(i_col)]
    while frontier and len(span) < n:
        nxt = []
        for col in frontier:
            if not span.add({r: row[0] for r, row in enumerate(col) if row}, len(span)):
                continue
            nxt += (linalg.matmul(m, col) for m in mats)
        frontier = nxt
    return len(span) == n
