"""Framed quivers with potential: fixed-matrix (marked) arrows, framing
structures, specialization, and the induced relation sets.

A marked arrow never generates a relation; its matrix is fixed data.  To
substitute the matrices we expand the quiver: a framing vertex of rank d
splits into d rank-one vertices, unmarked arrows into/out of it split into
indexed copies, and each marked arrow disappears into numeric coefficients
on the words that used it.  Relations of the framed quiver are then the
cyclic derivatives of the expanded potential with respect to every
remaining arrow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .ncalg import (
    Arrow,
    Path,
    Potential,
    Quiver,
    RelationSet,
    ShapeMismatch,
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
        m = f.matrices[a.name]
        want = (f.ranks[a.tgt], f.ranks[a.src])
        if linalg.shape(m) != want:
            raise ShapeMismatch(
                f"marked arrow {a.name}: matrix is {linalg.shape(m)}, expected {want}"
            )
        if a.name in template.nilpotent_marked and not linalg.is_nilpotent(m):
            raise NilpotencyViolated(f"marked arrow {a.name} must be nilpotent")
    return replace(template, structure=f)


def _copy_name(base: str, index: int, rank: int) -> str:
    return base if rank == 1 else f"{base}#{index + 1}"


def expand(fq: FramedQuiverWithPotential) -> tuple[Quiver, Potential]:
    """Split framing vertices into rank-one copies and eliminate marked
    arrows into numeric coefficients.

    Rank-one vertices and their arrows keep their plain names, so for the
    common rank-one framings the expanded quiver reads like the original
    minus the marked arrows.
    """
    if fq.structure is None:
        raise UnboundFraming("framing structure not bound; call specialize() first")
    ranks = {v: fq.structure.ranks[v] for v in fq.framing_vertices}
    for a in fq.quiver.arrows:
        if not a.marked:
            continue
        m = fq.structure.matrices[a.name]
        if linalg.max_abs(m) == 0:
            continue
        if linalg.shape(m) != (1, 1) or a.src != a.tgt:
            # a nonzero fixed matrix that moves between framing copies (or
            # between two framing vertices) cannot be eliminated into cyclic
            # words of the split-vertex path algebra
            raise FramingError(
                f"marked arrow {a.name}: nonzero fixed matrices are supported "
                "only for rank-one marked loops; use the zero matrix otherwise"
            )

    vertices: list[str] = []
    for v in fq.quiver.vertices:
        if v in fq.framing_vertices:
            vertices.extend(_copy_name(v, i, ranks[v]) for i in range(ranks[v]))
        else:
            vertices.append(v)

    def vertex_copies(v: str) -> list[tuple[int, str]]:
        if v in fq.framing_vertices:
            return [(i, _copy_name(v, i, ranks[v])) for i in range(ranks[v])]
        return [(0, v)]

    def arrow_copy_name(a: Arrow, si: int, ti: int) -> str:
        name = a.name
        if a.src in fq.framing_vertices and ranks[a.src] > 1:
            name += f"#{si + 1}"
        if a.tgt in fq.framing_vertices and ranks[a.tgt] > 1:
            name += f"@{ti + 1}"
        return name

    arrows: list[Arrow] = []
    for a in fq.quiver.arrows:
        if a.marked:
            continue
        for si, sname in vertex_copies(a.src):
            for ti, tname in vertex_copies(a.tgt):
                arrows.append(Arrow(arrow_copy_name(a, si, ti), sname, tname))
    expanded = Quiver(tuple(vertices), tuple(arrows))

    terms: list[tuple[Fraction, tuple[str, ...]]] = []
    for w, coeff in fq.potential.terms.items():
        names = w.names
        n = len(names)
        # index assignments at framing vertices between consecutive arrows
        def rec(pos: int, first_idx: int | None, prev_idx: int | None,
                acc: tuple[str, ...], weight: Fraction):
            if weight == 0:
                return
            if pos == n:
                # close the cycle: the vertex between the last and first arrow
                last = fq.quiver.arrow(names[-1])
                if last.tgt in fq.framing_vertices and prev_idx != first_idx:
                    return
                terms.append((coeff * weight, acc))
                return
            a = fq.quiver.arrow(names[pos])
            src_opts: Sequence[int]
            if a.src in fq.framing_vertices:
                # the source copy was fixed by the previous arrow (or the seed)
                src_opts = [prev_idx]
            else:
                src_opts = [0]
            for si in src_opts:
                tgt_opts = range(ranks[a.tgt]) if a.tgt in fq.framing_vertices else [0]
                for ti in tgt_opts:
                    if a.marked:
                        m = fq.structure.matrices[a.name]
                        wgt = weight * m[ti][si]
                        new_acc = acc
                    else:
                        wgt = weight
                        new_acc = acc + (arrow_copy_name(a, si, ti),)
                    fi = first_idx
                    if fi is None and a.src in fq.framing_vertices:
                        fi = si
                    rec(pos + 1, fi, ti if a.tgt in fq.framing_vertices else None,
                        new_acc, wgt)

        # choose the rotation so the cycle-closing bookkeeping stays simple:
        # any rotation works because the potential is cyclic
        first = fq.quiver.arrow(names[0])
        if first.src in fq.framing_vertices:
            for idx in range(ranks[first.src]):
                rec(0, None, idx, (), Fraction(1))
        else:
            rec(0, None, None, (), Fraction(1))

    # a fully marked cycle would expand to the empty word; none of the
    # catalog potentials contain one, and it has no relation content anyway
    terms = [(c, w) for c, w in terms if w]
    return expanded, Potential.from_words(expanded, terms)


@dataclass
class FramedRelationSet:
    """Relations of the expanded framed quiver, one per unmarked arrow copy."""

    quiver: Quiver
    relations: RelationSet

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)


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


def numeric_solution_builder(points: Sequence[tuple], rank_one_arrows=("I", "J")):
    """Representation matrices for a framed point configuration: n distinct
    plane points give diagonal B1, B2, vanishing B3, an all-ones column I,
    and zero J.  Satisfies the framed relations exactly; also reports
    whether the representation is cyclic (generated from the framing by the
    loops), which needs distinctness.
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
    i_name, j_name = rank_one_arrows
    rep = {
        "B1": b1,
        "B2": b2,
        "B3": b3,
        i_name: tuple((Fraction(1),) for _ in range(n)),
        j_name: (tuple(Fraction(0) for _ in range(n)),),
    }
    cyclic = _is_cyclic(b1, b2, rep[i_name], n)
    return rep, cyclic


def _is_cyclic(b1, b2, i_col, n: int) -> bool:
    """Krylov span of the framing column under words in B1, B2 fills V."""
    span = linalg.Echelon(int)
    frontier = [[i_col[r][0] for r in range(n)]]
    while frontier and len(span) < n:
        nxt = []
        for vec in frontier:
            if not span.add(dict(enumerate(vec)), len(span)):
                continue
            for mat in (b1, b2):
                nxt.append([sum(mat[r][k] * vec[k] for k in range(n)) for r in range(n)])
        frontier = nxt
    return len(span) == n
