"""Monad complexes: graded free modules over a chart coordinate ring with
differentials mixing coordinates and representation symbols, certification
of d^2 = 0 modulo the framed relation ideal, and numeric exactness checks.

Entries are stored as sums of (coordinate monomial) x (word in arrows);
words follow the traversal-order convention of :mod:`quiverdt.ncalg`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import prod
from time import perf_counter
from typing import Mapping, Sequence

from . import linalg
from .ncalg import (
    MembershipResult,
    MembershipSystem,
    NCAlgError,
    NCPoly,
    Path,
    Quiver,
    RelationSet,
    UnknownArrow,
    ideal_membership,  # noqa: F401  (kept importable as monad.ideal_membership)
    relation_residuals,
    representation_rows,
    trivial_path,
    word_sum_matrix,
)


class MonadError(ValueError):
    pass


class RelationsViolated(MonadError):
    pass


# entry term: (coordinate exponents, arrow word) -> exact coefficient
# (an int when integral, see linalg.exact)
Entry = dict[tuple[tuple[int, ...], tuple[str, ...]], int | Fraction]


@dataclass(frozen=True)
class Slot:
    degree: int  # line bundle label O(degree); bookkeeping only
    vertex: str


@dataclass(frozen=True)
class MonadTemplate:
    """Shapes of the graded free modules and the differentials between
    them, each a rows x cols matrix of entries.  :func:`assemble` returns
    the same type with its marked symbols at 0 and every entry validated."""

    label: str
    coords: tuple[str, ...]
    twists: tuple[int, ...]  # per-coordinate line-bundle twist; 0 = unconstrained chart direction
    terms: tuple[tuple[Slot, ...], ...]
    diffs: tuple[tuple[tuple[Entry, ...], ...], ...]
    quiver: Quiver  # arrows the words may use (marked symbols included)


def assemble(template: MonadTemplate) -> MonadTemplate:
    """Fix every marked symbol at 0, dropping each term whose word uses one,
    and validate the result.  A marked arrow of a catalog template is a
    nilpotent loop at a rank-one framing vertex, whose only matrix is 0;
    ``quiver`` keeps the marked arrows."""
    marked = {a.name for a in template.quiver.arrows if a.marked}
    diffs = tuple(
        tuple(
            tuple({k: c for k, c in e.items() if marked.isdisjoint(k[1])} for e in row)
            for row in mat
        )
        for mat in template.diffs
    )
    c = replace(template, diffs=diffs)
    _validate_complex(c)
    return c


def _validate_complex(c: MonadTemplate) -> None:
    """The shape of every differential, composability of every nonzero
    entry with its slots, and the line-bundle degree bound on coordinate
    monomials."""
    q = c.quiver
    twists = c.twists
    if len(c.diffs) != len(c.terms) - 1:
        raise MonadError(f"{len(c.terms)} terms need {len(c.terms) - 1} differentials")
    for stage, mat in enumerate(c.diffs):
        src_slots = c.terms[stage]
        tgt_slots = c.terms[stage + 1]
        if len(mat) != len(tgt_slots) or any(len(row) != len(src_slots) for row in mat):
            raise MonadError(f"stage {stage}: differential is not {len(tgt_slots)} x {len(src_slots)}")
        for i, row in enumerate(mat):
            for j, e in enumerate(row):
                for (exps, word), coeff in e.items():
                    sv, tv = src_slots[j].vertex, tgt_slots[i].vertex
                    if word:
                        p = Path(tuple(word))
                        try:
                            p.validate(q)
                        except UnknownArrow as exc:
                            raise MonadError(
                                f"stage {stage} entry ({i},{j}): word {word} uses unknown arrow {exc}"
                            ) from exc
                        except NCAlgError as exc:
                            raise MonadError(f"stage {stage} entry ({i},{j}): {exc}") from exc
                        if p.source(q) != sv or p.target(q) != tv:
                            raise MonadError(
                                f"stage {stage} entry ({i},{j}): word {word} does not "
                                f"map slot vertex {sv} to {tv}"
                            )
                    elif sv != tv:
                        raise MonadError(
                            f"stage {stage} entry ({i},{j}): scalar entry between "
                            f"different vertices {sv}, {tv}"
                        )
                    twist = sum(t * e_ for t, e_ in zip(twists, exps))
                    if twist > tgt_slots[i].degree - src_slots[j].degree:
                        raise MonadError(
                            f"stage {stage} entry ({i},{j}): monomial {exps} violates "
                            f"the degree bound O({src_slots[j].degree}) -> O({tgt_slots[i].degree})"
                        )


def compose_stage(c: MonadTemplate, stage: int) -> list[list[Entry]]:
    """Matrix of d_(stage+1) o d_stage: apply d_stage, then d_(stage+1);
    words concatenate in traversal order.  The entries of a validated
    complex meet at a shared slot, so every concatenated word is a path."""
    d1 = c.diffs[stage]
    cols = len(d1[0]) if d1 else 0
    out: list[list[Entry]] = []
    for then_row in c.diffs[stage + 1]:
        out_row: list[Entry] = []
        for j in range(cols):
            acc: Entry = {}
            for first_row, then in zip(d1, then_row):
                for (e1, w1), c1 in first_row[j].items():
                    for (e2, w2), c2 in then.items():
                        key = (tuple(a + b for a, b in zip(e1, e2)), w1 + w2)
                        acc[key] = acc.get(key, 0) + c1 * c2
            out_row.append({k: v for k, v in acc.items() if v != 0})
        out.append(out_row)
    return out


def entry_to_ncpolys(e: Entry, src_vertex: str) -> dict[tuple[int, ...], NCPoly]:
    """Split an entry by coordinate monomial into word polynomials; the
    words under one monomial are distinct paths."""
    buckets: dict[tuple[int, ...], dict[Path, int | Fraction]] = {}
    for (exps, word), coeff in e.items():
        p = Path(tuple(word)) if word else trivial_path(src_vertex)
        buckets.setdefault(exps, {})[p] = coeff
    return {exps: NCPoly(terms) for exps, terms in buckets.items()}


@dataclass
class EntryCertificate:
    stage: int
    row: int
    col: int
    exps: tuple[int, ...]
    membership: MembershipResult


@dataclass
class CertificationReport:
    label: str
    certified: bool
    entries: list[EntryCertificate]
    failures: list[EntryCertificate]
    membership: dict[str, int]  # MembershipSystem.stats()
    phases: dict[str, float]  # perf_counter seconds of "compose" and "membership"


def certify_d_squared(c: MonadTemplate, relations: RelationSet) -> CertificationReport:
    """Expand every composite d o d entry and certify membership of each
    coordinate-monomial component in the two-sided relation ideal.

    ``c`` is an assembled template and ``relations`` a RelationSet over a
    quiver containing every unmarked symbol it uses; for a framed template
    that is the ``.relations`` of its
    :class:`~quiverdt.framing.FramedRelationSet`.  One
    :class:`MembershipSystem`, with path coefficients of length at most 1
    on each side of a relation, decides every component, so components with
    the same endpoints share one echelon form.  A failed component
    signals a transcription error in the template or the relations; the
    report lists every failed component, each with its residual, the
    system's sizes and the seconds spent composing and deciding.
    """
    system = MembershipSystem(relations.quiver, relations, 1)
    phases = {"compose": 0.0, "membership": 0.0}
    entries: list[EntryCertificate] = []
    failures: list[EntryCertificate] = []
    for stage in range(len(c.diffs) - 1):
        start = perf_counter()
        product = compose_stage(c, stage)
        phases["compose"] += perf_counter() - start
        for i, row in enumerate(product):
            for j, e in enumerate(row):
                src_vertex = c.terms[stage][j].vertex
                for exps, poly in entry_to_ncpolys(e, src_vertex).items():
                    start = perf_counter()
                    result = system.decide(poly)
                    phases["membership"] += perf_counter() - start
                    cert = EntryCertificate(stage, i, j, exps, result)
                    entries.append(cert)
                    if not result.success:
                        failures.append(cert)
    return CertificationReport(
        label=c.label,
        certified=not failures,
        entries=entries,
        failures=failures,
        membership=system.stats(),
        phases=phases,
    )


# -- numeric evaluation ---------------------------------------------------------


@dataclass
class EvaluationResult:
    d_squared_zero: bool
    fiber_cohomology: list[int]  # ranks of the evaluated fiber complex
    sheaf_fibers: list[int | None]  # None = not determined by fiber data alone


def evaluate(
    c: MonadTemplate,
    rep: Mapping[str, linalg.Matrix],
    dims: Mapping[str, int],
    point: Sequence,
    relations: RelationSet,
    resolution_certified: bool = False,
) -> EvaluationResult:
    """Substitute numerics and count ranks by exact elimination, after
    checking that ``rep`` satisfies ``relations``.

    A slot at a vertex of dimension 0 adds no rows and no columns; a stage
    whose source slots all have dimension 0 has rows of width 0.

    Reported per slot:

    * ``fiber_cohomology``: cohomology of the complex of fibres at the
      point.  A zero here certifies the complex is exact at that slot near
      the point (fibrewise-exact complexes of free modules split locally).
    * ``sheaf_fibers``: fibre dimensions of the cohomology sheaves.  The
      last slot is always exact (cokernels commute with fibres); middle
      slots are 0 when the fibre value is 0, and otherwise only determined
      when ``resolution_certified`` is set (Koszul-type templates whose
      differentials are monic in the chart coordinates resolve their last
      cohomology whenever the relations hold, so middle sheaves vanish).
    """
    point = tuple(Fraction(x) for x in point)
    if len(point) != len(c.coords):
        raise MonadError("point has wrong number of coordinates")
    sparse_rep = representation_rows(relations.quiver, rep, dims)
    for r, res in zip(relations, relation_residuals(relations, sparse_rep, dims)):
        if res != 0:
            raise RelationsViolated(
                f"relation d/d{r.arrow}: {r.poly.render(relations.quiver)} = 0 ({r.src} -> {r.tgt}) "
                f"fails on the representation by {res}"
            )
    sizes = [sum(dims.get(s.vertex, 0) for s in term) for term in c.terms]
    mats: list[linalg.Rows] = []
    for stage, mat in enumerate(c.diffs):
        offsets = list(accumulate((dims.get(s.vertex, 0) for s in c.terms[stage]), initial=0))
        rows: list[dict] = []
        for i, row in enumerate(mat):
            block: list[dict] = [{} for _ in range(dims.get(c.terms[stage + 1][i].vertex, 0))]
            for j, e in enumerate(row):
                terms = (
                    (word, coeff * prod(x ** k for x, k in zip(point, exps)))
                    for (exps, word), coeff in e.items()
                )
                summed = word_sum_matrix(c.quiver, terms, sparse_rep, dims, len(block))
                for out, srow in zip(block, summed):
                    out.update((offsets[j] + k, x) for k, x in srow.items())
            rows += block
        mats.append(tuple(rows))
    d2_zero = all(not any(linalg.matmul(then, first)) for first, then in zip(mats, mats[1:]))
    ranks = [linalg.rank(m) for m in mats]
    fiber = []
    for i, size in enumerate(sizes):
        incoming = ranks[i - 1] if i >= 1 else 0
        outgoing = ranks[i] if i < len(mats) else 0
        fiber.append(size - incoming - outgoing)
    sheaf: list[int | None] = []
    for i, h in enumerate(fiber):
        if i == len(sizes) - 1:
            sheaf.append(h)  # cokernel fibre is exact
        elif h == 0:
            sheaf.append(0)
        else:
            sheaf.append(0 if resolution_certified else None)
    return EvaluationResult(d2_zero, fiber, sheaf)

