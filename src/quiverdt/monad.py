"""Monad complexes: graded free modules over a chart coordinate ring with
differentials mixing coordinates and representation symbols, certification
of d^2 = 0 modulo the framed relation ideal, and numeric exactness checks.

Entries are stored as sums of (coordinate monomial) x (word in arrows);
words follow the traversal-order convention of :mod:`quiverdt.ncalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    numeric_relation_residual,
    path_sum_matrix,
    trivial_path,
)


class MonadError(ValueError):
    pass


class NotInIdeal(MonadError):
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
    them, each a rows x cols matrix of entries."""

    label: str
    coords: tuple[str, ...]
    twists: tuple[int, ...]  # per-coordinate line-bundle twist; 0 = unconstrained chart direction
    terms: tuple[tuple[Slot, ...], ...]
    diffs: tuple[tuple[tuple[Entry, ...], ...], ...]
    quiver: Quiver  # arrows the words may use (marked symbols included)


@dataclass
class MonadComplex:
    template: MonadTemplate
    diffs: list[list[list[Entry]]]  # per differential: rows x cols of entries

    @property
    def terms(self):
        return self.template.terms


def assemble(template: MonadTemplate,
             marked_values: Mapping[str, Fraction] | None = None) -> MonadComplex:
    """Bind marked symbols to scalars (rank-one framing slots) and validate
    the result; a marked symbol left out of ``marked_values`` stays in its
    words."""
    values = {name: linalg.exact(v) for name, v in (marked_values or {}).items()}
    for name in values:
        if not any(a.name == name and a.marked for a in template.quiver.arrows):
            raise MonadError(f"{name!r} is not a marked arrow of {template.label}")
    diffs = [[[_bind(e, values) for e in row] for row in mat] for mat in template.diffs]
    complex_ = MonadComplex(template, diffs)
    _validate_complex(complex_)
    return complex_


def _bind(e: Entry, values: Mapping[str, int | Fraction]) -> Entry:
    out: Entry = {}
    for (exps, word), c in e.items():
        for name in word:
            if name in values:
                c *= values[name]
        if c != 0:
            key = (exps, tuple(name for name in word if name not in values))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def _validate_complex(c: MonadComplex) -> None:
    """The shape of every differential, composability of every nonzero
    entry with its slots, and the line-bundle degree bound on coordinate
    monomials."""
    q = c.template.quiver
    twists = c.template.twists
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


def _entry_mul(first: Entry, then: Entry) -> Entry:
    """Operator composition: apply ``first`` then ``then``; words concatenate
    in traversal order.  The entries of a validated complex meet at a shared
    slot, so every concatenated word is a path."""
    out: Entry = {}
    for (e1, w1), c1 in first.items():
        for (e2, w2), c2 in then.items():
            exps = tuple(a + b for a, b in zip(e1, e2))
            key = (exps, w1 + w2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def compose_stage(c: MonadComplex, stage: int) -> list[list[Entry]]:
    """Matrix of d_(stage+1) o d_stage."""
    d1 = c.diffs[stage]
    d2 = c.diffs[stage + 1]
    rows, mid, cols = len(d2), len(d1), len(d1[0]) if d1 else 0
    out: list[list[Entry]] = [[{} for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc: Entry = {}
            for l in range(mid):
                part = _entry_mul(d1[l][j], d2[i][l])
                for k, v in part.items():
                    acc[k] = acc.get(k, 0) + v
            out[i][j] = {k: v for k, v in acc.items() if v != 0}
    return out


def entry_to_ncpolys(e: Entry, src_vertex: str) -> dict[tuple[int, ...], NCPoly]:
    """Split an entry by coordinate monomial into word polynomials."""
    buckets: dict[tuple[int, ...], dict[Path, int | Fraction]] = {}
    for (exps, word), coeff in e.items():
        p = Path(tuple(word)) if word else trivial_path(src_vertex)
        bucket = buckets.setdefault(exps, {})
        bucket[p] = bucket.get(p, 0) + coeff
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


def certify_d_squared(
    c: MonadComplex, relations: RelationSet, raise_on_failure: bool = False
) -> CertificationReport:
    """Expand every composite d o d entry and certify membership of each
    coordinate-monomial component in the two-sided relation ideal.

    ``relations`` is a RelationSet over a quiver containing every unmarked
    symbol the complex uses; for a framed template that is the ``.relations``
    of its :class:`~quiverdt.framing.FramedRelationSet`.  One
    :class:`MembershipSystem`, with path coefficients of length at most 1
    on each side of a relation, decides every component, so components with
    the same endpoints share one echelon form.  A failed component
    signals a transcription error in the template or the relations; with
    ``raise_on_failure`` it raises :class:`NotInIdeal` carrying the first
    offending entry and residual, otherwise failures are collected in the
    report.  The report also carries the system's sizes and the seconds
    spent composing and deciding.
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
                if not e:
                    continue
                src_vertex = c.terms[stage][j].vertex
                for exps, poly in entry_to_ncpolys(e, src_vertex).items():
                    if poly.is_zero():
                        continue
                    start = perf_counter()
                    result = system.decide(poly)
                    phases["membership"] += perf_counter() - start
                    cert = EntryCertificate(stage, i, j, exps, result)
                    entries.append(cert)
                    if not result.success:
                        if raise_on_failure:
                            raise NotInIdeal(
                                f"{c.template.label}: stage {stage} entry ({i},{j}) "
                                f"monomial {exps} has residual {result.residual.render()}"
                            )
                        failures.append(cert)
    return CertificationReport(
        label=c.template.label,
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
    c: MonadComplex,
    rep: Mapping[str, linalg.Matrix],
    dims: Mapping[str, int],
    point: Sequence,
    relations: RelationSet | None = None,
    resolution_certified: bool = False,
) -> EvaluationResult:
    """Substitute numerics and count ranks by exact elimination.

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
    if len(point) != len(c.template.coords):
        raise MonadError("point has wrong number of coordinates")
    if relations is not None:
        residuals = numeric_relation_residual(relations.quiver, relations, dict(rep), dims)
        for r, res in zip(relations, residuals):
            if res != 0:
                raise RelationsViolated(
                    f"relation d/d{r.arrow}: {r.poly.render(relations.quiver)} = 0 ({r.src} -> {r.tgt}) "
                    f"fails on the representation by {res}"
                )
    sizes = [sum(dims.get(s.vertex, 0) for s in term) for term in c.terms]
    quiver = c.template.quiver
    mats: list[linalg.Matrix] = []
    for stage, mat in enumerate(c.diffs):
        blocks: list[list[linalg.Matrix]] = []
        for i, row in enumerate(mat):
            tgt = dims.get(c.terms[stage + 1][i].vertex, 0)
            if tgt == 0:
                continue
            block_row = []
            for j, e in enumerate(row):
                sv = c.terms[stage][j].vertex
                src = dims.get(sv, 0)
                if src == 0:
                    continue
                terms = (
                    (Path(word) if word else trivial_path(sv),
                     coeff * prod(x ** k for x, k in zip(point, exps)))
                    for (exps, word), coeff in e.items()
                )
                block_row.append(path_sum_matrix(quiver, terms, rep, dims, tgt, src))
            blocks.append(block_row)
        mats.append(_assemble_blocks(blocks))
    d2_zero = True
    for stage in range(len(mats) - 1):
        if linalg.max_abs(linalg.matmul(mats[stage + 1], mats[stage])) != 0:
            d2_zero = False
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


def _assemble_blocks(blocks: list[list[linalg.Matrix]]) -> linalg.Matrix:
    if not blocks:
        return ()
    rows: list[tuple[Fraction, ...]] = []
    for block_row in blocks:
        height = max((linalg.shape(b)[0] for b in block_row), default=0)
        for r in range(height):
            row: list[Fraction] = []
            for b in block_row:
                br, bc = linalg.shape(b)
                row.extend(b[r] if r < br else (Fraction(0),) * bc)
            rows.append(tuple(row))
    return tuple(rows)
