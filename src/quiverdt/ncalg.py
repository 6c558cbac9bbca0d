"""Path-algebra arithmetic: quivers, potentials, cyclic derivatives, relation
ideals, bounded-degree ideal membership, and the Euler form.

Membership is decided by a :class:`MembershipSystem`: one echelon form per
endpoint pair ``(source, target)`` of the ideal, built once, reused by queries.

Word convention
---------------
A path is stored as the sequence of arrows in traversal order: in a word
``(a, b)`` the arrow ``a`` is traversed first, so composability means
``target(a) == source(b)``, and a numeric representation evaluates the word
as ``M(b) @ M(a)``.  Potentials are formal sums of cyclic words (closed
paths up to rotation); a cyclic word is stored as its canonical rotation, the
lexicographically least one in the quiver's declared arrow order, a tuple of
arrow names.

All coefficients are exact rationals; there is no floating point anywhere
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Iterable, Mapping, Sequence

from . import linalg


class NCAlgError(ValueError):
    pass


class UnknownArrow(NCAlgError):
    pass


class BoundTooSmall(NCAlgError):
    pass


class ShapeMismatch(NCAlgError):
    """A matrix or rank that does not fit its arrow or vertex; ``framing``
    raises this class too."""


# -- quiver ----------------------------------------------------------------


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str
    marked: bool = False


@dataclass(frozen=True)
class Quiver:
    """Vertices and arrows; both orders are part of the value (they fix the
    canonical ordering of paths and cyclic words)."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise NCAlgError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise NCAlgError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.src not in vs or a.tgt not in vs:
                raise NCAlgError(f"arrow {a.name} has endpoint outside the vertex set")

    @cached_property
    def _arrow_indices(self) -> dict[str, int]:
        return {a.name: i for i, a in enumerate(self.arrows)}

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index(name)]

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_indices

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_indices[name]
        except KeyError:
            raise UnknownArrow(name) from None

    def arrow_indices(self, names: Sequence[str]) -> tuple[int, ...]:
        try:
            return tuple(map(self._arrow_indices.__getitem__, names))
        except KeyError as exc:
            raise UnknownArrow(exc.args[0]) from None

    def vertex_index(self, v: str) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise NCAlgError(f"unknown vertex {v!r}") from None

    def unmarked_arrows(self) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if not a.marked)

    def arrows_from(self, v: str) -> tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.src == v)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [
                {"name": a.name, "src": a.src, "tgt": a.tgt, "marked": a.marked}
                for a in self.arrows
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a in self.arrows:
            style = ' [label="%s", style=dashed]' % a.name if a.marked else f' [label="{a.name}"]'
            lines.append(f'  "{a.src}" -> "{a.tgt}"{style};')
        lines.append("}")
        return "\n".join(lines)


# -- paths and noncommutative polynomials -----------------------------------


@dataclass(frozen=True)
class Path:
    """A word of arrows in traversal order, or a trivial path at a vertex."""

    arrows: tuple[str, ...]
    base: str | None = None  # vertex of a length-zero path

    def __post_init__(self):
        if len(self.arrows) == 0 and self.base is None:
            raise NCAlgError("length-zero path needs a base vertex")
        if len(self.arrows) > 0 and self.base is not None:
            raise NCAlgError("nontrivial path must not carry a base vertex")

    def __len__(self) -> int:
        return len(self.arrows)

    def source(self, q: Quiver) -> str:
        return self.base if self.base is not None else q.arrow(self.arrows[0]).src

    def target(self, q: Quiver) -> str:
        return self.base if self.base is not None else q.arrow(self.arrows[-1]).tgt

    def validate(self, q: Quiver) -> None:
        if self.base is not None:
            q.vertex_index(self.base)
            return
        arrows = [q.arrow(name) for name in self.arrows]
        for cur, nxt in zip(arrows, arrows[1:]):
            if cur.tgt != nxt.src:
                raise NCAlgError(
                    f"word {self.arrows} is not composable at {cur.name}->{nxt.name}"
                )

    def sort_key(self, q: Quiver):
        if self.base is not None:
            return (0, (q.vertex_index(self.base),))
        return (len(self.arrows), q.arrow_indices(self.arrows))

    def __str__(self) -> str:
        if self.base is not None:
            return f"e_{self.base}"
        return "*".join(self.arrows)


def trivial_path(v: str) -> Path:
    return Path((), v)


def word(*names: str) -> Path:
    return Path(tuple(names))


class NCPoly:
    """Formal rational linear combination of paths."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Path, Fraction] | None = None):
        clean: dict[Path, Fraction] = {}
        for p, c in (terms or {}).items():
            c = Fraction(c)
            if c != 0:
                clean[p] = c
        self.terms = clean

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def from_path(p: Path, coeff=1) -> "NCPoly":
        return NCPoly({p: Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return NCPoly(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly({p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def scale(self, k) -> "NCPoly":
        k = Fraction(k)
        return NCPoly({p: k * c for p, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("NCPoly is not hashable")

    def max_length(self) -> int:
        return max((len(p) for p in self.terms), default=0)

    def render(self, q: Quiver | None = None) -> str:
        if not self.terms:
            return "0"
        items = self.terms.items()
        if q is not None:
            items = sorted(items, key=lambda pc: pc[0].sort_key(q))
        parts = []
        for p, c in items:
            if c == 1:
                parts.append(str(p))
            elif c == -1:
                parts.append(f"-{p}")
            else:
                parts.append(f"{c}*{p}")
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    def __repr__(self) -> str:
        return f"NCPoly({self.render()})"


def compose(q: Quiver, a: Path, b: Path) -> Path | None:
    """Concatenation ``a`` then ``b``; None when the endpoints do not match
    (the product is zero in the path algebra)."""
    if a.target(q) != b.source(q):
        return None
    if a.base is not None:
        return b
    if b.base is not None:
        return a
    return Path(a.arrows + b.arrows)


def nc_mul(q: Quiver, a: NCPoly, b: NCPoly) -> NCPoly:
    out: dict[Path, Fraction] = {}
    for pa, ca in a.terms.items():
        for pb, cb in b.terms.items():
            p = compose(q, pa, pb)
            if p is None:
                continue
            out[p] = out.get(p, Fraction(0)) + ca * cb
    return NCPoly(out)


# -- potentials --------------------------------------------------------------


def _canonical_rotation(q: Quiver, names: tuple[str, ...]) -> tuple[str, ...]:
    keys = [tuple(q.arrow_index(a) for a in names[i:] + names[:i]) for i in range(len(names))]
    best = min(range(len(names)), key=lambda i: keys[i])
    return names[best:] + names[:best]


class Potential:
    """Rational combination of cyclic words on a quiver, keyed by canonical
    rotations (see :meth:`from_words`)."""

    __slots__ = ("quiver", "terms")

    def __init__(self, quiver: Quiver, terms: Mapping[tuple[str, ...], Fraction]):
        self.quiver = quiver
        clean: dict[tuple[str, ...], Fraction] = {}
        for w, c in terms.items():
            c = Fraction(c)
            if c != 0:
                clean[w] = c
        self.terms = clean

    @staticmethod
    def from_words(quiver: Quiver, terms: Iterable[tuple[object, Sequence[str]]]) -> "Potential":
        """Build from ``(coefficient, arrow-name sequence)`` pairs.

        Each word must be a closed composable path in traversal order.
        """
        acc: dict[tuple[str, ...], Fraction] = {}
        for coeff, names in terms:
            names = tuple(names)
            if not names:
                raise NCAlgError("empty cyclic word")
            p = Path(names)
            p.validate(quiver)
            if p.source(quiver) != p.target(quiver):
                raise NCAlgError(f"word {names} is not closed")
            w = _canonical_rotation(quiver, names)
            acc[w] = acc.get(w, Fraction(0)) + Fraction(coeff)
        return Potential(quiver, acc)

    def restrict_to(self, quiver: Quiver) -> "Potential":
        """Drop cyclic words using arrows outside ``quiver`` (setting framing
        arrows to zero), re-canonicalized on the target quiver."""
        kept = [(c, w) for w, c in self.terms.items() if all(quiver.has_arrow(a) for a in w)]
        return Potential.from_words(quiver, kept)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Potential):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("Potential is not hashable")

    def to_json(self) -> dict:
        return {
            "terms": [
                {"word": list(w), "coeff": str(c)}
                for w, c in sorted(
                    self.terms.items(),
                    key=lambda wc: tuple(self.quiver.arrow_index(a) for a in wc[0]),
                )
            ]
        }

    def render(self) -> str:
        if not self.terms:
            return "0"
        poly = NCPoly({Path(w): c for w, c in self.terms.items()})
        return poly.render(self.quiver)


def cyclic_derivative(W: Potential, arrow_name: str) -> NCPoly:
    """Sum over occurrences of the arrow of the cyclic word read starting
    just after that occurrence.  Linear in the potential."""
    a = W.quiver.arrow(arrow_name)
    out: dict[Path, Fraction] = {}
    for w, c in W.terms.items():
        for i, x in enumerate(w):
            if x != arrow_name:
                continue
            rest = w[i + 1 :] + w[:i]
            p = Path(rest) if rest else trivial_path(a.tgt)
            out[p] = out.get(p, 0) + c
    return NCPoly(out)


# -- relation sets -----------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """Sum of paths with a common source and target, tagged by the arrow it
    was derived from (empty tag for ad-hoc relations)."""

    src: str
    tgt: str
    poly: NCPoly
    arrow: str = ""


class RelationSet:
    __slots__ = ("quiver", "relations")

    def __init__(self, quiver: Quiver, relations: Sequence[Relation]):
        self.quiver = quiver
        self.relations = tuple(relations)
        for r in self.relations:
            for p in r.poly.terms:
                if p.source(quiver) != r.src or p.target(quiver) != r.tgt:
                    raise NCAlgError(
                        f"relation term {p} does not run {r.src} -> {r.tgt}"
                    )

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)

    def nonzero(self) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if not r.poly.is_zero())


def relations_from_potential(q: Quiver, W: Potential) -> RelationSet:
    """One relation per unmarked arrow: the cyclic derivative, running from
    the arrow's target back to its source."""
    rels = []
    for a in q.unmarked_arrows():
        rels.append(Relation(a.tgt, a.src, cyclic_derivative(W, a.name), a.name))
    return RelationSet(q, rels)


# -- bounded-degree ideal membership ------------------------------------------


@dataclass
class MembershipCertificate:
    """Expresses the query as ``sum(coeff * u * r * v)`` over listed triples."""

    parts: list[tuple[Fraction, Path, int, Path]]  # (coeff, u, index in relations.relations, v)

    def expand(self, q: Quiver, relations: RelationSet) -> NCPoly:
        total = NCPoly.zero()
        for coeff, u, ridx, v in self.parts:
            r = relations.relations[ridx]
            total = total + nc_mul(q, nc_mul(q, NCPoly.from_path(u), r.poly), NCPoly.from_path(v)).scale(coeff)
        return total


@dataclass
class MembershipResult:
    success: bool
    certificate: MembershipCertificate | None
    residual: NCPoly | None


class MembershipSystem:
    """Membership in the two-sided ideal generated by the relations, with
    path coefficients ``u, v`` of length at most the bound.  The ideal is
    the sum of its parts ``e_t I e_s``, and ``u*r*v`` lies in the part of
    ``(source(u), target(v))``; so each pair gets its own sparse echelon
    form, kept for later queries.  A form takes in only the products a
    query reaches: those that hold one of its words, then those that share
    a word with a product taken in, until no new word turns up.  Products
    in different such components share no word, so a component's rows, put
    in in the order of the pair's full product list, ``(relation, |u|, u,
    |v|, v)``, reduce a query as the whole list would: residuals, and
    certificates up to the order of their parts, equal those of one form
    over every product.  The products holding a word are found by splitting
    it as ``u + m + v`` around each relation term ``m``, looked up in one
    index of the terms, so no word under the bound is enumerated.  A form
    is keyed by each word's :meth:`Path.sort_key`, ``(length, arrow
    indices)``, so the pivot is the least word; ``(0, ())`` stands for the
    trivial path at the source.  A row is tagged by its position in one
    list of ``(source, u, relation index, relation target, v)``, with ``u``
    and ``v`` as arrow indices.  Raises :class:`BoundTooSmall` for a
    negative bound.
    """

    def __init__(self, q: Quiver, relations: RelationSet, word_length_bound: int):
        if word_length_bound < 0:
            raise BoundTooSmall("negative word length bound")
        self.quiver = q
        self.bound = word_length_bound
        # (index, relation target, its terms as (length, arrow indices, exact coefficient))
        self._rels = []
        # a term's arrow indices, or the vertex of a trivial term -> positions in _rels
        self._term_index: dict[tuple[int, ...] | str, list[int]] = {}
        lengths = set()
        for ridx, r in enumerate(relations.relations):
            if r.poly.is_zero():
                continue
            terms = []
            for p, c in r.poly.terms.items():
                idx = q.arrow_indices(p.arrows)
                terms.append((len(idx), idx, linalg.exact(c)))
                self._term_index.setdefault(idx or p.base, []).append(len(self._rels))
                lengths.add(len(idx))
            self._rels.append((ridx, r.tgt, terms))
        self._term_lengths = sorted(lengths)
        # the longest word a product u*r*v under the bound can reach
        self._reach = 2 * self.bound + (self._term_lengths[-1] if self._rels else inf)
        self._targets = [a.tgt for a in q.arrows]
        self._echelons: dict[tuple[str, str], linalg.Echelon] = {}
        self._seen: dict[tuple[str, str], set] = {}  # the words each form has met
        self._tags: list[tuple[str, tuple[int, ...], int, str, tuple[int, ...]]] = []
        self._nonzeros = 0

    def _echelon(self, s: str, t: str, words: Iterable[tuple[int, tuple[int, ...]]]) -> linalg.Echelon:
        """The form of ``(s, t)``, grown by the components of products that
        hold any of ``words``, the keys of paths from s to t."""
        span = self._echelons.get((s, t))
        if span is None:
            span = self._echelons[(s, t)] = linalg.Echelon()
            self._seen[(s, t)] = set()
        seen = self._seen[(s, t)]
        frontier = [w for w in words if w not in seen]
        if not frontier:
            return span
        seen.update(frontier)
        bound, rels, index, targets = self.bound, self._rels, self._term_index, self._targets
        found: dict[tuple[int, tuple[int, ...], tuple[int, ...]], dict] = {}
        while frontier:
            n, idx = frontier.pop()
            for length in self._term_lengths:
                # u = idx[:i] and v = idx[i + length:], each at most the bound
                for i in range(max(0, n - length - bound), min(bound, n - length) + 1):
                    j = i + length
                    # a trivial term is indexed by its vertex: the one the word passes at i
                    m = idx[i:j] if length else (targets[idx[i - 1]] if i else s)
                    for pos in index.get(m, ()):
                        u, v = idx[:i], idx[j:]
                        if (pos, u, v) in found:
                            continue
                        # the word is a path from s to t, so u runs s -> r.src and v r.tgt -> t
                        row = found[(pos, u, v)] = {
                            (i + k + n - j, u + mid + v): c for k, mid, c in rels[pos][2]
                        }
                        for w in row:
                            if w not in seen:
                                seen.add(w)
                                frontier.append(w)
        tags = self._tags
        for pos, u, v in sorted(found, key=lambda f: (f[0], len(f[1]), f[1], len(f[2]), f[2])):
            row = found[(pos, u, v)]
            ridx, rtgt, _ = rels[pos]
            span.add(row, len(tags))
            tags.append((s, u, ridx, rtgt, v))
            self._nonzeros += len(row)
        return span

    def stats(self) -> dict[str, int]:
        """Endpoint systems built; over them, products inserted, their terms, pivots."""
        pivots = sum(len(span) for span in self._echelons.values())
        return {
            "systems": len(self._echelons),
            "rows": len(self._tags),
            "nonzeros": self._nonzeros,
            "pivots": pivots,
        }

    def _path(self, idx: tuple[int, ...], base: str) -> Path:
        return Path(tuple(self.quiver.arrows[i].name for i in idx)) if idx else trivial_path(base)

    def decide(self, p: NCPoly) -> MembershipResult:
        """A certificate, or the residual of ``p``, which vanishes at every
        pivot word.  Raises :class:`BoundTooSmall` when no ``u*r*v`` under
        the bound reaches the longest word of ``p`` (a larger bound may
        still succeed), and :class:`NCAlgError` for a word of ``p`` that
        is not a path (:class:`UnknownArrow` for an unknown arrow name);
        non-membership at an adequate bound is not raised.
        """
        if p.is_zero():
            return MembershipResult(True, MembershipCertificate([]), None)
        if p.max_length() > self._reach:
            raise BoundTooSmall(f"bound {self.bound} cannot reach words of length {p.max_length()}")
        q = self.quiver
        by_ends: dict[tuple[str, str], dict[tuple[int, tuple[int, ...]], Fraction]] = {}
        for w, c in p.terms.items():
            w.validate(q)
            by_ends.setdefault((w.source(q), w.target(q)), {})[(len(w), q.arrow_indices(w.arrows))] = c
        residual: list[tuple[Path, Fraction]] = []
        combination: dict[int, Fraction] = {}
        for (s, t), part in by_ends.items():
            rem, comb = self._echelon(s, t, part).reduce(part)
            # every part keys its trivial path (0, ()), so keys map back per part
            residual += ((self._path(idx, s), c) for (_, idx), c in rem.items())
            combination.update(comb)
        if residual:
            # in word order, so render() without a quiver lists it the same way
            residual.sort(key=lambda wc: wc[0].sort_key(q))
            return MembershipResult(False, None, NCPoly(dict(residual)))
        parts = []
        for tag, coeff in combination.items():
            s, u, ridx, rtgt, v = self._tags[tag]
            parts.append((Fraction(coeff), self._path(u, s), ridx, self._path(v, rtgt)))
        return MembershipResult(True, MembershipCertificate(parts), None)


def ideal_membership(
    q: Quiver, p: NCPoly, relations: RelationSet, word_length_bound: int
) -> MembershipResult:
    """One query of a fresh :class:`MembershipSystem`; hold the system to reuse it."""
    return MembershipSystem(q, relations, word_length_bound).decide(p)


# -- Euler form ---------------------------------------------------------------

DimVector = Mapping[str, int]


def chi_form(q: Quiver, a: DimVector, b: DimVector) -> int:
    """Euler pairing: vertex products minus arrow products; marked arrows do
    not contribute."""
    total = 0
    for v in q.vertices:
        total += a.get(v, 0) * b.get(v, 0)
    for e in q.arrows:
        if e.marked:
            continue
        total -= a.get(e.src, 0) * b.get(e.tgt, 0)
    return total


# -- numeric evaluation -------------------------------------------------------


def word_sum_matrix(
    q: Quiver, terms: Iterable[tuple[tuple[str, ...], Fraction]], rep: Mapping[str, linalg.Matrix],
    dims: DimVector, rows: int, cols: int,
) -> linalg.Matrix:
    """``sum(coeff * M(word))`` over the ``(word, coeff)`` terms, as a rows x
    cols matrix: the word ``(a, b)`` is ``M(b) @ M(a)`` and the empty word
    the identity (rows = cols).  A word adds nothing when rows is 0 or one
    of its arrows leaves a zero-dimensional vertex; any other word whose
    arrow has no matrix in ``rep`` raises :class:`ShapeMismatch`."""
    total = [[Fraction(0)] * cols for _ in range(rows)]
    for word, c in terms:
        if c == 0 or rows == 0 or any(dims.get(q.arrow(name).src, 0) == 0 for name in word):
            continue
        if not word:
            for i in range(rows):
                total[i][i] += c
            continue
        for name in word:
            if name not in rep:
                raise ShapeMismatch(f"arrow {name}: no matrix")
        m = rep[word[0]]
        for name in word[1:]:
            m = linalg.matmul(rep[name], m)
        for row, mrow in zip(total, m):
            for j, x in enumerate(mrow):
                row[j] += c * x
    return tuple(map(tuple, total))


def check_matrix(what: str, m: linalg.Matrix, rows: int, cols: int) -> None:
    """Raise :class:`ShapeMismatch` unless ``m`` is ``rows`` rows of length
    ``cols``; ``linalg.zeros(rows, cols)`` passes for every shape."""
    lengths = [len(row) for row in m]
    if lengths != [cols] * rows:
        raise ShapeMismatch(
            f"{what}: matrix has rows of lengths {lengths}, expected {rows} rows of length {cols}"
        )


def numeric_relation_residual(
    relations: RelationSet, rep: Mapping[str, linalg.Matrix], dims: DimVector
) -> list[Fraction]:
    """Largest absolute matrix entry of each relation evaluated on ``rep``,
    a representation of ``relations.quiver``."""
    q = relations.quiver
    for name, m in rep.items():
        a = q.arrow(name)
        check_matrix(f"arrow {name}", m, dims.get(a.tgt, 0), dims.get(a.src, 0))
    return [
        linalg.max_abs(word_sum_matrix(
            q, ((p.arrows, c) for p, c in r.poly.terms.items()), rep, dims,
            dims.get(r.tgt, 0), dims.get(r.src, 0),
        ))
        for r in relations
    ]
