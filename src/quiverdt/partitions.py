"""Torus-fixed-point enumerators: partitions, tuples, nested chains, plane
partitions (plain, cyclically colored, pit-constrained), conifold pyramid
configurations, and the blowup lattice sum.

The counts are output-sensitive.  Pyramid configurations are visited once
each by a reverse search over the addable stones.  Nested chains and plane
partitions are both chains of rows, each row a partition inside the one
before; one memoised row-chain counter (``_row_chains``) counts them by
weight, so no chain is built.  Its memo keys on the row phase, the budget
left and the previous row clipped to what that budget can still reach (part
j at most left // j), and it splits its counts by the length of the first
row, so one call under the pit (0, r) gives every nested rank up to r.  The
earlier explicit enumerators and the counter keyed on the full row are kept
as test oracles in ``tests/oracles.py`` (``pyramid_configurations``,
``nested_chains``, ``plane_partitions_upto``, ``row_chains``), beside the
box-pile and stone-by-stone BFS oracles.  Every series is exact integer
:class:`~quiverdt.qseries.QSeries`.  Counts are unsigned; fixed-point
signs belong to the closed-form side and enter only through variable
substitutions (see quiverdt.checks).
"""

from __future__ import annotations

from .qseries import QSeries


class OrderTooLarge(ValueError):
    pass


# Each cap is the largest order whose whole compare target runs within the
# time the target took at the previous cap with the explicit enumerators
# (medians of in-process runs on a 2-core Xeon; ranges span two sets of runs).
# c3-dt / y20-ncdt: budget 0.059 / 0.061 s (order 14); 0.021-0.032 /
# 0.028-0.040 s at 18.
PLANE_PARTITION_MAX_ORDER = 18
# conifold-ncdt: budget 0.35 s (order 12); 0.28-0.33 s at 21, 0.43-0.52 s at 22.
PYRAMID_MAX_ORDER = 21


# -- linear partitions -------------------------------------------------------


def partition_counts(order: int) -> list[int]:
    """Partition counts p(0), ..., p(order), allowing parts 1, 2, ... one
    size at a time: c[n] += c[n - k].  O(order^2) integer additions."""
    c = [1] + [0] * order
    for k in range(1, order + 1):
        for n in range(k, order + 1):
            c[n] += c[n - k]
    return c


def partition_series(order: int) -> QSeries:
    """Coefficient of q^n counts partitions of n."""
    counts = partition_counts(order)
    return QSeries(("q",), order, {(n,): counts[n] for n in range(order + 1)})


def tuple_series(r: int, order: int) -> QSeries:
    """r-tuples of partitions graded by total size (r-fold convolution)."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    counts = partition_counts(order)
    out = [1] + [0] * order
    for _ in range(r):
        out = [
            sum(out[k] * counts[n - k] for k in range(n + 1)) for n in range(order + 1)
        ]
    return QSeries(("q",), order, {(n,): out[n] for n in range(order + 1)})


# -- row chains: nested chains and plane partitions ---------------------------


def _row_chains(order: int, m: int, pit: tuple[int, int]) -> list[dict[int, int]]:
    """Plane partitions of total size <= order, counted by packed color weight
    and split by first-row length: entry L counts those whose first row has
    L parts (entry 0 is the empty one).

    A plane partition is a chain of nonempty rows, each a partition contained
    in the row before.  Row i (1-indexed) puts its j-th part on color
    (i - j) mod m, and a weight packs the color totals as base-(order + 1)
    digits.  A pit (M, N) caps every row after the M-th at N parts.  What can
    follow a row depends only on the row phase (i mod m, min(i, M + 1)), the
    row and the budget left.  A row of size <= left has part j <= left // j,
    so the memo (one per call) keys on the row above clipped to
    min(outer_j, left // j), with the raw key as an alias so that a repeated
    lookup does not clip again.  Under a pit (0, N) nothing below the first
    row depends on N, so length L <= N of the split counts what (0, L) counts.
    """
    base = order + 1
    unit = [base**c for c in range(m)]
    free, width = pit
    memo: dict[tuple, dict[int, int]] = {}
    stop = {0: 1}  # only the empty continuation; never mutated

    def grow(outs: list[dict[int, int]], i: int, outer: tuple[int, ...], cap: int,
             row: tuple[int, ...], rest: int, weight: int) -> None:
        # every nonempty row extending ``row`` inside ``outer``, with what can
        # follow it, added into ``outs[length - 1]``
        j = len(row)
        out = outs[j]
        top = min(outer[j], row[-1] if row else rest, rest)
        u = unit[(i - j - 1) % m]
        for part in range(top, 0, -1):
            longer, w = row + (part,), weight + part * u
            for k, c in below(i + 1, longer, rest - part).items():
                out[k + w] = out.get(k + w, 0) + c
            if j + 1 < cap:
                grow(outs, i, outer, cap, longer, rest - part, w)

    def below(i: int, outer: tuple[int, ...], left: int) -> dict[int, int]:
        if not left:
            return stop
        key = (i % m, min(i, free + 1), outer, left)
        out = memo.get(key)
        if out is None:
            outer = tuple(map(min, outer, map(left.__floordiv__, range(1, left + 1))))
            clipped = key[:2] + (outer, left)
            out = memo.get(clipped)
            if out is None:
                memo[clipped] = out = {0: 1}
                cap = len(outer) if i <= free else min(len(outer), width)
                if cap:
                    grow([out] * cap, i, outer, cap, (), left, 0)
            memo[key] = out
        return out

    first = tuple(map(order.__floordiv__, range(1, order + 1)))  # clipped, as in below
    cap = len(first) if free else min(len(first), width)
    by_length = [{0: 1}] + [{} for _ in range(cap)]
    if cap:
        grow(by_length[1:], 1, first, cap, (), order, 0)
    memo.clear()  # the recursive closure keeps the memo alive until a gc pass
    return by_length


def _merged(counts: list[dict[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in counts:
        for k, c in part.items():
            out[k] = out.get(k, 0) + c
    return out


def _unpack(weight: int, order: int, m: int) -> tuple[int, ...]:
    base = order + 1
    return tuple(weight // base**c % base for c in range(m))


def nested_series_by_rank(r: int, order: int) -> list[QSeries]:
    """:func:`nested_series` for ranks 1, ..., r, read off one row-chain count
    under the pit (0, r): rank s sums the first-row lengths <= s."""
    if r < 1:
        raise ValueError("rank must be positive")
    by_length = _row_chains(order, 1, (0, r))
    return [
        QSeries(("q",), order, {(n,): c for n, c in _merged(by_length[: s + 1]).items()})
        for s in range(1, r + 1)
    ]


def nested_series(r: int, order: int) -> QSeries:
    """Containment chains of r partitions graded by total size: plane
    partitions with at most r rows, counted by their transposes, the plane
    partitions with at most r parts per row: the pit (0, r) keeps one row
    phase where (r, 0) would keep r + 1, so its memo is smaller."""
    return nested_series_by_rank(r, order)[-1]


def plane_partition_series(
    order: int, colors: int | None = None, pit: tuple[int, int] | None = None
) -> QSeries:
    """Plane partitions of total size <= order.

    Uncolored: a series in q.  Colored with modulus m: a series in
    q_0..q_{m-1} where the stack at (i, j) contributes its height to the
    color (i - j) mod m.  A pit at (M, N) forces entry (i, j) to vanish
    whenever i > M and j > N (1-indexed): (M, 0) means at most M rows and
    (0, N) at most N columns.
    """
    if order > PLANE_PARTITION_MAX_ORDER:
        raise OrderTooLarge(
            f"order {order} exceeds the supported envelope {PLANE_PARTITION_MAX_ORDER}"
        )
    m = 1 if colors is None else colors
    if m < 1:
        raise ValueError("color modulus must be positive")
    if pit is not None and (min(pit) < 0 or max(pit) == 0):
        raise ValueError("pit coordinates must be positive, or one of them zero")
    n = max(order, 0)
    # without a pit, (0, n) caps nothing: a row of size <= n has <= n parts
    counts = _merged(_row_chains(n, m, pit if pit is not None else (0, n)))
    vars = ("q",) if colors is None else tuple(f"q{c}" for c in range(m))
    return QSeries(vars, order, {_unpack(w, n, m): c for w, c in counts.items()})


# -- conifold pyramid configurations -------------------------------------------


def _pyramid_atoms(layers: int):
    """Atom poset of the two-colored pyramid arrangement.

    Layer k (k = 0 is the apex, color k mod 2) holds a grid of atoms that
    alternately splits in the two horizontal directions; every atom lists
    the atoms of the previous layer that must be present before it can be
    added (interior atoms have two, edge atoms one).  Atoms are listed
    layer-major, so supports always precede their atom.
    """
    positions: list[list[tuple[int, int]]] = [[(0, 0)]]
    for k in range(1, layers):
        nxt: set[tuple[int, int]] = set()
        for (x, y) in positions[-1]:
            if k % 2 == 1:  # split along x
                nxt.add((x - 1, y))
                nxt.add((x + 1, y))
            else:  # split along y
                nxt.add((x, y - 1))
                nxt.add((x, y + 1))
        positions.append(sorted(nxt))
    atoms: list[tuple[int, tuple[int, int]]] = []
    index: dict[tuple[int, tuple[int, int]], int] = {}
    supports: list[list[int]] = []
    for k, layer in enumerate(positions):
        prev_set = set(positions[k - 1]) if k else set()
        for pos in layer:
            index[(k, pos)] = len(atoms)
            atoms.append((k, pos))
            if k == 0:
                supports.append([])
                continue
            x, y = pos
            cand = [(x - 1, y), (x + 1, y)] if k % 2 == 1 else [(x, y - 1), (x, y + 1)]
            supports.append([index[(k - 1, c)] for c in cand if c in prev_set])
    return atoms, supports


def pyramid_series(order: int) -> QSeries:
    """Two-colored pyramid configurations weighted q0^(color-0) q1^(color-1).

    Reverse search over the downward-closed stone sets with at most
    ``order`` stones: the children of a set I are I + {a} for the addable
    atoms a listed after max(I).  Atoms are layer-major, so max(I) is always
    removable and every set is visited exactly once.  An atom at layer k
    needs a chain of k supporting atoms above it, so layers beyond order-1
    can never be reached within the stone budget.
    """
    if order > PYRAMID_MAX_ORDER:
        raise OrderTooLarge(f"order {order} exceeds the supported envelope {PYRAMID_MAX_ORDER}")
    atoms, supports = _pyramid_atoms(max(order, 1))
    missing = [len(s) for s in supports]
    above: list[list[int]] = [[] for _ in atoms]
    for a, sup in enumerate(supports):
        for s in sup:
            above[s].append(a)
    coeffs: dict[tuple[int, int], int] = {}

    def visit(frontier: list[int], left: int, n0: int, n1: int) -> None:
        coeffs[(n0, n1)] = coeffs.get((n0, n1), 0) + 1
        if left <= 0:
            return
        for pos, a in enumerate(frontier):
            freed = []
            for b in above[a]:
                missing[b] -= 1
                if not missing[b]:
                    freed.append(b)
            later = sorted(frontier[pos + 1 :] + freed)
            if atoms[a][0] % 2 == 0:
                visit(later, left - 1, n0 + 1, n1)
            else:
                visit(later, left - 1, n0, n1 + 1)
            for b in above[a]:
                missing[b] += 1

    visit([0], order, 0, 0)
    return QSeries(("q0", "q1"), order, coeffs)


# -- blowup lattice sum ---------------------------------------------------------


def blowup_series(order: int) -> QSeries:
    """Sum over an integer k and a pair of partitions, weighted
    q^(k^2/2 + |lambda_0| + |lambda_1|).

    The lattice ranges over every k whose q^(k^2/2) weight fits the order.
    Returned in the doubled variable qh with
    qh^2 = q, so exponents stay integral; grade bound is 2*order in qh.
    """
    counts = partition_counts(order)
    coeffs: dict[tuple[int], int] = {}
    k = 0
    while k * k <= 2 * order:
        multiplicity = 1 if k == 0 else 2  # k and -k
        pair_budget = (2 * order - k * k) // 2
        for n0 in range(pair_budget + 1):
            for n1 in range(pair_budget - n0 + 1):
                weight = k * k + 2 * (n0 + n1)  # exponent of qh
                count = counts[n0] * counts[n1] * multiplicity
                coeffs[(weight,)] = coeffs.get((weight,), 0) + count
        k += 1
    return QSeries(("qh",), 2 * order, coeffs)
