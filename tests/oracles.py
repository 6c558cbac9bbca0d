"""Independent reference enumerators used as oracles by the tests.

These deliberately use different algorithms from the package: box piles as
explicit downward-closed subsets of the lattice grown by breadth-first
search with set deduplication, partition counts by the bounded-part
recurrence, and nested chains by filtering plain tuples.  Ideal membership
and rank have dense Gaussian-elimination references here, independent of
the package's sparse echelon form.  Products of ``(1 - sign*m)**power``
factors are expanded one factor at a time by ring arithmetic, independent
of the package's logarithmic-derivative recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def partition_count_dp(n: int, max_part: int | None = None) -> int:
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count_dp(n - max_part, max_part) + partition_count_dp(n, max_part - 1)


def plane_partition_counts_by_boxes(order: int) -> list[int]:
    """Counts of box piles of each size <= order, grown box by box.

    A pile is a finite downward-closed subset of the positive octant; a box
    (i, j, k) may join once (i-1, j, k), (i, j-1, k), (i, j, k-1) are all
    present (coordinates at level zero count as present).
    """
    counts = [0] * (order + 1)
    level = {frozenset()}
    counts[0] = 1
    for size in range(1, order + 1):
        nxt: set[frozenset] = set()
        for pile in level:
            for box in _addable_boxes(pile, order):
                nxt.add(pile | {box})
        counts[size] = len(nxt)
        level = nxt
    return counts


def _addable_boxes(pile: frozenset, order: int):
    candidates = {(1, 1, 1)}
    for (i, j, k) in pile:
        candidates.update({(i + 1, j, k), (i, j + 1, k), (i, j, k + 1)})
    out = []
    for (i, j, k) in candidates:
        if (i, j, k) in pile:
            continue
        below = [(i - 1, j, k), (i, j - 1, k), (i, j, k - 1)]
        if all(b in pile or 0 in b for b in below):
            out.append((i, j, k))
    return out


def colored_plane_partition_counts_by_boxes(order: int, m: int) -> dict[tuple[int, ...], int]:
    """Color weights of box piles, color of (i, j, k) = (i - j) mod m."""
    weights: dict[tuple[int, ...], int] = {(0,) * m: 1}
    level = {frozenset()}
    for _ in range(order):
        nxt: set[frozenset] = set()
        for pile in level:
            for box in _addable_boxes(pile, order):
                nxt.add(pile | {box})
        for pile in nxt:
            w = [0] * m
            for (i, j, k) in pile:
                w[(i - j) % m] += 1
            key = tuple(w)
            weights[key] = weights.get(key, 0) + 1
        level = nxt
    return weights


def pyramid_weights_by_bfs(order: int) -> dict[tuple[int, int], int]:
    """Two-colored pyramid ideals grown stone by stone with set dedup,
    independently of the depth-first enumerator in the package."""
    from quiverdt.partitions import _pyramid_atoms

    atoms, supports = _pyramid_atoms(max(order, 1))
    weights: dict[tuple[int, int], int] = {(0, 0): 1}
    level = {frozenset()}
    for _ in range(order):
        nxt: set[frozenset] = set()
        for ideal in level:
            for idx in range(len(atoms)):
                if idx in ideal:
                    continue
                if all(s in ideal for s in supports[idx]):
                    nxt.add(ideal | {idx})
        for ideal in nxt:
            n0 = sum(1 for i in ideal if atoms[i][0] % 2 == 0)
            n1 = len(ideal) - n0
            weights[(n0, n1)] = weights.get((n0, n1), 0) + 1
        level = nxt
    return weights


def nested_counts_by_filter(r: int, order: int) -> list[int]:
    """Count containment chains by brute filtering of r-tuples."""
    parts_by_size = {n: list(_partitions(n)) for n in range(order + 1)}
    counts = [0] * (order + 1)
    all_parts = [lam for n in range(order + 1) for lam in parts_by_size[n]]

    def contains(big, small):
        if len(small) > len(big):
            return False
        return all(small[i] <= big[i] for i in range(len(small)))

    def rec(level, prev, total):
        if total > order:
            return
        if level == r:
            counts[total] += 1
            return
        for lam in all_parts:
            if sum(lam) + total > order:
                continue
            if prev is None or contains(prev, lam):
                rec(level + 1, lam, total + sum(lam))

    rec(0, None, 0)
    return counts


def _partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


# -- dense exact linear algebra -------------------------------------------------


def _dense_echelon(rows: list[list[Fraction]], ncols: int) -> list[tuple[int, int]]:
    """Gauss-Jordan in place over the first ``ncols`` columns, first nonzero
    row as pivot; returns the (row, column) pivot positions."""
    pivots = []
    rk = 0
    for col in range(ncols):
        pivot = next((i for i in range(rk, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        pv = rows[rk][col]
        rows[rk] = [x / pv for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        pivots.append((rk, col))
        rk += 1
    return pivots


def rank_dense(a) -> int:
    rows = [[Fraction(x) for x in r] for r in a]
    return len(_dense_echelon(rows, len(rows[0]) if rows else 0))


def solve_dense(a, b):
    """One solution x of A x = b, or None if the system is inconsistent."""
    nc = len(a[0]) if a else 0
    rows = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(len(a))]
    pivots = _dense_echelon(rows, nc)
    if any(rows[i][nc] != 0 for i in range(len(pivots), len(rows))):
        return None
    x = [Fraction(0)] * nc
    for r, c in pivots:
        x[c] = rows[r][nc]
    return x


def _residual_dense(p, basis, column_vecs):
    """Reduce p by the column span, pivoting each column at its first
    nonzero basis word, and return the remainder as ``word -> coeff``."""
    index = {w: i for i, w in enumerate(basis)}
    pivots: dict[int, list[Fraction]] = {}
    for vec in column_vecs:
        row = [Fraction(0)] * len(basis)
        for w, c in vec.items():
            row[index[w]] = c
        for col, pivot in pivots.items():
            if row[col] != 0:
                f = row[col]
                row = [x - f * y for x, y in zip(row, pivot)]
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is not None:
            pv = row[lead]
            pivots[lead] = [x / pv for x in row]
    target = [p.terms.get(w, Fraction(0)) for w in basis]
    for col, pivot in pivots.items():
        if target[col] != 0:
            f = target[col]
            target = [x - f * y for x, y in zip(target, pivot)]
    return {w: c for w, c in zip(basis, target) if c != 0}


def ideal_membership_dense(q, p, relations, word_length_bound):
    """Bounded ideal membership by one dense solve over the word basis and,
    for non-members, a second dense elimination for the residual.  Returns
    ``(success, certificate parts, residual terms)``; certificate parts are
    ``(coeff, u, relation index, v)`` as in the package."""
    from quiverdt import ncalg

    words = ncalg._paths_up_to(q, word_length_bound)
    columns, column_vecs = [], []
    for ridx, r in enumerate(relations.relations):
        for u in words:
            if u.target(q) != r.src:
                continue
            ur = ncalg.nc_mul(q, ncalg.NCPoly.from_path(u), r.poly)
            for v in words:
                if v.source(q) != r.tgt:
                    continue
                urv = ncalg.nc_mul(q, ur, ncalg.NCPoly.from_path(v))
                if not urv.is_zero():
                    columns.append((u, ridx, v))
                    column_vecs.append(urv.terms)
    basis = sorted(
        {w for vec in column_vecs for w in vec} | set(p.terms), key=lambda w: w.sort_key(q)
    )
    a = [[vec.get(w, Fraction(0)) for vec in column_vecs] for w in basis]
    b = [p.terms.get(w, Fraction(0)) for w in basis]
    sol = solve_dense(a, b) if columns else None
    if sol is None and not p.is_zero():
        return False, None, _residual_dense(p, basis, column_vecs)
    parts = [(c, u, ridx, v) for c, (u, ridx, v) in zip(sol or [], columns) if c != 0]
    return True, parts, None


# -- factor-by-factor q-series products -----------------------------------------


def binomial_factor_by_powers(vars, order, exps, sign=1, power=1, grading=None):
    """``(1 - sign*m)**power`` for a single monomial ``m``: repeated squaring
    for a non-negative power, else the geometric series of ``m`` raised to
    ``-power``."""
    from quiverdt.qseries import ConeViolation, QSeries

    one = QSeries.one(vars, order, grading)
    weights = one.grading
    g = sum(w * e for w, e in zip(weights, exps))
    if g < 0:
        raise ConeViolation(f"monomial {exps} has negative grade")
    if power >= 0:
        return (one - QSeries.monomial(vars, order, exps, sign, weights)) ** power
    if g == 0:
        raise ConeViolation(f"cannot invert (1 - m) for grade-0 monomial {exps}")
    coeffs: dict[tuple[int, ...], int] = {}
    j = 0
    while j * g <= order:
        coeffs[tuple(j * e for e in exps)] = sign ** j
        j += 1
    geo = QSeries(vars, order, coeffs, weights)
    return geo ** (-power)


def factor_product_by_factors(vars, order, factors, grading=None):
    """The product of a factor multiset ``{(exps, sign): power}``, multiplied
    in one factor at a time."""
    from quiverdt.qseries import QSeries

    out = QSeries.one(vars, order, grading)
    for (exps, sign), power in factors.items():
        out = out * binomial_factor_by_powers(vars, order, exps, sign, power, grading)
    return out
