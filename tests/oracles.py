"""Independent reference enumerators used as oracles by the tests.

These deliberately use different algorithms from the package: box piles as
explicit downward-closed subsets of the lattice grown by breadth-first
search with set deduplication, partition counts by the bounded-part
recurrence and by explicit enumeration (``partitions_of``), and nested
chains by filtering plain tuples.  The package's
earlier enumerators are kept here as well: the atom-list walk over pyramid
configurations (``pyramid_configurations``) and the row-by-row generation of
nested chains and plane partitions (``nested_chains``,
``plane_partitions_upto``, with pit (0, N) by transposition); the pyramid
oracles build their stone poset from the geometry (``pyramid_stones``), not
from the package.  Ideal membership and rank have dense Gaussian-elimination
references here, independent of the package's sparse echelon form; the
earlier sparse membership, one echelon form over the products of every
endpoint pair rebuilt per query (``ideal_membership_all_endpoints``), is
kept as the reference for ``ncalg.MembershipSystem``.
Products of ``(1 - sign*m)**power`` factors are expanded one factor at a
time by ring arithmetic, independent of the package's
logarithmic-derivative recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n with parts bounded by max_part, largest part
    first, generated one by one."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


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


def pyramid_stones(layers: int):
    """Stones of the two-colored pyramid, layer-major, with their supports.

    Layer k (color k mod 2) has been split ceil(k/2) times along x and
    floor(k/2) times along y, so its stones form the grid x in {-a, -a+2,
    ..., a}, y in {-b, -b+2, ..., b} with a = ceil(k/2), b = floor(k/2).  A
    stone of an odd layer rests on the stones at x - 1 and x + 1 of the layer
    above, a stone of an even layer on those at y - 1 and y + 1; edge stones
    have only one of the two.  Returns ``(atoms, supports)`` with atoms
    ``(k, (x, y))`` and supports as lists of atom indices.
    """
    atoms = []
    for k in range(layers):
        a, b = (k + 1) // 2, k // 2
        atoms += [(k, (x, y)) for x in range(-a, a + 1, 2) for y in range(-b, b + 1, 2)]
    index = {atom: i for i, atom in enumerate(atoms)}
    supports = []
    for k, (x, y) in atoms:
        if k == 0:
            near = []
        elif k % 2 == 1:
            near = [(x - 1, y), (x + 1, y)]
        else:
            near = [(x, y - 1), (x, y + 1)]
        supports.append([index[(k - 1, p)] for p in near if (k - 1, p) in index])
    return atoms, supports


def pyramid_weights_by_bfs(order: int) -> dict[tuple[int, int], int]:
    """Two-colored pyramid ideals grown stone by stone with set dedup,
    independently of the depth-first enumerator in the package."""
    atoms, supports = pyramid_stones(max(order, 1))
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


def pyramid_configurations(order: int):
    """Yields (color-0 count, color-1 count) over all downward-closed stone
    configurations with at most ``order`` stones, walking the atom list and
    branching on each atom whose supports are present.

    An atom at layer k needs a chain of k supporting atoms above it, so
    layers beyond order-1 can never be reached within the stone budget.
    """
    atoms, supports = pyramid_stones(max(order, 1))
    n = len(atoms)
    chosen = [False] * n

    def rec(i: int, used: int, n0: int, n1: int):
        if i == n or used == order:
            yield (n0, n1)
            return
        yield from rec(i + 1, used, n0, n1)
        if all(chosen[s] for s in supports[i]):
            chosen[i] = True
            if atoms[i][0] % 2 == 0:
                yield from rec(i + 1, used + 1, n0 + 1, n1)
            else:
                yield from rec(i + 1, used + 1, n0, n1 + 1)
            chosen[i] = False

    yield from rec(0, 0, 0, 0)


def _contained_partitions(outer, budget):
    """Partitions fitting inside ``outer`` (componentwise) with size <= budget."""

    def rec(i, prev, left):
        yield ()
        if i >= len(outer):
            return
        cap = min(outer[i], prev, left)
        for part in range(cap, 0, -1):
            for rest in rec(i + 1, part, left - part):
                yield (part,) + rest

    yield from rec(0, outer[0] if outer else 0, budget)


def nested_chains(r: int, order: int):
    """Chains lambda^1 contains ... contains lambda^r with total size <= order."""

    def rec(level, outer, left):
        if level == r:
            yield ()
            return
        if level == 0:
            candidates = []
            for n in range(left + 1):
                candidates.extend(_partitions(n))
        else:
            candidates = list(_contained_partitions(outer, left))
        for lam in candidates:
            size = sum(lam)
            for rest in rec(level + 1, lam, left - size):
                yield (lam,) + rest

    yield from rec(0, (), order)


def plane_partitions_upto(order: int, pit=None):
    """All plane partitions of total size <= order, as tuples of rows.

    A pit at (M, N) forces entry (i, j) to vanish whenever i > M and j > N
    (1-indexed); (M, 0) therefore means at most M rows, and (0, N) is the
    transpose of (N, 0).
    """

    def row_bound(i):  # max number of parts in row i (1-indexed)
        if pit is None:
            return None
        m, n = pit
        if i > m:
            return n
        return None

    def rec(i, outer, left):
        yield ()
        if left == 0:
            return
        if i == 1:
            candidates = []
            for n in range(1, left + 1):
                candidates.extend(_partitions(n))
        else:
            candidates = [lam for lam in _contained_partitions(outer, left) if lam]
        bound = row_bound(i)
        for lam in candidates:
            if bound is not None and len(lam) > bound:
                continue
            size = sum(lam)
            for rest in rec(i + 1, lam, left - size):
                yield (lam,) + rest

    if pit is not None:
        m, n = pit
        if m < 0 or n < 0 or (m == 0 and n == 0):
            raise ValueError("pit coordinates must be positive, or one of them zero")
        if m == 0:
            for pp in plane_partitions_upto(order, (n, 0)):
                yield _transpose(pp)
            return
    yield from rec(1, (), order)


def _transpose(rows):
    if not rows:
        return ()
    width = len(rows[0])
    out = []
    for j in range(width):
        col = tuple(row[j] for row in rows if len(row) > j)
        out.append(col)
    return tuple(out)


def plane_partition_weights(order: int, colors=None, pit=None) -> dict[tuple[int, ...], int]:
    """Weights of ``plane_partitions_upto``: total size, or the color totals
    with the stack at (i, j) on color (i - j) mod colors."""
    m = colors or 1
    weights: dict[tuple[int, ...], int] = {}
    for pp in plane_partitions_upto(order, pit):
        w = [0] * m
        for i, row in enumerate(pp, start=1):
            for j, height in enumerate(row, start=1):
                w[(i - j) % m] += height
        weights[tuple(w)] = weights.get(tuple(w), 0) + 1
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


def ideal_membership_all_endpoints(q, p, relations, word_length_bound):
    """Bounded ideal membership with every nonzero ``u*r*v``, whatever its
    endpoints, in one sparse echelon form built for this query alone.
    Returns an ``ncalg.MembershipResult`` and raises ``BoundTooSmall`` as
    the package does."""
    from quiverdt import linalg, ncalg

    if word_length_bound < 0:
        raise ncalg.BoundTooSmall("negative word length bound")
    if p.is_zero():
        return ncalg.MembershipResult(True, ncalg.MembershipCertificate([]), None)
    rels = [(ridx, r) for ridx, r in enumerate(relations.relations) if not r.poly.is_zero()]
    if rels:
        reach = 2 * word_length_bound + max(r.poly.max_length() for _, r in rels)
        if p.max_length() > reach:
            raise ncalg.BoundTooSmall(
                f"bound {word_length_bound} cannot reach words of length {p.max_length()}"
            )
    words = ncalg._paths_up_to(q, word_length_bound)
    order = lambda w: w.sort_key(q)
    span = linalg.Echelon(order)
    for ridx, r in rels:
        for u in words:
            if u.target(q) != r.src:
                continue
            ur = ncalg.nc_mul(q, ncalg.NCPoly.from_path(u), r.poly)
            for v in words:
                if v.source(q) != r.tgt:
                    continue
                urv = ncalg.nc_mul(q, ur, ncalg.NCPoly.from_path(v))
                if not urv.is_zero():
                    span.add(urv.terms, (u, ridx, v))
    residual, combination = span.reduce(p.terms)
    if residual:
        return ncalg.MembershipResult(
            False, None, ncalg.NCPoly({w: residual[w] for w in sorted(residual, key=order)})
        )
    parts = [(coeff, u, ridx, v) for (u, ridx, v), coeff in combination.items()]
    return ncalg.MembershipResult(True, ncalg.MembershipCertificate(parts), None)


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
