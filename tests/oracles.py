"""Independent reference enumerators used as oracles by the tests.

These deliberately use different algorithms from the package: box piles as
explicit downward-closed subsets of the lattice grown by breadth-first
search with set deduplication, partition counts by the bounded-part
recurrence and by explicit enumeration (``partitions_of``), and nested
chains by filtering plain tuples.  The package's
earlier enumerators are kept here as well: the atom-list walk over pyramid
configurations (``pyramid_configurations``) and the row-by-row generation of
nested chains and plane partitions (``nested_chains``,
``plane_partitions_upto``, with pit (0, N) by transposition), and the
memoised row-chain counter as it was before its memo key was clipped and
its counts split by first-row length (``row_chains``); the pyramid
oracles build their stone poset from the geometry (``pyramid_stones``), not
from the package.  Ideal membership and rank have dense Gaussian-elimination
references here, independent of the package's sparse echelon form, and so
have the package's numeric products: the dense product and largest entry
(``matmul_dense``, ``max_abs_dense``) that it used before ``linalg.Rows``;
the earlier sparse membership, one echelon form over the products of every
endpoint pair rebuilt per query (``ideal_membership_all_endpoints``), is
kept as the reference for ``ncalg.MembershipSystem``.  So is that system as
it was before it took in only the products a query reaches
(``EagerMembershipSystem``, over the word enumeration it used,
``paths_up_to``), which pins its certificates and full-system sizes; the
rows a set of words reaches are found by sweeping a product list
(``reached_rows``), not by factorising words as the package does.
Products of ``(1 - sign*m)**power`` factors are expanded one factor at a
time by ring arithmetic, independent of the package's
logarithmic-derivative recurrence, and the factor multiset of a list of
pochhammers is added up one k at a time (``pochhammer_factors_by_k``),
independent of the package's running sum.  The catalog's quivers and potentials
as they were written out by hand before the parity-sequence generator
(``literal_quiver_with_potential``), and the NCDT products whose factors
map each Laurent monomial x q^k through the images q -> -q0...q_(N-1),
x_i -> q_i, multiplied MacMahon by MacMahon and factor by factor
(``xq_ncdt_product``, ``ym0_ncdt_product``) or in one product
(``ymn_ncdt_product_by_substitution``), pin the generator and
``checks.ymn_ncdt_product``; the NCDT sign twist as it was
read off the parity sequence (``ymn_sign_flips``) pins the twist that
``checks`` derives from the Euler form, and the arrow and gauge dimensions
of a pair of dimension vectors (``block_dims``) cross-check the Euler form
itself.  The monad templates typed out row by row
(``literal_monad_templates``) pin, up to a sign on each summand, the
catalog's derivation of them from the framed quiver with potential and one
chart monomial per arrow.  The framed potential expanded by a recursion
over each word (``expand_by_recursion``) is the reference for
``framing.expand``.  The character figures' pyramids as they were typed
from the figure annotations (``figure_pyramid``) pin the shift matrix and
family index that ``characters.FIGURES`` gives each figure kind.
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


# -- the row-chain counter keyed on the full row -----------------------------------


def row_chains(order: int, m: int, pit: tuple[int, int]) -> dict[int, int]:
    """Plane partitions of total size <= order, counted by packed color weight.

    A plane partition is a chain of nonempty rows, each a partition contained
    in the row before.  Row i (1-indexed) puts its j-th part on color
    (i - j) mod m, and a weight packs the color totals as base-(order + 1)
    digits.  A pit (M, N) caps every row after the M-th at N parts.  What can
    follow a row depends only on the row phase (i mod m, min(i, M + 1)), the
    row itself and the budget left; that triple keys the memo, which lives
    for one call.  The pit (0, N) caps every row at N parts and keeps one
    row phase per color.
    """
    base = order + 1
    unit = [base**c for c in range(m)]
    free, width = pit
    memo: dict[tuple, dict[int, int]] = {}
    stop = {0: 1}  # only the empty continuation; never mutated

    def grow(out: dict[int, int], i: int, outer: tuple[int, ...], cap: int,
             row: tuple[int, ...], rest: int, weight: int) -> None:
        # every nonempty row extending ``row`` inside ``outer``, with what can
        # follow it, added into ``out``
        j = len(row)
        top = min(outer[j], row[-1] if row else rest, rest)
        u = unit[(i - j - 1) % m]
        for part in range(top, 0, -1):
            longer, w = row + (part,), weight + part * u
            for k, c in below(i + 1, longer, rest - part).items():
                out[k + w] = out.get(k + w, 0) + c
            if j + 1 < cap:
                grow(out, i, outer, cap, longer, rest - part, w)

    def below(i: int, outer: tuple[int, ...], left: int) -> dict[int, int]:
        cap = len(outer) if i <= free else min(len(outer), width)
        if not cap or left <= 0:
            return stop
        key = (i % m, min(i, free + 1), outer, left)
        if key not in memo:
            memo[key] = out = {0: 1}
            grow(out, i, outer, cap, (), left, 0)
        return memo[key]

    counts = below(1, (order,) * order, order)
    memo.clear()  # the recursive closure keeps the memo alive until a gc pass
    return counts


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


def _shape_dense(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def matmul_dense(a, b):
    """``a @ b`` of dense matrices by row-times-column sums; an ``a`` with
    no rows has no width to check, and its product has no rows."""
    ra, ca = _shape_dense(a)
    rb, cb = _shape_dense(b)
    if ra and ca != rb:
        raise ValueError(f"shape mismatch in matmul: {_shape_dense(a)} x {_shape_dense(b)}")
    bt = list(zip(*b)) if rb else [()] * cb
    return tuple(
        tuple(sum((a[i][k] * bt[j][k] for k in range(ca)), Fraction(0)) for j in range(cb))
        for i in range(ra)
    )


def max_abs_dense(a) -> Fraction:
    best = Fraction(0)
    for row in a:
        for x in row:
            if abs(x) > best:
                best = abs(x)
    return best


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


def paths_up_to(q, bound):
    """Every path of length at most ``bound``: shortest first, and within a
    length by prefix, then by the arrow added in ``q.arrows`` order (so by
    arrow indices among the paths from one vertex)."""
    from quiverdt import ncalg

    level = [ncalg.trivial_path(v) for v in q.vertices]
    out = list(level)
    for _ in range(bound):
        level = [ncalg.Path(w.arrows + (a.name,)) for w in level for a in q.arrows_from(w.target(q))]
        out += level
    return out


def ideal_membership_dense(q, p, relations, word_length_bound):
    """Bounded ideal membership by one dense solve over the word basis and,
    for non-members, a second dense elimination for the residual.  Returns
    ``(success, certificate parts, residual terms)``; certificate parts are
    ``(coeff, u, relation index, v)`` as in the package."""
    from quiverdt import ncalg

    words = paths_up_to(q, word_length_bound)
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
    endpoints, in one sparse echelon form built for this query alone and
    keyed by each word's ``Path.sort_key``.  Returns an
    ``ncalg.MembershipResult`` and raises ``BoundTooSmall`` as the package
    does."""
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
    words = paths_up_to(q, word_length_bound)
    paths = {}  # sort key -> path, for every word the form sees

    def keyed(terms):
        out = {}
        for w, c in terms.items():
            k = w.sort_key(q)
            paths[k] = w
            out[k] = c
        return out

    span = linalg.Echelon()
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
                    span.add(keyed(urv.terms), (u, ridx, v))
    residual, combination = span.reduce(keyed(p.terms))
    if residual:
        return ncalg.MembershipResult(
            False, None, ncalg.NCPoly({paths[k]: residual[k] for k in sorted(residual)})
        )
    parts = [(coeff, u, ridx, v) for (u, ridx, v), coeff in combination.items()]
    return ncalg.MembershipResult(True, ncalg.MembershipCertificate(parts), None)


class EagerMembershipSystem:
    """``ncalg.MembershipSystem`` as it was before it sought out the rows a
    query reaches: the first query on an endpoint pair ``(s, t)`` builds
    every nonzero ``u*r*v`` of that pair by ``nc_mul``, relation by
    relation, then ``u``, then ``v`` in ``paths_up_to`` order, and
    eliminates all of them in that order.  Rows are keyed by
    ``Path.sort_key`` and tagged ``(u, relation index, v)``.  Same
    constructor, ``decide`` and ``stats`` as the package's system (without
    its reach and path checks on a query); ``products`` keeps each pair's
    rows as ``(tag, {sort key: coeff})``."""

    def __init__(self, q, relations, word_length_bound):
        from quiverdt import ncalg

        if word_length_bound < 0:
            raise ncalg.BoundTooSmall("negative word length bound")
        self.quiver = q
        self.relations = relations
        self.words = paths_up_to(q, word_length_bound)
        self.products = {}
        self._echelons = {}
        self._paths = {}  # (s, t) -> {sort key: path}

    def _keyed(self, s, t, terms):
        paths = self._paths.setdefault((s, t), {})
        out = {}
        for w, c in terms.items():
            k = w.sort_key(self.quiver)
            paths[k] = w
            out[k] = c
        return out

    def _echelon(self, s, t):
        from quiverdt import linalg, ncalg

        span = self._echelons.get((s, t))
        if span is None:
            q = self.quiver
            rows = self.products[(s, t)] = []
            for ridx, r in enumerate(self.relations.relations):
                for u in self.words:
                    if u.source(q) != s or u.target(q) != r.src:
                        continue
                    ur = ncalg.nc_mul(q, ncalg.NCPoly.from_path(u), r.poly)
                    for v in self.words:
                        if v.source(q) != r.tgt or v.target(q) != t:
                            continue
                        urv = ncalg.nc_mul(q, ur, ncalg.NCPoly.from_path(v))
                        if not urv.is_zero():
                            rows.append(((u, ridx, v), self._keyed(s, t, urv.terms)))
            span = self._echelons[(s, t)] = linalg.Echelon()
            for tag, row in rows:
                span.add(row, tag)
        return span

    def stats(self):
        rows = [row for products in self.products.values() for _, row in products]
        return {
            "systems": len(self._echelons),
            "rows": len(rows),
            "nonzeros": sum(map(len, rows)),
            "pivots": sum(map(len, self._echelons.values())),
        }

    def decide(self, p):
        from quiverdt import ncalg

        q = self.quiver
        if p.is_zero():
            return ncalg.MembershipResult(True, ncalg.MembershipCertificate([]), None)
        by_ends = {}
        for w, c in p.terms.items():
            by_ends.setdefault((w.source(q), w.target(q)), {})[w] = c
        residual, combination = {}, {}
        for (s, t), part in by_ends.items():
            rem, comb = self._echelon(s, t).reduce(self._keyed(s, t, part))
            residual.update((self._paths[(s, t)][k], c) for k, c in rem.items())
            combination.update(comb)
        if residual:
            terms = sorted(residual.items(), key=lambda wc: wc[0].sort_key(q))
            return ncalg.MembershipResult(False, None, ncalg.NCPoly(dict(terms)))
        parts = [(Fraction(c), u, ridx, v) for (u, ridx, v), c in combination.items()]
        return ncalg.MembershipResult(True, ncalg.MembershipCertificate(parts), None)


def reached_rows(rows, words):
    """The rows, of a list of ``(tag, {key: coeff})``, in the components
    that hold any of ``words``: a row is reached when it shares a key with
    a word given or with a row reached.  Found by sweeping the whole list
    until a sweep reaches nothing new; in list order."""
    keys, reached = set(words), set()
    grew = True
    while grew:
        grew = False
        for i, (_, row) in enumerate(rows):
            if i not in reached and not keys.isdisjoint(row):
                reached.add(i)
                keys.update(row)
                grew = True
    return [rows[i] for i in sorted(reached)]


# -- factor-by-factor q-series products -----------------------------------------


def binomial_factor_by_powers(vars, order, exps, sign=1, power=1):
    """``(1 - sign*m)**power`` for a single monomial ``m``: repeated squaring
    for a non-negative power, else the geometric series of ``m`` raised to
    ``-power``."""
    from quiverdt.qseries import ConeViolation, QSeries

    one = QSeries.one(vars, order)
    g = sum(exps)
    if g < 1 or min(exps) < 0:
        raise ConeViolation(f"monomial {exps} needs non-negative exponents and degree >= 1")
    if power >= 0:
        return (one - QSeries.monomial(vars, order, exps, sign)) ** power
    coeffs: dict[tuple[int, ...], int] = {}
    j = 0
    while j * g <= order:
        coeffs[tuple(j * e for e in exps)] = sign ** j
        j += 1
    geo = QSeries(vars, order, coeffs)
    return geo ** (-power)


def factor_product_by_factors(vars, order, factors):
    """The product of a factor multiset ``{(exps, sign): power}``, multiplied
    in one factor at a time."""
    from quiverdt.qseries import QSeries

    out = QSeries.one(vars, order)
    for (exps, sign), power in factors.items():
        out = out * binomial_factor_by_powers(vars, order, exps, sign, power)
    return out


def pochhammer_factors_by_k(order, pochhammers):
    """The factor multiset ``{((k,), sign): power}`` of pochhammers
    ``(w, power[, sign])``, each standing for prod_{k>=w} (1 - sign*q^k)**power,
    added up one k at a time (the package's loop before it became a running
    sum)."""
    factors = {}
    for w, power, *sign in pochhammers:
        for k in range(w, order + 1):
            key = ((k,), sign[0] if sign else 1)
            factors[key] = factors.get(key, 0) + power
    return factors


# -- hand-written catalog geometries ----------------------------------------------


def literal_quiver_with_potential(geometry: str):
    """c3, conifold, y20 or y{m}0 (m >= 2) with every arrow and potential
    word written out, in the catalog's arrow order."""
    from quiverdt.ncalg import Arrow, Potential, Quiver

    if geometry == "c3":
        q = Quiver(("0",), (Arrow("B1", "0", "0"), Arrow("B2", "0", "0"), Arrow("B3", "0", "0")))
        # operator words B1.B2.B3 - B1.B3.B2 in traversal order
        return q, Potential.from_words(q, [(1, ("B1", "B3", "B2")), (-1, ("B1", "B2", "B3"))])
    if geometry == "conifold":
        q = Quiver(
            ("0", "1"),
            (Arrow("A", "0", "1"), Arrow("C", "0", "1"), Arrow("B", "1", "0"), Arrow("D", "1", "0")),
        )
        return q, Potential.from_words(q, [(1, ("A", "D", "C", "B")), (-1, ("A", "B", "C", "D"))])
    if geometry == "y20":
        q = Quiver(
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
        words = [
            (1, ("E", "C", "B")),
            (-1, ("E", "A", "D")),
            (1, ("F", "D", "A")),
            (-1, ("F", "B", "C")),
        ]
        return q, Potential.from_words(q, words)
    m = int(geometry[1:-1])
    vs = tuple(str(i) for i in range(m))
    arrows = [Arrow(f"w{i}", str(i), str(i)) for i in range(m)]
    arrows += [Arrow(f"a{i}", str(i), str((i + 1) % m)) for i in range(m)]
    arrows += [Arrow(f"b{i}", str((i + 1) % m), str(i)) for i in range(m)]
    q = Quiver(vs, tuple(arrows))
    words = []
    for i in range(m):
        words.append((1, (f"a{i}", f"b{i}", f"w{i}")))
        j = (i - 1) % m
        words.append((-1, (f"b{j}", f"a{j}", f"w{i}")))
    return q, Potential.from_words(q, words)


# -- the NCDT sign twist read off the parity sequence ------------------------------


def ymn_sign_flips(sigma: str) -> tuple[bool, ...]:
    """Whether q_c -> -q_c, as the rule was stated on sigma before it was
    derived from the Euler form: for each vertex c != 0 without a loop, and
    for c = 0 when vertex 0 has a loop (vertex c has one when sigma_c =
    sigma_(c+1))."""
    n = len(sigma)
    flips = []
    for c in range(n):
        loop = sigma[c] == sigma[(c + 1) % n]
        flips.append(loop if c == 0 else not loop)
    return tuple(flips)


# -- NCDT products, MacMahon by MacMahon --------------------------------------------


def _ncdt_images(n: int) -> dict:
    """q -> -q0...q_(N-1) and x_i -> q_i, from the Laurent variables x_1,
    ..., x_(N-1), q of the NCDT products into q0..q_(N-1)."""
    from quiverdt.qseries import Mono

    images = {f"x{i}": Mono(1, tuple(int(c == i) for c in range(n))) for i in range(1, n)}
    images["q"] = Mono(-1, (1,) * n)
    return images


def _macmahon_image_factors(x, images, order: int, power: int = 1) -> dict:
    """The factors ``(1 - x q^k)^(-k power)``, k >= 1, of ``M(x, q)^power``,
    each Laurent monomial x q^k (x an exponent vector on x_1, x_2, ...)
    mapped through ``images`` to the signed monomial its variables' images
    multiply to; the factors of image degree <= order are kept."""
    names = tuple(f"x{i}" for i in range(1, len(x) + 1)) + ("q",)
    n = len(images["q"].exps)
    factors = {}
    k = 1
    while True:
        sign, exps = 1, (0,) * n
        for e, v in zip(tuple(x) + (k,), names):
            sign *= images[v].sign ** (e % 2)
            exps = tuple(a + e * b for a, b in zip(exps, images[v].exps))
        if sum(exps) > order:
            return factors
        factors[(exps, sign)] = -k * power
        k += 1


def _macmahon_image(x, images, order: int, power: int = 1):
    """``M(x, q)^power`` in the image variables, multiplied in factor by factor."""
    targets = tuple(f"q{c}" for c in range(len(images["q"].exps)))
    return factor_product_by_factors(targets, order, _macmahon_image_factors(x, images, order, power))


def xq_ncdt_product(order: int, inverse_outer: bool):
    """M(1,q)^2 M(x^-1,q)^e M(x,q)^e for e = -1 (conifold) or +1 (y20),
    under q -> -q0 q1, x -> q1, MacMahon by MacMahon."""
    images = _ncdt_images(2)
    e = -1 if inverse_outer else 1
    return (
        _macmahon_image((0,), images, order) ** 2
        * _macmahon_image((-1,), images, order, power=e)
        * _macmahon_image((1,), images, order, power=e)
    )


def ym0_ncdt_product(m: int, order: int):
    """M(1,q)^m times paired interval factors M(x_[a,b]^{+-1}, q) under
    q -> -q0...q_(m-1), x_i -> q_i, MacMahon by MacMahon."""
    images = _ncdt_images(m)
    prod = _macmahon_image((0,) * (m - 1), images, order) ** m
    for a in range(1, m):
        for b in range(a, m):
            exps = tuple(1 if a <= i <= b else 0 for i in range(1, m))
            prod = prod * _macmahon_image(exps, images, order)
            prod = prod * _macmahon_image(tuple(-e for e in exps), images, order)
    return prod


def ymn_ncdt_product_by_substitution(sigma: str, order: int):
    """The NCDT product of the parity sequence sigma of length N as it was
    built before ``checks.ymn_ncdt_product`` wrote its factors straight in
    q0..q_(N-1): every MacMahon factor's Laurent monomial x q^k in (x_1,
    ..., x_(N-1), q) is mapped under q -> -q0...q_(N-1) and x_i -> q_i,
    and all the factors make one product."""
    from quiverdt.qseries import factor_product

    n = len(sigma)
    images = _ncdt_images(n)
    factors = _macmahon_image_factors((0,) * (n - 1), images, order, n)
    for a in range(1, n):
        for b in range(a, n):
            e = 1 if sigma[a] == sigma[(b + 1) % n] else -1
            x = tuple(1 if a <= i <= b else 0 for i in range(1, n))
            factors.update(_macmahon_image_factors(x, images, order, e))
            factors.update(_macmahon_image_factors(tuple(-v for v in x), images, order, e))
    return factor_product(tuple(f"q{c}" for c in range(n)), order, factors)


# -- hand-typed monad templates ---------------------------------------------------


# coordinate monomial shorthand
O_ = (0, 0, 0)
X = (1, 0, 0)
Y = (0, 1, 0)
Z = (0, 0, 1)
XZ = (1, 0, 1)
ZY = (0, 1, 1)


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


def _entry_matrix(rows) -> tuple:
    """A differential from rows of entries, each a list of ``(coeff, exps,
    word)`` terms."""
    out = []
    for row in rows:
        cells = []
        for terms in row:
            cell = {}
            for coeff, exps, wd in terms:
                cell[exps, wd] = cell.get((exps, wd), Fraction(0)) + Fraction(coeff)
            cells.append({k: c for k, c in cell.items() if c != 0})
        out.append(tuple(cells))
    return tuple(out)


def literal_monad_templates() -> dict:
    """Every stored monad template with its slots and differential entries
    typed out row by row, as the catalog held them before it derived them
    from the framed quiver with potential.  Coordinates and twists
    come from the catalog entry of the geometry, the quiver from the
    framed example (or the geometry)."""
    from quiverdt import catalog
    from quiverdt.monad import MonadTemplate, Slot

    out = {}
    for template, (geometry, example, terms, rows) in _MONAD_TEMPLATES.items():
        entry = catalog.get_entry(geometry)
        quiver = entry.quiver if example is None else catalog.get_framed_example(example).quiver
        out[template] = MonadTemplate(
            template, entry.coords, entry.twists,
            tuple(tuple(Slot(d, v) for d, v in term) for term in terms),
            tuple(_entry_matrix(d) for d in rows), quiver,
        )
    return out


# -- Euler form and block dimensions ------------------------------------------------


def block_dims(q, a, b):
    """Dimensions (X_ab, G_ab, X_(a+b), G_(a+b), X_a, G_a, X_b, G_b) of the
    arrow and gauge spaces for the pair, the sum, and each summand: the
    cross-check of ``ncalg.chi_form``, which equals G_ab - G_a - G_b - X_ab +
    X_a + X_b."""

    def xdim(d) -> int:
        return sum(d.get(e.src, 0) * d.get(e.tgt, 0) for e in q.arrows if not e.marked)

    def gdim(d) -> int:
        return sum(d.get(v, 0) ** 2 for v in q.vertices)

    def pair_x() -> int:
        total = 0
        for e in q.arrows:
            if e.marked:
                continue
            s, t = e.src, e.tgt
            total += (
                a.get(s, 0) * a.get(t, 0)
                + a.get(s, 0) * b.get(t, 0)
                + b.get(s, 0) * b.get(t, 0)
            )
        return total

    def pair_g() -> int:
        total = 0
        for v in q.vertices:
            total += a.get(v, 0) ** 2 + a.get(v, 0) * b.get(v, 0) + b.get(v, 0) ** 2
        return total

    ab = {v: a.get(v, 0) + b.get(v, 0) for v in q.vertices}
    return (
        pair_x(),
        pair_g(),
        xdim(ab),
        gdim(ab),
        xdim(a),
        gdim(a),
        xdim(b),
        gdim(b),
    )


# -- framed potentials expanded arrow by arrow ----------------------------------------


def expand_by_recursion(fq):
    """``framing.expand`` as it was before the junction-copy product: a
    recursion over the word that fixes each arrow's source copy from the
    previous arrow's target copy, seeded at the first arrow's source, and
    drops the assignments whose last target copy does not close the cycle.
    The expanded quiver's vertices and arrows are split copy by copy."""
    from quiverdt import framing
    from quiverdt.ncalg import Arrow, Potential, Quiver

    def copy_name(base: str, index: int, rank: int) -> str:
        return base if rank == 1 else f"{base}#{index + 1}"

    if fq.structure is None:
        raise framing.UnboundFraming("framing structure not bound; call specialize() first")
    ranks = {v: fq.structure.ranks[v] for v in fq.framing_vertices}
    for a in fq.quiver.arrows:
        if not a.marked:
            continue
        m = fq.structure.matrices[a.name]
        if max_abs_dense(m) == 0:
            continue
        if _shape_dense(m) != (1, 1) or a.src != a.tgt:
            raise framing.FramingError(
                f"marked arrow {a.name}: nonzero fixed matrices are supported "
                "only for rank-one marked loops; use the zero matrix otherwise"
            )

    vertices: list[str] = []
    for v in fq.quiver.vertices:
        if v in fq.framing_vertices:
            vertices.extend(copy_name(v, i, ranks[v]) for i in range(ranks[v]))
        else:
            vertices.append(v)

    def vertex_copies(v: str) -> list[tuple[int, str]]:
        if v in fq.framing_vertices:
            return [(i, copy_name(v, i, ranks[v])) for i in range(ranks[v])]
        return [(0, v)]

    def arrow_copy_name(a, si: int, ti: int) -> str:
        name = a.name
        if a.src in fq.framing_vertices and ranks[a.src] > 1:
            name += f"#{si + 1}"
        if a.tgt in fq.framing_vertices and ranks[a.tgt] > 1:
            name += f"@{ti + 1}"
        return name

    arrows = []
    for a in fq.quiver.arrows:
        if a.marked:
            continue
        for si, sname in vertex_copies(a.src):
            for ti, tname in vertex_copies(a.tgt):
                arrows.append(Arrow(arrow_copy_name(a, si, ti), sname, tname))
    expanded = Quiver(tuple(vertices), tuple(arrows))

    terms: list[tuple[Fraction, tuple[str, ...]]] = []
    for names, coeff in fq.potential.terms.items():
        n = len(names)

        def rec(pos, first_idx, prev_idx, acc, weight):
            if weight == 0:
                return
            if pos == n:
                last = fq.quiver.arrow(names[-1])
                if last.tgt in fq.framing_vertices and prev_idx != first_idx:
                    return
                terms.append((coeff * weight, acc))
                return
            a = fq.quiver.arrow(names[pos])
            src_opts = [prev_idx] if a.src in fq.framing_vertices else [0]
            for si in src_opts:
                tgt_opts = range(ranks[a.tgt]) if a.tgt in fq.framing_vertices else [0]
                for ti in tgt_opts:
                    if a.marked:
                        wgt = weight * fq.structure.matrices[a.name][ti][si]
                        new_acc = acc
                    else:
                        wgt = weight
                        new_acc = acc + (arrow_copy_name(a, si, ti),)
                    fi = first_idx
                    if fi is None and a.src in fq.framing_vertices:
                        fi = si
                    rec(pos + 1, fi, ti if a.tgt in fq.framing_vertices else None,
                        new_acc, wgt)

        first = fq.quiver.arrow(names[0])
        if first.src in fq.framing_vertices:
            for idx in range(ranks[first.src]):
                rec(0, None, idx, (), Fraction(1))
        else:
            rec(0, None, None, (), Fraction(1))

    terms = [(c, w) for c, w in terms if w]
    return expanded, Potential.from_words(expanded, terms)


# -- character-figure pyramids typed from the figure annotations -----------------


def figure_pyramid(kind: str, r: int):
    """Pyramid whose row data matches the figure annotations for rank r."""
    from quiverdt.characters import EVEN, ODD, Pyramid, PyramidRow, single_row_pyramid

    if kind == "glr-principal":
        return single_row_pyramid(r)
    if kind == "gl2-s0":
        return Pyramid((PyramidRow(EVEN, 1, r), PyramidRow(EVEN, 1, r)))
    if kind == "gl2-s1":  # rows (r, r-1), offset 1
        rows = [PyramidRow(EVEN, 1, r)]
        if r - 1 >= 1:
            rows.append(PyramidRow(EVEN, 2, r - 1))
        return Pyramid(tuple(rows))
    if kind == "gl2-s2":  # rows (r+1, r-1), offset 2
        rows = [PyramidRow(EVEN, 1, r + 1)]
        if r - 1 >= 1:
            rows.append(PyramidRow(EVEN, 3, r - 1))
        return Pyramid(tuple(rows))
    if kind == "glrr":
        return Pyramid((PyramidRow(EVEN, 1, r), PyramidRow(ODD, 1, r)))
    raise ValueError(f"unknown figure kind {kind!r}")
