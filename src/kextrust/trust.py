"""Geometric key-exchange trust evaluation.

A sensor i scores a peer j in [0, 1] from three counts over the exchange
sets: mutual wired-KLJN peers (K), j's remaining wired peers (W), and j's
wireless-only peers excluding i (Z).  Each count feeds a finite geometric
series whose coefficient is chosen so the tiers saturate into each other:
infinitely many wireless-only peers sum to exactly one wired-peer term,
infinitely many wired terms plus wireless terms sum to one mutual-peer
term, and all three together sum to one.  A wired peer itself is trusted
fully, and a per-sensor operator kill flag forces any score to zero.

The coefficients solve, in order::

    a/(1-a) + a = 1        (all three series saturate to 1)
    b/(1-b)     = a - b    (w-series saturates to one a-term)
    c/(1-c)     = b        (z-series saturates to one b-term)

giving a = (3-sqrt(5))/2 ~ 0.3820, b ~ 0.1729, c ~ 0.1474.  Closed forms
are used at full float precision; a bisection solver doubles as an
independent numerical oracle.
"""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .topology import SensorId, Topology

__all__ = [
    "TrustCoefficients",
    "TrustMatrix",
    "coefficients_closed_form",
    "coefficients_fixed_point",
    "geometric_partial_sum",
    "counts",
    "trust",
    "trust_matrix",
    "rank_peers",
]


@dataclass(frozen=True)
class TrustCoefficients:
    """The three geometric tier coefficients, each in (0, 1), with c < b < a."""

    a: float
    b: float
    c: float
    provenance: str = "closed_form"

    def residuals(self) -> tuple[float, float, float]:
        """Absolute residuals of the three defining fixed-point equations."""
        r_a = abs(self.a * self.a - 3.0 * self.a + 1.0)
        r_b = abs(self.b / (1.0 - self.b) - (self.a - self.b))
        r_c = abs(self.c / (1.0 - self.c) - self.b)
        return (r_a, r_b, r_c)


def coefficients_closed_form() -> TrustCoefficients:
    """Tier coefficients from their exact radical forms.

    a is the (0, 1) root of a^2 - 3a + 1 = 0; b is the (0, 1) root of
    b^2 - (a+2)b + a = 0; c = b/(1+b).  The printed 4-digit values
    0.3820 / 0.1729 / 0.1474 are roundings of these, not definitions.
    """
    a = (3.0 - math.sqrt(5.0)) / 2.0
    b = ((a + 2.0) - math.sqrt(a * a + 4.0)) / 2.0
    c = b / (1.0 + b)
    return TrustCoefficients(a, b, c, provenance="closed_form")


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    """Root of f on [lo, hi] by bisection; f(lo) and f(hi) must differ in sign."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if f_lo * f(hi) > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol or mid in (lo, hi):  # no float lies strictly between lo and hi
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    raise RuntimeError("bisection failed to converge within iteration budget")


def coefficients_fixed_point(tol: float) -> TrustCoefficients:
    """Solve the three saturation equations numerically, in order a, b, c.

    Each root is bracketed in (0, 1) and bisected well below ``tol``, or
    until the bracket is one ulp wide, so the result agrees with
    :func:`coefficients_closed_form` component-wise to within ``tol`` or
    about one ulp, whichever is larger (the b and c equations damp
    upstream error, so no amplification occurs).  Serves as the
    independent oracle for the closed forms.
    """
    if not (0.0 < tol < 1e-3):
        raise ValueError(f"tol must be in (0, 1e-3), got {tol}")
    inner = tol / 16.0
    eps = 1e-9  # keep the bracket clear of the pole at 1
    a = _bisect(lambda x: x / (1.0 - x) + x - 1.0, eps, 1.0 - eps, inner)
    b = _bisect(lambda x: x / (1.0 - x) - (a - x), eps, 1.0 - eps, inner)
    c = _bisect(lambda x: x / (1.0 - x) - b, eps, 1.0 - eps, inner)
    return TrustCoefficients(a, b, c, provenance="fixed_point")


def geometric_partial_sum(r: float, n: int) -> float:
    """Sum of r^1 + r^2 + ... + r^n via the closed form r(1-r^n)/(1-r).

    Zero for n = 0, non-decreasing in n, bounded by r/(1-r).  Once r^n
    drops below one float ulp the value saturates at the bound.
    """
    if not (0.0 < r < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {r}")
    if n < 0:
        raise ValueError(f"term count must be non-negative, got {n}")
    if n == 0:
        return 0.0
    return r * (1.0 - r**n) / (1.0 - r)


def counts(t: Topology, i: SensorId, j: SensorId) -> tuple[int, int, int]:
    """Count mutual wired peers, j's other wired peers, and j's wireless-only
    peers, as ``(k, w, z)`` (meaningless for wired pairs).

    K = |i_kljn & j_kljn|; W = |j_kljn| - K; Z = |j_wireless - {i}|.
    Under the complement rule ``wireless_set(j)`` is an O(1) view, so Z is
    the closed form ``(n - 1 - deg_j) - [i not wired to j]`` of
    :func:`trust_matrix`.  Third-party kill flags do not enter: membership
    is purely topological.
    """
    if i == j:
        raise ValueError(f"counts are defined for ordered pairs of distinct sensors, got {i!r} twice")
    i_k = t.kljn_set(i)
    j_k = t.kljn_set(j)
    j_w = t.wireless_set(j)
    k = len(i_k & j_k)
    return k, len(j_k) - k, len(j_w) - (i in j_w)


def trust(
    t: Topology,
    coef: TrustCoefficients,
    killed: Set[SensorId],
    i: SensorId,
    j: SensorId,
) -> float:
    """Key-exchange trust of sensor i in sensor j.

    Zero if j is in ``killed``, the set of killed sensors; one if j is a
    wired-KLJN peer of i; otherwise the sum of the three finite geometric
    series over the counts of :func:`counts`.  The sum is capped at 1.0:
    mathematically it stays strictly below 1, but float saturation of the
    partial sums can land exactly on 1 (or an ulp above) once every count
    exceeds ~40.
    """
    if i == j:
        raise ValueError("self-trust is a matrix diagonal convention; trust() needs i != j")
    if j in killed:
        # still surface unknown-sensor errors for killed ids
        t.kljn_set(j)
        t.kljn_set(i)
        return 0.0
    if j in t.kljn_set(i):
        return 1.0
    k, w, z = counts(t, i, j)
    total = (
        geometric_partial_sum(coef.a, k)
        + geometric_partial_sum(coef.b, w)
        + geometric_partial_sum(coef.c, z)
    )
    return min(total, 1.0)


_BLOCK_ROWS = 64  # rows that trust_matrix counts, and the writers write, at a time
_CANDIDATES_PER_CELL = 1  # above this many a cell, trust_matrix scans a block's cells


@dataclass
class TrustMatrix:
    """All-pairs trust, rows and columns in ``order`` (sorted ids), as ids
    of the sorted distinct float64 values in ``table`` (0.0 first, 1.0 last).

    Cell (i, j) is ``table[ids[k]]`` if ``cols[k] == j`` for a k in
    ``row_start[i]:row_start[i + 1]`` (row i's exceptions, columns
    ascending), else its column's base, ``table[base[j]]``.  It follows
    :func:`trust` off the diagonal, bit for bit; the diagonal is 1.0 for a
    live sensor and 0.0 for a killed one.  The arrays are read-only, each in
    the smallest unsigned dtype that holds its entries.
    """

    order: list[SensorId]
    table: np.ndarray
    base: np.ndarray
    row_start: np.ndarray
    cols: np.ndarray
    ids: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The n x n float64 values, built from base and exceptions on each access."""
        values = np.tile(self.table[self.base], (len(self.order), 1))
        for rows, at, ids in self.patches():
            values[rows.start:rows.stop][at] = self.table[ids]
        return values

    def patches(self):
        """Per block of up to 64 rows: its rows, as a ``range``, then its
        exceptions' places in the block, as a pair of arrays (row in the
        block, column; row-major, ascending), and their ids."""
        for lo in range(0, len(self.order), _BLOCK_ROWS):
            rows = range(lo, min(lo + _BLOCK_ROWS, len(self.order)))
            bounds = self.row_start[lo:rows.stop + 1].astype(np.intp)
            cells = slice(bounds[0], bounds[-1])
            at = np.repeat(np.arange(len(rows)), np.diff(bounds)), self.cols[cells]
            yield rows, at, self.ids[cells]


def _sum_table(r: float, top: int) -> np.ndarray:
    """``geometric_partial_sum(r, k)`` for k = 0..top, from the scalar
    function (not vectorized power, which may round differently), so that
    matrix cells are bit-identical to trust() calls."""
    return np.array([geometric_partial_sum(r, k) for k in range(top + 1)])


def trust_matrix(
    t: Topology,
    coef: TrustCoefficients,
    killed: Set[SensorId] = frozenset(),
) -> TrustMatrix:
    """Evaluate trust for every ordered pair of sensors.

    A non-wired pair (i, j) with no mutual wired peer (K = 0) has
    W = deg_j and Z = |W_j| - [i in W_j].  Its value is the base of column
    j, ``min(pb[deg_j] + pc[Z0_j], 1.0)``, with Z0_j = |W_j| for explicit
    wireless sets and Z0_j = n - 2 - deg_j under the complement rule, where
    every non-wired i is in W_j.  The exception cells are the two-hop pairs
    (K > 0) and, with explicit sets, the membership cells; each is
    ``min(pa[K] + pb[deg_j - K] + pc[Z0_j - member], 1.0)``.  pa, pb and pc
    are :func:`geometric_partial_sum` tables summed in the float order of
    :func:`trust` (pa[0] is 0.0), so every cell equals the :func:`trust`
    call bit for bit.  Wired cells and the diagonal are exceptions of 1.0,
    and a killed sensor's column, diagonal included, is 0.0: its base is
    0.0 and it keeps no exceptions.

    Off the wired cells and the diagonal, a cell's value is a function of
    its code, 2K + member, and its column's (deg_j, Z0_j): each group of
    columns sharing that pair gets the value of every code 0 to 2 deg_j + 1,
    and 1.0 for 2 deg_j + 2, which marks the wired and diagonal cells (at
    most 4 links + 3n floats).  The codes of 64 rows at a time are counted
    into one reused block, from the block's links and two-hop paths; its
    non-zero codes are the exceptions, and the values that occur, with 0.0
    and 1.0, form ``table``: read at the block's candidate cells (two-hop,
    member, wired, diagonal), unless they outnumber its cells, which are
    then scanned.  No n x n array is built.  At worst, every pair wired,
    the result keeps 3 bytes a cell (column and id) and the build peaks at
    6 while the exceptions are joined (1.5 GiB at n = 16384; 10 where the
    codes' values outgrow 2-byte keys).  Time grows with n^2 + sum of
    deg^2.  ``order`` is the topology's sensors, sorted by id.
    """
    order = list(t.sensors)
    n = len(order)
    index = t.index
    idx, start, peers = index.positions, index.peer_start, index.peer_positions
    degree = np.diff(start)
    if t.wireless_sets is None:
        # clipped: a column wired to every other sensor has no base cell
        z0 = np.maximum(n - 2 - degree, 0)
        members = np.empty(0, dtype=np.intp)
    else:
        z0 = np.array([len(t.wireless_set(j)) for j in order], dtype=np.intp)
        members = np.sort(np.fromiter((idx[p] * n + j_pos for j_pos, j in enumerate(order)
                                       for p in t.wireless_set(j) if p in idx), dtype=np.intp))

    pa = _sum_table(coef.a, degree.max(initial=0))  # K <= deg_j
    pb = _sum_table(coef.b, degree.max(initial=0))
    pc = _sum_table(coef.c, z0.max(initial=0))
    span = z0.max(initial=0) + 1
    classes, column_class = np.unique(degree * span + z0, return_inverse=True)
    d, z = np.divmod(classes, span)
    size = 2 * d + 3
    class_base = np.cumsum(size) - size
    code = np.arange(size.sum()) - np.repeat(class_base, size)
    d, z = np.repeat(d, size), np.repeat(z, size)
    k = np.minimum(code >> 1, d)  # the marker code's value is set below
    # an odd code means i is in W_j, so Z0_j >= 1; where Z0_j = 0 it never occurs
    cells = np.minimum(pa[k] + pb[d - k] + pc[np.maximum(z - (code & 1), 0)], 1.0)
    cells[class_base + size - 1] = 1.0
    column_base = class_base[column_class]

    marks = 2 * degree + 2
    member_cut = np.searchsorted(members, np.arange(0, n + _BLOCK_ROWS, _BLOCK_ROWS) * n)
    dead = [idx[s] for s in killed if s in idx]
    scratch = np.zeros((min(n, _BLOCK_ROWS), n), dtype=np.min_scalar_type(2 * n))
    two = scratch.dtype.type(2)  # np.add.at is many times slower with a Python int
    col_dtype = np.min_scalar_type(max(n - 1, 0))
    key_dtype = np.min_scalar_type(len(cells))
    col_parts, key_parts, row_counts = [np.zeros(0, col_dtype)], [np.zeros(0, key_dtype)], []
    column_counts = np.zeros(n, dtype=np.intp)
    for block, lo in enumerate(range(0, n, _BLOCK_ROWS)):
        rows = scratch[:n - lo]
        rows[:] = 0
        flat, hi = rows.reshape(-1), lo + len(rows)
        links = peers[start[lo]:start[hi]]  # the block's wired (i, m), as m
        rows_at = np.repeat(np.arange(len(rows)) * n, degree[lo:hi])  # and as i's cell in column 0
        width = degree[links]  # two-hop paths through each (i, m)
        paths = np.concatenate(([0], np.cumsum(width)))  # and before it
        shift = start[links] - paths[:-1]  # from a path's number to its j's place in peers
        member = members[member_cut[block]:member_cut[block + 1]] - lo * n
        wired, diagonal = rows_at + links, np.arange(len(rows)) * (n + 1) + lo
        # the cells that can hold a code, kept unless they outnumber the block's
        scan = paths[-1] + len(member) + len(wired) + len(rows) > flat.size * _CANDIDATES_PER_CELL
        candidates = [member, wired, diagonal]
        # the two-hop paths i - m - j of the block's rows, a block's cells at a time
        cuts = np.searchsorted(paths, np.arange(0, paths[-1], scratch.size))
        for p, q in zip(cuts, [*cuts[1:], len(links)]):
            at = np.repeat(shift[p:q], width[p:q])
            at += np.arange(paths[p], paths[q])
            hops = np.repeat(rows_at[p:q], width[p:q]) + peers[at]
            np.add.at(flat, hops, two)
            if not scan:
                candidates.append(hops)
        flat[member] += 1  # distinct cells, so += adds once each
        flat[wired] = marks[links]
        flat[diagonal] = marks[lo:hi]
        rows[:, dead] = 0
        if scan:
            at = np.flatnonzero(flat != 0)  # several times faster than on the codes
        else:
            at = np.sort(np.concatenate(candidates))
            keep = flat[at] != 0
            keep[1:] &= at[1:] != at[:-1]
            at = at[keep]
        row, col = np.divmod(at, n)
        col_parts.append(col.astype(col_dtype))
        key_parts.append((column_base[col] + flat[at]).astype(key_dtype))
        row_counts.append(np.bincount(row, minlength=len(rows)))
        column_counts += np.bincount(col, minlength=n)

    # each part list is dropped once joined, and the keys once mapped to ids
    cols, col_parts = np.concatenate(col_parts), None
    keys, key_parts = np.concatenate(key_parts), None
    # a column all of whose cells are exceptions holds no base value
    live = column_counts < n
    live[dead] = False
    used = np.zeros(len(cells), dtype=bool)
    used[keys] = used[column_base[live]] = True
    table, lut = np.unique(np.concatenate((cells[used], [0.0, 1.0])), return_inverse=True)
    id_of = np.zeros(len(cells), dtype=np.min_scalar_type(len(table) - 1))
    id_of[used] = lut[:-2]
    base = np.where(live, id_of[column_base], 0).astype(id_of.dtype)
    row_start = np.concatenate(([0], *row_counts)).cumsum().astype(np.min_scalar_type(len(cols)))
    ids, keys = id_of[keys], None
    for array in (base, row_start, cols, ids):
        array.flags.writeable = False
    return TrustMatrix(order, table, base, row_start, cols, ids)


def rank_peers(
    t: Topology,
    coef: TrustCoefficients,
    killed: Set[SensorId],
    i: SensorId,
) -> list[tuple[SensorId, float]]:
    """Peers of ``i`` ordered by descending trust, ties in ``t.sensors`` (id) order.

    A live wired peer ranks above every non-wired peer of equal value: from
    K = W = Z = 39 on, a non-wired peer's sum saturates to exactly 1.0 and
    would otherwise interleave with the wired peers by id.
    """
    live_wired = t.kljn_set(i) - killed
    # the live wired peers first, then the others, each in id order: one
    # stable sort by value then keeps them ahead of an equal non-wired peer
    peers = sorted(live_wired)
    peers += (j for j in t.sensors if j != i and j not in live_wired)
    scored = [(j, trust(t, coef, killed, i, j)) for j in peers]
    scored.sort(key=itemgetter(1), reverse=True)
    return scored
