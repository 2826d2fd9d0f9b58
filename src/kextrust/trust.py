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

import numpy as np

from .topology import SensorId, Topology, TopologyIndex

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


_BLOCK_ROWS = 64  # rows per block of a TrustMatrix


def _code_dtype(n: int) -> np.dtype:
    """The smallest unsigned dtype that holds every 2K + member code of an
    n-sensor matrix.  The largest is 2n - 1, on the diagonal: 2 deg_i, plus
    one when an explicit set lists its own owner (off the diagonal it is
    2(n - 2) + 1)."""
    return np.min_scalar_type(max(2 * n - 1, 0))


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of the 1-D ``a`` and, for each entry of
    ``a``, its position among them: ``np.unique(a, return_inverse=True)``
    by a stable sort and a compare of neighbours (``np.unique`` imports
    ``numpy.ma``, about 1 MB, on first use)."""
    order = np.argsort(a, kind="stable")
    ranked = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


@dataclass
class TrustMatrix:
    """All-pairs trust, rows and columns in ``order``, as value ids.

    ``table`` holds the sorted distinct float64 values of the matrix; 0.0
    is its first entry and 1.0 its last.  Off the wired cells and the
    diagonal, cell (i, j) holds ``table[lut[column_base[j] + codes[i, j]]]``,
    from the integer ``codes`` and per-column ``column_base`` of
    :func:`trust_matrix`; wired cells (the CSR of the topology's ``index``)
    and the diagonal hold 1.0, and the ``killed`` column positions 0.0.
    :meth:`blocks` yields the ids; ``values[i][j]`` follows :func:`trust`
    off the diagonal, bit for bit, and the diagonal is 1.0 for a live
    sensor and 0.0 for a killed one.
    """

    order: list[SensorId]
    codes: np.ndarray
    column_base: np.ndarray
    lut: np.ndarray
    table: np.ndarray
    killed: np.ndarray
    index: TopologyIndex

    def blocks(self):
        """The value ids of ``values`` (``intp`` positions in ``table``) in
        blocks of up to 64 rows, in order.  Every block is a view of one
        buffer, which the next block overwrites: a caller that keeps a block
        must copy it."""
        n, one = len(self.order), len(self.table) - 1
        start, peers = self.index.peer_start, self.index.peer_positions
        degree = np.diff(start)
        buffer = np.empty((2, min(n, _BLOCK_ROWS), n), dtype=np.intp)  # keys and ids
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            keys, ids = buffer[:, :hi - lo]
            np.add(self.codes[lo:hi], self.column_base, out=keys)
            # "clip" leaves out the buffered copy that "raise" makes; every key is in range
            np.take(self.lut, keys, out=ids, mode="clip")
            rows = np.arange(hi - lo)
            ids[np.repeat(rows, degree[lo:hi]), peers[start[lo]:start[hi]]] = one
            ids[rows, rows + lo] = one
            ids[:, self.killed] = 0
            yield ids

    @property
    def values(self) -> np.ndarray:
        """The n x n float64 values, ``table`` gathered by :meth:`blocks` on
        each access."""
        n = len(self.order)
        values = np.empty((n, n))
        for lo, ids in zip(range(0, n, _BLOCK_ROWS), self.blocks()):
            values[lo:lo + len(ids)] = self.table[ids]
        return values


def _sum_table(r: float, top: int) -> np.ndarray:
    """``geometric_partial_sum(r, k)`` for k = 0..top, from the scalar
    function (not vectorized power, which may round differently), so that
    matrix cells are bit-identical to trust() calls."""
    return np.array([geometric_partial_sum(r, k) for k in range(top + 1)])


def _add_two_hop_counts(flat: np.ndarray, n: int, start: np.ndarray, peers: np.ndarray,
                        degree: np.ndarray) -> None:
    """Add 2 to ``flat[i * n + j]`` for every two-hop path i - m - j over the
    wired peers in CSR form (m's peers are ``peers[start[m]:start[m + 1]]``,
    ``degree`` of them), i == j included, so cell (i, j) gains 2K.  The
    middle sensors of one degree d are taken together, at most n^2 paths
    (8n^2 bytes of keys) at a time, each sensor's paths the outer sum of its
    d wired peers with themselves."""
    first, two = start[:-1], flat.dtype.type(2)
    for d in np.flatnonzero(np.bincount(degree)[1:]) + 1:
        rows = peers[first[degree == d][:, None] + np.arange(d)]
        step = max(n * n // (d * d), 1)
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            np.add.at(flat, (block[:, :, None] * n + block[:, None, :]).ravel(), two)


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
    call bit for bit.  Wired cells and the diagonal are then 1.0, and a
    killed sensor's column, diagonal included, is 0.0.

    The only n x n array is ``codes``, 2K + member per cell in the unsigned
    dtype of :func:`_code_dtype` (at most 2 bytes a cell up to n = 32768).
    A cell's value off the wired cells and the diagonal is a function of its
    code and its column's (deg_j, Z0_j), so the columns are grouped by that
    pair and each group gets the values of every code it can hold, 0 to
    2 deg_j + 1: at most 4 links + 2n floats, whose distinct values, with
    0.0 and 1.0, form ``table``.  However densely the network is wired, the
    working set beyond ``codes`` is one n^2 chunk of two-hop keys plus
    O(links), and time grows with n^2 + sum of deg^2.  ``order`` is the
    topology's sensor order.
    """
    order = list(t.sensors)
    n = len(order)
    index = t.index
    idx, start = index.positions, index.peer_start
    degree = np.diff(start)
    codes = np.zeros((n, n), dtype=_code_dtype(n))
    _add_two_hop_counts(codes.reshape(-1), n, start, index.peer_positions, degree)

    if t.wireless_sets is None:
        # clipped: a column wired to every other sensor has no base cell
        z0 = np.maximum(n - 2 - degree, 0)
    else:
        z0 = np.array([len(t.wireless_set(j)) for j in order], dtype=np.intp)
        members = np.fromiter((idx[p] * n + j_pos for j_pos, j in enumerate(order)
                               for p in t.wireless_set(j) if p in idx), dtype=np.intp)
        codes.reshape(-1)[members] += 1  # distinct cells, so += adds once each

    pa = _sum_table(coef.a, degree.max(initial=0))  # K <= deg_j
    pb = _sum_table(coef.b, degree.max(initial=0))
    pc = _sum_table(coef.c, z0.max(initial=0))
    span = z0.max(initial=0) + 1
    classes, column_class = _distinct(degree * span + z0)
    d, z = np.divmod(classes, span)
    size = 2 * d + 2
    class_base = np.cumsum(size) - size
    code = np.arange(size.sum()) - np.repeat(class_base, size)
    k, d, z = code >> 1, np.repeat(d, size), np.repeat(z, size)
    # an odd code means i is in W_j, so Z0_j >= 1; where Z0_j = 0 it never occurs
    cells = np.minimum(pa[k] + pb[d - k] + pc[np.maximum(z - (code & 1), 0)], 1.0)
    table, lut = _distinct(np.concatenate((cells, [0.0, 1.0])))
    dead = np.fromiter((idx[s] for s in killed if s in idx), dtype=np.intp)
    return TrustMatrix(order, codes, class_base[column_class], lut[:-2], table, dead, index)


def rank_peers(
    t: Topology,
    coef: TrustCoefficients,
    killed: Set[SensorId],
    i: SensorId,
) -> list[tuple[SensorId, float]]:
    """Peers of ``i`` ordered by descending trust, ties broken by sensor id.

    A live wired peer ranks above every non-wired peer of equal value: from
    K = W = Z = 39 on, a non-wired peer's sum saturates to exactly 1.0 and
    would otherwise interleave with the wired peers by id.
    """
    live_wired = t.kljn_set(i) - killed
    scored = [(j, trust(t, coef, killed, i, j)) for j in t.sensors if j != i]
    scored.sort(key=lambda pair: (-pair[1], pair[0] not in live_wired, pair[0]))
    return scored
