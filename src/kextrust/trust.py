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
from dataclasses import dataclass, field

import numpy as np

from .topology import SensorId, Topology, UnknownSensorError

__all__ = [
    "TrustCoefficients",
    "KillSwitchState",
    "KillEvent",
    "TrustCounts",
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
    tolerance: float | None = None

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
    return TrustCoefficients(a, b, c, provenance="fixed_point", tolerance=tol)


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


@dataclass(frozen=True)
class TrustCounts:
    """The per-pair counts feeding the three series (meaningless for wired pairs)."""

    k: int
    w: int
    z: int


@dataclass
class KillEvent:
    timestamp: int
    sensor: SensorId
    action: str  # "set" (gamma -> 0) or "clear" (gamma -> 1)
    note: str = ""


@dataclass
class KillSwitchState:
    """Operator-controlled per-sensor binary flags with an event history.

    A sensor in ``killed`` has gamma = 0 and every trust evaluation of it
    yields zero.  Events are logged with logical timestamps; callers with
    their own clock may pass timestamps explicitly.
    """

    killed: set[SensorId] = field(default_factory=set)
    event_log: list[KillEvent] = field(default_factory=list)

    def gamma(self, j: SensorId) -> int:
        return 0 if j in self.killed else 1

    def kill(self, sensor: SensorId, note: str = "", timestamp: int | None = None) -> None:
        if timestamp is None:
            timestamp = len(self.event_log)
        self.killed.add(sensor)
        self.event_log.append(KillEvent(timestamp, sensor, "set", note))

    def clear(self, sensor: SensorId, note: str = "", timestamp: int | None = None) -> None:
        if timestamp is None:
            timestamp = len(self.event_log)
        self.killed.discard(sensor)
        self.event_log.append(KillEvent(timestamp, sensor, "clear", note))


def counts(t: Topology, i: SensorId, j: SensorId) -> TrustCounts:
    """Count mutual wired peers, j's other wired peers, and j's wireless-only peers.

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
    return TrustCounts(k=k, w=len(j_k) - k, z=len(j_w) - (i in j_w))


def trust(
    t: Topology,
    coef: TrustCoefficients,
    ks: KillSwitchState | None,
    i: SensorId,
    j: SensorId,
) -> float:
    """Key-exchange trust of sensor i in sensor j.

    Zero if j is killed; one if j is a wired-KLJN peer of i; otherwise the
    sum of the three finite geometric series over the counts of
    :func:`counts`.  The sum is capped at 1.0: mathematically it stays
    strictly below 1, but float saturation of the partial sums can land
    exactly on 1 (or an ulp above) once every count exceeds ~40.
    """
    if i == j:
        raise ValueError("self-trust is a matrix diagonal convention; trust() needs i != j")
    if ks is not None and ks.gamma(j) == 0:
        # still surface unknown-sensor errors for killed ids
        t.kljn_set(j)
        t.kljn_set(i)
        return 0.0
    if j in t.kljn_set(i):
        return 1.0
    c = counts(t, i, j)
    total = (
        geometric_partial_sum(coef.a, c.k)
        + geometric_partial_sum(coef.b, c.w)
        + geometric_partial_sum(coef.c, c.z)
    )
    return min(total, 1.0)


@dataclass
class TrustMatrix:
    """All-pairs trust values with the counts and coefficients that produced them.

    ``values[i][j]`` follows :func:`trust` off the diagonal; the diagonal is
    the sensor's own kill flag (all ones in a healthy network).  Counts are
    kept for audit as dense ``int32`` arrays: no count exceeds n, the number
    of sensors, and :func:`trust_matrix` needs n < 2**24 anyway for its
    float32 product to be exact.
    """

    order: list[SensorId]
    values: np.ndarray
    k_counts: np.ndarray
    w_counts: np.ndarray
    z_counts: np.ndarray
    coefficients: TrustCoefficients
    _positions: dict[SensorId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._positions = {s: p for p, s in enumerate(self.order)}

    def index(self, sensor: SensorId) -> int:
        try:
            return self._positions[sensor]
        except KeyError:
            raise UnknownSensorError(f"unknown sensor {sensor!r}") from None

    def value(self, i: SensorId, j: SensorId) -> float:
        return float(self.values[self.index(i), self.index(j)])

    def counts_for(self, i: SensorId, j: SensorId) -> TrustCounts:
        a, b = self.index(i), self.index(j)
        if a == b:
            raise ValueError("counts are defined for off-diagonal pairs only")
        return TrustCounts(
            k=int(self.k_counts[a, b]),
            w=int(self.w_counts[a, b]),
            z=int(self.z_counts[a, b]),
        )


def _partial_sum_table(r: float, n_max: int) -> np.ndarray:
    # Reuses the scalar function (not vectorized power, which may round
    # differently) so matrix cells are bit-identical to trust() calls.
    return np.array([geometric_partial_sum(r, n) for n in range(n_max + 1)])


def trust_matrix(
    t: Topology,
    coef: TrustCoefficients,
    ks: KillSwitchState | None = None,
) -> TrustMatrix:
    """Evaluate trust for every ordered pair of sensors.

    Cells are computed from adjacency-matrix products and partial-sum
    lookup tables; the result is identical, float for float, to calling
    :func:`trust` per cell, but scales to thousands of sensors.  ``order``
    is the topology's sensor order; the counts are exact for n < 2**24.
    Under the complement rule (``wireless_sets is None``) Z needs no
    membership scan: ``|W_j| = n - 1 - deg_j`` and i is in ``W_j`` unless i
    is wired to j, so ``Z[i, j] = (n - 1 - deg_j) - (1 - adj[i, j])`` off
    the diagonal.
    """
    order = list(t.sensors)
    n = len(order)
    idx = {s: p for p, s in enumerate(order)}

    ends = np.array([(idx[a], idx[b]) for a, b in t.kljn_edges], dtype=np.intp).reshape(-1, 2)
    # float32 is exact here: the product sums at most n ones, and float32
    # represents every integer below 2**24.
    adj = np.zeros((n, n), dtype=np.float32)
    adj[ends[:, 0], ends[:, 1]] = 1.0
    adj[ends[:, 1], ends[:, 0]] = 1.0
    wired = adj.astype(bool)

    # K[i, j] = |i_kljn & j_kljn| as an exact small-integer matmul; every
    # count is below n < 2**24, so the count arrays are int32
    k_mat = (adj @ adj).astype(np.int32)
    del adj
    degree = wired.sum(axis=1, dtype=np.int32)
    w_mat = degree[None, :] - k_mat

    if t.wireless_sets is None:
        # the complement-rule closed form of the docstring
        z_mat = (n - 2 - degree)[None, :] + wired
    else:
        # Z[i, j] = |W_j| - [i in W_j]: collect the memberships, then one
        # fancy-index update (each (i, j) occurs once, W_j being a set).
        z_base = np.zeros(n, dtype=np.int32)
        rows: list[int] = []
        cols: list[int] = []
        for j_pos, j_id in enumerate(order):
            peers = t.wireless_set(j_id)
            z_base[j_pos] = len(peers)
            members = [idx[p] for p in peers if p in idx]
            rows += members
            cols += [j_pos] * len(members)
        z_mat = np.tile(z_base, (n, 1))
        z_mat[rows, cols] -= 1

    np.fill_diagonal(k_mat, 0)
    np.fill_diagonal(w_mat, 0)
    np.fill_diagonal(z_mat, 0)

    sum_a = _partial_sum_table(coef.a, int(k_mat.max(initial=0)))
    sum_b = _partial_sum_table(coef.b, int(w_mat.max(initial=0)))
    sum_c = _partial_sum_table(coef.c, int(z_mat.max(initial=0)))

    values = sum_a[k_mat] + sum_b[w_mat] + sum_c[z_mat]
    np.minimum(values, 1.0, out=values)
    values[wired] = 1.0
    np.fill_diagonal(values, 1.0)

    if ks is not None and ks.killed:
        gamma = np.array([float(ks.gamma(s)) for s in order])
        values *= gamma[None, :]
        np.fill_diagonal(values, gamma)

    return TrustMatrix(order, values, k_mat, w_mat, z_mat, coef)


def rank_peers(
    t: Topology,
    coef: TrustCoefficients,
    ks: KillSwitchState | None,
    i: SensorId,
) -> list[tuple[SensorId, float]]:
    """Peers of ``i`` ordered by descending trust, ties broken by sensor id.

    A live wired peer ranks above every non-wired peer of equal value: from
    K = W = Z = 39 on, a non-wired peer's sum saturates to exactly 1.0 and
    would otherwise interleave with the wired peers by id.
    """
    live_wired = {j for j in t.kljn_set(i) if ks is None or ks.gamma(j)}
    scored = [(j, trust(t, coef, ks, i, j)) for j in t.sensors if j != i]
    scored.sort(key=lambda pair: (-pair[1], pair[0] not in live_wired, pair[0]))
    return scored
