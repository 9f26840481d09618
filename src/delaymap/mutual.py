"""Average mutual information over candidate delays.

The dependence between a series and its T-lagged copy is estimated with an
equal-width joint histogram: the value range [x_min, x_max] of the *full*
series is divided into j intervals of the same size on both axes, pairs
(x_t, x_{t+T}) are counted on the j x j grid, and

    I(T) = sum_{h,k} P_hk * log2( P_hk / (P_h * P_k) )

with the convention 0*log 0 = 0.  Everything is in bits (base-2 logarithm)
so mutual information and box entropies share one unit.

The embedding delay is then read off the curve T -> I(T) at its first local
minimum: the lag where the next coordinate adds the most new information
while still being related to the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError
from .series import TimeSeries, check_integer, stats

__all__ = [
    "JointHistogram",
    "MICurve",
    "DelaySelection",
    "joint_histogram",
    "mutual_information",
    "histogram_mutual_information",
    "marginal_entropies",
    "ami_curve",
    "first_local_minimum",
    "default_max_lag",
]

DEFAULT_BINS = 16


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """Counts of (x_t, x_{t+T}) pairs on a square j x j equal-width grid.

    Both axes span [x_min, x_max] of the full series; a value equal to
    x_max falls in the last bin (the right edge is closed on the final bin
    only).
    """

    counts: np.ndarray  # (j, j) int64, rows index x_t, columns x_{t+T}
    total: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"counts shape {c.shape} is not square")
        if (c < 0).any():
            raise ValueError("negative counts")
        if int(c.sum()) != self.total:
            raise ValueError("counts do not sum to total")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    def transposed(self) -> "JointHistogram":
        """The histogram with the roles of the two axes swapped."""
        return JointHistogram(self.counts.T, self.total)


@dataclass(frozen=True, eq=False)
class MICurve:
    """Mutual information in bits sampled over lags 1..T_max."""

    lags: np.ndarray   # int64, strictly increasing from 1
    bits: np.ndarray   # float64, finite, >= 0

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=np.int64)
        bits = np.asarray(self.bits, dtype=np.float64)
        if lags.ndim != 1 or lags.shape != bits.shape:
            raise ValueError("lags and bits must be matching 1-D arrays")
        if lags.size == 0:
            raise ValueError("empty curve")
        if lags[0] != 1 or (np.diff(lags) <= 0).any():
            raise ValueError("lags must increase strictly from 1")
        if (~np.isfinite(bits)).any() or (bits < 0).any():
            raise ValueError("mutual information entries must be finite and >= 0")
        for name, arr in (("lags", lags), ("bits", bits)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.lags.size)

    def entries(self) -> list[tuple[int, float]]:
        return [(int(t), float(i)) for t, i in zip(self.lags, self.bits)]


@dataclass(frozen=True)
class DelaySelection:
    """Outcome of reading a delay off an MI curve.

    ``fallback_used`` is True when the curve had no interior local minimum
    (monotone case); ``lag`` then carries the argmin over the scanned range
    as a fallback suggestion rather than a genuine first minimum.
    """

    lag: int
    fallback_used: bool


def joint_histogram(series: TimeSeries, lag: int, bins: int = DEFAULT_BINS) -> JointHistogram:
    """Count pairs (x_t, x_{t+lag}) on an equal-width grid.

    Args:
        series: observation record, neither constant nor with a range past float64.
        lag: delay in samples, 1 <= lag <= N - 2.
        bins: intervals per axis (j >= 2), default 16.

    Returns:
        JointHistogram with total == N - lag.
    """
    n = len(series)
    if not 1 <= check_integer("lag", lag) <= n - 2:
        raise ValueError(f"lag {lag} outside [1, {n - 2}] for series of length {n}")
    return _lagged_histogram(_binned(series, bins), lag, bins)


def _binned(series: TimeSeries, bins: int) -> np.ndarray:
    """Bin index of every sample on the equal-width grid."""
    check_bins(bins)
    st = stats(series)
    span = st.value_range
    if span == 0.0:
        raise DegenerateSeriesError(
            "constant series: zero value range, histogram binning undefined"
        )
    width = span / bins
    if width <= 0.0:
        raise DegenerateSeriesError(
            f"value range {span!r} cannot be split into {bins} usable bins"
        )
    # bin = min(floor((v - lo)/width), bins-1): right edge closed on the
    # last bin only, and float round-up at the top edge is clamped back in.
    idx = np.floor((series.values - st.x_min) / width).astype(np.int64)
    return np.minimum(idx, bins - 1)


def check_bins(bins: int) -> None:
    if check_integer("bins", bins) < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")


def _lagged_histogram(idx: np.ndarray, lag: int, bins: int) -> JointHistogram:
    # bin indices are per sample, so binning the whole series once serves
    # every lag
    counts = np.bincount(idx[:-lag] * bins + idx[lag:], minlength=bins * bins)
    return JointHistogram(counts.reshape(bins, bins), len(idx) - lag)


def histogram_mutual_information(hist: JointHistogram) -> float:
    """Mutual information in bits of an existing joint histogram.

    The double sum is accumulated in a transpose-symmetric order (terms
    (h,k) and (k,h) are paired before summing), so the result for a
    histogram and its transpose is identical bit for bit.
    Tiny negative totals from rounding (within 1e-12) clamp to 0.
    """
    p = hist.counts / hist.total
    # marginals from the integer counts: integer sums are exact in any
    # order, so a histogram and its transpose get bit-identical marginals
    # (float-summing p row-wise vs column-wise rounds differently)
    ph = hist.counts.sum(axis=1) / hist.total
    pk = hist.counts.sum(axis=0) / hist.total
    denom = ph[:, None] * pk[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log2(p / denom), 0.0)
    sym = terms + terms.T
    value = float(np.triu(sym, 1).sum() + np.trace(terms))
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def mutual_information(series: TimeSeries, lag: int, bins: int = DEFAULT_BINS) -> float:
    """I(lag) in bits between the series and its lagged copy."""
    return histogram_mutual_information(joint_histogram(series, lag, bins))


def marginal_entropies(hist: JointHistogram) -> tuple[float, float]:
    """Shannon entropies (bits) of the two marginals of a joint histogram."""
    out = []
    for axis in (1, 0):
        p = hist.counts.sum(axis=axis) / hist.total
        nz = p[p > 0]
        out.append(float(-(nz * np.log2(nz)).sum()) + 0.0)
    return out[0], out[1]


def default_max_lag(n: int) -> int:
    """Default scan bound: a tenth of the data, capped at 100 lags."""
    return max(1, min(n // 10, 100, n - 2))


def ami_curve(series: TimeSeries, t_max: int | None = None, bins: int = DEFAULT_BINS) -> MICurve:
    """Evaluate I(T) for T = 1..t_max.

    The series is binned once; each lag then counts its pairs with one
    ``bincount``, so every entry equals ``mutual_information(series, T,
    bins)`` bit for bit.  ``t_max`` defaults to min(N/10, 100), which
    needs N >= 3.
    """
    n = len(series)
    if t_max is None:
        if n < 3:
            raise ValueError(f"AMI needs at least 3 samples, got {n}")
        t_max = default_max_lag(n)
    check_t_max(t_max, n)
    idx = _binned(series, bins)
    lags = np.arange(1, t_max + 1, dtype=np.int64)
    bits = np.array([
        histogram_mutual_information(_lagged_histogram(idx, int(t), bins))
        for t in lags
    ])
    return MICurve(lags, bits)


def check_t_max(t_max: int, n: int | None = None) -> None:
    """Raise ValueError unless t_max is an integer, 1 <= t_max, and
    t_max <= n - 2 once the series length n is known."""
    if check_integer("t_max", t_max) < 1 or (n is not None and t_max > n - 2):
        raise ValueError(f"t_max {t_max} outside [1, {'N - 2' if n is None else n - 2}]")


def first_local_minimum(curve: MICurve) -> DelaySelection:
    """Select the delay at the first local minimum of an MI curve.

    A lag T qualifies when I(T-1) > I(T) and I(T) <= I(T+1); a plateau
    counts as a minimum at its first index.  Only interior entries can
    qualify.  If the curve has no such point (monotone case, or fewer than
    3 entries) the result carries the argmin over the scanned range with
    ``fallback_used=True``.
    """
    b = curve.bits
    for k in range(1, len(curve) - 1):
        if b[k - 1] > b[k] and b[k] <= b[k + 1]:
            return DelaySelection(int(curve.lags[k]), False)
    return DelaySelection(int(curve.lags[int(np.argmin(b))]), True)
