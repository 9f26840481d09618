"""Reference computations the benchmark checks delaymap's outputs against.

Everything here is written from the method definitions, apart from
`src/delaymap`: the generators that make the inputs, the average mutual
information recount, the box-entropy recount, the least-squares refit of
D_I and a brute-force false-nearest-neighbour scan on a sample of points.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1


# ----------------------------------------------------------- generators

def henon_x(n: int, a: float = 1.4, b: float = 0.3, x0: float = 0.1,
            y0: float = 0.1, skip: int = 1000) -> np.ndarray:
    """x-component of the Hénon map after `skip` transient iterations."""
    x, y = x0, y0
    out = []
    for i in range(skip + n):
        x, y = 1.0 - a * x * x + y, b * x
        if i >= skip:
            out.append(x)
    return np.array(out)


def lorenz_x(n: int, dt: float = 0.01, sigma: float = 10.0, rho: float = 28.0,
             beta: float = 8.0 / 3.0, start=(1.0, 1.0, 1.0), skip: int = 1000) -> np.ndarray:
    """x-component of the Lorenz flow, classical RK4 with a fixed step."""
    def f(x, y, z):
        return sigma * (y - x), x * (rho - z) - y, x * y - beta * z

    x, y, z = start
    h = dt
    out = []
    for i in range(skip + n):
        a1, b1, c1 = f(x, y, z)
        a2, b2, c2 = f(x + 0.5 * h * a1, y + 0.5 * h * b1, z + 0.5 * h * c1)
        a3, b3, c3 = f(x + 0.5 * h * a2, y + 0.5 * h * b2, z + 0.5 * h * c2)
        a4, b4, c4 = f(x + h * a3, y + h * b3, z + h * c3)
        x += (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        y += (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
        z += (h / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4)
        if i >= skip:
            out.append(x)
    return np.array(out)


def splitmix_gaussian(n: int, seed: int) -> np.ndarray:
    """Standard normal draws: SplitMix64 uniforms paired by Box-Muller.

    Draw i (1-based) mixes (seed + i * 0x9E3779B97F4A7C15) mod 2^64; its
    top 53 bits make a uniform in [0, 1).  Odd draws, shifted by 2^-53
    into (0, 1], give the radius; even draws give the angle.
    """
    def uniform(i: int) -> float:
        z = (seed + i * 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
        return (z >> 11) * 2.0 ** -53

    out = []
    for pair in range((n + 1) // 2):
        u1 = uniform(2 * pair + 1) + 2.0 ** -53
        u2 = uniform(2 * pair + 2)
        rad = math.sqrt(-2.0 * math.log(u1))
        out += [rad * math.cos(2.0 * math.pi * u2), rad * math.sin(2.0 * math.pi * u2)]
    return np.array(out[:n])


# ---------------------------------------------------- delay and embedding

def embed(x: np.ndarray, delay: int, dim: int) -> np.ndarray:
    """Rows (x[i], x[i + T], ..., x[i + (m-1)T])."""
    count = len(x) - (dim - 1) * delay
    return np.stack([x[k * delay: k * delay + count] for k in range(dim)], axis=1)


def ami_bits(x: np.ndarray, lags, bins: int = 16) -> np.ndarray:
    """I(T) in bits from a j x j equal-width histogram over the full range.

    A value's bin is floor((v - min) / width), with the maximum folded
    into the last bin.
    """
    lo, hi = float(x.min()), float(x.max())
    width = (hi - lo) / bins
    cell = np.minimum(((x - lo) / width).astype(np.int64), bins - 1)
    out = []
    for lag in lags:
        a, b = cell[:-lag], cell[lag:]
        joint = np.zeros((bins, bins))
        np.add.at(joint, (a, b), 1.0)
        p = joint / len(a)
        pa, pb = p.sum(axis=1), p.sum(axis=0)
        nz = p > 0
        out.append(float((p[nz] * np.log2(p[nz] / np.outer(pa, pb)[nz])).sum()))
    return np.array(out)


def first_minimum(bits) -> int:
    """1-based lag of the first interior entry with I(T-1) > I(T) <= I(T+1),
    or of the global minimum when there is none."""
    for k in range(1, len(bits) - 1):
        if bits[k - 1] > bits[k] <= bits[k + 1]:
            return k + 1
    return int(np.argmin(bits)) + 1


# ------------------------------------------------------------ entropy

def box_entropy(points: np.ndarray, r: float) -> float:
    """S in bits of the r-box partition anchored at the per-axis minima;
    a box holds floor((p - min) / r) on every axis."""
    lattice = np.floor((points - points.min(axis=0)) / r).astype(np.int64)
    extent = lattice.max(axis=0) + 1
    if math.prod(int(e) for e in extent) >= 2 ** 62:
        _, counts = np.unique(lattice, axis=0, return_counts=True)
    else:
        key = np.zeros(len(points), dtype=np.int64)
        for k, e in enumerate(extent):
            key = key * int(e) + lattice[:, k]
        counts = np.bincount(np.unique(key, return_inverse=True)[1])
    p = counts / len(points)
    return float(-(p * np.log2(p)).sum())


# --------------------------------------------------------------- fit

def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line.

    A window whose y values are all equal has r^2 = 0, so an entropy
    plateau never counts as a scaling region.
    """
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    if y.max() == y.min():
        return float(slope), float(intercept), 0.0
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float((resid ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    return float(slope), float(intercept), min(max(r2, 0.0), 1.0)


def best_window_r2(x: np.ndarray, y: np.ndarray) -> float:
    """Highest r^2 over every run of 3 or more consecutive points."""
    return max(line_fit(x[s:s + w], y[s:s + w])[2]
               for w in range(3, len(x) + 1) for s in range(len(x) - w + 1))


# ------------------------------------------------- false nearest neighbours

def fnn_sample(x: np.ndarray, delay: int, window: int, r_tol: float, m_max: int,
               sample: np.ndarray, chunk: int = 200) -> list[float]:
    """False fraction at m = 1..m_max over the sampled reference points.

    Each point's neighbour is found by a full scan over the points that
    have an (m+1)-th coordinate, with |i - t| <= window excluded and
    distance ties going to the smaller index.  The pair is false when the
    appended coordinates differ by more than r_tol times the distance
    (at distance 0: when they differ at all).  Sample points must satisfy
    t + m_max * delay < len(x); they are scanned `chunk` at a time.
    """
    n = len(x)
    false_count = np.zeros(m_max)
    for lo in range(0, len(sample), chunk):
        pts = sample[lo:lo + chunk]
        rows = np.arange(len(pts))
        band = np.abs(np.arange(n)[None, :] - pts[:, None]) <= window
        d2 = np.zeros((len(pts), n))
        for m in range(1, m_max + 1):
            limit = n - m * delay
            shift = (m - 1) * delay
            d2[:, :limit] += (x[shift:shift + limit][None, :] - x[pts + shift][:, None]) ** 2
            cand = np.where(band[:, :limit], np.inf, d2[:, :limit])
            nbr = np.argmin(cand, axis=1)
            dist = np.sqrt(cand[rows, nbr])
            grow = np.abs(x[pts + m * delay] - x[nbr + m * delay])
            with np.errstate(divide="ignore", invalid="ignore"):
                false = np.where(dist == 0.0, grow > 0.0, grow / dist > r_tol)
            false_count[m - 1] += false.sum()
    return list(false_count / len(sample))


def binomial_margin(p: float, k: int, z: float = 5.0) -> float:
    """z standard errors of a k-point sample fraction around p, with the
    variance floored at 1/k so that p = 0 still allows a stray verdict."""
    return z * math.sqrt(max(p * (1.0 - p), 1.0 / k) / k)
