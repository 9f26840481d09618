"""Synthetic series with known dynamics, for validating the estimators.

Every generator is a pure function of its arguments: same inputs, same
bits, on every run and platform.  The iterated maps emit values starting
from the first application of the map to the seed state; transient_skip
then discards that many leading samples before recording begins.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .errors import DivergenceError
from .series import TimeSeries, check_integer

__all__ = [
    "GENERATORS", "SETTINGS", "SettingError", "generate",
    "henon", "logistic", "lorenz", "sine", "white_noise", "DEFAULT_TRANSIENT_SKIP",
]

DEFAULT_TRANSIENT_SKIP = 1000

_HENON_BOUND = 1e6


def henon(
    n: int,
    a: float = 1.4,
    b: float = 0.3,
    x0: float = 0.1,
    y0: float = 0.1,
    transient_skip: int = DEFAULT_TRANSIENT_SKIP,
) -> TimeSeries:
    """x-component of the Henon map x' = 1 - a*x^2 + y, y' = b*x.

    Raises DivergenceError (with the 1-based iteration count, transient
    included) if the orbit leaves |x| < 1e6.
    """
    _check(n, transient_skip, a=a, b=b, x0=x0, y0=y0)
    x, y = float(x0), float(y0)
    out = np.empty(n)
    for i in range(-transient_skip, n):
        x, y = 1.0 - a * x * x + y, b * x
        if not abs(x) < _HENON_BOUND:
            raise DivergenceError(
                f"henon orbit diverged (|x| >= {_HENON_BOUND:g})",
                iteration=i + transient_skip + 1,
            )
        if i >= 0:
            out[i] = x
    return TimeSeries(out, label="henon")


def logistic(
    n: int,
    r: float = 4.0,
    x0: float = 0.4,
    transient_skip: int = DEFAULT_TRANSIENT_SKIP,
) -> TimeSeries:
    """Logistic map x' = r*x*(1-x); bounded for r in (0, 4], x0 in (0, 1)."""
    _check(n, transient_skip, r=r, x0=x0)
    if not 0.0 < r <= 4.0:
        raise ValueError(f"r must lie in (0, 4], got {r}")
    if not 0.0 < x0 < 1.0:
        raise ValueError(f"x0 must lie in (0, 1), got {x0}")
    x = float(x0)
    out = np.empty(n)
    for i in range(-transient_skip, n):
        x = r * x * (1.0 - x)
        if i >= 0:
            out[i] = x
    return TimeSeries(out, label="logistic")


def lorenz(
    n: int,
    dt: float = 0.01,
    sigma: float = 10.0,
    rho: float = 28.0,
    beta: float = 8.0 / 3.0,
    initial: tuple[float, float, float] = (1.0, 1.0, 1.0),
    transient_skip: int = DEFAULT_TRANSIENT_SKIP,
) -> TimeSeries:
    """x-component of the Lorenz system, integrated by fixed-step RK4.

    The step is fixed (not adaptive) so runs are bit-reproducible; dt must
    lie in (0, 0.05].  One sample is emitted per step after the transient.
    """
    _check(n, transient_skip, dt=dt, sigma=sigma, rho=rho, beta=beta, initial=initial)
    if not 0.0 < dt <= 0.05:
        raise ValueError(f"dt must lie in (0, 0.05], got {dt}")
    if np.shape(initial) != (3,):
        raise ValueError(f"initial must be three numbers (x, y, z), got {initial!r}")

    # Each stage writes the derivative (sigma (y - x), x (rho - z) - y,
    # x y - beta z) out: a function call per stage costs about a quarter
    # of the loop.  h * k rounds exactly as 0.5 * dt * k does evaluated
    # left to right, so every sample is that of the textbook RK4 step.
    h = 0.5 * dt
    w = dt / 6.0
    x, y, z = (float(v) for v in initial)
    out = np.empty(n)
    for i in range(-transient_skip, n):
        k1x, k1y, k1z = sigma * (y - x), x * (rho - z) - y, x * y - beta * z
        ax, ay, az = x + h * k1x, y + h * k1y, z + h * k1z
        k2x, k2y, k2z = sigma * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
        ax, ay, az = x + h * k2x, y + h * k2y, z + h * k2z
        k3x, k3y, k3z = sigma * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
        ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x, k4y, k4z = sigma * (ay - ax), ax * (rho - az) - ay, ax * ay - beta * az
        x = x + w * (k1x + 2 * k2x + 2 * k3x + k4x)
        y = y + w * (k1y + 2 * k2y + 2 * k3y + k4y)
        z = z + w * (k1z + 2 * k2z + 2 * k3z + k4z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise DivergenceError(
                "lorenz integration blew up", iteration=i + transient_skip + 1
            )
        if i >= 0:
            out[i] = x
    return TimeSeries(out, label="lorenz")


def sine(
    n: int, period_samples: int, amplitude: float = 1.0, phase: float = 0.0
) -> TimeSeries:
    """amplitude * sin(2*pi*(i mod P)/P + phase) for an integer period P >= 2.

    The argument is reduced modulo the period before evaluation, so sample
    i and sample i+P are *identical bits*, not merely close: the sampled
    curve is exactly periodic, and repeated traversals of the closed orbit
    land on the same reconstructed points instead of drifting by
    accumulated rounding.
    """
    _check(n, amplitude=amplitude, phase=phase)
    if check_integer("period_samples", period_samples) < 2:
        raise ValueError(f"period must be >= 2 samples, got {period_samples}")
    i = np.arange(n) % period_samples
    return TimeSeries(
        amplitude * np.sin(2.0 * np.pi * (i / period_samples) + phase),
        label="sine",
    )


_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def white_noise(
    n: int, seed: int, mean: float = 0.0, stddev: float = 1.0
) -> TimeSeries:
    """Gaussian noise from a pinned, portable generator (algorithm v1).

    The algorithm is fixed so the same seed yields the same bits in any
    language; do not substitute a platform RNG.  Draw i (1-based) is
    produced as:

      1. SplitMix64 stream: z = (seed + i*0x9E3779B97F4A7C15) mod 2^64,
         then z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
         z *= 0x94D049BB133111EB; z ^= z>>31  (64-bit wrapping).
      2. Uniform: u = (z >> 11) * 2^-53, a double in [0, 1).
      3. Box-Muller on consecutive uniform pairs (u1 from the odd draw,
         shifted by 2^-53 into (0, 1]; u2 from the even draw):
         rad = sqrt(-2 ln u1); outputs rad*cos(2*pi*u2), rad*sin(2*pi*u2).
         For odd n the trailing half-pair is discarded.
      4. Scale: mean + stddev * value.

    Steps 1-2 are integer-exact.  Step 3 leans on the platform's libm
    (log/cos/sin), which is bit-stable on any one platform and matches
    across platforms with correctly-rounded math libraries.
    """
    _check(n, mean=mean, stddev=stddev)
    if not stddev > 0:
        raise ValueError(f"stddev must be positive, got {stddev}")
    seed = check_integer("seed", seed)  # a numpy integer as an int, so the mask cannot overflow
    pairs = (n + 1) // 2
    ks = np.uint64(seed & _MASK64) + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * _GOLDEN
    z = ks
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    u1 = u[0::2] + 2.0**-53
    u2 = u[1::2]
    rad = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = rad * np.cos(2.0 * np.pi * u2)
    out[1::2] = rad * np.sin(2.0 * np.pi * u2)
    return TimeSeries(mean + stddev * out[:n], label="white_noise")


#: kind -> generator.  A kind's settings are its generator's keyword
#: parameters after n: generate takes exactly those, and `delaymap synth`
#: has a flag for each.  The generator refuses a bad value itself.
GENERATORS = {fn.__name__: fn for fn in (henon, logistic, lorenz, sine, white_noise)}
#: kind -> {setting name: inspect.Parameter}, annotations resolved
SETTINGS = {
    kind: dict(list(inspect.signature(fn, eval_str=True).parameters.items())[1:])
    for kind, fn in GENERATORS.items()
}


class SettingError(ValueError):
    """A setting that a kind does not take, or a required one left out."""

    def __init__(self, kind: str, setting: str, missing: bool):
        super().__init__(f"{kind} {'requires' if missing else 'does not take'} {setting!r}")
        self.setting, self.missing = setting, missing


def generate(kind: str, n: int, **settings) -> TimeSeries:
    """n samples of the kind's series, its settings given by name.

    An unknown kind raises ValueError; a setting the kind does not take,
    or a required one left out, raises SettingError.  Settings left out
    take the generator's defaults, and the generator refuses a bad value
    (a non-integer int setting, a non-finite float, a sine period under
    2, ...) before it computes anything.
    """
    if kind not in GENERATORS:
        raise ValueError(f"unknown kind {kind!r}; pick from {tuple(GENERATORS)}")
    takes = SETTINGS[kind]
    unknown = [name for name in settings if name not in takes]
    missing = [k for k, p in takes.items() if k not in settings and p.default is p.empty]
    for name in unknown or missing:
        raise SettingError(kind, name, missing=not unknown)
    return GENERATORS[kind](n, **settings)


def _check(n: int, transient_skip: int = 0, **floats) -> None:
    """The checks every generator runs first: n >= 2, transient_skip >= 0,
    and each float setting (or each element of a tuple one) finite."""
    if check_integer("n", n) < 2:
        raise ValueError("need n >= 2")
    if check_integer("transient_skip", transient_skip) < 0:
        raise ValueError("transient_skip must be >= 0")
    for name, value in floats.items():
        if not np.isfinite(value).all():
            raise ValueError(f"parameter {name} must be finite")
