import warnings
from typing import get_args

import numpy as np
import pytest

from delaymap import (
    DivergenceError,
    EmbeddingParams,
    TimeSeries,
    ami_curve,
    default_r_ladder,
    delay_embed,
    entropy_scaling,
    first_local_minimum,
    generate,
    henon,
    information_dimension,
    logistic,
    lorenz,
    sine,
    white_noise,
)
from delaymap.generators import SETTINGS
from oracles import gaussian_draws


# ---------------------------------------------------------------- henon

def test_henon_degenerate_map_pins_to_one():
    # a = b = 0 collapses the map to x' = 1 + y, y' = 0
    s = henon(5, a=0.0, b=0.0, x0=0.5, y0=0.0, transient_skip=3)
    assert np.array_equal(s.values, np.ones(5))


def test_henon_canonical_orbit_bounds():
    s = henon(3000)
    assert np.abs(s.values).max() <= 1.5
    assert s.values.min() <= -0.5  # actually explores the attractor


def test_henon_is_deterministic():
    a = henon(500, x0=0.3, y0=-0.1)
    b = henon(500, x0=0.3, y0=-0.1)
    assert np.array_equal(a.values, b.values)


def test_henon_divergence_reports_iteration():
    with pytest.raises(DivergenceError) as exc:
        henon(100, a=5.0)
    assert exc.value.iteration is not None
    assert exc.value.iteration >= 1


def test_henon_rejects_nonfinite_parameters():
    with pytest.raises(ValueError):
        henon(10, a=float("nan"))
    with pytest.raises(ValueError):
        henon(1)


# ------------------------------------------------------------- logistic

def test_logistic_first_steps_from_half():
    s = logistic(3, r=4.0, x0=0.5, transient_skip=0)
    # 4 * 0.5 * 0.5 = 1 exactly, then the orbit sticks at 0
    assert list(s.values) == [1.0, 0.0, 0.0]


def test_logistic_fixed_point_at_r_two():
    s = logistic(50, r=2.0, x0=0.5, transient_skip=0)
    assert np.all(s.values == 0.5)


def test_logistic_stays_in_unit_interval():
    s = logistic(2000, r=3.9, x0=0.123)
    assert s.values.min() >= 0.0
    assert s.values.max() <= 1.0


def test_logistic_parameter_validation():
    for bad_r in (0.0, -1.0, 4.5):
        with pytest.raises(ValueError):
            logistic(10, r=bad_r)
    for bad_x0 in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            logistic(10, x0=bad_x0)


# --------------------------------------------------------------- lorenz

def test_lorenz_origin_attracts_without_forcing():
    s = lorenz(10, rho=0.0)
    assert np.abs(s.values).max() < 1e-3


def test_lorenz_canonical_bounds():
    s = lorenz(2000)
    assert np.abs(s.values).max() < 25.0


def test_lorenz_is_deterministic():
    a = lorenz(300, initial=(0.5, -0.5, 20.0))
    b = lorenz(300, initial=(0.5, -0.5, 20.0))
    assert np.array_equal(a.values, b.values)


def test_lorenz_samples_are_pinned_bit_for_bit():
    # the RK4 step's operations and their order fix every bit of the output
    v = lorenz(2000).values
    assert [v[i].hex() for i in (0, 1, 999, 1999)] == [
        "-0x1.331fc1b0dfe80p+2", "-0x1.2df80873a15b7p+2",
        "0x1.af220b39b67c9p+3", "0x1.3bbd530b32e00p+3",
    ]


def test_lorenz_divergence_names_the_step():
    with pytest.raises(DivergenceError) as exc:
        lorenz(100, dt=0.05, initial=(1e30, 1e30, 1e30), transient_skip=10)
    assert exc.value.iteration == 2


def test_lorenz_dt_validation():
    with pytest.raises(ValueError):
        lorenz(10, dt=0.0)
    with pytest.raises(ValueError):
        lorenz(10, dt=0.06)


@pytest.mark.parametrize(
    "initial", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), 1.0], ids=["two", "four", "scalar"]
)
def test_lorenz_refuses_an_initial_state_that_is_not_three_numbers(initial):
    with pytest.raises(ValueError, match=r"^initial must be three numbers"):
        lorenz(8, initial=initial)
    with pytest.raises(ValueError, match=r"^initial must be three numbers"):
        generate("lorenz", 8, initial=initial)


def test_lorenz_halving_dt_leaves_dimension_stable():
    # the same attractor sampled at the same effective rate must give a
    # compatible dimension estimate whether the integrator stepped at
    # dt or at dt/2
    coarse = lorenz(4000, dt=0.01)
    fine = lorenz(8000, dt=0.005)
    fine_resampled = fine.values[::2][:4000]

    sel = first_local_minimum(ami_curve(coarse))
    assert not sel.fallback_used
    delay = sel.lag
    assert delay == 17

    def estimate(values):
        pts = delay_embed(TimeSeries(values, label="x"), EmbeddingParams(delay, 3))
        rung = default_r_ladder(values.max() - values.min())
        return information_dimension(entropy_scaling(pts, rung)).d_i

    d_coarse = estimate(coarse.values)
    d_fine = estimate(fine_resampled)
    assert abs(d_coarse - d_fine) < 0.1


# ----------------------------------------------------------------- sine

def test_sine_quarter_period_values():
    s = sine(8, 4)
    want = np.array([0.0, 1.0, 0.0, -1.0] * 2)
    assert np.abs(s.values - want).max() <= 1e-12


def test_sine_is_bitwise_periodic():
    s = sine(500, 37, amplitude=2.5, phase=0.3)
    assert np.array_equal(s.values[:-37], s.values[37:])


def test_sine_amplitude_and_phase():
    s = sine(10, 5, amplitude=3.0, phase=np.pi / 2)
    assert s.values[0] == pytest.approx(3.0, abs=1e-12)


def test_sine_validation():
    with pytest.raises(ValueError):
        sine(10, 1)
    with pytest.raises(ValueError):
        sine(1, 4)
    # an integer setting refuses a float instead of truncating it
    for call, setting in (
        (lambda: sine(8, 2.5), "period_samples"),
        (lambda: henon(5, transient_skip=2.5), "transient_skip"),
        (lambda: henon(10.0), "n"),
        (lambda: white_noise(10, 2.5), "seed"),
    ):
        with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
            call()
    # numpy integers are integers
    assert np.array_equal(sine(8, np.int64(4)).values, sine(8, 4).values)
    assert np.array_equal(white_noise(9, np.int64(3)).values, white_noise(9, 3).values)


# ---------------------------------------------------------- white noise

def test_white_noise_seed_determinism():
    a = white_noise(1000, 42)
    b = white_noise(1000, 42)
    c = white_noise(1000, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_white_noise_frozen_draws():
    got = white_noise(6, 20260823).values[:5]
    want = np.array(
        [
            -1.7270121420324263,
            1.8347226223893653,
            0.6272852012971789,
            0.591054700439445,
            0.9098818729755854,
        ]
    )
    assert np.abs(got - want).max() <= 1e-12


def test_white_noise_matches_pure_python_oracle():
    for seed in (0, 7, 12345, 2**63):
        got = white_noise(501, seed).values
        want = np.array(gaussian_draws(seed, 501))
        assert np.abs(got - want).max() <= 1e-12


def test_white_noise_moments():
    s = white_noise(100_000, 20260823)
    assert abs(s.values.mean()) < 0.02
    assert 0.97 < s.values.std() < 1.03


def test_white_noise_odd_n_is_a_prefix():
    full = white_noise(8, 5).values
    assert np.array_equal(white_noise(7, 5).values, full[:7])
    assert np.array_equal(white_noise(6, 5).values, full[:6])


def test_white_noise_mean_stddev_affine():
    base = white_noise(100, 7).values
    shifted = white_noise(100, 7, mean=3.0, stddev=2.0).values
    assert np.array_equal(shifted, 3.0 + 2.0 * base)


def test_white_noise_validation():
    with pytest.raises(ValueError):
        white_noise(100, 1, stddev=0.0)
    with pytest.raises(ValueError):
        white_noise(100, 1, stddev=-1.0)


# -------------------------------- generate: a kind and its settings

def test_spec_validation():
    with pytest.raises(ValueError):
        generate("brownian", 100)
    with pytest.raises(ValueError):
        generate("henon", 1)
    with pytest.raises(ValueError):
        generate("henon", 100, transient_skip=-1)
    with pytest.raises(ValueError):
        generate("white_noise", 100)  # no seed
    # every setting is checked against the kind's generator signature
    for kind, settings in (
        ("henon", {"seed": 5}),
        ("sine", {"period_samples": 8, "transient_skip": 7}),
        ("white_noise", {"seed": 1, "transient_skip": 7}),
        ("henon", {"r": 3.0}),
        ("sine", {}),  # no period_samples
    ):
        with pytest.raises(ValueError):
            generate(kind, 100, **settings)
    # an int setting must be an integer, named in the error
    for kind, n, settings, setting in (
        ("sine", 8, {"period_samples": 2.5}, "period_samples"),
        ("henon", 5, {"transient_skip": 2.5}, "transient_skip"),
        ("henon", 10.0, {}, "n"),
        ("white_noise", 10, {"seed": 2.5}, "seed"),
    ):
        with pytest.raises(ValueError, match=f"^{setting} must be an integer"):
            generate(kind, n, **settings)
    # a value the generator refuses is refused before it computes anything
    for kind, settings, message in (
        ("sine", {"period_samples": 1}, "period must be >= 2"),
        ("logistic", {"r": 5.0}, "r must lie in"),
        ("lorenz", {"dt": 0.1}, "dt must lie in"),
        ("henon", {"a": float("nan")}, "parameter a must be finite"),
        ("white_noise", {"seed": 1, "stddev": 0.0}, "stddev must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            generate(kind, 8, **settings)
    made = generate("sine", 8, period_samples=np.int64(4))
    assert np.array_equal(made.values, sine(8, 4).values)


def _required(kind):
    """A value for each setting the kind requires, by its annotation."""
    return {
        name: {int: 8, float: 0.5}[p.annotation]
        for name, p in SETTINGS[kind].items() if p.default is p.empty
    }


def _float_cases():
    """(kind, setting, value) for every float setting of every kind, and
    every element of a tuple of floats, set to nan and to inf."""
    for kind, settings in SETTINGS.items():
        for name, p in settings.items():
            if p.annotation is float:
                bad = [float("nan"), float("inf")]
            elif set(get_args(p.annotation)) == {float}:
                bad = [
                    p.default[:i] + (v,) + p.default[i + 1 :]
                    for i in range(len(p.default)) for v in (float("nan"), float("inf"))
                ]
            else:
                continue
            for value in bad:
                yield pytest.param(kind, name, value, id=f"{kind}-{name}={value}")


@pytest.mark.parametrize("kind, setting, value", _float_cases())
def test_every_generator_refuses_a_non_finite_float_setting(kind, setting, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"\b{setting}\b"):
            generate(kind, 8, **{**_required(kind), setting: value})


def test_generate_matches_direct_calls():
    cases = [
        (generate("henon", 200, a=1.2, b=0.25), henon(200, a=1.2, b=0.25)),
        (generate("logistic", 150, r=3.7), logistic(150, r=3.7)),
        (
            generate("lorenz", 100, dt=0.02, transient_skip=200),
            lorenz(100, dt=0.02, transient_skip=200),
        ),
        (
            generate("sine", 64, period_samples=16, amplitude=2.0),
            sine(64, 16, amplitude=2.0),
        ),
        (
            generate("white_noise", 99, stddev=0.5, seed=11),
            white_noise(99, 11, stddev=0.5),
        ),
    ]
    for made, direct in cases:
        assert np.array_equal(made.values, direct.values)
        assert made.label == direct.label
