import numpy as np
import pytest

from gapcount import (
    DiskBump,
    Gaussian,
    PowerDecay,
    eval_potential,
    psi_profile,
    sqrt_potential,
)


def test_gaussian_peak_value():
    spec = Gaussian(amplitude=4.0, width=1.0)
    assert eval_potential(spec, (0.0, 0.0)) == pytest.approx(4.0)


def test_disk_bump_outside_support():
    spec = DiskBump(amplitude=1.0, radius=1.0)
    assert eval_potential(spec, (2.0, 0.0)) == 0.0
    assert eval_potential(spec, (0.5, 0.5)) == 1.0


def test_disk_bump_margin_is_continuous_ramp():
    spec = DiskBump(amplitude=2.0, radius=1.0, margin=0.5)
    rs = np.linspace(0.9, 1.6, 200)
    vals = eval_potential(spec, np.stack([rs, np.zeros_like(rs)], axis=-1))
    assert np.all(np.diff(vals) <= 1e-12)  # monotone ramp down
    assert eval_potential(spec, (1.25, 0.0)) == pytest.approx(1.0)  # mid-ramp


def test_power_decay_ray_asymptotics():
    spec = PowerDecay(exponent=1.0, constant_term=2.0)
    big = 1.0e3
    v = eval_potential(spec, (big, 0.0))
    assert abs(v * big - 2.0) / 2.0 < 1e-3


def test_power_decay_ray_limit_improves_with_radius():
    spec = PowerDecay(exponent=0.7, constant_term=1.0, cos_coeffs=(0.5,), sin_coeffs=(0.25,))
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    psi = psi_profile(spec, thetas)
    defects = []
    for radius in (1e2, 1e3, 1e4):
        pts = radius * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
        vals = eval_potential(spec, pts)
        defects.append(np.abs(vals * radius ** spec.exponent - psi).max())
    assert defects[0] > defects[1] > defects[2]


def test_sqrt_potential_squares_back():
    rng = np.random.default_rng(0)
    specs = [
        Gaussian(4.0, 1.0),
        DiskBump(1.0, 1.0, 0.25),
        PowerDecay(1.0, 2.0, (0.5,), (0.1,)),
    ]
    pts = rng.uniform(-5, 5, size=(200, 2))
    for spec in specs:
        w = sqrt_potential(spec, pts)
        v = eval_potential(spec, pts)
        assert np.abs(w ** 2 - v).max() < 1e-14 * max(v.max(), 1.0)
    assert sqrt_potential(Gaussian(4.0, 1.0), (0.0, 0.0)) == pytest.approx(2.0)
    assert sqrt_potential(DiskBump(1.0, 1.0), (3.0, 0.0)) == 0.0


def test_nonnegativity_on_random_points():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-50, 50, size=(100_000, 2))
    for spec in (
        Gaussian(3.0, 0.7, center=(1.0, -2.0)),
        DiskBump(2.0, 1.5, 0.3),
        PowerDecay(1.3, 1.0, (0.6, -0.2), (0.15,)),
    ):
        assert eval_potential(spec, pts).min() >= 0.0


def test_psi_profile_values_and_periodicity():
    const = PowerDecay(1.0, 3.5)
    thetas = np.linspace(-7.0, 7.0, 101)
    assert np.abs(psi_profile(const, thetas) - 3.5).max() == 0.0
    spec = PowerDecay(1.0, 1.0, cos_coeffs=(1.0,))
    assert psi_profile(spec, np.pi) == pytest.approx(0.0, abs=1e-15)
    assert np.abs(psi_profile(spec, thetas) - psi_profile(spec, thetas + 2 * np.pi)).max() < 1e-14


def test_psi_negativity_rejected_at_construction():
    with pytest.raises(ValueError):
        PowerDecay(1.0, 1.0, cos_coeffs=(2.0,))
    with pytest.raises(ValueError):
        PowerDecay(2.5, 1.0)  # exponent outside (0, 2)


def test_psi_profile_rejects_other_families():
    with pytest.raises(TypeError):
        psi_profile(Gaussian(1.0, 1.0), 0.0)

