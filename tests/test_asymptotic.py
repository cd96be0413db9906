import numpy as np
import pytest

from gapcount import (
    DiskBump,
    Gaussian,
    ModelParams,
    NonIntegrableError,
    PowerDecay,
    box_coefficient,
    j_integral,
    phase_space_volume,
    weyl_coefficient,
)
from oracles import (box_symbol_region_area, chi_momentum_integral, phase_space_count,
                     weyl_quadrature)


def test_weyl_gaussian_closed_form():
    # int V = V0 * pi * sigma^2, so the coefficient is V0 * sigma^2 / 4
    pred = weyl_coefficient(Gaussian(4.0, 1.0))
    assert pred.value == pytest.approx(1.0, rel=1e-9)
    pred2 = weyl_coefficient(Gaussian(3.0, 2.0, center=(5.0, -1.0)))
    assert pred2.value == pytest.approx(3.0, rel=1e-9)


def test_weyl_zero_potential():
    assert weyl_coefficient(Gaussian(0.0, 1.0)).value == 0.0


def test_weyl_disk_area():
    pred = weyl_coefficient(DiskBump(1.0, 1.0, 0.0))
    assert pred.value == pytest.approx(0.25, rel=1e-9)


def test_weyl_rejects_power_decay():
    with pytest.raises(NonIntegrableError):
        weyl_coefficient(PowerDecay(1.0, 2.0))


def _weyl_sweep():
    """200 Gaussians and 200 disk bumps, every other disk without a margin."""
    rng = np.random.default_rng(2506)
    gaussians = [Gaussian(rng.uniform(0.1, 10.0), rng.uniform(0.2, 5.0),
                          center=tuple(rng.uniform(-3.0, 3.0, 2))) for _ in range(200)]
    disks = [DiskBump(rng.uniform(0.1, 10.0), rng.uniform(0.2, 5.0),
                      0.0 if k % 2 == 0 else rng.uniform(0.05, 3.0)) for k in range(200)]
    return gaussians + disks


def _assert_within_4_ulp(spec):
    closed = weyl_coefficient(spec).value
    reference = weyl_quadrature(spec).value
    assert abs(closed - reference) <= 4 * np.finfo(float).eps * reference, spec


def test_weyl_closed_form_matches_quadpack_to_4_ulp():
    specs = _weyl_sweep()
    assert sum(isinstance(s, DiskBump) and s.margin == 0.0 for s in specs) == 100
    for spec in specs:
        _assert_within_4_ulp(spec)


# the Gaussian of the bench and pinned configs, whose printed values depend
# on the coefficient's exact bits
@pytest.mark.parametrize("center", [(0.0, 0.0), (1.5, 0.5)], ids=["centred", "bench"])
def test_weyl_closed_form_equals_quadpack_on_the_bench_gaussian(center):
    spec = Gaussian(4.0, 1.0, center=center)
    assert weyl_coefficient(spec).value == weyl_quadrature(spec).value == 1.0


# every other family this module uses; which bits QUADPACK gives depends on
# scipy's and libm's rounding, so these compare within the sweep's bound
@pytest.mark.parametrize("spec", [
    Gaussian(3.0, 2.0, center=(5.0, -1.0)), Gaussian(0.0, 1.0),
    Gaussian(2.5, 0.8, center=(1.0, 2.0)), DiskBump(1.0, 1.0, 0.0), DiskBump(2.0, 1.5, 0.4),
], ids=["gaussian-wide", "gaussian-zero", "gaussian-narrow", "disk", "disk-margin"])
def test_weyl_closed_form_matches_quadpack_on_the_module_families(spec):
    _assert_within_4_ulp(spec)


def test_phase_space_volume_equals_weyl():
    for spec in (Gaussian(4.0, 1.0), DiskBump(1.0, 1.0), DiskBump(2.0, 1.5, 0.4),
                 Gaussian(2.5, 0.8, center=(1.0, 2.0))):
        w = weyl_coefficient(spec)
        v = phase_space_volume(spec)
        assert abs(w.value - v.value) <= 1e-6 * max(w.value, 1.0)


def test_inner_momentum_integral_is_pi_v():
    rng = np.random.default_rng(0)
    spec = Gaussian(4.0, 1.0)
    pts = rng.uniform(-2.0, 2.0, size=(100, 2))
    from gapcount.potential import eval_potential

    for x in pts:
        v = float(eval_potential(spec, x))
        got = chi_momentum_integral(spec, x, n_radial=100_000, n_theta=8)
        assert abs(got - np.pi * v) <= 1e-4 * max(np.pi * v, 1e-12)


# ---------------------------------------------------------------------------
# the angular integral of the second law
# ---------------------------------------------------------------------------

from oracles import radial_profile_integral as _radial_oracle


def test_j_integral_zero_profile():
    params = ModelParams(1.0, 0.3)
    spec = PowerDecay(1.0, 0.0)
    assert j_integral(params, spec).value == 0.0


def test_j_integral_constant_profile_closed_form():
    # Psi = 2, p = 1, lambda = 0, m = 1: J = pi/2 exactly
    params = ModelParams(1.0, 0.0)
    spec = PowerDecay(1.0, 2.0)
    pred = j_integral(params, spec)
    assert pred.value == pytest.approx(np.pi / 2.0, rel=1e-10)


# below the gap center the support ends at (Psi/(m - lambda))^(1/p), not at
# (Psi/(m - |lambda|))^(1/p); at small p the wrong bound misses it entirely
@pytest.mark.parametrize("psi,p,lam", [(2.0, 1.0, 0.0), (1.5, 0.8, 0.2), (3.0, 1.4, -0.3),
                                       (2.0, 0.3, -0.8), (2.5, 0.05, -0.9)])
def test_j_integral_matches_radial_oracle(psi, p, lam):
    params = ModelParams(1.0, lam)
    spec = PowerDecay(p, psi)
    pred = j_integral(params, spec)
    oracle = _radial_oracle(params, psi, p)
    assert abs(pred.value - oracle) <= 1e-8 * max(oracle, 1.0)


def test_j_integral_monotone_in_profile():
    params = ModelParams(1.0, 0.0)
    low = j_integral(params, PowerDecay(1.0, 1.0)).value
    high = j_integral(params, PowerDecay(1.0, 2.0)).value
    assert high > low


def test_j_integral_rotation_invariance():
    params = ModelParams(1.0, 0.1)
    base = PowerDecay(1.0, 1.5, cos_coeffs=(0.5,), sin_coeffs=(0.0,))
    # rotating the profile by t: cos(theta - t) = cos t * cos + sin t * sin
    t = 0.7
    rotated = PowerDecay(
        1.0, 1.5, cos_coeffs=(0.5 * np.cos(t),), sin_coeffs=(0.5 * np.sin(t),)
    )
    a = j_integral(params, base)
    b = j_integral(params, rotated)
    assert abs(a.value - b.value) <= 1e-8 * max(a.value, 1.0)


def test_j_integral_scaling_in_constant_profile():
    # for lambda = 0 and Psi = c^p * Psi0, R scales by c and J by c^2
    p = 1.3
    params = ModelParams(1.0, 0.0)
    c = 1.7
    base = j_integral(params, PowerDecay(p, 1.0)).value
    scaled = j_integral(params, PowerDecay(p, c ** p)).value
    assert scaled == pytest.approx(c ** 2 * base, rel=1e-8)


def test_j_integral_integrates_each_distinct_ray_once(monkeypatch):
    import gapcount.asymptotic as asymptotic

    params = ModelParams(1.0, 0.1)
    radial = asymptotic._radial_integral
    calls = []

    def counting(params, spec, theta):
        calls.append(theta)
        return radial(params, spec, theta)

    monkeypatch.setattr(asymptotic, "_radial_integral", counting)
    j_integral(params, PowerDecay(1.0, 2.0))
    assert len(calls) == 1
    # a cos 4theta profile against the loop over every ray, bit for bit
    monkeypatch.setattr(asymptotic, "_radial_integral", radial)
    spec = PowerDecay(1.0, 2.0, (0.0, 0.0, 0.0, 0.8))
    panels = asymptotic._THETA_PANELS
    thetas = np.linspace(0.0, 2.0 * np.pi, panels, endpoint=False)
    rays = np.array([radial(params, spec, th) for th in thetas])
    vals, errs = rays[:, 0], rays[:, 1]
    dtheta = 2.0 * np.pi / panels
    full = float(vals.sum()) * dtheta
    half = float(vals[::2].sum()) * 2.0 * dtheta
    radial_err = float(errs.sum()) * dtheta
    pred = j_integral(params, spec)
    assert pred.value == full / (4.0 * np.pi)
    assert pred.error == (abs(full - half) + radial_err) / (4.0 * np.pi)


def test_j_integral_requires_power_decay():
    with pytest.raises(TypeError):
        j_integral(ModelParams(1.0, 0.0), Gaussian(1.0, 1.0))


# ---------------------------------------------------------------------------
# the phase-space indicator behind phase_space_volume
# ---------------------------------------------------------------------------

def test_phase_space_count_strict():
    spec = DiskBump(2.0, 1.0)  # V = 2 inside the unit disk
    assert phase_space_count((0.0, 0.0), (1.0, 0.0), spec) == 1
    spec1 = DiskBump(1.0, 1.0)
    assert phase_space_count((0.0, 0.0), (1.0, 0.0), spec1) == 0  # tie is out
    with pytest.raises(ValueError):
        phase_space_count((0.0, 0.0), (0.0, 0.0), spec)


# ---------------------------------------------------------------------------
# box coefficient
# ---------------------------------------------------------------------------

def test_box_coefficient_vanishing_region():
    params = ModelParams(1.0, 0.0)
    assert box_coefficient(2.0, params, 1.0) == 0.0  # 1/tau + lambda = 0.5 < m


def test_box_coefficient_value():
    params = ModelParams(1.0, 0.0)
    expected = np.sqrt(3.0) / (4.0 * np.pi)
    assert box_coefficient(0.5, params, 1.0) == pytest.approx(expected, rel=1e-12)


def test_box_coefficient_monotone_in_tau():
    params = ModelParams(1.0, 0.2)
    taus = np.linspace(0.2, 2.0, 15)
    vals = [box_coefficient(t, params, 1.0) for t in taus]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_box_symbol_region_area_identity():
    # the box law per unit area and beta^2 is (2pi)^-2 times the momentum area
    for tau, lam in ((0.5, 0.0), (0.8, 0.3), (0.4, -0.2)):
        params = ModelParams(1.0, lam)
        expected = (2.0 * np.pi) ** 2 * box_coefficient(tau, params, 1.0)
        got = box_symbol_region_area(tau, params, n_radial=200_000, n_theta=8)
        assert abs(got - expected) <= 1e-4 * max(expected, 1.0)
    assert box_symbol_region_area(2.0, ModelParams(1.0, 0.0)) == 0.0