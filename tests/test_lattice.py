import numpy as np
import pytest

from gapcount import build_grid
from gapcount.lattice import forward_array, inverse_array


def _random_values(grid, rng):
    shape = (2, grid.n_points, grid.n_points)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_momentum_lattice_unit_box():
    # L = 2*pi makes the momentum lattice the integers, in FFT order
    grid = build_grid(8, 2.0 * np.pi)
    assert list(grid.momenta) == pytest.approx([0, 1, 2, 3, -4, -3, -2, -1])


def test_momentum_step():
    grid = build_grid(16, 8.0)
    assert np.diff(np.sort(grid.momenta)) == pytest.approx(
        np.full(15, 2.0 * np.pi / 8.0))


@pytest.mark.parametrize("n_points,box_side", [(7, 1.0), (6, 1.0), (8, 0.0), (8, -2.0)])
def test_build_grid_rejects_bad_input(n_points, box_side):
    with pytest.raises(ValueError):
        build_grid(n_points, box_side)


def test_spacing_times_n_is_box_side():
    grid = build_grid(48, 13.7)
    assert grid.spacing * grid.n_points == grid.box_side


def test_momentum_lattice_symmetric_up_to_unpaired_mode():
    grid = build_grid(12, 5.0)
    xi = grid.momenta
    for k in range(1, 6):
        assert xi[-k] == -xi[k]
    # the Nyquist mode -6 (index 6) is the only one whose negation is absent
    assert xi[6] == pytest.approx(-2.0 * np.pi * 6 / 5.0)
    assert set(-xi) - set(xi) == {-xi[6]}


def test_origin_is_a_grid_node():
    grid = build_grid(16, 4.0)
    assert 0.0 in grid.positions


def test_constant_field_transforms_to_zero_mode():
    grid = build_grid(8, 2.0 * np.pi)
    values = np.zeros((2, 8, 8), dtype=complex)
    values[0] = 1.0
    ghat = forward_array(values)
    assert abs(ghat[0, 0, 0] - 8.0) < 1e-12  # n * 1 under the unitary scaling
    ghat[0, 0, 0] = 0.0
    assert np.abs(ghat).max() < 1e-12


def test_point_mass_has_flat_momentum_modulus():
    grid = build_grid(8, 3.0)
    values = np.zeros((2, 8, 8), dtype=complex)
    values[0, 3, 5] = 1.0
    ghat = forward_array(values)
    assert np.abs(np.abs(ghat[0]) - 1.0 / 8.0).max() < 1e-12
    assert np.abs(ghat[1]).max() == 0.0


def test_zero_field_roundtrip():
    grid = build_grid(8, 1.0)
    zero = np.zeros((2, 8, 8), dtype=complex)
    assert np.abs(inverse_array(zero)).max() == 0.0


def test_single_mode_is_unit_norm_plane_wave():
    grid = build_grid(16, 5.0)
    ghat = np.zeros((2, 16, 16), dtype=complex)
    ghat[0, 2, 5] = 1.0
    f = inverse_array(ghat)
    # discretized plane wave: constant modulus 1/n, unit unweighted norm
    assert np.abs(np.abs(f[0]) - 1.0 / 16.0).max() < 1e-12
    assert abs(np.linalg.norm(f) - 1.0) < 1e-12


def test_roundtrip_parseval_and_linearity_on_random_fields():
    grid = build_grid(12, 7.3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = _random_values(grid, rng)
        g = _random_values(grid, rng)
        fwd = forward_array(f)
        back = inverse_array(fwd)
        scale = np.abs(f).max()
        assert np.abs(back - f).max() < 1e-12 * scale
        other = forward_array(inverse_array(f))
        assert np.abs(other - f).max() < 1e-12 * scale
        # Parseval in the weighted norm (spacing^2 quadrature weight)
        norm_f = grid.spacing * np.linalg.norm(f)
        norm_fwd = grid.spacing * np.linalg.norm(fwd)
        assert abs(norm_fwd - norm_f) < 1e-12 * max(norm_f, 1.0)
        # linearity
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        lin = forward_array(a * f + b * g)
        direct = a * fwd + b * forward_array(g)
        assert np.abs(lin - direct).max() < 1e-12 * np.abs(direct).max()



def test_transform_pair_matches_numpy_reference():
    rng = np.random.default_rng(3)
    for n in (8, 12, 40):
        f = rng.standard_normal((3, 2, n, n)) + 1j * rng.standard_normal((3, 2, n, n))
        scale = np.abs(f).max()
        fwd = np.fft.fft2(f, axes=(-2, -1), norm="ortho")
        inv = np.fft.ifft2(f, axes=(-2, -1), norm="ortho")
        assert np.abs(forward_array(f) - fwd).max() <= 1e-14 * scale
        assert np.abs(inverse_array(f) - inv).max() <= 1e-14 * scale
