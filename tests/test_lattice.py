import numpy as np
import pytest

from gapcount import build_grid
from gapcount.lattice import forward_array, inverse_array


def _random_values(grid, rng):
    shape = (grid.n_points, grid.n_points, 2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_momentum_lattice_unit_box():
    # L = 2*pi makes the momentum lattice the integers
    grid = build_grid(8, 2.0 * np.pi)
    assert [grid.momentum(k) for k in range(-4, 4)] == pytest.approx(list(range(-4, 4)))


def test_momentum_step():
    grid = build_grid(16, 8.0)
    assert grid.momentum(1) == pytest.approx(2.0 * np.pi / 8.0)


@pytest.mark.parametrize("n_points,box_side", [(7, 1.0), (6, 1.0), (8, 0.0), (8, -2.0)])
def test_build_grid_rejects_bad_input(n_points, box_side):
    with pytest.raises(ValueError):
        build_grid(n_points, box_side)


def test_spacing_times_n_is_box_side():
    grid = build_grid(48, 13.7)
    assert grid.spacing * grid.n_points == grid.box_side


def test_momentum_lattice_symmetric_up_to_unpaired_mode():
    grid = build_grid(12, 5.0)
    for k in range(1, 6):
        assert grid.momentum(-k) == -grid.momentum(k)
    with pytest.raises(ValueError):
        grid.momentum(6)  # the pair of -6 is absent


def test_origin_is_a_grid_node():
    grid = build_grid(16, 4.0)
    assert 0.0 in grid.positions


def test_constant_field_transforms_to_zero_mode():
    grid = build_grid(8, 2.0 * np.pi)
    values = np.zeros((8, 8, 2), dtype=complex)
    values[..., 0] = 1.0
    ghat = forward_array(values)
    assert abs(ghat[0, 0, 0] - 8.0) < 1e-12  # n * 1 under the unitary scaling
    ghat[0, 0, 0] = 0.0
    assert np.abs(ghat).max() < 1e-12


def test_point_mass_has_flat_momentum_modulus():
    grid = build_grid(8, 3.0)
    values = np.zeros((8, 8, 2), dtype=complex)
    values[3, 5, 0] = 1.0
    ghat = forward_array(values)
    assert np.abs(np.abs(ghat[..., 0]) - 1.0 / 8.0).max() < 1e-12
    assert np.abs(ghat[..., 1]).max() == 0.0


def test_zero_field_roundtrip():
    grid = build_grid(8, 1.0)
    zero = np.zeros((8, 8, 2), dtype=complex)
    assert np.abs(inverse_array(zero)).max() == 0.0


def test_single_mode_is_unit_norm_plane_wave():
    grid = build_grid(16, 5.0)
    ghat = np.zeros((16, 16, 2), dtype=complex)
    ghat[2, 5, 0] = 1.0
    f = inverse_array(ghat)
    # discretized plane wave: constant modulus 1/n, unit unweighted norm
    assert np.abs(np.abs(f[..., 0]) - 1.0 / 16.0).max() < 1e-12
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

