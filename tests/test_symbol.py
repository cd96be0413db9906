import numpy as np
import pytest

from gapcount import (
    ModelParams,
    dirac_symbol,
    resolvent_symbol,
    symbol_eigenvalues,
)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(mass=0.0, gap_point=0.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, gap_point=1.0)
    with pytest.raises(ValueError):
        ModelParams(mass=1.0, gap_point=-1.5)
    assert ModelParams(1.0, 0.4).gap_distance == pytest.approx(0.6)


def test_symbol_at_origin_is_diagonal_mass():
    p = ModelParams(1.0, 0.0)
    assert np.allclose(dirac_symbol((0.0, 0.0), p), np.diag([1.0, -1.0]))


@pytest.mark.parametrize(
    "xi,expected",
    [
        ((1.0, 0.0), np.array([[1.0, -1.0], [-1.0, -1.0]])),
        ((0.0, 1.0), np.array([[1.0, 1.0], [1.0, -1.0]])),
    ],
)
def test_symbol_axis_values(xi, expected):
    p = ModelParams(1.0, 0.0)
    s = dirac_symbol(xi, p)
    assert np.allclose(s, expected, atol=1e-15)
    # eigenvalue oracle: numeric eigendecomposition against the closed form
    numeric = np.linalg.eigvalsh(s)
    assert np.allclose(numeric, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-14)


def test_symbol_eigenvalue_oracle_points():
    p = ModelParams(1.0, 0.0)
    assert symbol_eigenvalues((0.0, 0.0), p) == pytest.approx([-1.0, 1.0])
    assert symbol_eigenvalues((1.0, 1.0), p) == pytest.approx(
        [-np.sqrt(5.0), np.sqrt(5.0)]
    )
    p2 = ModelParams(0.5, 0.0)
    assert symbol_eigenvalues((2.0, 0.0), p2) == pytest.approx(
        [-np.sqrt(16.25), np.sqrt(16.25)]
    )


def test_resolvent_closed_form_points():
    p = ModelParams(1.0, 0.0)
    assert np.allclose(resolvent_symbol((0.0, 0.0), p), np.diag([1.0, -1.0]))
    expected = np.array([[0.5, -0.5], [-0.5, -0.5]])
    assert np.allclose(resolvent_symbol((1.0, 0.0), p), expected, atol=1e-15)


def test_inverse_identity_and_eigenvalue_law_random():
    rng = np.random.default_rng(3)
    eye = np.eye(2)
    for _ in range(1000):
        m = rng.uniform(0.2, 3.0)
        lam = rng.uniform(-0.9, 0.9) * m
        p = ModelParams(m, lam)
        xi = rng.uniform(-6.0, 6.0, size=2)
        s = dirac_symbol(xi, p)
        r = resolvent_symbol(xi, p)
        assert np.abs((s - lam * eye) @ r - eye).max() < 1e-12
        law = np.sqrt(m ** 2 + (xi[0] ** 2 + xi[1] ** 2) ** 2)
        assert np.abs(np.linalg.eigvalsh(s) - [-law, law]).max() < 1e-12 * max(law, 1.0)
        # hermiticity of both
        assert np.abs(s - s.conj().T).max() < 1e-14 * max(law, 1.0)
        assert np.abs(r - r.conj().T).max() < 1e-14


def test_sign_flip_conjugation_preserves_spectra():
    # flipping both off-diagonal signs = conjugation by diag(1, -1)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = rng.uniform(0.2, 2.0)
        p = ModelParams(m, 0.3 * m)
        xi = rng.uniform(-5.0, 5.0, size=2)
        s = dirac_symbol(xi, p)
        flipped = s.copy()
        flipped[0, 1] *= -1.0
        flipped[1, 0] *= -1.0
        a = np.linalg.eigvalsh(s)
        b = np.linalg.eigvalsh(flipped)
        assert np.abs(a - b).max() < 1e-12 * max(abs(a).max(), 1.0)


def test_resolvent_norm_attained_at_origin():
    p = ModelParams(1.0, 0.3)
    xi = np.stack(np.meshgrid(np.linspace(-4, 4, 33), np.linspace(-4, 4, 33),
                              indexing="ij"), axis=-1)
    r = resolvent_symbol(xi, p)
    norms = np.linalg.norm(r, ord=2, axis=(-2, -1))
    assert norms.max() <= 1.0 / p.gap_distance + 1e-12
    assert abs(norms.max() - 1.0 / p.gap_distance) < 1e-10


def test_vectorized_symbol_matches_scalar():
    p = ModelParams(0.7, -0.2)
    rng = np.random.default_rng(5)
    xi = rng.uniform(-3, 3, size=(10, 2))
    batch = dirac_symbol(xi, p)
    for k in range(10):
        assert np.allclose(batch[k], dirac_symbol(xi[k], p))
