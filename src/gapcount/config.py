"""Experiment configuration: flat dotted-key text files.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
ignored.  Lists are comma-separated.  Example::

    study = weyl
    grid.n_points = 32
    grid.box_side = 24.0
    model.mass = 1.0
    model.gap_point = 0.0
    potential.kind = gaussian
    potential.amplitude = 4.0
    potential.width = 1.0
    alpha.values = 5, 10, 20, 40
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GridSpec, build_grid
from .operators import BoxSpec, DenseCapExceededError, check_box_fits
from .potential import DiskBump, Gaussian, PotentialSpec, PowerDecay
from .symbol import ModelParams

STUDIES = ("weyl", "theorem2", "crossterm", "box", "flow-trace", "oracle")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key=value format into a string mapping."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _get_float(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {mapping[key]!r}") from exc


def _get_int(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {mapping[key]!r}") from exc


def _get_bool(mapping, key, default=False):
    if key not in mapping:
        return default
    value = mapping[key].lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {mapping[key]!r}")


def _get_float_list(mapping, key):
    if key not in mapping or not mapping[key]:
        return None
    try:
        return [float(tok) for tok in mapping[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad list: {mapping[key]!r}") from exc


def _build_potential(mapping) -> PotentialSpec:
    kind = mapping.get("potential.kind")
    if kind is None:
        raise ConfigError("missing required key 'potential.kind'")
    try:
        if kind == "gaussian":
            return Gaussian(
                amplitude=_get_float(mapping, "potential.amplitude"),
                width=_get_float(mapping, "potential.width"),
                center=(
                    _get_float(mapping, "potential.center_x", 0.0),
                    _get_float(mapping, "potential.center_y", 0.0),
                ),
            )
        if kind == "disk":
            return DiskBump(
                amplitude=_get_float(mapping, "potential.amplitude"),
                radius=_get_float(mapping, "potential.radius"),
                margin=_get_float(mapping, "potential.margin", 0.0),
            )
        if kind == "powerdecay":
            return PowerDecay(
                exponent=_get_float(mapping, "potential.exponent"),
                constant_term=_get_float(mapping, "potential.psi_constant"),
                cos_coeffs=tuple(_get_float_list(mapping, "potential.psi_cos") or ()),
                sin_coeffs=tuple(_get_float_list(mapping, "potential.psi_sin") or ()),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown potential.kind {kind!r}")


def _build_alphas(mapping) -> np.ndarray | None:
    values = _get_float_list(mapping, "alpha.values")
    if values is not None:
        alphas = np.asarray(values, dtype=float)
    elif "alpha.min" in mapping:
        lo = _get_float(mapping, "alpha.min")
        hi = _get_float(mapping, "alpha.max")
        count = _get_int(mapping, "alpha.count")
        if count < 1 or not 0 < lo <= hi:
            raise ConfigError("alpha range requires 0 < min <= max and count >= 1")
        if _get_bool(mapping, "alpha.log", True):
            alphas = np.geomspace(lo, hi, count)
        else:
            alphas = np.linspace(lo, hi, count)
    else:
        return None
    if np.any(alphas <= 0) or np.any(np.diff(alphas) <= 0):
        raise ConfigError("alpha values must be positive and strictly increasing")
    return alphas


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    grid: GridSpec
    model: ModelParams
    potential: PotentialSpec | None
    alphas: np.ndarray | None
    eps1: float | None
    eps2: float | None
    epsilon: float
    box_corner: tuple[float, float]
    box_side: float
    betas: list[float] | None
    tau: float | None
    t_values: list[float] | None
    with_flow: bool
    dense_cap: int
    seed: int
    raw_text: str

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "ExperimentConfig":
        mapping = parse_config_text(text)
        study = mapping.get("study")
        if study not in STUDIES:
            raise ConfigError(f"study must be one of {STUDIES}, got {study!r}")
        try:
            grid = build_grid(
                _get_int(mapping, "grid.n_points"),
                _get_float(mapping, "grid.box_side"),
            )
            model = ModelParams(
                mass=_get_float(mapping, "model.mass"),
                gap_point=_get_float(mapping, "model.gap_point"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        potential = (_build_potential(mapping)
                     if "potential.kind" in mapping else None)
        cfg = cls(
            study=study,
            grid=grid,
            model=model,
            potential=potential,
            alphas=_build_alphas(mapping),
            eps1=(_get_float(mapping, "localization.eps1")
                  if "localization.eps1" in mapping else None),
            eps2=(_get_float(mapping, "localization.eps2")
                  if "localization.eps2" in mapping else None),
            epsilon=_get_float(mapping, "localization.epsilon", 0.5),
            box_corner=(
                _get_float(mapping, "box.corner_x", 0.0),
                _get_float(mapping, "box.corner_y", 0.0),
            ),
            box_side=_get_float(mapping, "box.side", 1.0),
            betas=_get_float_list(mapping, "box.betas"),
            tau=(_get_float(mapping, "box.tau") if "box.tau" in mapping else None),
            t_values=_get_float_list(mapping, "flow.t_values"),
            with_flow=_get_bool(mapping, "study.with_flow", False),
            dense_cap=_get_int(mapping, "dense_cap", 10_000),
            seed=seed,
            raw_text=text,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Study-specific invariants; cheap, runs before any heavy work."""
        study = self.study
        if study in ("weyl", "theorem2", "crossterm"):
            if self.alphas is None:
                raise ConfigError(f"study {study!r} requires alpha values")
            if self.grid.dimension > self.dense_cap:
                raise DenseCapExceededError(
                    f"grid dimension {self.grid.dimension} exceeds the dense cap "
                    f"{self.dense_cap}"
                )
        if study == "weyl" and isinstance(self.potential, PowerDecay):
            raise ConfigError(
                "the weyl study requires an integrable potential family"
            )
        if study in ("theorem2", "crossterm") and not isinstance(
            self.potential, PowerDecay
        ):
            raise ConfigError(f"study {study!r} requires a powerdecay potential")
        if study == "theorem2":
            if self.eps2 is None:
                raise ConfigError("theorem2 study requires localization.eps2")
            p = self.potential.exponent
            needed = 4.0 * self.eps2 * float(self.alphas[-1]) ** (1.0 / p)
            if self.grid.box_side < needed:
                raise ConfigError(
                    f"box side {self.grid.box_side:g} too small for the largest "
                    f"coupling: needs box_side >= {needed:g}"
                )
        if study == "crossterm":
            if self.eps1 is None or self.eps2 is None:
                raise ConfigError(
                    "crossterm study requires localization.eps1 and .eps2"
                )
            if not 0 < self.eps1 < self.eps2:
                raise ConfigError("need 0 < eps1 < eps2")
            if not self.epsilon > 0:
                raise ConfigError("localization.epsilon must be positive")
            p = self.potential.exponent
            r2 = self.eps2 * float(self.alphas[-1]) ** (1.0 / p)
            if r2 >= 0.5 * self.grid.box_side:
                raise ConfigError(
                    f"outer zone radius {r2:g} at the largest coupling does not "
                    f"fit the box (needs < {0.5 * self.grid.box_side:g})"
                )
        if study == "box":
            if self.betas is None or self.tau is None:
                raise ConfigError("box study requires box.betas and box.tau")
            if not self.tau > 0:
                raise ConfigError("box.tau must be positive")
            if any(b <= 0 for b in self.betas) or any(
                b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])
            ):
                raise ConfigError("box.betas must be positive and increasing")
            try:
                for beta in self.betas:
                    check_box_fits(self.grid, BoxSpec(self.box_corner, self.box_side, beta))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if study == "flow-trace":
            if self.t_values is None:
                raise ConfigError("flow-trace study requires flow.t_values")
            t = self.t_values
            if t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
                raise ConfigError("flow.t_values must start at 0 and increase")
            if self.grid.dimension > self.dense_cap:
                raise DenseCapExceededError(
                    f"grid dimension {self.grid.dimension} exceeds the dense cap"
                )


def load_config(path: str, seed: int = 0) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_text(fh.read(), seed=seed)
