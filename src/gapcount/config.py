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

A key that nothing reads (a misspelt one, or one of another potential
kind) is a ConfigError, as is a dense_cap below 1.

ExperimentConfig validates a config once, when it is built: the cheap
checks first, so a malformed config fails fast, then, for the weyl,
theorem2 and oracle studies, the limiting law.  The Weyl coefficient is a
closed form; the theorem-2 integral J is the one quadrature that loads
QUADPACK (see asymptotic), so only a power-decay law pays for that import,
and it pays here, during set-up, rather than inside the study.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotic import AsymptoticPrediction, j_integral, phase_space_volume, weyl_coefficient
from .lattice import GridSpec, build_grid
from .operators import (DENSE_CAP, BoxSpec, DenseCapExceededError, LocalizationSpec,
                        box_mask, check_box_fits, check_zones_fit, potential_on_grid)
from .potential import DiskBump, Gaussian, PotentialSpec, PowerDecay
from .symbol import ModelParams

STUDIES = ("weyl", "theorem2", "crossterm", "box", "flow-trace", "oracle")
# largest Birman-Schwinger norm bound max V / (m - |lambda|) a config may
# set; Krylov vector norms overflow near 1e150, so this keeps a wide margin
BS_NORM_LIMIT = 1e100
# largest relative gap between the Weyl coefficient and the phase-space
# volume, a closed form and an independent quadrature of the same integral
WEYL_IDENTITY_TOL = 1e-6


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


class _ReadKeys(dict):
    """A parsed config that remembers which keys were read (by [] or get)."""

    def __init__(self, mapping):
        super().__init__(mapping)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _finite(key, token: str) -> float:
    """token as a float; ConfigError unless it is a finite number."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {token!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {token!r}")
    return value


def _get_float(mapping, key, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    return _finite(key, mapping[key])


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
    return [_finite(key, tok.strip()) for tok in mapping[key].split(",") if tok.strip()]


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
    # the law's oracle predictions by name and the seconds that evaluating
    # them took, the QUADPACK import included for J of a power decay; set by
    # validation for the weyl, theorem2 and oracle studies, empty and 0 for
    # the others
    law: dict[str, AsymptoticPrediction] = field(
        init=False, default_factory=dict, compare=False, repr=False)
    law_seconds: float = field(init=False, default=0.0, compare=False, repr=False)
    # the grid maximum of V; set by validation for the studies that weight
    # the grid by V, 0 for box and oracle
    potential_max: float = field(init=False, default=0.0, compare=False, repr=False)

    @classmethod
    def from_text(cls, text: str, seed: int = 0) -> "ExperimentConfig":
        """The config a text declares; ConfigError names every key it sets
        that nothing reads, such as a misspelt key or one of another
        potential kind."""
        mapping = _ReadKeys(parse_config_text(text))
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
        fields = dict(
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
            dense_cap=_get_int(mapping, "dense_cap", DENSE_CAP),
        )
        unread = sorted(set(mapping) - mapping.read)
        if unread:
            raise ConfigError(f"unknown or unused keys: {', '.join(unread)}")
        return cls(**fields, seed=seed, raw_text=text)

    def __post_init__(self) -> None:
        """Study-specific invariants, checked once at construction and before
        any heavy work: no operator is built, no block gathered, and V is
        evaluated on the grid only within the dense cap.  The law's
        quadratures run last, after every cheap check."""
        study = self.study
        if self.dense_cap < 1:
            raise ConfigError(f"dense_cap must be positive, got {self.dense_cap}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.potential is None and study != "box":
            raise ConfigError(f"study {study!r} requires potential.kind")
        if self.tau is not None and not (self.tau > 0 and self.box_side > 0):
            raise ConfigError("box.tau and box.side must be positive")
        if study in ("weyl", "theorem2", "crossterm") and self.alphas is None:
            raise ConfigError(f"study {study!r} requires alpha values")
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
            if not self.epsilon > 0:
                raise ConfigError("localization.epsilon must be positive")
            try:
                # the zones are largest at the largest coupling
                check_zones_fit(self.grid, LocalizationSpec(
                    self.eps1, self.eps2, float(self.alphas[-1]),
                    self.potential.exponent))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if study == "flow-trace":
            if self.t_values is None:
                raise ConfigError("flow-trace study requires flow.t_values")
            t = self.t_values
            if t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
                raise ConfigError("flow.t_values must start at 0 and increase")
        if study == "oracle":
            self._evaluate_law()
            return
        what, dim = "grid", self.grid.dimension
        if study == "box":
            if self.betas is None or self.tau is None:
                raise ConfigError("box study requires box.betas and box.tau")
            if any(b <= 0 for b in self.betas) or any(
                b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])
            ):
                raise ConfigError("box.betas must be positive and increasing")
            boxes = [BoxSpec(self.box_corner, self.box_side, beta) for beta in self.betas]
            try:
                for box in boxes:
                    check_box_fits(self.grid, box)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            # the cap bounds the two-component block of the box's N nodes,
            # 2N, although a count factors N x N arrays (harness._box_count)
            what, dim = "box block", max(
                2 * int(np.count_nonzero(box_mask(self.grid, box))) for box in boxes)
        if dim > self.dense_cap:
            raise DenseCapExceededError(
                f"{what} dimension {dim} exceeds the dense cap {self.dense_cap}")
        if study != "box":
            # every other study weights the grid by V: one evaluation, no operator
            with np.errstate(all="ignore"):
                v = potential_on_grid(self.grid, self.potential)
            if not np.all(np.isfinite(v)):
                raise ConfigError("the potential is not finite on every grid node")
            object.__setattr__(self, "potential_max", float(v.max()))
            bound = self.potential_max / self.model.gap_distance
            if bound > BS_NORM_LIMIT:
                raise ConfigError(
                    f"the Birman-Schwinger norm bound max V / (m - |lambda|) = "
                    f"{bound:.3g} exceeds {BS_NORM_LIMIT:g}")
        if study in ("weyl", "theorem2"):
            self._evaluate_law()

    def _evaluate_law(self) -> None:
        """The oracle predictions of the potential's law, evaluated once.

        A power-decay potential gets the theorem-2 integral J; an integrable
        one gets the closed-form Weyl coefficient and, as an internal
        identity, the phase-space volume, a fixed-order quadrature that must
        agree with it.  A non-finite prediction, one over its error budget
        or a failed identity (nan included) is a ConfigError.
        """
        t0 = time.perf_counter()
        try:
            if isinstance(self.potential, PowerDecay):
                law = {"j_integral": j_integral(self.model, self.potential)}
            else:
                law = {"weyl_coefficient": weyl_coefficient(self.potential),
                       "phase_space_volume": phase_space_volume(self.potential)}
        except ValueError as exc:
            raise ConfigError(f"the limiting law cannot be evaluated: {exc}") from exc
        if "weyl_coefficient" in law:
            coeff = law["weyl_coefficient"].value
            volume = law["phase_space_volume"].value
            if not abs(coeff - volume) <= WEYL_IDENTITY_TOL * max(coeff, 1.0):
                raise ConfigError(
                    f"weyl coefficient {coeff!r} and phase-space volume "
                    f"{volume!r} disagree beyond tolerance")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "law_seconds", time.perf_counter() - t0)


def load_config(path: str, seed: int = 0) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_text(fh.read(), seed=seed)
