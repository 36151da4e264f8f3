"""Body parameters, stride timing, geometry, and config-file loading."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .layout import (IP_X, IP_Y, IV_X1X, IV_X1Y, IV_X2X, IV_X2Y, IX_X1X,
                     IX_X1Y, IX_X2X, IX_X2Y, Q_DIM)


class ConfigError(ValueError):
    """Raised for malformed parameter/timing config files."""


class DegenerateModelError(RuntimeError):
    """The elimination system is singular (degenerate geometry or masses)."""


@dataclass(frozen=True)
class BodyParams:
    """Masses and segment geometry of the three-pendulum walker.

    m1 is the torso mass, m2 = m3 the (equal) leg masses.  z1 is the pelvis
    height, z2 the constant height of the leg-mass planes, z3 the torso-mass
    offset above the pelvis, and w the full pelvis width (hips sit at +-w/2).
    """

    m1: float
    m2: float
    m3: float
    z1: float
    z2: float
    z3: float
    w: float
    g: float = 9.81

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("z2", "z3", "w"):
                if not 0.0 <= value < math.inf:
                    raise ValueError(f"{f.name} must be finite and non-negative")
            elif not 0.0 < value < math.inf:
                raise ValueError(f"{f.name} must be finite and positive")
        if abs(self.m2 - self.m3) > 1e-12 * max(self.m2, self.m3):
            raise ValueError("asymmetric legs are not supported (m2 must equal m3)")

    @property
    def total_mass(self) -> float:
        return self.m1 + self.m2 + self.m3

    @property
    def kappa(self) -> float:
        """Leg-mass interpolation ratio z2/z1 along the leg."""
        return self.z2 / self.z1


@dataclass(frozen=True)
class StrideTiming:
    """Durations of the two phases of one stride (double then single support)."""

    T_ds: float
    T_ss: float

    def __post_init__(self):
        for name in ("T_ds", "T_ss"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")

    @property
    def T_stride(self) -> float:
        return self.T_ds + self.T_ss


_TABLE_TOTALS = {"adult": 70.0, "kid": 30.0}

_DEFAULTS = {
    "adult": BodyParams(m1=45.7, m2=12.15, m3=12.15,
                        z1=0.89, z2=0.32, z3=0.36, w=0.20),
    "kid": BodyParams(m1=19.6, m2=5.2, m3=5.2,
                      z1=0.52, z2=0.19, z3=0.22, w=0.12),
}


def default_params(size: str = "adult") -> BodyParams:
    """Reference adult-size (70 kg / 1.7 m) or kid-size (30 kg / 1.0 m) body."""
    try:
        params = _DEFAULTS[size]
    except KeyError:
        raise ValueError(f"unknown body size {size!r}, expected 'adult' or 'kid'")
    assert abs(params.total_mass - _TABLE_TOTALS[size]) <= 1e-6
    return params


def scaled_body(base: BodyParams, total_mass: float, height_scale: float = 1.0) -> BodyParams:
    """Same mass/geometry distribution at a different total mass and height."""
    ms = total_mass / base.total_mass
    return replace(base, m1=base.m1 * ms, m2=base.m2 * ms, m3=base.m3 * ms,
                   z1=base.z1 * height_scale, z2=base.z2 * height_scale,
                   z3=base.z3 * height_scale, w=base.w * height_scale)


def geometry(params: BodyParams, X1, X2, X3, d) -> dict[str, np.ndarray]:
    """Hip and mass positions from the pelvis and foot points.

    x2/x3 are the swing/stance hip points, y1 the torso mass, y2/y3 the leg
    masses interpolated a fraction z2/z1 down the leg from the hip.  The
    points may be stacked as rows (k, 3) with one side d per row (k,).
    """
    X1 = np.asarray(X1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    X3 = np.asarray(X3, dtype=float)
    d = np.asarray(d, dtype=float)
    half = np.zeros(d.shape + (3,))
    half[..., 1] = params.w * d / 2.0
    x2 = X1 + half
    x3 = X1 - half
    k = params.kappa
    return {
        "x2": x2,
        "x3": x3,
        "y1": X1 + np.array([0.0, 0.0, params.z3]),
        "y2": x2 + k * (X2 - x2),
        "y3": x3 + k * (X3 - x3),
    }


def com_velocity_matrix(params: BodyParams) -> np.ndarray:
    """Rows mapping Q to the horizontal CoM velocity (vx, vy).

    The three masses move as v1 = Xdot1, v2 = (1-k) Xdot1 + k Xdot2,
    v3 = (1-k) Xdot1 (stance foot fixed), so the CoM velocity is a fixed
    linear functional of the augmented vector in both phases.
    """
    k = params.kappa
    m_eff = params.m1 + (1.0 - k) * (params.m2 + params.m3)
    M = params.total_mass
    C = np.zeros((2, Q_DIM))
    C[0, IV_X1X] = m_eff / M
    C[0, IV_X2X] = k * params.m2 / M
    C[1, IV_X1Y] = m_eff / M
    C[1, IV_X2Y] = k * params.m2 / M
    return C


def mass_velocity_matrix(params: BodyParams) -> np.ndarray:
    """Rows mapping Q to the stacked horizontal mass velocities.

    Order: torso (vx, vy), swing-leg mass, stance-leg mass.  The matching
    mass for each row pair is (m1, m2, m3).
    """
    k = params.kappa
    V = np.zeros((6, Q_DIM))
    V[0, IV_X1X] = 1.0
    V[1, IV_X1Y] = 1.0
    V[2, IV_X1X] = 1.0 - k
    V[2, IV_X2X] = k
    V[3, IV_X1Y] = 1.0 - k
    V[3, IV_X2Y] = k
    V[4, IV_X1X] = 1.0 - k
    V[5, IV_X1Y] = 1.0 - k
    return V


def com_position_matrix(params: BodyParams) -> np.ndarray:
    """Rows mapping Q to the horizontal CoM position (the +-w d/2 hip
    offsets cancel between the equal leg masses)."""
    k = params.kappa
    m_eff = params.m1 + (1.0 - k) * (params.m2 + params.m3)
    M = params.total_mass
    C = np.zeros((2, Q_DIM))
    C[0, IX_X1X] = m_eff / M
    C[0, IX_X2X] = k * params.m2 / M
    C[0, IP_X] = k * params.m3 / M
    C[1, IX_X1Y] = m_eff / M
    C[1, IX_X2Y] = k * params.m2 / M
    C[1, IP_Y] = k * params.m3 / M
    return C


CONFIG_KEYS = ("m1", "m2", "m3", "z1", "z2", "z3", "w", "g", "T_ds", "T_ss")


@dataclass(frozen=True)
class LoadedConfig:
    params: BodyParams
    T_ds: float | None
    T_ss: float | None

    def timing(self) -> StrideTiming:
        if self.T_ds is None or self.T_ss is None:
            raise ConfigError("config is missing timing keys T_ds/T_ss")
        return StrideTiming(T_ds=self.T_ds, T_ss=self.T_ss)


def load_config(path: str | Path) -> LoadedConfig:
    """Load body parameters and optional timing from a key-value YAML file.

    Allowed keys are exactly m1 m2 m3 z1 z2 z3 w g T_ds T_ss; anything else
    is rejected by name.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config {path}: cannot read ({exc.strerror})") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path}: not valid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: expected a key-value mapping")
    for key in data:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
    values = {}
    for key, raw in data.items():
        try:
            if isinstance(raw, bool):       # float() would take true as 1.0
                raise TypeError
            values[key] = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config {path}: key {key!r} is not a number")
        if not math.isfinite(values[key]):
            raise ConfigError(f"config {path}: key {key!r} is not finite")
    missing = [k for k in ("m1", "m2", "m3", "z1", "z2", "z3", "w") if k not in values]
    if missing:
        raise ConfigError(f"config {path}: missing required keys {missing}")
    try:
        params = BodyParams(m1=values["m1"], m2=values["m2"], m3=values["m3"],
                            z1=values["z1"], z2=values["z2"], z3=values["z3"],
                            w=values["w"], g=values.get("g", 9.81))
    except ValueError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if "T_ds" in values and "T_ss" in values:
        try:
            StrideTiming(T_ds=values["T_ds"], T_ss=values["T_ss"])
        except ValueError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
    return LoadedConfig(params=params, T_ds=values.get("T_ds"), T_ss=values.get("T_ss"))
