import re

import numpy as np
import pytest

from linwalk.model import (
    BodyParams, ConfigError, StrideTiming, com_position_matrix,
    com_velocity_matrix, default_params, geometry, load_config,
    mass_velocity_matrix, scaled_body,
)


def test_default_adult_values():
    p = default_params("adult")
    assert p.m1 == 45.7
    assert p.m2 == p.m3 == 12.15
    assert p.z1 == 0.89
    assert p.z2 == 0.32
    assert p.z3 == 0.36
    assert p.w / 2 == pytest.approx(0.1)
    assert abs(p.total_mass - 70.0) <= 1e-6


def test_default_kid_values():
    p = default_params("kid")
    assert p.z1 == 0.52
    assert p.m1 == 19.6
    assert p.m2 == 5.2
    assert abs(p.total_mass - 30.0) <= 1e-6


def test_param_validation():
    with pytest.raises(ValueError):
        BodyParams(m1=-1, m2=1, m3=1, z1=1, z2=0.3, z3=0.3, w=0.2)
    with pytest.raises(ValueError):
        BodyParams(m1=10, m2=1.0, m3=1.5, z1=1, z2=0.3, z3=0.3, w=0.2)
    with pytest.raises(ValueError):
        BodyParams(m1=10, m2=1, m3=1, z1=0.0, z2=0.3, z3=0.3, w=0.2)
    with pytest.raises(ValueError):
        StrideTiming(T_ds=0.0, T_ss=0.5)
    assert StrideTiming(0.1, 0.6).T_stride == pytest.approx(0.7)


def test_geometry_hip_offset(adult):
    geo = geometry(adult, [0, 0, 0.89], [0.3, 0.1, 0], [0, -0.1, 0], d=+1.0)
    assert np.allclose(geo["x2"], [0, 0.1, 0.89])
    assert np.allclose(geo["x3"], [0, -0.1, 0.89])
    assert np.allclose(geo["y1"], [0, 0, 1.25])


def test_geometry_zero_width_and_fixed_point(adult):
    p0 = BodyParams(m1=45.7, m2=12.15, m3=12.15, z1=0.89, z2=0.32, z3=0.36, w=0.0)
    X1 = np.array([0.2, -0.1, 0.89])
    geo = geometry(p0, X1, [0, 0, 0], [0, 0, 0], d=1.0)
    assert np.allclose(geo["x2"], X1)
    assert np.allclose(geo["x3"], X1)
    # leg mass collapses to the hip when the foot sits under the hip
    geo2 = geometry(adult, [0, 0, 0.89], geometry(adult, [0, 0, 0.89],
                    [0, 0, 0], [0, 0, 0], 1.0)["x2"], [0, 0, 0], 1.0)
    assert np.allclose(geo2["y2"], geo2["x2"])


def test_geometry_is_linear(adult):
    rng = np.random.default_rng(5)
    A = [rng.normal(size=3) for _ in range(3)]
    B = [rng.normal(size=3) for _ in range(3)]
    ga = geometry(adult, *A, d=1.0)
    gb = geometry(adult, *B, d=1.0)
    gsum = geometry(adult, *(a + b for a, b in zip(A, B)), d=2.0)
    for key in ("x2", "x3", "y2", "y3"):
        # positions are affine through the w*d/2 offset; doubling d with the
        # sum of inputs reproduces the sum of the individual offsets
        assert np.allclose(ga[key] + gb[key], gsum[key]), key


def test_scaled_body_keeps_distribution(adult):
    b = scaled_body(adult, 66.0)
    assert b.total_mass == pytest.approx(66.0)
    assert b.m1 / b.m2 == pytest.approx(adult.m1 / adult.m2)
    assert b.z1 == adult.z1  # same height by default


def test_com_operators_consistent(adult):
    """Total momentum from the mass rows equals M times the CoM velocity."""
    Vm = mass_velocity_matrix(adult)
    Cv = com_velocity_matrix(adult)
    m = np.repeat([adult.m1, adult.m2, adult.m3], 2)
    total = np.zeros_like(Cv)
    for i in range(3):
        total += np.array([m[2 * i] * Vm[2 * i], m[2 * i + 1] * Vm[2 * i + 1]])
    assert np.allclose(total, adult.total_mass * Cv)
    # CoM position of the symmetric standing pose is at the pelvis
    Cp = com_position_matrix(adult)
    Q = np.zeros(23)
    Q[2], Q[3] = 0.4, -0.2   # pelvis
    Q[0], Q[1] = 0.4, -0.2   # swing foot under pelvis
    Q[8], Q[9] = 0.4, -0.2   # stance foot under pelvis
    assert np.allclose(Cp @ Q, [0.4, -0.2])


def test_load_config_roundtrip(adult_config, adult):
    cfg = load_config(adult_config)
    assert cfg.params == adult
    assert cfg.timing() == StrideTiming(0.3, 0.56)


def test_load_config_defaults_gravity(tmp_path):
    path = tmp_path / "nog.yaml"
    path.write_text("m1: 45.7\nm2: 12.15\nm3: 12.15\n"
                    "z1: 0.89\nz2: 0.32\nz3: 0.36\nw: 0.2\n")
    cfg = load_config(path)
    assert cfg.params.g == 9.81
    with pytest.raises(ConfigError):
        cfg.timing()


def test_load_config_unreadable_path_is_config_error(tmp_path):
    """A missing file or a directory is a ConfigError naming the path."""
    for path in (tmp_path / "missing.yaml", tmp_path):
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("m1: 1\nm2: 1\nm3: 1\nz1: 1\nz2: 0\nz3: 0\nw: 0\nmass: 3\n")
    with pytest.raises(ConfigError, match="mass"):
        load_config(path)


def test_load_config_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad2.yaml"
    path.write_text("m1: hello\n")
    with pytest.raises(ConfigError, match="m1"):
        load_config(path)


@pytest.mark.parametrize("bad", ["true", "false", "yes", "on"])
def test_load_config_rejects_boolean(adult_config, tmp_path, bad):
    """A YAML boolean is not a number, though float() would take it as 1.0
    or 0.0."""
    lines = [f"w: {bad}" if line.startswith("w:") else line
             for line in open(adult_config).read().splitlines()]
    path = tmp_path / "boolean.yaml"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="key 'w' is not a number"):
        load_config(path)


def test_load_config_missing_required(tmp_path):
    path = tmp_path / "missing.yaml"
    path.write_text("m1: 45.7\nm2: 12.15\nm3: 12.15\n")
    with pytest.raises(ConfigError, match="missing"):
        load_config(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_rejected(bad):
    good = dict(m1=45.7, m2=12.15, m3=12.15, z1=0.89, z2=0.32, z3=0.36, w=0.2, g=9.81)
    for name in good:
        with pytest.raises(ValueError, match=name):
            BodyParams(**{**good, name: bad})
    with pytest.raises(ValueError, match="T_ds"):
        StrideTiming(bad, 0.5)
    with pytest.raises(ValueError, match="T_ss"):
        StrideTiming(0.1, bad)


@pytest.mark.parametrize("key", ["m1", "w", "T_ds", "T_ss"])
@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
def test_load_config_rejects_non_finite(adult_config, tmp_path, key, bad):
    lines = [f"{key}: {bad}" if line.startswith(key + ":") else line
             for line in open(adult_config).read().splitlines()]
    path = tmp_path / "nonfinite.yaml"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


@pytest.mark.parametrize("key,bad", [("T_ds", "-0.1"), ("T_ss", "0")])
def test_load_config_rejects_non_positive_timing(adult_config, tmp_path, key, bad):
    lines = [f"{key}: {bad}" if line.startswith(key + ":") else line
             for line in open(adult_config).read().splitlines()]
    path = tmp_path / "negative.yaml"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*" + key):
        load_config(path)
