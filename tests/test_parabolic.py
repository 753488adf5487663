import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import drift as dr
from transportlab import flow as fl
from transportlab import noise as nz
from transportlab import parabolic as pb


def const_f(c):
    return lambda xs: np.full_like(xs, c)


def test_resolvent_constant_ansatz():
    # d_t u + u_xx/2 - lam u = c with constant u gives u = -c/lam
    u = pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(1.0), 4.0, L=6.0, n_x=256, T=1.0, n_t=128)
    assert np.max(np.abs(u.values + 0.25)) < 1e-8

    u0 = pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(0.0), 4.0, L=6.0, n_x=64, T=0.5, n_t=32)
    assert np.all(u0.values == 0.0)


def test_resolvent_stationary_oscillation():
    # u = -sin(kx)/(lam + k^2/2) away from the Neumann walls
    L, lam = 6.0, 4.0
    k = np.pi / L
    f = lambda xs: np.sin(k * xs)
    u = pb.solve_backward_resolvent(dr.ZeroDrift(), f, lam, L=L, n_x=512, T=1.0, n_t=256)
    exact = -np.sin(k * u.xs) / (lam + k * k / 2.0)
    interior = np.abs(u.xs) <= L / 2
    assert np.max(np.abs(u.values[0][interior] - exact[interior])) < 1e-3


def test_resolvent_grid_convergence_bracket():
    # Neumann-compatible oracle u = -cos(kx)/(lam + k^2/2); halving h cuts
    # the error by the second-order factor
    L, lam = 6.0, 4.0
    k = np.pi / L
    f = lambda xs: np.cos(k * xs)
    errs = []
    for n_x in (128, 256, 512):
        u = pb.solve_backward_resolvent(dr.ZeroDrift(), f, lam, L=L, n_x=n_x, T=0.5, n_t=2048)
        exact = -np.cos(k * u.xs) / (lam + k * k / 2.0)
        errs.append(np.max(np.abs(u.values[0] - exact)))
    factors = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(3.0 <= f_ <= 5.0 for f_ in factors)


@pytest.mark.parametrize(
    "spec",
    [
        dr.ZeroDrift(),
        dr.HolderPowerDrift(gamma=0.5, cap=2.0),
        dr.mollify_drift(dr.HolderPowerDrift(gamma=0.3, cap=2.0), 0.05),
    ],
)
def test_resolvent_maximum_principle(spec):
    lam = 4.0
    u = pb.solve_backward_resolvent(spec, const_f(1.0), lam, L=8.0, n_x=512, T=1.0, n_t=256)
    assert u.sup_norm() <= 1.1 / lam


def test_resolvent_pad_warning():
    u = pb.solve_backward_resolvent(
        dr.ZeroDrift(), const_f(1.0), 2.0, L=4.0, n_x=64, T=0.5, n_t=32, horizon_pad=0.1
    )
    assert u.notes and "horizon_pad" in u.notes[0]


def test_terminal_value_oracles():
    z = dr.ZeroDrift()
    F = pb.solve_terminal_value(z, const_f(3.0), L=6.0, n_x=128, n_t=64, T=1.0)
    assert np.max(np.abs(F.values[0] + 3.0)) < 1e-10  # F(0) = -c T
    assert np.all(F.values[-1] == 0.0)

    F0 = pb.solve_terminal_value(z, const_f(0.0), L=6.0, n_x=64, n_t=32, T=1.0)
    assert np.all(F0.values == 0.0)

    # separation of variables: F = sin(kx) (e^{-k^2 (T-t)/2} - 1)/(k^2/2)
    L = 6.0
    k = np.pi / L
    f = lambda xs: np.sin(k * xs)
    F = pb.solve_terminal_value(z, f, L=L, n_x=512, n_t=512, T=1.0)
    exact = np.sin(k * F.xs) * (np.exp(-k * k * 1.0 / 2.0) - 1.0) / (k * k / 2.0)
    interior = np.abs(F.xs) <= L / 2
    assert np.max(np.abs(F.values[0][interior] - exact[interior])) < 1e-3


def test_mean_pde_heat_oracle():
    s = 0.5
    u0 = lambda xs: np.exp(-(xs**2) / (2 * s * s))
    u = pb.solve_mean_pde(dr.ZeroDrift(), u0, L=8.0, n_x=1024, n_t=256, T=1.0)
    exact = s / np.sqrt(s * s + 1.0) * np.exp(-(u.xs**2) / (2 * (s * s + 1.0)))
    assert np.max(np.abs(u.values[-1] - exact)) < 1e-4
    # maximum principle, every step
    assert u.values.min() >= -1e-8 and u.values.max() <= 1.0 + 1e-8


def test_mean_pde_constants_invariant():
    u = pb.solve_mean_pde(
        dr.HolderPowerDrift(gamma=0.5, cap=2.0), lambda xs: np.full_like(xs, 0.7),
        L=6.0, n_x=128, n_t=64, T=0.5,
    )
    assert np.max(np.abs(u.values - 0.7)) < 1e-12


def test_mean_pde_ou_interior():
    a = 0.5
    u = pb.solve_mean_pde(
        dr.LinearDrift(matrix=[[a]]), lambda xs: np.clip(xs, -3, 3),
        L=8.0, n_x=1024, n_t=256, T=0.5,
    )
    interior = np.abs(u.xs) <= 1.0
    exact = u.xs[interior] * np.exp(-a * 0.5)
    assert np.max(np.abs(u.values[-1][interior] - exact)) < 1e-3


def test_mean_pde_mass_conservation_divergence_free():
    # constant field sampled on a grid: divergence-free advection
    xs = np.linspace(-8, 8, 257)
    fld = pb.SpaceTimeField(xs=xs, ts=np.linspace(0, 1, 3), values=np.full((3, 257), 0.8))
    spec = dr.GridSampledDrift(field=fld)
    u = pb.solve_mean_pde(spec, lambda x: np.exp(-4 * x**2), L=8.0, n_x=512, n_t=128, T=1.0)
    w = np.ones(len(u.xs))
    w[0] = w[-1] = 0.5
    mass = u.values @ w * u.h
    assert np.max(np.abs(np.diff(mass))) < 1e-8


def test_zvonkin_identity_for_zero_drift():
    tr = pb.build_zvonkin_transform(dr.ZeroDrift(), 10.0, L=4.0, n_x=128, T=1.0, n_t=64)
    assert tr.grad_sup == 0.0
    assert tr.forward(0.3, 0.7) == pytest.approx(0.7, abs=0)
    assert float(tr.inverse(0.3, np.asarray(0.7))) == pytest.approx(0.7)
    assert tr.drift_tilde(0.2, 0.5) == pytest.approx(0.0, abs=0)
    assert tr.sigma_tilde(0.2, 0.5) == pytest.approx(1.0, abs=0)


def test_zvonkin_inverse_consistency():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    tr = pb.build_zvonkin_transform(spec, 50.0, L=10.0, n_x=2048, T=1.0, n_t=128)
    assert tr.grad_sup < 1.0
    ys = np.linspace(-3, 3, 41)
    h_x = 2 * 10.0 / 2048
    assert np.max(np.abs(tr.forward(0.5, tr.inverse(0.5, ys)) - ys)) < 2 * h_x
    # Psi(t, .) strictly increasing on the grid
    fwd = tr.psi.xs + tr.psi.time_slice(0.5)
    assert np.min(np.diff(fwd)) > 0


def test_zvonkin_refuses_small_lambda():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    with pytest.raises(pb.ParabolicError, match="try lambda"):
        pb.build_zvonkin_transform(spec, 1.0, L=10.0, n_x=1024, T=1.0, n_t=64)


def test_conjugated_equivalence():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    L, n_x = 12.0, 2048
    tr = pb.build_zvonkin_transform(spec, 50.0, L=L, n_x=n_x, T=1.0, n_t=128)
    dt = 2.0**-9
    path = nz.sample_brownian(11, 3, 1, 1.0, dt)
    direct = fl.integrate_sde(spec, path, 0.3, 0.0, 1.0)
    _, mapped = pb.integrate_conjugated(tr, path, 0.3, 0.0, 1.0)
    sup = np.max(np.abs(direct.states[:, 0] - mapped))
    assert sup < 3.0 * (np.sqrt(dt) + 2 * L / n_x)


def test_grad_decay_zero_drift_exact_zero():
    study = pb.grad_decay_study(dr.ZeroDrift(), [1.0, 3.0, 10.0, 30.0], L=4.0, n_x=128, T=0.5, n_t=32)
    assert study["slope"] is None
    assert all(r["grad_sup"] == 0.0 for r in study["rows"])


def test_grad_decay_slope_bracket():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.05, cap=2.0), 0.01)
    study = pb.grad_decay_study(spec, [10.0, 30.0, 100.0, 300.0], L=8.0, n_x=4096, T=1.0, n_t=256)
    sups = [r["grad_sup"] for r in study["rows"]]
    assert all(b <= a for a, b in zip(sups, sups[1:]))
    assert -0.65 <= study["slope"] <= -0.35
    with pytest.raises(pb.ParabolicError):
        pb.grad_decay_study(spec, [10.0, 5.0], L=4.0, n_x=64, T=0.5, n_t=16)


def test_ito_tanaka_constant_integrand():
    path = nz.sample_brownian(2, 5, 1, 1.0, 2**-10)
    (rep,) = pb.ito_tanaka_check(dr.ZeroDrift(), const_f(2.5), [path], 0.1, L=8.0, n_x=512, n_t=128)
    assert rep["lhs"] == pytest.approx(2.5, rel=1e-12)
    assert rep["residual"] < 1e-10

    (rep0,) = pb.ito_tanaka_check(dr.ZeroDrift(), const_f(0.0), [path], 0.1, L=8.0, n_x=128, n_t=32)
    assert rep0["lhs"] == 0.0 and rep0["rhs"] == 0.0


def test_ito_tanaka_exit_raises():
    path = nz.sample_brownian(2, 5, 1, 1.0, 2**-8)
    with pytest.raises(pb.ParabolicError, match="enlarge L"):
        pb.ito_tanaka_check(dr.ZeroDrift(), const_f(1.0), [path], 0.0, L=0.05, n_x=32, n_t=32)


def test_field_interpolation_helpers():
    xs = np.linspace(-1, 1, 5)
    ts = np.linspace(0, 1, 3)
    vals = np.outer(ts + 1.0, xs)
    fld = pb.SpaceTimeField(xs=xs, ts=ts, values=vals)
    # bilinear in both arguments reproduces the product exactly
    assert fld.interpolate(0.25, 0.3) == pytest.approx(1.25 * 0.3)
    pairs = fld.interpolate_pairs(np.array([0.25, 0.75]), np.array([0.3, -0.1]))
    assert pairs == pytest.approx([1.25 * 0.3, 1.75 * -0.1])
    d = fld.x_derivative()
    assert d.values[1] == pytest.approx(np.full(5, 1.5))


def test_field_csv_and_sidecar():
    xs = np.linspace(-1, 1, 3)
    ts = np.linspace(0, 1, 2)
    fld = pb.SpaceTimeField(xs=xs, ts=ts, values=np.zeros((2, 3)))
    buf, side = io.StringIO(), io.StringIO()
    fld.to_csv(buf, sidecar=side)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 4  # header + one row per x node
    meta = json.loads(side.getvalue())
    assert meta["n_x"] == 2 and meta["bc"] == "neumann"


_csv_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(1, 5), n_x=st.integers(1, 6), data=st.data())
def test_field_csv_roundtrip_property(n_t, n_x, data):
    draw = lambda size: np.array(data.draw(st.lists(_csv_floats, min_size=size, max_size=size)))
    fld = pb.SpaceTimeField(xs=draw(n_x), ts=draw(n_t), values=draw(n_t * n_x).reshape(n_t, n_x))
    buf = io.StringIO()
    fld.to_csv(buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0][0] == "x\\t"
    ts = np.array([float(v) for v in rows[0][1:]])
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(ts, fld.ts) and np.array_equal(body[:, 0], fld.xs)
    assert np.array_equal(body[:, 1:], fld.values.T)
    assert body[:, 1:].T.tobytes() == fld.values.tobytes()  # signed zeros too


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_solvers_reject_non_finite_source(bad):
    f = lambda xs: np.where(xs > 0.5, bad, 1.0)
    with pytest.raises(pb.ParabolicError, match="source f"):
        pb.solve_backward_resolvent(dr.ZeroDrift(), f, 4.0, L=2.0, n_x=16, T=0.5, n_t=8)
    with pytest.raises(pb.ParabolicError, match="source f"):
        pb.solve_terminal_value(dr.ZeroDrift(), f, L=2.0, n_x=16, n_t=8, T=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mean_pde_rejects_non_finite_datum_before_marching(bad, monkeypatch):
    def no_march(*args):
        raise AssertionError("marched a non-finite datum")

    monkeypatch.setattr(pb, "_solve_bands", no_march)
    u0 = lambda xs: np.where(np.abs(xs) < 0.1, bad, 0.0)
    with pytest.raises(pb.ParabolicError, match="u0"):
        pb.solve_mean_pde(dr.ZeroDrift(), u0, L=2.0, n_x=16, n_t=8, T=0.5)


def test_resolvent_constant_ansatz_any_drift():
    # constants kill the advection term: u = -c/lam for every bounded b
    lam = 4.0
    u = pb.solve_backward_resolvent(
        dr.HolderPowerDrift(gamma=0.5, cap=2.0), const_f(1.0), lam,
        L=8.0, n_x=512, T=1.0, n_t=256,
    )
    assert np.max(np.abs(u.values + 1.0 / lam)) < 1e-7


# The previous backward march, kept as the reference: every step evaluated a
# source f(t, xs) at both of its ends, with times frozen at T inside the pad.


def _cn_step_reference(f, xs, dt, lam, u_next, k, T, bands):
    t_next = min(k * dt, T)
    t_here = min((k - 1) * dt, T)
    c = 0.5 * dt
    rhs = u_next + c * (pb._apply(bands, u_next) - lam * u_next)
    rhs -= c * (f(t_here, xs) + f(t_next, xs))
    return pb._solve_bands(bands, lam, c, rhs)


def _backward_reference(spec, f, lam, L, n_x, T, n_t, pad):
    xs = np.linspace(-L, L, n_x + 1)
    dt = T / n_t
    bands = pb._assemble(spec.value(T, xs[:, None])[:, 0], xs[1] - xs[0])
    pad_steps = int(math.ceil(pad / dt)) if pad > 0 else 0
    u = np.zeros_like(xs)
    for k in range(n_t + pad_steps, n_t, -1):
        u = _cn_step_reference(f, xs, dt, lam, u, k, T, bands)
    values = np.empty((n_t + 1, len(xs)))
    values[n_t] = u
    for k in range(n_t, 0, -1):
        u = _cn_step_reference(f, xs, dt, lam, u, k, T, bands)
        values[k - 1] = u
    return values


@pytest.mark.parametrize(
    "spec",
    [
        dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True),
        dr.HolderPowerDrift(gamma=0.3, cap=1.5, signed=False),
        dr.LinearDrift(matrix=[[-1.3]]),
        dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05),
    ],
)
def test_backward_solvers_match_previous_march_bitwise(spec):
    L, n_x, T, n_t, lam = 4.0, 256, 0.5, 32, 4.0
    minus_b = lambda xs: -spec.value(0.0, xs[:, None])[:, 0]
    div_b = lambda xs: spec.divergence(0.0, xs[:, None])
    xs = np.linspace(-L, L, n_x + 1)
    needed = math.log(float(np.max(np.abs(minus_b(xs)))) / 1e-8) / lam
    for pad, expect_pad in ((None, needed), (0.1, 0.1), (0.0, 0.0)):
        u = pb.solve_backward_resolvent(spec, minus_b, lam, L, n_x, T, n_t, horizon_pad=pad)
        ref = _backward_reference(spec, lambda t, x: minus_b(x), lam, L, n_x, T, n_t, expect_pad)
        assert np.array_equal(u.values, ref)
        assert bool(u.notes) == (pad is not None)
    F = pb.solve_terminal_value(spec, div_b, L, n_x, n_t, T)
    ref = _backward_reference(spec, lambda t, x: div_b(x), 0.0, L, n_x, T, n_t, 0.0)
    assert np.array_equal(F.values, ref)


def test_backward_solvers_refuse_time_dependent_drift():
    fld = pb.SpaceTimeField(xs=np.linspace(-1, 1, 3), ts=np.array([0.0, 1.0]), values=np.zeros((2, 3)))
    for spec in (dr.GridSampledDrift(field=fld), dr.mollify_drift(dr.RandomShiftSqrtDrift(), 0.1)):
        with pytest.raises(pb.ParabolicError, match="time-independent"):
            pb.solve_backward_resolvent(spec, const_f(1.0), 4.0, L=2.0, n_x=16, T=0.5, n_t=8)
        with pytest.raises(pb.ParabolicError, match="time-independent"):
            pb.solve_terminal_value(spec, const_f(1.0), L=2.0, n_x=16, n_t=8, T=0.5)
