import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from transportlab import drift as dr
from transportlab import flow as fl
from transportlab import noise as nz
from transportlab import parabolic as pb


def const_f(c):
    return lambda xs: np.full_like(xs, c)


def test_resolvent_constant_ansatz():
    # d_t u + u_xx/2 - lam u = c with constant u gives u = -c/lam
    u = pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(1.0), 4.0, L=6.0, n_x=256)
    assert np.max(np.abs(u.values + 0.25)) < 1e-8

    u0 = pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(0.0), 4.0, L=6.0, n_x=64)
    assert np.all(u0.values == 0.0)


def test_resolvent_stationary_oscillation():
    # u = -sin(kx)/(lam + k^2/2) away from the Neumann walls
    L, lam = 6.0, 4.0
    k = np.pi / L
    f = lambda xs: np.sin(k * xs)
    u = pb.solve_backward_resolvent(dr.ZeroDrift(), f, lam, L=L, n_x=512)
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
        u = pb.solve_backward_resolvent(dr.ZeroDrift(), f, lam, L=L, n_x=n_x)
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
    u = pb.solve_backward_resolvent(spec, const_f(1.0), lam, L=8.0, n_x=512)
    assert u.sup_norm() <= 1.1 / lam


@pytest.mark.parametrize(
    "lam, message",
    [(0.0, "must be positive"), (-1.0, "must be positive"), (np.nan, "must be finite"),
     (np.inf, "must be finite"), (-np.inf, "must be finite")],
)
def test_resolvent_rejects_a_bad_lambda(lam, message):
    # NaN compares false with lam <= 0, so it needs a check of its own
    with pytest.raises(pb.ParabolicError, match=message):
        pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(1.0), lam, L=2.0, n_x=16)


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
    tr = pb.build_zvonkin_transform(dr.ZeroDrift(), 10.0, L=4.0, n_x=128)
    assert tr.grad_sup == 0.0
    assert tr.forward(0.3, 0.7) == pytest.approx(0.7, abs=0)
    assert float(tr.inverse(0.3, np.asarray(0.7))) == pytest.approx(0.7)
    assert tr.drift_tilde(0.2, 0.5) == pytest.approx(0.0, abs=0)
    assert tr.sigma_tilde(0.2, 0.5) == pytest.approx(1.0, abs=0)


def test_zvonkin_inverse_consistency():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    tr = pb.build_zvonkin_transform(spec, 50.0, L=10.0, n_x=2048)
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
        pb.build_zvonkin_transform(spec, 1.0, L=10.0, n_x=1024)


def test_conjugated_equivalence():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    L, n_x = 12.0, 2048
    tr = pb.build_zvonkin_transform(spec, 50.0, L=L, n_x=n_x)
    dt = 2.0**-9
    path = nz.sample_brownian(11, 3, 1, 1.0, dt)
    direct = fl.integrate_sde(spec, path, 0.3, 0.0, 1.0)
    _, mapped = pb.integrate_conjugated(tr, path, 0.3, 0.0, 1.0)
    sup = np.max(np.abs(direct.states[:, 0] - mapped))
    assert sup < 3.0 * (np.sqrt(dt) + 2 * L / n_x)


def test_grad_decay_zero_drift_exact_zero():
    study = pb.grad_decay_study(dr.ZeroDrift(), [1.0, 3.0, 10.0, 30.0], L=4.0, n_x=128)
    assert study["slope"] is None
    assert all(r["grad_sup"] == 0.0 for r in study["rows"])


def test_grad_decay_slope_bracket():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.05, cap=2.0), 0.01)
    study = pb.grad_decay_study(spec, [10.0, 30.0, 100.0, 300.0], L=8.0, n_x=4096)
    sups = [r["grad_sup"] for r in study["rows"]]
    assert all(b <= a for a, b in zip(sups, sups[1:]))
    assert -0.65 <= study["slope"] <= -0.35
    with pytest.raises(pb.ParabolicError):
        pb.grad_decay_study(spec, [10.0, 5.0], L=4.0, n_x=64)


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
        pb.solve_backward_resolvent(dr.ZeroDrift(), f, 4.0, L=2.0, n_x=16)
    with pytest.raises(pb.ParabolicError, match="source f"):
        pb.solve_terminal_value(dr.ZeroDrift(), f, L=2.0, n_x=16, n_t=8, T=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mean_pde_rejects_non_finite_datum_before_marching(bad, monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("marched a non-finite datum")

    monkeypatch.setattr(pb, "_march", no_march)
    u0 = lambda xs: np.where(np.abs(xs) < 0.1, bad, 0.0)
    with pytest.raises(pb.ParabolicError, match="u0"):
        pb.solve_mean_pde(dr.ZeroDrift(), u0, L=2.0, n_x=16, n_t=8, T=0.5)


@pytest.mark.parametrize(
    "bad",
    [{"n_x": 0}, {"n_t": 0}, {"L": 0.0}, {"L": -1.0}, {"L": np.nan}, {"T": 0.0}, {"T": np.inf}],
    ids=["n_x=0", "n_t=0", "L=0", "L<0", "L=nan", "T=0", "T=inf"],
)
def test_solvers_reject_bad_grid(bad):
    # n_x=0 was an IndexError, n_t=0 a ZeroDivisionError, L=0 a field of NaN warnings
    grid = {"L": 2.0, "n_x": 16, "n_t": 8, "T": 0.5, **bad}
    name = next(iter(bad))
    if name in ("L", "n_x"):  # the stationary resolvent has no time grid
        with pytest.raises(pb.ParabolicError, match=f"^{name}="):
            pb.solve_backward_resolvent(dr.ZeroDrift(), const_f(1.0), 4.0, L=grid["L"], n_x=grid["n_x"])
    with pytest.raises(pb.ParabolicError, match=f"^{name}="):
        pb.solve_terminal_value(dr.ZeroDrift(), const_f(1.0), **grid)
    with pytest.raises(pb.ParabolicError, match=f"^{name}="):
        pb.solve_mean_pde(dr.ZeroDrift(), const_f(1.0), **grid)


def test_resolvent_constant_ansatz_any_drift():
    # constants kill the advection term: u = -c/lam for every bounded b
    lam = 4.0
    u = pb.solve_backward_resolvent(
        dr.HolderPowerDrift(gamma=0.5, cap=2.0), const_f(1.0), lam,
        L=8.0, n_x=512,
    )
    assert np.max(np.abs(u.values + 1.0 / lam)) < 1e-7


# The previous marches, kept as references: every step built the (3, n) band
# array of I + c (lam - A) and solved it with scipy's solve_banded.


def _solve_bands_reference(bands, lam, c, rhs):
    lower, diag, upper = bands
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = -c * upper[:-1]
    ab[1, :] = 1.0 + c * lam - c * diag
    ab[2, :-1] = -c * lower[1:]
    return solve_banded((1, 1), ab, rhs)


# The previous backward march evaluated a source f(t, xs) at both ends of
# every step, with times frozen at T inside the pad.


def _cn_step_reference(f, xs, dt, lam, u_next, k, T, bands):
    t_next = min(k * dt, T)
    t_here = min((k - 1) * dt, T)
    c = 0.5 * dt
    rhs = u_next + c * (pb._apply(bands, u_next) - lam * u_next)
    rhs -= c * (f(t_here, xs) + f(t_next, xs))
    return _solve_bands_reference(bands, lam, c, rhs)


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
    L, T, n_t, lam = 4.0, 0.5, 32, 4.0
    minus_b = lambda xs: -spec.value(0.0, xs[:, None])[:, 0]
    div_b = lambda xs: spec.divergence(0.0, xs[:, None])
    for n_x in (256, 1):  # n_x = 1: the 2-node system of a padded factorisation
        xs = np.linspace(-L, L, n_x + 1)
        # the resolvent is one solve of (lam - A) u = -f by scipy's banded solver
        u = pb.solve_backward_resolvent(spec, minus_b, lam, L, n_x)
        lower, diag, upper = pb._assemble(spec.value(0.0, xs[:, None])[:, 0], xs[1] - xs[0])
        ab = np.zeros((3, n_x + 1))
        ab[0, 1:], ab[1], ab[2, :-1] = -upper[:-1], lam - diag, -lower[1:]
        ref = solve_banded((1, 1), ab, -minus_b(xs))
        assert u.values.shape == (1, n_x + 1) and list(u.ts) == [0.0] and u.notes == []
        assert np.array_equal(u.values[0], ref) and u.values[0].tobytes() == ref.tobytes()
        F = pb.solve_terminal_value(spec, div_b, L, n_x, n_t, T)
        ref = _backward_reference(spec, lambda t, x: div_b(x), 0.0, L, n_x, T, n_t, 0.0)
        assert np.array_equal(F.values, ref) and F.values.tobytes() == ref.tobytes()


def test_backward_reference_march_converges_to_the_stationary_solve():
    # The padded Crank-Nicolson march has (lam - A) u = -f as its fixed point,
    # but CN damps grid-scale modes by a factor near -1 a step, so a coarse
    # march stops short of it; refining the step closes the gap down to the
    # pad's own contamination, ||f|| e^{-lam pad} / lam = 1e-8 / lam.
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    L, n_x, T, lam = 4.0, 256, 0.25, 300.0
    minus_b = lambda xs: -spec.value(0.0, xs[:, None])[:, 0]
    u = pb.solve_backward_resolvent(spec, minus_b, lam, L, n_x)
    pad = math.log(float(np.max(np.abs(minus_b(u.xs)))) / 1e-8) / lam
    errs = []
    for n_t in (16, 64, 256):
        ref = _backward_reference(spec, lambda t, x: minus_b(x), lam, L, n_x, T, n_t, pad)
        errs.append(np.max(np.abs(ref - u.values[0])))
    assert errs[0] > 1e3 * errs[1] and errs[1] > errs[2]
    assert errs[2] < 2e-8 / lam


def test_conjugated_euler_matches_three_inverse_loop_bitwise():
    # the previous loop inverted Psi once in each coefficient and once more
    # for the mapped-back point
    def three_call_loop(tr, path, x0, s, t):
        ks, kt, dt = path.index_of(s, "s"), path.index_of(t, "t"), path.dt
        y = float(tr.forward(s, float(x0)))
        X = np.empty(kt - ks + 1)
        X[0] = float(x0)
        for k in range(ks, kt):
            tk = k * dt
            y = y + float(tr.drift_tilde(tk, y)) * dt + float(tr.sigma_tilde(tk, y)) * path.increments[k, 0]
            X[k - ks + 1] = float(tr.inverse((k + 1) * dt, y))
        return X

    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    stationary = pb.build_zvonkin_transform(spec, 50.0, L=12.0, n_x=2048)
    # a psi that moves in t exercises the time interpolation as well
    xs, ts = np.linspace(-12.0, 12.0, 2049), np.linspace(0.0, 1.0, 5)
    psi = pb.SpaceTimeField(xs=xs, ts=ts, values=np.outer(1.0 + ts, 0.05 * np.sin(xs)))
    moving = pb.ZvonkinTransform(psi=psi, lam=50.0, grad_sup=0.1, dpsi=psi.x_derivative())
    path = nz.sample_brownian(11, 3, 1, 1.0, 2.0**-9)
    for tr, s, t in ((stationary, 0.0, 1.0), (moving, 0.0, 1.0), (moving, 0.25, 0.75)):
        times, mapped = pb.integrate_conjugated(tr, path, 0.3, s, t)
        ref = three_call_loop(tr, path, 0.3, s, t)
        assert len(times) == len(ref) and mapped.tobytes() == ref.tobytes()


def _forward_reference(spec, u0, L, n_x, n_t, T, laplacian_sign=1.0):
    """The previous forward loop: bands of both step ends built at every
    step, the blow-up guard freezing the clipped state into later rows."""
    xs = np.linspace(-L, L, n_x + 1)
    dt, h = T / n_t, xs[1] - xs[0]
    op_bands = lambda t: pb._assemble(-spec.value(t, xs[:, None])[:, 0], h, lap_sign=laplacian_sign)
    c = 0.5 * dt
    u = np.asarray(u0(xs), dtype=float)
    values = np.empty((n_t + 1, len(xs)))
    values[0] = u
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_t):
            rhs = u + c * pb._apply(op_bands(k * dt), u)
            if not np.all(np.isfinite(rhs)) or np.max(np.abs(rhs)) > 1e150:
                u = np.clip(np.nan_to_num(u, nan=1e150, posinf=1e150, neginf=-1e150), -1e150, 1e150)
                values[k + 1 :] = u
                return values, k
            u = _solve_bands_reference(op_bands((k + 1) * dt), 0.0, c, rhs)
            values[k + 1] = u
    return values, None


def _moving_field():
    xs = np.linspace(-4.0, 4.0, 65)
    ts = np.linspace(0.0, 1.0, 5)
    return pb.SpaceTimeField(xs=xs, ts=ts, values=np.outer(1.0 + ts, np.sin(xs)))


@pytest.mark.parametrize(
    "spec, sign, n_x, freezes",
    [
        (dr.ZeroDrift(), 1.0, 256, False),
        (dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05), 1.0, 256, False),
        (dr.LinearDrift(matrix=[[-1.3]]), 1.0, 1, False),
        (dr.GridSampledDrift(field=_moving_field()), 1.0, 256, False),
        (dr.ZeroDrift(), -1.0, 256, True),
        (dr.GridSampledDrift(field=_moving_field()), -1.0, 256, True),
    ],
    ids=["zero", "mollified", "linear-n_x=1", "grid-sampled", "flipped-zero", "flipped-grid-sampled"],
)
def test_mean_pde_matches_previous_march_bitwise(spec, sign, n_x, freezes):
    u0 = lambda xs: np.exp(-4 * xs**2)
    u = pb.solve_mean_pde(spec, u0, L=4.0, n_x=n_x, n_t=256, T=1.0, laplacian_sign=sign)
    ref, frozen_at = _forward_reference(spec, u0, 4.0, n_x, 256, 1.0, sign)
    assert np.array_equal(u.values, ref) and u.values.tobytes() == ref.tobytes()
    assert (frozen_at is not None) == freezes
    assert u.notes == (["solution overflowed (expected for the flipped sign)"] if freezes else [])


def test_static_solves_factor_once(monkeypatch):
    factored, built, marched = [], [], []
    factor, assemble, march = pb._factor, pb._assemble, pb._march
    monkeypatch.setattr(pb, "_factor", lambda *a: factored.append(1) or factor(*a))
    monkeypatch.setattr(pb, "_assemble", lambda *a, **k: built.append(1) or assemble(*a, **k))
    monkeypatch.setattr(pb, "_march", lambda *a, **k: marched.append(1) or march(*a, **k))
    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    for solve, marches in (
        # the resolvent is stationary: one factorisation and no march
        (lambda: pb.solve_backward_resolvent(spec, const_f(1.0), 4.0, L=4.0, n_x=64), 0),
        (lambda: pb.solve_terminal_value(spec, const_f(1.0), L=4.0, n_x=64, n_t=16, T=0.5), 1),
        (lambda: pb.solve_mean_pde(spec, const_f(1.0), L=4.0, n_x=64, n_t=16, T=0.5), 1),
    ):
        factored.clear(), built.clear(), marched.clear()
        solve()
        assert (len(factored), len(built), len(marched)) == (1, 1, marches)
    # a time-dependent drift: one operator and one factorisation per level
    factored.clear(), built.clear()
    pb.solve_mean_pde(dr.GridSampledDrift(field=_moving_field()), const_f(1.0), L=4.0, n_x=64, n_t=16, T=0.5)
    assert (len(factored), len(built)) == (16, 17)


def test_solvers_raise_parabolic_errors():
    one = const_f(1.0)
    # exactly singular: I + (0 - A) with the flipped Laplacian has a zero pivot
    with pytest.raises(pb.ParabolicError, match="singular tridiagonal system"):
        pb.solve_mean_pde(dr.ZeroDrift(), one, L=1, n_x=2, n_t=1, T=2, laplacian_sign=-1)
    # b = 1e308 x overflows on the grid: the backward guard raises, never a
    # field, and the resolvent's system cannot be factored
    huge = dr.LinearDrift(matrix=[[1e308]])
    with pytest.raises(pb.ParabolicError, match="overflowed"):
        pb.solve_terminal_value(huge, one, L=4, n_x=16, n_t=8, T=0.5)
    with pytest.raises(pb.ParabolicError, match="non-finite tridiagonal system"):
        pb.solve_backward_resolvent(huge, one, 4.0, L=4, n_x=16)
    # a finite state whose next operator is not finite cannot be factored
    xs = np.linspace(-4.0, 4.0, 3)
    spike = pb.SpaceTimeField(xs=xs, ts=np.array([0.0, 1.0]), values=np.array([[0.0] * 3, [1e308] * 3]))
    with pytest.raises(pb.ParabolicError, match="non-finite tridiagonal system"):
        pb.solve_mean_pde(dr.GridSampledDrift(field=spike), one, L=4, n_x=64, n_t=1, T=1.0)


def test_backward_solvers_refuse_time_dependent_drift():
    fld = pb.SpaceTimeField(xs=np.linspace(-1, 1, 3), ts=np.array([0.0, 1.0]), values=np.zeros((2, 3)))
    spec = dr.GridSampledDrift(field=fld)
    with pytest.raises(pb.ParabolicError, match="time-independent"):
        pb.solve_backward_resolvent(spec, const_f(1.0), 4.0, L=2.0, n_x=16)
    with pytest.raises(pb.ParabolicError, match="time-independent"):
        pb.solve_terminal_value(spec, const_f(1.0), L=2.0, n_x=16, n_t=8, T=0.5)
    # a mollified drift is never time-dependent: it refuses this base
    with pytest.raises(dr.DriftError, match="GridSampledDrift"):
        dr.mollify_drift(spec, 0.1)
