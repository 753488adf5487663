"""1-d Crank-Nicolson solvers for the resolvent system, the terminal-value
problem and the mean advection-diffusion equation, plus the auxiliary-function
identity checker and the drift-removing change of variables.

Conventions.  All problems live on the truncated domain [-L, L] with
homogeneous Neumann walls (mirror ghost nodes, second order).  The backward
resolvent lives on an unbounded time horizon; it is truncated at T + pad with
terminal guess 0, so the terminal contamination at times <= T is bounded by
exp(-lambda * pad).  Marching is unconditionally stable Crank-Nicolson over a
tridiagonal banded solve.  The backward solvers take a time-independent drift
and a source f(xs), so each solve builds its bands and right-hand side once;
the mean equation also marches time-dependent drifts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .drift import Drift, _fields_equal
from . import flow as _flow
from . import noise as _noise

__all__ = [
    "SpaceTimeField",
    "ZvonkinTransform",
    "ParabolicError",
    "solve_backward_resolvent",
    "solve_terminal_value",
    "solve_mean_pde",
    "build_zvonkin_transform",
    "grad_decay_study",
    "integrate_conjugated",
    "ito_tanaka_check",
]


class ParabolicError(RuntimeError):
    pass


@dataclass
class SpaceTimeField:
    """Scalar field on a uniform [-L, L] x [t_a, t_b] grid."""

    xs: np.ndarray
    ts: np.ndarray
    values: np.ndarray          # (n_t + 1, n_x + 1)
    bc: str = "neumann"
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.values.shape != (len(self.ts), len(self.xs)):
            raise ParabolicError("field values must be (n_t+1, n_x+1)")
        if not np.all(np.isfinite(self.values)):
            raise ParabolicError("field contains non-finite values")

    __eq__ = _fields_equal

    @property
    def h(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dt(self):
        return float(self.ts[1] - self.ts[0]) if len(self.ts) > 1 else 0.0

    def time_slice(self, t):
        """Values at time t, linear interpolation between stored slices."""
        if len(self.ts) == 1:
            return self.values[0]
        pos = (t - self.ts[0]) / self.dt
        k = int(np.floor(pos))
        k = min(max(k, 0), len(self.ts) - 2)
        frac = pos - k
        frac = min(max(frac, 0.0), 1.0)
        if frac == 0.0:
            return self.values[k]
        return (1.0 - frac) * self.values[k] + frac * self.values[k + 1]

    def interpolate(self, t, x):
        """Bilinear interpolation; x may be scalar or array."""
        row = self.time_slice(t)
        return np.interp(np.asarray(x, dtype=float), self.xs, row)

    def interpolate_pairs(self, ts, xs):
        """Vectorized bilinear interpolation at paired (t, x) samples."""
        ts = np.asarray(ts, dtype=float)
        xs = np.asarray(xs, dtype=float)
        hpos = np.clip((xs - self.xs[0]) / self.h, 0.0, len(self.xs) - 1.0)
        j = np.clip(np.floor(hpos).astype(int), 0, len(self.xs) - 2)
        xf = hpos - j
        if len(self.ts) == 1:
            row = self.values[0]
            return (1.0 - xf) * row[j] + xf * row[j + 1]
        pos = np.clip((ts - self.ts[0]) / self.dt, 0.0, len(self.ts) - 1.0)
        k = np.clip(np.floor(pos).astype(int), 0, len(self.ts) - 2)
        tf = pos - k
        lo = (1.0 - xf) * self.values[k, j] + xf * self.values[k, j + 1]
        hi = (1.0 - xf) * self.values[k + 1, j] + xf * self.values[k + 1, j + 1]
        return (1.0 - tf) * lo + tf * hi

    def x_derivative(self):
        """Centered-difference derivative field (one-sided at the walls)."""
        d = np.gradient(self.values, self.xs, axis=1)
        return SpaceTimeField(xs=self.xs, ts=self.ts, values=d, bc=self.bc)

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def to_csv(self, fileobj, sidecar=None):
        """x rows, t columns; grid metadata goes to the JSON sidecar."""
        writer = csv.writer(fileobj)
        writer.writerow(["x\\t"] + [f"{t:.17g}" for t in self.ts])
        for j, x in enumerate(self.xs):
            writer.writerow([f"{x:.17g}"] + [f"{v:.17g}" for v in self.values[:, j]])
        if sidecar is not None:
            json.dump(
                {
                    "x_min": float(self.xs[0]),
                    "x_max": float(self.xs[-1]),
                    "n_x": len(self.xs) - 1,
                    "t_min": float(self.ts[0]),
                    "t_max": float(self.ts[-1]),
                    "n_t": len(self.ts) - 1,
                    "bc": self.bc,
                    "notes": list(self.notes),
                },
                sidecar,
                indent=2,
                sort_keys=True,
            )


# ---------------------------------------------------------------------------
# tridiagonal operator A u = lap_sign * u_xx / 2 + b u_x with mirror walls


def _assemble(bvals, h, lap_sign=1.0):
    n = len(bvals)
    c = lap_sign * 0.5 / (h * h)
    adv = bvals / (2.0 * h)
    lower = np.full(n, c) - adv
    diag = np.full(n, -2.0 * c)
    upper = np.full(n, c) + adv
    # mirror ghost: u_xx -> 2(u_1 - u_0)/h^2, centered u_x -> 0 at the walls
    upper[0] = 2.0 * c
    lower[-1] = 2.0 * c
    return lower, diag, upper


def _apply(bands, u):
    lower, diag, upper = bands
    out = diag * u
    out[:-1] += upper[:-1] * u[1:]
    out[1:] += lower[1:] * u[:-1]
    return out


def _solve_bands(bands, lam_shift, c, rhs):
    """Solve (I + c * (lam_shift - A)) u = rhs for tridiagonal A."""
    lower, diag, upper = bands
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = -c * upper[:-1]
    ab[1, :] = 1.0 + c * lam_shift - c * diag
    ab[2, :-1] = -c * lower[1:]
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise ParabolicError(f"singular tridiagonal system: {exc}") from exc


def _drift_slice(spec: Drift, t, xs):
    if spec.dim != 1:
        raise ParabolicError("parabolic solvers are one-dimensional")
    return spec.value(t, xs[:, None])[:, 0]


def _static_problem(spec: Drift, f, L, n_x):
    """Grid, operator bands and source f(xs) of a backward problem, built once."""
    if spec.time_dependent:
        raise ParabolicError("backward solvers need a time-independent drift")
    xs = np.linspace(-L, L, int(n_x) + 1)
    bands = _assemble(_drift_slice(spec, 0.0, xs), xs[1] - xs[0])
    fx = f(xs)
    if not np.all(np.isfinite(fx)):
        raise ParabolicError("source f(xs) has non-finite values on the grid")
    return xs, bands, fx


def _cn_backward_march(bands, fsum, dt, lam, n_t, pad_steps):
    """March from zero at level n_t + pad_steps down to 0, keeping levels 0..n_t.

    ``fsum`` = f + f is the source at both ends of every step; the pad levels
    above n_t are not stored.
    """
    c = 0.5 * dt
    u = np.zeros(len(bands[1]))
    values = np.zeros((n_t + 1, len(u)))
    for k in range(n_t + pad_steps, 0, -1):
        rhs = u + c * (_apply(bands, u) - lam * u)
        rhs -= c * fsum
        u = _solve_bands(bands, lam, c, rhs)
        if k <= n_t + 1:
            values[k - 1] = u
    return values


def solve_backward_resolvent(
    spec: Drift,
    f,
    lam,
    L,
    n_x,
    T,
    n_t,
    horizon_pad=None,
    tol=1e-8,
):
    """Backward march of d_t u + (Laplacian/2 + b.D) u - lam u = f on [0, T].

    ``spec`` must be time-independent and ``f(xs)`` is a bounded source on
    the grid; both are evaluated once per solve.  The march starts from
    T + pad with zero terminal guess.  If the supplied pad undercuts
    ln(||f||_0 / tol) / lam, a residual warning is attached to the returned
    field instead of failing.
    """
    if lam <= 0:
        raise ParabolicError("resolvent parameter lambda must be positive")
    xs, bands, fx = _static_problem(spec, f, L, n_x)
    dt = T / int(n_t)
    fmax = float(np.max(np.abs(fx)))
    needed = math.log(max(fmax, tol) / tol) / lam
    pad = needed if horizon_pad is None else float(horizon_pad)
    notes = []
    if pad < needed - 1e-12:
        notes.append(
            f"horizon_pad={pad:.4g} below ln(|f|/tol)/lambda={needed:.4g}; "
            f"terminal contamination ~{fmax * math.exp(-lam * pad) / lam:.3g}"
        )
    pad_steps = int(math.ceil(pad / dt)) if pad > 0 else 0
    values = _cn_backward_march(bands, fx + fx, dt, lam, int(n_t), pad_steps)
    ts = dt * np.arange(n_t + 1)
    return SpaceTimeField(xs=xs, ts=ts, values=values, notes=notes)


def solve_terminal_value(spec: Drift, f, L, n_x, n_t, T):
    """Terminal-value problem d_t F + Laplacian F / 2 + b.DF = f, F(T, .) = 0,
    for a time-independent ``spec`` and a source ``f(xs)``."""
    xs, bands, fx = _static_problem(spec, f, L, n_x)
    dt = T / int(n_t)
    values = _cn_backward_march(bands, fx + fx, dt, 0.0, int(n_t), 0)
    ts = dt * np.arange(n_t + 1)
    return SpaceTimeField(xs=xs, ts=ts, values=values)


def solve_mean_pde(spec: Drift, u0, L, n_x, n_t, T, laplacian_sign=1.0):
    """Forward march of d_t u + b.Du = Laplacian u / 2, u(0, .) = u0.

    ``laplacian_sign=-1`` solves the (ill-posed) flipped equation; it exists
    as the negative control of the Monte Carlo comparison and will blow up.
    """
    xs = np.linspace(-L, L, int(n_x) + 1)
    dt = T / int(n_t)
    h = xs[1] - xs[0]
    static = not spec.time_dependent

    def op_bands(t):
        # forward operator Laplacian/2 - b.D
        return _assemble(-_drift_slice(spec, t, xs), h, lap_sign=laplacian_sign)

    bands = op_bands(0.0) if static else None
    u = np.asarray(u0(xs), dtype=float)
    if not np.all(np.isfinite(u)):
        raise ParabolicError("initial datum u0(xs) has non-finite values on the grid")
    values = np.empty((n_t + 1, len(xs)))
    values[0] = u
    c = 0.5 * dt
    blew_up = False
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_t):
            bands_here = bands if bands is not None else op_bands(k * dt)
            bands_next = bands if bands is not None else op_bands((k + 1) * dt)
            rhs = u + c * _apply(bands_here, u)
            if not np.all(np.isfinite(rhs)) or np.max(np.abs(rhs)) > 1e150:
                # stop marching; freeze the clipped state (flipped-sign control)
                u = np.clip(
                    np.nan_to_num(u, nan=1e150, posinf=1e150, neginf=-1e150),
                    -1e150,
                    1e150,
                )
                values[k + 1 :] = u
                blew_up = True
                break
            u = _solve_bands(bands_next, 0.0, c, rhs)
            values[k + 1] = u
    ts = dt * np.arange(n_t + 1)
    fld = SpaceTimeField(xs=xs, ts=ts, values=values)
    if blew_up:
        fld.notes.append("solution overflowed (expected for the flipped sign)")
    return fld


# ---------------------------------------------------------------------------
# drift-removing change of variables Psi(t, x) = x + psi_lambda(t, x)


@dataclass
class ZvonkinTransform:
    """Monotone change of variables built from the resolvent solution.

    Forward evaluation interpolates psi; the inverse solves the piecewise
    linear interpolant of Psi(t, .) exactly (valid because sup|D psi| < 1
    keeps Psi strictly increasing).  Conjugated coefficients follow the Ito
    expansion of Y = Psi(t, X): drift lambda * psi(t, Psi^-1) and diffusion
    D Psi(t, Psi^-1).  (Expanding d(X + psi(t, X)) against the resolvent
    equation leaves exactly + lambda psi dt + D Psi dW; the mapped-back
    solution agreeing with direct integration pins this sign.)
    """

    psi: SpaceTimeField
    lam: float
    grad_sup: float
    dpsi: SpaceTimeField = None

    def __post_init__(self):
        if self.dpsi is None:
            self.dpsi = self.psi.x_derivative()

    def forward(self, t, x):
        x = np.asarray(x, dtype=float)
        return x + self.psi.interpolate(t, x)

    def inverse(self, t, y):
        y = np.asarray(y, dtype=float)
        xs = self.psi.xs
        fwd = xs + self.psi.time_slice(t)
        idx = np.clip(np.searchsorted(fwd, y) - 1, 0, len(xs) - 2)
        f0, f1 = fwd[idx], fwd[idx + 1]
        x0, x1 = xs[idx], xs[idx + 1]
        frac = np.where(f1 > f0, (y - f0) / np.where(f1 > f0, f1 - f0, 1.0), 0.0)
        return x0 + frac * (x1 - x0)

    def drift_tilde(self, t, y):
        return self.lam * self.psi.interpolate(t, self.inverse(t, y))

    def sigma_tilde(self, t, y):
        return 1.0 + self.dpsi.interpolate(t, self.inverse(t, y))


def build_zvonkin_transform(
    spec: Drift, lam, L, n_x, T, n_t, horizon_pad=None, tol=1e-8
):
    """Solve the resolvent system with f = -b and wrap it as a transform.

    Refuses when the measured sup|D psi| reaches 1 (the map would stop being
    invertible) and suggests the larger lambda implied by the observed
    lambda^{-1/2} envelope.
    """
    f = lambda xs: -_drift_slice(spec, 0.0, xs)
    psi = solve_backward_resolvent(
        spec, f, lam, L, n_x, T, n_t, horizon_pad=horizon_pad, tol=tol
    )
    dpsi = psi.x_derivative()
    grad_sup = dpsi.sup_norm()
    if grad_sup >= 1.0:
        suggestion = lam * (2.0 * grad_sup) ** 2
        raise ParabolicError(
            f"sup|D psi| = {grad_sup:.3f} >= 1 at lambda={lam}; "
            f"try lambda >= {suggestion:.1f}"
        )
    return ZvonkinTransform(psi=psi, lam=float(lam), grad_sup=float(grad_sup), dpsi=dpsi)


def grad_decay_study(spec: Drift, lambda_list, L, n_x, T, n_t, horizon_pad=None, tol=1e-8):
    """sup|D psi_lambda| along an increasing lambda ladder plus fitted slope."""
    lams = list(lambda_list)
    if len(lams) < 4 or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ParabolicError("need an increasing lambda ladder with >= 4 entries")
    f = lambda xs: -_drift_slice(spec, 0.0, xs)
    rows = []
    for lam in lams:
        psi = solve_backward_resolvent(
            spec, f, lam, L, n_x, T, n_t, horizon_pad=horizon_pad, tol=tol
        )
        rows.append({"lambda": float(lam), "grad_sup": psi.x_derivative().sup_norm()})
    sups = np.array([r["grad_sup"] for r in rows])
    if np.all(sups == 0.0):
        slope = None  # exact-zero case (b == 0)
    else:
        slope = float(np.polyfit(np.log(lams), np.log(sups), 1)[0])
    return {"rows": rows, "slope": slope}


def integrate_conjugated(transform: ZvonkinTransform, path, x0, s=0.0, t=None):
    """Euler-Maruyama on the conjugated SDE, mapped back through Psi^{-1}.

    Returns (times, X) where X[k] = Psi^{-1}(t_k, Y_k); cross-validates the
    direct characteristics integration on the same noise path.
    """
    if t is None:
        t = path.T
    ks = path.index_of(s, "s")
    kt = path.index_of(t, "t")
    dt = path.dt
    y = float(transform.forward(s, float(x0)))
    times = dt * np.arange(ks, kt + 1)
    X = np.empty(kt - ks + 1)
    X[0] = float(x0)
    for k in range(ks, kt):
        tk = k * dt
        y = (
            y
            + float(transform.drift_tilde(tk, y)) * dt
            + float(transform.sigma_tilde(tk, y)) * path.increments[k, 0]
        )
        X[k - ks + 1] = float(transform.inverse((k + 1) * dt, y))
    return times, X


# ---------------------------------------------------------------------------
# the auxiliary-function identity for time averages along the diffusion


def ito_tanaka_check(spec: Drift, f, paths, x0, L, n_x, n_t, t=None, F=None, DF=None):
    """Residual of int_0^t f(X_s) ds = F(t, X_t) - F(0, x) - int DF . dW.

    F solves the terminal-value problem with l = b on the same horizon, for a
    time-independent ``spec`` and a source ``f(xs)`` taking any shape; the
    left side uses trapezoid quadrature along the trajectory and the Ito
    integral uses left-point sums of the interpolated DF.  All paths of
    ``paths`` are marched at once and share one (F, DF) pair, which may be
    passed in precomputed.  Returns one report per path, in path order.
    """
    if t is None:
        t = paths[0].T
    if F is None:
        F = solve_terminal_value(spec, f, L, n_x, n_t, T=t)
    kt = paths[0].index_of(t, "t")
    dt = paths[0].dt
    inc = _noise.stacked_increments(paths)[:kt, :, 0]
    x0 = float(np.atleast_1d(x0)[0])
    xs = _flow.march(spec, inc[:, :, None], [x0], dt, 0, kt, record=True)[..., 0]
    times = dt * np.arange(kt + 1)
    out = np.abs(xs) > L
    if np.any(out):
        k = int(np.argmax(out[:, np.argmax(out.any(axis=0))]))  # first path to exit
        raise ParabolicError(f"trajectory exits [-{L}, {L}] at t={times[k]:.6g}; enlarge L")
    fvals = np.asarray(f(xs), dtype=float)
    lhs = _flow._integrate_rows(fvals.T, dt)
    if DF is None:
        DF = F.x_derivative()
    dfvals = DF.interpolate_pairs(times[:-1, None], xs[:-1])
    # per-path sums run along contiguous rows, in a single path's order
    ito = np.sum(np.ascontiguousarray((dfvals * inc).T), axis=-1)
    rhs = F.interpolate(t, xs[-1]) - F.interpolate(0.0, x0) - ito
    return [
        {"lhs": float(a), "rhs": float(b), "residual": abs(float(a) - float(b))}
        for a, b in zip(lhs, rhs)
    ]
