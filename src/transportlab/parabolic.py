"""1-d solvers for the resolvent system, the terminal-value problem and the
mean advection-diffusion equation, plus the auxiliary-function identity
checker and the drift-removing change of variables.

Conventions.  All problems live on the truncated domain [-L, L] with
homogeneous Neumann walls (mirror ghost nodes, second order).  Every solve
factors each distinct tridiagonal system once (LAPACK dgttrf) and solves
with the factors (dgttrs).  The resolvent takes a time-independent drift and
source, so its infinite-horizon solution does not depend on t: it is one
stationary solve of (lam - A) psi = -f.  The terminal-value problem and the
mean equation step through one unconditionally stable Crank-Nicolson march;
the terminal-value problem builds and factors its system once, the mean
equation also marches time-dependent drifts, one system per time level.  A
guard stops the march before a right side that is non-finite or above
1e150: the terminal-value solver raises ParabolicError, the mean equation
keeps its clipped state and notes it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

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
        return SpaceTimeField(xs=self.xs, ts=self.ts, values=d)

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
                    "bc": "neumann",
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


def _factor(bands, shift, c):
    """Solver of (shift - c A) x = rhs, factored once (LAPACK dgttrf) and
    applied per right side (dgttrs): the elimination and back-substitution of
    the dgtsv inside scipy's solve_banded, bit for bit.  A Crank-Nicolson step
    takes shift 1 and c = dt/2, the resolvent shift lam and c = 1.  scipy's
    wrappers refuse n = 2, so a 2-node system gets a decoupled identity row.
    scipy is imported here, at the first factorisation, so only a process that
    runs a parabolic solve pays for loading it."""
    from scipy.linalg import lapack

    lower, diag, upper = bands
    n = len(diag)
    dl, d, du = -c * lower[1:], shift - c * diag, -c * upper[:-1]
    if n == 2:
        dl, d, du = np.append(dl, 0.0), np.append(d, 1.0), np.append(du, 0.0)
    *lu, info = lapack.dgttrf(dl, d, du)
    if info > 0:
        raise ParabolicError(f"singular tridiagonal system: zero pivot in row {info}")
    if not all(np.all(np.isfinite(a)) for a in lu[:4]):
        raise ParabolicError("non-finite tridiagonal system")

    def solve(rhs):
        rhs = np.append(rhs, 0.0) if n == 2 else rhs
        return lapack.dgttrs(*lu, rhs, overwrite_b=True)[0][:n]

    return solve


def _march(u, values, rows, bands, c, fsum=0.0, freeze=False):
    """The one Crank-Nicolson loop.  From u = u_0, step j solves
    (I - c A_{j+1}) u_{j+1} = u_j + c A_j u_j - c fsum and keeps u_{j+1} in
    ``values[rows[j]]``.  ``bands`` is a static operator, factored once, or a
    function of the level j, built and factored once per level.  The blow-up
    guard stops before a step whose right side is non-finite or above 1e150:
    it raises ParabolicError, or with ``freeze`` fills the later rows with the
    clipped state and returns True.
    """
    bands_at = bands if callable(bands) else lambda j: bands
    here, factored = bands_at(0), None
    with np.errstate(over="ignore", invalid="ignore"):
        for j, row in enumerate(rows):
            rhs = u + c * _apply(here, u)
            rhs -= c * fsum
            if not np.all(np.isfinite(rhs)) or np.max(np.abs(rhs)) > 1e150:
                if not freeze:
                    raise ParabolicError(f"march overflowed at step {j}: |right side| not below 1e150")
                u = np.nan_to_num(u, nan=1e150, posinf=1e150, neginf=-1e150)
                values[list(rows[j:])] = np.clip(u, -1e150, 1e150)
                return True
            nxt = bands_at(j + 1)
            if nxt is not factored:
                solve, factored = _factor(nxt, 1.0, c), nxt
            u = solve(rhs)
            values[row] = u
            here = nxt
    return False


def _drift_slice(spec: Drift, t, xs):
    if spec.dim != 1:
        raise ParabolicError("parabolic solvers are one-dimensional")
    return spec.value(t, xs[:, None])[:, 0]


def _check_grid(**grid):
    for name, value in grid.items():
        if not (value >= 1 if name.startswith("n_") else 0 < value < math.inf):
            raise ParabolicError(f"{name}={value!r}: need n_x, n_t >= 1 and finite L, T > 0")


def _nodes(L, n_x):
    """Nodes of [-L, L] in n_x cells."""
    _check_grid(n_x=n_x, L=L)
    return np.linspace(-L, L, int(n_x) + 1)


def _grid(L, n_x, T, n_t):
    """Nodes of [-L, L] in n_x cells and the step of [0, T] in n_t steps."""
    _check_grid(n_t=n_t, T=T)
    return _nodes(L, n_x), T / int(n_t), int(n_t)


def _static_problem(spec: Drift, f, xs):
    """Operator bands and source f(xs) of a backward problem, built once."""
    if spec.time_dependent:
        raise ParabolicError("backward solvers need a time-independent drift")
    bands = _assemble(_drift_slice(spec, 0.0, xs), xs[1] - xs[0])
    fx = f(xs)
    if not np.all(np.isfinite(fx)):
        raise ParabolicError("source f(xs) has non-finite values on the grid")
    return bands, fx


def solve_backward_resolvent(spec: Drift, f, lam, L, n_x):
    """Infinite-horizon solution of d_t u + (Laplacian/2 + b.D) u - lam u = f.

    ``spec`` must be time-independent and ``f(xs)`` is a bounded source on
    the grid, so the solution is stationary: one banded solve of
    (lam - A) u = -f, returned as a field with a single time row.
    """
    if not math.isfinite(lam):
        raise ParabolicError(f"resolvent parameter lambda={lam!r} must be finite")
    if lam <= 0:
        raise ParabolicError("resolvent parameter lambda must be positive")
    xs = _nodes(L, n_x)
    bands, fx = _static_problem(spec, f, xs)
    u = _factor(bands, lam, 1.0)(-fx)
    return SpaceTimeField(xs=xs, ts=np.zeros(1), values=u[None, :])


def solve_terminal_value(spec: Drift, f, L, n_x, n_t, T):
    """Terminal-value problem d_t F + Laplacian F / 2 + b.DF = f, F(T, .) = 0,
    for a time-independent ``spec`` and a source ``f(xs)``."""
    xs, dt, n_t = _grid(L, n_x, T, n_t)
    bands, fx = _static_problem(spec, f, xs)
    values = np.zeros((n_t + 1, len(xs)))
    _march(np.zeros(len(xs)), values, range(n_t - 1, -1, -1), bands, 0.5 * dt, fx + fx)
    return SpaceTimeField(xs=xs, ts=dt * np.arange(n_t + 1), values=values)


def solve_mean_pde(spec: Drift, u0, L, n_x, n_t, T, laplacian_sign=1.0):
    """Forward march of d_t u + b.Du = Laplacian u / 2, u(0, .) = u0.

    ``laplacian_sign=-1`` solves the (ill-posed) flipped equation; it exists
    as the negative control of the Monte Carlo comparison and will blow up:
    the march then freezes its last clipped state and notes the overflow.
    The paper's drift is b(t, x): a time-dependent ``spec`` (a grid-sampled
    drift) builds and factors the operator of every time level.
    """
    xs, dt, n_t = _grid(L, n_x, T, n_t)
    h = xs[1] - xs[0]

    def op_bands(j):
        # forward operator Laplacian/2 - b.D at level j
        return _assemble(-_drift_slice(spec, j * dt, xs), h, lap_sign=laplacian_sign)

    bands = op_bands if spec.time_dependent else op_bands(0)
    u = np.asarray(u0(xs), dtype=float)
    if not np.all(np.isfinite(u)):
        raise ParabolicError("initial datum u0(xs) has non-finite values on the grid")
    values = np.empty((n_t + 1, len(xs)))
    values[0] = u
    blew_up = _march(u, values, range(1, n_t + 1), bands, 0.5 * dt, freeze=True)
    notes = ["solution overflowed (expected for the flipped sign)"] if blew_up else []
    return SpaceTimeField(xs=xs, ts=dt * np.arange(n_t + 1), values=values, notes=notes)


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
    dpsi: SpaceTimeField

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


def build_zvonkin_transform(spec: Drift, lam, L, n_x):
    """Solve the resolvent system with f = -b and wrap it as a transform.

    Refuses when the measured sup|D psi| reaches 1 (the map would stop being
    invertible) and suggests the larger lambda implied by the observed
    lambda^{-1/2} envelope.
    """
    f = lambda xs: -_drift_slice(spec, 0.0, xs)
    psi = solve_backward_resolvent(spec, f, lam, L, n_x)
    dpsi = psi.x_derivative()
    grad_sup = dpsi.sup_norm()
    if grad_sup >= 1.0:
        suggestion = lam * (2.0 * grad_sup) ** 2
        raise ParabolicError(
            f"sup|D psi| = {grad_sup:.3f} >= 1 at lambda={lam}; "
            f"try lambda >= {suggestion:.1f}"
        )
    return ZvonkinTransform(psi=psi, lam=float(lam), grad_sup=float(grad_sup), dpsi=dpsi)


def grad_decay_study(spec: Drift, lambda_list, L, n_x):
    """sup|D psi_lambda| along an increasing lambda ladder plus fitted slope."""
    lams = list(lambda_list)
    if len(lams) < 4 or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ParabolicError("need an increasing lambda ladder with >= 4 entries")
    f = lambda xs: -_drift_slice(spec, 0.0, xs)
    rows = []
    for lam in lams:
        psi = solve_backward_resolvent(spec, f, lam, L, n_x)
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
    # x = Psi^{-1}(t_k, Y_k): one inverse per step serves both coefficients
    # and the mapped-back point
    x = transform.inverse(ks * dt, y)
    for k in range(ks, kt):
        tk = k * dt
        drift = transform.lam * transform.psi.interpolate(tk, x)
        sigma = 1.0 + transform.dpsi.interpolate(tk, x)
        y = y + float(drift) * dt + float(sigma) * path.increments[k, 0]
        x = transform.inverse((k + 1) * dt, y)
        X[k - ks + 1] = float(x)
    return times, X


# ---------------------------------------------------------------------------
# the auxiliary-function identity for time averages along the diffusion


def ito_tanaka_check(spec: Drift, f, paths, x0, L, n_x, n_t, t=None):
    """Residual of int_0^t f(X_s) ds = F(t, X_t) - F(0, x) - int DF . dW.

    F solves the terminal-value problem with l = b on the same horizon, for a
    time-independent ``spec`` and a source ``f(xs)`` taking any shape; the
    left side uses trapezoid quadrature along the trajectory and the Ito
    integral uses left-point sums of the interpolated DF.  All paths of
    ``paths`` are marched at once and share one (F, DF) pair.  Returns one
    report per path, in path order.
    """
    inc = _noise.stacked_increments(paths)
    if t is None:
        t = paths[0].T
    F = solve_terminal_value(spec, f, L, n_x, n_t, T=t)
    kt = paths[0].index_of(t, "t")
    dt = paths[0].dt
    inc = inc[:kt, :, 0]
    x0 = float(np.atleast_1d(x0)[0])
    xs = _flow.march(spec, inc[:, :, None], [x0], dt, 0, kt, record=True)[..., 0]
    times = dt * np.arange(kt + 1)
    out = np.abs(xs) > L
    if np.any(out):
        k = int(np.argmax(out[:, np.argmax(out.any(axis=0))]))  # first path to exit
        raise ParabolicError(f"trajectory exits [-{L}, {L}] at t={times[k]:.6g}; enlarge L")
    fvals = np.asarray(f(xs), dtype=float)
    lhs = _flow._integrate_rows(fvals.T, dt)
    dfvals = F.x_derivative().interpolate_pairs(times[:-1, None], xs[:-1])
    # per-path sums run along contiguous rows, in a single path's order
    ito = np.sum(np.ascontiguousarray((dfvals * inc).T), axis=-1)
    rhs = F.interpolate(t, xs[-1]) - F.interpolate(0.0, x0) - ito
    return [
        {"lhs": float(a), "rhs": float(b), "residual": abs(float(a) - float(b))}
        for a, b in zip(lhs, rhs)
    ]
