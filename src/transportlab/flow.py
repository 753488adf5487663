"""Characteristics SDE integration and stochastic flows on grids.

Everything is Euler-Maruyama on the driving path's grid (the noise is
additive, so no Milstein correction exists).  Forward ensembles share one
noise path across all initial points, which is what makes order preservation
and flow probes meaningful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import noise as _noise
from .drift import Drift, HolderPowerDrift, _fields_equal, mollify_drift

__all__ = [
    "Trajectory",
    "FlowEnsemble",
    "FlowError",
    "march",
    "integrate_sde",
    "forward_flow",
    "inverse_flow_backward",
    "inverse_flow_interpolate",
    "jacobian_fd",
    "jacobian_logdiv",
    "log_jacobian_cumulative",
    "pathwise_uniqueness_probe",
    "sobolev_jacobian_probe",
    "random_drift_negative_probe",
    "holder_extremal_branch",
    "ensemble_to_csv",
    "ensemble_to_binary",
]


class FlowError(RuntimeError):
    pass


def _grid_index(times, t):
    """Index k of t on the uniform time grid ``times`` (within 1e-9), else None."""
    k = 0
    if len(times) > 1:
        k = int(round((t - times[0]) / (times[1] - times[0])))
    if not (0 <= k < len(times)) or abs(times[k] - t) > 1e-9:
        return None
    return k


@dataclass(frozen=True)
class Trajectory:
    start: float
    times: np.ndarray        # (m+1,)
    states: np.ndarray       # (m+1, d)

    __eq__ = _fields_equal

    def __hash__(self):
        return hash((self.start, self.states.shape))

    @property
    def d(self):
        return self.states.shape[1]

    def at(self, t):
        k = _grid_index(self.times, t)
        if k is None:
            raise FlowError(f"t={t} not on the trajectory grid")
        return self.states[k]


@dataclass(frozen=True)
class FlowEnsemble:
    """Flow maps phi_{s, t}(x) on a lattice of initial points, one noise path.

    ``states[k, i]`` is the image of initial point i at times[k].  For 2-d
    lattices ``lattice_shape`` records (n1, n2) so that i = i1 * n2 + i2.
    """

    path: object
    start: float
    times: np.ndarray          # (m+1,)
    initial: np.ndarray        # (n, d)
    states: np.ndarray         # (m+1, n, d)
    lattice_shape: tuple = ()
    spacing: tuple = ()

    __eq__ = _fields_equal

    def __hash__(self):
        return hash((self.start, self.states.shape))

    @property
    def d(self):
        return self.initial.shape[1]

    def time_index(self, t):
        k = _grid_index(self.times, t)
        if k is None:
            raise FlowError(f"t={t} not stored in the ensemble")
        return k

    def states_at(self, t):
        return self.states[self.time_index(t)]


# ---------------------------------------------------------------------------
# integrators


def _grid_indices(path, s, t):
    ks = path.index_of(s, "s")
    kt = path.index_of(t, "t")
    if ks > kt:
        raise FlowError(f"need s <= t, got s={s}, t={t}")
    return ks, kt


def march(spec: Drift, increments, X0, dt, k0, k1, backward=False, record=False):
    """Euler-Maruyama over grid steps k0..k1 of one or many noise paths.

    ``increments`` (n_steps, ..., d) holds dW_k = W((k+1) dt) - W(k dt) and
    broadcasts against X0 (..., d): a path axis marches every point along
    every path at once, each column with the bits of a march of its own.
    Forward: X + b(k dt, X) dt + dW_k for k = k0..k1-1.  Backward, the
    inverse flow from time k1 dt: Z - b(k dt, Z) dt - dW_{k-1}, k = k1..k0+1.
    Returns the end state, or with ``record`` the states at grid times
    k0..k1 in time order, shape (k1 - k0 + 1, ...).
    """
    if not 0 <= k0 <= k1 <= len(increments):
        raise FlowError(f"need 0 <= k0 <= k1 <= {len(increments)}, got k0={k0}, k1={k1}")
    X0 = np.asarray(X0, dtype=float)
    X = np.array(np.broadcast_to(X0, np.broadcast_shapes(X0.shape, increments.shape[1:])))
    if record:
        states = np.empty((k1 - k0 + 1,) + X.shape)
        states[k1 - k0 if backward else 0] = X
    for i in range(k1 - k0):
        if backward:
            k = k1 - i
            X = X - spec.value(k * dt, X) * dt - increments[k - 1]
        else:
            k = k0 + i
            X = X + spec.value(k * dt, X) * dt + increments[k]
        if not np.all(np.isfinite(X)):
            where = "backward step" if backward else "step"
            raise FlowError(f"non-finite state (overflow) at {where} {k}")
        if record:
            states[k - 1 - k0 if backward else k + 1 - k0] = X
    return states if record else X


def integrate_sde(spec: Drift, path, x0, s=0.0, t=None):
    """Trajectory of dX = b(t, X) dt + dW from X_s = x0 up to time t."""
    if t is None:
        t = path.T
    ks, kt = _grid_indices(path, s, t)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    states = march(spec, path.increments, x0[None, :], path.dt, ks, kt, record=True)
    return Trajectory(start=s, times=path.dt * np.arange(ks, kt + 1), states=states[:, 0, :])


def forward_flow(spec: Drift, path, grid, s, t_list):
    """Forward ensemble over ``grid``, all points driven by the same path.

    ``grid`` is a 1-d array of points (d=1), or an (n1, n2, 2) lattice (d=2).
    Every t in t_list must be a path grid time; the ensemble stores all
    intermediate states so restarts and interpolation stay exact.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        initial = grid[:, None]
        lattice_shape = (grid.shape[0],)
        spacing = (float(grid[1] - grid[0]),) if grid.shape[0] > 1 else (0.0,)
    elif grid.ndim == 3 and grid.shape[-1] == 2:
        initial = grid.reshape(-1, 2)
        lattice_shape = grid.shape[:2]
        spacing = (
            float(grid[1, 0, 0] - grid[0, 0, 0]) if grid.shape[0] > 1 else 0.0,
            float(grid[0, 1, 1] - grid[0, 0, 1]) if grid.shape[1] > 1 else 0.0,
        )
    else:
        raise FlowError("grid must be 1-d points or an (n1, n2, 2) lattice")
    if not np.all(np.isfinite(initial)):
        raise FlowError("grid points must be finite")
    if len(t_list) == 0:
        raise FlowError("t_list needs at least one time")
    for t in t_list:
        path.index_of(t, "t_list entry")
    ks, kt = _grid_indices(path, s, max(t_list))
    return FlowEnsemble(
        path=path,
        start=s,
        times=path.dt * np.arange(ks, kt + 1),
        initial=initial,
        states=march(spec, path.increments, initial, path.dt, ks, kt, record=True),
        lattice_shape=lattice_shape,
        spacing=spacing,
    )


def inverse_flow_backward(spec: Drift, path, y, s, t):
    """phi_{s,t}^{-1}(y) via the backward SDE with negated drift and noise.

    No experiment calls it: it is the reference that tests compare the grid
    inverse, ``inverse_flow_interpolate``, against.
    """
    ks, kt = _grid_indices(path, s, t)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return march(spec, path.increments, y[None, :], path.dt, ks, kt, backward=True)[0]


# ---------------------------------------------------------------------------
# grid inversion of the forward map


def inverse_flow_interpolate(ens: FlowEnsemble, y, t):
    """Invert a 1-d forward ensemble map at time t by monotone piecewise-linear
    interpolation (valid by order preservation)."""
    if ens.d != 1:
        raise FlowError(f"grid inversion is one-dimensional; the ensemble is {ens.d}-d")
    img = ens.states_at(t)
    y = np.asarray(y, dtype=float)
    f = img[:, 0]
    x = ens.initial[:, 0]
    lo, hi = f[0], f[-1]
    ys = y[..., 0] if (y.ndim > 1 and y.shape[-1] == 1) else y
    if np.any(ys < lo) or np.any(ys > hi):
        raise FlowError(
            f"point outside the image range [{lo:.6g}, {hi:.6g}] at t={t}"
        )
    return np.interp(ys, f, x)


# ---------------------------------------------------------------------------
# Jacobians, two routes


def jacobian_fd(ens: FlowEnsemble, index, t):
    """Determinant of the centered-difference derivative at a lattice point."""
    img = ens.states_at(t)
    if ens.d == 1:
        i = int(index)
        n = ens.lattice_shape[0]
        if not 0 < i < n - 1:
            raise FlowError("jacobian needs both lattice neighbours")
        h = ens.spacing[0]
        return float((img[i + 1, 0] - img[i - 1, 0]) / (2.0 * h))
    if ens.d == 2:
        i, j = index
        n1, n2 = ens.lattice_shape
        if not (0 < i < n1 - 1 and 0 < j < n2 - 1):
            raise FlowError("jacobian needs both lattice neighbours")
        quad = img.reshape(n1, n2, 2)
        h1, h2 = ens.spacing
        col1 = (quad[i + 1, j] - quad[i - 1, j]) / (2.0 * h1)
        col2 = (quad[i, j + 1] - quad[i, j - 1]) / (2.0 * h2)
        return float(col1[0] * col2[1] - col1[1] * col2[0])
    raise FlowError("jacobian_fd implemented for d in (1, 2)")


def jacobian_logdiv(spec: Drift, times, states, dt):
    """log J phi_t(x) as the time integral of div b along marched trajectories.

    ``states`` (m+1, ..., d) holds the trajectories at ``times`` on a grid of
    step ``dt``, as ``march(..., record=True)`` returns them; the result has
    one value per trajectory (a float for a single one).
    """
    if spec.time_dependent:
        vals = np.array([spec.divergence(tt, st) for tt, st in zip(times, states)])
    else:
        vals = spec.divergence(0.0, states)
    logj = _integrate_rows(np.moveaxis(vals, 0, -1), dt)
    return float(logj) if logj.ndim == 0 else logj


def _integrate_rows(vals, dx):
    """Trapezoid rule along the last axis over C-contiguous rows, which sum in
    the pairwise order of a 1-d array; a strided axis would change the bits."""
    return np.trapezoid(np.ascontiguousarray(vals), dx=dx, axis=-1)


def log_jacobian_cumulative(spec: Drift, paths, xs, t, s=0.0):
    """log J phi_.(x) on a 1-d grid along every path of ``paths``.

    Returns (times, logJ) with logJ[k, j, i] for time k, path j, point i.
    """
    inc = _noise.stacked_increments(paths)[:, :, None, :]
    xs = np.asarray(xs, dtype=float)
    ks, kt = _grid_indices(paths[0], s, t)
    dt = paths[0].dt
    states = march(spec, inc, xs[:, None], dt, ks, kt, record=True)
    times = dt * np.arange(ks, kt + 1)
    vals = np.empty(states.shape[:-1])
    for k, tt in enumerate(times):
        vals[k] = spec.divergence(tt, states[k])
    out = np.zeros_like(vals)
    np.cumsum(0.5 * (vals[1:] + vals[:-1]) * dt, axis=0, out=out[1:])
    return times, out


# ---------------------------------------------------------------------------
# probes


def holder_extremal_branch(gamma, cap, t):
    """Closed-form extremal branch x_+(t) of x' = b(x) from 0 (signed field)."""
    t = np.asarray(t, dtype=float)
    t_cap = cap ** (1.0 - gamma)
    slope = cap**gamma / (1.0 - gamma)
    return np.where(t <= t_cap, t ** (1.0 / (1.0 - gamma)), cap + (t - t_cap) * slope)


@dataclass(frozen=True)
class UniquenessProbeReport:
    rows: list
    extremal_separation: float | None
    time: float


def pathwise_uniqueness_probe(spec: Drift, paths, x0, delta_list, t):
    """Separation of solutions started at x0 and x0 + delta, shared noise.

    Every start is marched along every path of ``paths`` at once; each row
    holds one delta with per-path arrays of the noisy separations.  A
    companion run on the zero path reports the deterministic behaviour; for
    the HolderPower drift started at its degenerate point the closed-form
    extremal-branch separation 2 t^(1/(1-gamma)) is attached as well.
    """
    inc = _noise.stacked_increments(paths)[:, :, None, :]
    x0 = float(np.asarray(x0).reshape(-1)[0])
    ks, kt = _grid_indices(paths[0], 0.0, t)
    dt = paths[0].dt
    starts = np.array([x0] + [x0 + delta for delta in delta_list])[:, None]
    noisy = march(spec, inc, starts, dt, ks, kt, record=True)[..., 0]
    zero = _noise.zero_path(paths[0].d, paths[0].T, dt)
    det = march(spec, zero.increments, starts, dt, ks, kt, record=True)[..., 0]
    sep_noisy = np.abs(noisy[..., 1:] - noisy[..., :1])  # (m+1, paths, deltas)
    sep_det = np.abs(det[:, 1:] - det[:, :1])  # (m+1, deltas)
    rows = [
        {
            "delta": float(delta),
            "separation_at_t": sep_noisy[-1, :, i],
            "sup_separation": sep_noisy[:, :, i].max(axis=0),
            "det_separation_at_t": float(sep_det[-1, i]),
            "det_sup_separation": float(sep_det[:, i].max()),
        }
        for i, delta in enumerate(delta_list)
    ]
    extremal = None
    if isinstance(spec, HolderPowerDrift) and spec.signed and x0 == 0.0:
        extremal = float(2.0 * holder_extremal_branch(spec.gamma, spec.cap, t))
    return UniquenessProbeReport(rows=rows, extremal_separation=extremal, time=t)


def sobolev_jacobian_probe(gammas, eps_ladder, paths, r, cap=2.0, n_x=128, t=0.5, drift_factory=None):
    """Monte Carlo estimate of E int_0^T int_B(r) |D log J phi_t|^2 dx dt.

    One row per (gamma, eps); ``drift_factory(gamma, eps)`` defaults to the
    mollified HolderPower field.  The table exhibits the growth trend across
    the eps ladder per gamma.  Exploratory: values are reported, the caller
    decides what to assert.
    """
    if n_x < 2:
        raise FlowError(f"n_x={n_x}: the centered difference needs n_x >= 2 cells")
    rows = []
    xs = np.linspace(-r, r, int(n_x) + 1)
    h = xs[1] - xs[0]
    for gamma in gammas:
        base = HolderPowerDrift(gamma=float(gamma), cap=cap, signed=True)
        for eps in eps_ladder:
            if drift_factory is not None:
                spec = drift_factory(gamma, eps)
            else:
                spec = mollify_drift(base, eps)
            _, logj = log_jacobian_cumulative(spec, paths, xs, t)
            dlog = (logj[..., 2:] - logj[..., :-2]) / (2.0 * h)
            space = _integrate_rows(dlog**2, h)  # (m+1, paths)
            acc = 0.0
            for value in _integrate_rows(space.T, paths[0].dt):
                acc += float(value)
            rows.append(
                {"gamma": float(gamma), "eps": float(eps), "estimate": acc / len(paths)}
            )
    return rows


def random_drift_negative_probe(path, x0=0.0, t=1.0):
    """Both explicit solutions of dX = sqrt|X - W| dt + dW from the origin.

    Y = X - W solves Y' = sqrt|Y|; the branches Y == 0 and Y = t^2/4 map back
    to X = W and X = t^2/4 + W.  Reports the global Euler residual of each
    X branch and their separation at t: noise does not select one solution.
    """
    if abs(float(x0)) > 0:
        raise FlowError("probe is about the degenerate start x0 = W_0 = 0")
    kt = path.index_of(t)
    dt = path.dt
    w = _noise.grid_values(path)[: kt + 1, 0]
    times = dt * np.arange(kt + 1)
    branches = {
        "zero": w.copy(),
        "parabola": 0.25 * times**2 + w,
    }
    report = {}
    for name, X in branches.items():
        bvals = np.sqrt(np.abs(X - w))
        drift_sum = float(np.sum(bvals[:-1]) * dt)
        residual = abs(float(X[-1] - X[0] - drift_sum - (w[-1] - w[0])))
        report[f"residual_{name}"] = residual
    report["separation_at_t"] = float(abs(branches["parabola"][-1] - branches["zero"][-1]))
    report["dt"] = dt
    return report


# ---------------------------------------------------------------------------
# exports


def ensemble_to_csv(ens: FlowEnsemble, fileobj):
    """Time rows, one column block per initial point."""
    import csv as _csv

    writer = _csv.writer(fileobj)
    cols = ["t"]
    for i in range(ens.initial.shape[0]):
        if ens.d == 1:
            cols.append(f"x0={ens.initial[i, 0]:.17g}")
        else:
            coords = "_".join(f"{c:.17g}" for c in ens.initial[i])
            cols.extend(f"x0={coords}:{ax}" for ax in ("x", "y")[: ens.d])
    writer.writerow(cols)
    for k, tt in enumerate(ens.times):
        row = [f"{tt:.17g}"]
        row.extend(f"{v:.17g}" for v in ens.states[k].ravel())
        writer.writerow(row)


_MAGIC = b"TLFL"


def ensemble_to_binary(ens: FlowEnsemble, fileobj):
    """Compact dump, version 2: magic 'TLFL', then version, n_times, n_points,
    d and the lattice rank r as little-endian u32, the r lattice sizes as u32
    and the r spacings as f64, then times, initial points and states as
    row-major little-endian float64."""
    m, n, d = ens.states.shape
    r = len(ens.lattice_shape)
    fileobj.write(_MAGIC)
    fileobj.write(struct.pack(f"<IIIII{r}I{r}d", 2, m, n, d, r, *ens.lattice_shape, *ens.spacing))
    fileobj.write(np.ascontiguousarray(ens.times, dtype="<f8").tobytes())
    fileobj.write(np.ascontiguousarray(ens.initial, dtype="<f8").tobytes())
    fileobj.write(np.ascontiguousarray(ens.states, dtype="<f8").tobytes())


def _read_exact(fileobj, size):
    data = fileobj.read(size)
    if len(data) != size:
        raise FlowError(f"truncated ensemble dump: wanted {size} bytes, got {len(data)}")
    return data


def ensemble_from_binary(fileobj):
    """Read a version 2 dump, or a version 1 dump (no lattice header: a 1-d
    lattice with the spacing of the first two points)."""
    if fileobj.read(4) != _MAGIC:
        raise FlowError("not an ensemble dump")
    version, m, n, d = struct.unpack("<IIII", _read_exact(fileobj, 16))
    if version not in (1, 2):
        raise FlowError(f"unsupported ensemble dump version {version} (expected 1 or 2)")
    if min(m, n, d) == 0:
        raise FlowError(f"empty ensemble dump: {m} times, {n} points, d={d}")
    if version == 2:
        (r,) = struct.unpack("<I", _read_exact(fileobj, 4))
        if r not in (1, 2):
            raise FlowError(f"lattice rank {r} in the dump is not 1 or 2")
        lattice_shape = struct.unpack(f"<{r}I", _read_exact(fileobj, 4 * r))
        spacing = struct.unpack(f"<{r}d", _read_exact(fileobj, 8 * r))
        if int(np.prod(lattice_shape)) != n:
            raise FlowError(f"lattice shape {lattice_shape} does not hold {n} points")
    times = np.frombuffer(_read_exact(fileobj, 8 * m), dtype="<f8")
    initial = np.frombuffer(_read_exact(fileobj, 8 * n * d), dtype="<f8").reshape(n, d)
    states = np.frombuffer(_read_exact(fileobj, 8 * m * n * d), dtype="<f8").reshape(m, n, d)
    if version == 1:
        lattice_shape = (n,)
        spacing = (float(initial[1, 0] - initial[0, 0]) if n > 1 else 0.0,)
    return FlowEnsemble(
        path=None,
        start=float(times[0]),
        times=times,
        initial=initial,
        states=states,
        lattice_shape=lattice_shape,
        spacing=spacing,
    )
