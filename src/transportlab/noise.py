"""Brownian path generation and Wong-Zakai smoothing.

Paths are generated by the counter-based Philox generator keyed by
(seed, stream_id): each stream is an independent, bit-reproducible source,
so ensembles can be produced in any order or in parallel with no shared
state.  Paths are immutable after construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import Generator, Philox

from .drift import bump_value, bump_derivative, _bump_mass, _fields_equal

__all__ = [
    "BrownianPath",
    "SmoothedPath",
    "sample_brownian",
    "sample_increments",
    "stacked_increments",
    "zero_path",
    "path_from_increments",
    "evaluate",
    "grid_values",
    "wong_zakai_smooth",
    "path_to_csv",
]


class NoiseError(ValueError):
    pass


@dataclass(frozen=True)
class BrownianPath:
    """Discrete d-dimensional Brownian trajectory on a uniform grid from 0.

    ``increments[k]`` is W((k+1) dt) - W(k dt); grid values are the prefix
    sums with W(0) = 0.
    """

    dt: float
    increments: np.ndarray  # (n_steps, d)
    seed: int | None = None
    stream_id: int | None = None
    _grid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise NoiseError("increments must have shape (n_steps, d)")
        object.__setattr__(self, "increments", inc)
        w = np.zeros((inc.shape[0] + 1, inc.shape[1]))
        np.cumsum(inc, axis=0, out=w[1:])
        object.__setattr__(self, "_grid", w)

    __eq__ = _fields_equal

    def __hash__(self):
        return hash((self.dt, self.seed, self.stream_id, self.increments.shape))

    @property
    def d(self):
        return self.increments.shape[1]

    @property
    def n_steps(self):
        return self.increments.shape[0]

    @property
    def T(self):
        return self.n_steps * self.dt

    @property
    def times(self):
        return self.dt * np.arange(self.n_steps + 1)

    def index_of(self, t, name="time"):
        """Grid index of t, which must sit on the grid up to rounding."""
        k = int(round(t / self.dt)) if np.isfinite(t) else -1  # -1: off the grid
        if not (0 <= k <= self.n_steps) or abs(k * self.dt - t) > 1e-9 * max(1.0, self.T):
            raise NoiseError(f"{name}={t} is not on the path grid (dt={self.dt})")
        return k


def _philox(seed, stream_id):
    for name, v in (("seed", seed), ("stream_id", stream_id)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < 2**64:
            raise NoiseError(f"{name}={v!r}: must be an integer in [0, 2**64)")
    return Philox(key=np.array([seed, stream_id], dtype=np.uint64))


def _n_steps(T, dt):
    """Step count T / dt of a grid; dt must divide T up to rounding."""
    if not 0 < dt <= T < np.inf:
        raise NoiseError(f"need 0 < dt <= T < inf, got T={T}, dt={dt}")
    n = int(round(T / dt))
    if abs(n * dt - T) > 4.0 * np.spacing(T):
        raise NoiseError(f"dt={dt} does not divide T={T}; grids must align")
    return n


def sample_increments(seed, d, T, dt, n_paths, stream_offset=0):
    """Increments of streams [offset, offset + n_paths) as (n_steps, n_paths, d).

    Philox is counter-based, so column j is the draw of stream offset + j
    alone, whatever other streams are sampled beside it.
    """
    if n_paths < 1:
        raise NoiseError(f"need at least one path, got n_paths={n_paths}")
    n = _n_steps(T, dt)
    out = np.empty((n, n_paths, d))
    root = np.sqrt(dt)
    # one generator, re-keyed per stream: a fresh state with key [seed, stream]
    # is Philox(key=[seed, stream]), whose construction would draw OS entropy
    # only for the key to override it
    bits = _philox(seed, stream_offset)
    gen, fresh = Generator(bits), bits.state
    for j in range(n_paths):
        fresh["state"]["key"][1] = stream_offset + j
        bits.state = fresh
        out[:, j, :] = gen.standard_normal((n, d)) * root
    return out


def sample_brownian(seed, stream_id, d, T, dt):
    """Sample one path; identical (seed, stream_id) give bit-identical output."""
    inc = sample_increments(seed, d, T, dt, 1, stream_offset=stream_id)[:, 0, :]
    return BrownianPath(dt=dt, increments=inc, seed=seed, stream_id=stream_id)


def stacked_increments(paths):
    """Increments of paths on one grid as (n_steps, n_paths, d), in path order."""
    if len({(p.dt, p.increments.shape) for p in paths}) != 1:
        raise NoiseError("need one or more paths that share dt, step count and dimension")
    return np.stack([p.increments for p in paths], axis=1)


def zero_path(d, T, dt):
    """Deterministic path W == 0 (for noiseless companion runs)."""
    return BrownianPath(dt=dt, increments=np.zeros((_n_steps(T, dt), d)))


def path_from_increments(increments, dt):
    """Wrap externally supplied increments (test injection)."""
    return BrownianPath(dt=dt, increments=np.asarray(increments, dtype=float))


def grid_values(path: BrownianPath):
    """All grid values W(k dt), shape (n_steps + 1, d)."""
    return path._grid


def evaluate(path: BrownianPath, t):
    """W(t): exact at grid times, linear interpolation in between."""
    if not -1e-12 <= t <= path.T + 1e-9 * max(1.0, path.T):
        raise NoiseError(f"t={t} outside the path range [0, {path.T}]")
    t = min(max(t, 0.0), path.T)
    pos = t / path.dt
    k = int(np.floor(pos))
    if k >= path.n_steps:
        return path._grid[path.n_steps].copy()
    frac = pos - k
    if frac == 0.0:
        return path._grid[k].copy()
    return (1.0 - frac) * path._grid[k] + frac * path._grid[k + 1]


def path_to_csv(path: BrownianPath, fileobj):
    """Write (t, W^1, ..., W^d) rows."""
    writer = csv.writer(fileobj)
    writer.writerow(["t"] + [f"W{i + 1}" for i in range(path.d)])
    for t, w in zip(path.times, path._grid):
        writer.writerow([f"{t:.17g}"] + [f"{v:.17g}" for v in w])


# ---------------------------------------------------------------------------
# Wong-Zakai smoothing W_n(t) = int n theta(n (t - s)) W(s) ds


@dataclass(frozen=True)
class SmoothedPath:
    """Differentiable approximation of a Brownian path.

    value(t) convolves the base path against n theta(n(t-s)); derivative(t)
    against n^2 theta'(n(t-s)), where theta is the unit-mass bump kernel
    on (-1, 1).  The base path is extended by 0 below 0 and by W(T) above T,
    so value(t) reads the path only on (t-1/n, t+1/n).  Quadrature runs on
    32 fixed Gauss nodes; weights are normalized so that affine test paths
    are reproduced exactly away from the ends.
    """

    base: BrownianPath
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise NoiseError("smoothing index n must be >= 1")
        u, w = leggauss(32)
        kv = w * (bump_value(u) / _bump_mass())
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_wval", kv / kv.sum())
        kd = w * (bump_derivative(u) / _bump_mass())
        # enforce int u theta'(u) du = -1 discretely so d/dt of affine is exact
        scale = -float(np.sum(kd * u))
        object.__setattr__(self, "_wder", kd / scale)

    def _w_many(self, times):
        """Base path at several times, constant-extended outside [0, T]."""
        ts = np.clip(np.asarray(times, dtype=float), 0.0, self.base.T)
        grid = grid_values(self.base)
        tg = self.base.times
        return np.stack(
            [np.interp(ts, tg, grid[:, i]) for i in range(self.base.d)], axis=-1
        )

    def value(self, t):
        w = self._w_many(t - self._u / self.n)
        return self._wval @ w

    def derivative(self, t):
        w = self._w_many(t - self._u / self.n)
        return self.n * (self._wder @ w)


def wong_zakai_smooth(path: BrownianPath, n):
    """Smoothed path W_n with value(t) and derivative(t) accessors."""
    return SmoothedPath(base=path, n=int(n))
