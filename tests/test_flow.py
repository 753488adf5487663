import csv
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab import drift as dr
from transportlab import experiments as ex
from transportlab import flow as fl
from transportlab import harness
from transportlab import noise as nz
from transportlab import parabolic as pb
from transportlab import transport as tp


@pytest.fixture(scope="module")
def path():
    return nz.sample_brownian(1, 0, 1, 1.0, 1 / 256)


def test_zero_drift_is_translation(path):
    grid = np.linspace(-2, 2, 65)
    ens = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [1.0])
    w = nz.grid_values(path)[:, 0]
    err = np.max(np.abs(ens.states[:, :, 0] - (grid[None, :] + w[:, None])))
    assert err < 1e-12
    for i in (1, 32, 63):
        assert abs(fl.jacobian_fd(ens, i, 1.0) - 1.0) < 1e-10


def test_linear_drift_first_order_convergence():
    # closed-form oracle x0 e^{a t} for the noiseless linear equation
    a, x0 = 0.7, 1.0
    lin = dr.LinearDrift(matrix=[[a]])
    errs = []
    for dt in (2**-8, 2**-9, 2**-10):
        zp = nz.zero_path(1, 1.0, dt)
        tr = fl.integrate_sde(lin, zp, x0, 0.0, 1.0)
        errs.append(abs(tr.states[-1, 0] - x0 * np.exp(a)))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(1.8 < r < 2.2 for r in ratios)  # first order in dt


def test_holder_deterministic_closed_form():
    # x' = 2 sqrt(x) from 1: x(t) = (1 + t)^2 while below the cap
    h = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True)
    zp = nz.zero_path(1, 0.25, 2**-12)
    tr = fl.integrate_sde(h, zp, 1.0, 0.0, 0.25)
    assert tr.states[-1, 0] == pytest.approx((1 + 0.25) ** 2, abs=2e-4)


def test_rotation_rigid_motion():
    rot = dr.Rotation2DDrift(omega=1.0)
    zp = nz.zero_path(2, 1.0, 2**-12)
    ens = fl.forward_flow(
        rot, zp, np.array([[[1.0, 0.0]], [[0.0, 0.5]], [[-0.3, 0.2]]]).reshape(3, 1, 2), 0.0, [1.0]
    )
    c, s = np.cos(1.0), np.sin(1.0)
    R = np.array([[c, -s], [s, c]])
    for i in range(3):
        expect = R @ ens.initial[i]
        assert np.linalg.norm(ens.states[-1, i] - expect) < 5e-4


def test_shared_noise_order_preservation(path):
    h5 = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    specs = [
        dr.ZeroDrift(),
        h5,
        dr.HolderPowerDrift(gamma=0.3, cap=2.0, signed=False),
        dr.mollify_drift(h5, 0.05),
        dr.LinearDrift(matrix=[[-0.8]]),
    ]
    grid = np.linspace(-2, 2, 65)
    for spec in specs:
        ens = fl.forward_flow(spec, path, grid, 0.0, [1.0])
        assert np.all(np.diff(ens.states[:, :, 0], axis=1) > 0)


def test_cocycle_restart_exact(path):
    h = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    full = fl.integrate_sde(h, path, 0.4, 0.0, 1.0)
    half = fl.integrate_sde(h, path, 0.4, 0.0, 0.5)
    rest = fl.integrate_sde(h, path, half.states[-1], 0.5, 1.0)
    assert abs(rest.states[-1, 0] - full.states[-1, 0]) < 1e-12


def test_inverse_backward_zero_drift(path):
    y = np.array([0.4])
    inv = fl.inverse_flow_backward(dr.ZeroDrift(), path, y, 0.0, 1.0)
    assert inv[0] == pytest.approx(0.4 - nz.evaluate(path, 1.0)[0], abs=1e-13)


def test_inverse_rotation_round_trip():
    rot = dr.Rotation2DDrift(omega=0.9)
    zp = nz.zero_path(2, 1.0, 2**-10)
    y = np.array([0.7, -0.2])
    x = fl.inverse_flow_backward(rot, zp, y, 0.0, 1.0)
    c, s = np.cos(-0.9), np.sin(-0.9)
    expect = np.array([[c, -s], [s, c]]) @ y
    assert np.linalg.norm(x - expect) < 1e-3
    back = fl.integrate_sde(rot, zp, x, 0.0, 1.0)
    assert np.linalg.norm(back.states[-1] - y) < 1e-3


def test_round_trip_error_ladder():
    # composition error against the dt^(1/2) envelope; the backward march
    # retraces the forward one, so the measured decay is at least that fast
    h = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    dts = (2**-8, 2**-10, 2**-12)
    errs = []
    for dt in dts:
        p = nz.sample_brownian(9, 0, 1, 1.0, dt)
        x0 = fl.inverse_flow_backward(h, p, [0.4], 0.0, 1.0)
        tr = fl.integrate_sde(h, p, x0, 0.0, 1.0)
        errs.append(abs(tr.states[-1, 0] - 0.4))
    C = errs[0] / np.sqrt(dts[0])
    assert all(e <= C * np.sqrt(dt) + 1e-12 for e, dt in zip(errs, dts))
    exponent = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert exponent >= 0.4


def test_self_convergence_bracket():
    # strong error vs a dt = 2^-14 reference on shared noise; the average
    # halving factor sits in the conservative Euler bracket
    h = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    factors = []
    for sid in range(10):
        ref_p = nz.sample_brownian(9, sid, 1, 1.0, 2**-14)
        ref = fl.integrate_sde(h, ref_p, 0.3, 0.0, 1.0).states[-1, 0]
        errs = []
        for dt in (2**-8, 2**-9, 2**-10):
            m = int(round(dt / 2**-14))
            coarse = nz.path_from_increments(
                ref_p.increments.reshape(-1, m, 1).sum(axis=1), dt
            )
            errs.append(abs(fl.integrate_sde(h, coarse, 0.3, 0.0, 1.0).states[-1, 0] - ref))
        factors.append((errs[0] / errs[-1]) ** 0.5)
    med = float(np.median(factors))
    assert 1.2 <= med <= 2.2


def test_inverse_routes_agree(path):
    h = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    grid = np.linspace(-3, 3, 257)
    ens = fl.forward_flow(h, path, grid, 0.0, [1.0])
    h_x = grid[1] - grid[0]
    for y in (-0.5, 0.3, 1.2):
        xi = fl.inverse_flow_interpolate(ens, y, 1.0)
        xb = fl.inverse_flow_backward(h, path, [y], 0.0, 1.0)[0]
        assert abs(float(xi) - xb) < 3.0 * (h_x + np.sqrt(path.dt))


def test_inverse_interpolate_identity_and_domain(path):
    grid = np.linspace(-1, 1, 33)
    ens = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [0.0, 1.0])
    for x in grid[::8]:
        assert float(fl.inverse_flow_interpolate(ens, x, 0.0)) == pytest.approx(x, abs=0)
    with pytest.raises(fl.FlowError, match="image range"):
        fl.inverse_flow_interpolate(ens, 50.0, 1.0)


def test_inverse_interpolate_2d():
    # the grid inverse is 1-d only; a 2-d ensemble is refused, not misread
    rot = dr.Rotation2DDrift(omega=1.0)
    p2 = nz.sample_brownian(3, 1, 2, 0.5, 2**-8)
    side = np.linspace(-1, 1, 17)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1)
    ens = fl.forward_flow(rot, p2, lattice, 0.0, [0.5])
    with pytest.raises(fl.FlowError, match="one-dimensional; the ensemble is 2-d"):
        fl.inverse_flow_interpolate(ens, np.array([0.2, -0.3]), 0.5)


def test_forward_flow_needs_a_time(path):
    with pytest.raises(fl.FlowError, match="t_list"):
        fl.forward_flow(dr.ZeroDrift(), path, np.linspace(-1, 1, 5), 0.0, [])


@pytest.mark.parametrize(
    "probe",
    [
        pytest.param(lambda: pb.ito_tanaka_check(
            dr.ZeroDrift(), lambda x: x, [], 0.0, 4.0, 64, 64, t=0.5), id="ito_tanaka_check"),
        pytest.param(lambda: fl.pathwise_uniqueness_probe(
            dr.ZeroDrift(), [], 0.0, [0.1], 0.5), id="pathwise_uniqueness_probe"),
        pytest.param(lambda: fl.sobolev_jacobian_probe(
            [0.5], [0.1], [], 1.0, n_x=8, t=0.5), id="sobolev_jacobian_probe"),
        pytest.param(lambda: fl.log_jacobian_cumulative(
            dr.ZeroDrift(), [], np.linspace(-1, 1, 5), 0.5), id="log_jacobian_cumulative"),
    ],
)
def test_empty_path_list_raises_noise_error(probe):
    with pytest.raises(nz.NoiseError, match="one or more paths"):
        probe()


def test_jacobian_rotation_near_one():
    # Euler drifts det by omega^2 dt t per step product; keep omega small
    rot = dr.Rotation2DDrift(omega=3e-4)
    p2 = nz.sample_brownian(4, 0, 2, 0.25, 2**-10)
    side = np.linspace(-1, 1, 9)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1)
    ens = fl.forward_flow(rot, p2, lattice, 0.0, [0.25])
    assert abs(fl.jacobian_fd(ens, (4, 4), 0.25) - 1.0) < 1e-10


def test_jacobian_linear_oracle():
    a = 0.6
    lin = dr.LinearDrift(matrix=[[a]])
    zp = nz.zero_path(1, 0.5, 2**-12)
    grid = np.linspace(-1, 1, 257)
    ens = fl.forward_flow(lin, zp, grid, 0.0, [0.5])
    assert fl.jacobian_fd(ens, 128, 0.5) == pytest.approx(np.exp(a * 0.5), rel=1e-3)
    tr = fl.integrate_sde(lin, zp, 0.0, 0.0, 0.5)
    assert fl.jacobian_logdiv(lin, tr.times, tr.states, zp.dt) == pytest.approx(a * 0.5, rel=1e-12)


def test_jacobian_boundary_raises(path):
    grid = np.linspace(-1, 1, 9)
    ens = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [1.0])
    with pytest.raises(fl.FlowError):
        fl.jacobian_fd(ens, 0, 1.0)


def test_jacobian_logdiv_divergence_free():
    rot = dr.Rotation2DDrift(omega=1.0)
    p2 = nz.sample_brownian(4, 0, 2, 0.5, 2**-8)
    tr = fl.integrate_sde(rot, p2, [0.3, 0.1], 0.0, 0.5)
    assert fl.jacobian_logdiv(rot, tr.times, tr.states, p2.dt) == 0.0


def test_jacobian_routes_cross_validate():
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.7, cap=2.0), 0.05)
    p = nz.sample_brownian(5, 0, 1, 0.5, 2**-12)
    xs = np.linspace(-0.5, 0.5, 257)
    ens = fl.forward_flow(spec, p, xs, 0.0, [0.5])
    jfd = fl.jacobian_fd(ens, 128, 0.5)
    jld = fl.jacobian_logdiv(spec, ens.times, ens.states[:, 128], p.dt)
    assert abs(np.exp(jld) - jfd) / jfd < 5e-2


def test_uniqueness_probe(path):
    h = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    rep = fl.pathwise_uniqueness_probe(h, [path], 0.0, [1e-2, 1e-3, 1e-4], 1.0)
    seps = [r["separation_at_t"][0] for r in rep.rows]
    assert seps[0] > seps[1] > seps[2] > 0
    assert rep.extremal_separation == pytest.approx(2.0, abs=1e-12)
    # translations: zero drift keeps the offset exactly
    rep0 = fl.pathwise_uniqueness_probe(dr.ZeroDrift(), [path], 0.0, [1e-2], 1.0)
    assert rep0.rows[0]["separation_at_t"][0] == pytest.approx(1e-2, abs=1e-15)
    assert rep0.extremal_separation is None


def test_random_drift_negative_probe(path):
    rep = fl.random_drift_negative_probe(path, 0.0, 1.0)
    assert rep["residual_zero"] == 0.0
    assert rep["residual_parabola"] == pytest.approx(path.dt / 4.0, rel=1e-9)
    assert rep["separation_at_t"] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(fl.FlowError):
        fl.random_drift_negative_probe(path, 0.5, 1.0)


def test_sobolev_probe_trivial_oracles(path):
    rows = fl.sobolev_jacobian_probe(
        [0.5], [0.1], [path], 0.5, n_x=32, t=0.5,
        drift_factory=lambda g, e: dr.ZeroDrift(),
    )
    assert rows[0]["estimate"] == 0.0
    rows = fl.sobolev_jacobian_probe(
        [0.5], [0.1], [path], 0.5, n_x=32, t=0.5,
        drift_factory=lambda g, e: dr.LinearDrift(matrix=[[0.7]]),
    )
    assert abs(rows[0]["estimate"]) < 1e-20  # log J independent of x


def test_overflow_aborts_with_step():
    lin = dr.LinearDrift(matrix=[[4.0]])
    zp = nz.zero_path(1, 8.0, 0.5)
    with pytest.raises(fl.FlowError, match="step"):
        fl.integrate_sde(lin, zp, 1e307, 0.0, 8.0)


def test_ensemble_exports(path):
    grid = np.linspace(-1, 1, 5)
    ens = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [1.0])
    buf = io.StringIO()
    fl.ensemble_to_csv(ens, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(ens.times) + 1
    assert lines[0].split(",")[0] == "t"

    raw = io.BytesIO()
    fl.ensemble_to_binary(ens, raw)
    raw.seek(0)
    again = fl.ensemble_from_binary(raw)
    assert np.array_equal(again.states, ens.states)
    assert np.array_equal(again.times, ens.times)
    assert np.array_equal(again.initial, ens.initial)
    assert again.start == ens.start
    assert again.lattice_shape == ens.lattice_shape and again.spacing == ens.spacing

    data = raw.getvalue()
    with pytest.raises(fl.FlowError, match="version 9"):
        fl.ensemble_from_binary(io.BytesIO(data[:4] + struct.pack("<I", 9) + data[8:]))
    with pytest.raises(fl.FlowError, match="empty"):
        fl.ensemble_from_binary(io.BytesIO(data[:8] + struct.pack("<I", 0) + data[12:]))
    # cut inside the header, the times, the initial points and the states
    for cut in (10, 24, 20 + 8 * len(ens.times) + 4, len(data) - 1):
        with pytest.raises(fl.FlowError, match="truncated"):
            fl.ensemble_from_binary(io.BytesIO(data[:cut]))


def test_single_time_objects(path):
    ens = fl.forward_flow(dr.ZeroDrift(), path, np.linspace(-1, 1, 5), 0.5, [0.5])
    assert len(ens.times) == 1
    assert ens.time_index(0.5) == 0
    assert np.array_equal(ens.states_at(0.5), ens.initial)
    with pytest.raises(fl.FlowError, match="not stored"):
        ens.time_index(0.25)
    traj = fl.integrate_sde(dr.ZeroDrift(), path, 0.3, 0.5, 0.5)
    assert len(traj.times) == 1
    assert traj.at(0.5)[0] == 0.3
    with pytest.raises(fl.FlowError, match="not on the trajectory grid"):
        traj.at(0.75)


def test_measure_preservation_fine_lattice():
    # divergence-free rotation at lattice spacing 2^-6 and dt = 2^-10
    rot = dr.Rotation2DDrift(omega=0.01)
    p2 = nz.sample_brownian(8, 0, 2, 0.25, 2**-10)
    side = np.arange(-0.5, 0.5 + 2**-6, 2**-6)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1)
    ens = fl.forward_flow(rot, p2, lattice, 0.0, [0.25])
    n = len(side)
    worst = max(
        abs(fl.jacobian_fd(ens, (i, j), 0.25) - 1.0)
        for i in range(1, n - 1, 8)
        for j in range(1, n - 1, 8)
    )
    assert worst < 1e-6


_lattices = st.one_of(
    st.tuples(st.integers(1, 7)),
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
)


@settings(max_examples=60, deadline=None)
@given(shape=_lattices, n_times=st.integers(1, 4), data=st.data())
def test_ensemble_binary_roundtrip_property(shape, n_times, data):
    n, d = int(np.prod(shape)), len(shape)
    values = lambda size: np.array(
        data.draw(st.lists(st.floats(allow_nan=False, width=64), min_size=size, max_size=size)),
        dtype=float,
    )
    times = values(n_times)
    spacing = tuple(data.draw(st.floats(min_value=0.0, max_value=1e3)) for _ in shape)
    ens = fl.FlowEnsemble(
        path=None, start=float(times[0]), times=times, initial=values(n * d).reshape(n, d),
        states=values(n_times * n * d).reshape(n_times, n, d), lattice_shape=shape, spacing=spacing,
    )
    raw = io.BytesIO()
    fl.ensemble_to_binary(ens, raw)
    again = fl.ensemble_from_binary(io.BytesIO(raw.getvalue()))
    assert again == ens
    assert again.lattice_shape == shape and again.spacing == spacing
    for name in ("times", "initial", "states"):
        assert getattr(again, name).tobytes() == getattr(ens, name).tobytes()  # signed zeros too


@settings(max_examples=60, deadline=None)
@given(shape=_lattices, n_times=st.integers(1, 4), data=st.data())
def test_ensemble_csv_roundtrip_property(shape, n_times, data):
    n, d = int(np.prod(shape)), len(shape)
    values = lambda size: np.array(
        data.draw(st.lists(st.floats(allow_nan=False, width=64), min_size=size, max_size=size)),
        dtype=float,
    )
    times = values(n_times)
    ens = fl.FlowEnsemble(
        path=None, start=float(times[0]), times=times, initial=values(n * d).reshape(n, d),
        states=values(n_times * n * d).reshape(n_times, n, d), lattice_shape=shape,
        spacing=(0.0,) * d,
    )
    buf = io.StringIO()
    fl.ensemble_to_csv(ens, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    header = rows[0]
    assert header[0] == "t" and len(header) == 1 + n * d
    initial = []
    for col in header[1::d]:
        coords = col.removeprefix("x0=").split(":")[0]
        initial.append([float(c) for c in coords.split("_")])
    assert np.array_equal(np.array(initial), ens.initial)
    if d == 2:
        assert [c.rsplit(":", 1)[1] for c in header[1:]] == ["x", "y"] * n
    body = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(body[:, 0], ens.times)
    assert np.array_equal(body[:, 1:].reshape(ens.states.shape), ens.states)
    assert body[:, 1:].tobytes() == ens.states.tobytes()  # signed zeros too


def test_ensemble_binary_keeps_2d_lattice():
    rot = dr.Rotation2DDrift(omega=0.5)
    p2 = nz.sample_brownian(3, 0, 2, 0.25, 2**-6)
    side = np.linspace(-1, 1, 4)
    lattice = np.stack(np.meshgrid(side, side, indexing="ij"), axis=-1)
    ens = fl.forward_flow(rot, p2, lattice, 0.0, [0.25])
    raw = io.BytesIO()
    fl.ensemble_to_binary(ens, raw)
    again = fl.ensemble_from_binary(io.BytesIO(raw.getvalue()))
    assert again.lattice_shape == (4, 4) and again.spacing == ens.spacing
    assert fl.jacobian_fd(again, (1, 1), 0.25) == fl.jacobian_fd(ens, (1, 1), 0.25)
    # version 1 dumps carry no lattice header and still load, as a 1-d lattice
    m, n, d = ens.states.shape
    arrays = (ens.times, ens.initial, ens.states)
    v1 = b"TLFL" + struct.pack("<IIII", 1, m, n, d) + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays
    )
    old = fl.ensemble_from_binary(io.BytesIO(v1))
    assert old.lattice_shape == (16,) and np.array_equal(old.states, ens.states)
    # a lattice header that does not hold the stored points
    data = raw.getvalue()
    with pytest.raises(fl.FlowError, match="does not hold 16 points"):
        fl.ensemble_from_binary(io.BytesIO(data[:24] + struct.pack("<II", 4, 5) + data[32:]))
    with pytest.raises(fl.FlowError, match="lattice rank 7"):
        fl.ensemble_from_binary(io.BytesIO(data[:20] + struct.pack("<I", 7) + data[24:]))


def test_flow_objects_compare_by_value(path):
    grid = np.linspace(-1, 1, 5)
    a = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [1.0])
    b = fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [1.0])
    assert a == b and hash(a) == hash(b)
    assert a != fl.forward_flow(dr.ZeroDrift(), path, grid + 0.5, 0.0, [1.0])
    assert a != fl.forward_flow(dr.ZeroDrift(), path, grid, 0.0, [0.5])
    s = fl.integrate_sde(dr.ZeroDrift(), path, 0.3, 0.0, 0.5)
    t = fl.integrate_sde(dr.ZeroDrift(), path, 0.3, 0.0, 0.5)
    assert s == t and hash(s) == hash(t)
    assert s != fl.integrate_sde(dr.ZeroDrift(), path, 0.4, 0.0, 0.5)
    assert s != a


# ---------------------------------------------------------------------------
# one-path-at-a-time oracles: the march loops that flow.march replaced


def _euler_many_oracle(spec, increments, X0, dt, k0, k1):
    X = np.array(X0, dtype=float)
    states = np.empty((k1 - k0 + 1,) + X.shape)
    states[0] = X
    for k in range(k0, k1):
        bval = spec.value(k * dt, X)
        X = X + bval * dt + increments[k]
        states[k - k0 + 1] = X
    return states


def _backward_batch_oracle(spec, increments, dt, Y, s_idx, t_idx, record=False):
    Z = (np.asarray(Y, dtype=float) + np.zeros(increments.shape[1:])).astype(float)
    states = [Z]
    for k in range(t_idx, s_idx, -1):
        Z = Z - spec.value(k * dt, Z) * dt - increments[k - 1]
        states.append(Z)
    return np.array(states[::-1]) if record else Z


@pytest.mark.parametrize(
    "spec, d",
    [
        pytest.param(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 1, id="holder"),
        pytest.param(dr.mollify_drift(dr.HolderPowerDrift(gamma=0.7, cap=2.0), 0.05), 1,
                     id="mollified-holder"),
        pytest.param(dr.LinearDrift(matrix=[[-0.8]]), 1, id="linear"),
        pytest.param(dr.Rotation2DDrift(omega=0.9), 2, id="rotation2d"),
    ],
)
def test_march_matches_one_path_oracles_bitwise(spec, d):
    dt, k0, k1, n_paths = 2**-7, 3, 100, 5
    inc = nz.sample_increments(4, d, 1.0, dt, n_paths)
    X0 = np.linspace(-1.5, 1.5, 9 * d).reshape(9, d)
    batch = inc[:, :, None, :]  # (steps, paths, points, d)
    fwd = fl.march(spec, batch, X0, dt, k0, k1, record=True)
    fwd_end = fl.march(spec, batch, X0, dt, k0, k1)
    bwd = fl.march(spec, batch, X0, dt, k0, k1, backward=True, record=True)
    bwd_end = fl.march(spec, batch, X0, dt, k0, k1, backward=True)
    assert fwd.shape == bwd.shape == (k1 - k0 + 1, n_paths, 9, d)
    for j in range(n_paths):
        oracle = _euler_many_oracle(spec, inc[:, j], X0, dt, k0, k1)
        assert np.array_equal(fwd[:, j], oracle)
        assert np.array_equal(fwd_end[j], oracle[-1])
        back = _backward_batch_oracle(spec, inc[:, j], dt, X0, k0, k1, record=True)
        assert np.array_equal(bwd[:, j], back)
        assert np.array_equal(bwd_end[j], _backward_batch_oracle(spec, inc[:, j], dt, X0, k0, k1))
        assert np.array_equal(bwd[-1, j], X0)


def _mean_pde_mc_per_probe_oracle(config):
    """The Monte Carlo mean of mean-pde-mc with one backward march per probe."""
    g = config.grid
    spec = ex._mollified_power(config)
    u0 = tp.SmoothBumpDatum(0.0, 1.0)
    probes = np.asarray(config.extra["probes"], dtype=float)
    n_paths = int(config.ensemble)
    k_t = int(round(g["T"] / g["dt"]))
    mc = np.empty((n_paths, len(probes)))
    block = 2000
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        inc = nz.sample_increments(config.seed, 1, g["T"], g["dt"], hi - lo, stream_offset=lo)
        for i, x in enumerate(probes):
            pre = fl.march(spec, inc, [x], g["dt"], 0, k_t, backward=True)
            mc[lo:hi, i] = u0(pre[:, 0])
    return mc.mean(axis=0)


def test_mean_pde_mc_batched_probes_match_per_probe_oracle_bitwise():
    # 2,100 paths: one full block of 2,000 and a partial one
    config = harness.load_config("mean-pde-mc", overrides=["ensemble=2100", "grid.dt=0.03125"])
    rep = harness.run_experiment(config, write=False)
    assert [m for _, m in rep.series["x-vs-mc"]] == _mean_pde_mc_per_probe_oracle(config).tolist()


def test_march_rejects_bad_step_range():
    inc = np.zeros((8, 1))
    for k0, k1 in ((3, 2), (-1, 4), (0, 9)):
        with pytest.raises(fl.FlowError, match="k0"):
            fl.march(dr.ZeroDrift(), inc, [0.0], 0.125, k0, k1)


def test_march_start_is_checked_by_the_drift():
    # a bad start is the drift's error, not an overflow of the march
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.1)
    inc = np.zeros((8, 1))
    for start in ([np.nan], [np.inf], [[0.1], [-np.inf]]):
        for backward in (False, True):
            with pytest.raises(dr.DriftError, match="non-finite"):
                fl.march(spec, inc, start, 0.125, 0, 8, backward=backward)
    with pytest.raises(dr.DriftError, match="point shape"):
        fl.march(spec, np.zeros((8, 2)), [0.0, 0.0], 0.125, 0, 8)


@pytest.mark.parametrize("n_x", [0, 1])
def test_sobolev_probe_needs_two_cells(path, n_x):
    with pytest.raises(fl.FlowError, match=f"n_x={n_x}"):
        fl.sobolev_jacobian_probe([0.5], [0.1], [path], 1.0, n_x=n_x, t=0.5)


def _logdiv_oracle(spec, path, x, t):
    states = _euler_many_oracle(spec, path.increments, [[x]], path.dt, 0, path.index_of(t))
    vals = spec.divergence(0.0, states[:, 0])
    return float(np.trapezoid(vals, dx=path.dt))


def _log_jacobian_cumulative_oracle(spec, path, xs, t):
    states = _euler_many_oracle(spec, path.increments, xs[:, None], path.dt, 0, path.index_of(t))
    times = path.dt * np.arange(len(states))
    vals = np.empty((len(times), len(xs)))
    for k, tt in enumerate(times):
        vals[k] = spec.divergence(tt, states[k])
    out = np.zeros_like(vals)
    np.cumsum(0.5 * (vals[1:] + vals[:-1]) * path.dt, axis=0, out=out[1:])
    return out


def test_batched_jacobian_probes_match_per_path_oracles_bitwise():
    # per-path time integrals of a batch must sum in a single path's order
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.25, cap=2.0), 0.05)
    paths = [nz.sample_brownian(13, j, 1, 0.5, 2**-9) for j in range(4)]
    dt, kt = paths[0].dt, paths[0].index_of(0.5)
    inc = nz.stacked_increments(paths)[:, :, None, :]
    traj = fl.march(spec, inc, [[0.1]], dt, 0, kt, record=True)[:, :, 0]
    batch = fl.jacobian_logdiv(spec, dt * np.arange(kt + 1), traj, dt)
    assert np.array_equal(batch, [_logdiv_oracle(spec, p, 0.1, 0.5) for p in paths])

    rows = fl.sobolev_jacobian_probe([0.25, 0.75], [0.025], paths, 0.5, n_x=32, t=0.5)
    xs = np.linspace(-0.5, 0.5, 33)
    h = xs[1] - xs[0]
    for row in rows:
        spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=row["gamma"], cap=2.0), row["eps"])
        acc = 0.0
        for p in paths:
            logj = _log_jacobian_cumulative_oracle(spec, p, xs, 0.5)
            dlog = (logj[:, 2:] - logj[:, :-2]) / (2.0 * h)
            space = np.trapezoid(dlog**2, dx=h, axis=1)
            acc += float(np.trapezoid(space, dx=p.dt))
        assert row["estimate"] == acc / len(paths)
