import numpy as np
import pytest

from transportlab import drift as dr
from transportlab import flow as fl
from transportlab import noise as nz
from transportlab import transport as tp


@pytest.fixture(scope="module")
def path():
    return nz.sample_brownian(7, 0, 1, 1.0, 2**-9)


# ---------------------------------------------------------------------------
# data and test functions


def test_step_and_bump_data():
    step = tp.StepDatum(0.0)
    assert np.array_equal(step(np.array([-1.0, 0.0, 0.5])), [0.0, 0.0, 1.0])
    assert step.discontinuities == (0.0,)
    bump = tp.SmoothBumpDatum(0.0, 1.0)
    assert bump(0.0) == 1.0 and bump(1.0) == 0.0 and bump(2.0) == 0.0
    assert bump.sup_norm == 1.0


def test_test_function_derivatives():
    for theta in (tp.TestFunction(0.3, 1.2), tp.TestFunction(np.array([0.1, -0.2]), 0.9)):
        d = theta.dim
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.4, 0.4, size=(5, d)) if d > 1 else rng.uniform(-0.5, 0.9, 5)
        h = 1e-6
        if d == 1:
            fd_grad = (theta.value(pts + h) - theta.value(pts - h)) / (2 * h)
            assert np.allclose(theta.grad(pts), fd_grad, atol=1e-6)
            fd_lap = (theta.value(pts + h) - 2 * theta.value(pts) + theta.value(pts - h)) / h**2
            assert np.allclose(theta.laplacian(pts), fd_lap, atol=1e-3)
            edge = theta.center + theta.radius
            assert theta.value(edge) == 0.0 and theta.grad(edge) == 0.0
            assert theta.laplacian(edge) == 0.0
        else:
            e = np.zeros(d)
            e[0] = h
            fd = (theta.value(pts + e) - theta.value(pts - e)) / (2 * h)
            assert np.allclose(theta.grad(pts)[:, 0], fd, atol=1e-6)


# ---------------------------------------------------------------------------
# deterministic family


def test_family_emission_time_matches_closed_form():
    u0 = tp.StepDatum(0.0)
    got = tp.deterministic_family(
        0.5, 2.0, u0, lambda s: s, lambda s: -1.0, 1.0, np.array([0.5])
    )
    assert got[0] == pytest.approx(1.0 - np.sqrt(0.5), rel=1e-12)


def test_family_three_members():
    u0 = tp.StepDatum(0.0)
    xs = np.array([-1.5, -0.5, 0.5, 1.5])
    for a in (0.0, 0.5, 1.0):
        vals = tp.deterministic_family(
            0.5, 2.0, u0, lambda s, a=a: a, lambda s, a=a: a, 1.0, xs
        )
        assert np.array_equal(vals, [0.0, a, a, 1.0])


def test_family_zero_functions():
    u0 = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    vals = tp.deterministic_family(0.5, 2.0, u0, lambda s: 0.0, lambda s: 0.0, 1.0,
                                   np.linspace(-2, 2, 11))
    assert np.all(vals == 0.0)


def test_family_tie_breaks():
    u0 = tp.StepDatum(0.0)
    xp = fl.holder_extremal_branch(0.5, 2.0, 1.0)  # = 1
    fam = lambda x: tp.deterministic_family(
        0.5, 2.0, u0, lambda s: 0.25, lambda s: 0.75, 1.0, np.array([x])
    )[0]
    assert fam(float(xp)) == 0.25        # closed middle branch at x = x_+
    assert fam(float(xp) + 1e-9) == 1.0  # open outer branch just above
    assert fam(0.0) == 0.25              # x = 0 belongs to the plus branch
    assert fam(-1e-12) == 0.75


def _family_previous(gamma, cap, u0, gamma_plus, gamma_minus, t, x):
    """Oracle: the family through np.vectorize, np.clip and guarded assignments."""
    def phi_inverse(y):
        slope = cap**gamma / (1.0 - gamma)
        below = np.clip(y ** (1.0 - gamma) - t, 0.0, None) ** (1.0 / (1.0 - gamma))
        t_lin = np.clip((y - cap) / slope, 0.0, None)
        rem = np.clip(t - t_lin, 0.0, None)
        above_near = np.clip(cap ** (1.0 - gamma) - rem, 0.0, None) ** (1.0 / (1.0 - gamma))
        return np.where(y <= cap, below, np.where(t <= t_lin, y - t * slope, above_near))

    x = np.asarray(x, dtype=float)
    xp = float(fl.holder_extremal_branch(gamma, cap, t))
    t0 = t - tp._time_from_origin(gamma, cap, np.abs(x))
    out = np.empty_like(x)
    hi, lo = x > xp, x < -xp
    mid_plus, mid_minus = (x >= 0.0) & ~hi, (x < 0.0) & ~lo
    if np.any(hi):
        out[hi] = u0(phi_inverse(x[hi]))
    if np.any(lo):
        out[lo] = u0(-phi_inverse(-x[lo]))
    if np.any(mid_plus):
        out[mid_plus] = np.vectorize(gamma_plus, otypes=[float])(t0[mid_plus])
    if np.any(mid_minus):
        out[mid_minus] = np.vectorize(gamma_minus, otypes=[float])(t0[mid_minus])
    return out


# 2/3: 1/(1 - gamma) is 3 up to rounding; at an odd integer power a negative zero keeps its sign
@pytest.mark.parametrize("gamma", [0.25, 0.5, 2.0 / 3.0, 0.75])
def test_family_matches_previous_formula_bitwise(gamma):
    cap = 2.0
    rng = np.random.default_rng(3)
    identity = lambda y: np.asarray(y, dtype=float)  # shows phi^{-1} itself, signed zeros too
    branches = [(lambda s: 0.25, lambda s: 0.75), (lambda s: 0.5 * s + 0.125, lambda s: -s)]
    t_cap = cap ** (1.0 - gamma)
    for t in (1e-3, 1.0, 2.5 * t_cap):
        xp = float(fl.holder_extremal_branch(gamma, cap, t))
        x = np.concatenate([
            rng.uniform(-(xp + 3.0), xp + 3.0, 200),
            [0.0, -0.0, xp, -xp, np.nextafter(xp, 9.0), -np.nextafter(xp, 9.0), cap, -cap],
            # past the cap on both outer branches, inside and beyond the linear stretch
            [xp + cap, -(xp + cap), xp + 9.0 * cap, -(xp + 9.0 * cap)],
        ])
        for u0 in (identity, tp.StepDatum(0.0), tp.SmoothBumpDatum(0.5, 2.0)):
            for gp, gm in branches:
                got = tp.deterministic_family(gamma, cap, u0, gp, gm, t, x)
                want = _family_previous(gamma, cap, u0, gp, gm, t, x)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("x", [[np.nan, 0.5], [0.5, np.inf], [-np.inf]])
def test_family_rejects_non_finite_points(x):
    with pytest.raises(tp.TransportError, match="^x: "):
        tp.deterministic_family(0.5, 2.0, tp.StepDatum(0.0), lambda s: 0.0, lambda s: 1.0, 1.0, x)


@pytest.mark.parametrize("name", ["t", "cap"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_family_rejects_bad_t_and_cap(name, bad):
    # t=nan and cap=nan returned [0.5]
    args = {"t": 1.0, "cap": 2.0, name: bad}
    with pytest.raises(tp.TransportError, match=f"^{name}="):
        tp.deterministic_family(0.5, args["cap"], tp.StepDatum(0.0), lambda s: 0.5, lambda s: 0.5, args["t"], [0.5])


def test_branch_capped_inverse():
    # once past the cap the flow is linear with slope b(R)
    gamma, cap = 0.5, 1.0
    t = 2.0
    xp = float(fl.holder_extremal_branch(gamma, cap, t))  # 1 + (2-1)*2 = 3
    assert xp == pytest.approx(1.0 + 1.0 * (cap**gamma / (1 - gamma)), rel=1e-12)
    y = xp + 0.5
    x0 = tp._phi_inverse_positive(gamma, cap, t, np.array([y]))[0]
    # integrate forward to confirm
    zp = nz.zero_path(1, t, 2**-12)
    spec = dr.HolderPowerDrift(gamma=gamma, cap=cap)
    fwd = fl.integrate_sde(spec, zp, x0, 0.0, t).states[-1, 0]
    assert fwd == pytest.approx(y, abs=2e-3)


# ---------------------------------------------------------------------------
# characteristics solutions


def test_characteristics_zero_drift(path):
    u0 = tp.SmoothBumpDatum(0.0, 0.8)
    xg = np.linspace(-1, 1, 21)
    w = nz.evaluate(path, 1.0)[0]
    # grid route: a 513-point lattice reaching one unit past the grid and the path
    reach = 2.0 + float(np.max(np.abs(nz.grid_values(path))))
    sol = tp.CharacteristicsSolution(dr.ZeroDrift(), path, u0, x_span=(-reach, reach), n_grid=513)
    assert np.allclose(sol(1.0, xg), u0(xg - w), atol=1e-10)
    # backward route: the backward SDE from every grid point
    pre = [fl.inverse_flow_backward(dr.ZeroDrift(), path, [x], 0.0, 1.0)[0] for x in xg]
    assert np.allclose(u0(np.array(pre)), u0(xg - w), atol=1e-12)


def test_characteristics_identity_at_zero_time(path):
    u0 = tp.SmoothBumpDatum(0.2, 0.5)
    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    char = tp.CharacteristicsSolution(spec, path, u0, x_span=(-6, 6), n_grid=257)
    xg = np.linspace(-1, 1, 11)
    assert np.allclose(char(0.0, xg), u0(xg), atol=1e-12)


def test_characteristics_step_location(path):
    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    u0 = tp.StepDatum(0.0)
    char = tp.CharacteristicsSolution(spec, path, u0, x_span=(-6, 6), n_grid=1025)
    jump = char.discontinuities(1.0)[0]
    origin_image = fl.integrate_sde(spec, path, 0.0, 0.0, 1.0).states[-1, 0]
    assert jump == pytest.approx(origin_image, abs=1e-12)
    h_x = 12.0 / 1024
    xg = np.linspace(jump - 0.2, jump + 0.2, 81)
    vals = char(1.0, xg)
    crossing = xg[np.argmax(vals > 0.5)]
    assert abs(crossing - origin_image) <= 2 * h_x
    # range preservation is exact: values are evaluations of u0
    assert set(np.unique(vals)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# residual checkers


def test_perturbative_zero_drift_exact(path):
    u0 = tp.SmoothBumpDatum(0.4, 0.8)
    prov = tp.ShiftedDatumSolution(path, u0)
    theta = tp.TestFunction(0.3, 1.5)
    res = tp.perturbative_residual(prov, dr.ZeroDrift(), theta, path, 1.0, n_x=512, n_s=512)
    assert res < 1e-6


def test_perturbative_null_field(path):
    zero_u0 = lambda x: np.zeros_like(np.asarray(x, dtype=float))

    class Null:
        u0 = staticmethod(zero_u0)

        def __call__(self, s, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def discontinuities(self, s):
            return ()

    res = tp.perturbative_residual(Null(), dr.HolderPowerDrift(gamma=0.5, cap=2.0),
                                   tp.TestFunction(0.0, 1.0), path, 1.0, n_x=64, n_s=64)
    assert res == 0.0


def test_perturbative_rejects_wrong_field(path):
    u0 = tp.SmoothBumpDatum(0.4, 0.8)

    class Frozen:
        def __init__(self, u0):
            self.u0 = u0

        def __call__(self, s, x):
            return self.u0(np.asarray(x, dtype=float))

        def discontinuities(self, s):
            return ()

    res = tp.perturbative_residual(Frozen(u0), dr.ZeroDrift(), tp.TestFunction(0.3, 1.5), path, 1.0)
    assert res > 0.05


def test_perturbative_joint_refinement(path):
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    u0 = tp.SmoothBumpDatum(0.0, 0.8)
    theta = tp.TestFunction(0.0, 1.5)
    res = []
    for dt_exp, n_grid, n_q in ((7, 257, 128), (8, 513, 256), (9, 1025, 512)):
        p = nz.sample_brownian(7, 0, 1, 1.0, 2.0**-dt_exp)
        char = tp.CharacteristicsSolution(spec, p, u0, x_span=(-8, 8), n_grid=n_grid)
        res.append(tp.perturbative_residual(char, spec, theta, p, 1.0, n_x=n_q, n_s=n_q))
    assert res[1] < res[0] and res[2] < res[1]


def test_ito_residual_constant_divergence_free(path):
    cf = tp.ConstantField(0.7)
    res = tp.weak_residual_ito(cf, dr.ZeroDrift(), tp.TestFunction(0.3, 1.5), path, 1.0)
    assert res < 1e-9  # quadrature rounding only; the div-b term is exactly zero


def test_residuals_divergence_free_2d():
    rot = dr.Rotation2DDrift(omega=0.7)
    p2 = nz.sample_brownian(3, 0, 2, 0.5, 2**-7)
    theta = tp.TestFunction(np.array([0.1, -0.2]), 1.0)
    cf = tp.ConstantField(0.9, dim=2)
    assert tp.weak_residual_ito(cf, rot, theta, p2, 0.5, n_x=96) < 1e-5
    assert tp.perturbative_residual(cf, rot, theta, p2, 0.5, n_x=96, n_s=64) < 1e-5


def test_residuals_2d_with_divergence():
    # div b = 0.8: u (b . grad theta) integrates to -u div b theta, which only
    # the per-axis Stieltjes sums of b supply
    lin = dr.LinearDrift([[0.3, 0.1], [-0.2, 0.5]])
    p2 = nz.sample_brownian(3, 0, 2, 0.5, 2**-7)
    theta = tp.TestFunction(np.array([0.1, -0.2]), 1.0)
    cf = tp.ConstantField(0.9, dim=2)
    assert tp.weak_residual_ito(cf, lin, theta, p2, 0.5, n_x=96) < 1e-5
    assert tp.perturbative_residual(cf, lin, theta, p2, 0.5, n_x=96, n_s=64) < 1e-5


# The previous 1-d perturbative loop and Stieltjes sum, kept as the reference
# the one-path quadrature must match bit for bit in 1-d.


def _gauss_cells_reference(edges):
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = np.concatenate([mid - half * dr._GAUSS_OFF, mid + half * dr._GAUSS_OFF])
    return nodes, np.concatenate([half, half])


def _stieltjes_div_reference(spec, s, edges, cofactor_at_mid):
    bvals = spec.value(s, edges[..., None])[..., 0]
    return float(np.sum((bvals[1:] - bvals[:-1]) * cofactor_at_mid))


def _perturbative_reference(provider, spec, theta, path, t, n_x, n_s):
    c, r = theta.center, theta.radius
    wt = nz.evaluate(path, t)[0]
    grid_w = nz.grid_values(path)[:, 0]
    nodes, w = _gauss_cells_reference(tp._edges(c - r, c + r, n_x, tuple(provider.discontinuities(t))))
    lhs = float(np.sum(w * provider(t, nodes) * theta.value(nodes)))
    u0 = provider.u0
    u0_splits = tuple(getattr(u0, "discontinuities", ()))
    nodes0, w0 = _gauss_cells_reference(tp._edges(c - r - wt, c + r - wt, n_x, u0_splits))
    term0 = float(np.sum(w0 * u0(nodes0) * theta.value(nodes0 + wt)))
    K = path.index_of(t)
    stride = max(1, K // n_s)
    sharp = tp._sharp_points(spec)
    ivals = []
    for k in range(0, K + 1, stride):
        s = k * path.dt
        wts = wt - grid_w[k]
        edges = tp._edges(c - r - wts, c + r - wts, n_x, tuple(provider.discontinuities(s)) + sharp)
        nodes, w = _gauss_cells_reference(edges)
        uvals = provider(s, nodes)
        adv = float(np.sum(w * spec.value(s, nodes[..., None])[..., 0] * theta.grad(nodes + wts) * uvals))
        mids = 0.5 * (edges[:-1] + edges[1:])
        cof = theta.value(mids + wts) * provider(s, mids)
        ivals.append(adv + _stieltjes_div_reference(spec, s, edges, cof))
    return lhs - (term0 + float(np.trapezoid(np.array(ivals), dx=stride * path.dt)))


def test_perturbative_matches_previous_1d_loop_bitwise(path):
    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)  # sharp points -2, 0, 2 split the cells
    zero = nz.zero_path(1, 1.0, 2**-7)
    cases = [
        (tp.ShiftedDatumSolution(path, tp.StepDatum(0.2)), tp.TestFunction(0.3, 1.5), path),
        (tp.CharacteristicsSolution(spec, path, tp.StepDatum(0.0), x_span=(-8, 8), n_grid=513),
         tp.TestFunction(-0.4, 1.8), path),
    ] + [
        (tp.DeterministicFamilySolution(0.5, 2.0, tp.StepDatum(0.0), lambda s, a=a: a, lambda s, a=a: 1 - a),
         tp.TestFunction(0.1, 2.0), zero)
        for a in (0.0, 0.5, 1.0)
    ]
    for provider, theta, p in cases:
        for n_x, n_s in ((128, 64), (97, 128)):
            got = tp.perturbative_residual(provider, spec, theta, p, 1.0, n_x=n_x, n_s=n_s, signed=True)
            assert got == _perturbative_reference(provider, spec, theta, p, 1.0, n_x, n_s)
    # the commutator's Stieltjes sums run through the same routine
    edges = tp._edges(-1.5, 1.7, 200, tp._sharp_points(spec))
    cof = np.cos(0.5 * (edges[:-1] + edges[1:]))
    assert tp._stieltjes_div(spec, 0.3, edges[..., None], cof) == _stieltjes_div_reference(spec, 0.3, edges, cof)


def test_family_members_share_time_nodes_bitwise():
    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    zero = nz.zero_path(1, 1.0, 2**-7)
    theta = tp.TestFunction(0.1, 2.0)
    members = [
        tp.DeterministicFamilySolution(0.5, 2.0, tp.StepDatum(0.0), lambda s, a=a: a, lambda s, a=a: 1 - a)
        for a in (0.0, 0.5, 1.0)
    ]
    got = tp._perturbative_residuals(members, spec, theta, zero, 1.0, 97, 128)
    assert got == [_perturbative_reference(m, spec, theta, zero, 1.0, 97, 128) for m in members]
    # the experiment's noiseless branch: gamma_+ = gamma_- = a, theta on [-2, 2]
    out = tp.uniqueness_gap_experiment(0.5, 2.0, tp.StepDatum(0.0), noise_on=False, n_x=97, n_s=128)
    same = [tp.DeterministicFamilySolution(0.5, 2.0, tp.StepDatum(0.0), lambda s, a=a: a, lambda s, a=a: a)
            for a in (0.0, 0.5, 1.0)]
    path = nz.zero_path(1, 1.0, 1.0 / 128)
    assert out["residuals"] == [
        abs(_perturbative_reference(m, spec, tp.TestFunction(0.0, 2.0), path, 1.0, 97, 128)) for m in same
    ]
    # a constant field does not jump where the family does
    with pytest.raises(tp.TransportError, match="jump at different points"):
        tp._perturbative_residuals([members[0], tp.ConstantField(0.5)], spec, theta, zero, 1.0, 97, 128)


@pytest.mark.parametrize(
    "checker, change, match",
    [
        (tp.perturbative_residual, {"n_x": 0}, "n_x=0"),
        (tp.weak_residual_ito, {"n_x": 0}, "n_x=0"),
        (tp.weak_residual_ito, {"n_x": -3}, "n_x=-3"),
        (tp.perturbative_residual, {"n_s": 0}, "n_s=0"),
        (tp.perturbative_residual, {"n_s": -4}, "n_s=-4"),
        (tp.perturbative_residual, {"spec": dr.Rotation2DDrift()}, "drift is 2-d, test function 1-d"),
        (tp.weak_residual_ito, {"spec": dr.Rotation2DDrift()}, "drift is 2-d, test function 1-d"),
        (tp.perturbative_residual, {"path": nz.sample_brownian(7, 0, 2, 1.0, 2**-6)}, "path 2-d"),
        (tp.weak_residual_ito, {"path": nz.sample_brownian(7, 0, 2, 1.0, 2**-6)}, "path 2-d"),
    ],
)
def test_weak_forms_reject_bad_arguments(checker, change, match):
    args = dict(
        provider=tp.ConstantField(0.7), spec=dr.ZeroDrift(), theta=tp.TestFunction(0.3, 1.5),
        path=nz.sample_brownian(7, 0, 1, 1.0, 2**-6), t=1.0, n_x=16,
    )
    args.update(change)
    with pytest.raises(tp.TransportError, match=match):
        checker(**args)


def _constant_with_1d_datum():
    cf = tp.ConstantField(0.9, dim=2)
    cf.u0 = tp.SmoothBumpDatum(0.0, 1.0)
    return cf


@pytest.mark.parametrize("checker", [tp.perturbative_residual, tp.weak_residual_ito])
@pytest.mark.parametrize(
    "make_provider, name",
    [
        pytest.param(lambda p: tp.ConstantField(0.9), "provider", id="constant-1d"),
        pytest.param(lambda p: tp.ShiftedDatumSolution(p, tp.SmoothBumpDatum(0.0, 1.0)), "provider",
                     id="shifted-datum"),
        pytest.param(lambda p: _constant_with_1d_datum(), "u0", id="datum-1d"),
    ],
)
def test_weak_forms_reject_provider_of_other_dimension(checker, make_provider, name):
    p2 = nz.sample_brownian(3, 0, 2, 0.5, 2**-7)
    theta = tp.TestFunction([0.1, -0.2], 1.0)
    with pytest.raises(tp.TransportError, match=rf"^{name} gives values of shape \(32, 32, 2\) "
                                                 rf"on a node grid of shape \(32, 32\)"):
        checker(make_provider(p2), dr.Rotation2DDrift(), theta, p2, 0.5, n_x=16)


@pytest.mark.parametrize(
    "center, radius",
    [(0.0, 0.0), (0.0, -1.0), (0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.array([0.1, np.inf]), 1.0)],
)
def test_test_function_rejects_bad_support(center, radius):
    with pytest.raises(tp.TransportError, match="finite center and a finite radius > 0"):
        tp.TestFunction(center, radius)


def test_ito_residual_dt_ladder():
    u0 = tp.SmoothBumpDatum(0.4, 0.8)
    theta = tp.TestFunction(0.3, 1.5)
    res = []
    dts = (2**-7, 2**-9, 2**-11)
    for dt in dts:
        p = nz.sample_brownian(17, 0, 1, 1.0, dt)
        prov = tp.ShiftedDatumSolution(p, u0)
        res.append(tp.weak_residual_ito(prov, dr.ZeroDrift(), theta, p, 1.0, n_x=256))
    C = res[0] / np.sqrt(dts[0])
    assert all(r <= 3.0 * C * np.sqrt(dt) for r, dt in zip(res, dts))


def test_checkers_agree_within_ito_budget(path):
    spec = dr.mollify_drift(dr.HolderPowerDrift(gamma=0.5, cap=2.0), 0.05)
    u0 = tp.SmoothBumpDatum(0.4, 0.8)
    theta = tp.TestFunction(0.3, 1.5)
    char = tp.CharacteristicsSolution(spec, path, u0, x_span=(-8, 8), n_grid=1025)
    r_p = tp.perturbative_residual(char, spec, theta, path, 1.0, signed=True)
    r_i = tp.weak_residual_ito(char, spec, theta, path, 1.0, signed=True)
    assert abs(r_p - r_i) <= np.sqrt(path.dt)


def test_residual_linearity(path):
    u0a = tp.SmoothBumpDatum(0.3, 0.7)
    u0b = tp.SmoothBumpDatum(-0.2, 0.5)
    prov_a = tp.ShiftedDatumSolution(path, u0a)
    prov_b = tp.ShiftedDatumSolution(path, u0b)

    class Combo:
        def __init__(self, a, b, ca, cb):
            self.a, self.b, self.ca, self.cb = a, b, ca, cb
            self.u0 = lambda x: ca * a.u0(x) + cb * b.u0(x)

        def __call__(self, s, x):
            return self.ca * self.a(s, x) + self.cb * self.b(s, x)

        def discontinuities(self, s):
            return self.a.discontinuities(s) + self.b.discontinuities(s)

    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    theta = tp.TestFunction(0.1, 1.4)
    ca, cb = 0.6, -1.3
    combo = Combo(prov_a, prov_b, ca, cb)
    checkers = [
        lambda prov: tp.perturbative_residual(prov, spec, theta, path, 1.0, n_x=128, n_s=128, signed=True),
        lambda prov: tp.weak_residual_ito(prov, spec, theta, path, 1.0, n_x=128, signed=True),
    ]
    for check in checkers:
        ra, rb, rc = check(prov_a), check(prov_b), check(combo)
        scale = max(1.0, abs(ra) + abs(rb))
        assert abs(rc - (ca * ra + cb * rb)) < 1e-10 * scale


def test_theta_linearity(path):
    # profiles sharing one support keep the quadrature nodes identical, so
    # linearity in theta holds to rounding, not just to quadrature error
    u0 = tp.SmoothBumpDatum(0.4, 0.8)
    prov = tp.ShiftedDatumSolution(path, u0)
    th1 = tp.TestFunction(0.3, 1.5)

    class SquaredBump:
        center, radius = th1.center, th1.radius

        def value(self, x):
            return th1.value(x) ** 2

        def grad(self, x):
            return 2.0 * th1.value(x) * th1.grad(x)

        def laplacian(self, x):
            return 2.0 * (th1.grad(x) ** 2 + th1.value(x) * th1.laplacian(x))

    th2 = SquaredBump()

    class ThetaCombo:
        center, radius = th1.center, th1.radius

        def __init__(self, ca, cb):
            self.ca, self.cb = ca, cb

        def value(self, x):
            return self.ca * th1.value(x) + self.cb * th2.value(x)

        def grad(self, x):
            return self.ca * th1.grad(x) + self.cb * th2.grad(x)

        def laplacian(self, x):
            return self.ca * th1.laplacian(x) + self.cb * th2.laplacian(x)

    spec = dr.HolderPowerDrift(gamma=0.5, cap=2.0)
    ca, cb = 1.7, -0.4
    r1 = tp.perturbative_residual(prov, spec, th1, path, 1.0, n_x=256, n_s=128, signed=True)
    r2 = tp.perturbative_residual(prov, spec, th2, path, 1.0, n_x=256, n_s=128, signed=True)
    rc = tp.perturbative_residual(prov, spec, ThetaCombo(ca, cb), path, 1.0, n_x=256, n_s=128, signed=True)
    assert rc == pytest.approx(ca * r1 + cb * r2, abs=1e-10)


# ---------------------------------------------------------------------------
# commutators


def test_commutator_affine_annihilation():
    rho = tp.TestFunction(0.0, 1.2)
    val = tp.commutator(dr.LinearDrift(matrix=[[1.0]]), lambda x: np.asarray(x, float), 0.05, rho)
    assert abs(val) < 1e-10


def test_commutator_constant_g():
    rho = tp.TestFunction(0.0, 1.2)
    g = lambda x: np.full(np.shape(x), 0.8)
    val = tp.commutator(dr.HolderPowerDrift(gamma=0.5, cap=2.0), g, 0.05, rho)
    assert abs(val) < 1e-5


def test_commutator_decay_exponents():
    rho = tp.TestFunction(0.3, 1.2)
    g = tp.StepDatum(0.0)
    ladder = (0.1, 0.05, 0.025, 0.0125)
    # unsigned field: the generic Holder rate eps^gamma shows up
    v_uns = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=False)
    vals = [abs(tp.commutator(v_uns, g, e, rho)) for e in ladder]
    exp_uns = np.polyfit(np.log(ladder), np.log(vals), 1)[0]
    assert 0.35 <= exp_uns <= 0.7
    # signed field: symmetry cancels the leading order, decay is faster
    v_sgn = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True)
    vals = [abs(tp.commutator(v_sgn, g, e, rho)) for e in ladder]
    exp_sgn = np.polyfit(np.log(ladder), np.log(vals), 1)[0]
    assert exp_sgn >= 0.3


def test_commutator_along_flow_identity(path):
    v = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=False)
    g = tp.StepDatum(0.0)
    rho = tp.TestFunction(0.3, 1.2)
    ens = fl.forward_flow(dr.HolderPowerDrift(gamma=0.6, cap=2.0), path,
                          np.linspace(-4, 4, 513), 0.0, [0.0, 0.5])
    plain = tp.commutator(v, g, 0.05, rho)
    composed = tp.commutator_along_flow(v, g, 0.05, rho, ens, 0.0)
    assert abs(plain - composed) <= 1e-10 * abs(plain)


def test_commutator_along_flow_smooth_decay(path):
    ens = fl.forward_flow(dr.ZeroDrift(), path, np.linspace(-4, 4, 513), 0.0, [0.5])
    v = dr.LinearDrift(matrix=[[0.8]])
    bump = tp.SmoothBumpDatum(0.2, 0.9)
    g = lambda x: bump(x) * np.sin(2 * np.asarray(x, dtype=float))
    rho = tp.TestFunction(0.3, 1.2)
    prev = None
    for e in (0.2, 0.1, 0.05):
        val = abs(tp.commutator_along_flow(v, g, e, rho, ens, 0.5))
        if prev is not None:
            assert prev / val >= 2.0
        prev = val


def _convolve_per_window(points, fn, eps, kernel, inner_cells, splits):
    """Oracle: one window at a time, the loop the blocked _convolve_at replaces."""
    out = np.empty(len(points))
    for i, p in enumerate(points):
        edges = tp._edges(p - eps, p + eps, inner_cells, splits)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes = np.concatenate([mid - half * dr._GAUSS_OFF, mid + half * dr._GAUSS_OFF])
        w = np.concatenate([half, half])
        out[i] = np.sum(w * kernel(p - nodes) * fn(nodes))
    return out


def _inside(points, eps, splits):
    """Per window, how many distinct splits lie strictly inside it."""
    return np.array([sum(p - eps < s < p + eps for s in set(splits)) for p in points])


def test_convolve_blocks_match_per_window_bitwise():
    eps, g = 0.125, tp.StepDatum(0.0)
    kern = dr.Mollifier(eps=eps).kernel
    # window edges exactly on the split point count as windows without a jump
    on_split = np.array([eps, -eps])
    assert on_split[0] - eps == 0.0 and on_split[1] + eps == 0.0
    points = np.concatenate([np.linspace(-3.0, 3.0, 2 * dr._CONV_BLOCK + 37), on_split])
    unsplit = np.sum((points - eps >= 0.0) | (points + eps <= 0.0))
    assert dr._CONV_BLOCK * 2 < unsplit < len(points)
    for splits in ((0.0,), (0.0, -2.0, 0.0, 2.0), (), (0.0, 0.1)):
        got = tp._convolve_at(points, g, eps, kern, 24, splits)
        assert np.array_equal(got, _convolve_per_window(points, g, eps, kern, 24, splits))
    # two splits inside one window, and a window with a split on its edge and one inside
    assert np.any(_inside(points, eps, (0.0, 0.1)) == 2)
    assert _inside(on_split, eps, (0.0, 0.1))[0] == 1


@pytest.mark.parametrize(
    "eps, inner_cells, points, splits, case",
    [
        # one split inside more than _CONV_BLOCK windows: the group spans blocks
        (2.0, 24, np.linspace(-3.0, 3.0, 2 * dr._CONV_BLOCK + 37), (0.0, 5.0), "wide"),
        # 2 eps / 16 = 2^-6, so the window at 0.0625 has a linspace edge on the split at 0
        (0.125, 16, np.array([-0.5, 0.25, 0.0625, 0.3, 1.0]), (0.0,), "split on an edge"),
        # two splits inside the window at 0.0625, both on its edges; 0.0 given twice
        (0.125, 16, np.array([0.0625, 0.15625, 0.2]), (0.0, 0.0, 0.0625, 0.25), "two on edges"),
    ],
)
def test_convolve_split_groups_match_per_window_bitwise(eps, inner_cells, points, splits, case):
    kern = dr.Mollifier(eps=eps).kernel
    g = lambda x: np.sin(3.0 * np.asarray(x, dtype=float)) + (np.asarray(x) > 0.0)
    inside = _inside(points, eps, splits)
    if case == "wide":
        assert np.sum(inside == 1) > dr._CONV_BLOCK and np.any(inside == 0)
    else:
        # some window with a split inside has that split on one of its linspace edges
        assert any(
            np.isin(cuts, np.linspace(p - eps, p + eps, inner_cells + 1)).any()
            for p, cuts in ((p, [s for s in splits if p - eps < s < p + eps]) for p in points)
        )
    got = tp._convolve_at(points, g, eps, kern, inner_cells, splits)
    assert np.array_equal(got, _convolve_per_window(points, g, eps, kern, inner_cells, splits))


_STEP = tp.StepDatum(0.0)
_POWER = dr.HolderPowerDrift(gamma=0.5, cap=2.0)


@pytest.mark.parametrize(
    "case, points, fn",
    [
        ("mixed", np.linspace(-1.0, 1.0, 2 * dr._CONV_BLOCK + 37), _STEP),
        ("all zero", np.linspace(-3.0, -0.5, 300), _STEP),
        # g v left of the jump: 0 * (v < 0) is -0.0
        ("all -0.0", np.linspace(-3.0, -0.5, 300), lambda x: _STEP(x) * _POWER.value(0.0, x[..., None])[..., 0]),
        ("signed-zero mix", np.linspace(-1.0, 1.0, 301),
         lambda x: np.where(x > 0.5, np.sin(x), np.copysign(0.0, np.sin(8.0 * x)))),
    ],
)
def test_convolve_zero_rows_match_per_window_bitwise(case, points, fn):
    eps = 0.125
    kern = dr.Mollifier(eps=eps).kernel
    rows = []
    counting = lambda r: rows.append(len(r)) or kern(r)
    got = tp._convolve_at(points, fn, eps, counting, 24, (0.0,))
    assert got.tobytes() == _convolve_per_window(points, fn, eps, kern, 24, (0.0,)).tobytes()
    # rows of signed zeros never reach the kernel
    zeros = fn(points)[fn(points) == 0.0]
    if case in ("all zero", "all -0.0"):
        assert rows == [] and not np.any(got)
        assert np.all(np.signbit(zeros)) == (case == "all -0.0")
    else:
        assert 0 < sum(rows) < len(points)
        assert np.any(np.signbit(zeros)) == (case == "signed-zero mix") and not np.all(np.signbit(zeros))


@pytest.mark.parametrize("inner_cells", [1, 24, 25])
def test_convolve_edges_are_linspace_bitwise(monkeypatch, inner_cells):
    eps = 0.0125
    points = np.concatenate([np.linspace(-5.0, 5.0, dr._CONV_BLOCK + 3), [0.1, -0.3, 1e-3]])
    seen = []
    gauss = dr._gauss_nodes_weights
    monkeypatch.setattr(dr, "_gauss_nodes_weights", lambda e: seen.append(e) or gauss(e))
    tp._convolve_at(points, np.cos, eps, dr.Mollifier(eps=eps).kernel, inner_cells, ())
    assert len(seen) == 2 and all(e.flags.c_contiguous for e in seen)
    want = np.linspace(points - eps, points + eps, inner_cells + 1, axis=-1)
    assert np.concatenate(seen).tobytes() == np.ascontiguousarray(want).tobytes()


def _inverse_slope_per_call(init, img, y):
    """Oracle: the slope of the inverse map computed at every call."""
    idx = np.clip(np.searchsorted(img, y) - 1, 0, len(img) - 2)
    return (init[idx + 1] - init[idx]) / (img[idx + 1] - img[idx])


def test_inverse_slope_table_matches_per_call_formula_bitwise(path):
    ens = fl.forward_flow(_POWER, path, np.linspace(-5.0, 5.0, 513), 0.0, [0.5])
    img, init = ens.states_at(0.5)[:, 0], ens.initial[:, 0]
    # on image points, both ends and past them
    y = np.concatenate([img[[0, 1, 256, -2, -1]], [img[0] - 1.0, img[-1] + 1.0], np.linspace(img[0], img[-1], 997)])
    assert tp._inverse_slope(init, img)(y).tobytes() == _inverse_slope_per_call(init, img, y).tobytes()


@pytest.mark.parametrize("n_outer", [np.nan, -5, 0, 2.5, True])
def test_commutator_rejects_bad_n_outer(n_outer):
    # nan raised Python's ValueError from int(), and -5 passed silently
    with pytest.raises(tp.TransportError, match="^n_outer="):
        tp.commutator(_POWER, _STEP, 0.05, tp.TestFunction(0.3, 1.2), n_outer=n_outer)


def test_commutator_convolutions_match_per_window_bitwise(monkeypatch, path):
    v = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=True)
    g = tp.StepDatum(0.0)
    rho = tp.TestFunction(0.3, 1.2)
    ens = fl.forward_flow(v, path, np.linspace(-5.0, 5.0, 513), 0.0, [0.5])
    runs = [
        lambda: tp.commutator(v, g, 0.05, rho),
        lambda: tp.commutator_along_flow(v, g, 0.05, rho, ens, 0.5),
    ]
    blocked = [run() for run in runs]

    calls = []
    monkeypatch.setattr(tp, "_convolve_at", lambda *a: calls.append(a) or _convolve_per_window(*a))
    assert [run() for run in runs] == blocked
    # the step datum, g * v, rho and the along-flow weight closure
    assert {getattr(c[1], "__qualname__", type(c[1]).__name__) for c in calls} == {
        "StepDatum", "_commutator_core.<locals>.<lambda>", "TestFunction.value",
        "commutator_along_flow.<locals>.weight",
    }
    assert max(len(c[0]) for c in calls) > dr._CONV_BLOCK
    monkeypatch.undo()
    for args in calls:
        assert np.array_equal(tp._convolve_at(*args), _convolve_per_window(*args))


def test_uniqueness_gap_noise_on():
    out = tp.uniqueness_gap_experiment(
        0.5, 2.0, tp.StepDatum(0.0), noise_on=True, seed=3, n_paths=4,
        dt=2**-9, n_x=256, n_s=256,
    )
    assert out["char_median_residual"] * 10.0 < out["naive_median_residual"]


def test_commutator_ladder_report():
    rho = tp.TestFunction(0.3, 1.2)
    rep = tp.commutator_ladder(
        dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=False),
        tp.StepDatum(0.0), rho, (0.1, 0.05, 0.025),
    )
    assert rep.decay_exponent >= 0.3
    assert len(rep.values) == 3
    with pytest.raises(tp.TransportError):
        tp.CommutatorReport(eps_ladder=(0.1, 0.2), values=(1.0, 1.0), decay_exponent=0.0)


@pytest.mark.parametrize(
    "eps, inner_cells, key",
    [(0.05, 0, "inner_cells"), (0.05, -3, "inner_cells"), (0.05, 2.5, "inner_cells"),
     (0.05, True, "inner_cells"), (np.nan, 24, "eps"), (0.0, 24, "eps"), (np.inf, 24, "eps")],
)
@pytest.mark.parametrize("entry", ["commutator", "ladder", "along_flow"])
def test_commutators_reject_bad_eps_and_inner_cells(path, entry, eps, inner_cells, key):
    # inner_cells=0 gave 0.0, -3 numpy's ValueError, and eps=nan math.ceil's ValueError
    v, g, rho = dr.HolderPowerDrift(gamma=0.5, cap=2.0), tp.StepDatum(0.0), tp.TestFunction(0.3, 1.2)
    run = {
        "commutator": lambda: tp.commutator(v, g, eps, rho, inner_cells=inner_cells),
        "ladder": lambda: tp.commutator_ladder(v, g, rho, (0.1, eps), inner_cells=inner_cells),
        "along_flow": lambda: tp.commutator_along_flow(
            v, g, eps, rho, fl.forward_flow(v, path, np.linspace(-4, 4, 65), 0.0, [0.5]), 0.5,
            inner_cells=inner_cells,
        ),
    }[entry]
    with pytest.raises(tp.TransportError, match=f"^{key}="):
        run()


@pytest.mark.parametrize("ladder", [(), (0.1,)])
def test_commutator_ladder_needs_two_entries(ladder):
    # one eps gave a one-point polyfit (RankWarning), none numpy's TypeError
    v = dr.HolderPowerDrift(gamma=0.5, cap=2.0, signed=False)
    with pytest.raises(tp.TransportError, match=f"got {len(ladder)}"):
        tp.commutator_ladder(v, tp.StepDatum(0.0), tp.TestFunction(0.3, 1.2), ladder)


@pytest.mark.parametrize(
    "values",
    [
        [3.0], [2.0, 1.0], [5.0, 1.0, 4.0], [0.1, 0.7, 0.2, 0.4],
        [1.0, 1.0, 1.0, 2.0], [2.0, 2.0, 1.0],  # ties
        [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, 1.0, 0.0, -1.0],
        [1.0, np.nan, 2.0], [np.nan], [np.nan, 1.0], [-np.inf, np.inf], [1e308, 1e308],
        np.random.default_rng(5).normal(size=1001), np.random.default_rng(6).normal(size=(10, 40)),
    ],
)
def test_median_matches_numpy_bitwise(values):
    want = np.float64(np.median(values))
    got = tp._median(values)
    assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
