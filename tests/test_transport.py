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
    vals = tp.solve_by_characteristics(dr.ZeroDrift(), path, u0, 1.0, xg)
    w = nz.evaluate(path, 1.0)[0]
    assert np.allclose(vals, u0(xg - w), atol=1e-10)
    vals_b = tp.solve_by_characteristics(dr.ZeroDrift(), path, u0, 1.0, xg, route="backward")
    assert np.allclose(vals_b, u0(xg - w), atol=1e-12)


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
    nodes = np.concatenate([mid - half * tp._GAUSS_OFF, mid + half * tp._GAUSS_OFF])
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
        nodes = np.concatenate([mid - half * tp._GAUSS_OFF, mid + half * tp._GAUSS_OFF])
        w = np.concatenate([half, half])
        out[i] = np.sum(w * kernel(p - nodes) * fn(nodes))
    return out


def test_convolve_blocks_match_per_window_bitwise():
    eps, g = 0.125, tp.StepDatum(0.0)
    kern = dr.Mollifier(eps=eps, dim=1).kernel
    # window edges exactly on the split point count as windows without a jump
    on_split = np.array([eps, -eps])
    assert on_split[0] - eps == 0.0 and on_split[1] + eps == 0.0
    points = np.concatenate([np.linspace(-3.0, 3.0, 2 * tp._CONV_BLOCK + 37), on_split])
    unsplit = np.sum((points - eps >= 0.0) | (points + eps <= 0.0))
    assert tp._CONV_BLOCK * 2 < unsplit < len(points)
    for splits in ((0.0,), (0.0, -2.0, 0.0, 2.0), ()):
        got = tp._convolve_at(points, g, eps, kern, 24, splits)
        assert np.array_equal(got, _convolve_per_window(points, g, eps, kern, 24, splits))


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
    assert max(len(c[0]) for c in calls) > tp._CONV_BLOCK
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


def test_grid_sampled_datum():
    datum = tp.GridSampledDatum(xs=np.linspace(-1, 1, 5), values=np.array([0., 1., 0.5, 1., 0.]))
    assert datum(0.0) == 0.5
    assert datum.sup_norm == 1.0
    assert datum.discontinuities == ()
    same = tp.GridSampledDatum(xs=np.linspace(-1, 1, 5), values=np.array([0., 1., 0.5, 1., 0.]))
    assert datum == same and hash(datum) == hash(same)
    assert datum != tp.GridSampledDatum(xs=np.linspace(-1, 1, 5), values=np.zeros(5))
    assert datum != tp.GridSampledDatum(xs=np.linspace(-1, 1, 3), values=np.zeros(3))
