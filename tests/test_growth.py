import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from metriclab import growth as GR
from metriclab import maps as MP
from metriclab import metrics as M
from metriclab.errors import DivergentValueError, InsufficientDataError


@pytest.fixture(scope="module")
def hyp():
    return M.hyperbolic_density()


@pytest.fixture(scope="module")
def cusp50():
    return MP.PowerCusp(0.0, 0.25, 0.5)


def quad_mean_oracle(f, omega, r, p):
    """Integral mean of f* on the circle of radius r by direct quadrature."""

    def integrand(t):
        return float(MP.weighted_derivative(f, omega, r * np.exp(1j * t))) ** p

    val, _ = quad(integrand, 0.0, np.pi, limit=400)
    return (val / np.pi) ** (1 / p)


# ---------------------------------------------------------------------------
# integral means


def test_means_constant_function():
    five = lambda z: np.full(z.shape, 5.0)
    assert GR.means_curve(five, [0.3], 1.0, 128).values[0] == 5.0
    assert GR.means_curve(five, [0.9], 7.0, 128).values[0] == pytest.approx(5.0)


def test_means_modulus_of_identity():
    assert GR.means_curve(np.abs, [0.7], 2.0, 256).values[0] == pytest.approx(0.7)


def test_means_sup_variant():
    vals = GR.means_curve(lambda z: z.real + 2.0, [0.5], math.inf, 256).values[0]
    assert vals == pytest.approx(2.5)


def test_means_parameter_validation():
    with pytest.raises(ValueError):
        GR.means_curve(np.abs, [1.2], 1.0, 128)
    with pytest.raises(ValueError):
        GR.means_curve(np.abs, [0.5], 0.5, 128)
    with pytest.raises(ValueError):
        GR.means_curve(np.abs, [0.5], 1.0, 32)


def test_means_divergent_propagates():
    def g(z):
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - np.abs(z) ** 0)  # identically inf

    with pytest.raises(DivergentValueError):
        GR.means_curve(g, [0.5], 1.0, 128)


def test_means_cusp_against_quadrature_oracle(hyp, cusp50):
    g = lambda zs: MP.weighted_derivative(cusp50, hyp, zs)
    for r in (0.9, 0.99):
        for p in (1.0, 2.0):
            oracle = quad_mean_oracle(cusp50, hyp, r, p)
            got = GR.means_curve(g, [r], p, 4096).values[0]
            assert got == pytest.approx(oracle, rel=2e-3), (r, p)


def _means_per_radius(g, radii, p, n):
    """The means curve as one integral mean per radius, each forming its own
    e^{it}: the route that means_curve replaces."""
    vals = []
    for r in np.asarray(radii, dtype=float):
        if not (0 < r < 1):
            raise ValueError("radius must lie in (0, 1)")
        if n < 64:
            raise ValueError("need at least 64 circle samples")
        if not (p == math.inf or p >= 1):
            raise ValueError("exponent p must satisfy p >= 1 (or inf)")
        t = 2 * np.pi * np.arange(n) / n
        v = np.asarray(g(r * np.exp(1j * t)), dtype=float)
        if not np.all(np.isfinite(v)):
            raise DivergentValueError(f"integral mean diverges at r = {r}")
        vals.append(float(np.max(v)) if p == math.inf else float(np.mean(v ** p) ** (1.0 / p)))
    return np.array(vals)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_means_curve_bitwise_against_the_per_radius_route(hyp, p):
    radii = 1 - 2.0 ** -np.arange(2, 10)
    for name, f in MP.catalog().items():
        g = lambda zs: MP.weighted_derivative(f, hyp, zs)
        for n in (64, 4096):
            got = GR.means_curve(g, radii, p, n)
            assert np.array_equal(got.values, _means_per_radius(g, radii, p, n)), (name, n)
            assert np.array_equal(got.abscissa, 1.0 - radii)
            assert GR.means_curve(g, [radii[3]], p, n).values[0] == got.values[3]
    for args in (([0.5, 1.0], p, 128), ([0.0], p, 128), ([0.5], p, 32), ([0.5], 0.5, 128)):
        with pytest.raises(ValueError) as want:
            _means_per_radius(np.abs, *args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            GR.means_curve(np.abs, *args)

    def g(z):
        return np.where(np.abs(z) > 0.6, np.inf, 1.0)

    with pytest.raises(DivergentValueError) as want:
        _means_per_radius(g, radii, p, 128)
    with pytest.raises(DivergentValueError, match=f"^{re.escape(str(want.value))}$"):
        GR.means_curve(g, radii, p, 128)


# ---------------------------------------------------------------------------
# moduli


def sup_modulus(tr, d, h):
    return float(GR.modulus_curve(tr, d, [h]).values[0])


def mean_modulus(tr, d, p, h):
    return float(GR.modulus_curve(tr, d, [h], p).values[0])


def test_sup_modulus_constant_trace():
    tr = MP.boundary_trace(MP.from_name("const_25"), 512)
    assert sup_modulus(tr, M.scaled_euclidean_evaluator(1.0), 0.3) == 0.0
    assert mean_modulus(tr, M.scaled_euclidean_evaluator(1.0), 2.0, 0.3) == 0.0


def test_sup_modulus_identity_chord():
    tr = MP.boundary_trace(MP.from_name("identity"), 4096)
    h = 0.2
    got = sup_modulus(tr, M.scaled_euclidean_evaluator(1.0), h)
    # gaps are strictly below h on the sample grid, so the sup sits one
    # angular step under the chord bound 2 sin(h/2)
    assert 2 * math.sin(h / 2) * (1 - 2 * 2 * np.pi / 4096 / h) <= got <= 2 * math.sin(h / 2)


def test_mean_modulus_scaled_circle():
    eps = 0.3
    n, h = 4096, 0.2
    tr = MP.boundary_trace(MP.PolynomialMap((0.0, eps)), n)
    # |phi(t+s) - phi(t)| = 2 eps sin(s/2), constant in t; the sup sits at
    # the largest ladder shift, rounded to the trace's angular grid
    s_eff = round(h * n / (2 * np.pi)) * 2 * np.pi / n
    for p in (1.0, 2.0, 3.5):
        got = mean_modulus(tr, M.scaled_euclidean_evaluator(1.0), p, h)
        assert got == pytest.approx(2 * eps * math.sin(s_eff / 2), rel=1e-12)


def test_small_circle_hyperbolic_modulus_slope_one(hyp):
    eps = 0.3
    n = 32768
    tr = MP.boundary_trace(MP.PolynomialMap((0.0, eps)), n)
    d = M.hyperbolic_distance_closed
    hs = 2.0 ** -np.arange(3, 9)
    curve = GR.modulus_curve(tr, d, hs, math.inf)
    fit = GR.fit_exponent(curve)
    assert fit.slope == pytest.approx(1.0, abs=0.02)
    # the sup sits at the largest representable gap below h; against the
    # closed form there, agreement is exact
    gap = 2 * np.pi / n
    K = math.ceil(hs[-1] / gap) - 1
    exact = M.hyperbolic_distance_closed(eps * np.exp(1j * K * gap), eps)
    assert curve.values[-1] == pytest.approx(exact, rel=1e-12)
    # density limit along the circle: weighted chord ~ eps/(1-eps^2) * s
    assert curve.values[-1] / (K * gap) == pytest.approx(
        eps / (1 - eps ** 2), rel=5e-3)


def test_modulus_divergence_reported(hyp):
    tr = MP.boundary_trace(MP.from_name("identity"), 1024)
    with pytest.raises(DivergentValueError):
        sup_modulus(tr, M.hyperbolic_distance_closed, 0.1)
    with pytest.raises(DivergentValueError):
        mean_modulus(tr, M.hyperbolic_distance_closed, 1.0, 0.1)


def test_modulus_monotone_in_h(cusp50):
    tr = MP.boundary_trace(cusp50, 2048)
    d = M.scaled_euclidean_evaluator(1.0)
    hs = (0.05, 0.1, 0.2, 0.4)
    sups = GR.modulus_curve(tr, d, hs).values
    assert np.all(np.diff(sups) >= 0)
    means = GR.modulus_curve(tr, d, hs, 1.5).values
    assert np.all(np.diff(means) >= 0)


def test_mean_modulus_below_sup_and_p_monotone(cusp50):
    tr = MP.boundary_trace(cusp50, 2048)
    d = M.scaled_euclidean_evaluator(1.0)
    h = 0.2
    sup = sup_modulus(tr, d, h)
    prev = 0.0
    for p in (1.0, 2.0, 4.0, 8.0):
        mean = mean_modulus(tr, d, p, h)
        assert mean <= sup + 1e-12
        assert mean >= prev - 1e-12
        prev = mean


def test_modulus_step_validation(cusp50):
    tr = MP.boundary_trace(cusp50, 64)
    with pytest.raises(ValueError):
        sup_modulus(tr, M.scaled_euclidean_evaluator(1.0), 4.0)
    with pytest.raises(ValueError):
        sup_modulus(tr, M.scaled_euclidean_evaluator(1.0), 0.01)  # below grid
    with pytest.raises(ValueError):
        mean_modulus(tr, M.scaled_euclidean_evaluator(1.0), 2.0, 4.0)
    with pytest.raises(ValueError):
        mean_modulus(tr, M.scaled_euclidean_evaluator(1.0), 0.5, 0.3)


def test_modulus_curve_evaluates_each_shift_once(cusp50):
    # the default ladder: the sup needs shifts 1..K(2^-3) = 1..81, the
    # p-mean the union {1, 3, 5, 10, 20, 41, 81} of the rounded dyadic ladders
    tr = MP.boundary_trace(cusp50, 4096)
    hs = 2.0 ** -np.arange(3, 9)
    d = M.scaled_euclidean_evaluator(1.0)
    for p, expected in ((math.inf, 81), (1.0, 7)):
        sizes = []

        def counted(u, v):
            sizes.append(np.size(u))
            return d(u, v)

        GR.modulus_curve(tr, counted, hs, p)
        assert len(sizes) == expected, p
        assert set(sizes) == {4096}


def test_sup_modulus_against_all_pairs_oracle(cusp50):
    n = 256
    tr = MP.boundary_trace(cusp50, n)
    d = M.hyperbolic_distance_closed
    dist = d(tr[:, None], tr[None, :])
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    sep = np.minimum(sep, n - sep)
    hs = (3.0, 1.0, 0.3, 0.1)
    for screen in (None, M.hyperbolic_sup_screen):
        curve = GR.modulus_curve(tr, d, hs, screen=screen)
        for h, got in zip(hs, curve.values):
            # K(h): the largest circular index gap whose angle lies below h
            K = max(k for k in range(1, n // 2 + 1) if k * 2 * np.pi / n < h)
            oracle = dist[(sep >= 1) & (sep <= K)].max()
            assert got == oracle, (h, screen)


# the default ladder 2^-3 .. 2^-8 at 4096 samples, scaled to keep its shifts
LADDER = 2.0 ** -np.arange(3, 9)


def _trig_trace(seed, n, radius):
    """Seeded trigonometric polynomial of degree 6 sampled at n angles,
    scaled so that its largest modulus is ``radius`` (less 1e-15 relative,
    which keeps a rounded modulus from crossing it)."""
    rng = np.random.default_rng(seed)
    j = np.arange(-6, 7)
    c = (rng.normal(size=j.size) + 1j * rng.normal(size=j.size)) / (1 + j ** 2)
    z = np.exp(1j * np.outer(2 * np.pi * np.arange(n) / n, j)) @ c
    return z * (radius * (1 - 1e-15) / np.abs(z).max())


def _sups(tr, fine, hs, screen):
    """Sup modulus curve of ``tr`` and the doubled-sampling modulus of
    ``fine`` at the ladder's first step."""
    d = M.hyperbolic_distance_closed
    curve = GR.modulus_curve(tr, d, hs, math.inf, screen=screen)
    return list(curve.values), GR.doubled_sampling_modulus(fine, d, math.inf, hs[0],
                                                            screen=screen)


def _assert_screen_exact(tr, fine, hs):
    assert _sups(tr, fine, hs, M.hyperbolic_sup_screen) == _sups(tr, fine, hs, None)


@pytest.mark.parametrize("n", [1024, 4096])
def test_screened_sup_bitwise_on_catalog(n):
    hs = LADDER * (4096 / n)
    for name, f in MP.catalog().items():
        tr, fine = MP.boundary_trace(f, n), MP.boundary_trace(f, 2 * n)
        try:
            expected = _sups(tr, fine, hs, None)
        except DivergentValueError as err:
            # identity, square and the Blaschke pair touch the boundary
            with pytest.raises(DivergentValueError) as screened:
                GR.modulus_curve(tr, M.hyperbolic_distance_closed, hs,
                                 screen=M.hyperbolic_sup_screen)
            assert str(screened.value) == str(err), name
            with pytest.raises(DivergentValueError) as screened:
                GR.doubled_sampling_modulus(fine, M.hyperbolic_distance_closed,
                                            math.inf, hs[0], screen=M.hyperbolic_sup_screen)
            with pytest.raises(DivergentValueError) as full:
                GR.doubled_sampling_modulus(fine, M.hyperbolic_distance_closed,
                                            math.inf, hs[0])
            assert str(screened.value) == str(full.value), name
            continue
        assert _sups(tr, fine, hs, M.hyperbolic_sup_screen) == expected, name


def _doubled_oracle(fine, d, p, h, screen=None):
    """The doubled-sampling modulus along its former route: explicit shifts,
    one screen call over them for p = inf, or each shift priced in full."""
    if p == math.inf:
        ks = GR._shift_set(fine.size, h, p)
        sups = screen(fine, [max(ks)]) if screen is not None else None
        if sups is not None:
            return max(0.0, sups[max(ks)])
    else:
        ks = [2 * k for k in GR._shift_set(fine.size // 2, h, p)]
    stats = [0.0]
    for k in ks:
        dist = np.asarray(d(np.roll(fine, -k), fine), dtype=float)
        if not np.all(np.isfinite(dist)):
            raise DivergentValueError(
                f"divergent modulus: a trace pair at {'gap' if p == math.inf else 'shift'} "
                f"{k * (2 * np.pi / fine.size):.4g} has infinite distance "
                f"(boundary values touch the target boundary)")
        stats.append(float(dist.max()) if p == math.inf
                     else float(np.mean(dist ** p) ** (1.0 / p)))
    return max(stats)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DivergentValueError as err:
        return str(err)


@pytest.mark.parametrize("n", [1024, 2048])
def test_doubled_sampling_modulus_bitwise_against_shift_route(n):
    # the doubled check of an n-sample curve, at each step of its ladder
    hyperbolic = (M.hyperbolic_distance_closed, M.hyperbolic_sup_screen)
    evaluators = (hyperbolic, (hyperbolic[0], None), (M.scaled_euclidean_evaluator(1.0), None))
    for name, f in MP.catalog().items():
        fine = MP.boundary_trace(f, 2 * n)
        for d, screen in evaluators:
            for p in (1.0, 2.0, math.inf):
                for h in LADDER * (4096 / n):
                    got = _outcome(GR.doubled_sampling_modulus, fine, d, p, h, screen=screen)
                    want = _outcome(_doubled_oracle, fine, d, p, h, screen)
                    assert got == want, (name, p, h, screen)


def _roll_table(trace, d, p, ks):
    """The shift table along its former route: each shift a rolled copy."""
    table = {}
    for k in ks:
        dist = np.asarray(d(np.roll(trace, -k), trace), dtype=float)
        if not np.all(np.isfinite(dist)):
            raise DivergentValueError(
                f"divergent modulus: a trace pair at {'gap' if p == math.inf else 'shift'} "
                f"{k * (2 * np.pi / trace.size):.4g} has infinite distance "
                f"(boundary values touch the target boundary)")
        table[k] = float(dist.max()) if p == math.inf else float(np.mean(dist ** p) ** (1.0 / p))
    return table


def test_shift_table_bitwise_against_the_roll_route():
    n = 1024
    ks = [1, 2, 3, 7, 64, 255, n // 2, n - 1, n, n + 5]
    for name, f in MP.catalog().items():
        tr = MP.boundary_trace(f, n, 1 - 1e-4)
        for d in (M.hyperbolic_distance_closed, M.scaled_euclidean_evaluator(1.0)):
            for p in (1.0, 2.0, math.inf):
                assert GR._shift_table(tr, d, p, ks) == _roll_table(tr, d, p, ks), (name, p)
    # the identity's exact trace has pairs at infinite hyperbolic distance
    tr = MP.boundary_trace(MP.from_name("identity"), n)
    for p in (1.0, math.inf):
        with pytest.raises(DivergentValueError) as want:
            _roll_table(tr, M.hyperbolic_distance_closed, p, ks)
        with pytest.raises(DivergentValueError, match=f"^{re.escape(str(want.value))}$"):
            GR._shift_table(tr, M.hyperbolic_distance_closed, p, ks)


def test_screened_sup_bitwise_on_random_traces():
    for seed in range(8):
        for radius in (0.3, 0.9, 0.98, 0.99):
            z, z2 = _trig_trace(seed, 1024, radius), _trig_trace(seed, 2048, radius)
            assert M.hyperbolic_sup_screen(z, [1]) is not None  # screened path
            _assert_screen_exact(z, z2, LADDER * 4)


def test_screened_sup_bitwise_on_tiny_traces():
    # a tiny distance carries the closed form's eps/d relative error
    for seed, diameter in enumerate(10.0 ** -np.arange(6, 13)):
        centre = 0.9 * np.exp(2j * seed)
        z, z2 = (centre + diameter * _trig_trace(seed, m, 0.5) for m in (1024, 2048))
        _assert_screen_exact(z, z2, LADDER * 4)


def test_screened_sup_bitwise_with_exact_ties():
    # values rounded to a coarse grid repeat, so many pairs tie exactly
    for seed in range(4):
        z, z2 = (np.round(_trig_trace(seed, m, 0.95), 2) for m in (1024, 2048))
        _assert_screen_exact(z, z2, LADDER * 4)


def test_screen_prices_in_full_beyond_its_guard():
    z, z2 = _trig_trace(3, 1024, 0.995), _trig_trace(3, 2048, 0.995)
    assert M.hyperbolic_sup_screen(z, [81]) is None
    _assert_screen_exact(z, z2, LADDER * 4)


def _closed_form_pairs(monkeypatch):
    """Count the pairs the closed form prices, inside the screen too."""
    pairs = []
    closed = M.hyperbolic_distance_closed

    def counted(u, v):
        pairs.append(np.broadcast(u, v).size)
        return closed(u, v)

    monkeypatch.setattr(M, "hyperbolic_distance_closed", counted)
    return pairs


def test_screen_limits_closed_form_pairs(monkeypatch):
    pairs = _closed_form_pairs(monkeypatch)
    d = M.hyperbolic_distance_closed
    counts = {}
    for name in ("scale_50", "cusp_a50", "const_25"):
        f = MP.from_name(name)
        tr, fine = MP.boundary_trace(f, 4096), MP.boundary_trace(f, 8192)
        pairs.clear()
        GR.modulus_curve(tr, d, LADDER, screen=M.hyperbolic_sup_screen)
        curve_pairs = sum(pairs)
        pairs.clear()
        GR.doubled_sampling_modulus(fine, d, math.inf, LADDER[0], screen=M.hyperbolic_sup_screen)
        counts[name] = (curve_pairs, sum(pairs))
    # every pair of a circle ties within its shift; the steps bound shift
    # k by k steps, below the top shift's chord (all pairs: 1,658,880)
    assert sum(counts["scale_50"]) <= 100_000
    # the cusp's steps concentrate at its tip (doubled check, all pairs:
    # 162 shifts of 8192)
    assert counts["cusp_a50"][1] <= 50_000
    # every pair of a constant trace ties at 0 and no cell can be pruned:
    # each shift is priced once, shift 1 by the steps themselves
    assert counts["const_25"] == (81 * 4096, 162 * 8192)


def _exact(x) -> int:
    """x * 2^1074 as an exact integer, for a finite float x >= 0."""
    num, den = float(x).as_integer_ratio()
    return num << (1075 - den.bit_length())


def _bound_traces():
    """The seeded traces of the bitwise tests above, and the catalog cusps."""
    for seed in range(8):
        for radius in (0.3, 0.9, 0.98, 0.99):
            yield f"trig {seed} {radius}", _trig_trace(seed, 1024, radius)
    for seed, diameter in enumerate(10.0 ** -np.arange(6, 13)):
        yield f"tiny {diameter}", 0.9 * np.exp(2j * seed) + diameter * _trig_trace(seed, 1024, 0.5)
    for seed in range(4):
        yield f"ties {seed}", np.round(_trig_trace(seed, 1024, 0.95), 2)
    for name in ("cusp_a30", "cusp_a50", "cusp_a70", "cusp_a100"):
        yield name, MP.boundary_trace(MP.from_name(name), 1024)


def test_sup_screen_bound_covers_every_pair():
    # the ladder of the bitwise tests at 1024 samples: shifts 1..81
    tops = sorted({GR._shift_set(1024, h, math.inf)[-1] for h in LADDER * 4})
    ks = np.arange(1, 82)
    group = np.searchsorted(tops, ks)
    block = M._SCREEN_BLOCK
    for name, z in _bound_traces():
        d = M.hyperbolic_distance_closed
        full = np.array([d(np.roll(z, -k), z) for k in ks])
        cell_max = full.reshape(ks.size, -1, block).max(axis=2)
        step = full[0]
        bound = M._cell_bounds(step, ks[-1])
        assert np.all(cell_max <= bound), name
        # the bound holds for the margined steps summed exactly, not only
        # as the running sums rounded them
        u = step * (1.0 + M._SCREEN_TAU) + M._SCREEN_ETA
        ext = [_exact(x) for x in np.resize(u, z.size + ks[-1])]
        P = np.cumsum([0] + ext, dtype=object)
        for b, a in enumerate(range(0, z.size, block)):
            e = a + block - 1
            for i, k in enumerate(ks.tolist()):
                exact = min(P[e + k] - P[a], k * max(ext[a:e + k]))
                assert _exact(bound[i, b]) >= exact, (name, k, a)
        # each floor is a value its prefix attains; every pruned pair lies
        # strictly below the floor of the smallest prefix holding its shift
        floors = np.array(M._prefix_floors(z, step, tops))
        for K, floor in zip(tops, floors):
            assert floor <= full[:K].max(), (name, K)
        floor = floors[group][:, None]
        assert np.all((cell_max < floor)[bound < floor]), name


def test_screened_ladder_with_an_invalid_step_raises_in_ladder_order(cusp50):
    # 2^-9 lies below the angular resolution of 1024 samples; the screened
    # curve prices and raises as the unscreened one, with the same d calls
    hs = 2.0 ** -np.arange(3, 10)
    for f, error in ((cusp50, ValueError), (MP.from_name("identity"), DivergentValueError)):
        tr = MP.boundary_trace(f, 1024)
        raised, calls = [], []
        for screen in (None, M.hyperbolic_sup_screen):
            sizes = []

            def counted(u, v):
                sizes.append(np.size(u))
                return M.hyperbolic_distance_closed(u, v)

            with pytest.raises(error) as err:
                GR.modulus_curve(tr, counted, hs, screen=screen)
            raised.append((type(err.value), str(err.value)))
            calls.append(sizes)
        assert raised[0] == raised[1] and raised[0][0] is error, f.variant
        assert calls[0] == calls[1], f.variant
    # identity: the divergent first step comes before the invalid one
    assert "divergent modulus: a trace pair at gap 0.006136" in raised[0][1]


# ---------------------------------------------------------------------------
# exponent fitting


def test_fit_exact_power_laws():
    r = np.array([0.9, 0.99, 0.999, 0.9999, 0.99999])
    curve = GR.Curve(1 - r, (1 - r) ** -0.5)
    fit = GR.fit_exponent(curve)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.max_residual < 1e-12
    hs = 2.0 ** -np.arange(3, 9)
    mfit = GR.fit_exponent(GR.Curve(hs, 3.0 * hs))
    assert mfit.slope == pytest.approx(1.0, abs=1e-12)
    assert mfit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_excludes_zero_values():
    hs = 2.0 ** -np.arange(2, 9)
    vals = 2.0 * hs
    vals[3] = 0.0
    fit = GR.fit_exponent(GR.Curve(hs, vals))
    assert fit.n_excluded == 1
    assert fit.n_points == hs.size - 1
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        GR.fit_exponent(GR.Curve(np.array([0.1, 0.05, 0.001]), np.array([1.0, 2.0, 3.0])))
    with pytest.raises(InsufficientDataError):
        # five points but only one decade of span
        GR.fit_exponent(GR.Curve(np.geomspace(0.1, 0.01, 5), np.geomspace(1, 2, 5)))


def test_means_curve_and_modulus_curve_builders(hyp, cusp50):
    g = lambda zs: MP.weighted_derivative(cusp50, hyp, zs)
    radii = 1 - 2.0 ** -np.arange(2, 10)
    mc = GR.means_curve(g, radii, math.inf, 512)
    assert np.array_equal(mc.abscissa, 1.0 - radii)
    assert mc.values.size == radii.size
    fit = GR.fit_exponent(mc)
    # sup means of the alpha = 1/2 cusp grow like (1-r)^(-1/2)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


def test_modulus_fit_stable_under_sampling(hyp, cusp50):
    # shift quantization at the smallest ladder step dominates the spread,
    # which stays well inside the 0.1 exponent tolerances used downstream
    d = M.hyperbolic_distance_closed
    hs = 2.0 ** -np.arange(3, 9)
    slopes = []
    for n in (4096, 16384):
        tr = MP.boundary_trace(cusp50, n)
        slopes.append(GR.fit_exponent(GR.modulus_curve(tr, d, hs, 1.0)).slope)
    assert slopes[0] == pytest.approx(slopes[1], abs=0.05)
