"""The in-house Sobol', Nelder-Mead, power-law fit and logistic function
against SciPy, which the tests use as an oracle and the program does not load."""

import math
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.optimize import curve_fit, minimize
from scipy.special import expit as scipy_expit
from scipy.stats import qmc

from spinfridge import analysis
from spinfridge.analysis import fit_power_law, minimize_box
from spinfridge.spinstar import expit


class TestSobol:
    @pytest.mark.parametrize("d", range(1, len(analysis._SOBOL_POLY) + 1))
    def test_bit_identical_to_scipy(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # n not a power of two
            for seed in range(32):
                for n in (1, 2, 5, 19, 100, 257):
                    ref = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                    got = analysis._sobol(d, n, seed)
                    assert got.dtype == ref.dtype and got.shape == ref.shape
                    assert np.array_equal(got, ref), (d, seed, n)

    def test_dimension_outside_the_table_is_an_error(self):
        with pytest.raises(ValueError):
            analysis._sobol(len(analysis._SOBOL_POLY) + 1, 4, 0)


class _BudgetExhausted(Exception):
    """The reference's evaluation budget ran out inside a probe or a polish."""


def _reference_minimize_box(func, bounds, budget, seed, n_starts=None):
    """``minimize_box`` as it was on SciPy's ``qmc.Sobol`` and ``minimize``."""
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    ndim = len(bounds)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    span = hi - lo
    tracker = analysis._Budget(limit=budget)

    def wrapped(x):
        if tracker.spent():
            raise _BudgetExhausted
        x = np.clip(x, lo, hi)
        value = float(func(x))
        tracker.used += 1
        if value < tracker.best_value:
            tracker.best_value = value
            tracker.best_x = x.copy()
        return value

    if np.all(span == 0.0):
        wrapped(lo)
        return lo, tracker.best_value, tracker.used, 0
    if n_starts is None:
        n_starts = max(2, min(10, budget // 150))
    n_probe = min(max(2 * n_starts, budget // 8), max(budget - 1, 1))
    sampler = qmc.Sobol(d=ndim, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        probes = lo + sampler.random(n_probe) * span
    if n_probe >= 2 ** ndim + 1:
        corners = lo + span * np.array(list(product((0.0, 1.0), repeat=ndim)))
        probes[: len(corners)] = corners
        probes[len(corners)] = lo + 0.5 * span
    probe_values = []
    try:
        for x in probes:
            probe_values.append(wrapped(x))
    except _BudgetExhausted:
        pass
    ranked = list(np.argsort(probe_values, kind="stable"))
    restarts = 0
    per_start = max((budget - tracker.used) // max(n_starts, 1), 20)
    polished = False
    while not tracker.spent() and not polished:
        budget_left = budget - tracker.used
        if ranked and (budget_left >= per_start or restarts < n_starts):
            x0, scale = probes[ranked.pop(0)], 0.08
            options = {"maxfev": min(per_start, budget_left), "xatol": 1e-7, "fatol": 1e-12}
            restarts += 1
        elif tracker.best_x is not None:
            x0, scale = tracker.best_x, 0.01
            options = {"maxfev": budget_left, "xatol": 1e-9, "fatol": 1e-13}
            polished = True
        else:
            break
        try:
            minimize(wrapped, x0, method="Nelder-Mead", bounds=bounds, options={
                **options, "initial_simplex": analysis._initial_simplex(x0, lo, hi, scale),
            })
        except _BudgetExhausted:
            pass
    return tracker.best_x, tracker.best_value, tracker.used, restarts


def _recorded(func):
    """``func`` that also records every point it is called at."""
    calls = []

    def f(x):
        calls.append(np.array(x, copy=True))
        return func(x)

    return f, calls


def _plateaus(x):
    """Piecewise constant: ties and failed contractions, so many shrinks."""
    return float(np.floor(6.0 * np.sum((np.asarray(x) - 0.37) ** 2) ** 0.5))


def _wall(x):
    """A quadratic whose minimum lies outside the box, past two walls."""
    return float(np.sum((np.asarray(x) - np.array([1.3, -0.2, 0.5, 0.05])) ** 2))


def _rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 0.1)]
_FLAT_BOX = [(0.0, 1.0), (0.3, 0.3), (0.0, 1.0), (0.0, 0.1)]  # one zero-span coordinate


class TestNelderMead:
    @pytest.mark.parametrize("func", [_plateaus, _wall, _rosenbrock])
    @pytest.mark.parametrize("maxfev", list(range(1, 41)) + [80, 200])
    def test_same_calls_as_scipy(self, func, maxfev):
        lo = np.array([b[0] for b in _FLAT_BOX])
        hi = np.array([b[1] for b in _FLAT_BOX])
        x0 = np.array([0.95, 0.3, 0.2, 0.099])  # steps past the upper walls reflect
        sim = analysis._initial_simplex(x0, lo, hi, 0.08)
        sim[1, 0] = 1.02  # a vertex outside the box, reflected off it
        options = {"maxfev": maxfev, "xatol": 1e-7, "fatol": 1e-12}
        f_ref, ref = _recorded(func)
        minimize(f_ref, x0, method="Nelder-Mead", bounds=_FLAT_BOX,
                 options={**options, "initial_simplex": sim})
        f_got, got = _recorded(func)
        analysis._nelder_mead(f_got, sim, lo, hi, **options)
        assert len(got) == len(ref) <= maxfev
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_maxfev_runs_out_during_a_shrink(self):
        # 0 at the first vertex and 1 elsewhere: reflection and inside
        # contraction both fail, so every step shrinks (1 + 1 + 4 calls)
        x0 = np.array([0.5, 0.5, 0.5, 0.05])
        lo, hi = np.zeros(4), np.array([1.0, 1.0, 1.0, 0.1])

        def spike(x):
            return 0.0 if np.array_equal(x, x0) else 1.0

        sim = analysis._initial_simplex(x0, lo, hi, 0.08)
        f_ref, ref = _recorded(spike)
        minimize(f_ref, x0, method="Nelder-Mead", bounds=list(zip(lo, hi)),
                 options={"maxfev": 5 + 2 + 3, "initial_simplex": sim})
        f_got, got = _recorded(spike)
        analysis._nelder_mead(f_got, sim, lo, hi, maxfev=5 + 2 + 3, xatol=1e-7, fatol=1e-12)
        assert len(got) == len(ref) == 10
        shrunk = x0 + 0.5 * (sim[1:4] - x0)  # the first three shrink points
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert np.array_equal(np.array(got[7:]), shrunk)


def _compare_calls(func, bounds, budget, seed):
    """``minimize_box`` and the SciPy path on ``func``, after checking that they
    call it at the same points in the same order."""
    f_got, got_calls = _recorded(func)
    got = minimize_box(f_got, bounds, budget, seed)
    f_ref, ref_calls = _recorded(func)
    ref = _reference_minimize_box(f_ref, bounds, budget, seed)
    assert len(got_calls) == len(ref_calls)
    assert all(np.array_equal(a, b) for a, b in zip(got_calls, ref_calls))
    return got, ref


class TestMinimizeBox:
    @pytest.mark.parametrize("func", [_plateaus, _wall, _rosenbrock])
    @pytest.mark.parametrize("bounds", [_BOX, _FLAT_BOX], ids=["box", "flat"])
    @pytest.mark.parametrize("budget, seed", [(1, 0), (7, 1), (33, 2), (60, 3), (61, 4),
                                              (97, 5), (300, 6), (451, 7)])
    def test_same_result_as_scipy_path(self, func, bounds, budget, seed):
        got, ref = _compare_calls(func, bounds, budget, seed)
        assert np.array_equal(got[0], ref[0])
        assert got[1:] == ref[1:]

    def test_optimum_on_a_wall(self):
        x, fx, *_ = minimize_box(_wall, _BOX, 300, 0)
        assert np.array_equal(x[[0, 1]], [1.0, 0.0])

    def test_budget_runs_out_during_a_shrink(self):
        # the plateau objective shrinks often, so the budget runs out at
        # many points of a Nelder-Mead step over this range
        for budget in range(40, 90):
            got, ref = _compare_calls(_plateaus, _BOX, budget, 11)
            assert got[2] == ref[2] == budget
            assert np.array_equal(got[0], ref[0])


def _model(n, t_inf, a, b):
    return t_inf + a * np.power(n, -b)


def _ssr(ns, values, t_inf, a, b):
    return float(np.sum((_model(ns, t_inf, a, b) - values) ** 2))


class TestPowerLawFit:
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_curve_fit(self, seed):
        rng = np.random.default_rng(seed)
        ns = np.array([2.0, 4.0, 7.0, 10.0, 14.0, 20.0, 30.0, 40.0, 50.0])
        a, b, t_inf = rng.uniform(0.2, 2.0), rng.uniform(0.3, 2.5), rng.uniform(0.1, 0.6)
        values = _model(ns, t_inf, a, b) * (1.0 + rng.normal(0.0, 0.01, ns.size))
        policy = "plateau" if seed % 2 else t_inf - 0.05
        fit = fit_power_law(ns, values, t_inf=policy)
        above = values > fit.t_inf
        slope, intercept = np.polyfit(np.log(ns[above]), np.log(values[above] - fit.t_inf), 1)
        # curve_fit's default tolerances leave up to 2e-5 relative in a and b
        # on this noisy data, so the oracle runs to its tightest tolerances
        (a_ref, b_ref), _ = curve_fit(
            lambda n, a, b: _model(n, fit.t_inf, a, b), ns, values,
            p0=(math.exp(intercept), -slope), maxfev=20000,
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
        )
        assert fit.a == pytest.approx(a_ref, rel=1e-6)
        assert fit.b == pytest.approx(b_ref, rel=1e-6)
        # no larger, up to the rounding of the sum at a flat minimum
        assert (_ssr(ns, values, fit.t_inf, fit.a, fit.b)
                <= _ssr(ns, values, fit.t_inf, a_ref, b_ref) * (1.0 + 1e-12))

    def test_stationary_at_the_result(self):
        ns = np.array([2.0, 4.0, 7.0, 10.0, 14.0, 20.0, 30.0])
        values = 0.45 + 0.8 * ns ** -1.1 + np.array([3, -2, 1, 0, -1, 2, -3]) * 1e-4
        fit = fit_power_law(ns, values, t_inf=0.45)
        base = _ssr(ns, values, 0.45, fit.a, fit.b)
        for da, db in ((1e-7, 0.0), (-1e-7, 0.0), (0.0, 1e-7), (0.0, -1e-7)):
            assert base <= _ssr(ns, values, 0.45, fit.a + da, fit.b + db)


class TestExpit:
    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([
            rng.normal(0.0, 5.0, 2000), rng.uniform(-800.0, 800.0, 2000),
            [0.0, -0.0, 36.7, -36.7, 709.7, -709.7, 709.8, -709.8, 710.0, -710.0,
             745.2, -745.2, 746.0, -746.0, 1e308, -1e308, 5e-324],
        ])
        for x in xs:
            got, ref = expit(float(x)), scipy_expit(x)
            assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), x
