"""Optimizer, local-minimum detection, power-law fit and Neville tableau."""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinfridge import analysis
from spinfridge.analysis import (
    _best_time_on_grid,
    _best_time_on_series,
    fit_power_law,
    first_local_min,
    golden_section_min,
    minimize_box,
    minimize_t1,
    neville_extrapolate,
    neville_lower_diagonal_diffs,
    optimize_t1,
    worker_count,
)
from spinfridge.engine import RefrigeratorEngine, RefrigeratorParams
from spinfridge.series import SeriesTerms, TimeGrid
from spinfridge.spinstar import temperature_from_excited


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, fx = golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 3.0, tol=1e-9)
        assert x == pytest.approx(1.3, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-13)


class TestFirstLocalMin:
    def test_cosine_dip_near_pi(self):
        # the grid point nearest pi, unpolished
        times = np.arange(0.0, 10.0, 0.01)
        assert first_local_min(np.cos(times)) == 314

    def test_monotone_series_has_no_minimum(self):
        assert first_local_min([0.0, 0.1, 0.2, 0.3]) is None

    def test_grid_only_refinement(self):
        assert first_local_min([3.0, 1.0, 2.0, 0.5]) == 1

    def test_plateau_counts_as_minimum(self):
        assert first_local_min([2.0, 1.0, 1.0, 3.0]) == 1

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            first_local_min([1.0, 0.0])

    @pytest.mark.parametrize("values, index", [
        ([1.0, 1.0, 1.0, 1.0], None),          # constant: no dip
        ([1.0, 1.0, 2.0, 3.0], None),          # leading plateau: no strict drop into it
        ([3.0, 2.0, 1.0, 1.0], 2),             # flat tail counts at its first point
        ([3.0, 1.0, 1.0, 1.0, 2.0], 1),        # flat bottom counts at its first point
        ([3.0, 2.0, 2.0, 1.0, 2.0], 3),        # a shoulder: the series falls on after it
        ([3.0, 2.0, 1.0], None),               # falling to the last point: no dip
    ])
    def test_plateaus(self, values, index):
        assert first_local_min(values) == index

    def test_picks_first_of_several_dips(self):
        times = np.arange(0.0, 20.0, 0.01)
        values = np.cos(times) + 0.01 * times  # dips near pi, 3*pi, ...
        assert times[first_local_min(values)] < 4.0


class TestBestTimeOnGrid:
    def test_minimum_at_grid_edge_is_not_polished(self):
        grid = np.linspace(0.0, 1.0, 11)

        def never(t):
            raise AssertionError("an edge minimum needs no polish")

        assert _best_time_on_grid(grid, never, grid) == (0.0, 0.0)
        assert _best_time_on_grid(-grid, never, grid) == (1.0, -1.0)

    def test_tie_resolves_to_first_index(self):
        grid = np.arange(5.0)
        values = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
        t_best, v_best = _best_time_on_grid(values, lambda t: 5.0, grid)
        assert (t_best, v_best) == (1.0, 1.0)

    def test_polish_never_loses_to_the_grid(self):
        grid = np.arange(5.0)
        values = np.array([3.0, 2.0, 1.0, 2.0, 3.0])
        # a continuous objective above the sampled value everywhere
        t_best, v_best = _best_time_on_grid(values, lambda t: 1.5 + (t - 2.0) ** 2, grid)
        assert (t_best, v_best) == (2.0, 1.0)

    def test_polish_refines_between_grid_points(self):
        grid = np.arange(0.0, 6.0, 0.5)
        t_best, v_best = _best_time_on_grid(np.cos(grid), np.cos, grid, refine_tol=1e-9)
        assert t_best == pytest.approx(math.pi, abs=1e-6)
        assert v_best < np.cos(grid).min()


def _reference_best_time(terms, grid, refine_tol=1e-5):
    """The sampled search on every grid point, polished on direct values."""
    values = terms.on_grid(grid.start, grid.step, len(grid))[0]
    return _best_time_on_grid(values, lambda t: float(terms.at([t])[0, 0]),
                              grid.points(), refine_tol)


def _grid(t0, dt, n):
    """The TimeGrid of the n points t0 + k dt."""
    return TimeGrid(t0, t0 + (n - 0.75) * dt, dt)


def _rounding_bound(terms) -> float:
    """What the series search may lose to the reference: 1e-12 sum|a| plus ulps of const."""
    const_ulp = float(np.spacing(np.max(np.abs(terms.const))))
    return (1e-12 * float(np.sum(np.abs(terms.amps))) + 4 * const_ulp
            + 64 * np.finfo(float).smallest_subnormal)


def _draw_search(draw, amps, omegas):
    """The one-row series of these terms, a drawn constant, and a drawn grid."""
    const = draw(st.floats(-1.0, 1.0))
    terms = SeriesTerms(np.array([const]), np.asarray(amps)[None, :], np.array(omegas))
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 400)))
    dt = draw(st.floats(0.002, 0.1))
    t0 = draw(st.floats(-2.0, 2.0))
    return terms, _grid(t0, dt, n)


@st.composite
def _search_case(draw):
    """A random one-row series (w <= 60) and a time grid."""
    m = draw(st.integers(0, 12))
    omegas = draw(st.lists(st.floats(0.0, 60.0), min_size=m, max_size=m))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    return _draw_search(draw, amps, omegas)


@st.composite
def _heavy_tailed_case(draw):
    """A one-row series whose |a| are log-uniform over 1e-15..1 (w <= 60), so
    that its head drops terms, and a time grid."""
    m = draw(st.integers(1, 40))
    omegas = draw(st.lists(st.floats(0.0, 60.0), min_size=m, max_size=m))
    exponents = np.array(draw(st.lists(st.floats(-15.0, 0.0), min_size=m, max_size=m)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    return _draw_search(draw, signs * 10.0 ** exponents, omegas)


def _search_with_head_tol(terms, grid, tol):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_HEAD_TOL", tol)
        return _best_time_on_series(terms, grid)


class TestBestTimeOnSeries:
    @settings(max_examples=150, deadline=None)
    @given(_search_case())
    # a series flat to rounding at its minimum (amplitude far below an ulp of
    # the constant): the grid minimum, not the first point, is the answer
    @example((SeriesTerms(np.array([1.0]), np.array([[-4.1e-10]]), np.array([1.59e-3])),
              _grid(-1.93, 0.0398, 288)))
    # one and two points: a grid with no interior point to polish
    @example((SeriesTerms(np.array([0.1]), np.array([[0.4, -0.2]]), np.array([2.0, 9.0])),
              _grid(0.3, 0.05, 1)))
    @example((SeriesTerms(np.array([0.1]), np.array([[0.4, -0.2]]), np.array([2.0, 9.0])),
              _grid(0.3, 0.05, 2)))
    # cos 3t dips at pi/3, placed three steps before the grid end
    @example((SeriesTerms(np.zeros(1), np.array([[1.0, 1e-3]]), np.array([3.0, 7.0])),
              _grid(math.pi / 3 + 3.4 * 0.01 - 165 * 0.01, 0.01, 166)))
    # polished on its Taylor expansion at w_max dt = 0.8 and on direct values at 3
    @example((SeriesTerms(np.zeros(1), np.array([[1.0, 0.5]]), np.array([16.0, 3.0])),
              _grid(0.0, 0.05, 41)))
    @example((SeriesTerms(np.zeros(1), np.array([[1.0, 0.5]]), np.array([60.0, 3.0])),
              _grid(0.0, 0.05, 41)))
    # a head flat to within its tail: every grid point is read directly
    @example((SeriesTerms(np.array([0.2]), np.concatenate([np.full(256, 1e-3),
                                                           np.full(44, 1e-8)])[None, :],
                          np.concatenate([np.zeros(256), np.linspace(1.0, 40.0, 44)])),
              _grid(0.1, 0.01, 300)))
    def test_never_above_the_sampled_search(self, case):
        terms, grid = case
        t_best, p_best = _best_time_on_series(terms, grid)
        t_ref, p_ref = _reference_best_time(terms, grid)
        times = grid.points()
        assert times[0] <= t_best <= times[-1]
        assert p_best == float(terms.at([t_best])[0, 0])  # one direct evaluation
        assert p_best <= p_ref + _rounding_bound(terms)

    @settings(max_examples=150, deadline=None)
    @given(_heavy_tailed_case())
    def test_head_screen_does_not_change_the_result(self, case):
        # no screen, the default head and a head that drops up to 30 % of sum|a|
        terms, grid = case
        found = [_search_with_head_tol(terms, grid, tol)
                 for tol in (0.0, analysis._HEAD_TOL, 0.3)]
        t_ref, p_ref = _reference_best_time(terms, grid)
        bound = _rounding_bound(terms)
        for t_best, p_best in found:
            assert p_best == pytest.approx(found[0][1], abs=bound)
            assert p_best == pytest.approx(p_ref, abs=bound)
            # another time only where the series ties with the first one's
            assert t_best == found[0][0] or float(terms.at([found[0][0]])[0, 0]) == (
                pytest.approx(float(terms.at([t_best])[0, 0]), abs=bound))

    @pytest.mark.parametrize("eta", [0.0, 0.048])
    def test_tail_breaks_a_tie_of_the_head(self, monkeypatch, eta):
        # The head cos t + d cos((1/2 + eta) t) has grid minima near pi and
        # 3 pi, equal at eta = 0 and the later about 6e-4 higher at eta = 0.048.
        # The dropped tail b cos(t/3), b < _HEAD_TOL sum|a|, adds b/2 near pi
        # and -b near 3 pi, so the later minimum is the series'.
        monkeypatch.setattr(analysis, "_HEAD_TOL", 1e-3)
        d, b = 1e-3, 8e-4
        terms = SeriesTerms(np.zeros(1), np.array([[1.0, d, b]]),
                            np.array([1.0, 0.5 + eta, 1.0 / 3.0]))
        # the cut drops b alone: b sums below it, b + d does not
        assert b < analysis._HEAD_TOL * float(np.abs(terms.amps).sum()) <= b + d
        dt = math.pi / 200
        grid = _grid(0.0, dt, 640)
        t_best, p_best = _best_time_on_series(terms, grid)
        t_ref, p_ref = _reference_best_time(terms, grid)
        assert t_best == pytest.approx(3 * math.pi, abs=dt)
        assert t_best == pytest.approx(t_ref, abs=1e-9)
        assert p_best == pytest.approx(p_ref, abs=_rounding_bound(terms))

    def test_zero_amplitudes_return_the_first_time_without_refining(self, monkeypatch):
        def never(*args):
            raise AssertionError("a constant series has no cell to refine")

        monkeypatch.setattr(SeriesTerms, "taylor", never)
        terms = SeriesTerms(np.array([0.25]), np.zeros((1, 3)), np.array([1.0, 2.0, 5.0]))
        assert _best_time_on_series(terms, _grid(0.5, 0.01, 101)) == (0.5, 0.25)

    @pytest.mark.parametrize("sign, end", [(1.0, 0), (-1.0, -1)])
    def test_monotone_series_ends_at_the_grid_edge(self, sign, end):
        # cos(0.1 t) falls on [0, 10], so the series rises where sign > 0 and
        # falls where sign < 0: the minimum is the first or last point
        terms = SeriesTerms(np.array([0.5]), np.array([[-sign * 0.3]]), np.array([0.1]))
        times = TimeGrid(0.0, 10.0, 0.01).points()
        t_best, p_best = _best_time_on_series(terms, TimeGrid(0.0, 10.0, 0.01))
        assert t_best == times[end]
        assert p_best == pytest.approx(0.5 - sign * 0.3 * math.cos(0.1 * times[end]),
                                       abs=1e-15)

    def test_minimum_in_a_last_cell_shorter_than_the_stride(self):
        terms = SeriesTerms(np.zeros(1), np.array([[1.0, 1e-3]]), np.array([3.0, 7.0]))
        dt = 0.01
        n = 166
        # cos(3 t) dips at pi/3, placed three steps before the grid end
        grid = _grid(math.pi / 3 + 3.4 * dt - (n - 1) * dt, dt, n)
        t_best, p_best = _best_time_on_series(terms, grid)
        t_ref, p_ref = _reference_best_time(terms, grid)
        assert t_best == pytest.approx(t_ref, abs=1e-9)
        end = grid.points()[-1]
        assert end - 4 * dt < t_best < end
        assert p_best <= p_ref + _rounding_bound(terms)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_or_two_points(self, n):
        terms = SeriesTerms(np.array([0.1]), np.array([[0.4, -0.2]]), np.array([2.0, 9.0]))
        grid = _grid(0.3, 0.05, n)
        t_best, p_best = _best_time_on_series(terms, grid)
        t_ref, p_ref = _reference_best_time(terms, grid)
        assert t_best == t_ref
        # p is one direct evaluation; the reference keeps the grid kernel's value
        assert p_best == float(terms.at([t_best])[0, 0])
        assert p_best == pytest.approx(p_ref, abs=_rounding_bound(terms))

    def test_fast_series_takes_the_sampled_search(self, monkeypatch):
        def never(*args):
            raise AssertionError("w_max dt is too large for an expansion")

        monkeypatch.setattr(SeriesTerms, "taylor", never)
        terms = SeriesTerms(np.zeros(1), np.array([[1.0, 0.5]]), np.array([60.0, 3.0]))
        grid = TimeGrid(0.0, 2.0, 0.05)
        assert _best_time_on_series(terms, grid) == _reference_best_time(terms, grid)


@st.composite
def _long_tied_case(draw):
    """A one-row series longer than the head's first candidate count, whose
    |a| repeat a few values log-uniform over 1e-15..1 (ties and heavy tails),
    w <= 20, on a grid of step <= 0.02 (fine enough for the screened scan)."""
    m = draw(st.integers(analysis._HEAD_START + 1, 3000))
    levels = draw(st.lists(st.floats(-15.0, 0.0), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.choice(levels, m)
    terms = SeriesTerms(np.array([draw(st.floats(-1.0, 1.0))]), amps[None, :],
                        rng.uniform(0.0, 20.0, m))
    grid = _grid(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.002, 0.02)),
                 draw(st.integers(5, 400)))
    return terms, grid


class TestSeriesHead:
    @settings(max_examples=60, deadline=None)
    @given(_long_tied_case())
    def test_head_drops_less_than_its_tolerance(self, case):
        terms, _ = case
        magnitude = np.abs(terms.amps).sum(axis=0)
        total = float(magnitude.sum())
        head, tail = analysis._series_head(terms, magnitude, total)
        again, tail_again = analysis._series_head(terms, magnitude, total)
        assert np.array_equal(head.omegas, again.omegas) and tail == tail_again
        # distinct gaps name the kept terms, which keep their order
        kept = np.flatnonzero(np.isin(terms.omegas, head.omegas))
        assert np.array_equal(head.omegas, terms.omegas[kept])
        assert np.array_equal(head.amps, terms.amps[:, kept])
        assert np.array_equal(head.const, terms.const)
        count = analysis._HEAD_START
        while count < kept.size:
            count *= 2
        assert kept.size in (count, terms.omegas.size)
        dropped = np.delete(magnitude, kept)
        assert tail == total - float(magnitude[kept].sum())
        assert tail < analysis._HEAD_TOL * total
        if dropped.size:
            assert dropped.max() <= magnitude[kept].min()

    @settings(max_examples=100, deadline=None)
    @given(_heavy_tailed_case())
    def test_partitioned_heads_of_short_series_do_not_change_the_result(self, case):
        # a first candidate count of one term puts short series on the
        # partition path too
        terms, grid = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_HEAD_START", 1)
            found = [_search_with_head_tol(terms, grid, tol)
                     for tol in (0.0, analysis._HEAD_TOL, 0.3)]
        t_ref, p_ref = _reference_best_time(terms, grid)
        bound = _rounding_bound(terms)
        for t_best, p_best in found:
            assert p_best == pytest.approx(p_ref, abs=bound)
            assert t_best == found[0][0] or float(terms.at([found[0][0]])[0, 0]) == (
                pytest.approx(float(terms.at([t_best])[0, 0]), abs=bound))

    @pytest.mark.parametrize("eta", [0.0, 0.048])
    def test_tail_breaks_a_tie_of_a_partitioned_head(self, monkeypatch, eta):
        # the tie case of TestBestTimeOnSeries, its head picked by the partition
        monkeypatch.setattr(analysis, "_HEAD_START", 2)
        terms = SeriesTerms(np.zeros(1), np.array([[1.0, 1e-3, 8e-4]]),
                            np.array([1.0, 0.5 + eta, 1.0 / 3.0]))
        magnitude = np.abs(terms.amps).sum(axis=0)
        head, tail = analysis._series_head(terms, magnitude, float(magnitude.sum()))
        assert head.omegas.tolist() == [1.0, 0.5 + eta] and tail > 0.0
        TestBestTimeOnSeries().test_tail_breaks_a_tie_of_the_head(monkeypatch, eta)

    @settings(max_examples=40, deadline=None)
    @given(_long_tied_case())
    def test_search_equals_the_compressed_head_search(self, case):
        terms, grid = case
        found = _best_time_on_series(terms, grid)
        with pytest.MonkeyPatch.context() as patch:
            def sorted_head(terms, magnitude, total):
                # drop the smallest terms, in stable ascending order, while
                # their cumulative magnitude stays below the cut
                order = np.argsort(magnitude, kind="stable")
                cut = analysis._HEAD_TOL * total
                n_drop = int(np.searchsorted(np.cumsum(magnitude[order]), cut, side="left"))
                keep = np.sort(order[n_drop:])
                head = SeriesTerms(terms.const, terms.amps[:, keep], terms.omegas[keep])
                return head, total - float(magnitude[keep].sum())

            patch.setattr(analysis, "_series_head", sorted_head)
            t_ref, p_ref = _best_time_on_series(terms, grid)
        bound = _rounding_bound(terms)
        assert found[1] == pytest.approx(p_ref, abs=bound)
        # another time only where the series ties with the first one's
        assert found[0] == t_ref or float(terms.at([t_ref])[0, 0]) == (
            pytest.approx(float(terms.at([found[0]])[0, 0]), abs=bound))

class TestMinimizeBox:
    def test_finds_quadratic_minimum(self):
        target = np.array([0.3, 0.05])
        x, fx, evals, restarts = minimize_box(
            lambda v: float(np.sum((v - target) ** 2)),
            [(0.0, 1.0), (0.0, 0.1)],
            budget=300,
            seed=0,
        )
        assert np.allclose(x, target, atol=1e-4)
        assert evals <= 300
        assert restarts >= 1

    def test_returns_the_least_call(self):
        calls = []

        def func(v):
            calls.append((v.copy(), float(np.cos(5 * v[0]) + v[1] ** 2)))
            return calls[-1][1]

        x, fx, evals, _ = minimize_box(func, [(0.0, 2.0), (-1.0, 1.0)], budget=200, seed=4)
        k = min(range(len(calls)), key=lambda j: calls[j][1])  # the first of the least
        assert evals == len(calls) <= 200
        assert fx == calls[k][1]
        assert np.array_equal(x, calls[k][0])

    def test_deterministic_for_fixed_seed(self):
        func = lambda v: float((v[0] - 0.4) ** 2 + math.sin(3 * v[1]) ** 2)
        bounds = [(0.0, 1.0), (0.0, 1.0)]
        first = minimize_box(func, bounds, budget=150, seed=9)
        second = minimize_box(func, bounds, budget=150, seed=9)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_boundary_optimum_found(self):
        x, fx, *_ = minimize_box(
            lambda v: float(-v[0] - v[1]), [(0.0, 1.0), (0.0, 0.1)],
            budget=120, seed=1,
        )
        assert x[0] == pytest.approx(1.0, abs=1e-6)
        assert x[1] == pytest.approx(0.1, abs=1e-6)

    def test_degenerate_box_returns_the_point(self):
        x, fx, evals, *_ = minimize_box(
            lambda v: float(v[0] + v[1]), [(0.5, 0.5), (0.2, 0.2)],
            budget=10, seed=0,
        )
        assert tuple(x) == (0.5, 0.2)
        assert fx == 0.7
        assert evals == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            minimize_box(lambda v: 0.0, [(1.0, 0.0)], budget=10, seed=0)
        with pytest.raises(ValueError):
            minimize_box(lambda v: 0.0, [(0.0, 1.0)], budget=0, seed=0)


@pytest.fixture(scope="module")
def base():
    return RefrigeratorParams(
        epsilon=(1.0, 2.0, 1.0),
        bath_energy=(2.0, 4.0, 2.0),
        coupling=(0.0, 0.0, 0.0),
        g=0.0,
        n_bath=(2, 2, 2),
        beta=(1.0, 1.0, 0.5),
    )


class TestOptimizeT1:

    def test_smoke_run_cools_below_initial(self, base):
        result = optimize_t1(base, 1e-9, budget=150, seed=2, time_grid=TimeGrid(0.0, 10.0, 0.02))
        assert result.best_t1 < 1.0
        assert result.evaluations <= 150

    def test_result_reproducible_at_reported_point(self, base):
        result = optimize_t1(base, 1e-9, budget=120, seed=7, time_grid=TimeGrid(0.0, 10.0, 0.02))
        x = [float(v) for v in result.best_params]
        engine = RefrigeratorEngine(replace(base, coupling=tuple(x[:3]), g=x[3]), prune_tol=1e-9)
        p = engine.excited_terms((1,)).at([result.best_time])[0, 0]
        assert float(temperature_from_excited(p, base.epsilon[0])) == pytest.approx(
            result.best_t1, abs=1e-9
        )

    def test_degenerate_ranges_return_objective_there(self, base):
        point = ((0.4, 0.4), (0.3, 0.3), (0.2, 0.2), (0.05, 0.05))
        result = optimize_t1(base, 1e-9, ranges=point, budget=5, seed=0,
                             time_grid=TimeGrid(0.0, 10.0, 0.02))
        assert np.allclose(result.best_params, [0.4, 0.3, 0.2, 0.05])

    def test_tiny_run_reproduces_recorded_result(self, base, monkeypatch):
        # exact values of a seeded run: any change to the scoring or the
        # search shows here
        scores = []
        real = analysis.minimize_box

        def recording(func, *args, **kwargs):
            def score(x):
                scores.append(func(x))
                return scores[-1]

            return real(score, *args, **kwargs)

        monkeypatch.setattr(analysis, "minimize_box", recording)
        result = optimize_t1(base, 1e-9, budget=12, seed=0, time_grid=TimeGrid(0.0, 2.0, 0.01))
        assert result.best_params == pytest.approx([
            0.9405854671820999, 0.9828415012452751,
            0.3327175902947784, 0.04545501602441072,
        ], rel=1e-12)
        assert result.best_time == pytest.approx(1.1053515456300997, rel=1e-12)
        assert result.best_t1 == pytest.approx(0.5075084125346581, rel=1e-12)
        assert result.best_ground_population == pytest.approx(
            0.8776552182066182, rel=1e-12
        )
        assert (result.evaluations, result.restarts) == (12, 1)
        assert np.minimum.accumulate(scores) == pytest.approx(
            [0.516992104145156] * 5 + [0.5084482186677982] * 6
            + [0.5075084125346581], rel=1e-12
        )

    def test_seed_stability(self, base):
        kwargs = dict(budget=250, time_grid=TimeGrid(0.0, 10.0, 0.02))
        first = optimize_t1(base, 1e-9, seed=1, **kwargs)
        second = optimize_t1(base, 1e-9, seed=42, **kwargs)
        assert abs(first.best_t1 - second.best_t1) < 2e-3


class TestMinimizeT1:
    @staticmethod
    def best(x):
        """Half the box (x0 < 0.5) is infeasible; p is least at (0.7, 0.3), t = 1."""
        if x[0] < 0.5:
            return None

        def p(t):
            return 0.1 + 0.05 * ((x[0] - 0.7) ** 2 + (x[1] - 0.3) ** 2) + 0.01 * (t - 1.0) ** 2

        times = TimeGrid(0.0, 2.0, 0.05).points()
        return _best_time_on_grid(p(times), p, times) + (1.0,)

    def test_infeasible_half_scores_inf(self, monkeypatch):
        objectives = []
        real = analysis.minimize_box

        def spy(func, *args, **kwargs):
            objectives.append(func)
            return real(func, *args, **kwargs)

        monkeypatch.setattr(analysis, "minimize_box", spy)
        result = minimize_t1(self.best, [(0.0, 1.0), (0.0, 1.0)], budget=150, seed=0)
        score = objectives[0]
        assert score(np.array([0.2, 0.3])) == math.inf
        assert score(np.array([0.49, 0.9])) == math.inf
        assert math.isfinite(score(np.array([0.5, 0.3])))
        assert result.best_params[0] >= 0.5
        assert result.best_params == pytest.approx([0.7, 0.3], abs=1e-3)
        assert result.best_time == pytest.approx(1.0, abs=1e-4)
        assert result.best_t1 == pytest.approx(
            float(temperature_from_excited(0.1, 1.0)), rel=1e-6
        )

    def test_no_feasible_point_reads_inf(self):
        result = minimize_t1(self.best, [(0.0, 0.4), (0.0, 1.0)], budget=10, seed=0)
        assert result.best_t1 == math.inf
        assert np.isnan(result.best_params).all() and len(result.best_params) == 2
        assert math.isnan(result.best_time)
        assert result.evaluations == 10


def test_scaling_sweep_parallel_path_matches_serial(base, monkeypatch):
    from spinfridge.analysis import scaling_sweep

    kwargs = dict(
        per_n_budget=40, seed=3, prune_tol=1e-9, time_grid=TimeGrid(0.0, 6.0, 0.05),
    )
    # the pool starts the largest N first; rows still come in n_list order
    monkeypatch.setenv("SPINFRIDGE_WORKERS", "1")
    serial = scaling_sweep(base, [3, 1, 2], **kwargs)
    monkeypatch.setenv("SPINFRIDGE_WORKERS", "2")
    parallel = scaling_sweep(base, [3, 1, 2], **kwargs)
    assert [row.n for row in serial] == [row.n for row in parallel] == [3, 1, 2]
    for a, b in zip(serial, parallel):
        assert a.best_t1 == b.best_t1
        assert np.array_equal(a.best_params, b.best_params)
        assert a.local_min_time == b.local_min_time


def test_scaling_sweep_rows_equal_optimize_t1(base, monkeypatch):
    # each sweep row is the search optimize_t1 runs at that N, bit for bit
    monkeypatch.setenv("SPINFRIDGE_WORKERS", "1")
    grid = TimeGrid(0.0, 6.0, 0.05)
    ranges = ((0.0, 0.5),) * 3 + ((0.0, 0.1),)
    rows = analysis.scaling_sweep(base, [6, 3], 12, 5, 1e-9, grid, ranges)
    for k, row in enumerate(rows):
        alone = optimize_t1(replace(base, n_bath=(row.n,) * 3), 1e-9, ranges, 12,
                            5 + 7919 * k, grid)
        assert row.best_t1 == alone.best_t1
        assert np.array_equal(row.best_params, alone.best_params)
        assert row.best_time == alone.best_time


class TestFitPowerLaw:
    def test_recovers_exact_model(self):
        ns = np.arange(2, 51)
        values = 0.457 + 0.096 * ns ** -1.089
        fit = fit_power_law(ns, values, t_inf=0.457)
        assert fit.a == pytest.approx(0.096, abs=1e-6)
        assert fit.b == pytest.approx(1.089, abs=1e-6)
        assert fit.sigma < 1e-12
        assert fit.n_points == 49

    def test_sigma_definition_is_reproducible(self):
        rng = np.random.default_rng(0)
        ns = np.arange(2, 44)
        values = 0.5 + 0.2 * ns ** -0.9 + rng.normal(0.0, 1e-3, size=len(ns))
        fit = fit_power_law(ns, values, t_inf=0.5)
        residuals = fit.t_inf + fit.a * ns ** (-fit.b) - values
        expected = math.sqrt(float(np.sum(residuals ** 2)) / (len(ns) - 2))
        assert fit.sigma == expected  # bit-for-bit reproduction of the formula

    def test_plateau_policy_averages_large_n(self):
        ns = np.array([2, 4, 7, 14, 35, 40, 45, 50])
        values = 0.457 + 0.096 * ns ** -1.089
        fit = fit_power_law(ns, values)
        assert fit.t_inf == pytest.approx(values[ns >= 35].mean())

    def test_plateau_policy_requires_large_n(self):
        with pytest.raises(ValueError, match="N >= 35"):
            fit_power_law([2, 4, 7, 14], [0.5, 0.48, 0.47, 0.46])

    def test_explicit_t_inf_above_data_is_error(self):
        with pytest.raises(ValueError, match="non-positive residual"):
            fit_power_law([2, 4, 7, 14], [0.5, 0.48, 0.47, 0.46], t_inf=0.47)

    def test_no_convergence_is_a_value_error(self, monkeypatch):
        ns = np.array([2.0, 4.0, 7.0, 10.0])
        values = 0.4 + 0.5 * ns ** -1.2
        assert fit_power_law(ns, values, t_inf=0.4).b == pytest.approx(1.2, rel=1e-12)
        monkeypatch.setattr(analysis, "_FIT_MAX_STEPS", 0)
        with pytest.raises(ValueError, match="did not converge"):
            fit_power_law(ns, values, t_inf=0.4)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_power_law([2, 4, 7], [3.0, 2.0, 1.0], t_inf=0.0)

    # Noisy plateaus on which only N = 2 carries signal.  The first drives
    # N^-b below the smallest double at every N; the second converges to
    # b = 113, a = 9e32, where N = 2 carries all of N^-b and the Jacobian
    # [N^-b, -a ln N N^-b] has rank one.
    @pytest.mark.parametrize("values, message", [
        ([0.46379272801003385, 0.4316772237300743, 0.42956948576384285,
          0.41314146936479473, 0.4786728926379152, 0.4621245998272921,
          0.40716352113289156, 0.4367776401329417, 0.4350582311248465], "diverged"),
        ([0.5540117079261844, 0.4726588189897189, 0.46575149957764816,
          0.4799732507179785, 0.4918712697229076, 0.4262253451248262,
          0.48716456366888916, 0.48240646901332024, 0.46913098569608214], "degenerate"),
    ])
    def test_undetermined_fit_is_a_value_error(self, values, message):
        ns = [2, 4, 7, 10, 14, 20, 30, 40, 50]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                fit_power_law(ns, values)


class TestNeville:
    def test_linear_data_is_exact(self):
        tab = neville_extrapolate([0.5, 0.2, 0.1], [1.5, 1.2, 1.1], 0.0)
        assert tab.extrapolated == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_data_is_exact(self):
        xs = np.array([0.5, 0.25, 0.125, 0.0625])
        ys = 2.0 - 3.0 * xs + 5.0 * xs ** 2
        tab = neville_extrapolate(xs, ys, 0.0)
        assert tab.extrapolated == pytest.approx(2.0, abs=1e-12)

    def test_every_entry_recomputable_from_parents(self):
        rng = np.random.default_rng(1)
        xs = np.array([0.5, 0.25, 1 / 7, 1 / 14, 0.02])
        ys = rng.normal(size=5)
        tab = neville_extrapolate(xs, ys, 0.0)
        for m in range(1, 5):
            for i in range(5 - m):
                rebuilt = (
                    (0.0 - xs[i + m]) * tab.tableau[m - 1][i]
                    + (xs[i] - 0.0) * tab.tableau[m - 1][i + 1]
                ) / (xs[i] - xs[i + m])
                assert tab.tableau[m][i] == pytest.approx(rebuilt, abs=1e-14)

    def test_d_diffs_definition(self):
        xs = [0.5, 0.25, 0.1]
        ys = [1.0, 2.0, 4.0]
        tab = neville_extrapolate(xs, ys, 0.0)
        assert tab.d_diffs[0][1] == pytest.approx(
            tab.tableau[1][1] - tab.tableau[0][2], abs=1e-15
        )
        chain = neville_lower_diagonal_diffs(tab)
        assert chain[0] == tab.d_diffs[0][-1]
        assert chain[-1] == tab.tableau[-1][0] - tab.tableau[-2][-1]

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            neville_extrapolate([0.5, 0.5, 0.1], [1.0, 1.0, 2.0], 0.0)

    def test_stability_margin_attaches_warning_not_error(self):
        # closest point at 1/14 with the smallest gap 1/7 - 1/14 violates
        # the documented margin; extrapolation still returns a value
        xs = [1 / 2, 1 / 4, 1 / 7, 1 / 14]
        ys = [0.502, 0.478, 0.469, 0.462]
        tab = neville_extrapolate(xs, ys, 0.0)
        assert tab.stability_warning is not None
        assert math.isfinite(tab.extrapolated)

    def test_paper_ladder_satisfies_stability_margin(self):
        xs = [1 / 2, 1 / 4, 1 / 7, 1 / 14, 1 / 50]
        ys = [0.502, 0.478, 0.469, 0.462, 0.458]
        tab = neville_extrapolate(xs, ys, 0.0)
        assert tab.stability_warning is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_recursion_property_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        xs = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
        if len(np.unique(xs)) != n:
            return
        ys = rng.normal(size=n)
        tab = neville_extrapolate(xs, ys, 0.0)
        for m in range(1, n):
            for i in range(n - m):
                rebuilt = (
                    (0.0 - xs[i + m]) * tab.tableau[m - 1][i]
                    + (xs[i] - 0.0) * tab.tableau[m - 1][i + 1]
                ) / (xs[i] - xs[i + m])
                assert abs(tab.tableau[m][i] - rebuilt) < 1e-14 * max(
                    1.0, abs(tab.tableau[m][i])
                )


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("SPINFRIDGE_WORKERS", "3")
    assert worker_count() == 3
    for raw in ("0", "two", "1.5"):
        monkeypatch.setenv("SPINFRIDGE_WORKERS", raw)
        with pytest.raises(ValueError, match=f"SPINFRIDGE_WORKERS .* got '{raw}'"):
            worker_count()
    monkeypatch.delenv("SPINFRIDGE_WORKERS")
    assert worker_count() >= 1


def test_worker_count_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("SPINFRIDGE_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count() == 64


def test_scaling_sweep_starts_at_most_one_worker_per_size(monkeypatch, base):
    pools, mapped = [], []

    class Pool:
        """Records its size and job order and runs the jobs in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            mapped.extend(job[1] for job in jobs)
            return map(fn, jobs)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(analysis, "_sweep_point", lambda job: job[1])
    monkeypatch.delenv("SPINFRIDGE_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert analysis.scaling_sweep(base, [4, 7, 2]) == [4, 7, 2]
    assert pools == [3]
    assert mapped == [7, 4, 2]  # largest N first
    assert analysis.scaling_sweep(base, [5]) == [5]  # one size runs without a pool
    assert pools == [3]
