import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from attractorlab import dynamics
from attractorlab.abm import GameMatrix
from attractorlab.dynamics import (
    NumericalDivergenceError,
    OdeSpec,
    ReplicatorRhs,
    closed_form_logistic,
    find_fixed_points,
    hysteresis_loop,
    integrate,
    misplaced_jumps,
    sweep_bifurcation,
)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


def fold_lambda(theta):
    """Closed-form fold location: solve f = 0 and df/ds = 0 simultaneously.

    df/ds = theta - 3 s**2 = 0 at s = sqrt(theta/3); substituting into
    f = lam + theta s - s**3 = 0 gives lam = s**3 - theta s.
    """
    s = math.sqrt(theta / 3.0)
    return abs(s ** 3 - theta * s)


def max_error_vs_logistic(dt, x0=0.1, c=1.0, t_end=10.0):
    traj = integrate(OdeSpec(ReplicatorRhs(1.0 + c, 1.0), x0=x0, dt=dt, t_end=t_end))
    return max(
        abs(s - closed_form_logistic(x0, c, t)) for t, s in zip(traj.times, traj.states)
    )


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def test_replicator_rhs_direct_substitution():
    assert ReplicatorRhs(2, 1)(0.5) == pytest.approx(0.25)


def test_replicator_rhs_boundary_and_symmetry():
    assert ReplicatorRhs(3, -4)(0.0) == 0.0
    assert ReplicatorRhs(3, -4)(1.0) == 0.0
    assert ReplicatorRhs(3, 3)(0.5) == 0.0


def test_replicator_rhs_matrix_mode():
    game = GameMatrix(r=3, sg=0, t=5, pu=1)
    x = 0.25
    p_c = 3 * x
    p_d = 5 * x + 1 * (1 - x)
    expected = x * (1 - x) * (p_c - p_d)
    assert ReplicatorRhs(game=game)(x) == pytest.approx(expected)


def test_replicator_rhs_domain_error():
    rhs = ReplicatorRhs(1, 0)
    with pytest.raises(ValueError):
        rhs(1.1)
    with pytest.raises(ValueError):
        rhs(-0.01)
    # within the 1e-12 slack the state is clamped, not rejected
    assert rhs(1.0 + 5e-13) == 0.0


@pytest.mark.parametrize("payoffs, message", [
    ({}, "constant payoffs need both p_c and p_d"),
    ({"p_c": 2.0}, "constant payoffs need both p_c and p_d"),
    ({"p_d": 1.0}, "constant payoffs need both p_c and p_d"),
    ({"p_c": 2.0, "p_d": 1.0, "game": GameMatrix(3, 0, 5, 1)}, "give either p_c/p_d or game, not both"),
    ({"p_c": 2.0, "game": GameMatrix(3, 0, 5, 1)}, "give either p_c/p_d or game, not both"),
    ({"p_c": math.nan, "p_d": 1.0}, "constant payoffs must be finite"),
    ({"p_c": 2.0, "p_d": math.inf}, "constant payoffs must be finite"),
])
def test_replicator_rhs_takes_constants_or_a_game(payoffs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ReplicatorRhs(**payoffs)
    ReplicatorRhs(p_c=2.0, p_d=1.0)
    ReplicatorRhs(game=GameMatrix(3, 0, 5, 1))


@given(p_c=finite, p_d=finite, x=st.sampled_from([0.0, 1.0]))
def test_replicator_boundaries_are_fixed_points(p_c, p_d, x):
    assert ReplicatorRhs(p_c, p_d)(x) == 0.0


def test_cusp_rhs_values():
    assert dynamics._cusp(0.0, 1.0)(0.0) == 0.0
    assert dynamics._cusp(0.0, 1.0)(1.0) == 0.0
    assert dynamics._cusp(0.5, 1.0)(2.0) == pytest.approx(0.5 + 2 - 8)


def test_fold_location_closed_form():
    # the derived constant used throughout: 2 / (3 sqrt(3))
    assert fold_lambda(1.0) == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-12)
    assert fold_lambda(1.0) == pytest.approx(0.3849, abs=1e-4)


def test_closed_form_logistic_basics():
    assert closed_form_logistic(0.5, 0.0, 123.0) == pytest.approx(0.5)
    assert closed_form_logistic(0.0, 2.0, 5.0) == 0.0
    prev = 0.1
    for t in (1.0, 5.0, 20.0, 100.0, 1000.0):
        cur = closed_form_logistic(0.1, 1.0, t)
        assert cur >= prev  # saturates to 1.0 exactly once exp(-ct) underflows
        prev = cur
    assert closed_form_logistic(0.1, 1.0, 1e6) == pytest.approx(1.0)
    assert closed_form_logistic(0.1, -1.0, 1e6) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def test_integrate_matches_logistic():
    assert max_error_vs_logistic(1e-3) < 1e-6


def test_integrate_order_four():
    # measured where truncation dominates rounding (errors ~1e-8, floor ~1e-15)
    assert max_error_vs_logistic(0.05) / max_error_vs_logistic(0.025) >= 12.0


def test_integrate_constant_when_payoffs_equal():
    spec = OdeSpec(ReplicatorRhs(3, 3), x0=0.3, dt=0.01, t_end=2.0)
    traj = integrate(spec)
    assert np.all(traj.states == 0.3)


def test_integrate_absorbing_at_one():
    spec = OdeSpec(ReplicatorRhs(5, 1), x0=1.0, dt=0.01, t_end=2.0)
    traj = integrate(spec)
    assert np.all(traj.states == 1.0)


def test_integrate_trajectory_shape():
    spec = OdeSpec(ReplicatorRhs(2, 1), x0=0.2, dt=1e-3, t_end=1.0)
    traj = integrate(spec)
    assert traj.states[0] == 0.2
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] >= 1.0 - 1e-3
    assert len(traj.times) == len(traj.states)


def test_integrate_states_stay_in_unit_interval():
    spec = OdeSpec(ReplicatorRhs(9, 1), x0=0.99, dt=0.01, t_end=5.0)
    traj = integrate(spec)
    assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))


def test_integrate_monotone_between_fixed_points():
    spec = OdeSpec(ReplicatorRhs(2, 1), x0=0.1, dt=1e-2, t_end=8.0)
    diffs = np.diff(integrate(spec).states)
    assert np.all(diffs >= 0)
    spec_down = OdeSpec(ReplicatorRhs(1, 2), x0=0.9, dt=1e-2, t_end=8.0)
    assert np.all(np.diff(integrate(spec_down).states) <= 0)


def test_integrate_divergence_names_step():
    blowup = lambda x: x * x  # noqa: E731 - finite-time blowup from x0=1
    with pytest.raises(NumericalDivergenceError, match="step"):
        integrate(OdeSpec(blowup, x0=5.0, dt=1.0, t_end=50.0))


def test_ode_spec_validation():
    rhs = ReplicatorRhs(1, 0)
    with pytest.raises(ValueError):
        integrate(OdeSpec(rhs, x0=0.5, dt=0.0, t_end=1.0))
    with pytest.raises(ValueError):
        integrate(OdeSpec(rhs, x0=0.5, dt=0.1, t_end=-1.0))
    with pytest.raises(ValueError):
        integrate(OdeSpec(rhs, x0=1.5, dt=0.1, t_end=1.0))


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------

def test_find_fixed_points_replicator():
    rhs = ReplicatorRhs(2, 1)
    report = find_fixed_points(rhs, 0.0, 1.0)
    locations = [r.location for r in report.roots]
    labels = [r.stability for r in report.roots]
    assert locations == pytest.approx([0.0, 1.0], abs=1e-9)
    assert labels == ["unstable", "stable"]


def test_find_fixed_points_cusp_bistable():
    report = find_fixed_points(dynamics._cusp(0.0, 1.0), -2.0, 2.0)
    assert [r.stability for r in report.roots] == ["stable", "unstable", "stable"]
    assert [r.location for r in report.roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)


def test_find_fixed_points_cusp_monostable():
    report = find_fixed_points(dynamics._cusp(0.0, -1.0), -2.0, 2.0)
    assert len(report.roots) == 1
    assert report.roots[0].location == pytest.approx(0.0, abs=1e-9)
    assert report.roots[0].stability == "stable"


def test_find_fixed_points_marginal_deadband():
    report = find_fixed_points(lambda s: -(s ** 3), -1.0, 1.0)
    assert len(report.roots) == 1
    assert report.roots[0].stability == "marginal"


def test_find_fixed_points_empty():
    report = find_fixed_points(lambda s: s + 10.0, 0.0, 1.0)
    assert report.roots == ()


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(min_value=-2, max_value=2, allow_nan=False),
    lam=st.floats(min_value=-1, max_value=1, allow_nan=False),
)
def test_root_certificate(theta, lam):
    rhs = dynamics._cusp(lam, theta)
    report = find_fixed_points(rhs, -3.0, 3.0)
    assert report.roots  # a cubic with negative leading term always crosses
    for root in report.roots:
        assert abs(rhs(root.location)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    theta=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    lam=st.floats(min_value=-0.8, max_value=0.8, allow_nan=False),
)
def test_cusp_mirror_symmetry(theta, lam):
    plus = find_fixed_points(dynamics._cusp(lam, theta), -3.0, 3.0)
    minus = find_fixed_points(dynamics._cusp(-lam, theta), -3.0, 3.0)
    mirrored = sorted(-r.location for r in minus.roots)
    assert len(plus.roots) == len(minus.roots)
    for a, b in zip((r.location for r in plus.roots), mirrored):
        assert a == pytest.approx(b, abs=1e-8)


# ---------------------------------------------------------------------------
# Sweeps and hysteresis
# ---------------------------------------------------------------------------

def test_sweep_two_stable_region_matches_fold():
    step = 5e-3
    sweep = sweep_bifurcation(1.0, -0.6, 0.6, step)
    two = [lam for lam, rep in sweep if rep.stable_count() == 2]
    fold = fold_lambda(1.0)
    assert min(two) == pytest.approx(-fold, abs=step)
    assert max(two) == pytest.approx(fold, abs=step)
    outside = [rep.stable_count() for lam, rep in sweep if abs(lam) > fold + step]
    assert set(outside) == {1}


def test_sweep_monostable_theta():
    sweep = sweep_bifurcation(-1.0, -0.5, 0.5, 0.05)
    assert all(rep.stable_count() == 1 for _, rep in sweep)


def test_sweep_degenerate_theta_zero():
    sweep = sweep_bifurcation(0.0, -0.1, 0.1, 0.1)
    lams = [lam for lam, _ in sweep]
    assert 0.0 in lams
    mid = dict(sweep)[0.0]
    assert len(mid.roots) == 1
    assert mid.roots[0].location == pytest.approx(0.0, abs=1e-9)


def test_hysteresis_bistable_loop():
    rep = hysteresis_loop(1.0, -0.6, 0.6, 5e-3)
    fold = fold_lambda(1.0)
    assert len(rep.jumps_up) == 1
    assert len(rep.jumps_down) == 1
    assert rep.jumps_up[0] == pytest.approx(fold, abs=0.01)
    assert rep.jumps_down[0] == pytest.approx(-fold, abs=0.01)
    assert rep.loop_area > 0.0
    up_lams = [lam for lam, _ in rep.up_branch]
    assert up_lams == sorted(up_lams)
    down_lams = [lam for lam, _ in rep.down_branch]
    assert down_lams == sorted(down_lams, reverse=True)


def test_hysteresis_monostable_no_loop():
    rep = hysteresis_loop(-1.0, -0.6, 0.6, 0.01)
    assert rep.jumps_up == ()
    assert rep.jumps_down == ()
    assert rep.loop_area < 1e-6


def test_hysteresis_degenerate_sweep():
    rep = hysteresis_loop(1.0, 0.2, 0.2, 0.01)
    assert rep.up_branch == ()
    assert rep.down_branch == ()
    assert rep.loop_area == 0.0


@pytest.mark.parametrize("theta, relax_t, expected", [
    # one grid point past the fold: 0.385 against 0.3849, 0.137 against 0.1361
    (1.0, dynamics.DEFAULT_RELAX_T, 0),
    (0.5, dynamics.DEFAULT_RELAX_T, 0),
    # too short a relaxation: each branch jumps at 0.391 and 0.392
    (1.0, 0.05, 4),
    (-1.0, dynamics.DEFAULT_RELAX_T, 0),
])
def test_misplaced_jumps_of_a_sweep(theta, relax_t, expected):
    rep = hysteresis_loop(theta, -0.6, 0.6, 1e-3, relax_t=relax_t)
    assert misplaced_jumps(rep, theta, 1e-3, dynamics.DEFAULT_JUMP_TOL) == expected


def test_misplaced_jumps_counts_a_missing_jump():
    rep = hysteresis_loop(1.0, -0.6, 0.6, 0.01)
    fold = fold_lambda(1.0)
    assert misplaced_jumps(rep, 1.0, 0.01, 0.5) == 0
    # a branch that passes its fold without a jump, or jumps away from it
    assert misplaced_jumps(replace(rep, jumps_up=()), 1.0, 0.01, 0.5) == 1
    assert misplaced_jumps(replace(rep, jumps_up=(), jumps_down=()), 1.0, 0.01, 0.5) == 2
    assert misplaced_jumps(replace(rep, jumps_down=(-fold - 0.011,)), 1.0, 0.01, 0.5) == 1
    # a fold jump of 3 (1/3)**0.5 = 1.73 that jump_tol cannot see is not expected
    assert misplaced_jumps(replace(rep, jumps_up=(), jumps_down=()), 1.0, 0.01, 1.8) == 0
    # the down sweep meets its fold only after the up sweep passed its own
    short = hysteresis_loop(1.0, -0.6, 0.3, 0.01)
    assert short.jumps_up == short.jumps_down == ()
    assert misplaced_jumps(short, 1.0, 0.01, 0.5) == 0


@pytest.mark.parametrize("bad", [
    {"relax_dt": 0.0}, {"relax_dt": -0.01}, {"relax_t": 0.0}, {"relax_t": math.nan},
    {"jump_tol": 0.0}, {"jump_tol": -0.5}, {"step": 0.0}, {"step": math.inf},
    {"lambda_lo": 0.7}, {"lambda_hi": math.inf}, {"theta": math.nan},
    {"relax_dt": 1e-300}, {"relax_t": 1e300},
])
def test_hysteresis_rules_raise_before_relaxing(bad, monkeypatch):
    # a zero relax_dt never advances the relaxation clock, so the rule must
    # fire before the first relaxation; the stub keeps this test bounded
    def no_relax(*args):
        raise AssertionError("relaxation started")

    monkeypatch.setattr(dynamics, "_relax", no_relax)
    args = {"theta": 1.0, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": 0.1, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        hysteresis_loop(**args)


@pytest.mark.parametrize("bad", [
    {"step": 0.0}, {"step": -1.0}, {"lambda_hi": -0.6}, {"lambda_lo": -math.inf}, {"grid_n": 1},
    {"theta": math.inf}, {"grid_n": 2 ** 20 + 1}, {"grid_n": 10 ** 20}, {"grid_n": 10 ** 400},
])
def test_bifurcation_rules_raise_before_scanning(bad, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(dynamics, "find_fixed_points", no_scan)
    args = {"theta": 1.0, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": 0.1, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        sweep_bifurcation(**args)


@pytest.mark.parametrize("lo, hi, step, count", [
    (-0.6, 0.6, 5e-324, "inf"),
    (-0.6, 0.6, 1e-300, "1.2e+300"),
    (0.0, 1e6, 1.0, "1000001"),  # one point past the limit
])
@pytest.mark.parametrize("check, rest", [
    (dynamics.check_bifurcation, {"grid_n": 64}),
    (dynamics.check_hysteresis, {"relax_t": 5.0, "relax_dt": 0.01, "jump_tol": 0.5}),
])
def test_sweep_size_is_checked_before_the_grid_is_built(check, rest, lo, hi, step, count,
                                                        monkeypatch):
    # the point count is a float until it passes, so an overflowing one is
    # rejected as a size, never an OverflowError from the grid
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr(dynamics, "_param_grid", no_grid)
    args = {"theta": 1.0, "lambda_lo": lo, "lambda_hi": hi, "step": step, **rest}
    with pytest.raises(ValueError, match=re.escape(
            f"step={step!r} asks for {count} sweep points, above the limit of 1,000,000")):
        check(**args)
    check(**{**args, "lambda_lo": 0.0, "lambda_hi": 999_999.0, "step": 1.0})  # at the limit


@pytest.mark.parametrize("lo, hi, step", [
    (-0.6, 0.6, 1e-3), (-0.2, 0.2, 0.1), (0.2, 0.2, 0.01), (0.0, 1.0, 0.3), (0.0, 999_999.0, 1.0),
])
def test_sweep_size_counts_the_points_of_the_grid(lo, hi, step):
    assert dynamics._grid_size(lo, hi, step) == len(dynamics._param_grid(lo, hi, step))


@pytest.mark.parametrize("t_end, dt, count", [
    (1e300, 1e-3, "1e+303"),
    (1.0, 5e-324, "inf"),
    (10_000.5, 1e-3, "10000500"),
])
def test_ode_step_count_is_checked_when_the_spec_is_built(t_end, dt, count):
    rhs = ReplicatorRhs(2, 1)
    with pytest.raises(ValueError, match=re.escape(
            f"t_end={t_end!r} at dt={dt!r} asks for {count} RK4 steps, above the limit of 10,000,000")):
        OdeSpec(rhs, x0=0.1, dt=dt, t_end=t_end)
    OdeSpec(rhs, x0=0.1, dt=1.0, t_end=float(dynamics.MAX_RK4_STEPS))  # at the limit


def test_tabulated_rhs_hook():
    table = lambda x: np.interp(x, (-2.0, 0.0, 2.0), (2.0, 0.0, -2.0))  # noqa: E731 - f(s) = -s
    report = find_fixed_points(table, -1.5, 1.5)
    assert len(report.roots) == 1
    assert report.roots[0].stability == "stable"
    traj = integrate(OdeSpec(table, x0=1.0, dt=0.01, t_end=5.0))
    assert abs(traj.states[-1]) < 0.01


# ---------------------------------------------------------------------------
# Kernel oracles: the fast kernels against the scalar code they replaced
# ---------------------------------------------------------------------------

def reference_relax(lam, theta, s, relax_t, dt):
    """The relaxation kernel before inlining: ``_rk4_step`` on ``_cusp`` with
    a separate settle test."""
    f = dynamics._cusp(lam, theta)
    budget = relax_t * dynamics.RELAX_CAP_FACTOR
    t = 0.0
    while True:
        if abs(f(s)) < dynamics.SETTLE_TOL:
            return s, True
        if t >= budget:
            return s, False
        s = dynamics._rk4_step(f, s, dt)
        t += dt
        if not math.isfinite(s):
            raise NumericalDivergenceError(f"relaxation diverged at t={t:.3f}")


def relax_outcome(relax, *args):
    """Bits of the state and the settled flag, or the error type and message."""
    try:
        s, settled = relax(*args)
    except (NumericalDivergenceError, OverflowError) as exc:
        return type(exc), str(exc)
    return struct.pack("<d", s), settled


def assert_relax_matches(lam, theta, s0, relax_t, dt):
    # where the reference leaks a bare OverflowError, _relax must name the
    # overflow as a divergence instead
    args = (lam, theta, s0, relax_t, dt)
    expected = relax_outcome(reference_relax, *args)
    got = relax_outcome(dynamics._relax, *args)
    if expected[0] is OverflowError:
        assert got[0] is NumericalDivergenceError
        assert f"lambda={lam!r}" in got[1] and "reduce relax_dt" in got[1]
    else:
        assert got == expected
    return expected


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-1, 1), theta=st.floats(-2, 2), s0=st.floats(-2, 2),
       relax_t=st.floats(1.0, 5.0), dt=st.floats(0.01, 0.05))
def test_relax_settles_like_the_reference(lam, theta, s0, relax_t, dt):
    _, settled = assert_relax_matches(lam, theta, s0, relax_t, dt)
    assume(settled)  # near a fold or at theta = lam = 0 the budget may run out


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-1, 1), theta=st.floats(-2, 2), s0=st.floats(-2, 2),
       relax_t=st.floats(1e-4, 1e-2), dt=st.floats(1e-3, 0.05))
def test_relax_runs_out_of_budget_like_the_reference(lam, theta, s0, relax_t, dt):
    _, settled = assert_relax_matches(lam, theta, s0, relax_t, dt)
    assume(not settled)  # a start on an equilibrium settles at once


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-1, 1),
       theta=st.floats(1e300, 1e308) | st.floats(-1e308, -1e300),
       s0=st.floats(1e9, 1e100) | st.floats(-1e100, -1e9)
       | st.sampled_from([math.inf, -math.inf, math.nan]),
       dt=st.floats(0.1, 2.0))
def test_relax_diverges_like_the_reference(lam, theta, s0, dt):
    # theta * s0 overflows to inf, or s0 is not finite: the first step turns
    # the state non-finite without any cube overflowing
    outcome = assert_relax_matches(lam, theta, s0, 1.0, dt)
    assert outcome == (NumericalDivergenceError, f"relaxation diverged at t={dt:.3f}")


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-1, 1), theta=st.floats(-2, 2),
       s0=st.floats(1e3, 1e100) | st.floats(-1e100, -1e3), dt=st.floats(0.1, 2.0))
def test_relax_overflows_like_the_reference(lam, theta, s0, dt):
    # a large |s0| with a coarse step overshoots further each stage until a
    # Python float cube overflows and raises OverflowError (or a stage sum
    # overflows to inf first); _relax raises NumericalDivergenceError for both
    outcome = assert_relax_matches(lam, theta, s0, 1.0, dt)
    assert outcome[0] in (OverflowError, NumericalDivergenceError)


@settings(max_examples=80, deadline=None)
@given(lam=st.floats(-1, 1).filter(lambda v: v != 0.0), theta=st.floats(-2, 2) | st.just(0.0),
       s0=st.floats(-2, 2), relax_t=st.floats(1e-3, 5.0), dt=st.floats(0.01, 0.5))
@example(lam=1e-12, theta=0.0, s0=0.0, relax_t=1.0, dt=0.01)  # settles at once on s = 0
@example(lam=0.3, theta=1.0, s0=-1.2, relax_t=0.01, dt=0.01)  # budget runs out mid-transit
def test_relax_is_odd_in_lambda_and_state(lam, theta, s0, relax_t, dt):
    # the rate is odd in (lam, s) and rounding to nearest is odd too, so the
    # mirrored relaxation gives the negated bits and the same settled flag;
    # a returned zero is excluded, the one result whose sign may not mirror
    outcome = relax_outcome(dynamics._relax, lam, theta, s0, relax_t, dt)
    mirrored = relax_outcome(dynamics._relax, -lam, theta, -s0, relax_t, dt)
    if isinstance(outcome[0], type):
        assert mirrored[0] is outcome[0]
        return
    assume(struct.unpack("<d", outcome[0])[0] != 0.0)
    assert mirrored == (struct.pack("<d", -struct.unpack("<d", outcome[0])[0]), outcome[1])


def reference_hysteresis_loop(theta, lambda_lo, lambda_hi, step, relax_t=dynamics.DEFAULT_RELAX_T,
                              relax_dt=dynamics.DEFAULT_RELAX_DT, jump_tol=dynamics.DEFAULT_JUMP_TOL):
    """``hysteresis_loop`` before the down sweep reused mirrored relaxations:
    every point of both sweeps relaxes."""
    dynamics.check_hysteresis(theta, lambda_lo, lambda_hi, step, relax_t, relax_dt, jump_tol)
    if lambda_lo == lambda_hi:
        return dynamics.HysteresisReport((), (), (), (), 0.0)
    lams = dynamics._param_grid(lambda_lo, lambda_hi, step)
    bound = dynamics._cusp_bracket(theta, lambda_lo, lambda_hi)
    stuck = []
    start = find_fixed_points(dynamics._cusp(lams[0], theta), -bound, bound)
    stable = [r.location for r in start.roots if r.stability == dynamics.STABLE]
    s = min(stable) if stable else -bound

    def sweep(values, s0):
        branch = []
        s = s0
        for lam in values:
            s, settled = dynamics._relax(lam, theta, s, relax_t, relax_dt)
            if not settled and abs(dynamics._cusp(lam, theta)(s)) > dynamics.EQUILIBRATION_TOL:
                stuck.append(lam)
            branch.append((lam, s))
        return branch, s

    up_branch, s = sweep(lams, s)
    down_branch, _ = sweep(list(reversed(lams)), s)
    down_aligned = list(reversed(down_branch))
    gaps = [abs(u[1] - d[1]) for u, d in zip(up_branch, down_aligned)]
    area = 0.0
    for i in range(len(gaps) - 1):
        area += 0.5 * (gaps[i] + gaps[i + 1]) * (up_branch[i + 1][0] - up_branch[i][0])
    return dynamics.HysteresisReport(
        tuple(up_branch), tuple(down_branch), dynamics.find_jumps(up_branch, jump_tol),
        dynamics.find_jumps(down_branch, jump_tol), area, tuple(stuck))


def loop_outcome(loop, *args):
    """The report's ``repr``, which spells every float exactly, or the error."""
    try:
        return repr(loop(*args))
    except NumericalDivergenceError as exc:
        return NumericalDivergenceError, str(exc)


def assert_loop_matches(*args):
    expected = loop_outcome(reference_hysteresis_loop, *args)
    assert loop_outcome(hysteresis_loop, *args) == expected
    return expected


@st.composite
def sweep_ranges(draw):
    """(lambda_lo, lambda_hi, step) of at most about 80 points: symmetric
    ranges, whose down sweep can mirror the up sweep, and asymmetric ones.
    Decimal steps put 0.0 on some symmetric grids."""
    hi = draw(st.sampled_from([0.1, 0.2, 0.5, 1.0]) | st.floats(0.01, 1.5))
    lo = draw(st.just(-hi) | st.floats(-1.5, hi))
    width = hi - lo
    if width == 0.0:
        return lo, hi, 0.01
    step = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25]).filter(lambda v: width / v <= 80)
                | st.integers(1, 80).map(lambda m: width / m))
    return lo, hi, step


@settings(max_examples=50, deadline=None)
@given(theta=st.sampled_from([0.0, 0.5, 1.0, -1.0]) | st.floats(-2, 2), sweep=sweep_ranges(),
       relax_t=st.sampled_from([dynamics.DEFAULT_RELAX_T, 1.0]) | st.floats(1e-3, 0.5),
       relax_dt=st.sampled_from([dynamics.DEFAULT_RELAX_DT]) | st.floats(0.01, 0.2))
@example(theta=0.0, sweep=(-1.0, 1.0, 0.01), relax_t=50.0, relax_dt=0.01)  # 0.0 is on the grid
@example(theta=1.0, sweep=(-0.5, 0.7, 0.01), relax_t=50.0, relax_dt=0.01)  # asymmetric
@example(theta=1.0, sweep=(-0.5, 0.5, 0.25), relax_t=50.0, relax_dt=2.5)  # diverges
def test_hysteresis_loop_matches_relaxing_every_point(theta, sweep, relax_t, relax_dt):
    assert_loop_matches(theta, *sweep, relax_t, relax_dt)


def relax_spy(monkeypatch):
    """Patch ``_relax`` to record the lambda of each call; return the record."""
    calls = []
    relax = dynamics._relax

    def spy(*args):
        calls.append(args[0])
        return relax(*args)

    monkeypatch.setattr(dynamics, "_relax", spy)
    return calls


def test_mirrored_points_keep_their_up_twins_equilibration_verdict(monkeypatch):
    # a budget too short for the fold transits leaves points stuck on both
    # sweeps; the 94 mirrored ones are listed as relaxing them would list them
    expected = reference_hysteresis_loop(0.5, -1.0, 1.0, 0.01, relax_t=0.01)
    calls = relax_spy(monkeypatch)
    report = hysteresis_loop(0.5, -1.0, 1.0, 0.01, relax_t=0.01)
    assert repr(report) == repr(expected)
    # the up sweep relaxes every point once, in order
    mirrored = {lam for lam, _ in report.up_branch} - set(calls[len(report.up_branch):])
    assert len(mirrored) == 94 and mirrored <= set(report.non_equilibrated)


def test_a_zero_state_is_relaxed_not_mirrored(monkeypatch):
    # an odd stand-in for _relax whose state is 0.0 for |lam| < 0.3: mirroring
    # it would give -0.0 where relaxing gives 0.0, so the zero guard must fire
    def odd_relax(lam, theta, s, relax_t, dt):
        return (lam if abs(lam) > 0.3 else 0.0), True

    monkeypatch.setattr(dynamics, "_relax", odd_relax)
    report = hysteresis_loop(1.0, -0.5, 0.5, 0.25)
    assert repr(report) == repr(reference_hysteresis_loop(1.0, -0.5, 0.5, 0.25))
    assert [struct.pack("<d", s) for _, s in report.down_branch] == \
        [struct.pack("<d", s) for s in (0.5, 0.0, 0.0, 0.0, -0.5)]


@pytest.mark.parametrize("theta, lambda_lo, lambda_hi, step, points, reused", [
    # the cusp_sweeps benchmark grids
    (1.0, -0.6, 0.6, 1e-3, 2402, 293),
    (0.5, -0.6, 0.6, 1e-3, 2402, 283),
    # the golden grid, with 0.0 on it
    (0.5, -1.0, 1.0, 0.01, 402, 108),
    # an asymmetric range mirrors nothing
    (1.0, -0.5, 0.7, 1e-3, 2402, 0),
])
def test_relaxations_the_down_sweep_reuses(theta, lambda_lo, lambda_hi, step, points, reused,
                                           monkeypatch):
    # a count of relaxations skipped, not a speed
    calls = relax_spy(monkeypatch)
    report = hysteresis_loop(theta, lambda_lo, lambda_hi, step)
    assert len(report.up_branch) + len(report.down_branch) == points
    assert len(calls) == points - reused


def reference_fixed_points(rhs, lo, hi, grid_n):
    """``find_fixed_points`` before vectorizing: the grid scanned one index at a time."""
    xs = np.linspace(lo, hi, grid_n + 1)
    vals = dynamics._eval_grid(rhs, xs)
    locations = []
    for i in range(grid_n + 1):
        if vals[i] == 0.0:
            locations.append(float(xs[i]))
    for i in range(grid_n):
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0 or fb == 0.0:
            continue
        if (fa < 0.0) != (fb < 0.0):
            locations.append(dynamics._bisect(rhs, float(xs[i]), float(xs[i + 1]), fa, fb,
                                              dynamics.ROOT_TOL))
    locations.sort()
    merged = []
    min_sep = (hi - lo) * 1e-12
    for x in locations:
        if merged and abs(x - merged[-1]) <= min_sep:
            continue
        merged.append(x)
    roots = []
    h = dynamics.STABILITY_FD_STEP
    for r in merged:
        left, right = max(lo, r - h), min(hi, r + h)
        d = (float(rhs(right)) - float(rhs(left))) / (right - left)
        if abs(d) < dynamics.MARGINAL_BAND:
            label = dynamics.MARGINAL
        elif d < 0.0:
            label = dynamics.STABLE
        else:
            label = dynamics.UNSTABLE
        roots.append((struct.pack("<d", r), label))
    return roots


def assert_scan_matches(rhs, lo, hi, grid_n):
    report = find_fixed_points(rhs, lo, hi, grid_n)
    assert [(struct.pack("<d", r.location), r.stability) for r in report.roots] == \
        reference_fixed_points(rhs, lo, hi, grid_n)


# grid values drawn from few levels, so exact zeros (of both signs), runs of
# zeros and NaN are common
grid_levels = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -3.0, math.nan]) | st.floats(-5, 5)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(grid_levels, min_size=3, max_size=40),
       lo=st.floats(-3, 0), width=st.floats(0.5, 4))
@example(values=[0.0, 1.0, -1.0, 0.0], lo=-1.0, width=2.0)  # roots on both bracket edges
@example(values=[1.0, 0.0, 0.0, -1.0, math.nan, 1.0, -1.0], lo=0.0, width=1.0)
def test_scan_of_a_table_matches_the_scalar_scan(values, lo, width):
    # the table's knots are the scan grid, so each grid value is a drawn level
    grid_n = len(values) - 1
    hi = lo + width
    knots = tuple(np.linspace(lo, hi, grid_n + 1).tolist())
    assert_scan_matches(lambda x: np.interp(x, knots, values), lo, hi, grid_n)


@settings(max_examples=60, deadline=None)
@given(grid_n=st.integers(2, 40), root_at=st.lists(st.integers(0, 40), min_size=1, max_size=3),
       nan_above=st.none() | st.floats(-1, 1))
@example(grid_n=4, root_at=[0, 1, 4], nan_above=None)  # adjacent zeros, both bracket edges
def test_scan_of_a_callable_matches_the_scalar_scan(grid_n, root_at, nan_above):
    # a cubic whose roots sit on grid points, NaN above ``nan_above``; with
    # NaN the callable does not broadcast and the grid is evaluated point by point
    xs = np.linspace(-1.0, 1.0, grid_n + 1).tolist()
    roots = [xs[min(i, grid_n)] for i in root_at]

    def rhs(x):
        if nan_above is not None and x > nan_above:
            return math.nan
        value = -1.0
        for r in roots:
            value *= x - r
        return value

    assert_scan_matches(rhs, -1.0, 1.0, grid_n)


def sweep_bytes(sweep):
    """Each lambda, root location and label of a sweep, floats as their bytes."""
    return [(struct.pack("<d", lam), [(struct.pack("<d", r.location), r.stability) for r in report.roots])
            for lam, report in sweep]


def assert_sweep_matches(theta, lambda_lo, lambda_hi, step, grid_n):
    # the oracle: one full find_fixed_points per lambda, its grid evaluated by _cusp
    bound = dynamics._cusp_bracket(theta, lambda_lo, lambda_hi)
    expected = [(lam, find_fixed_points(dynamics._cusp(lam, theta), -bound, bound, grid_n))
                for lam in dynamics._param_grid(lambda_lo, lambda_hi, step)]
    assert sweep_bytes(sweep_bifurcation(theta, lambda_lo, lambda_hi, step, grid_n)) == sweep_bytes(expected)


@pytest.mark.parametrize("theta, lambda_lo, lambda_hi, step, grid_n", [
    # the cusp_sweeps benchmark grids
    (1.0, -0.6, 0.6, 1e-3, dynamics.DEFAULT_GRID_N),
    (0.5, -0.6, 0.6, 1e-3, dynamics.DEFAULT_GRID_N),
    # theta = 0: at lambda = 0 the triple root s = 0 is an exact grid zero, labelled marginal
    (0.0, -1.0, 1.0, 0.01, dynamics.DEFAULT_GRID_N),
    (-1.0, -0.5, 0.5, 0.05, 512),
    (2.0, -1.5, 1.5, 0.05, 64),
    (0.3, -0.2, 0.9, 0.003, 301),  # asymmetric range, odd grid
    (1.5, -3.0, 0.1, 0.01, 2),
    (-0.4, -1.0, 1.0, 0.013, 2048),
])
def test_sweep_bifurcation_is_find_fixed_points_per_lambda(theta, lambda_lo, lambda_hi, step, grid_n):
    assert_sweep_matches(theta, lambda_lo, lambda_hi, step, grid_n)


@settings(max_examples=40, deadline=None)
@given(theta=st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2, 2),
       sweep=sweep_ranges().filter(lambda sweep: sweep[0] < sweep[1]),
       grid_n=st.sampled_from([2, 64, dynamics.DEFAULT_GRID_N]) | st.integers(2, 2048))
@example(theta=0.0, sweep=(-1.0, 1.0, 0.05), grid_n=dynamics.DEFAULT_GRID_N)  # the marginal zero
def test_sweep_bifurcation_matches_find_fixed_points_per_lambda(theta, sweep, grid_n):
    assert_sweep_matches(theta, *sweep, grid_n)


def test_sweep_bifurcation_holds_one_grid_row_at_a_time():
    # a (points x grid) array of the benchmark sweep would be about 10 MB per temporary
    tracemalloc.start()
    try:
        sweep_bifurcation(1.0, -0.6, 0.6, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
