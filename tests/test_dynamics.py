import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attractorlab import dynamics
from attractorlab.abm import GameMatrix
from attractorlab.dynamics import (
    ControlParams,
    CuspRhs,
    NumericalDivergenceError,
    OdeSpec,
    PayoffSpec,
    ReplicatorRhs,
    TabulatedRhs,
    closed_form_logistic,
    cusp_rhs,
    find_fixed_points,
    hysteresis_loop,
    integrate,
    replicator_rhs,
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
    payoffs = PayoffSpec.constant(1.0 + c, 1.0)
    traj = integrate(OdeSpec(ReplicatorRhs(payoffs), x0=x0, dt=dt, t_end=t_end))
    return max(
        abs(s - closed_form_logistic(x0, c, t)) for t, s in zip(traj.times, traj.states)
    )


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def test_replicator_rhs_direct_substitution():
    assert replicator_rhs(0.5, PayoffSpec.constant(2, 1)) == pytest.approx(0.25)


def test_replicator_rhs_boundary_and_symmetry():
    assert replicator_rhs(0.0, PayoffSpec.constant(3, -4)) == 0.0
    assert replicator_rhs(1.0, PayoffSpec.constant(3, -4)) == 0.0
    assert replicator_rhs(0.5, PayoffSpec.constant(3, 3)) == 0.0


def test_replicator_rhs_matrix_mode():
    game = GameMatrix(r=3, sg=0, t=5, pu=1)
    x = 0.25
    p_c = 3 * x
    p_d = 5 * x + 1 * (1 - x)
    expected = x * (1 - x) * (p_c - p_d)
    assert replicator_rhs(x, PayoffSpec.from_game(game)) == pytest.approx(expected)


def test_replicator_rhs_domain_error():
    payoffs = PayoffSpec.constant(1, 0)
    with pytest.raises(ValueError):
        replicator_rhs(1.1, payoffs)
    with pytest.raises(ValueError):
        replicator_rhs(-0.01, payoffs)
    # within the 1e-12 slack the state is clamped, not rejected
    assert replicator_rhs(1.0 + 5e-13, payoffs) == 0.0


@given(p_c=finite, p_d=finite, x=st.sampled_from([0.0, 1.0]))
def test_replicator_boundaries_are_fixed_points(p_c, p_d, x):
    assert replicator_rhs(x, PayoffSpec.constant(p_c, p_d)) == 0.0


def test_cusp_rhs_values():
    assert cusp_rhs(0.0, ControlParams(lam=0.0, theta=1.0)) == 0.0
    assert cusp_rhs(1.0, ControlParams(lam=0.0, theta=1.0)) == 0.0
    assert cusp_rhs(2.0, ControlParams(lam=0.5, theta=1.0)) == pytest.approx(0.5 + 2 - 8)


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
    spec = OdeSpec(ReplicatorRhs(PayoffSpec.constant(3, 3)), x0=0.3, dt=0.01, t_end=2.0)
    traj = integrate(spec)
    assert np.all(traj.states == 0.3)


def test_integrate_absorbing_at_one():
    spec = OdeSpec(ReplicatorRhs(PayoffSpec.constant(5, 1)), x0=1.0, dt=0.01, t_end=2.0)
    traj = integrate(spec)
    assert np.all(traj.states == 1.0)


def test_integrate_trajectory_shape():
    spec = OdeSpec(ReplicatorRhs(PayoffSpec.constant(2, 1)), x0=0.2, dt=1e-3, t_end=1.0)
    traj = integrate(spec)
    assert traj.states[0] == 0.2
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] >= 1.0 - 1e-3
    assert len(traj.times) == len(traj.states)


def test_integrate_states_stay_in_unit_interval():
    spec = OdeSpec(ReplicatorRhs(PayoffSpec.constant(9, 1)), x0=0.99, dt=0.01, t_end=5.0)
    traj = integrate(spec)
    assert np.all((traj.states >= 0.0) & (traj.states <= 1.0))


def test_integrate_monotone_between_fixed_points():
    spec = OdeSpec(ReplicatorRhs(PayoffSpec.constant(2, 1)), x0=0.1, dt=1e-2, t_end=8.0)
    diffs = np.diff(integrate(spec).states)
    assert np.all(diffs >= 0)
    spec_down = OdeSpec(ReplicatorRhs(PayoffSpec.constant(1, 2)), x0=0.9, dt=1e-2, t_end=8.0)
    assert np.all(np.diff(integrate(spec_down).states) <= 0)


def test_integrate_divergence_names_step():
    blowup = lambda x: x * x  # noqa: E731 - finite-time blowup from x0=1
    with pytest.raises(NumericalDivergenceError, match="step"):
        integrate(OdeSpec(blowup, x0=5.0, dt=1.0, t_end=50.0))


def test_ode_spec_validation():
    rhs = ReplicatorRhs(PayoffSpec.constant(1, 0))
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
    rhs = ReplicatorRhs(PayoffSpec.constant(2, 1))
    report = find_fixed_points(rhs, 0.0, 1.0)
    locations = [r.location for r in report.roots]
    labels = [r.stability for r in report.roots]
    assert locations == pytest.approx([0.0, 1.0], abs=1e-9)
    assert labels == ["unstable", "stable"]


def test_find_fixed_points_cusp_bistable():
    report = find_fixed_points(CuspRhs(ControlParams(0.0, 1.0)), -2.0, 2.0)
    assert [r.stability for r in report.roots] == ["stable", "unstable", "stable"]
    assert [r.location for r in report.roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)


def test_find_fixed_points_cusp_monostable():
    report = find_fixed_points(CuspRhs(ControlParams(0.0, -1.0)), -2.0, 2.0)
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
    rhs = CuspRhs(ControlParams(lam, theta))
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
    plus = find_fixed_points(CuspRhs(ControlParams(lam, theta)), -3.0, 3.0)
    minus = find_fixed_points(CuspRhs(ControlParams(-lam, theta)), -3.0, 3.0)
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


@pytest.mark.parametrize("bad", [
    {"relax_dt": 0.0}, {"relax_dt": -0.01}, {"relax_t": 0.0}, {"relax_t": math.nan},
    {"jump_tol": 0.0}, {"jump_tol": -0.5}, {"step": 0.0}, {"step": math.inf},
    {"lambda_lo": 0.7}, {"lambda_hi": math.inf}, {"theta": math.nan},
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
    {"theta": math.inf},
])
def test_bifurcation_rules_raise_before_scanning(bad, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(dynamics, "find_fixed_points", no_scan)
    args = {"theta": 1.0, "lambda_lo": -0.6, "lambda_hi": 0.6, "step": 0.1, **bad}
    with pytest.raises(ValueError, match=next(iter(bad))):
        sweep_bifurcation(**args)


def test_tabulated_rhs_hook():
    table = TabulatedRhs(s=(-2.0, 0.0, 2.0), rate=(2.0, 0.0, -2.0))  # f(s) = -s
    report = find_fixed_points(table, -1.5, 1.5)
    assert len(report.roots) == 1
    assert report.roots[0].stability == "stable"
    traj = integrate(OdeSpec(table, x0=1.0, dt=0.01, t_end=5.0))
    assert abs(traj.states[-1]) < 0.01
