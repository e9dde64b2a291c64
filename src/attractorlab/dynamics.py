"""One-dimensional deterministic dynamics of strategy-share growth and of a
bistable control-parameter family.

Two right-hand sides are built in, each in one form:

* :class:`ReplicatorRhs`: ``dx/dt = x (1 - x) (P_C - P_D)``, growth of the
  cooperative share under its payoff advantage.  Payoffs are either
  constants or the frequency-dependent means of a 2x2 game,
  ``P_C(x) = r x + sg (1 - x)`` and ``P_D(x) = t x + pu (1 - x)``; the
  class checks which when it is built.
* :func:`_cusp`: ``ds/dt = lam + theta s - s**3``, the minimal polynomial
  family with a fold pair, which every sweep uses.  For theta > 0 two
  stable branches coexist between the folds at ``lam = -/+ 2 (theta / 3)**1.5``,
  which is what drives the hysteresis loop; for theta <= 0 the equilibrium
  is unique for every lam.

Any other right-hand side is a plain callable of the state.

Integration is classic fixed-step fourth-order Runge-Kutta (fixed step
keeps runs bit-reproducible).  The hysteresis relaxation inlines the step on
the cusp rate in Python floats, which numpy's ``x**3`` would not match bit
for bit.  All operations are pure functions of their inputs.

The cusp rate is odd in ``(lam, s)`` and IEEE rounding to nearest is
symmetric under negation, so relaxing at ``-lam`` from ``-s`` gives the
negated state bit for bit (see :func:`_relax` for the zero exceptions).  On
a symmetric lambda grid the down sweep of :func:`hysteresis_loop` reuses the
up sweep's relaxations that way, with the bytes of relaxing every point.

The sweep parameter rules live here, in :func:`check_bifurcation` and
:func:`check_hysteresis`; each sweep and the scenario loader call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ROOT_TOL = 1e-10
STABILITY_FD_STEP = 1e-6
MARGINAL_BAND = 1e-8
DEFAULT_DT = 1e-3
DEFAULT_GRID_N = 1024
DEFAULT_RELAX_T = 50.0
DEFAULT_RELAX_DT = 1e-2
DEFAULT_JUMP_TOL = 0.5
RELAX_CAP_FACTOR = 100.0
SETTLE_TOL = 1e-9
EQUILIBRATION_TOL = 1e-6
# Work-size limits, checked when a sweep or an integration is set up, so an
# oversized config fails as a config error before anything is allocated.
# Each is far above every config in the tests, goldens, scripts and the
# benchmark (at most 1,201 sweep points and 10,000 RK4 steps) and far below
# what exhausts memory: the limit's lambda list holds 32 MB of Python floats,
# its states list about 320 MB.  MAX_RK4_STEPS also bounds the relaxation
# budget of one hysteresis sweep point, which is 500,000 steps at the defaults.
# MAX_GRID_N, 1024 times the default root-scan grid, holds that grid and its
# lambda-free terms in a few tens of MB.
MAX_SWEEP_POINTS = 1_000_000
MAX_RK4_STEPS = 10_000_000
MAX_GRID_N = 2 ** 20

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


class NumericalDivergenceError(RuntimeError):
    """Integration produced a non-finite state or overflowed."""


def _cusp(lam: float, theta: float):
    """Cusp rate at fixed (lam, theta), bound as default arguments (fast locals)."""

    def f(s, lam=lam, theta=theta):
        return lam + theta * s - s ** 3.0

    return f


def closed_form_logistic(x0: float, c: float, t: float) -> float:
    """Exact replicator solution for constant payoff gap c:
    ``x(t) = x0 exp(c t) / (1 - x0 + x0 exp(c t))``.

    Evaluated in an overflow-free form on both signs of ``c t``.
    """
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0 must lie in [0, 1], got {x0}")
    ct = c * t
    if ct >= 0.0:
        w = math.exp(-ct)  # <= 1
        denom = x0 + (1.0 - x0) * w
        return x0 / denom if denom > 0.0 else 1.0
    w = math.exp(ct)  # < 1
    return x0 * w / ((1.0 - x0) + x0 * w)


@dataclass(frozen=True)
class ReplicatorRhs:
    """Share growth rate ``x (1 - x) (P_C - P_D)`` under constant payoffs
    ``p_c``, ``p_d`` or the payoffs of ``game``, one of the two."""

    p_c: float | None = None
    p_d: float | None = None
    game: object = None  # anything with r, sg, t, pu (abm.GameMatrix)

    def __post_init__(self):
        constants = (self.p_c, self.p_d)
        if self.game is not None:
            if constants != (None, None):
                raise ValueError("give either p_c/p_d or game, not both")
        elif None in constants:
            raise ValueError("constant payoffs need both p_c and p_d")
        elif not (math.isfinite(self.p_c) and math.isfinite(self.p_d)):
            raise ValueError("constant payoffs must be finite")

    def __call__(self, x: float) -> float:
        """Rate at fraction x, which may stray outside [0, 1] by at most 1e-12
        (rounding slack); anything further is a domain error."""
        if x < -1e-12 or x > 1.0 + 1e-12:
            raise ValueError(f"replicator state must lie in [0, 1], got {x}")
        x = min(1.0, max(0.0, x))
        g = self.game
        if g is None:
            p_c, p_d = self.p_c, self.p_d
        else:
            p_c, p_d = g.r * x + g.sg * (1.0 - x), g.t * x + g.pu * (1.0 - x)
        return x * (1.0 - x) * (p_c - p_d)


@dataclass(frozen=True)
class OdeSpec:
    """A right-hand side plus initial state, step and horizon, checked when built."""

    rhs: Callable[[float], float]
    x0: float
    dt: float = DEFAULT_DT
    t_end: float = 0.0

    def validate(self) -> None:
        _check_positive(dt=self.dt)
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        # integrate's step count is the ceil of this float
        _check_work(f"t_end={self.t_end!r} at dt={self.dt!r}", self.t_end / self.dt - 1e-12,
                    MAX_RK4_STEPS, "RK4 steps")
        if not math.isfinite(self.x0):
            raise ValueError("x0 must be finite")
        if isinstance(self.rhs, ReplicatorRhs) and not 0.0 <= self.x0 <= 1.0:
            raise ValueError(f"replicator x0 must lie in [0, 1], got {self.x0}")

    __post_init__ = validate


@dataclass(frozen=True)
class Trajectory:
    """Times and states of one integration, first state equal to x0."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class FixedPoint:
    location: float
    stability: str


@dataclass(frozen=True)
class FixedPointReport:
    roots: tuple[FixedPoint, ...]

    def stable_count(self) -> int:
        return sum(1 for r in self.roots if r.stability == STABLE)


@dataclass(frozen=True)
class HysteresisReport:
    """Quasi-static up/down equilibrium branches and their jumps.

    ``non_equilibrated`` lists sweep lambdas whose settled state still had
    |rhs| > 1e-6 when the relaxation budget ran out.
    """

    up_branch: tuple[tuple[float, float], ...]
    down_branch: tuple[tuple[float, float], ...]
    jumps_up: tuple[float, ...]
    jumps_down: tuple[float, ...]
    loop_area: float
    non_equilibrated: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------

def _rk4_step(f, x: float, dt: float) -> float:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(spec: OdeSpec) -> Trajectory:
    """Fixed-step RK4 run of ``spec`` from t = 0 to at least t_end - dt.

    Replicator states are clamped to [0, 1] after each step; the clamp only
    absorbs rounding drift and must stay below 1e-9 per step.
    """
    f = spec.rhs
    clamp = isinstance(spec.rhs, ReplicatorRhs)
    dt = spec.dt
    n_steps = 0 if spec.t_end == 0.0 else math.ceil(spec.t_end / dt - 1e-12)

    states = [float(spec.x0)]
    x = float(spec.x0)
    for i in range(1, n_steps + 1):
        x = _rk4_step(f, x, dt)
        if clamp:
            clamped = min(1.0, max(0.0, x))
            if abs(clamped - x) >= 1e-9:
                raise NumericalDivergenceError(
                    f"replicator state left [0, 1] by {abs(clamped - x):.3e} at step {i}; "
                    "reduce dt"
                )
            x = clamped
        if not math.isfinite(x):
            raise NumericalDivergenceError(f"non-finite state at step {i}")
        states.append(x)
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times, np.array(states))


# ---------------------------------------------------------------------------
# Fixed points and sweeps
# ---------------------------------------------------------------------------

def _eval_grid(rhs, xs: np.ndarray) -> np.ndarray:
    # vectorized evaluation when the callable broadcasts, scalar fallback
    try:
        vals = np.asarray(rhs(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
        return vals
    except Exception:
        return np.array([float(rhs(float(x))) for x in xs])


def _bisect(rhs, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    best_x, best_f = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:  # bracket exhausted at float resolution
            break
        fm = float(rhs(mid))
        if abs(fm) < best_f:
            best_x, best_f = mid, abs(fm)
        if abs(fm) < tol:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return best_x


def find_fixed_points(
    rhs,
    lo: float,
    hi: float,
    grid_n: int = DEFAULT_GRID_N,
) -> FixedPointReport:
    """Grid-scan [lo, hi] for sign changes of ``rhs`` and refine by bisection.

    Tangency (double) roots leave no sign change and are missed by design;
    fold locations come from the closed-form condition, not this scanner.
    Stability is the sign of a centered finite difference (step 1e-6) with a
    1e-8 dead band labelled marginal.  The grid scan runs on arrays; the
    bisection and the difference call ``rhs`` on Python floats.  The checks
    and the grid values are made here, the roots by ``_roots``, which
    ``sweep_bifurcation`` calls directly with grid values it computed.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    xs = np.linspace(lo, hi, grid_n + 1)
    return _roots(rhs, xs, _eval_grid(rhs, xs), lo, hi)


def _roots(rhs, xs: np.ndarray, vals: np.ndarray, lo: float, hi: float) -> FixedPointReport:
    """Roots of ``rhs`` on [lo, hi], labelled, from its values ``vals`` on the scan grid ``xs``."""
    # exact zeros, then brackets with nonzero ends of opposite sign; NaN counts as > 0
    locations: list[float] = xs[vals == 0.0].tolist()
    neg, nonzero = vals < 0.0, vals != 0.0
    for i in np.flatnonzero((neg[:-1] != neg[1:]) & nonzero[:-1] & nonzero[1:]).tolist():
        locations.append(_bisect(rhs, float(xs[i]), float(xs[i + 1]), float(vals[i]), float(vals[i + 1]), ROOT_TOL))

    locations.sort()
    merged: list[float] = []
    min_sep = (hi - lo) * 1e-12
    for x in locations:
        if merged and abs(x - merged[-1]) <= min_sep:
            continue
        merged.append(x)

    roots = []
    h = STABILITY_FD_STEP
    for r in merged:
        # centered difference, one-sided when the root sits on the bracket edge
        left, right = max(lo, r - h), min(hi, r + h)
        d = (float(rhs(right)) - float(rhs(left))) / (right - left)
        if abs(d) < MARGINAL_BAND:
            label = MARGINAL
        elif d < 0.0:
            label = STABLE
        else:
            label = UNSTABLE
        roots.append(FixedPoint(r, label))
    return FixedPointReport(tuple(roots))


def _grid_size(lo: float, hi: float, step: float) -> float:
    """Point count of the grid lo, lo + step, ... up to hi (with a 1e-9
    rounding allowance), as a float: inf where the count overflows."""
    span = (hi - lo) / step + 1e-9
    return math.floor(span) + 1.0 if math.isfinite(span) else span


def _param_grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + k * step for k in range(int(_grid_size(lo, hi, step)))]


def _cusp_bracket(theta: float, lo: float, hi: float) -> float:
    # Cauchy bound on roots of s**3 - theta*s - lam over the swept lam range
    return max(1.0, abs(theta) + max(abs(lo), abs(hi))) + 0.5


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_work(what: str, size: float, limit: int, unit: str) -> None:
    """Reject a work size, rounded up, above ``limit``.  ``size`` is a float,
    so one too large for an int reads inf; nan is rejected too."""
    if not size <= limit:
        count = math.ceil(size) if math.isfinite(size) else size
        raise ValueError(f"{what} asks for {count:.8g} {unit}, above the limit of {limit:,}")


def check_bifurcation(theta: float, lambda_lo: float, lambda_hi: float, step: float, grid_n: int) -> None:
    """Rules of ``sweep_bifurcation``: finite theta, lambda_lo < lambda_hi and step > 0,
    at most MAX_SWEEP_POINTS lambdas; 2 <= grid_n <= MAX_GRID_N."""
    if not (math.isfinite(theta) and -math.inf < lambda_lo < lambda_hi < math.inf):
        raise ValueError(f"need finite theta and lambda_lo < lambda_hi, got {theta}, [{lambda_lo}, {lambda_hi}]")
    _check_positive(step=step)
    _check_work(f"step={step!r}", _grid_size(lambda_lo, lambda_hi, step), MAX_SWEEP_POINTS, "sweep points")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    # an int past the float range (a 400-digit --grid-n) reads inf
    _check_work(f"grid_n={grid_n!r}", grid_n if grid_n < 1e300 else math.inf, MAX_GRID_N, "root-scan intervals")


def sweep_bifurcation(
    theta: float,
    lambda_lo: float,
    lambda_hi: float,
    step: float,
    grid_n: int = DEFAULT_GRID_N,
) -> list[tuple[float, FixedPointReport]]:
    """Fixed-point report of the cusp family at each lam on a regular grid.

    The scan grid and its lam-free terms ``theta * s`` and ``s ** 3.0`` are
    computed once per sweep; each lam's grid values are then
    ``(lam + theta * s) - s ** 3.0``, the operations of ``_cusp`` in its
    order, one row at a time.  So the reports have the bytes of one
    ``find_fixed_points(_cusp(lam, theta), -bound, bound, grid_n)`` per lam,
    and no option selects the per-lam scan.
    """
    check_bifurcation(theta, lambda_lo, lambda_hi, step, grid_n)
    bound = _cusp_bracket(theta, lambda_lo, lambda_hi)
    xs = np.linspace(-bound, bound, grid_n + 1)
    tx, cube = theta * xs, xs ** 3.0
    return [
        (lam, _roots(_cusp(lam, theta), xs, (lam + tx) - cube, -bound, bound))
        for lam in _param_grid(lambda_lo, lambda_hi, step)
    ]


# ---------------------------------------------------------------------------
# Hysteresis
# ---------------------------------------------------------------------------

def _relax(lam: float, theta: float, s: float, relax_t: float, dt: float) -> tuple[float, bool]:
    """Integrate the cusp rate at (lam, theta) until |rate(s)| < SETTLE_TOL,
    spending at most RELAX_CAP_FACTOR * relax_t.

    Early exit once settled is equivalent to running out the clock (the
    state stops moving at that tolerance); the budget extension past
    relax_t lets fold transits complete inside a single sweep step instead
    of being smeared across several.  The RK4 step is ``_rk4_step`` on
    ``_cusp`` inlined bit for bit, with the settle test's rate as its k1, in
    Python floats: numpy's ``x**3`` differs in the last bit for about 2.7% of inputs.
    The cube is ``s ** 3.0``: CPython turns an int exponent into 3.0 on every
    call and then calls the same libm ``pow``, so the float exponent gives the
    same bits and skips the conversion.

    Every operation here is odd under negating ``lam`` and ``s`` together, so
    ``_relax(-lam, theta, -s)`` is ``(-state, settled)`` bit for bit, with
    one exception: a sum of opposite values is +0.0 in a run and in its
    mirror alike, so a zero may carry the wrong sign.  A nonzero ``lam``
    absorbs such a zero inside the rate, so for ``lam != 0`` only a returned
    zero state (0.0 against -0.0) can differ.  ``hysteresis_loop`` mirrors
    only under those two guards.
    """
    budget = relax_t * RELAX_CAP_FACTOR
    h, w = 0.5 * dt, dt / 6.0
    t = 0.0
    try:
        while True:
            k1 = lam + theta * s - s ** 3.0
            if abs(k1) < SETTLE_TOL:
                return s, True
            if t >= budget:
                return s, False
            x = s + h * k1
            k2 = lam + theta * x - x ** 3.0
            x = s + h * k2
            k3 = lam + theta * x - x ** 3.0
            x = s + dt * k3
            k4 = lam + theta * x - x ** 3.0
            s = s + w * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
            if not math.isfinite(s):
                raise NumericalDivergenceError(f"relaxation diverged at t={t:.3f}")
    except OverflowError:  # a Python float cube past about 5.6e102
        raise NumericalDivergenceError(
            f"relaxation overflowed at lambda={lam!r}, t={t:.3f}; reduce relax_dt") from None


def check_hysteresis(
    theta: float, lambda_lo: float, lambda_hi: float, step: float,
    relax_t: float, relax_dt: float, jump_tol: float,
) -> None:
    """Rules of ``hysteresis_loop``: finite theta and lambda_lo <= lambda_hi; finite
    step, relax_t, relax_dt and jump_tol, each > 0; at most MAX_SWEEP_POINTS lambdas
    and at most MAX_RK4_STEPS relaxation steps per lambda."""
    if not (math.isfinite(theta) and -math.inf < lambda_lo <= lambda_hi < math.inf):
        raise ValueError(f"need finite theta and lambda_lo <= lambda_hi, got {theta}, [{lambda_lo}, {lambda_hi}]")
    _check_positive(step=step, relax_t=relax_t, relax_dt=relax_dt, jump_tol=jump_tol)
    _check_work(f"step={step!r}", _grid_size(lambda_lo, lambda_hi, step), MAX_SWEEP_POINTS, "sweep points")
    _check_work(f"relax_t={relax_t!r} at relax_dt={relax_dt!r}", relax_t * RELAX_CAP_FACTOR / relax_dt,
                MAX_RK4_STEPS, "relaxation steps per sweep point")


def find_jumps(branch, jump_tol: float) -> tuple[float, ...]:
    """Lambdas of a ``(lambda, state)`` sweep branch where the settled state
    moved by more than ``jump_tol`` from the previous point."""
    return tuple(
        branch[i][0]
        for i in range(1, len(branch))
        if abs(branch[i][1] - branch[i - 1][1]) > jump_tol
    )


def misplaced_jumps(report: HysteresisReport, theta: float, step: float, jump_tol: float) -> int:
    """Count of the jumps in ``report`` that the cusp's folds do not explain.

    The up sweep leaves its lower branch at the fold ``lam = F``, with
    ``F = 2 (theta / 3)**1.5`` (0 for theta <= 0), and the down sweep leaves
    the upper branch at ``-F``.  Counted are jumps more than one ``step``
    from their branch's fold, plus each branch that shows no jump although
    it passes its fold inside the sweep (the down branch only after the up
    branch has passed ``F``) and the fold's jump, ``3 (theta / 3)**0.5``,
    exceeds ``jump_tol``.  Too short a relaxation shows as jumps late past
    the fold.
    """
    fold = 2.0 * (max(theta, 0.0) / 3.0) ** 1.5
    count = sum(abs(lam - fold) > step for lam in report.jumps_up)
    count += sum(abs(lam + fold) > step for lam in report.jumps_down)
    if report.up_branch and theta > 0 and 3.0 * math.sqrt(theta / 3.0) > jump_tol:
        lo, hi = report.up_branch[0][0], report.up_branch[-1][0]
        up_passes = lo < fold < hi
        count += up_passes and not report.jumps_up
        count += up_passes and lo < -fold and not report.jumps_down
    return count


def hysteresis_loop(
    theta: float,
    lambda_lo: float,
    lambda_hi: float,
    step: float,
    relax_t: float = DEFAULT_RELAX_T,
    relax_dt: float = DEFAULT_RELAX_DT,
    jump_tol: float = DEFAULT_JUMP_TOL,
) -> HysteresisReport:
    """Quasi-static double sweep of lam with settled-state tracking.

    Sweep lam upward then downward, at each value relaxing the state from
    the previous equilibrium and recording where it settles.  A jump is a
    settled-state change larger than ``jump_tol`` between adjacent lam;
    ``loop_area`` is the trapezoidal area enclosed between the branches.

    Down step ``k`` runs at ``lams[n - 1 - k]``.  Where that lam is nonzero
    and exactly ``-lams[k]``, and the step starts from exactly the negated
    start of up step ``k``, it is that up step's mirror (see ``_relax``): it
    takes the negated up state and the up step's equilibration verdict
    without relaxing, unless that state is zero.  Every other point relaxes.
    """
    check_hysteresis(theta, lambda_lo, lambda_hi, step, relax_t, relax_dt, jump_tol)
    if lambda_lo == lambda_hi:
        return HysteresisReport((), (), (), (), 0.0)

    lams = _param_grid(lambda_lo, lambda_hi, step)
    bound = _cusp_bracket(theta, lambda_lo, lambda_hi)
    stuck: list[float] = []

    start = find_fixed_points(_cusp(lams[0], theta), -bound, bound)
    stable = [r.location for r in start.roots if r.stability == STABLE]
    s0 = min(stable) if stable else -bound

    def settle(lam, s):
        s, settled = _relax(lam, theta, s, relax_t, relax_dt)
        is_stuck = not settled and abs(_cusp(lam, theta)(s)) > EQUILIBRATION_TOL
        if is_stuck:
            stuck.append(lam)
        return s, is_stuck

    up_branch, up_stuck = [], []
    s = s0
    for lam in lams:
        s, is_stuck = settle(lam, s)
        up_branch.append((lam, s))
        up_stuck.append(is_stuck)

    down_branch = []
    up_start = s0
    for k, lam in enumerate(reversed(lams)):
        mirror = -up_branch[k][1]
        if lams[k] == -lam and s == -up_start and lam != 0.0 and mirror != 0.0:
            s = mirror
            if up_stuck[k]:
                stuck.append(lam)
        else:
            s, _ = settle(lam, s)
        down_branch.append((lam, s))
        up_start = up_branch[k][1]

    down_aligned = list(reversed(down_branch))
    gaps = [abs(u[1] - d[1]) for u, d in zip(up_branch, down_aligned)]
    area = 0.0
    for i in range(len(gaps) - 1):
        dlam = up_branch[i + 1][0] - up_branch[i][0]
        area += 0.5 * (gaps[i] + gaps[i + 1]) * dlam

    return HysteresisReport(
        up_branch=tuple(up_branch),
        down_branch=tuple(down_branch),
        jumps_up=find_jumps(up_branch, jump_tol),
        jumps_down=find_jumps(down_branch, jump_tol),
        loop_area=area,
        non_equilibrated=tuple(stuck),
    )
