"""
Nonlinear time integration of the free-transport-filtered mean-field dynamics
in Fourier variables.

In the filtered ("gliding") frame the transform ghat_n(t, xi) obeys

    d/dt ghat_n(xi) = p_n z_n(t) etahat(xi - n t) (n^2 t - n xi)
                      + eps * sum_k p_k z_k(t) ghat_{n-k}(xi - k t) (n k t - k xi),

where z_k(t) = ghat_k(t, k t) are the self-consistent field modes and the sum
runs over the active interaction modes.  Free transport is filtered exactly,
so the state is read with one four-tap cubic Lagrange stencil (zero extension)
in two ways only: at the points xi = k t (``grids.cubic_interp``, the shift
-k t at the centre column), and along whole rows at xi - k t (``grids.shift_add``),
on rows that carry ``grids.MARGIN`` zero columns each side, one op per tap.
Time stepping is classical 4-stage Runge-Kutta; the field modes are read from
the stage states at stage times, which keeps the scheme at order 4, and once
per state: a step's k1 takes the modes recorded for the state it starts from.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .grids import (MARGIN, InvariantViolation, PhaseGrid, SpectralField, above_floor, cubic_interp, make_grid,
                    norm_ladders, shift_add, shift_plan, symmetrized_values, window)
from .penrose import InteractionKernel, PenroseReport, penrose_check
from .profiles import HomogeneousProfile, Perturbation, profile_hat, synth_initial
from .volterra import ModeSeries, step_count

__all__ = [
    "SimConfig",
    "Trajectory",
    "NonFiniteState",
    "extract_field_modes",
    "assemble_rhs",
    "run",
]


class NonFiniteState(RuntimeError):
    """The integrated state stopped being finite (blow-up or configuration bug)."""


@dataclass(frozen=True)
class SimConfig:
    """
    Full description of one simulation.

    ``s`` is the regularity index used by the norm monitors; the norm ladder
    H^0..H^s is taken of the snapshots, recorded at ``snapshot_steps``, the one
    record schedule (``record_every`` sets it).  The frequency window must satisfy
    xi_max >= n_max * t_final + 4*dxi so the self-consistent reads xi = k*t stay
    a read's reach inside the grid all run (shifted reads are zero-extended).
    """

    grid: PhaseGrid
    kernel: InteractionKernel
    profile: HomogeneousProfile
    perturbations: tuple
    epsilon: float
    dt: float
    t_final: float
    record_every: int = 1
    s: int = 7
    check_stability: bool = True

    def __post_init__(self) -> None:
        perts = self.perturbations
        if isinstance(perts, Perturbation):
            perts = (perts,)
        object.__setattr__(self, "perturbations", tuple(perts))

    @property
    def n_steps(self) -> int:
        return step_count(self.t_final, self.dt)

    @property
    def snapshot_steps(self) -> np.ndarray:
        """The steps at which run() records a snapshot, and so a row of the norm ladder: every
        ``record_every``-th and the last."""
        return np.union1d(np.arange(0, self.n_steps + 1, self.record_every), [self.n_steps])

    @property
    def times(self) -> np.ndarray:
        """The step grid, every step's time: ``arange(n_steps + 1) * dt``."""
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def reached_modes(self) -> set:
        """The rows a run's data can make nonzero: the perturbed rows +-mode and, at eps > 0,
        every a + k with a and k reached, k an active mode of the kernel and |a + k| <= n_max
        (row n takes z_k times row n - k); at eps = 0 each row keeps to itself, and a row
        outside the set stays exactly 0."""
        rows = {sign * q.mode for q in self.perturbations if q.amplitude > 0 for sign in (1, -1)}
        if self.epsilon == 0.0:
            return rows
        active = {sign * k for k in self.kernel.active_modes() for sign in (1, -1)}
        while True:
            more = {a + k for a in rows for k in rows & active if abs(a + k) <= self.grid.n_max} - rows
            if not more:
                return rows
            rows |= more

    def validate(self) -> None:
        g = self.grid
        if self.epsilon < 0:
            raise InvariantViolation(f"epsilon must be >= 0, got {self.epsilon}")
        if not self.t_final > 0:
            raise InvariantViolation(f"t_final must be positive, got {self.t_final}")
        try:
            step_count(self.t_final, self.dt)
        except ValueError as exc:
            raise InvariantViolation(str(exc)) from exc
        if self.record_every < 1:
            raise InvariantViolation(f"record_every must be >= 1, got {self.record_every}")
        m = self.kernel.n_modes
        s_min = max(4 * m + 2, 2 * m + 5)
        if self.s < s_min:
            raise InvariantViolation(f"monitor index s={self.s} below the preset minimum {s_min} for M={m}")
        if g.n_max < m:
            raise InvariantViolation(f"n_max={g.n_max} too small for kernel with M={m} modes")
        required = g.n_max * self.t_final + 4.0 * g.dxi
        if g.xi_max < required:
            raise InvariantViolation(
                f"xi_max={g.xi_max} too small for t_final={self.t_final}: "
                f"required xi_max >= n_max*t_final + 4*dxi = {required:.6g}")
        for p in self.perturbations:
            if abs(p.mode) > g.n_max:
                raise InvariantViolation(f"perturbation mode {p.mode} outside [-{g.n_max}, {g.n_max}]")


@dataclass
class Trajectory:
    """Recorded output of one run."""

    config: SimConfig
    times: np.ndarray                 # every step, length n_steps + 1
    field_modes: ModeSeries           # z_k(t) for +-active kernel modes, every step
    mass_series: np.ndarray           # ghat_0(t, 0), complex
    l2_series: np.ndarray             # ||eta + eps*g(t)||_{L2}
    norm_history: np.ndarray          # (len(snapshot_steps), s + 1): H^0..H^s of snapshot j in row j
    reality_series: np.ndarray        # symmetry defect before re-enforcement
    snapshot_times: np.ndarray
    snapshots: list
    stability: PenroseReport | None = None


@functools.lru_cache(maxsize=8)
def _active_modes(kernel: InteractionKernel) -> tuple:
    """The kernel's signed active modes, ascending, once per kernel content."""
    pos = kernel.active_modes()
    return (*(-k for k in reversed(pos)), *pos)


def extract_field_modes(values: np.ndarray, t: float, kernel: InteractionKernel, grid: PhaseGrid) -> dict:
    """
    Self-consistent field modes z_k(t) = ghat_k(t, k*t) of the state ``values``
    on ``grid``, for every active interaction mode k, by cubic interpolation in xi.
    ``values`` holds whole rows, or the centred window of columns a linear
    run marches (see ``grids.cubic_interp``).

    The read positions must stay the read's reach, ``MARGIN`` cells, inside
    the columns held (|k t| <= xi_max - 2*dxi on whole rows); violating that
    is a configuration bug and fails hard rather than silently truncating.
    """
    t = float(t)      # np.float64 scalar arithmetic would cost more than the read
    edge = (values.shape[-1] // 2 - MARGIN) * grid.dxi
    out = {}
    for k in _active_modes(kernel):
        target = k * t
        if abs(target) > edge:
            raise RuntimeError(
                f"field-mode read xi = {target:.6g} for mode {k} leaves the safe window "
                f"|xi| <= {edge:.6g}, {MARGIN} cells inside the columns held; enlarge xi_max")
        out[k] = cubic_interp(values[grid.row(k)], grid, target)
    return out


class _StageFactors:
    """
    The factors of the rhs that depend on the stage time alone, built once per
    stage time t at the exact float t, on the rows of ``MARGIN`` zero columns
    each side that run() marches:

    - ``coupling``: eps (xi - n t), one op over the margined rows from the
      margined ``xi`` (zero margins, so ``out``'s zero margins stay zero;
      eps > 0 only);
    - ``plans[k]``: the stencil of the row shift by k t (eps > 0 only),
      with ``work``, the scratch every shift reuses;
    - ``background[n]``: ``(columns, row)``, the forcing row
      (-n p_n)(xi - n t) etahat(xi - n t) of each active mode on the
      columns ``grids.window(grid, n t, support)``, one ``profile_hat`` call
      per positive mode.

    ``scales[k]``, the stage scale -k p_k of mode k, and ``rows[k]``, its row,
    are built once per run, not per stage.

    ``support`` is found once, from ``eta_hat``, the transform on the grid's
    nodes (which run()'s L2 monitor reuses): the last node of
    ``grids.above_floor(xi etahat(xi))``, plus one cell.  Where that reaches
    xi_max the sample shows no decay and it is infinite, so every row is
    built whole (a tabulated table's tail sits at 1e-11 to 1e-9, so tables
    take this case).

    ``columns`` are the grid columns of the arrays the factors serve, a
    window centred on xi = 0 (see "The reachable band" in
    docs/conventions.md).  At eps = 0 the rhs is exactly zero outside the
    forcing rows' supports, so a run whose stage times end at ``horizon``
    reaches only ``grids.window(grid, 0, M horizon + support)``, M the largest
    active mode, plus the read's reach, ``MARGIN`` columns, each side: every
    column for an unbounded support or horizon (``assemble_rhs``) or a reach
    that covers the grid.  With eps > 0 it is every column.

    Only the latest stage time is held: k2 and k3 share t + dt/2, and k4,
    evaluated at the next step's time, serves that step's k1.  Row -n is
    conj(row n) reversed on the mirrored columns: xi is bitwise
    antisymmetric, and etahat(-x) = conj(etahat(x)) bitwise for a real
    profile.
    """

    def __init__(self, cfg: SimConfig, horizon: float = math.inf):
        grid = cfg.grid
        self.cfg = cfg
        self.active = _active_modes(cfg.kernel)
        # mode k moves source rows m = n - k to rows n: one block pair per k
        self.blocks = {}
        for k in self.active:
            lo, hi = max(-grid.n_max, k - grid.n_max), min(grid.n_max, k + grid.n_max)
            self.blocks[k] = (slice(grid.row(lo), grid.row(hi) + 1), slice(grid.row(lo - k), grid.row(hi - k) + 1))
        self.scales = {k: -k * cfg.kernel.coefficient(k) for k in self.active}
        self.rows = {k: grid.row(k) for k in self.active}
        self.forcing = [(n, self.scales[n]) for n in cfg.kernel.active_modes()]
        self.eta_hat = profile_hat(cfg.profile, grid.xi)
        above = above_floor(grid.xi * self.eta_hat)
        reach = (float(np.max(np.abs(grid.xi[above]))) if above.size else 0.0) + grid.dxi
        self.support = math.inf if reach >= grid.xi_max else reach
        extent = max(cfg.kernel.active_modes(), default=1) * horizon + self.support
        lo = max(window(grid, 0.0, extent)[0] - MARGIN, 0) if cfg.epsilon == 0.0 else 0
        self.columns = slice(lo, grid.n_xi - lo)
        self.coupling = self.work = None
        if cfg.epsilon != 0.0:
            self.xi = np.pad(grid.xi, MARGIN)
            self.coupling = np.empty((grid.shape[0], self.xi.size))
            self.work = np.empty((2,) + self.coupling.shape, dtype=np.complex128)
        self.t = None
        self.plans = {}
        self.background = {}

    def at(self, t: float) -> _StageFactors:
        if t == self.t:
            return self
        cfg, grid = self.cfg, self.cfg.grid
        if self.coupling is not None:
            np.multiply(cfg.epsilon, np.subtract(self.xi, grid.modes[:, None] * t, out=self.coupling),
                        out=self.coupling)
            self.plans = {k: shift_plan(grid, k * t) for k in self.active}
        n_xi = grid.n_xi
        first = MARGIN - self.columns.start      # array column of grid column 0
        for n, scale in self.forcing:
            shift = n * float(t)
            lo, hi = window(grid, shift, self.support)
            base = grid.xi[lo:hi] - shift
            row = scale * base * profile_hat(cfg.profile, base)
            self.background[n] = (slice(lo + first, hi + first), row)
            # conj(row n) reversed: a view when the row is real
            self.background[-n] = (slice(n_xi - hi + first, n_xi - lo + first), row[::-1].conj())
        self.t = t
        return self


def _margined(values: np.ndarray) -> np.ndarray:
    """A copy of ``values`` with ``MARGIN`` zero columns on each side of every row."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 2 * MARGIN,), dtype=np.complex128)
    out[..., MARGIN:-MARGIN] = values
    return out


def _rhs(values: np.ndarray, t: float, modes: dict, factors: _StageFactors, out: np.ndarray) -> np.ndarray:
    """The module equation's right-hand side at the field modes ``modes`` of ``values`` at t,
    written into ``out``; both are margined rows of the grid (``out`` does not alias ``values``),
    and ``out``'s margins are left zero."""
    f = factors.at(t)
    out.fill(0.0)
    if f.coupling is not None:
        for k, zk in modes.items():
            rows, source = f.blocks[k]
            shift_add(out[rows], values[source], f.plans[k], f.scales[k] * zk, f.work)
        out *= f.coupling
    for n, zn in modes.items():
        columns, row = f.background[n]
        out[f.rows[n], columns] += zn * row
    return out


def assemble_rhs(state: SpectralField, t: float, cfg: SimConfig) -> SpectralField:
    """Time derivative of the state at time t (see the module equation)."""
    modes = extract_field_modes(state.values, t, cfg.kernel, cfg.grid)
    values = _margined(state.values)
    out = _rhs(values, t, modes, _StageFactors(cfg), np.empty_like(values))
    return SpectralField(cfg.grid, out[:, MARGIN:-MARGIN], state.real_valued)


def _step_values(values: np.ndarray, t: float, t_next: float, modes: dict, factors: _StageFactors,
                 buf: np.ndarray) -> np.ndarray:
    """
    One RK4 step from ``values`` at t to t_next, returned in ``buf[0]``.  k1
    takes ``modes``, the field modes of ``values``; k4 is evaluated at the
    next step's start time t_next, which can differ from t + dt by one ulp.
    ``values`` holds margined rows, and ``buf`` is complex scratch of shape
    ``(3,) + values.shape`` (accumulator, stage derivative, stage state), so
    the step allocates nothing of the grid's size.
    The operations are those of values + (dt/6)(k1 + 2 k2 + 2 k3 + k4) with
    k2 = rhs(values + (dt/2) k1, t + dt/2) and so on, in the same order, so
    the result is bitwise that of the plain expression, margins zero.
    """
    cfg = factors.cfg
    dt = cfg.dt
    acc, k, stage = buf

    def rhs(state, ts, out):
        modes = extract_field_modes(state[:, MARGIN:-MARGIN], ts, cfg.kernel, cfg.grid)
        return _rhs(state, ts, modes, factors, out)

    k1 = _rhs(values, t, modes, factors, acc)
    np.add(values, np.multiply(0.5 * dt, k1, out=stage), out=stage)
    k2 = rhs(stage, t + 0.5 * dt, k)
    np.add(values, np.multiply(0.5 * dt, k2, out=stage), out=stage)
    np.add(k1, np.multiply(2.0, k2, out=k2), out=acc)
    k3 = rhs(stage, t + 0.5 * dt, k)
    np.add(values, np.multiply(dt, k3, out=stage), out=stage)
    np.add(acc, np.multiply(2.0, k3, out=k3), out=acc)
    k4 = rhs(stage, t_next, k)
    np.add(acc, k4, out=acc)
    np.multiply(dt / 6.0, acc, out=acc)
    return np.add(values, acc, out=acc)


def run(cfg: SimConfig) -> Trajectory:
    """
    Integrate the configuration from its synthesized initial data.

    Records at every step: the field modes, the mass mode ghat_0(t, 0), the
    L2 norm of the full distribution eta + eps*g (constant for the exact
    dynamics: the flow is transport by a divergence-free Hamiltonian field)
    and the reality-symmetry defect.  At the steps of ``cfg.snapshot_steps``
    (every ``record_every``-th and the last) it records a snapshot; after the
    march one ``grids.norm_ladders`` call takes the Sobolev ladder H^0..H^s of
    every snapshot, so the step loop does only the step.  An unstable
    background only warns: runs beyond the stability region are how the
    instability is exhibited.

    A run marches only the rows its data reaches (``cfg.reached_modes``) and,
    at eps = 0, the columns (see "The reachable band" in docs/conventions.md);
    its snapshots are on the configured grid, every other row exactly zero and
    every other column of the band's rows at its initial value.
    """
    cfg.validate()
    stability = None
    if cfg.check_stability:
        stability = penrose_check(cfg.kernel, cfg.profile)
        if not stability.stable:
            warnings.warn("background state fails the stability check; continuing (instability study)",
                          RuntimeWarning, stacklevel=2)

    # a row the data does not reach stays exactly zero; rows beyond the largest
    # |n| = r of a reached row or an active kernel mode are left out of the march
    configured = cfg.grid
    r = max([1, *cfg.kernel.active_modes(), *map(abs, cfg.reached_modes)])
    grid = make_grid(r, configured.xi_max, configured.n_xi, configured.m0)
    band = replace(cfg, grid=grid)
    band_rows = slice(configured.row(-r), configured.row(r) + 1)
    n_steps = cfg.n_steps
    times = cfg.times
    factors = _StageFactors(band, float(times[-1]))
    columns = factors.columns

    # outside the marched columns the rhs is exactly +0.0 at every stage, and
    # the initial data is a fixed point of adding +0.0 and re-symmetrising:
    # those columns keep their initial values, which the snapshots are laid on
    full = np.zeros(configured.shape, dtype=np.complex128)
    # a perturbation on a row outside the band has amplitude 0 and adds nothing
    full[band_rows] = synth_initial([q for q in cfg.perturbations if abs(q.mode) <= r], grid).values
    band_full = full[band_rows]
    # the state and the step's scratch are margined rows (see grids.shift_add)
    # of the marched columns; core is the state on them
    state = _margined(band_full[:, columns])
    core = state[:, MARGIN:-MARGIN]

    active = _active_modes(cfg.kernel)
    zeta = {k: np.empty(n_steps + 1, dtype=np.complex128) for k in active}
    mass = np.empty(n_steps + 1, dtype=np.complex128)
    l2 = np.empty(n_steps + 1)
    defects = np.empty(n_steps + 1)
    snapshot_due = set(cfg.snapshot_steps.tolist())
    snapshots = []
    tw = grid.trapz_weights()
    eta_hat = np.asarray(factors.eta_hat, dtype=np.complex128)
    row0 = grid.row(0)
    background_l2 = float(np.sqrt(np.add.reduce((eta_hat.real ** 2 + eta_hat.imag ** 2) * tw)))
    l2_work = np.empty((2,) + grid.shape)

    def full_l2() -> float:
        """||eta + eps g||_{L2} of core, which holds the band's whole rows when
        eps > 0 (the rows left out are zero): the rows n != 0 carry eps g alone."""
        eps = cfg.epsilon
        if eps == 0.0:
            return background_l2
        sq = np.multiply(core.real, core.real, out=l2_work[0])
        sq += np.multiply(core.imag, core.imag, out=l2_work[1])
        sq *= tw
        rows = np.add.reduce(sq, axis=1)
        rows[row0] = 0.0
        f0 = eps * core[row0] + eta_hat
        total = eps * eps * float(np.add.reduce(rows))
        total += float(np.add.reduce((f0.real ** 2 + f0.imag ** 2) * tw))
        return float(np.sqrt(total))

    def record(i: int, t: float, defect: float) -> dict:
        zk = extract_field_modes(core, t, cfg.kernel, grid)
        for k in active:
            zeta[k][i] = zk[k]
        # the mass ghat_0(t, 0) sits in the centre column, of whole rows or of a linear run's window
        mass[i] = complex(core[row0, core.shape[1] // 2])
        l2[i] = full_l2()
        defects[i] = defect
        if i in snapshot_due:
            band_full[:, columns] = core
            snapshots.append(SpectralField(configured, full, real_valued=True))
        return zk      # the next step's k1 takes the modes of this state

    # the step and the drift check write into these buffers and the state is
    # overwritten in place: neither allocates anything of the grid's size
    buf = np.empty((3,) + state.shape, dtype=np.complex128)
    defect = np.empty(state.shape)
    # a state that blows up overflows inside the step or its monitors; a nan or
    # inf entry reaches the drift through subtract, abs and max, so the drift reports it
    with np.errstate(over="ignore", invalid="ignore"):
        modes = record(0, 0.0, 0.0)
        for i in range(1, n_steps + 1):
            raw = _step_values(state, times[i - 1], times[i], modes, factors, buf)
            # per-step symmetry drift, measured before the averaging re-enforces it
            diff = np.subtract(raw[::-1, ::-1], np.conjugate(raw, out=buf[2]), out=buf[2])
            drift = float(np.max(np.abs(diff, out=defect)))
            if not math.isfinite(drift):
                raise NonFiniteState(f"non-finite state at t={times[i]:.6g} (step {i}); aborting run")
            symmetrized_values(raw, out=state)
            modes = record(i, times[i], drift)
        # the ladders of the snapshots' marched rows, read as views block by block
        ladder = norm_ladders(grid, (snap.values[band_rows] for snap in snapshots), cfg.s)

    return Trajectory(
        config=cfg,
        times=times,
        field_modes=ModeSeries(times, zeta),
        mass_series=mass,
        l2_series=l2,
        norm_history=ladder,
        reality_series=defects,
        snapshot_times=times[cfg.snapshot_steps],
        snapshots=snapshots,
        stability=stability,
    )

