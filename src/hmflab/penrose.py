"""
Linear stability of homogeneous states via a winding-number criterion.

The linearized field equation has the causal memory kernel

    K(n, t) = -n * p_n * (n t) * etahat(n t),   t >= 0,

where p_n are the interaction coefficients.  Stability of the state requires
the transform Khat(n, tau) = int_0^inf exp(-i tau t) K(n, t) dt to satisfy

    inf_{Im tau <= 0} |1 - Khat(n, tau)| >= kappa > 0

for every active mode n.  Khat is holomorphic in the open lower half-plane
and vanishes at infinity there, so by the argument principle the infimum can
be certified from the real axis alone: zero winding of the closed curve
tau -> 1 - Khat(n, tau) about the origin rules out zeros below the axis, and
the infimum is then the minimum of |1 - Khat| over the real-axis scan.
This turns an infinite 2-D search into a 1-D scan plus an integer.

Only n >= 1 is scanned: for real kernels Khat(n, -conj(tau)) = conj(Khat(n,
tau)), so n and -n give mirror-image verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import HomogeneousProfile, chirp_z, fourier_sum, gauss_panels, profile_hat

__all__ = [
    "InteractionKernel",
    "ScanParameters",
    "ModeStability",
    "PenroseReport",
    "ScanRefinementError",
    "memory_kernel",
    "memory_kernel_transform",
    "penrose_check",
    "critical_parameter",
    "growth_rate",
]

_KERNEL_TINY = 1e-16  # quadrature truncation threshold on |K|
_T_CUT_CAP = 400.0
_GL16 = np.polynomial.legendre.leggauss(16)
# |1 - Khat| below which the uniform scan takes the dense sum: the chirp-z
# roundoff (<= ~1e-12) would turn the direction there by up to 1e-4 rad
_NEAR_ORIGIN = 1e-8
_MAX_REFINEMENTS = 48  # angle-halving rounds before a scan is declared too coarse
# floor on the |Khat| tail threshold when kappa_target / 10 is smaller (as in
# the pure winding check): any tail with |Khat| < 1 cannot add winding, and
# 1e-4 only perturbs near-unity minima at the fourth digit
_TAIL_FLOOR = 1e-4
_ROOT_TOL = 1e-10  # growth_rate's bisection tolerance on the root


@dataclass(frozen=True)
class InteractionKernel:
    """
    Finite-mode interaction P(x) = sum_{k=1..M} 2*p_k cos(k x), stored through
    the exponential-basis coefficients p_k (with p_{-k} = p_k implied).

    The plain cosine interaction cos(x) is ``InteractionKernel((0.5,))``.
    """

    coefficients: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("kernel needs at least one mode coefficient")
        if not all(np.isfinite(coeffs)):
            raise ValueError("kernel coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n_modes(self) -> int:
        return len(self.coefficients)

    def coefficient(self, k: int) -> float:
        """p_k with symmetric extension; 0 beyond the mode cutoff."""
        k = abs(k)
        if k == 0 or k > self.n_modes:
            return 0.0
        return self.coefficients[k - 1]

    def active_modes(self) -> list[int]:
        """Positive mode numbers with nonzero coefficient, ascending."""
        return [k for k in range(1, self.n_modes + 1) if self.coefficients[k - 1] != 0.0]

    @classmethod
    def cosine(cls) -> "InteractionKernel":
        return cls((0.5,))

    @classmethod
    def anticosine(cls) -> "InteractionKernel":
        return cls((-0.5,))


def memory_kernel(ik: InteractionKernel, prof: HomogeneousProfile, n: int, t):
    """
    Causal kernel K(n, t) = -n * p_n * n*t * etahat(n*t) for t >= 0, else 0.

    Accepts scalar or array t; the result is real for real-valued etahat
    (even profiles) and complex otherwise.
    """
    scalar = np.isscalar(t)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    pn = ik.coefficient(n)
    if pn == 0.0:
        out = np.zeros_like(tt)
        return out[0] if scalar else out
    out = -n * pn * (n * tt) * profile_hat(prof, n * tt)
    out = np.where(tt >= 0.0, out, 0.0)
    return out[0] if scalar else out


def _kernel_cutoff(ik: InteractionKernel, prof: HomogeneousProfile, n: int) -> float:
    """Smallest sampled t beyond which |K(n, .)| stays under the truncation
    threshold, cached on the frozen profile per (kernel coefficients, n)."""
    cutoffs = prof.__dict__.setdefault("_kernel_cutoffs", {})
    key = (ik.coefficients, n)
    if key not in cutoffs:
        t = np.linspace(0.0, _T_CUT_CAP, 2001)
        above = np.nonzero(np.abs(memory_kernel(ik, prof, n, t)) >= _KERNEL_TINY)[0]
        cutoffs[key] = float(min(t[above[-1]] + 2.0, _T_CUT_CAP)) if above.size else 1.0
    return cutoffs[key]


def _panel_rule(ik, prof, n, tau_abs_max: float):
    """
    Composite 16-point Gauss-Legendre rule resolving exp(-i tau t) phases for
    |Re tau| <= tau_abs_max: ``(nodes, fw, hp)``, with the nodes and the
    weights times K(n, nodes) as (n_panels, 16) arrays on uniform panels of
    width hp on [0, t_cut].  K is sampled offset by offset, 16 uniform
    families of panel-spaced nodes, so a tabulated transform takes chirp-z.
    """
    t_cut = _kernel_cutoff(ik, prof, n)
    h = min(0.25, 8.0 / max(tau_abs_max, 1.0))
    n_panels = max(4, int(np.ceil(t_cut / h)))
    nodes, w = gauss_panels(0.0, t_cut, n_panels, _GL16)
    return nodes, w * memory_kernel(ik, prof, n, nodes.T).T, t_cut / n_panels


def memory_kernel_transform(ik: InteractionKernel, prof: HomogeneousProfile, n: int, tau):
    """
    Khat(n, tau) = int_0^inf exp(-i tau t) K(n, t) dt on Im tau <= 0.

    The integral is truncated where |K| < 1e-16 and evaluated with
    oscillation-aware Gauss-Legendre panels (absolute error well below 1e-10
    for smooth decaying kernels).  tau with Im tau > 0 is rejected: the
    transform is only continued into the closed lower half-plane.
    """
    scalar = np.isscalar(tau)
    tt = np.atleast_1d(np.asarray(tau, dtype=complex))
    if np.any(tt.imag > 1e-12):
        raise ValueError("memory_kernel_transform requires Im tau <= 0")
    if ik.coefficient(n) == 0.0:
        out = np.zeros_like(tt)
    else:
        nodes, fw, _ = _panel_rule(ik, prof, n, float(np.max(np.abs(tt.real))) if tt.size else 1.0)
        out = fourier_sum(nodes, fw, tt)
    return out[0] if scalar else out


@dataclass(frozen=True)
class ScanParameters:
    """Real-axis scan controls for the winding check."""

    tau_max: float | None = None   # None: auto-extend until the tail is negligible
    n_tau: int = 2001

    def __post_init__(self) -> None:
        if self.n_tau < 2:
            raise ValueError(f"n_tau must be >= 2, got {self.n_tau}")


@dataclass(frozen=True)
class ModeStability:
    """Verdict for one positive mode number."""

    n: int
    winding: int
    min_real_axis: float
    kappa_est: float
    stable: bool
    tau_scan: np.ndarray          # columns: tau, Re(1-Khat), Im(1-Khat)


@dataclass(frozen=True)
class PenroseReport:
    modes: tuple
    kappa_target: float

    @property
    def stable(self) -> bool:
        return all(m.stable for m in self.modes)

    @property
    def kappa_est(self) -> float:
        if not self.modes:
            return 1.0
        return min(m.kappa_est for m in self.modes)

    def to_json_dict(self) -> dict:
        return {
            "kappa_target": self.kappa_target,
            "stable": self.stable,
            "kappa_est": self.kappa_est,
            "modes": [
                {
                    "n": m.n,
                    "winding": m.winding,
                    "min_abs": m.min_real_axis,
                    "kappa_est": m.kappa_est,
                    "stable": m.stable,
                    "tau_scan": [[float(r[0]), float(r[1]), float(r[2])] for r in m.tau_scan],
                }
                for m in self.modes
            ],
        }


class ScanRefinementError(RuntimeError):
    """Raised when the tau scan cannot be refined to a trustworthy winding."""


def _scan_mode(ik, prof, n, kappa_target, scan: ScanParameters) -> ModeStability:
    tail_threshold = max(kappa_target / 10.0, _TAIL_FLOOR)

    # one panel rule per probe of tau_max; the last probe's rule also serves
    # the scan, its near-origin points and every refinement midpoint
    probes = [16.0 * 2.0 ** k for k in range(16)] if scan.tau_max is None else [float(scan.tau_max)]
    for tau_max in probes:
        nodes, fw, hp = _panel_rule(ik, prof, n, tau_max)
        edge = abs(fourier_sum(nodes, fw, tau_max))
        if edge < tail_threshold:
            break
    else:
        if scan.tau_max is None:
            raise ScanRefinementError(
                f"mode {n}: |Khat| does not decay below {tail_threshold} by tau={2.0 * tau_max}")
        raise ScanRefinementError(
            f"mode {n}: tau_max={scan.tau_max} too small, |Khat(tau_max)|={edge:.3e} >= {tail_threshold:.1e}")

    # the uniform scan by chirp-z; where 1 - Khat comes within _NEAR_ORIGIN of
    # the origin the winding hinges on the last digits (at a critical parameter
    # the curve passes through it), so those points take the dense sum
    taus = np.linspace(-tau_max, tau_max, scan.n_tau)
    z = 1.0 - chirp_z(fw, 0.0, hp, (0.5 * hp) * _GL16[0], taus)
    near = np.nonzero(np.abs(z) < _NEAR_ORIGIN)[0]
    if near.size:
        z[near] = 1.0 - fourier_sum(nodes, fw, taus[near])

    # refine until every adjacent pair subtends at most pi/2 about the origin
    for _ in range(_MAX_REFINEMENTS):
        turns = np.abs(np.angle(z[1:] / z[:-1]))
        bad = np.nonzero(turns > 0.5 * np.pi)[0]
        if bad.size == 0:
            break
        mids = 0.5 * (taus[bad] + taus[bad + 1])
        taus = np.insert(taus, bad + 1, mids)
        z = np.insert(z, bad + 1, 1.0 - fourier_sum(nodes, fw, mids))
    else:
        raise ScanRefinementError(f"mode {n}: scan still too coarse after {_MAX_REFINEMENTS} refinements")

    # close the curve through the point at infinity, where Khat = 0 exactly
    total = float(np.sum(np.angle(z[1:] / z[:-1])))
    total += float(np.angle(1.0 / z[-1])) + float(np.angle(z[0]))
    winding = int(np.round(total / (2.0 * np.pi)))
    if abs(total / (2.0 * np.pi) - winding) > 0.05:
        raise ScanRefinementError(f"mode {n}: winding sum {total / (2 * np.pi):.3f} is not near an integer")

    min_abs = float(np.min(np.abs(z)))
    kappa_est = min_abs if winding == 0 else 0.0
    stable = (winding == 0) and (min_abs >= kappa_target)
    scan_arr = np.column_stack([taus, z.real, z.imag])
    return ModeStability(n=n, winding=winding, min_real_axis=min_abs, kappa_est=kappa_est,
                         stable=stable, tau_scan=scan_arr)


def penrose_check(ik: InteractionKernel, prof: HomogeneousProfile,
                  kappa_target: float = 1e-2,
                  scan: ScanParameters | None = None) -> PenroseReport:
    """
    Winding-number stability check of every active mode.

    A mode is stable when the closed curve tau -> 1 - Khat(n, tau) has zero
    winding about the origin (no resolvent zeros below the real axis) and its
    real-axis minimum modulus is at least ``kappa_target``.  The scan is
    refined adaptively near close approaches to the origin and fails loudly
    if it cannot certify the winding.
    """
    scan = scan or ScanParameters()
    modes = tuple(_scan_mode(ik, prof, n, kappa_target, scan) for n in ik.active_modes())
    return PenroseReport(modes=modes, kappa_target=kappa_target)


def _bisect(keep_lo, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] until it is at most ``tol`` wide, or until its midpoint
    rounds to one of its ends (no float lies between them), moving lo to the
    midpoint where ``keep_lo(mid)`` holds and hi otherwise; returns the midpoint of the last bracket."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if keep_lo(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# critical_parameter's scan: coarse, since the subtended-angle refinement loop
# is the safety net and a bisection takes many verdicts
_BISECTION_SCAN = ScanParameters(n_tau=601)


def critical_parameter(family, lo: float, hi: float, tol: float = 1e-3) -> float:
    """
    Bisect a one-parameter (kernel, profile) family on the stability verdict.

    ``family(theta)`` returns an ``(InteractionKernel, HomogeneousProfile)``
    pair.  The verdict is the pure winding criterion (kappa_target 0), so the
    bisection converges to the parameter where a resolvent zero crosses the
    real axis (a positive target would bias the threshold by an
    O(kappa_target) margin).  The verdict must differ at the bracket ends.
    """
    if not hi > lo:
        raise ValueError(f"degenerate bracket [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")

    def verdict(theta: float) -> bool:
        k, p = family(theta)
        return penrose_check(k, p, kappa_target=0.0, scan=_BISECTION_SCAN).stable

    v_lo = verdict(lo)
    v_hi = verdict(hi)
    if v_lo == v_hi:
        raise ValueError(f"same stability verdict ({v_lo}) at both bracket ends [{lo}, {hi}]")
    return _bisect(lambda mid: verdict(mid) == v_lo, lo, hi, tol)


def growth_rate(ik: InteractionKernel, prof: HomogeneousProfile, n: int = 1) -> float:
    """
    Instability rate of an unstable mode from the resolvent root on the
    negative imaginary axis: the lam > 0 solving 1 - Khat(n, -i*lam) = 0.

    Valid for real even profiles, where Khat is real on the imaginary axis
    and the unstable root (when present) sits exactly on it; the growing
    field mode behaves like exp(lam * t).
    """
    nodes, fw, _ = _panel_rule(ik, prof, n, 0.0)

    def h(lam: float) -> float:
        return 1.0 - float(np.real(fourier_sum(nodes, fw, -1j * lam)))

    if h(0.0) >= 0.0:
        raise ValueError(f"mode {n} has no root on the negative imaginary axis (1 - Khat(n,0) >= 0)")
    hi = 0.25
    for _ in range(60):
        if h(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the instability rate")
    # not h > 0 rather than h <= 0: a nan h moves lo
    return _bisect(lambda mid: not h(mid) > 0.0, 0.0, hi, _ROOT_TOL)
