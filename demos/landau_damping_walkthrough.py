#!/usr/bin/env python3
"""
End-to-end damping-rate measurement on a stable maxwellian background.

The initial perturbation is prescribed directly in Fourier variables with an
algebraic tail <xi>^{-q}, so its regularity is exact.  The field mode
z_1(t) = ghat_1(t, t) then damps polynomially: after the Landau transient
(exponentially damped ringing of the linearized resolvent) it settles onto
const * <t>^{-q}, the constant being 1/(1 - Khat(1, 0)).  The script runs the
nonlinear dynamics at small coupling, fits the decay exponent, and compares
against the independent product-trapezoidal solve of the causal field
equation with the same forcing.
"""

import numpy as np

import hmflab as H


def main() -> None:
    tail = 5.0
    t_final = 40.0
    grid = H.make_grid(2, 84.0, 841, 1)
    cfg = H.SimConfig(
        grid=grid,
        kernel=H.InteractionKernel.cosine(),
        profile=H.maxwellian(1.0),
        perturbations=H.Perturbation(mode=1, amplitude=1.0, envelope="algebraic",
                                     tail_exponent=tail),
        epsilon=0.01,
        dt=0.05,
        t_final=t_final,
        record_every=800,      # only the first and the last snapshot are read
        s=7,
    )
    print(f"background: maxwellian(T=1), interaction cos(x), eps = {cfg.epsilon}")
    print(f"data: mode-1 perturbation with exact Fourier tail <xi>^-{tail:.0f}\n")

    report = H.penrose_check(cfg.kernel, cfg.profile)
    print(f"stability check: stable={report.stable}, kappa = {report.kappa_est:.3f}")

    traj = H.run(cfg)
    slope, r2 = H.decay_fit(traj.field_modes, (8.0, 38.0), mode=1)
    print(f"nonlinear run: log-log slope of |z_1| on [8, 38] = {slope:.2f} (r2 = {r2:.3f})")
    print(f"  expected ~ -{tail:.0f} from the data tail")

    flat = H.weighted_mode_series(traj.field_modes, tail, mode=1)
    fslope, _ = H.decay_fit(flat, (15.0, 38.0), mode=1)
    print(f"  tail-matched weighting <t>^{tail:.0f}|z_1| is near-flat: slope {fslope:+.3f}")

    # independent route: the causal field equation with the same forcing
    forcing = traj.snapshots[0].interp(1, traj.times)
    vol = H.solve_volterra(lambda t: H.memory_kernel(cfg.kernel, cfg.profile, 1, t),
                           forcing, dt=cfg.dt, mode=1)
    gap = np.max(np.abs(traj.field_modes.mode(1) - vol.mode(1)))
    print(f"gap to the linear field-equation solve: {gap:.2e} (O(eps) as it should be)")

    ratio = abs(traj.field_modes.mode(1)[-1]) * (1 + t_final ** 2) ** (tail / 2)
    khat0 = float(np.real(H.memory_kernel_transform(cfg.kernel, cfg.profile, 1, 0.0)))
    print(f"late-time amplitude ratio |z_1(T)| <T>^{tail:.0f} = {ratio:.3f} "
          f"vs resolvent constant 1/(1 - Khat(0)) = {1 / (1 - khat0):.3f}")

    mass_drift = np.max(np.abs(traj.mass_series - traj.mass_series[0]))
    l2_drift = np.max(np.abs(traj.l2_series - traj.l2_series[0])) / traj.l2_series[0]
    print(f"\nconservation: mass-mode drift {mass_drift:.1e}, "
          f"full-distribution L2 drift {l2_drift:.1e}")

    res = H.scattering_limit(traj)
    prof_inf = H.weak_limit_profile(res.field, cfg.profile, cfg.epsilon)
    print(f"scattering state g_inf(T) = g(T); corrected background mass = {prof_inf.mass:.8f}")


if __name__ == "__main__":
    main()
