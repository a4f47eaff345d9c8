"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) and then asserts, so the suite doubles
as a human-readable checklist.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from scipy.stats import norm

import oracles
from powertrack import (
    ConstantHeight,
    ConstantMean,
    ControlSignal,
    DemandParams,
    Grid,
    JumpSpec,
    Scenario,
    SinusoidMean,
    cumrmse_analytic,
    deterministic_cost,
    first_moment,
    jump_sum_moments,
    minimize_control,
    minimize_control_direct,
    preset,
    run_scenario,
    sample_paths,
    second_moment,
    upwind_solve,
)

TWO_PI = 2.0 * np.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_moments_match_monte_carlo(ps1, ps2, ps3):
    """Mean and second moment at three times for each of three presets: 18
    two-sided gates at |z| < 3, each with a false-failure rate of 0.27%, so a
    family-wise rate of at most 18 * 0.27% = 4.9% (union bound)."""
    times = np.array([0.0, 0.25, 0.5, 1.0])
    ok = True
    details = []
    for label, params in (("PS1", ps1), ("PS2", ps2), ("PS3", ps3)):
        start = time.perf_counter()
        paths = sample_paths(params, times, 100_000, seed=61)
        values = np.stack([p.values for p in paths])
        worst_z = 0.0
        for j, t in enumerate(times[1:], start=1):
            col = values[:, j]
            z_mean = abs(col.mean() - first_moment(params, t)) / oracles.se_mean(col)
            sq = col ** 2
            z_m2 = abs(sq.mean() - second_moment(params, t)) / oracles.se_mean(sq)
            worst_z = max(worst_z, z_mean, z_m2)
        elapsed = time.perf_counter() - start
        ok = ok and worst_z < 3.0 and elapsed < 30.0
        details.append(f"{label}: worst |z|={worst_z:.2f}, {elapsed:.1f}s")
    _report(1, "closed-form moments vs 1e5-path MC", ok, "; ".join(details))
    assert ok


def test_criterion_2_jump_moment_formula():
    """E[S^2] of the decayed jump sum, checked three ways.

    - Exact series: ``jump_sum_moments`` against the Poisson-series oracle
      to a relative 1e-12 in each case.  This check is deterministic.
    - Monte Carlo: 1e6 brute-force draws per case, an independent check of
      the model behind both.  Each case is gated two-sided at
      |z| < norm.isf(alpha_fw / 6) = 4.149, a rate of alpha_fw / 3; the
      three seeds are independent, so the family-wise false-failure rate is
      1 - (1 - alpha_fw / 3)^3 < alpha_fw = 1e-4 (Sidak).
    - Long-span limit: exactly (5, 27.5) for nu = 5, kappa = 1, gamma = 1
      at delta = 800.
    """
    alpha_fw = 1e-4
    z_bound = norm.isf(alpha_fw / 6)
    details, broken = [], []
    for nu, kappa, gamma in ((5.0, 1.0, 1.0), (5.0, 3.0, 1.0), (2.0, 1.0, 2.0)):
        seed = int(100 * nu + 10 * kappa + gamma)
        case = f"(nu={nu:g},k={kappa:g},g={gamma:g},seed={seed})"
        spec = JumpSpec(nu, ConstantHeight(gamma))
        jm = jump_sum_moments(spec, kappa, 1.0)
        series = oracles.jump_sum_second_moment_series(nu, kappa, 1.0, gamma, gamma ** 2)
        rel = abs(jm.second_moment - series) / series
        if not rel <= 1e-12:
            broken.append(f"exact series {case}")
        sums = oracles.decayed_jump_sums(nu, kappa, 1.0, spec.height_law.sample,
                                         1_000_000, seed=seed)
        sq = sums ** 2
        z2 = abs(sq.mean() - jm.second_moment) / oracles.se_mean(sq)
        if not z2 < z_bound:
            broken.append(f"MC {case}")
        details.append(f"{case}: rel err={rel:.1e}, |z|={z2:.2f}")
    limit = jump_sum_moments(JumpSpec(5.0, ConstantHeight(1.0)), 1.0, 800.0)
    if not (limit.second_moment == 27.5 and limit.mean == 5.0):
        broken.append("long-span limit (nu=5,k=1,g=1,delta=800)")
    details.append(f"long-span limit = ({limit.mean:g}, {limit.second_moment:g})")
    details.append(f"|z| bound {z_bound:.3f}")
    ok = not broken
    detail = "; ".join(details)
    if broken:
        detail = f"broke: {', '.join(broken)} | {detail}"
    _report(2, "decayed jump-sum second moment vs exact series and brute force",
            ok, detail)
    assert ok


def test_criterion_3_optimizer_equals_theory(ps1, ps2, ps3, ps_grid):
    sup = 0.0
    for params in (ps1, ps2, ps3):
        it = minimize_control(params, ps_grid)
        direct = minimize_control_direct(params, ps_grid)
        sup = max(sup, float(np.max(np.abs(it.values - direct.values))))
    # analytic gradient of the discretised cost vs central differences
    ct = ps_grid.control_times()
    out_t = ps_grid.output_times()
    w = np.full(out_t.size, ps_grid.dt)
    w[0] = w[-1] = 0.5 * ps_grid.dt
    m = first_moment(ps1, out_t)
    rng = np.random.default_rng(62)
    u = rng.normal(2.0, 1.5, ct.size)
    analytic = 2.0 * w * (u - m)
    h = 1e-6
    worst_rel = 0.0
    for k in range(ct.size):
        up, dn = u.copy(), u.copy()
        up[k] += h
        dn[k] -= h
        fd = (deterministic_cost(ps1, ps_grid, ControlSignal(ct, up)).expected_cost
              - deterministic_cost(ps1, ps_grid, ControlSignal(ct, dn)).expected_cost) / (2 * h)
        worst_rel = max(worst_rel, abs(fd - analytic[k]) / max(abs(analytic[k]), 1e-12))
    ok = sup < 1e-6 and worst_rel < 1e-6
    _report(3, "iterative optimizer vs closed form", ok,
            f"sup|u_iter - u_direct|={sup:.2e}, worst grad rel err={worst_rel:.2e}")
    assert ok


def test_criterion_4_deterministic_demand_tracked_exactly():
    grid = Grid(2.0, 0.5, 5.0)
    profile = SinusoidMean(2.0, 1.0, 0.5 * np.pi)
    u = minimize_control(profile, grid)
    out = upwind_solve(grid, None, u).outflow[grid.delay_steps:]
    target = np.asarray(profile.at(grid.output_times()))
    sup = float(np.max(np.abs(out - target)))
    ok = sup <= 1e-8
    _report(4, "deterministic sine demand tracking", ok,
            f"sup error on [0.5, 5] = {sup:.2e}")
    assert ok


def test_criterion_5_upwind_exactness_and_convergence():
    g1 = Grid(4.0, 0.1, 1.0)
    ct = g1.control_times()
    u = ControlSignal(ct, np.sin(TWO_PI * ct) + 0.5)
    fs = upwind_solve(g1, None, u)
    exact = oracles.exact_shift_output(g1.speed, None, u, g1.times())
    courant1_err = float(np.max(np.abs(fs.outflow - exact)))

    def sup_err(dx):
        g = Grid(4.0, dx, 1.0, courant=0.5)
        t = g.times()
        sig = ControlSignal(t, np.sin(TWO_PI * t))
        solved = upwind_solve(g, None, sig)
        ref = oracles.exact_shift_output(g.speed, None, sig, t)
        mask = t >= 2.0 * g.delay - 1e-12  # past the startup layer
        return float(np.max(np.abs(solved.outflow[mask] - ref[mask])))

    ratio = sup_err(0.05) / sup_err(0.025)
    ok = courant1_err < 1e-12 and 1.6 <= ratio <= 2.4
    _report(5, "upwind exactness and first-order convergence", ok,
            f"Courant-1 err={courant1_err:.2e}, halving ratio={ratio:.2f}")
    assert ok


def test_criterion_6_information_ordering(ps1, ps2, ps3):
    ok = True
    for params in (ps1, ps2, ps3):
        c1 = cumrmse_analytic(params, 4.0, "CM1", 1.0)
        c3 = cumrmse_analytic(params, 4.0, "CM3", 1.0)
        for dtup in (0.05, 0.125, 0.25):
            c2 = cumrmse_analytic(params, 4.0, "CM2", 1.0, update_interval=dtup)
            ok = ok and (c3 < c2 < c1)  # strict since sigma > 0

    def reduction(params):
        c1 = cumrmse_analytic(params, 4.0, "CM1", 1.0)
        c2 = cumrmse_analytic(params, 4.0, "CM2", 1.0, update_interval=0.125)
        return (c1 - c2) / c1

    r1, r2 = reduction(ps1), reduction(ps2)
    ok = ok and r1 > r2
    _report(6, "information ordering of analytic cumRMSE", ok,
            f"CM3 < CM2 < CM1 for all presets; reductions PS1={100 * r1:.1f}% "
            f"> PS2={100 * r2:.1f}%")
    assert ok


def test_criterion_7_update_convergence_on_fixed_path():
    from powertrack import convergence_study

    start = time.perf_counter()
    rows = convergence_study(preset("PS3"), [0.125, 0.075, 0.05, 0.025])
    elapsed = time.perf_counter() - start
    gaps = [r["cumrmse_gap"] for r in rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] <= 1e-5 and elapsed < 60.0
    _report(7, "scheduled control converges to continuous law", ok,
            f"gaps={['%.4g' % g for g in gaps]}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_compensated_jump_level():
    """One two-sided gate at |z| < 3: a false-failure rate of 0.27%."""
    params = DemandParams(kappa=1.0, sigma=0.0, mean=ConstantMean(0.0), y0=0.0,
                          jump=JumpSpec(5.0, ConstantHeight(1.0)))
    end = np.array([p.values[-1]
                    for p in sample_paths(params, [0.0, 10.0], 10_000, seed=63)])
    z = abs(end.mean() - 5.0) / oracles.se_mean(end)
    ok = z < 3.0
    _report(8, "jumps shift the long-run level to gbar*nu/kappa", ok,
            f"mean={end.mean():.4f} vs 5, |z|={z:.2f}")
    assert ok


def test_criterion_9_byte_identical_reruns(tmp_path):
    sc = preset("PS3")
    sc = Scenario(**{**sc.__dict__, "mc_paths": 200})
    from powertrack.experiments import write_convergence

    first = run_scenario(sc, tmp_path / "one")
    second = run_scenario(sc, tmp_path / "two")
    same = all(first[k].read_bytes() == second[k].read_bytes() for k in first)
    schedule_sc = preset("PS1")
    conv_a = write_convergence(schedule_sc, [0.125, 0.025], tmp_path / "ca")
    conv_b = write_convergence(schedule_sc, [0.125, 0.025], tmp_path / "cb")
    same = same and conv_a.read_bytes() == conv_b.read_bytes()
    ok = same
    _report(9, "equal seeds give byte-identical CSVs", ok,
            f"{len(first) + 1} artifacts compared")
    assert ok
