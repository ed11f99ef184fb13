"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
Every tolerance below is the contract value, not a tuned one; the supporting
unit-test files probe the same code paths at finer grain.
"""

import math
import time

import numpy as np
from scipy.signal import argrelmax, hilbert

from oracles import breit_rabi_energies_hz, faddeeva_quadrature

from rbfilter.constants import G_J_GROUND, RB85, RB87
from rbfilter.fitting import MeasuredSpectrum, fit_spectrum, model_transmission
from rbfilter.lineshape import (
    CellConfig,
    default_grid,
    faddeeva,
    susceptibility,
    voigt_profile,
)
from rbfilter.optimize import PAPER_OPTIMUM, optimize, score
from rbfilter.photon_stats import (
    NoiseModel,
    RegionLayout,
    analytic_pair_correlation,
    filtered_preset,
    pair_correlation_summary,
    simulate_frames,
    unfiltered_preset,
)
from rbfilter.propagation import (
    absorption_coefficients,
    cell_transmission,
    faraday_rotation,
    jones_transfer,
    opaque_region_width,
)
from rbfilter.zeeman import build_hamiltonian


def _report(n: int, ok: bool, label: str, detail: str) -> None:
    line = f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _faraday_cell(temperature_k, b_field_t):
    return CellConfig(temperature_k=temperature_k, b_field_t=b_field_t,
                      geometry="longitudinal", rb85_fraction=0.0, rb87_fraction=1.0)


def test_criterion_01_ground_state_eigenvalues_match_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for isotope in (RB85, RB87):
        for b in (1e-4, 1e-3, 1e-2, 1e-1):
            got = np.sort(np.linalg.eigvalsh(build_hamiltonian(isotope, "ground", b)))
            want = breit_rabi_energies_hz(
                isotope.nuclear_spin, isotope.a_ground_mhz, G_J_GROUND, isotope.g_i, b
            )
            worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 1.0
    _report(1, ok, "ground-manifold eigenvalues vs closed form",
            f"worst rel {worst:.2e} (tol 1e-9), {dt:.2f}s (limit 1s)")


def test_criterion_02_faddeeva_matches_quadrature_and_limits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    z = 10 ** rng.uniform(-2, 2, 12000) * np.exp(1j * rng.uniform(0.05, math.pi - 0.05, 12000))
    z = z[z.imag > 1e-3][:10000]
    assert z.size == 10000
    want = faddeeva_quadrature(z)
    rel = float(np.max(np.abs(faddeeva(z) - want) / np.abs(want)))

    sigma = 0.3
    x = np.linspace(-2.5, 2.5, 801)
    gauss = np.exp(-x**2 / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    dev_g = float(np.max(np.abs(voigt_profile(x, 0.0, sigma, 0.0).imag - gauss)) / gauss.max())

    gamma = 0.4
    x = np.linspace(-30, 30, 4001)
    prof = voigt_profile(x, 0.0, 1e-5, gamma)
    lorentz = (gamma / math.pi) / (x**2 + gamma**2)
    disp = -(x / math.pi) / (x**2 + gamma**2)
    dev_l = max(float(np.max(np.abs(prof.imag - lorentz)) / lorentz.max()),
                float(np.max(np.abs(prof.real - disp)) / np.abs(disp).max()))

    dt = time.perf_counter() - t0
    ok = rel < 1e-6 and dev_g < 1e-4 and dev_l < 1e-4 and dt < 10.0
    _report(2, ok, "Faddeeva vs quadrature oracle + profile limits",
            f"1e4 pts rel {rel:.2e} (tol 1e-6), gauss {dev_g:.2e}, "
            f"lorentz {dev_l:.2e} (tol 1e-4), {dt:.1f}s (limit 10s)")


def test_criterion_03_jones_identity_and_rotation_formula():
    grid = default_grid(301, -12.0, 12.0)
    rng = np.random.default_rng(5)
    worst_id = 0.0
    for _ in range(20):
        cell = _faraday_cell(rng.uniform(310.0, 400.0), rng.uniform(1e-3, 5e-2))
        spec = susceptibility(cell, grid)
        out = jones_transfer(spec, grid)[:, :, 0]  # output for x-polarized input
        alpha = absorption_coefficients(spec)
        rhs = 0.5 * (np.exp(-alpha["sigma+"] * cell.length_m)
                     + np.exp(-alpha["sigma-"] * cell.length_m))
        worst_id = max(worst_id, float(np.max(np.abs((np.abs(out) ** 2).sum(axis=1) - rhs))))

    cell = _faraday_cell(341.15, 1e-2)
    spec = susceptibility(cell, grid)
    mean_im = 0.5 * (spec.chi["sigma+"].imag + spec.chi["sigma-"].imag)
    spec.chi["sigma+"] = spec.chi["sigma+"].real + 1j * mean_im
    spec.chi["sigma-"] = spec.chi["sigma-"].real + 1j * mean_im
    theta, t_rot = faraday_rotation(spec, grid)
    got = np.abs(jones_transfer(spec, grid)[:, 1, 0]) ** 2
    dev_rot = float(np.max(np.abs(got - t_rot * np.sin(theta) ** 2)))

    ok = worst_id < 1e-12 and dev_rot < 1e-10
    _report(3, ok, "crossed+parallel vs circular mean; equal-absorption rotation law",
            f"identity dev {worst_id:.2e} (tol 1e-12), rotation dev {dev_rot:.2e} (tol 1e-10)")


def test_criterion_04_absorption_width_grows_with_field():
    t0 = time.perf_counter()
    grid = np.linspace(-15.0, 15.0, 6001)
    widths = []
    for b in np.linspace(5e-3, 0.12, 9):
        cell = CellConfig(temperature_k=333.15, b_field_t=b, geometry="transverse",
                          rb85_fraction=0.985, rb87_fraction=0.015)
        widths.append(opaque_region_width(grid, cell_transmission(cell, grid)))
    dt = time.perf_counter() - t0
    monotone = all(a < b for a, b in zip(widths, widths[1:]))
    lo_ok = abs(widths[0] - 5.5) <= 0.2 * 5.5
    hi_ok = abs(widths[-1] - 8.4) <= 0.2 * 8.4
    ok = monotone and lo_ok and hi_ok and dt < 30.0
    _report(4, ok, "opaque-region width vs field",
            f"{widths[0]:.2f}->{widths[-1]:.2f} GHz over 5-120 mT "
            f"(targets 5.5/8.4 +-20%), monotone={monotone}, {dt:.1f}s (limit 30s)")


def test_criterion_05_reference_operating_point():
    t0 = time.perf_counter()
    fom = score(PAPER_OPTIMUM)
    t_s = fom.signal_transmissions[-2.3]
    t_as = fom.signal_transmissions[7.8]
    min_supp = min(fom.noise_suppressions_db.values())
    dt = time.perf_counter() - t0
    ok = (abs(t_s - 0.65) <= 0.15 and abs(t_as - 0.40) <= 0.15
          and min_supp >= 100.0 and dt < 5.0)
    _report(5, ok, "cascade at the reference operating point",
            f"T(-2.3 GHz)={t_s:.3f} (0.65+-0.15), T(+7.8 GHz)={t_as:.3f} (0.40+-0.15), "
            f"suppression {min_supp:.0f} dB (>=100), {dt:.2f}s (limit 5s)")


def test_criterion_06_transmission_maxima_at_half_turn_rotations():
    grid = np.linspace(-12.0, 12.0, 601)
    step = grid[1] - grid[0]
    worst = 0.0
    counts = []
    for b in (0.04, 0.06, 0.08, 0.10, 0.12):
        cell = _faraday_cell(341.15, b)
        t = cell_transmission(cell, grid)
        theta, t_rot = faraday_rotation(cell, grid)
        selected = [i for i in argrelmax(t, order=2)[0]
                    if t[i] > 0.5 and t_rot[i] > 0.5]
        counts.append(len(selected))
        # positions where twice the rotation angle crosses pi + 2 pi k
        s = 2.0 * theta - math.pi
        crossings = []
        for k in range(int(np.floor(s.min() / (2 * math.pi))) - 1,
                       int(np.ceil(s.max() / (2 * math.pi))) + 2):
            g = s - 2.0 * math.pi * k
            for j in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
                crossings.append(grid[j] + step * g[j] / (g[j] - g[j + 1]))
        crossings = np.asarray(crossings)
        for i in selected:
            worst = max(worst, float(np.min(np.abs(crossings - grid[i]))) / step)
    ok = worst <= 1.0 and all(c >= 2 for c in counts)
    _report(6, ok, "crossed-polarizer maxima at half-turn rotation angles",
            f"5 fields, {counts} maxima, worst offset {worst:.2f} grid steps (<=1)")


def test_criterion_07_photon_statistics_match_analytic_model():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    layout = RegionLayout()
    worst_dev = 0.0
    for k in range(20):
        noise = NoiseModel(
            n_sig=float(rng.uniform(0.05, 1.0)),
            eta_s=float(rng.uniform(0.1, 0.9)),
            eta_as=float(rng.uniform(0.1, 0.9)),
            b_fluorescence=float(rng.uniform(0.0, 0.8)),
            b_leakage=float(rng.uniform(0.0, 0.8)),
            intensifier_per_frame=float(rng.uniform(0.0, 3.0)),
        )
        batch = simulate_frames(100_000, noise, seed=1000 + k, layout=layout)
        s = pair_correlation_summary(batch)
        dev = abs(s["mean_on_pair"] - analytic_pair_correlation(noise, layout))
        worst_dev = max(worst_dev, dev / s["se_on_pair"])

    f_noise, f_layout = filtered_preset()
    c_f = pair_correlation_summary(
        simulate_frames(100_000, f_noise, seed=77, layout=f_layout))["mean_on_pair"]
    u_noise, u_layout = unfiltered_preset()
    u_batch = simulate_frames(100_000, u_noise, seed=78, layout=u_layout)
    c_u = pair_correlation_summary(u_batch)["mean_on_pair"]
    per_frame = (u_batch.n_s.sum() + u_batch.n_as.sum()) / u_batch.n_frames

    dt = time.perf_counter() - t0
    ok = (worst_dev < 3.0 and abs(c_f - 0.38) <= 0.05 and c_u <= 0.05
          and abs(per_frame - 30.0) <= 1.0
          and u_noise.intensifier_per_frame == 1.5 and dt < 60.0)
    _report(7, ok, "Monte Carlo pair correlations vs thinned-thermal formula",
            f"20 models worst {worst_dev:.2f} se (<3), filtered C={c_f:.3f} (0.38+-0.05), "
            f"unfiltered C={c_u:.3f} (<=0.05) at {per_frame:.1f} photons/frame, "
            f"{dt:.0f}s (limit 60s)")


def test_criterion_08_dispersion_consistent_with_absorption():
    grid = np.linspace(-400.0, 400.0, 1 << 17)
    window = np.abs(grid) <= 15.0
    cells = [
        CellConfig(temperature_k=373.15, b_field_t=1e-2, geometry="transverse",
                   rb85_fraction=0.985, rb87_fraction=0.015),
        CellConfig(temperature_k=375.15, b_field_t=1e-2, geometry="longitudinal",
                   rb85_fraction=0.0, rb87_fraction=1.0),
        CellConfig(temperature_k=341.15, b_field_t=6e-2, geometry="longitudinal",
                   rb85_fraction=0.2785, rb87_fraction=0.7215, length_m=0.10),
        CellConfig(temperature_k=393.15, b_field_t=2e-3, geometry="transverse",
                   rb85_fraction=1.0, rb87_fraction=0.0, length_m=0.50),
        CellConfig(temperature_k=353.15, b_field_t=0.12, geometry="transverse",
                   rb85_fraction=0.5, rb87_fraction=0.5),
    ]
    worst = 0.0
    for cell in cells:
        spec = susceptibility(cell, grid)
        for chi in spec.chi.values():
            re_kk = -np.imag(hilbert(chi.imag))
            resid = np.max(np.abs(re_kk[window] - chi.real[window]))
            worst = max(worst, float(resid / np.max(np.abs(chi.real))))
    ok = worst < 0.02
    _report(8, ok, "Hilbert transform of Im chi reproduces Re chi",
            f"5 cells, worst central residual {worst:.2e} of peak (tol 2e-2)")


def test_criterion_09_search_never_below_reference_and_deterministic():
    t0 = time.perf_counter()
    reference = score(PAPER_OPTIMUM).objective
    a = optimize(budget=2000, seed=12345)
    b = optimize(budget=2000, seed=12345)
    dt = time.perf_counter() - t0
    ok = (a.best_objective >= reference
          and a.best_params == b.best_params
          and a.best_objective == b.best_objective
          and dt < 120.0)
    _report(9, ok, "operating-point search dominance and determinism",
            f"best {a.best_objective:.4f} >= reference {reference:.4f}, "
            f"two runs identical={a.best_params == b.best_params}, {dt:.0f}s (limit 120s)")


def test_criterion_10_fit_round_trips():
    grid = np.linspace(-12.0, 12.0, 201)
    template = CellConfig(name="fit", length_m=0.30, temperature_k=373.15,
                          b_field_t=1.0e-2, geometry="transverse",
                          rb85_fraction=0.985, rb87_fraction=0.015)
    truth = model_transmission(template, grid)

    clean = fit_spectrum(MeasuredSpectrum(grid, truth),
                         ["temperature_c", "b_field_mt"],
                         {"temperature_c": 96.0, "b_field_mt": 12.0}, template)
    t_rel = abs(clean.params["temperature_c"] - 100.0) / 100.0
    b_rel = abs(clean.params["b_field_mt"] - 10.0) / 10.0

    rng = np.random.default_rng(8)
    noisy_t = np.clip(truth + rng.normal(0.0, 0.01, truth.size), 0.0, 1.0)
    noisy = fit_spectrum(MeasuredSpectrum(grid, noisy_t),
                         ["temperature_c"], {"temperature_c": 95.0}, template)
    t_noisy_err = abs(noisy.params["temperature_c"] - 100.0)

    ok = t_rel < 0.01 and b_rel < 0.01 and t_noisy_err <= 2.0
    _report(10, ok, "synthetic-spectrum parameter recovery",
            f"noiseless T rel {t_rel:.1e}, B rel {b_rel:.1e} (tol 1e-2); "
            f"1% noise T err {t_noisy_err:.3f} C (tol 2 C)")
