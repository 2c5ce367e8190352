"""Acceptance suite: every quantitative exit criterion at its stated
tolerance, one PASS/FAIL line per criterion (run with ``pytest -s``).

The canned scenarios under ``scenarios/`` are the entry points; each is
simulated once per session at its configured frame count and pinned seed.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdmqsim.analysis import (error_budget, fit_visibility, prob_from_db, report_json,
                              tomography)
from sdmqsim.config import SimConfig
from sdmqsim.channel import crosstalk_from_db
from sdmqsim.encoder import floor_fraction
from sdmqsim.pipeline import (
    _timebin_components,
    expected_collection_rate,
    run_scenario,
    simulate_bb84,
)
from sdmqsim.protocol import key_rate
from sdmqsim.receiver import dead_time_mask, delay_interferometer_rates
from sdmqsim.scenarios import load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

MEASURED_RATES = {"A": 82_500.0, "B": 82_800.0, "C": 37_200.0}


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"{label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def capacity_run():
    t0 = time.time()
    result = run_scenario(load_scenario(SCENARIOS / "capacity.ini"))
    return result, time.time() - t0


@pytest.fixture(scope="module")
def timebin_b_run():
    return run_scenario(load_scenario(SCENARIOS / "timebin_b.ini"))


@pytest.fixture(scope="module")
def timebin_xt_run():
    return run_scenario(load_scenario(SCENARIOS / "timebin_xt.ini"))


@pytest.fixture(scope="module")
def phase_er_run():
    return run_scenario(load_scenario(SCENARIOS / "phase_er.ini"))


@pytest.fixture(scope="module")
def phase_sweep_run():
    return run_scenario(load_scenario(SCENARIOS / "phase_sweep.ini"))


@pytest.fixture(scope="module")
def bb84_run():
    return run_scenario(load_scenario(SCENARIOS / "bb84.ini"))


@pytest.fixture(scope="module")
def bb84_eve_run():
    return run_scenario(load_scenario(SCENARIOS / "bb84_eve.ini"))


def test_01_single_signal_theoretical_rate(capacity_run):
    result, elapsed = capacity_run
    extra = result.report["extra"]
    analytic = extra["theory_single_signal_cps"]
    mc = extra["mc_single_signal_cps"]
    # analytic product reproduces 110.9 kHz exactly to rounding
    ok_analytic = round(analytic / 100) * 100 == 110_900
    # Monte Carlo within 3 sigma Poisson of the analytic rate at 1e6 frames
    n = result.report["n_frames"]
    expect_counts = analytic * n / 5e6
    sigma = math.sqrt(expect_counts)
    mc_counts = mc * n / 5e6
    ok_mc = abs(mc_counts - expect_counts) <= 3 * sigma
    ok_time = elapsed <= 60.0
    _check(
        "ACCEPT-01",
        ok_analytic and ok_mc and ok_time,
        f"analytic {analytic:.1f} cps (110.9 kHz to rounding: {ok_analytic}), "
        f"MC {mc:.0f} cps ({abs(mc_counts - expect_counts) / sigma:.2f} sigma), "
        f"runtime {elapsed:.1f} s <= 60 s",
    )


def test_02_aggregate_capacity(capacity_run):
    result, _ = capacity_run
    rep = result.report
    # Eq.-product arithmetic from the reported aggregate rate is exact
    from sdmqsim.analysis import capacity_from_counts

    cap_arith = capacity_from_counts(202_600, 64)
    ok_arith = abs(cap_arith - 202_600 * 6) < 1e-6 and round(cap_arith / 1e4) == 122
    # simulated channel lands within 2% of 1.22 Mqubit/s
    cap = rep["capacity_qubits_per_s"]
    ok_cap = abs(cap / 1.22e6 - 1.0) <= 0.02
    # analytic pipeline from the tables within 15% of each measured rate
    analytic = rep["extra"]["analytic_collection_cps"]
    ok_each = {
        sid: abs(analytic[sid] / MEASURED_RATES[sid] - 1.0) <= 0.15
        for sid in MEASURED_RATES
    }
    # the bare tables (no coupling calibration) already predict A and B
    scenario = load_scenario(SCENARIOS / "capacity.ini")
    channel = scenario.channel
    scenario = replace(scenario, signals=tuple(replace(s, excess_db=0.0)
                                               for s in scenario.signals))
    bare = {
        sid: expected_collection_rate(scenario, channel, sid, scenario.experiment.collections[sid])
        for sid in ("A", "B")
    }
    ok_bare = all(abs(bare[s] / MEASURED_RATES[s] - 1.0) <= 0.15 for s in bare)
    _check(
        "ACCEPT-02",
        ok_arith and ok_cap and all(ok_each.values()) and ok_bare,
        f"C_p {cap / 1e6:.4f} Mqubit/s ({(cap / 1.22e6 - 1) * 100:+.2f}% of 1.22), "
        f"analytic/measured: "
        + ", ".join(f"{s} {analytic[s] / MEASURED_RATES[s] - 1:+.1%}" for s in sorted(analytic))
        + f"; bare-table A {bare['A'] / 82500 - 1:+.1%}, B {bare['B'] / 82800 - 1:+.1%}",
    )


def test_03_time_windowing_removes_ac_crosstalk(timebin_b_run):
    rep = timebin_b_run.report
    leaked = rep["extra"]["ac_counts_in_dt2_on_B"]
    xt = rep["xt_db"]["AC_to_B"]
    _check(
        "ACCEPT-03",
        leaked == 0 and math.isinf(xt),
        f"A+C counts in the gated half-window of B's collection with B dark: {leaked} "
        f"over {rep['n_frames']} frames (crosstalk reported: eliminated)",
    )


def test_04_a_c_crosstalk(timebin_xt_run):
    rep = timebin_xt_run.report
    worst = min(abs(v) for v in rep["xt_db"].values())
    ok = worst >= 11.0 and rep["p_xt"] <= 0.08
    _check(
        "ACCEPT-04",
        ok,
        f"|XT| {worst:.2f} dB >= 11 dB, p_XT {rep['p_xt']:.4f} <= 0.08 "
        f"(per collection: { {k: round(v, 2) for k, v in rep['xt_db'].items()} })",
    )


def test_05_snr_calibration(timebin_b_run, timebin_xt_run):
    # B characterized in the main arrangement; A and C in the A-delayed
    # arrangement where each half-window holds a single signal
    snr = {
        "A": timebin_xt_run.report["snr_db_per_signal"]["A"],
        "B": timebin_b_run.report["snr_db_per_signal"]["B"],
        "C": timebin_xt_run.report["snr_db_per_signal"]["C"],
    }
    mean = sum(snr.values()) / 3
    p = prob_from_db(mean)
    ok = abs(mean - 11.3) <= 0.5 and p < 0.075
    _check(
        "ACCEPT-05",
        ok,
        f"average SNR {mean:.2f} dB (11.3 +- 0.5), p_SNR {p:.4f} < 0.075; "
        f"per signal { {k: round(v, 2) for k, v in snr.items()} }",
    )


def test_06_phase_extinction_ratios(phase_er_run):
    rep = phase_er_run.report
    ers = rep["er_db_per_group"]
    in_band = all(5.9 - 0.5 <= v <= 8.9 + 0.5 for v in ers.values())
    ok_mean = abs(rep["er_db_mean"] - 7.3) <= 0.3
    ok_p = abs(rep["p_phi"] - 0.18) <= 0.02
    _check(
        "ACCEPT-06",
        in_band and ok_mean and ok_p,
        f"group ER { {g: round(v, 2) for g, v in ers.items()} } within [5.4, 9.4], "
        f"mean {rep['er_db_mean']:.2f} (7.3 +- 0.3), p_phi {rep['p_phi']:.3f} (0.18 +- 0.02)",
    )


def test_07_visibility_recovery(phase_sweep_run):
    fits = phase_sweep_run.report["visibility"]
    ok_sim = all(abs(fits[s]["visibility"] - 0.93) <= 0.02 for s in ("A", "B"))
    # noiseless synthetic data recovers the parameters to 1e-9
    phases = [k * math.pi / 4 for k in range(8)]
    pts = [(p, 100.0 * (1 + 0.93 * math.cos(p))) for p in phases]
    fit = fit_visibility(pts)
    ok_exact = abs(fit.i0 - 100.0) < 1e-9 and abs(fit.visibility - 0.93) < 1e-9
    _check(
        "ACCEPT-07",
        ok_sim and ok_exact,
        f"fitted V: A {fits['A']['visibility']:.4f}, B {fits['B']['visibility']:.4f} "
        f"(0.93 +- 0.02); noiseless recovery error "
        f"{max(abs(fit.i0 - 100.0), abs(fit.visibility - 0.93)):.2e}",
    )


def test_08_tomography(timebin_b_run, timebin_xt_run):
    rho = {
        "A": timebin_xt_run.report["rho_diag"]["A"],
        "B": timebin_b_run.report["rho_diag"]["B"],
        "C": timebin_xt_run.report["rho_diag"]["C"],
    }
    rho_kk = {
        "A": timebin_xt_run.report["extra"]["rho_kk"]["A"],
        "B": timebin_b_run.report["extra"]["rho_kk"]["B"],
        "C": timebin_xt_run.report["extra"]["rho_kk"]["C"],
    }
    targets = {"A": 0.93, "B": 0.93, "C": 0.96}
    targets_kk = {"A": 0.001, "B": 0.001, "C": 0.0005}
    ok_jj = all(abs(rho[s] - targets[s]) <= 0.02 for s in rho)
    ok_kk = all(
        abs(rho_kk[s] - targets_kk[s]) / targets_kk[s] <= 0.5 for s in rho_kk
    )
    _check(
        "ACCEPT-08",
        ok_jj and ok_kk,
        f"rho_jj { {s: round(v, 3) for s, v in rho.items()} } vs {targets} +- 0.02; "
        f"rho_kk { {s: round(v, 6) for s, v in rho_kk.items()} } vs {targets_kk} +- 50%",
    )


def test_09_error_budget():
    p_s, qber = error_budget(0.08, 0.075, 64)
    ok = round(p_s, 2) == 0.11 and round(qber, 3) == 0.018
    _check(
        "ACCEPT-09",
        ok,
        f"error_budget(0.08, 0.075, 64) = ({p_s:.4f}, {qber:.4f}) -> "
        f"(0.11, 0.018) to two significant figures",
    )


def test_10_protocol_properties(bb84_run, bb84_eve_run):
    rep = bb84_run.report
    n_sift = rep["extra"]["n_sifted"]
    expect = (1 - 0.93) / 2
    tol = 3 * math.sqrt(expect * (1 - expect) / n_sift)
    ok_noeve = abs(rep["qber_sifted"] - expect) <= tol

    rep_e = bb84_eve_run.report
    n_sift_e = rep_e["extra"]["n_sifted"]
    tol_e = 3 * math.sqrt(0.25 * 0.75 / n_sift_e)
    ok_eve = n_sift_e >= 10_000 and abs(rep_e["qber_sifted"] - 0.25) <= tol_e

    r = key_rate(10**6)
    ok_rate = r >= 0.64

    # full oracle with the imperfect interferometer: 0.25 + (1-V)/4
    cfg = SimConfig(seed=77)
    res_v = simulate_bb84(
        cfg, n_frames=400_000, flux=0.5, visibility_cap=0.93, eve=True,
    )
    expect_v = 0.25 + (1 - 0.93) / 4
    tol_v = 3 * math.sqrt(expect_v * (1 - expect_v) / res_v.n_sifted)
    ok_eve_v = abs(res_v.qber - expect_v) <= tol_v

    _check(
        "ACCEPT-10",
        ok_noeve and ok_eve and ok_rate and ok_eve_v,
        f"no-Eve QBER {rep['qber_sifted']:.4f} vs {expect:.4f} +- {tol:.4f} "
        f"({n_sift} sifted); Eve QBER {rep_e['qber_sifted']:.4f} vs 0.25 +- {tol_e:.4f} "
        f"({n_sift_e} sifted); Eve at V=0.93: {res_v.qber:.4f} vs {expect_v:.4f}; "
        f"key rate r(1e6) = {r:.4f} >= 0.64",
    )


def test_11_property_suites():
    gen = np.random.default_rng(20240810)
    n_cases = 1000

    # dead-time gap invariant on random event streams
    ok_dead = True
    for _ in range(n_cases):
        n = int(gen.integers(0, 60))
        t = np.sort(gen.integers(0, 2_000_000, size=n))
        td = int(gen.integers(0, 300_000))
        kept = t[dead_time_mask(t, td)]
        if len(kept) > 1 and np.diff(kept).min() < td:
            ok_dead = False
            break

    # crosstalk column-stochasticity under random dB perturbations
    ok_xt = True
    for _ in range(n_cases):
        db = np.full((5, 5), 0.0)
        for i in range(5):
            for j in range(5):
                db[i, j] = -gen.uniform(0.1, 3) if i == j else -gen.uniform(6, 25)
        xt = crosstalk_from_db(db)
        if not np.allclose(np.sum(xt, axis=0), 1.0, atol=1e-12):
            ok_xt = False
            break

    # photon-number conservation of the rates the samplers draw: a time-bin
    # signal's pulse and floor sum to its mean; the two interferometer
    # ports carry it all, or half of it with one arm blocked
    ok_mu = True
    vcfg = SimConfig()
    for _ in range(n_cases):
        mu = float(gen.uniform(0.01, 5.0))
        if gen.random() < 0.5:
            f = floor_fraction(64, float(gen.uniform(2, 1e5)))
            comps = _timebin_components(vcfg, mu, f, 0, int(gen.integers(0, 64)))
            total, expect = sum(lam for lam, _ in comps), mu
        else:
            arm = ("none", "delay", "direct")[int(gen.integers(0, 3))]
            r = delay_interferometer_rates(
                mu, 64, float(gen.uniform(0, 1)), float(gen.uniform(-7, 7)), arm,
                float(gen.uniform(0, 0.9)),
            )
            total = r.interior_p + r.interior_p_prime + 2 * (r.edge_0 + r.edge_d + r.floor)
            expect = mu if arm == "none" else mu / 2
        if abs(total - expect) > 1e-9 * mu:
            ok_mu = False
            break

    # tomography diagonal normalization
    ok_tomo = True
    for _ in range(n_cases):
        c = int(gen.integers(0, 10**6))
        cf = int(gen.integers(0, 10**6))
        if c + cf == 0:
            continue
        d = int(gen.integers(2, 200))
        res = tomography(c, cf, d=d)
        if abs(res.rho_jj + (d - 1) * res.rho_kk - 1.0) > 1e-12:
            ok_tomo = False
            break

    # determinism: identical config including seed gives identical reports
    ok_det = True
    sc = load_scenario(SCENARIOS / "timebin_b.ini")
    for seed in (1, 2, 3):
        sub = sc.with_overrides(seed=seed, n_frames=2000)
        r1 = report_json(run_scenario(sub).report)
        r2 = report_json(run_scenario(sub).report)
        if r1 != r2:
            ok_det = False
            break

    _check(
        "ACCEPT-11",
        ok_dead and ok_xt and ok_mu and ok_tomo and ok_det,
        f"randomized property suites ({n_cases} cases each): dead-time gap "
        f"{ok_dead}, column stochasticity {ok_xt}, photon conservation {ok_mu}, "
        f"tomography normalization {ok_tomo}, fixed-seed determinism {ok_det}",
    )
