"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with the measured numbers.

Criterion 1 (closed form vs Monte Carlo at 3 standard errors) compares
the exact Poisson-law closed form (``cost.exact_moments``) with the
event-driven Monte Carlo.  The paper's gamma first-passage series is not
its analytical side: that approximation is far from the exact process at
the reference parameters, and fpt-diag (criterion 7) reports by how much.
"""

import json
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from driftinv import GammaSpec, expected_total_cost, truncated_mean
from driftinv.cli import main, run_validation
from driftinv.config import load_config
from driftinv.forecast import TABLE1_GRID, cumulative_cost_profile, run_table_experiment
from driftinv.gammainc import reg_lower_gamma

REFERENCE_ROW = (40.0, 50.0, 1.0, 5.0, 10.0)
REFERENCE_TOTAL = 2108.0


@pytest.fixture(scope="module")
def default_cfg():
    return load_config()


@pytest.fixture(scope="module")
def table_rows(default_cfg):
    return run_table_experiment(default_cfg.experiment, TABLE1_GRID)


def _report(criterion, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state} — {detail}")
    return passed


def test_criterion_1_oracle_equivalence(default_cfg):
    """Exact closed-form E[R_t], E[X_t], E[int R], total cost vs >= 1e5-path
    Monte Carlo within 3 standard errors, the same gate for every quantity."""
    assert default_cfg.n_paths >= 100_000
    t0 = time.time()
    rows = run_validation(default_cfg)
    elapsed = time.time() - t0
    for r in rows:
        print(
            f"  {r['quantity']:>20} t={r['t']:<4g} analytical={r['analytical']:<12.4f} "
            f"mc={r['mc_mean']:<12.4f} stderr={r['mc_stderr']:.5f} limit={r['limit']:.4f} "
            f"-> {r['status']}"
        )
    failures = [r for r in rows if r["status"] == "fail"]
    ok = _report(
        1,
        not failures,
        f"{len(rows) - len(failures)}/{len(rows)} comparisons within 3 stderr "
        f"({elapsed:.0f}s, {default_cfg.n_paths} paths)",
    )
    assert ok, (
        f"{len(failures)} exact closed-form/Monte-Carlo comparisons disagree by "
        f"more than 3 standard errors: "
        + "; ".join(f"{r['quantity']} at t={r['t']:g}" for r in failures)
    )


def test_criterion_2_partial_moment_identity():
    """truncated_mean == mean * P(shape+1, rate t) vs quadrature <= 1e-8
    over a 20-point (spec, t) grid."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        shape = float(rng.uniform(0.5, 40.0))
        rate = float(rng.uniform(0.25, 12.0))
        t = float(rng.uniform(0.05, 3.0) * (shape / rate))
        spec = GammaSpec(shape=shape, rate=rate)

        def integrand(s):
            if s <= 0:
                return 0.0
            return s * np.exp(
                shape * np.log(rate) + (shape - 1) * np.log(s) - rate * s
                - scipy.special.gammaln(shape)
            )

        want, _ = scipy.integrate.quad(integrand, 0.0, t, limit=200)
        closed = spec.mean * reg_lower_gamma(shape + 1.0, rate * t)
        got = truncated_mean(spec, t)
        worst = max(worst, abs(got - want), abs(closed - want))
    ok = _report(2, worst <= 1e-8, f"worst |closed form - quadrature| = {worst:.2e}")
    assert ok


def test_criterion_3_super_linear_growth(default_cfg):
    """total(2t) > 2 total(t) for t in {1..5} on the default config."""
    ratios = []
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        small = expected_total_cost(
            default_cfg.process, default_cfg.policy, default_cfg.costs, t, default_cfg.series
        ).total
        large = expected_total_cost(
            default_cfg.process, default_cfg.policy, default_cfg.costs, 2 * t, default_cfg.series
        ).total
        ratios.append(large / small)
    ok = _report(
        3,
        all(r > 2.0 for r in ratios),
        "total(2t)/total(t) = " + ", ".join(f"{r:.3f}" for r in ratios),
    )
    assert ok


def test_criterion_4_forecast_cost_linearity(default_cfg):
    """Cumulative realized cost over the simulated periods, averaged
    over 1000 series, fits a line with R^2 >= 0.99."""
    exp = default_cfg.experiment
    assert exp.n_series == 1000
    periods, cum = cumulative_cost_profile(exp)
    slope, intercept = np.polyfit(periods, cum, 1)
    resid = cum - (slope * periods + intercept)
    r2 = 1.0 - resid @ resid / ((cum - cum.mean()) @ (cum - cum.mean()))
    ok = _report(4, r2 >= 0.99, f"R^2 = {r2:.6f} (slope {slope:.2f}/period)")
    assert ok


def test_criterion_5_reference_row_reproduction(table_rows):
    """Row (R=40, Q=50, C_h=1, C_o=5, C_so=10) lands within 15% of 2108."""
    row = next(
        r
        for r in table_rows
        if (r.R, r.Q, r.c_h, r.c_o, r.c_so) == REFERENCE_ROW
    )
    rel = abs(row.mean_total - REFERENCE_TOTAL) / REFERENCE_TOTAL
    ok = _report(
        5,
        rel <= 0.15,
        f"mean total {row.mean_total:.1f} vs {REFERENCE_TOTAL:.0f} "
        f"({100 * rel:.2f}% off, stderr {row.stderr_total:.1f})",
    )
    assert ok


def test_criterion_6_table_monotonicity(table_rows):
    """Averaged total nondecreasing in R, Q (within each band), C_o and
    C_so, holding the others fixed, across every slice of the grid."""
    vals = {(r.R, r.Q, r.c_o, r.c_so): r.mean_total for r in table_rows}
    violations = []
    for Q in (50.0, 60.0, 110.0, 120.0):
        for c_o in (5.0, 10.0):
            for c_so in (10.0, 15.0):
                seq = [vals[(R, Q, c_o, c_so)] for R in (40.0, 50.0, 60.0)]
                if not all(b >= a for a, b in zip(seq, seq[1:])):
                    violations.append(("R", Q, c_o, c_so, seq))
    for R in (40.0, 50.0, 60.0):
        for c_o in (5.0, 10.0):
            for c_so in (10.0, 15.0):
                for q_lo, q_hi in ((50.0, 60.0), (110.0, 120.0)):
                    if vals[(R, q_lo, c_o, c_so)] > vals[(R, q_hi, c_o, c_so)]:
                        violations.append(("Q", R, c_o, c_so, (q_lo, q_hi)))
    for R in (40.0, 50.0, 60.0):
        for Q in (50.0, 60.0, 110.0, 120.0):
            for c_so in (10.0, 15.0):
                if vals[(R, Q, 5.0, c_so)] > vals[(R, Q, 10.0, c_so)]:
                    violations.append(("C_o", R, Q, c_so))
            for c_o in (5.0, 10.0):
                if vals[(R, Q, c_o, 10.0)] > vals[(R, Q, c_o, 15.0)]:
                    violations.append(("C_so", R, Q, c_o))
    ok = _report(6, not violations, f"{len(violations)} slice violations across 48 rows")
    assert ok, violations


def test_criterion_7_fpt_report_and_self_consistency(default_cfg, tmp_path):
    """fpt-diag emits KS distances for n = 1..5; two independent
    1e5-path empirical CDFs per threshold differ by KS < 0.01."""
    assert default_cfg.n_paths >= 100_000
    out = tmp_path / "fpt"
    rc = main(["fpt-diag", "--out", str(out)])
    assert rc == 0
    lines = (out / "fpt_ks.csv").read_text().strip().splitlines()
    assert lines[0] == "n,ks_gamma_vs_empirical,ks_batch_self"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    self_ks = [float(r[2]) for r in rows]
    gamma_ks = [float(r[1]) for r in rows]
    print(
        "  KS(gamma, empirical) per n: "
        + ", ".join(f"{v:.4f}" for v in gamma_ks)
        + " (reported, not asserted)"
    )
    ok = _report(
        7,
        max(self_ks) < 0.01,
        f"max batch self-consistency KS = {max(self_ks):.4f} over n=1..5",
    )
    assert ok


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Two runs of any command with identical config produce
    byte-identical CSV outputs (checked on reduced sizes)."""
    cfgfile = tmp_path / "config.json"
    cfgfile.write_text(
        json.dumps(
            {
                "grid": {"t_start": 0.0, "t_end": 4.0, "steps": 9},
                "mc": {"n_paths": 1500, "base_seed": 77},
                "fpt": {"n_values": 2, "t_end": 4.0, "steps": 9},
                "experiment": {"n_series": 4},
            }
        )
    )
    commands = ["expected-cost", "sweep", "simulate", "validate", "fpt-diag", "table1", "compare"]
    mismatched = []
    for command in commands:
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        assert main([command, "--config", str(cfgfile), "--out", str(out_a)]) in (0, 1)
        assert main([command, "--config", str(cfgfile), "--out", str(out_b)]) in (0, 1)
        for f in sorted(out_a.iterdir()):
            if (out_b / f.name).read_bytes() != f.read_bytes():
                mismatched.append(f"{command}/{f.name}")
    ok = _report(8, not mismatched, f"7 commands re-run, {len(mismatched)} byte mismatches")
    assert ok, mismatched
