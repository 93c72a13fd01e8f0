"""Fast checks of the benchmark itself: references, workloads at tiny sizes,
tracing that leaves outputs unchanged, and counts that repeat.

Run with `PYTHONPATH=src python -m pytest -q bench`.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from duopoly_invest import paths as program_paths  # noqa: E402
from duopoly_invest.verify import ConditionResult, GridSpec, VerificationReport  # noqa: E402

PRIMS = workloads.PRIMS


def tiny(name, seed=3):
    """Each workload at a size that runs in about a second."""
    if name == "mc_abstain":
        return workloads.McAbstain(seed, n_paths=40, dt=1e-2, horizon=4.0, sample_every=4)
    if name == "catch_up":
        return workloads.CatchUp(seed, n_paths=4, horizon=0.5)
    return workloads.VerifyDynamic(seed, spec=GridSpec(nx=6, nq=4), n_paths=8, dt=0.05,
                                   samples=2)


def test_references_reproduce_golden_constants():
    phi = ref.GOLDEN_RATIO
    assert ref.beta(*PRIMS[:3]) == pytest.approx(phi, rel=1e-15)
    assert ref.p_star(*PRIMS[:3]) == pytest.approx(phi ** 2, rel=1e-14)
    assert ref.BGK_BETA1 == pytest.approx(0.5826, abs=1e-4)
    # At p* the annuity above the trigger is exactly one unit per unit of capital.
    assert ref.abstain_value(100.0, 2.0, 1.0, phi ** 2, *PRIMS) == pytest.approx(2.0, rel=1e-14)


def test_quad_and_brentq_references_match_c0_closed_forms():
    r, mu, sigma, gamma = PRIMS
    be, ps = ref.beta(r, mu, sigma), ref.p_star(r, mu, sigma)
    for q_i, q_mi in [(1.0, 1.0), (0.3, 2.0), (3.0, 0.5)]:
        # c = 0: B is the abstain option coefficient -p^(1-beta) P^beta q_i / ((r-mu) beta).
        closed = -ps ** (1.0 - be) * (q_i + q_mi) ** (-be / gamma) * q_i / ((r - mu) * be)
        assert ref.dynamic_B(q_i, q_mi, 0.0, *PRIMS) == pytest.approx(closed, rel=1e-11)
    for x in (0.5, 3.0, 9.0):
        want = max(0.0, (x / ps) ** gamma - 1.0)
        assert ref.phi(x, 1.0, 0.0, *PRIMS) == pytest.approx(want, abs=1e-12)
        assert ref.psi(x, 0.0, *PRIMS) == pytest.approx(0.5 * (x / ps) ** gamma, abs=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_at_tiny_size_passes_its_checks(name):
    w = tiny(name)
    rounds = [w.run_round(k, check=True) for k in range(2)]
    assert all(r.failed == 0 and r.attempted == w.ops_per_round for r in rounds)
    assert rounds[0].digest != rounds[1].digest
    assert w.finish().problems == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged_and_counts_repeat(name):
    original = program_paths.generate_path
    plain = tiny(name).run_round(0, check=False)
    counts, metrics = [], []
    for _ in range(2):
        w = tiny(name)
        tracer = spans.Tracer(spans.HOOKS)
        tracer.install(callers=(workloads,))
        try:
            traced = w.run_round(0, check=False)
        finally:
            tracer.uninstall()
        assert traced.digest == plain.digest
        counts.append(spans.round_counts(tracer))
        metrics.append(spans.layer_metrics(tracer, counts[-1], 1))
    assert program_paths.generate_path is original
    assert counts[0] == counts[1]
    assert counts[0]["calls"]["paths.generate_path"] > 0
    count_names = [n for n, unit in spans.LAYER_METRICS if unit == "count"]
    assert {n: metrics[0].get(n) for n in count_names} == \
        {n: metrics[1].get(n) for n in count_names}


def test_tracer_bookkeeping_stays_out_of_the_parent_self_time():
    tracer = spans.Tracer({"m.child": lambda *_: time.sleep(0.002)})
    child = tracer._wrap("m.child", lambda: None)
    parent = tracer._wrap("m.parent", lambda: [child() for _ in range(20)])
    parent()
    assert tracer.stats["m.child"].calls == 20
    assert tracer.stats["m.parent"].total_ns >= 20 * 2_000_000
    assert tracer.stats["m.parent"].self_ns < 5_000_000


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_missing_program_source_exits_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_aggregate_law_accepts_grid_and_bridge_monitoring_only():
    r, mu, sigma, gamma = PRIMS
    p, dt, n = ref.p_star(r, mu, sigma), 1e-2, 1000
    rng = np.random.default_rng(5)
    log_x = math.log(0.9 * p * 2.0 ** (1.0 / gamma)) + np.concatenate(
        ([0.0], np.cumsum(sigma * math.sqrt(dt) * rng.standard_normal(n))))
    a, b = log_x[:-1], log_x[1:]
    bridge = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * sigma ** 2 * dt
                                    * np.log1p(-rng.random(n))))
    values = np.exp(log_x)

    def law(log_m):
        return np.maximum(2.0, np.exp(gamma * (log_m - math.log(p))))

    def defect(total):
        return workloads.aggregate_law_defect(values, total, 2.0, p, gamma, sigma, dt)

    grid = law(np.maximum.accumulate(log_x))
    continuous = law(np.concatenate(([log_x[0]], np.maximum.accumulate(bridge))))
    assert grid[-1] > 2.0 and np.max(continuous - grid) > 1e-3
    assert defect(grid) <= 1e-13
    assert defect(continuous) <= 1e-13
    assert defect(grid * (1.0 - 1e-9)) > 1e-13          # below the grid maximum
    assert defect(law(log_x)) > 1e-13                   # no running maximum
    assert defect(law(np.maximum.accumulate(log_x) + 7.0 * sigma * math.sqrt(dt))) > 1e-13


def test_mc_mse_time_uses_the_coupled_bias():
    w = tiny("mc_abstain")
    w.run_round(0, check=True)
    bias = sum(w.gaps) / len(w.gaps)
    assert w.mse_time(2.0) == pytest.approx(2.0 * (bias ** 2 + w.estimates[0].se ** 2))
    assert math.isfinite(bias) and len(w.gaps) == 10


def test_verify_check_counts_the_transversality_verdict_and_fails_on_others():
    w = tiny("verify_dynamic")

    def report(**passed):
        rep = VerificationReport(kind="dynamic")
        for name, ok in passed.items():
            rep.add(ConditionResult(name, 2e-3, (1e-3, 2e-3), 1e-3, ok))
        return rep

    w._check_report(report(pde_equality=True, transversality=False), 1.0, 0)
    assert w.checks.problems == [] and w.transversality_fails == 1
    w._check_report(report(pde_equality=False, transversality=True), 1.0, 1)
    assert w.checks.problems == ["c=1.0 round 1 fails ['pde_equality']"]
