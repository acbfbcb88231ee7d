"""Acceptance suite: twelve criteria, one visible pass/fail line each.

Each criterion prints `[C##] PASS|FAIL — <detail>` directly to the terminal
(bypassing pytest capture) so the verdict lines survive any capture mode.
Criterion 12 is a soft check: its line is printed but it never fails the run.
"""

import io
import json
import math

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from guardlab.governor import (
    Governor,
    GuardConfig,
    record_from_json_dict,
    summarize_records,
)
from guardlab.harness import (
    InjectionSpec,
    OptimizerConfig,
    RunConfig,
    TaskSpec,
    calibrate_divergence_lr,
    run_training,
    seed_stats,
)
from guardlab.optim import (
    ClipConfig,
    adamw_step,
    guarded_step,
    init_optimizer_state,
    schedule_lr,
)
from guardlab.report import result_csv_row
from guardlab.rngstream import StreamState
from guardlab.tasks import forward_backward, make_task, sample_batch
from reference_impl import central_difference_gradient, reference_adamw_trajectory


SEEDS = (7, 42, 123)
BIGRAM = TaskSpec(kind="bigram_lm", dims={})
QUAD = TaskSpec(kind="quadratic", dims={})
MODERATE_BACKOFF = 32.0

# Every RunResult produced by this suite lands here so criteria 5 and 6 can
# sweep the complete set of logged telemetry.
ALL_RUNS = []


def _register(result):
    ALL_RUNS.append(result)
    return result


def verdict(num, ok, detail, soft=False):
    tag = "PASS" if ok else "FAIL"
    if soft and not ok:
        tag = "FAIL (soft, non-blocking)"
    line = f"[C{num:02d}] {tag} — {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    if not soft:
        assert ok, f"criterion {num}: {detail}"


def _guard_cfg():
    return GuardConfig()


def _run(task, seed, lr, steps, label, guard=None, clip=None,
         injection=None, batch_size=32, eval_every=100):
    cfg = RunConfig(
        task=task,
        opt=OptimizerConfig(lr=lr),
        guard=guard,
        clip=clip,
        steps=steps,
        batch_size=batch_size,
        eval_every=eval_every,
        seed=seed,
        injection=injection,
        label=label,
    )
    return _register(run_training(cfg))


# --------------------------------------------------------------------------
# Calibration fixtures (computed once, shared across criteria)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def aggressive_lr():
    # Largest per-seed rate whose full 1000-step baseline run ends degraded.
    return max(
        calibrate_divergence_lr(BIGRAM, probe_steps=1000, seed=s)
        for s in SEEDS
    )


@pytest.fixture(scope="module")
def burst_lr():
    # Same calibration with the outlier injection active, so the injection
    # scenario's "aggressive" rate reflects the corrupted-gradient dynamics.
    spec = InjectionSpec(magnitude=50.0, period=100, mode="gradient_burst")
    return max(
        calibrate_divergence_lr(
            BIGRAM, probe_steps=1000, seed=s, injection=spec
        )
        for s in SEEDS
    )


@pytest.fixture(scope="module")
def stress_runs(aggressive_lr):
    """Criterion-1 scenario: baseline vs guard on bigram at aggressive lr."""
    runs = {}
    for seed in SEEDS:
        runs[seed] = (
            _run(BIGRAM, seed, aggressive_lr, 1000, "stress-baseline"),
            _run(BIGRAM, seed, aggressive_lr, 1000, "stress-guard", guard=_guard_cfg()),
        )
    return runs


@pytest.fixture(scope="module")
def injection_runs(burst_lr):
    """Criterion-2 scenario: guard (no clip) vs two clip-only baselines."""
    spec = InjectionSpec(magnitude=50.0, period=100, mode="gradient_burst")
    runs = {}
    for seed in SEEDS:
        guard = _run(BIGRAM, seed, burst_lr, 1000, "inject-guard",
                     guard=_guard_cfg(), injection=spec)
        clip1 = _run(BIGRAM, seed, burst_lr, 1000, "inject-clip1",
                     injection=spec, clip=ClipConfig(g=1.0))
        clip05 = _run(BIGRAM, seed, burst_lr, 1000, "inject-clip05",
                      injection=spec, clip=ClipConfig(g=0.5))
        runs[seed] = (guard, clip1, clip05)
    return runs


@pytest.fixture(scope="module")
def moderate_runs(aggressive_lr):
    """Criterion-3 scenario: trainable moderate lr, baseline vs guard."""
    lr = aggressive_lr / MODERATE_BACKOFF
    runs = {}
    for seed in SEEDS:
        runs[seed] = (
            _run(BIGRAM, seed, lr, 1000, "moderate-baseline"),
            _run(BIGRAM, seed, lr, 1000, "moderate-guard", guard=_guard_cfg()),
        )
    return runs


@pytest.fixture(scope="module")
def noop_runs():
    """Criterion-10 scenario: benign quadratic at a safe fixed lr."""
    return (
        _run(QUAD, 7, 1e-3, 1000, "noop-baseline"),
        _run(QUAD, 7, 1e-3, 1000, "noop-guard", guard=_guard_cfg()),
    )


@pytest.fixture(scope="module")
def long_run(aggressive_lr):
    """Criterion-11 scenario: 5000-step guarded stress run."""
    return _run(BIGRAM, 7, aggressive_lr, 5000, "long-guard",
                guard=_guard_cfg(), eval_every=500)


# --------------------------------------------------------------------------
# Criteria
# --------------------------------------------------------------------------


def test_c01_trainability_preservation(stress_runs):
    degraded = 0
    rescued = 0
    wall = 0.0
    for seed in SEEDS:
        base, guard = stress_runs[seed]
        wall += base.wall_seconds + guard.wall_seconds
        if not math.isfinite(base.final_loss) or base.final_loss > 2.0 * base.initial_loss:
            degraded += 1
        if guard.final_loss < guard.initial_loss:
            rescued += 1
    ok = degraded == 3 and rescued == 3 and wall < 60.0
    verdict(1, ok,
            f"baseline degraded {degraded}/3, guard improved {rescued}/3, "
            f"runs took {wall:.1f}s (< 60s)")


def test_c02_clipping_insufficiency(injection_runs):
    guard_wins = 0
    strict_not_better = 0
    details = []
    for seed in SEEDS:
        guard, clip1, clip05 = injection_runs[seed]
        best_clip = min(clip1.final_loss, clip05.final_loss)
        if guard.final_loss <= best_clip:
            guard_wins += 1
        if clip05.final_loss >= clip1.final_loss:
            strict_not_better += 1
        details.append(f"seed {seed}: guard {guard.final_loss:.3f} vs "
                       f"clip {best_clip:.3f}")
    ok = guard_wins == 3 and strict_not_better >= 2
    verdict(2, ok,
            f"guard ≤ best clip in {guard_wins}/3 seeds, "
            f"g=0.5 not better than g=1.0 in {strict_not_better}/3; " + "; ".join(details))


def test_c03_moderate_regime_improvement(moderate_runs):
    wins = 0
    trainable = 0
    for seed in SEEDS:
        base, guard = moderate_runs[seed]
        if math.isfinite(base.final_loss) and base.final_loss <= 2.0 * base.initial_loss:
            trainable += 1
        if guard.final_loss <= base.final_loss:
            wins += 1
    ok = trainable == 3 and wins >= 2
    verdict(3, ok, f"baseline trainable {trainable}/3 seeds, guard ≤ baseline in {wins}/3")


def test_c04_off_switch_equivalence():
    mismatched = []
    for kind in ("quadratic", "mlp_regression", "bigram_lm"):
        task = make_task(kind, seed=7)
        params_a = task.init_params()
        params_b = params_a.copy()
        state_a = init_optimizer_state(task.n_params)
        state_b = init_optimizer_state(task.n_params)
        gov = Governor(GuardConfig(auto_enabled=False))
        opt = OptimizerConfig(lr=1e-3)
        sched = RunConfig(task=TaskSpec(kind=kind, dims={}), steps=1000).schedule
        batch_state = StreamState(seed=7, stream=0)
        for step in range(1000):
            lr_t = schedule_lr(step, 1000, sched, opt.lr)
            batch, batch_state = sample_batch(task, batch_state, 32)
            loss, grads = forward_backward(task, params_a, batch)
            params_a, state_a, _ = guarded_step(
                gov, state_a, params_a, grads, loss, step, lr_t, opt
            )
            delta, state_b = adamw_step(state_b, params_b, grads, lr_t, opt)
            params_b = params_b + delta
            if not np.array_equal(params_a, params_b):
                mismatched.append((kind, step))
                break
    ok = not mismatched
    verdict(4, ok,
            "guarded (auto off) and plain AdamW bitwise identical over 1000 steps "
            "on all 3 task kinds" if ok else f"first mismatch: {mismatched}")


def test_c05_bound_invariant(stress_runs, injection_runs, moderate_runs,
                             noop_runs, long_run):
    violations = 0
    total = 0
    c_min = GuardConfig().c_min
    for result in ALL_RUNS:
        for rec in result.log.records:
            total += 1
            if rec.skipped:
                continue
            if not (c_min - 1e-15 <= rec.scale <= 1.0 + 1e-15):
                violations += 1
    ok = violations == 0 and total > 0
    verdict(5, ok, f"{total} logged steps across {len(ALL_RUNS)} runs, "
                   f"{violations} scale-bound violations")


def test_c06_telemetry_consistency(stress_runs, injection_runs, moderate_runs,
                                   noop_runs, long_run):
    bad = 0
    for result in ALL_RUNS:
        buf = io.StringIO()
        result.log.write_jsonl(buf)
        records = [record_from_json_dict(json.loads(ln))
                   for ln in buf.getvalue().splitlines()]
        re_sum = summarize_records(records)
        s = result.summary
        if (re_sum.control_active_steps != s.control_active_steps
                or re_sum.regime_switches != s.regime_switches
                or re_sum.skipped_steps != s.skipped_steps):
            bad += 1
            continue
        denom = max(abs(s.control_energy), 1e-300)
        if abs(re_sum.control_energy - s.control_energy) / denom > 1e-12:
            bad += 1
    ok = bad == 0 and ALL_RUNS
    verdict(6, ok, f"JSONL-recomputed summaries match emitted summaries for "
                   f"{len(ALL_RUNS) - bad}/{len(ALL_RUNS)} runs")


def test_c07_adamw_oracle():
    rng = np.random.default_rng(2024)
    n, steps = 12, 100
    opt = OptimizerConfig(lr=3e-3, weight_decay=0.02)
    params0 = rng.normal(size=n)
    grad_seq = rng.normal(size=(steps, n))
    lr_seq = 3e-3 * (0.5 + rng.uniform(size=steps))
    state = init_optimizer_state(n)
    params = params0.copy()
    ours = []
    for t in range(steps):
        delta, state = adamw_step(state, params, grad_seq[t], lr_seq[t], opt)
        params = params + delta
        ours.append(params.copy())
    theirs = reference_adamw_trajectory(
        params0.tolist(), grad_seq.tolist(), lr_seq.tolist(),
        opt.beta1, opt.beta2, opt.eps, opt.weight_decay,
    )
    max_rel = 0.0
    for t in range(steps):
        ref = np.array(theirs[t])
        max_rel = max(max_rel, float(np.max(np.abs(ours[t] - ref) / np.maximum(np.abs(ref), 1e-300))))
    delta, _ = adamw_step(
        init_optimizer_state(1), np.array([1.0]), np.array([1.0]), 0.1,
        OptimizerConfig(lr=0.1),
    )
    closed_form_err = abs(delta[0] - (-0.1))
    ok = max_rel <= 1e-12 and closed_form_err <= 1e-9
    verdict(7, ok, f"100-step oracle max relative error {max_rel:.2e} (≤ 1e-12), "
                   f"first-step closed form error {closed_form_err:.2e} (≤ 1e-9)")


def test_c08_gradient_oracle():
    worst = 0.0
    for kind in ("quadratic", "mlp_regression", "bigram_lm"):
        task = make_task(kind, seed=5)
        batch, _ = sample_batch(task, StreamState(seed=5, stream=0), 8)
        rng = np.random.default_rng(17)
        n = task.init_params().size
        for _ in range(20):
            x = rng.normal(scale=0.5, size=n)
            _, grad = forward_backward(task, x, batch)

            def f(v):
                loss, _ = forward_backward(task, v, batch)
                return loss

            fd = np.array(central_difference_gradient(f, x.tolist()))
            rel = float(np.linalg.norm(grad - fd)) / max(1.0, float(np.linalg.norm(grad)))
            worst = max(worst, rel)
    ok = worst < 1e-5
    verdict(8, ok, f"FD oracle, 20 points x 3 task kinds, worst relative error "
                   f"{worst:.2e} (< 1e-5)")


def test_c09_determinism(tmp_path):
    cfg = RunConfig(
        task=BIGRAM, opt=OptimizerConfig(lr=0.05), guard=_guard_cfg(),
        steps=120, batch_size=16, eval_every=40, seed=42, label="determinism",
    )
    payloads = []
    for sub in ("a", "b"):
        result = run_training(cfg, out_dir=tmp_path / sub)
        jsonl = (tmp_path / sub / "determinism_seed42.jsonl").read_bytes()
        row = result_csv_row("determinism", "guard", result)
        row.pop("wall_s", None)
        payloads.append((jsonl, row))
    ok = payloads[0] == payloads[1]
    verdict(9, ok, "repeat run gives byte-identical JSONL and identical CSV row "
                   "(wall time excluded)")


def test_c10_stable_noop(noop_runs):
    base, guard = noop_runs
    active = guard.summary.control_active_steps
    identical = np.array_equal(base.params, guard.params)
    ok = active == 0 and identical
    verdict(10, ok, f"benign quadratic at lr 1e-3: control-active steps {active} "
                    f"(= 0), trajectories bitwise equal: {identical}")


def test_c11_long_budget(long_run):
    r = long_run
    c_min = GuardConfig().c_min
    scales_ok = all(
        rec.skipped or c_min - 1e-15 <= rec.scale <= 1.0 + 1e-15
        for rec in r.log.records
    )
    buf = io.StringIO()
    r.log.write_jsonl(buf)
    re_sum = summarize_records(
        [record_from_json_dict(json.loads(ln)) for ln in buf.getvalue().splitlines()]
    )
    telemetry_ok = (
        re_sum.control_active_steps == r.summary.control_active_steps
        and re_sum.regime_switches == r.summary.regime_switches
        and abs(re_sum.control_energy - r.summary.control_energy)
        <= 1e-12 * max(abs(r.summary.control_energy), 1e-300)
    )
    ok = (math.isfinite(r.final_loss) and r.summary.total_steps == 5000
          and scales_ok and telemetry_ok and r.wall_seconds < 120.0)
    verdict(11, ok, f"5000 guarded steps in {r.wall_seconds:.1f}s (< 120s), "
                    f"final loss {r.final_loss:.4f} finite, bounds and telemetry hold")


def test_c12_seed_dispersion_soft(stress_runs):
    base_finals = [stress_runs[s][0].final_loss for s in SEEDS]
    guard_finals = [stress_runs[s][1].final_loss for s in SEEDS]
    finite = all(math.isfinite(v) for v in base_finals + guard_finals)
    if finite:
        _, base_std = seed_stats(base_finals)
        _, guard_std = seed_stats(guard_finals)
        ok = guard_std <= base_std
        detail = (f"guard across-seed std {guard_std:.4f} ≤ baseline std "
                  f"{base_std:.4f} (soft check, 3 seeds)")
    else:
        ok = True
        detail = "baseline finals non-finite; dispersion comparison skipped (soft)"
    verdict(12, ok, detail, soft=True)
