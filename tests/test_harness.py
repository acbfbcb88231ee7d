"""Stress-harness tests: injection, run determinism, calibration, suite plumbing."""

import dataclasses
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from guardlab.config import expand_scenarios, parse_config
from guardlab.governor import GuardConfig
from guardlab.harness import (
    GOVERNANCE_FIELDS,
    LADDER_LRS,
    PROBE_LR,
    ClipConfig,
    InjectionSpec,
    NotStressableError,
    OptimizerConfig,
    ProbeResult,
    RunConfig,
    TaskSpec,
    _BATCH_CHUNK,
    _batches,
    calibrate_divergence_lr,
    degrading_lr,
    probe_degraded,
    run_probe_ladder,
    run_suite,
    run_training,
    severe_degradation,
    write_run_artifacts,
)
from guardlab.optim import Schedule, ScheduleKind, adamw_step, init_optimizer_state, schedule_lr
from guardlab.rngstream import StreamState
from guardlab.tasks import TASK_CLASSES, sample_batch


SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "default_suite.json"
QUAD = TaskSpec(kind="quadratic", dims={"dim": 8, "condition": 100.0, "noise": 0.01})
MLP = TaskSpec(kind="mlp_regression", dims={})


def tiny_run(label="run", seed=7, guard=None, **kw):
    return RunConfig(
        task=MLP,
        opt=OptimizerConfig(lr=1e-3),
        guard=guard,
        steps=40,
        batch_size=8,
        eval_every=20,
        seed=seed,
        label=label,
        **kw,
    )


# --------------------------------------------------------------------------
# _batches: each step's batch and burst
# --------------------------------------------------------------------------


@pytest.mark.parametrize("magnitude", [1.0, 50.0])
def test_batches_burst_on_scheduled_steps_only(magnitude):
    # Step 0 is off the schedule and the multiples of 10 are period steps;
    # the run ends partway into its third chunk of draws.
    steps = 2 * _BATCH_CHUNK + 11
    cfg = replace(tiny_run(injection=InjectionSpec(magnitude=magnitude, period=10)),
                  steps=steps)
    task = cfg.task.build(cfg.seed)
    got = list(_batches(task, cfg))
    assert len(got) == steps
    for step, (batch, burst) in enumerate(got):
        scheduled = step > 0 and step % 10 == 0
        drawn, _ = sample_batch(task, StreamState(cfg.seed, 0, step), cfg.batch_size)
        np.testing.assert_array_equal(batch.inputs, drawn.inputs)
        np.testing.assert_array_equal(batch.targets, drawn.targets)
        assert burst == (magnitude if scheduled else 1.0)


def test_injection_spec_rejects_magnitude_below_one():
    with pytest.raises(ValueError):
        InjectionSpec(magnitude=0.5)


@pytest.mark.parametrize("period", [None, 0])
def test_injection_spec_rejects_a_period_below_one_or_none(period):
    with pytest.raises(ValueError, match="period"):
        InjectionSpec(period=period)


def test_injection_period_skips_step_zero():
    spec = InjectionSpec(magnitude=2.0, period=5)
    assert not spec.scheduled(0)
    assert spec.scheduled(5) and spec.scheduled(10)


# --------------------------------------------------------------------------
# RunConfig and pairing integrity
# --------------------------------------------------------------------------


@pytest.mark.parametrize("period", [40, 100])
def test_runconfig_rejects_an_injection_that_schedules_no_step(period):
    spec = InjectionSpec(period=period)
    with pytest.raises(ValueError, match="schedules no step"):
        tiny_run(injection=spec)
    tiny_run(injection=replace(spec, period=39))


def test_runconfig_rejects_empty_batches():
    # The run loop draws through CounterStream, not sample_batch, so the
    # batch-size check lives in RunConfig: batch_size 0 would give NaN losses.
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig(task=MLP, batch_size=0)


def test_run_suite_runs_a_pair_that_differs_only_on_governance(tmp_path):
    baseline = tiny_run(label="baseline", clip=ClipConfig(g=1.0))
    guarded = tiny_run(label="guard", guard=GuardConfig())
    assert {f.name for f in dataclasses.fields(RunConfig)
            if getattr(baseline, f.name) != getattr(guarded, f.name)} == GOVERNANCE_FIELDS
    (row,) = run_suite([("governed", baseline, guarded)], out_dir=tmp_path)
    assert row.error is None


@pytest.mark.parametrize("field, value", [("seed", 8), ("steps", 60), ("batch_size", 4)])
def test_run_suite_names_the_field_a_pair_must_share(tmp_path, field, value):
    baseline = tiny_run(label="baseline")
    guarded = replace(tiny_run(label="guard", guard=GuardConfig()), **{field: value})
    with pytest.raises(ValueError, match=rf"pairing integrity violated in 'drift': "
                                         rf"differs on \['{field}'\]"):
        run_suite([("drift", baseline, guarded)], out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------------------------
# Run determinism and artifacts
# --------------------------------------------------------------------------


def test_run_training_byte_identical_jsonl(tmp_path):
    cfg = tiny_run(guard=GuardConfig())
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_training(cfg, out_dir=dir_a)
    run_training(cfg, out_dir=dir_b)
    jsonl_a = (dir_a / "run_seed7.jsonl").read_bytes()
    jsonl_b = (dir_b / "run_seed7.jsonl").read_bytes()
    assert jsonl_a == jsonl_b


def test_summary_recomputable_from_jsonl(tmp_path):
    from guardlab.governor import record_from_json_dict, summarize_records

    cfg = tiny_run(guard=GuardConfig())
    result = run_training(cfg, out_dir=tmp_path)
    lines = (tmp_path / "run_seed7.jsonl").read_text().splitlines()
    records = [record_from_json_dict(json.loads(ln)) for ln in lines]
    recomputed = summarize_records(records)
    assert recomputed.control_active_steps == result.summary.control_active_steps
    assert recomputed.regime_switches == result.summary.regime_switches
    assert recomputed.control_energy == pytest.approx(result.summary.control_energy, rel=1e-12)


def test_write_run_artifacts_paths(tmp_path):
    cfg = tiny_run(guard=GuardConfig(), label="demo", seed=3)
    result = run_training(cfg)
    jsonl_path, summary_path = write_run_artifacts(result, tmp_path)
    assert jsonl_path.name == "demo_seed3.jsonl"
    assert summary_path.exists()
    payload = json.loads(summary_path.read_text())
    assert payload["total_steps"] == result.summary.total_steps


# Each GuardConfig field moved away from its default. A field missing here
# fails its case below, so a new knob must move the params to ship.
GUARD_FIELD_AWAY = {
    "auto_enabled": False,
    "stats_freq": 3,
    "stress_threshold": 1.5,
    "spike_threshold": 1.3,
    "recovery_fast": 0.05,
    "ema_decay": 0.9,
    "c_min": 0.9,
}


def _guard_run(guard: GuardConfig) -> tuple:
    """A bursty bigram run's JSONL text and final params bytes."""
    cfg = RunConfig(
        task=TaskSpec(kind="bigram_lm", dims={"alphabet": 8, "corpus_len": 256, "eval_len": 64}),
        opt=OptimizerConfig(lr=1.0),
        guard=guard,
        steps=200,
        eval_every=200,
        seed=7,
        injection=InjectionSpec(magnitude=50.0, period=25, mode="gradient_burst"),
    )
    result = run_training(cfg)
    buf = io.StringIO()
    result.log.write_jsonl(buf)
    return buf.getvalue(), result.params.tobytes()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(GuardConfig)])
def test_every_guard_config_field_changes_the_telemetry(name):
    # A knob that only relabels the log changes the JSONL but not the run:
    # the final params must differ too.
    away_jsonl, away_params = _guard_run(GuardConfig(**{name: GUARD_FIELD_AWAY[name]}))
    jsonl, params = _guard_run(GuardConfig())
    assert away_jsonl != jsonl
    assert away_params != params


def test_the_jsonl_explains_every_posture():
    # Folding select_posture over each line's logged regime, from C_MAX,
    # gives every line's scale: the log alone says why the governor acted.
    # The run visits all three regimes.
    from guardlab.governor import C_MAX, Regime, record_from_json_dict, select_posture

    guard = GuardConfig()
    cfg = RunConfig(
        task=TaskSpec(kind="bigram_lm"),
        opt=OptimizerConfig(lr=13.1072),
        guard=guard,
        steps=200,
        eval_every=200,
        seed=7,
        injection=InjectionSpec(magnitude=50.0, period=25, mode="gradient_burst"),
    )
    buf = io.StringIO()
    run_training(cfg).log.write_jsonl(buf)
    records = [record_from_json_dict(json.loads(ln)) for ln in buf.getvalue().splitlines()]
    assert len(records) == 200
    assert {rec.regime for rec in records} == set(Regime)
    scale = C_MAX
    for rec in records:
        scale = select_posture(rec.regime, scale, guard)
        assert scale == rec.scale, rec.step


def test_run_result_reports_finite_metrics():
    result = run_training(tiny_run())
    assert math.isfinite(result.initial_loss)
    assert math.isfinite(result.final_loss)
    assert result.wall_seconds > 0
    assert len(result.eval_trace) >= 2


# The README's calibrated rates for the shipped presets ("aggressive" on the
# 1000-step probe, and on the probe with bursts).
SHIPPED_STRESS_LRS = {"lr-stress": 13.1072, "outlier-bursts": 6.5536}


@pytest.mark.parametrize("name", list(SHIPPED_STRESS_LRS))
def test_a_guard_run_with_no_skip_is_adamw_on_its_logged_lr_schedule(name):
    # The shipped guard arm, 200 steps long: its overlay is exactly a
    # per-step scale on AdamW's delta. A hand loop of plain AdamW on batches
    # drawn through sample_batch, with the burst applied and each delta
    # scaled as apply_posture does (no multiply at scale 1.0), is the guard
    # run bit for bit. It also holds the run's chunked draw to sample_batch.
    doc = json.loads(SHIPPED.read_text(encoding="utf-8"))
    doc["scenarios"] = [{**scen, "steps": 200, "lr": SHIPPED_STRESS_LRS[name]}
                        for scen in doc["scenarios"] if scen["name"] == name]
    _, _, cfg = expand_scenarios(parse_config(doc))[0]
    result = run_training(cfg)
    records = result.log.records
    assert not any(rec.skipped for rec in records)
    assert sum(rec.active for rec in records) > 150

    task = cfg.task.build(cfg.seed)
    params = task.init_params()
    state = init_optimizer_state(task.n_params)
    rng_state = StreamState(cfg.seed, 0)
    for step, rec in enumerate(records):
        batch, rng_state = sample_batch(task, rng_state, cfg.batch_size)
        loss, grads = task.loss_and_grad(params, batch)
        if cfg.injection is not None and cfg.injection.scheduled(step):
            grads = grads * cfg.injection.magnitude
        lr_t = schedule_lr(step, cfg.steps, cfg.schedule, cfg.opt.lr)
        delta, state = adamw_step(state, params, grads, lr_t, cfg.opt)
        params = params + (delta if rec.scale == 1.0 else rec.scale * delta)
    assert params.tobytes() == result.params.tobytes()
    assert task.eval_loss(params) == result.final_loss


# --------------------------------------------------------------------------
# Degradation and calibration
# --------------------------------------------------------------------------


def test_severe_degradation_factor_of_two():
    assert severe_degradation(2.5, 1.0)
    assert severe_degradation(math.nan, 1.0)
    assert not severe_degradation(2.0, 1.0)
    assert not severe_degradation(0.5, 1.0)


def _rungs(degraded):
    """Hand-built rungs over LADDER_LRS: rung i ends at 3x its initial loss
    where degraded(i), else at half of it."""
    return [ProbeResult(lr=lr, initial_loss=1.0, final_loss=3.0 if degraded(i) else 0.5,
                        eval_trace=[], params=None)
            for i, lr in enumerate(LADDER_LRS)]


def test_calibrate_returns_floor_when_floor_degrades():
    assert degrading_lr(_rungs(lambda i: True)) == LADDER_LRS[0]


def test_calibrate_monotone_bracket():
    # [DERIVED] the returned lr degrades the probe and half of it does not.
    spec = TaskSpec(kind="quadratic", dims={"dim": 4, "condition": 100.0, "noise": 0.0})
    lr = calibrate_divergence_lr(spec, probe_steps=60)

    def probe(rate):
        cfg = RunConfig(
            task=spec,
            opt=OptimizerConfig(lr=rate),
            steps=60,
            batch_size=32,
            eval_every=6,
            seed=7,
            label="probe",
        )
        return probe_degraded(run_training(cfg))

    assert probe(lr)
    assert not probe(lr / 2.0)


def test_calibrate_quadratic_exceeds_stability_bound():
    # Sanity: the divergence lr for a noiseless quadratic sits above the
    # gradient-descent stability bound 2/L (Adam tolerates more than GD).
    spec = TaskSpec(kind="quadratic", dims={"dim": 4, "condition": 100.0, "noise": 0.0})
    lr = calibrate_divergence_lr(spec, probe_steps=60)
    L = 100.0  # largest curvature eigenvalue
    assert lr > 2.0 / L


# --------------------------------------------------------------------------
# Batched probe ladder against the scalar run loop
# --------------------------------------------------------------------------

SMALL_BIGRAM = TaskSpec(kind="bigram_lm", dims={"alphabet": 8, "corpus_len": 256, "eval_len": 64})
NOISELESS_QUAD = TaskSpec(kind="quadratic", dims={"dim": 4, "condition": 100.0, "noise": 0.0})
INJECTIONS = {
    None: None,
    "gradient_burst": InjectionSpec(magnitude=50.0, period=10, mode="gradient_burst"),
}


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _trace_same(a, b) -> bool:
    return len(a) == len(b) and all(
        s == t and _same(loss, ref_loss) for (s, loss), (t, ref_loss) in zip(a, b)
    )


# The schedule each ladder case runs; the cosine schedule decaying to 0 is
# the suite's default and adds no suffix to the id.
SCHEDULES = {
    "": Schedule(),
    "-constant": Schedule(kind=ScheduleKind.CONSTANT),
    "-min_lr": Schedule(min_lr=0.01),
}
LADDER_CASES = [
    (task, injection, schedule)
    for task in (SMALL_BIGRAM, QUAD, MLP)
    for injection in INJECTIONS
    for schedule in SCHEDULES
]


@pytest.mark.parametrize(
    "task,injection,schedule", LADDER_CASES, ids=[f"{t.kind}-{i}{s}" for t, i, s in LADDER_CASES]
)
def test_probe_ladder_rows_bitwise_equal_scalar_runs(task, injection, schedule):
    # The arm's own rate sits at or above every floor; each rung sets its own.
    cfg = RunConfig(
        task=task, opt=OptimizerConfig(lr=PROBE_LR), schedule=SCHEDULES[schedule], steps=40,
        batch_size=16, eval_every=8, seed=3, injection=INJECTIONS[injection], label="probe",
    )
    lrs = [lr for lr in LADDER_LRS if lr >= cfg.schedule.min_lr]
    with np.errstate(all="ignore"):
        rungs = run_probe_ladder(cfg, lrs)
        for rung, lr in zip(rungs, lrs):
            ref = run_training(replace(cfg, opt=replace(cfg.opt, lr=lr)))
            assert rung.lr == lr
            assert rung.params.tobytes() == ref.params.tobytes()
            assert _same(rung.initial_loss, ref.initial_loss)
            assert _same(rung.final_loss, ref.final_loss)
            assert _trace_same(rung.eval_trace, ref.eval_trace)
    # The ladder spans healthy and degraded rungs.
    assert not probe_degraded(rungs[0]) and probe_degraded(rungs[-1])


@pytest.mark.parametrize("kind", sorted(TASK_CLASSES))
def test_an_empty_rate_list_is_an_empty_ladder(kind, monkeypatch):
    def unbuilt(spec, seed):
        raise AssertionError("an empty ladder builds no task")

    monkeypatch.setattr(TaskSpec, "build", unbuilt)
    assert run_probe_ladder(RunConfig(task=TaskSpec(kind=kind), steps=20, eval_every=10), []) == []


def test_probe_ladder_rejects_governed_arms():
    with pytest.raises(ValueError):
        run_probe_ladder(tiny_run(guard=GuardConfig()), [1e-3])
    with pytest.raises(ValueError):
        run_probe_ladder(tiny_run(clip=ClipConfig(g=1.0)), [1e-3])


def _scalar_ladder(results):
    """The rate of the first degraded result, walking LADDER_LRS rung by
    rung, or None if no rung degrades."""
    for lr, result in zip(LADDER_LRS, results):
        if probe_degraded(result):
            return lr
    return None


def _scalar_runs(task, probe_steps, injection=None):
    """The doubling ladder's runs, one run_training each, made as walked."""
    for lr in LADDER_LRS:
        yield run_training(RunConfig(
            task=task, opt=OptimizerConfig(lr=lr), steps=probe_steps, batch_size=32,
            eval_every=max(1, probe_steps // 10), seed=7, injection=injection, label="calibrate",
        ))


@pytest.mark.parametrize("injection", [None, "gradient_burst"])
@pytest.mark.parametrize("task", [SMALL_BIGRAM, NOISELESS_QUAD, MLP], ids=lambda t: t.kind)
def test_calibrate_matches_scalar_reference_ladder(task, injection):
    inj = INJECTIONS[injection]
    with np.errstate(all="ignore"):
        expected = _scalar_ladder(_scalar_runs(task, 60, inj))
        lr = calibrate_divergence_lr(task, probe_steps=60, injection=inj)
    assert expected is not None
    assert lr == expected


def test_calibrate_floor_already_degrades_matches_scalar():
    # The first rung died mid-run, a non-finite eval, though its final eval
    # is finite and low: the ladder stops at its first rate.
    rungs = _rungs(lambda i: i >= 5)
    rungs[0].eval_trace = [(1, math.inf)]
    assert degrading_lr(rungs) == _scalar_ladder(rungs) == LADDER_LRS[0]


def test_calibrate_not_stressable_matches_scalar():
    # A finite mid-run excursion that the final eval recovers from does not
    # degrade a rung, so no rung of this ladder degrades.
    rungs = _rungs(lambda i: False)
    rungs[-1].eval_trace = [(1, 3.0)]
    assert _scalar_ladder(rungs) is None
    with pytest.raises(NotStressableError, match="not stressable"):
        degrading_lr(rungs)


# --------------------------------------------------------------------------
# Logged records
# --------------------------------------------------------------------------


@pytest.mark.parametrize("lr, injection, why", [
    (1e300, None, "the loss and gradient are non-finite"),
    (1e-3, InjectionSpec(magnitude=1e300, period=10, mode="gradient_burst"),
     "the burst leaves the gradient finite but its mean square overflows"),
])
def test_a_baseline_run_logs_a_null_grad_rms_where_its_gradient_is_unusable(lr, injection, why):
    # sense reads the gradient after the burst, on the disabled guard's
    # stats steps (0, 10 and 20 of 30).
    cfg = RunConfig(task=NOISELESS_QUAD, opt=OptimizerConfig(lr=lr),
                    steps=30, batch_size=8, eval_every=3, seed=3, injection=injection,
                    label="baseline")
    with np.errstate(all="ignore"):
        log = run_training(cfg).log
    stats = log.records[::cfg.guard_or_disabled().stats_freq]
    assert [rec.step for rec in stats] == [0, 10, 20]
    assert stats[0].grad_rms is not None and stats[1].grad_rms is stats[2].grad_rms is None, why
    text = io.StringIO()
    log.write_jsonl(text)
    assert '"grad_rms": null' in text.getvalue()


BURSTS = InjectionSpec(magnitude=50.0, period=25)
LOGGED_RUNS = {
    "bigram-guard": lambda: run_training(RunConfig(
        task=SMALL_BIGRAM, opt=OptimizerConfig(lr=1.0), guard=GuardConfig(), steps=100,
        eval_every=100, seed=7, injection=BURSTS)),
    "bigram-clip-bursts": lambda: run_training(RunConfig(
        task=SMALL_BIGRAM, opt=OptimizerConfig(lr=1.0), clip=ClipConfig(g=1.0), steps=100,
        eval_every=100, seed=7, injection=BURSTS)),
    "quadratic-guard": lambda: run_training(replace(
        tiny_run(guard=GuardConfig()), task=QUAD, steps=100, eval_every=100)),
}


@pytest.mark.parametrize("name", list(LOGGED_RUNS))
def test_every_logged_record_has_its_fields_exact_types(name):
    # _jsonl_line writes a line as one f-string only when every value has its
    # field's exact type; an np.float64 writes the same bytes through the
    # slower json.dumps path, so no digest would catch it.
    from guardlab.governor import Regime

    records = LOGGED_RUNS[name]().log.records
    assert len(records) == 100
    for rec in records:
        assert type(rec.step) is int, rec
        assert type(rec.loss) is type(rec.loss_ema) is type(rec.scale) is type(rec.lr) is float, rec
        assert type(rec.regime) is Regime, rec
        assert type(rec.active) is type(rec.skipped) is bool, rec
        assert rec.grad_rms is None or type(rec.grad_rms) is float, rec
    assert any(rec.grad_rms is not None for rec in records)


# --------------------------------------------------------------------------
# Suite and stats
# --------------------------------------------------------------------------


def test_run_suite_runs_a_shared_guard_arm_once(tmp_path, monkeypatch, one_worker):
    import guardlab.harness as harness

    calls = []
    real = harness.run_training

    def counting(cfg, out_dir=None):
        calls.append(cfg.label)
        return real(cfg, out_dir)

    monkeypatch.setattr(harness, "run_training", counting)
    guard = tiny_run(label="burst-guard", guard=GuardConfig())
    pairs = [
        (f"burst/clip_g={g}", tiny_run(label=f"burst-clip{g}", clip=ClipConfig(g=g)), guard)
        for g in (1.0, 0.5)
    ]
    rows = run_suite(pairs, out_dir=tmp_path)
    assert sorted(calls) == ["burst-clip0.5", "burst-clip1.0", "burst-guard"]
    assert all(row.error is None for row in rows)
    assert rows[0].guarded is rows[1].guarded


def test_run_suite_self_comparison_zero_reduction(tmp_path):
    baseline = tiny_run(label="baseline")
    guard_off = tiny_run(label="guard", guard=GuardConfig(auto_enabled=False))
    rows = run_suite([("self", baseline, guard_off)], out_dir=tmp_path)
    assert len(rows) == 1
    row = rows[0]
    assert row.error is None
    # Identical trajectories under the off switch: final losses match exactly.
    assert row.guarded.final_loss == row.baseline.final_loss


def test_run_suite_captures_errors_as_rows(tmp_path):
    # From a finite loss and gradient, this rate and weight decay overflow
    # AdamW's update: the baseline runs on to a NaN loss, and the enabled
    # guard's actuation rejects the non-finite update, which stops its run.
    baseline = RunConfig(task=TaskSpec("bigram_lm"),
                         opt=OptimizerConfig(lr=1e300, weight_decay=0.01),
                         steps=2, eval_every=2, label="baseline")
    guard = replace(baseline, guard=GuardConfig(), label="guard")
    with np.errstate(all="ignore"):
        rows = run_suite([("overflow", baseline, guard)], out_dir=tmp_path)
    assert rows[0].error == "TelemetryError: actuation on non-finite update"
    assert rows[0].baseline is None and rows[0].guarded is None


def test_run_suite_rows_hold_summary_rows_recomputable_from_their_jsonl(tmp_path, workers):
    from guardlab.governor import record_from_json_dict, summarize_records
    from guardlab.harness import RunRow

    guard = tiny_run(label="guard", guard=GuardConfig())
    pairs = [("clip", tiny_run(label="clip", clip=ClipConfig(g=1.0)), guard),
             ("plain", tiny_run(label="baseline"), guard)]
    rows = run_suite(pairs, out_dir=tmp_path)
    for res in (res for row in rows for res in (row.baseline, row.guarded)):
        assert type(res) is RunRow
        assert not hasattr(res, "log") and not hasattr(res, "params")
        with open(tmp_path / f"{res.label}_seed{res.seed}.jsonl", encoding="utf-8") as fh:
            records = [record_from_json_dict(json.loads(line)) for line in fh]
        assert len(records) == guard.steps
        assert res.summary == summarize_records(records), res.label
