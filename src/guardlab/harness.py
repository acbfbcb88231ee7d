"""Stress-test harness: run loop, divergence calibration, outlier injection,
and paired baseline-vs-guard suite execution on forked workers.

Runs are deterministic in (config, seed) apart from wall-clock fields. Each
run carries its full step log, so telemetry summaries can be recomputed and
cross-checked from the raw records at any time.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from .governor import (
    Governor,
    GuardConfig,
    StepLog,
    TelemetrySample,
    TelemetrySummary,
    probe_rms,
    summarize_records,
)
from .optim import (
    ClipConfig,
    OptimizerConfig,
    OptimizerState,
    ScheduleConfig,
    ScheduleKind,
    adamw_step,
    guarded_step,
    init_optimizer_state,
    schedule_lr,
)
from .rngstream import CounterStream
from .tasks import Batch, Task, evaluate, evaluate_rows, forward_backward, make_task

# The multiple of the initial eval loss above which severe_degradation flags a loss.
DEGRADATION_FACTOR = 2.0

_BATCH_STREAM = 0


class NotStressableError(RuntimeError):
    """No rate on the calibration ladder degrades the probe."""


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    dims: Dict = field(default_factory=dict)

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.dims.items()))))

    def build(self, seed: int) -> Task:
        return make_task(self.kind, dict(self.dims), seed)


@dataclass(frozen=True)
class InjectionSpec:
    """Deterministic outlier schedule: periodic and/or explicit step indices."""

    magnitude: float = 50.0
    period: Optional[int] = 100
    steps: Tuple[int, ...] = ()
    mode: str = "outlier_batch"

    def __post_init__(self):
        if self.magnitude < 1.0:
            raise ValueError("injection magnitude must be >= 1")
        if self.period is not None and self.period < 1:
            raise ValueError("injection period must be >= 1")
        if self.mode not in ("outlier_batch", "gradient_burst"):
            raise ValueError(f"unknown injection mode: {self.mode!r}")

    def scheduled(self, step: int) -> bool:
        if step in self.steps:
            return True
        return self.period is not None and step > 0 and step % self.period == 0


@dataclass(frozen=True)
class RunConfig:
    task: TaskSpec
    opt: OptimizerConfig = OptimizerConfig()
    schedule_kind: ScheduleKind = ScheduleKind.COSINE
    min_lr: float = 0.0
    guard: Optional[GuardConfig] = None
    baseline_marker: bool = False
    clip: Optional[ClipConfig] = None
    steps: int = 1000
    batch_size: int = 32
    eval_every: int = 100
    seed: int = 7
    injection: Optional[InjectionSpec] = None
    label: str = "run"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.eval_every < 1 or self.eval_every > self.steps:
            raise ValueError("eval_every must lie in [1, steps]")
        if self.baseline_marker and self.guard is not None and self.guard.auto_enabled:
            raise ValueError("config conflict: baseline marker with an enabled guard")
        if self.injection is not None:
            bad = [s for s in self.injection.steps if not 0 <= s < self.steps]
            if bad:
                raise ValueError(f"injection steps outside [0, steps): {bad}")

    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(
            base_lr=self.opt.lr,
            total_steps=self.steps,
            min_lr=self.min_lr,
            kind=self.schedule_kind,
        )

    def guard_or_disabled(self) -> GuardConfig:
        if self.guard is not None:
            return self.guard
        return GuardConfig(auto_enabled=False)


@dataclass
class RunResult:
    label: str
    seed: int
    initial_loss: float
    final_loss: float
    final_perplexity: float
    wall_seconds: float
    summary: TelemetrySummary
    eval_trace: List[Tuple[int, float, float]]
    log: StepLog
    params: np.ndarray


@dataclass
class ProbeResult:
    """One rung of a probe ladder: the fields the degradation verdict reads,
    and the rest of what run_training would return for the rung's run.

    losses holds the training loss of every step, and grad_rms the gradient
    RMS that sense takes on every stats_freq step of the probe's disabled
    guard (None where it is non-finite or overflows). wall_seconds is the
    rung's share of the ladder's step loop. A rung kept for its verdict
    only has neither params nor losses.
    """

    lr: float
    initial_loss: float
    final_loss: float
    eval_trace: List[Tuple[int, float, float]]
    params: Optional[np.ndarray]
    final_perplexity: float = math.nan
    losses: Optional[np.ndarray] = None
    grad_rms: List[Optional[float]] = field(default_factory=list)
    wall_seconds: float = 0.0


@dataclass
class ComparisonRow:
    scenario: str
    seed: int
    baseline: Optional[RunResult]
    guarded: Optional[RunResult]
    error: Optional[str] = None


def inject_outliers(batch: Batch, spec: InjectionSpec, step: int) -> Batch:
    """Flag and rescale scheduled batches; off-schedule batches pass through.

    outlier_batch scales the targets before the forward pass; gradient_burst
    only flags the batch, and the run loop scales the gradient after the
    clipping stage (a corruption magnitude clipping cannot remove).
    """
    if not spec.scheduled(step):
        return batch
    if spec.mode == "outlier_batch":
        if np.issubdtype(np.asarray(batch.targets).dtype, np.integer):
            raise ValueError("outlier_batch injection requires real-valued targets")
        return Batch(
            inputs=batch.inputs,
            targets=np.asarray(batch.targets, dtype=float) * spec.magnitude,
            outlier_flag=True,
        )
    return Batch(inputs=batch.inputs, targets=batch.targets, outlier_flag=True)


def _next_batch(
    task: Task, cfg: RunConfig, step: int, stream: CounterStream
) -> Tuple[Batch, float]:
    """The step's batch (injected if scheduled) and its post-clip gradient scale.

    Both depend only on (seed, step), never on params or lr: the batch is
    drawn at counter step of the run's batch stream, as
    sample_batch(task, StreamState(seed, _BATCH_STREAM, step), ...) would,
    except that a full-batch task's one batch needs no stream.
    """
    batch = task.draw_batch(None if task.full_batch else stream.at(step), cfg.batch_size)
    burst = 1.0
    if cfg.injection is not None:
        batch = inject_outliers(batch, cfg.injection, step)
        if cfg.injection.mode == "gradient_burst" and batch.outlier_flag:
            burst = cfg.injection.magnitude
    return batch, burst


def run_training(cfg: RunConfig, out_dir: Optional[Path] = None) -> RunResult:
    """Execute one run: sample -> inject? -> forward/backward -> guarded step."""
    task = cfg.task.build(cfg.seed)
    params = task.init_params()
    opt_state = init_optimizer_state(task.n_params)
    gov = Governor(cfg.guard_or_disabled())
    sched = cfg.schedule()
    stream = CounterStream(cfg.seed, _BATCH_STREAM)

    initial = evaluate(task, params)
    eval_trace: List[Tuple[int, float, float]] = []
    t0 = time.perf_counter()
    for step in range(cfg.steps):
        lr_t = schedule_lr(step, sched)
        batch, burst = _next_batch(task, cfg, step, stream)
        loss, grads = forward_backward(task, params, batch)
        params, opt_state, _ = guarded_step(
            gov, opt_state, params, grads, loss, step, lr_t, cfg.opt, cfg.clip,
            grad_scale=burst,
        )
        if (step + 1) % cfg.eval_every == 0:
            ev = evaluate(task, params)
            eval_trace.append((step + 1, ev.eval_loss, ev.perplexity))
    wall = time.perf_counter() - t0

    final = evaluate(task, params)
    result = RunResult(
        label=cfg.label,
        seed=cfg.seed,
        initial_loss=initial.eval_loss,
        final_loss=final.eval_loss,
        final_perplexity=final.perplexity,
        wall_seconds=wall,
        summary=summarize_records(gov.log.records),
        eval_trace=eval_trace,
        log=gov.log,
        params=params,
    )
    if out_dir is not None:
        write_run_artifacts(result, Path(out_dir))
    return result


def write_run_artifacts(result: RunResult, out_dir: Path) -> Tuple[Path, Path]:
    """One telemetry JSONL and one summary JSON per run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.label}_seed{result.seed}"
    jsonl_path = out_dir / f"{stem}.jsonl"
    with open(jsonl_path, "w", encoding="utf-8") as fh:
        result.log.write_jsonl(fh)
    summary_path = out_dir / f"{stem}_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(result.summary), fh, indent=2)
        fh.write("\n")
    return jsonl_path, summary_path


def severe_degradation(loss: float, initial_loss: float) -> bool:
    """An eval loss is severely degraded when it is non-finite or more than
    DEGRADATION_FACTOR times the run's initial eval loss."""
    return not math.isfinite(loss) or loss > DEGRADATION_FACTOR * initial_loss


def probe_degraded(result: Union[RunResult, ProbeResult], criterion: str) -> bool:
    """peak: any eval checkpoint degraded; final: only the final eval counts
    (non-finite mid-run evals count either way, the run is already dead)."""
    checkpoints = [loss for _, loss, _ in result.eval_trace
                   if criterion == "peak" or not math.isfinite(loss)]
    return any(severe_degradation(loss, result.initial_loss)
               for loss in [*checkpoints, result.final_loss])


def run_probe_ladder(cfg: RunConfig, lrs: Sequence[float]) -> List[ProbeResult]:
    """Baseline runs of cfg at each of lrs, as one program over an lr axis.

    Rung l is bitwise equal to run_training(cfg with opt.lr = lrs[l]) in its
    params, eval trace and losses: the task is built and each batch drawn
    once for every rung (neither depends on lr), params and AdamW moments
    are stacked as (L, n) rows through the elementwise adamw_step, and all
    rungs are evaluated in one eval_loss_rows call. The governor is left
    out: with the guard off and no clip it is the identity on the update.
    What its log reads is kept instead, each step's loss and, on the
    disabled guard's stats steps, what sense takes of each rung's gradient
    after the burst, so replay_rung can write the rung's telemetry.
    """
    guard = cfg.guard_or_disabled()
    if guard.auto_enabled or cfg.clip is not None:
        raise ValueError("a probe ladder runs baseline arms: guard disabled, no clip")
    scheds = [replace(cfg, opt=replace(cfg.opt, lr=lr)).schedule() for lr in lrs]
    task = cfg.task.build(cfg.seed)
    initial = evaluate(task, task.init_params())
    params = np.tile(task.init_params(), (len(lrs), 1))
    opt_state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
    stream = CounterStream(cfg.seed, _BATCH_STREAM)
    traces: List[List[Tuple[int, float, float]]] = [[] for _ in lrs]
    loss_rows = np.empty((len(lrs), cfg.steps))
    rms_rows: List[List[Optional[float]]] = [[] for _ in lrs]
    t0 = time.perf_counter()
    for step in range(cfg.steps):
        lr_t = np.array([[schedule_lr(step, sched)] for sched in scheds])
        batch, burst = _next_batch(task, cfg, step, stream)
        loss_rows[:, step], grads = task.loss_and_grad_rows(params, batch)
        if burst != 1.0:
            grads = grads * burst
        if step % guard.stats_freq == 0:
            for rms, row in zip(rms_rows, grads):
                rms.append(probe_rms(row))
        delta, opt_state = adamw_step(
            opt_state, params, grads, lr_t, cfg.opt, check_finite=False
        )
        params += delta
        if (step + 1) % cfg.eval_every == 0:
            for trace, ev in zip(traces, evaluate_rows(task, params)):
                trace.append((step + 1, ev.eval_loss, ev.perplexity))
    share = (time.perf_counter() - t0) / len(lrs)
    return [
        ProbeResult(
            lr=float(lr),
            initial_loss=initial.eval_loss,
            final_loss=final.eval_loss,
            eval_trace=trace,
            params=row,
            final_perplexity=final.perplexity,
            losses=losses,
            grad_rms=rms,
            wall_seconds=share,
        )
        for lr, trace, row, final, losses, rms in zip(
            lrs, traces, params, evaluate_rows(task, params), loss_rows, rms_rows
        )
    ]


def replay_rung(cfg: RunConfig, rung: ProbeResult, out_dir: Optional[Path] = None) -> RunResult:
    """run_training(cfg, out_dir)'s result, from the ladder rung that already
    ran cfg (see ladder_rung): the rung's losses, gradient RMS and scheduled
    lr go through cfg's disabled governor, which logs them as the run's own
    would. The run's wall_seconds is the rung's share of its ladder's loop.
    """
    gov = Governor(cfg.guard_or_disabled())
    if gov.cfg.auto_enabled:
        raise ValueError("a rung replays a baseline arm: guard disabled")
    sched = cfg.schedule()
    stats_freq = gov.cfg.stats_freq
    for step, loss in enumerate(rung.losses.tolist()):
        grad_rms = rung.grad_rms[step // stats_freq] if step % stats_freq == 0 else None
        # inputs_finite does not reach the log: a disabled guard never skips.
        gov.govern(TelemetrySample(step, loss, grad_rms, schedule_lr(step, sched)), True)
    result = RunResult(
        label=cfg.label,
        seed=cfg.seed,
        initial_loss=rung.initial_loss,
        final_loss=rung.final_loss,
        final_perplexity=rung.final_perplexity,
        wall_seconds=rung.wall_seconds,
        summary=summarize_records(gov.log.records),
        eval_trace=rung.eval_trace,
        log=gov.log,
        params=rung.params,
    )
    if out_dir is not None:
        write_run_artifacts(result, Path(out_dir))
    return result


def probe_config(arm: RunConfig) -> RunConfig:
    """The baseline probe that calibrates arm's rate: arm with guard and clip
    off, eval every tenth of the run, label "calibrate" and a placeholder base
    lr (each ladder rung sets its own). What is left is what a probe's verdict
    depends on, so arms with equal probes share a calibration."""
    return replace(
        arm,
        opt=replace(arm.opt, lr=1.0),
        guard=None,
        baseline_marker=True,
        clip=None,
        eval_every=max(1, arm.steps // 10),
        label="calibrate",
    )


def doubling_ladder(probe: RunConfig, floor: float = 1e-4,
                    max_doublings: int = 20) -> List[ProbeResult]:
    """probe's rungs at the rates floor * 2**k (k up to max_doublings), lowest
    first, all run at once through run_probe_ladder. Probes decay to their
    min_lr, as the runs they calibrate do; rungs below min_lr are left off
    the ladder, since no schedule decays upwards."""
    lrs = [floor * 2.0**k for k in range(max_doublings + 1) if floor * 2.0**k >= probe.min_lr]
    return run_probe_ladder(probe, lrs) if lrs else []


def degrading_lr(rungs: Sequence[ProbeResult], criterion: str = "peak") -> float:
    """The lowest rate among a ladder's rungs, lowest first, whose run degrades.

    criterion="peak" flags degradation at any eval checkpoint within the
    probe run; "final" requires the probe run to end degraded (cosine decay
    can anneal a mid-run excursion away, so "final" needs a probe as long
    as the target run to transfer).
    """
    if criterion not in ("peak", "final"):
        raise ValueError("criterion must be 'peak' or 'final'")
    for rung in rungs:
        if probe_degraded(rung, criterion):
            return rung.lr
    raise NotStressableError("task not stressable: no degrading lr within doubling budget")


def calibrate_divergence_lr(
    task: TaskSpec,
    probe_steps: int = 300,
    seed: int = 7,
    floor: float = 1e-4,
    max_doublings: int = 20,
    criterion: str = "peak",
    injection: Optional[InjectionSpec] = None,
) -> float:
    """degrading_lr of the probe for a probe_steps-long baseline run with
    RunConfig's defaults."""
    arm = RunConfig(
        task=task,
        steps=probe_steps,
        eval_every=probe_steps,
        seed=seed,
        injection=injection,
    )
    return degrading_lr(doubling_ladder(probe_config(arm), floor, max_doublings), criterion)


def config_pair_diff(baseline: RunConfig, guarded: RunConfig) -> List[str]:
    """Field names where a comparison pair differs.

    Pairing integrity requires the diff to be a subset of the
    governance/clipping fields {guard, baseline_marker, clip, label}.
    """
    diffs = []
    for f in dataclasses.fields(RunConfig):
        if getattr(baseline, f.name) != getattr(guarded, f.name):
            diffs.append(f.name)
    return diffs


GOVERNANCE_FIELDS = {"guard", "baseline_marker", "clip", "label"}


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


Item = TypeVar("Item")
Out = TypeVar("Out")


def parallel_map(fn: Callable[[Item], Out], items: Sequence[Item],
                 steps: Callable[[Item], int] = lambda item: item.steps) -> List[Out]:
    """[fn(item) for item in items], run on one forked worker per usable CPU.

    Items start most steps(item) first, so a long one does not finish last
    on its own, and the parent only coordinates. A worker forks from the
    parent, so fn must be a module-level function (it is pickled by
    reference) that looks its callees up when called: it then sees the
    parent's module state, monkeypatches included. With fewer than two
    workers, or without fork, this is the plain loop.
    """
    workers = min(usable_cpus(), len(items))
    if workers >= 2:
        # Imported here: at module load multiprocessing costs ~20 ms of set-up.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                futures = {i: pool.submit(fn, items[i])
                           for i in sorted(range(len(items)), key=lambda i: -steps(items[i]))}
            return [futures[i].result() for i in range(len(items))]
    return [fn(item) for item in items]


def replayable(arm: RunConfig) -> bool:
    """Whether arm is its probe but for its optimizer and label (a baseline
    arm with no guard and no clip that evaluates every tenth of its run), so
    that the rung of its probe's ladder at its rate ran arm itself."""
    return replace(probe_config(arm), opt=arm.opt, label=arm.label) == arm


def ladder_rung(cfg: RunConfig,
                ladders: Mapping[RunConfig, List[ProbeResult]]) -> Optional[ProbeResult]:
    """The rung of cfg's probe in ladders (probe -> rungs) that already ran
    cfg, if any: cfg is replayable and the rung at its rate kept its losses."""
    probe = probe_config(cfg)
    if probe not in ladders or not replayable(cfg):
        return None
    return next((rung for rung in ladders[probe]
                 if rung.lr == cfg.opt.lr and rung.losses is not None), None)


def _run_or_error(
    item: Tuple[RunConfig, Optional[ProbeResult]], out_dir: Optional[Path]
) -> Union[RunResult, str]:
    """run_training(cfg, out_dir) for an item (cfg, None), else replay_rung of
    its rung; or the error text its suite row carries."""
    cfg, rung = item
    try:
        return run_training(cfg, out_dir) if rung is None else replay_rung(cfg, rung, out_dir)
    except Exception as exc:  # noqa: BLE001 - per-row error capture
        return f"{type(exc).__name__}: {exc}"


def run_suite(
    pairs: Sequence[Tuple[str, RunConfig, RunConfig]],
    out_dir: Optional[Path] = None,
    ladders: Optional[Mapping[RunConfig, List[ProbeResult]]] = None,
) -> List[ComparisonRow]:
    """Run (scenario, baseline_cfg, guarded_cfg) pairs and aggregate rows.

    Pairing integrity is asserted up front; per-run errors are recorded on
    the row and the suite continues. Each distinct config runs once, all
    through one parallel_map: a baseline arm that a rung of ladders
    (probe -> rungs) already ran is replayed from it, and every other
    config runs. Rows come back sorted by scenario id.
    """
    if not pairs:
        raise ValueError("run_suite requires at least one pair")
    for scenario, base_cfg, guard_cfg in pairs:
        extra = set(config_pair_diff(base_cfg, guard_cfg)) - GOVERNANCE_FIELDS
        if extra:
            raise ValueError(
                f"pairing integrity violated in {scenario!r}: differs on {sorted(extra)}"
            )
    # A config shared by several pairs (a scenario's guard arm is paired with
    # each clip threshold) runs once.
    configs = list(dict.fromkeys(cfg for _, *arms in pairs for cfg in arms))
    items = [(cfg, ladder_rung(cfg, ladders or {})) for cfg in configs]
    # A replay runs no task: it is short work that fills the pool's tail.
    results = dict(zip(configs, parallel_map(
        partial(_run_or_error, out_dir=out_dir), items,
        steps=lambda item: 0 if item[1] is not None else item[0].steps)))

    rows: List[ComparisonRow] = []
    for scenario, base_cfg, guard_cfg in pairs:
        row = ComparisonRow(scenario=scenario, seed=base_cfg.seed, baseline=None, guarded=None)
        base, guard = results[base_cfg], results[guard_cfg]
        if isinstance(base, str) or isinstance(guard, str):
            row.error = base if isinstance(base, str) else guard
        else:
            row.baseline, row.guarded = base, guard
        rows.append(row)
    rows.sort(key=lambda r: (r.scenario, r.seed))
    return rows


def seed_stats(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    arr = np.asarray(values, dtype=float)
    # Non-finite entries (e.g. overflowed perplexities) legitimately yield
    # inf/nan statistics; suppress the float warnings they would raise.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(arr.mean())
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std
