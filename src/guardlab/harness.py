"""Stress-test harness: run loop, divergence calibration, outlier injection,
and paired baseline-vs-guard suite execution on forked workers.

Runs are deterministic in (config, seed) apart from wall-clock fields.
run_training's result carries the run's full step log; a suite run comes back
from its worker as its summary row (RunRow), and its log is its JSONL. Either
way its telemetry summary can be recomputed from the raw records.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from .governor import (
    Governor,
    GuardConfig,
    StepLog,
    TelemetrySummary,
    summarize_records,
)
from .optim import (
    ClipConfig,
    OptimizerConfig,
    OptimizerState,
    Schedule,
    adamw_step,
    guarded_step,
    init_optimizer_state,
    schedule_lr,
)
from .rngstream import CounterStream
from .tasks import Batch, Task, evaluate, make_task, task_dims

# The multiple of the initial eval loss above which severe_degradation flags a loss.
DEGRADATION_FACTOR = 2.0
# The calibration grid: 1e-4 * 2**k for k = 0..20, lowest first.
LADDER_LRS = tuple(1e-4 * 2.0**k for k in range(21))
# The base lr of a probe, and of a preset scenario's arms before calibration
# sets their rate: at or above every finite min_lr, and read by no arithmetic
# (each ladder rung runs at its own rate).
PROBE_LR = sys.float_info.max

_BATCH_STREAM = 0
# Steps whose batches one Task.draw_batches call draws.
_BATCH_CHUNK = 64


class NotStressableError(RuntimeError):
    """No rate on the calibration ladder degrades the probe."""


@dataclass(frozen=True)
class TaskSpec:
    """A task kind and every one of its dims, the kind's defaults included,
    as task_dims converts them: equal tasks share one calibration."""

    kind: str
    dims: Dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dims", task_dims(self.kind, self.dims))

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.dims.items()))))

    def build(self, seed: int) -> Task:
        return make_task(self.kind, self.dims, seed)


@dataclass(frozen=True)
class InjectionSpec:
    """A gradient burst of magnitude, after the clip, on every period-th step
    after step 0. mode names the one injection kind."""

    magnitude: float = 50.0
    period: int = 100
    mode: str = "gradient_burst"

    def __post_init__(self):
        if not 1.0 <= self.magnitude < math.inf:
            raise ValueError("injection magnitude must be >= 1 and finite")
        if not (isinstance(self.period, int) and self.period >= 1):
            raise ValueError(f"injection period must be an int >= 1, got {self.period!r}")
        if self.mode != "gradient_burst":
            raise ValueError(f"injection mode must be 'gradient_burst', got {self.mode!r}")

    def scheduled(self, step: int) -> bool:
        return step > 0 and step % self.period == 0


@dataclass(frozen=True)
class RunConfig:
    task: TaskSpec
    opt: OptimizerConfig = OptimizerConfig()
    schedule: Schedule = Schedule()
    guard: Optional[GuardConfig] = None
    clip: Optional[ClipConfig] = None
    steps: int = 1000
    batch_size: int = 32
    eval_every: int = 100
    seed: int = 7
    injection: Optional[InjectionSpec] = None
    label: str = "run"

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not self.steps >= 1:
            raise ValueError("steps must be >= 1")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.eval_every <= self.steps:
            raise ValueError("eval_every must lie in [1, steps]")
        if self.injection is not None and not self.injection.period < self.steps:
            raise ValueError(f"injection schedules no step: period >= steps ({self.steps})")
        if not self.schedule.min_lr <= self.opt.lr:
            raise ValueError(f"schedule min_lr {self.schedule.min_lr:g} exceeds lr "
                             f"{self.opt.lr:g}; no schedule decays upwards")

    def guard_or_disabled(self) -> GuardConfig:
        if self.guard is not None:
            return self.guard
        return GuardConfig(auto_enabled=False)


@dataclass
class RunRow:
    """What a suite row reads of a run: the fields of its CSV row."""

    label: str
    seed: int
    initial_loss: float
    final_loss: float
    wall_seconds: float
    summary: TelemetrySummary


@dataclass
class RunResult(RunRow):
    eval_trace: List[Tuple[int, float]]
    log: StepLog
    params: np.ndarray


@dataclass
class ProbeResult:
    """One rung of a probe ladder: the fields the degradation verdict reads,
    and the rung's final params, which the tests hold to run_training's."""

    lr: float
    initial_loss: float
    final_loss: float
    eval_trace: List[Tuple[int, float]]
    params: Optional[np.ndarray]


@dataclass
class ComparisonRow:
    scenario: str
    seed: int
    baseline: Optional[RunRow]
    guarded: Optional[RunRow]
    error: Optional[str] = None


def _batches(task: Task, cfg: RunConfig) -> Iterator[Tuple[Batch, float]]:
    """Each step's batch and its burst, the scale on its gradient after the clip.

    On a step cfg's injection schedules, the burst is its magnitude: a
    corruption that enters past the clipping stage, so no clip can remove it.
    Every other step's burst is 1.0. Both depend only on (seed, step), never on
    params or lr: step's batch is the one at counter step of the run's
    batch stream, as sample_batch(task, StreamState(seed, _BATCH_STREAM,
    step), ...) would draw it. Batches are drawn _BATCH_CHUNK steps at a
    time through Task.draw_batches; a full-batch task, which draws nothing,
    gets no stream.
    """
    stream = None if task.full_batch else CounterStream(cfg.seed, _BATCH_STREAM)
    spec = cfg.injection
    for first in range(0, cfg.steps, _BATCH_CHUNK):
        count = min(_BATCH_CHUNK, cfg.steps - first)
        for step, batch in enumerate(task.draw_batches(stream, first, count, cfg.batch_size),
                                     first):
            yield batch, spec.magnitude if spec is not None and spec.scheduled(step) else 1.0


def run_training(cfg: RunConfig, out_dir: Optional[Path] = None) -> RunResult:
    """Execute one run: sample -> inject? -> forward/backward -> guarded step."""
    task = cfg.task.build(cfg.seed)
    params = task.init_params()
    opt_state = init_optimizer_state(task.n_params)
    gov = Governor(cfg.guard_or_disabled())

    initial_loss = evaluate(task, params)
    eval_trace: List[Tuple[int, float]] = []
    # Loop invariants as locals. params is always a float64 array built
    # here: no forward_backward coercion.
    loss_and_grad = task.loss_and_grad
    opt_cfg, clip, eval_every = cfg.opt, cfg.clip, cfg.eval_every
    steps, schedule, base_lr = cfg.steps, cfg.schedule, cfg.opt.lr
    t0 = time.perf_counter()
    for step, (batch, burst) in enumerate(_batches(task, cfg)):
        lr_t = schedule_lr(step, steps, schedule, base_lr)
        loss, grads = loss_and_grad(params, batch)
        params, opt_state, _ = guarded_step(
            gov, opt_state, params, grads, loss, step, lr_t, opt_cfg, clip,
            grad_scale=burst,
        )
        if (step + 1) % eval_every == 0:
            eval_trace.append((step + 1, evaluate(task, params)))
    wall = time.perf_counter() - t0

    result = RunResult(label=cfg.label, seed=cfg.seed, initial_loss=initial_loss,
                       final_loss=evaluate(task, params), wall_seconds=wall,
                       summary=summarize_records(gov.log.records), eval_trace=eval_trace,
                       log=gov.log, params=params)
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


def probe_degraded(result: Union[RunResult, ProbeResult]) -> bool:
    """The one calibration rule: the final eval is severely degraded, or an
    eval went non-finite on the way (the run is already dead)."""
    checkpoints = [loss for _, loss in result.eval_trace if not math.isfinite(loss)]
    return any(severe_degradation(loss, result.initial_loss)
               for loss in [*checkpoints, result.final_loss])


def run_probe_ladder(cfg: RunConfig, lrs: Sequence[float]) -> List[ProbeResult]:
    """Baseline runs of cfg at each of lrs, as one program over an lr axis.

    Rung l is bitwise equal to run_training(cfg with opt.lr = lrs[l]) in its
    params, eval trace and initial and final loss: the task is built and each
    batch drawn once for every rung (neither depends on lr), each step's
    rates are one schedule_lr call on the (L, 1) column of lrs, params and
    AdamW moments are stacked as (L, n) rows through the elementwise
    adamw_step, and all rungs are evaluated in one eval_loss_rows call. The
    governor is left out: with the guard off and no clip it is the identity
    on the update. An empty lrs is an empty ladder.
    """
    if cfg.guard_or_disabled().auto_enabled or cfg.clip is not None:
        raise ValueError("a probe ladder runs baseline arms: guard disabled, no clip")
    if not lrs:
        return []
    # Each rung's rate, checked as the rate of its rung's RunConfig.
    rates = np.array([[replace(cfg, opt=replace(cfg.opt, lr=lr)).opt.lr] for lr in lrs])
    task = cfg.task.build(cfg.seed)
    initial_loss = evaluate(task, task.init_params())
    params = np.tile(task.init_params(), (len(lrs), 1))
    opt_state = OptimizerState(m=np.zeros_like(params), v=np.zeros_like(params))
    traces: List[List[Tuple[int, float]]] = [[] for _ in lrs]
    for step, (batch, burst) in enumerate(_batches(task, cfg)):
        lr_t = schedule_lr(step, cfg.steps, cfg.schedule, rates)
        _, grads = task.loss_and_grad_rows(params, batch)
        if burst != 1.0:
            grads = grads * burst
        delta, opt_state = adamw_step(opt_state, params, grads, lr_t, cfg.opt)
        params += delta
        if (step + 1) % cfg.eval_every == 0:
            for trace, loss in zip(traces, task.eval_loss_rows(params).tolist()):
                trace.append((step + 1, loss))
    return [
        ProbeResult(lr=float(lr), initial_loss=initial_loss, final_loss=final_loss,
                    eval_trace=trace, params=row)
        for lr, trace, row, final_loss in zip(
            lrs, traces, params, task.eval_loss_rows(params).tolist())
    ]


def probe_config(arm: RunConfig) -> RunConfig:
    """The baseline probe that calibrates arm's rate: arm with guard and clip
    off, eval every tenth of the run, label "calibrate" and base lr PROBE_LR
    (each ladder rung sets its own). What is left is what a probe's verdict
    depends on, so arms with equal probes share a calibration."""
    return replace(
        arm,
        opt=replace(arm.opt, lr=PROBE_LR),
        guard=None,
        clip=None,
        eval_every=max(1, arm.steps // 10),
        label="calibrate",
    )


def doubling_ladder(probe: RunConfig) -> List[ProbeResult]:
    """probe's rungs at the LADDER_LRS rates, lowest first, all run at once
    through run_probe_ladder. Probes decay to their schedule's min_lr, as the
    runs they calibrate do; rungs below min_lr are left off the ladder, since
    no schedule decays upwards."""
    return run_probe_ladder(probe, [lr for lr in LADDER_LRS if lr >= probe.schedule.min_lr])


def degrading_lr(rungs: Sequence[ProbeResult]) -> float:
    """The lowest rate among a ladder's rungs, lowest first, whose run is
    probe_degraded. The verdict reads the end of the run (cosine decay can
    anneal a mid-run excursion away), so a probe is as long as its target."""
    for rung in rungs:
        if probe_degraded(rung):
            return rung.lr
    raise NotStressableError("task not stressable: no degrading lr on the calibration ladder")


def calibrate_divergence_lr(
    task: TaskSpec,
    probe_steps: int = 300,
    seed: int = 7,
    injection: Optional[InjectionSpec] = None,
) -> float:
    """degrading_lr of the probe for a probe_steps-long baseline run with
    RunConfig's defaults."""
    # eval_every only keeps a short arm valid: probe_config sets the probe's own.
    arm = RunConfig(
        task=task,
        steps=probe_steps,
        eval_every=probe_steps,
        seed=seed,
        injection=injection,
    )
    return degrading_lr(doubling_ladder(probe_config(arm)))


# The RunConfig fields on which the two arms of a comparison pair may differ.
GOVERNANCE_FIELDS = {"guard", "clip", "label"}


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


Item = TypeVar("Item")
Out = TypeVar("Out")


def parallel_map(fn: Callable[[Item], Out], items: Sequence[Item],
                 steps: Callable[[Item], int]) -> List[Out]:
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


def _run_or_error(cfg: RunConfig, out_dir: Path) -> Union[RunRow, str]:
    """The RunRow of run_training(cfg, out_dir), whose log stays in the
    worker as the JSONL it wrote; or the error text its suite row carries."""
    try:
        result = run_training(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - per-row error capture
        return f"{type(exc).__name__}: {exc}"
    return RunRow(*(getattr(result, f.name) for f in dataclasses.fields(RunRow)))


def run_suite(
    pairs: Sequence[Tuple[str, RunConfig, RunConfig]], out_dir: Path
) -> List[ComparisonRow]:
    """Run (scenario, baseline_cfg, guarded_cfg) pairs and aggregate rows.

    Pairing integrity is asserted up front; per-run errors are recorded on
    the row and the suite continues. Each distinct config runs once through
    run_training, all in one parallel_map, and writes its JSONL and summary
    under out_dir. Rows hold RunRows and come back sorted by scenario id.
    """
    if not pairs:
        raise ValueError("run_suite requires at least one pair")
    for scenario, base_cfg, guard_cfg in pairs:
        extra = [f.name for f in dataclasses.fields(RunConfig) if f.name not in GOVERNANCE_FIELDS
                 and getattr(base_cfg, f.name) != getattr(guard_cfg, f.name)]
        if extra:
            raise ValueError(f"pairing integrity violated in {scenario!r}: differs on {extra}")
    # A config shared by several pairs (a scenario's guard arm is paired with
    # each clip threshold) runs once.
    configs = list(dict.fromkeys(cfg for _, *arms in pairs for cfg in arms))
    results = dict(zip(configs, parallel_map(partial(_run_or_error, out_dir=out_dir), configs,
                                             steps=lambda cfg: cfg.steps)))

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
