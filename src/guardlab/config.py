"""Suite configuration file: strict parsing, defaulting, and scenario
expansion into paired run configs.

Unknown keys are rejected everywhere, naming the exact key. Every default
is materialized into the echoed configuration for provenance.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .governor import GuardConfig
from .harness import (
    InjectionSpec,
    OptimizerConfig,
    RunConfig,
    TaskSpec,
    calibrate_divergence_lr,
)
from .optim import ClipConfig, ScheduleKind

__all__ = ["SuiteConfig", "ScenarioSpec", "parse_config", "emit_config", "ConfigError"]

GUARD_KEYS = (
    "auto_enabled",
    "stats_freq",
    "stress_threshold",
    "spike_threshold",
    "recovery_fast",
    "ema_decay",
    "use_max_rms",
    "c_min",
    "recovery_confirm",
)
# The single-run section read by `guardlab run`.
RUN_KEYS = ("task", "arm", "lr", "steps", "batch_size", "eval_every", "clip_g", "label")
OPTIMIZER_KEYS = ("lr", "beta1", "beta2", "eps", "weight_decay")
SCHEDULE_KEYS = ("kind", "min_lr")
SCENARIO_KINDS = ("lr_stress", "clip_baseline", "injection", "long_budget", "seed_sweep")
LR_PRESETS = ("aggressive", "moderate", "safe")


class ConfigError(ValueError):
    pass


def _check_keys(section: str, data: dict, allowed: Sequence[str]) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    kind: str
    task: str
    steps: int = 1000
    lr: Union[str, float] = "moderate"
    batch_size: int = 32
    eval_every: int = 100
    clip_g: Tuple[float, ...] = (1.0, 0.5)
    injection: Optional[InjectionSpec] = None


@dataclass(frozen=True)
class SuiteConfig:
    out_dir: str = "results"
    seeds: Tuple[int, ...] = (7, 42, 123)
    tasks: Dict[str, TaskSpec] = field(default_factory=dict)
    optimizer: OptimizerConfig = OptimizerConfig()
    schedule_kind: ScheduleKind = ScheduleKind.COSINE
    min_lr: float = 0.0
    guard: GuardConfig = GuardConfig()
    scenarios: Tuple[ScenarioSpec, ...] = ()
    run: Optional[dict] = None


def _parse_guard(data: dict) -> GuardConfig:
    _check_keys("guard", data, GUARD_KEYS)
    try:
        return GuardConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid guard configuration: {exc}") from exc


def _parse_optimizer(data: dict) -> OptimizerConfig:
    _check_keys("optimizer", data, OPTIMIZER_KEYS)
    try:
        return OptimizerConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid optimizer configuration: {exc}") from exc


def _parse_injection(data: dict) -> InjectionSpec:
    _check_keys("injection", data, ("magnitude", "period", "steps", "mode"))
    if "steps" in data:
        data = dict(data, steps=tuple(data["steps"]))
    try:
        return InjectionSpec(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid injection spec: {exc}") from exc


def _parse_scenario(idx: int, data: dict, tasks: Dict[str, TaskSpec]) -> ScenarioSpec:
    section = f"scenarios[{idx}]"
    _check_keys(
        section,
        data,
        ("name", "kind", "task", "steps", "lr", "batch_size", "eval_every", "clip_g", "injection"),
    )
    kind = data.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"{section}.kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    task = data.get("task")
    if task not in tasks:
        raise ConfigError(f"{section}.task references unknown task {task!r}")
    lr = data.get("lr", "moderate")
    if isinstance(lr, str) and lr not in LR_PRESETS:
        raise ConfigError(f"{section}.lr must be a number or one of {LR_PRESETS}")
    injection = None
    if "injection" in data:
        injection = _parse_injection(data["injection"])
    elif kind == "injection":
        injection = InjectionSpec()
    return ScenarioSpec(
        name=data.get("name", f"{kind}-{task}"),
        kind=kind,
        task=task,
        steps=int(data.get("steps", 5000 if kind == "long_budget" else 1000)),
        lr=lr,
        batch_size=int(data.get("batch_size", 32)),
        eval_every=int(data.get("eval_every", 100)),
        clip_g=tuple(data.get("clip_g", (1.0, 0.5))),
        injection=injection,
    )


def parse_config(source: Union[str, Path, dict]) -> SuiteConfig:
    """Parse and validate a suite configuration from a path or a dict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = dict(source)
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys(
        "root",
        data,
        ("out_dir", "seeds", "tasks", "optimizer", "schedule", "guard", "scenarios", "run"),
    )
    tasks_raw = data.get("tasks", {})
    if not isinstance(tasks_raw, dict):
        raise ConfigError("tasks must be an object")
    tasks: Dict[str, TaskSpec] = {}
    for name, spec in tasks_raw.items():
        _check_keys(f"tasks.{name}", spec, ("kind", "dims"))
        if "kind" not in spec:
            raise ConfigError(f"tasks.{name} is missing required key 'kind'")
        tasks[name] = TaskSpec(kind=spec["kind"], dims=dict(spec.get("dims", {})))

    sched_raw = data.get("schedule", {})
    _check_keys("schedule", sched_raw, SCHEDULE_KEYS)
    try:
        schedule_kind = ScheduleKind(sched_raw.get("kind", "cosine"))
    except ValueError as exc:
        raise ConfigError(f"invalid schedule.kind: {exc}") from exc

    scenarios = tuple(
        _parse_scenario(i, s, tasks) for i, s in enumerate(data.get("scenarios", []))
    )
    run = data.get("run")
    if run is not None:
        if not isinstance(run, dict):
            raise ConfigError("run must be an object")
        _check_keys("run", run, RUN_KEYS)
    try:
        return SuiteConfig(
            out_dir=str(data.get("out_dir", "results")),
            seeds=tuple(int(s) for s in data.get("seeds", (7, 42, 123))),
            tasks=tasks,
            optimizer=_parse_optimizer(data.get("optimizer", {})),
            schedule_kind=schedule_kind,
            min_lr=float(sched_raw.get("min_lr", 0.0)),
            guard=_parse_guard(data.get("guard", {})),
            scenarios=scenarios,
            run=run,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def emit_config(cfg: SuiteConfig) -> dict:
    """Fully defaulted configuration document; parse_config(emit(cfg)) == cfg."""
    scenarios = []
    for s in cfg.scenarios:
        entry = {
            "name": s.name,
            "kind": s.kind,
            "task": s.task,
            "steps": s.steps,
            "lr": s.lr,
            "batch_size": s.batch_size,
            "eval_every": s.eval_every,
            "clip_g": list(s.clip_g),
        }
        if s.injection is not None:
            entry["injection"] = {
                "magnitude": s.injection.magnitude,
                "period": s.injection.period,
                "steps": list(s.injection.steps),
                "mode": s.injection.mode,
            }
        scenarios.append(entry)
    doc = {
        "out_dir": cfg.out_dir,
        "seeds": list(cfg.seeds),
        "tasks": {
            name: {"kind": t.kind, "dims": dict(t.dims)} for name, t in cfg.tasks.items()
        },
        "optimizer": dataclasses.asdict(cfg.optimizer),
        "schedule": {"kind": cfg.schedule_kind.value, "min_lr": cfg.min_lr},
        "guard": dataclasses.asdict(cfg.guard),
        "scenarios": scenarios,
    }
    if cfg.run is not None:
        doc["run"] = cfg.run
    return doc


# Backoff factors from the calibrated aggressive rate. With the doubling
# grid these land well inside (moderate) and far inside (safe) the
# trainable region observed during calibration.
MODERATE_BACKOFF = 32.0
SAFE_BACKOFF = 512.0


def resolve_lr(
    lr: Union[str, float],
    task: TaskSpec,
    opt: OptimizerConfig,
    seeds: Sequence[int],
    schedule_kind: ScheduleKind,
    batch_size: int,
    steps: int = 1000,
    cache: Optional[dict] = None,
    injection: Optional[InjectionSpec] = None,
    min_lr: float = 0.0,
) -> float:
    """Turn an lr preset into a concrete rate via divergence calibration.

    aggressive: the largest per-seed rate whose full-length baseline run
    ends degraded (so it degrades every calibration seed); moderate and
    safe back off from it by fixed factors.
    """
    if not isinstance(lr, str):
        return float(lr)
    if lr not in LR_PRESETS:
        raise ConfigError(f"unknown lr preset: {lr!r} (expected one of {LR_PRESETS})")
    # Every input of the probe runs. The optimizer's base lr is not one: the
    # ladder replaces it on each rung.
    cache_key = (
        task.kind,
        tuple(sorted(task.dims.items())),
        tuple(seeds),
        steps,
        batch_size,
        replace(opt, lr=1.0),
        schedule_kind,
        min_lr,
        injection,
    )
    if cache is not None and cache_key in cache:
        aggressive = cache[cache_key]
    else:
        aggressive = max(
            calibrate_divergence_lr(
                task,
                opt,
                probe_steps=steps,
                seed=s,
                schedule_kind=schedule_kind,
                batch_size=batch_size,
                criterion="final",
                injection=injection,
                min_lr=min_lr,
            )
            for s in seeds
        )
        if cache is not None:
            cache[cache_key] = aggressive
    if lr == "aggressive":
        return aggressive
    if lr == "moderate":
        return aggressive / MODERATE_BACKOFF
    return aggressive / SAFE_BACKOFF


def expand_scenarios(
    cfg: SuiteConfig, cache: Optional[dict] = None
) -> List[Tuple[str, RunConfig, RunConfig]]:
    """Expand every scenario into (scenario_id, baseline_cfg, guarded_cfg) pairs."""
    cache = {} if cache is None else cache
    pairs: List[Tuple[str, RunConfig, RunConfig]] = []
    for scen in cfg.scenarios:
        task = cfg.tasks[scen.task]
        lr = resolve_lr(
            scen.lr,
            task,
            cfg.optimizer,
            cfg.seeds,
            cfg.schedule_kind,
            scen.batch_size,
            steps=scen.steps,
            cache=cache,
            injection=scen.injection,
            min_lr=cfg.min_lr,
        )
        if lr < cfg.min_lr:
            raise ConfigError(
                f"scenario {scen.name!r} resolves lr {scen.lr!r} to {lr:g}, below "
                f"schedule.min_lr {cfg.min_lr:g}; no schedule decays upwards"
            )
        opt = replace(cfg.optimizer, lr=lr)
        for seed in cfg.seeds:
            common = dict(
                task=task,
                opt=opt,
                schedule_kind=cfg.schedule_kind,
                min_lr=cfg.min_lr,
                steps=scen.steps,
                batch_size=scen.batch_size,
                eval_every=scen.eval_every,
                seed=seed,
                injection=scen.injection,
            )
            if scen.kind in ("clip_baseline", "injection"):
                guard_cfg = RunConfig(
                    guard=cfg.guard, label=f"{scen.name}-guard", **common
                )
                for g in scen.clip_g:
                    base_cfg = RunConfig(
                        baseline_marker=True,
                        clip=ClipConfig(g=g),
                        label=f"{scen.name}-clip{g}",
                        **common,
                    )
                    pairs.append((f"{scen.name}/clip_g={g}", base_cfg, guard_cfg))
            else:
                base_cfg = RunConfig(
                    baseline_marker=True, label=f"{scen.name}-baseline", **common
                )
                guard_cfg = RunConfig(guard=cfg.guard, label=f"{scen.name}-guard", **common)
                pairs.append((scen.name, base_cfg, guard_cfg))
    return pairs
