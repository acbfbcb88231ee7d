"""Suite configuration file: strict parsing, defaulting, and scenario
expansion into paired run configs.

Each section is read from the fields of its dataclass, which are the only
statement of the schema: a field with a bool default takes true or false,
one with an int default an integral number, one with a float default a
finite number and one with a str default a string; each string field without
a default names its converter, strict_str, where its section is built.
Unknown keys and malformed values are ConfigErrors naming the section and
key. Every default is materialized into the echoed configuration for
provenance.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .governor import GuardConfig
from .harness import (
    InjectionSpec,
    NotStressableError,
    OptimizerConfig,
    ProbeResult,
    RunConfig,
    TaskSpec,
    degrading_lr,
    doubling_ladder,
    parallel_map,
    probe_config,
    probe_degraded,
    replayable,
)
from .optim import ClipConfig, ScheduleKind
from .tasks import TASK_CLASSES, strict_bool, strict_float, strict_int, strict_str, task_dims

SCENARIO_KINDS = ("lr_stress", "clip_baseline", "injection", "long_budget", "seed_sweep")
# The kinds whose baseline arms clip, one per clip_g threshold.
CLIP_KINDS = ("clip_baseline", "injection")
# Each lr preset's backoff factor from the calibrated aggressive rate. With
# the doubling grid these land well inside (moderate) and far inside (safe)
# the trainable region observed during calibration.
PRESET_BACKOFF = {"aggressive": 1.0, "moderate": 32.0, "safe": 512.0}
LR_PRESETS = tuple(PRESET_BACKOFF)
# A preset's probe must end degraded; see harness.degrading_lr.
CALIBRATION_CRITERION = "final"
# The converter of a field by the type of its default: None defaults have
# none, and a converter given to _build takes precedence.
_DEFAULT_CONVERTERS = {bool: strict_bool, int: strict_int, float: strict_float, str: strict_str}


class ConfigError(ValueError):
    pass


def _object(section: str, data) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object, got {data!r}")
    return data


def _build(section: str, cls, data, validate=None, **convert):
    """cls from the JSON object data, whose keys must be fields of cls.

    Each value passes through convert[key] when given, else through the
    converter of its field's default type, and validate, when given, checks
    the built object. Any error in a value, in validate or in cls's own
    checks is a ConfigError naming the section.
    """
    fields = dataclasses.fields(cls)
    allowed = [f.name for f in fields]
    convert = {**{f.name: _DEFAULT_CONVERTERS[type(f.default)] for f in fields
                  if type(f.default) in _DEFAULT_CONVERTERS}, **convert}
    kwargs = {}
    for key, value in _object(section, data).items():
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")
        try:
            kwargs[key] = convert[key](value) if key in convert else value
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {key!r} in section {section!r}: {exc}") from exc
    try:
        obj = cls(**kwargs)
        if validate is not None:
            validate(obj)
        return obj
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {section!r}: {exc}") from exc


def _optional(convert):
    """convert, passing None through."""
    return lambda value: None if value is None else convert(value)


def _unique(what: str, values: Iterable, key=lambda value: value) -> tuple:
    values = tuple(values)
    keys = [key(value) for value in values]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ConfigError(f"duplicate {what}: {k!r}")
    return values


def _check_file_stem(what: str, value: str) -> None:
    """value goes into run file names, so it must not leave the runs directory."""
    if "/" in value or "\\" in value:
        raise ValueError(f"{what} must not contain '/' or '\\', got {value!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    kind: str
    task: str
    steps: int = RunConfig.steps
    lr: Union[str, float] = "moderate"
    batch_size: int = RunConfig.batch_size
    eval_every: int = RunConfig.eval_every
    clip_g: Tuple[float, ...] = (1.0, 0.5)
    injection: Optional[InjectionSpec] = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if not isinstance(self.lr, (int, float)) and self.lr not in LR_PRESETS:
            raise ValueError(f"lr must be a number or one of {LR_PRESETS}, got {self.lr!r}")
        for g in self.clip_g:
            ClipConfig(g=g)
        if self.kind in CLIP_KINDS and not self.clip_g:
            raise ValueError(f"clip_g must hold a threshold for kind {self.kind!r}")
        _check_file_stem("name", self.name)


@dataclass(frozen=True)
class RunSection:
    """The run `guardlab run` executes. lr None is the optimizer's rate, and
    clip_g None runs unclipped."""

    task: str
    label: str
    arm: str = "guard"
    lr: Optional[float] = None
    steps: int = RunConfig.steps
    batch_size: int = RunConfig.batch_size
    eval_every: int = RunConfig.eval_every
    clip_g: Optional[float] = None

    def __post_init__(self):
        if self.arm not in ("guard", "baseline"):
            raise ValueError(f"arm must be 'guard' or 'baseline', got {self.arm!r}")
        _check_file_stem("label", self.label)


@dataclass(frozen=True)
class ScheduleSection:
    kind: ScheduleKind = ScheduleKind.COSINE
    min_lr: float = 0.0


@dataclass(frozen=True)
class SuiteConfig:
    out_dir: str = "results"
    seeds: Tuple[int, ...] = (7, 42, 123)
    tasks: Dict[str, TaskSpec] = field(default_factory=dict)
    optimizer: OptimizerConfig = OptimizerConfig()
    schedule: ScheduleSection = ScheduleSection()
    guard: GuardConfig = GuardConfig()
    scenarios: Tuple[ScenarioSpec, ...] = ()
    run: Optional[RunSection] = None


def _parse_seeds(seeds) -> Tuple[int, ...]:
    seeds = _unique("seed", (strict_int(s) for s in seeds))
    if not seeds:
        raise ValueError("at least one seed is required")
    return seeds


def _parse_task(name: str, data) -> TaskSpec:
    """The task, holding its given dims as converted, so that its echo, its
    cache key and the task it builds agree."""
    spec = _build(
        f"tasks.{name}", TaskSpec, data, kind=strict_str, dims=dict,
        validate=lambda t: task_dims(t.kind, t.dims),
    )
    dims = task_dims(spec.kind, spec.dims)
    return replace(spec, dims={key: dims[key] for key in spec.dims})


def _scenario_fields(scen: ScenarioSpec, tasks: Dict[str, TaskSpec]) -> dict:
    """The RunConfig fields that every arm of scen shares."""
    return dict(task=tasks[scen.task], steps=scen.steps, batch_size=scen.batch_size,
                eval_every=scen.eval_every, injection=scen.injection)


def _scenario_lr(value) -> Union[str, float]:
    """A preset name as given, or a rate, which must be a positive number."""
    if isinstance(value, str):
        return value
    lr = strict_float(value)
    if lr <= 0.0:
        raise ValueError(f"lr must be > 0, got {value!r}")
    return lr


def _parse_scenario(idx: int, data, tasks: Dict[str, TaskSpec]) -> ScenarioSpec:
    section = f"scenarios[{idx}]"
    kind, task = _object(section, data).get("kind"), data.get("task")
    defaults = {"name": f"{kind}-{task}"}
    if kind == "long_budget":
        defaults["steps"] = 5000
    elif kind == "injection":
        defaults["injection"] = {}

    def validate(scen: ScenarioSpec) -> None:
        if scen.task not in tasks:
            raise ConfigError(f"{section}.task references unknown task {scen.task!r}")
        task_kind = tasks[scen.task].kind
        if (scen.injection is not None and scen.injection.mode == "outlier_batch"
                and TASK_CLASSES[task_kind].integer_targets):
            raise ConfigError(
                f"scenario {scen.name!r}: injection mode 'outlier_batch' scales batch targets, "
                f"and task kind {task_kind!r} has integer targets; use 'gradient_burst'"
            )
        RunConfig(**_scenario_fields(scen, tasks))

    return _build(
        section, ScenarioSpec, {**defaults, **data}, validate=validate,
        name=strict_str, kind=strict_str, task=strict_str, lr=_scenario_lr,
        clip_g=lambda g: _unique("clip_g", (strict_float(x) for x in g)),
        injection=lambda d: _build(f"{section}.injection", InjectionSpec, d,
                                   period=_optional(strict_int),
                                   steps=lambda s: tuple(strict_int(step) for step in s)),
    )


def _parse_run(data, cfg: SuiteConfig) -> RunSection:
    """The run section, checked by building its RunConfig in the suite cfg."""
    label = f"run-{_object('run', data).get('task')}-{data.get('arm', RunSection.arm)}"
    return _build(
        "run", RunSection, {"label": label, **data},
        validate=lambda run: run_config(replace(cfg, run=run), seed=0).schedule(),
        task=strict_str, label=strict_str, lr=_optional(strict_float),
        clip_g=_optional(strict_float),
    )


def run_config(cfg: SuiteConfig, seed: int) -> RunConfig:
    """The RunConfig of cfg's run section at seed."""
    run = cfg.run
    if run.task not in cfg.tasks:
        raise ConfigError(f"run.task references unknown task {run.task!r}")
    return RunConfig(
        task=cfg.tasks[run.task],
        opt=cfg.optimizer if run.lr is None else replace(cfg.optimizer, lr=run.lr),
        schedule_kind=cfg.schedule.kind,
        min_lr=cfg.schedule.min_lr,
        guard=cfg.guard if run.arm == "guard" else None,
        baseline_marker=run.arm == "baseline",
        clip=None if run.clip_g is None else ClipConfig(g=run.clip_g),
        steps=run.steps,
        batch_size=run.batch_size,
        eval_every=run.eval_every,
        seed=seed,
        label=run.label,
    )


def parse_config(source: Union[str, Path, dict]) -> SuiteConfig:
    """Parse and validate a suite configuration from a path or a dict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    doc = dict(_object("root", source))
    tasks = doc["tasks"] = {
        name: _parse_task(name, spec)
        for name, spec in _object("tasks", doc.get("tasks", {})).items()
    }
    run = doc.pop("run", None)
    cfg = _build(
        "root", SuiteConfig, doc,
        seeds=_parse_seeds,
        optimizer=lambda d: _build("optimizer", OptimizerConfig, d),
        schedule=lambda d: _build("schedule", ScheduleSection, d,
                                  kind=lambda k: ScheduleKind(strict_str(k))),
        guard=lambda d: _build("guard", GuardConfig, d),
        scenarios=lambda raw: _unique(
            "scenario name",
            (_parse_scenario(i, s, tasks) for i, s in enumerate(raw)),
            key=lambda scen: scen.name,
        ),
    )
    return cfg if run is None else replace(cfg, run=_parse_run(run, cfg))


def emit_config(cfg: SuiteConfig) -> dict:
    """Fully defaulted configuration document; parse_config(emit(cfg)) == cfg."""
    doc = dataclasses.asdict(cfg)
    doc["schedule"]["kind"] = cfg.schedule.kind.value
    for scen in doc["scenarios"]:
        if scen["injection"] is None:
            del scen["injection"]
    if cfg.run is None:
        del doc["run"]
    return doc


def resolve_lr(
    lr: Union[str, float], arms: Sequence[RunConfig], cache: Optional[dict] = None
) -> float:
    """Turn an lr preset into a concrete rate via divergence calibration.

    aggressive: the largest rate over arms (a scenario's, on each seed) whose
    full-length baseline probe ends degraded, so it degrades every arm; each
    preset divides it by its PRESET_BACKOFF factor. cache maps each probe to
    its ladder's rungs, so arms with equal probes calibrate once.
    """
    if not isinstance(lr, str):
        return float(lr)
    if lr not in LR_PRESETS:
        raise ConfigError(f"unknown lr preset: {lr!r} (expected one of {LR_PRESETS})")
    cache = {} if cache is None else cache
    rates = []
    for arm in arms:
        probe = probe_config(arm)
        if probe not in cache:
            cache[probe] = doubling_ladder(probe)
        rates.append(degrading_lr(cache[probe], CALIBRATION_CRITERION))
    return max(rates) / PRESET_BACKOFF[lr]


def _calibrate(probe: RunConfig, backoffs: Dict[RunConfig, float]) -> List[ProbeResult]:
    """probe's ladder, where only the rungs a preset arm can replay keep
    their per-step data, so a worker sends back none that no arm replays.

    backoffs[probe] is the largest backoff of the presets whose baseline arm
    replays a rung of probe (0 for none). Such a preset's rate is the largest
    verdict over its arms' probes, this one's among them, over its backoff."""
    rungs = doubling_ladder(probe)
    backoff = backoffs[probe]
    try:
        lowest = degrading_lr(rungs, CALIBRATION_CRITERION) / backoff if backoff else math.inf
    except NotStressableError:  # resolve_lr raises it where it reads the rate
        lowest = math.inf
    return [rung if rung.lr >= lowest else replace(rung, params=None, losses=None, grad_rms=[])
            for rung in rungs]


def _pairs(cfg: SuiteConfig, scen: ScenarioSpec,
           lr: float) -> List[Tuple[str, RunConfig, RunConfig]]:
    """scen's (scenario_id, baseline_cfg, guarded_cfg) pairs at rate lr, seed
    by seed: each clip arm under CLIP_KINDS, else the plain baseline arm,
    against the guard arm."""
    pairs = []
    for seed in cfg.seeds:
        base = RunConfig(opt=replace(cfg.optimizer, lr=lr), schedule_kind=cfg.schedule.kind,
                         min_lr=cfg.schedule.min_lr, baseline_marker=True, seed=seed,
                         label=f"{scen.name}-baseline", **_scenario_fields(scen, cfg.tasks))
        guard = replace(base, guard=cfg.guard, baseline_marker=False, label=f"{scen.name}-guard")
        if scen.kind in CLIP_KINDS:
            pairs += [(f"{scen.name}/clip_g={g}",
                       replace(base, clip=ClipConfig(g=g), label=f"{scen.name}-clip{g}"), guard)
                      for g in scen.clip_g]
        else:
            pairs.append((scen.name, base, guard))
    return pairs


def _preset_probes(cfg: SuiteConfig) -> Dict[RunConfig, Dict[str, float]]:
    """Each distinct probe of cfg's preset scenarios, in config order, with
    the scenarios it calibrates, each mapped to its preset's backoff where
    the scenario's baseline arm replays a rung of the probe, else to 0."""
    probes: Dict[RunConfig, Dict[str, float]] = {}
    for scen in cfg.scenarios:
        if isinstance(scen.lr, str):
            for _, base, _ in _pairs(cfg, scen, cfg.optimizer.lr):
                probes.setdefault(probe_config(base), {})[scen.name] = (
                    PRESET_BACKOFF[scen.lr] if replayable(base) else 0.0)
    return probes


def calibration_record(cfg: SuiteConfig, cache: Dict[RunConfig, List[ProbeResult]]) -> List[dict]:
    """One entry per distinct probe of cfg's preset scenarios in cache: the
    scenarios and seed it calibrates, its steps and injection, each rung's
    lr, initial and final loss and degraded flag, and its verdict lr."""
    return [
        {
            "scenarios": list(uses),
            "seed": probe.seed,
            "steps": probe.steps,
            "injection": None if probe.injection is None else dataclasses.asdict(probe.injection),
            "rungs": [
                {"lr": rung.lr, "initial_loss": rung.initial_loss, "final_loss": rung.final_loss,
                 "degraded": probe_degraded(rung, CALIBRATION_CRITERION)}
                for rung in cache[probe]
            ],
            "lr": degrading_lr(cache[probe], CALIBRATION_CRITERION),
        }
        for probe, uses in _preset_probes(cfg).items() if probe in cache
    ]


def expand_scenarios(
    cfg: SuiteConfig, cache: Optional[dict] = None
) -> List[Tuple[str, RunConfig, RunConfig]]:
    """Expand every scenario into (scenario_id, baseline_cfg, guarded_cfg) pairs.

    Every preset's distinct uncached probes are calibrated first, at once
    through parallel_map; each scenario then resolves its rate from the cache.
    """
    cache = {} if cache is None else cache
    backoffs = {probe: max(uses.values()) for probe, uses in _preset_probes(cfg).items()}
    probes = [probe for probe in backoffs if probe not in cache]
    cache.update(zip(probes, parallel_map(partial(_calibrate, backoffs=backoffs), probes)))
    pairs: List[Tuple[str, RunConfig, RunConfig]] = []
    for scen in cfg.scenarios:
        arms = [base for _, base, _ in _pairs(cfg, scen, cfg.optimizer.lr)]
        try:
            lr = resolve_lr(scen.lr, arms, cache)
        except NotStressableError as exc:
            raise ConfigError(
                f"scenario {scen.name!r}: lr preset {scen.lr!r} needs a rate that degrades task "
                f"kind {cfg.tasks[scen.task].kind!r}, and none does; give the scenario a numeric lr"
            ) from exc
        if lr < cfg.schedule.min_lr:
            raise ConfigError(
                f"scenario {scen.name!r} resolves lr {scen.lr!r} to {lr:g}, below "
                f"schedule.min_lr {cfg.schedule.min_lr:g}; no schedule decays upwards"
            )
        pairs.extend(_pairs(cfg, scen, lr))
    return pairs
