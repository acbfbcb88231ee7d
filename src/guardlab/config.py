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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .governor import GuardConfig
from .harness import (
    PROBE_LR,
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
)
from .optim import ClipConfig, Schedule, ScheduleKind
from .tasks import strict_bool, strict_float, strict_int, strict_str

# Each scenario kind and the ScenarioSpec defaults it picks. A kind clips,
# one baseline arm per clip_g threshold, exactly when its defaults hold a
# clip_g; any other kind's clip_g must stay empty.
KIND_DEFAULTS = {
    "lr_stress": {},
    "clip_baseline": {"clip_g": (1.0, 0.5)},
    "injection": {"clip_g": (1.0, 0.5), "injection": {}},
    "long_budget": {"steps": 5000},
    "seed_sweep": {},
}
SCENARIO_KINDS = tuple(KIND_DEFAULTS)
# Each lr preset's backoff factor from the calibrated aggressive rate. With
# the doubling grid these land well inside (moderate) and far inside (safe)
# the trainable region observed during calibration.
PRESET_BACKOFF = {"aggressive": 1.0, "moderate": 32.0, "safe": 512.0}
LR_PRESETS = tuple(PRESET_BACKOFF)
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


def _unique(what: str, values: Iterable, key=lambda value: value) -> tuple:
    values = tuple(values)
    keys = [key(value) for value in values]
    for i, k in enumerate(keys):
        if k in keys[:i]:
            raise ConfigError(f"duplicate {what}: {k!r}")
    return values


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    kind: str
    task: str
    steps: int = RunConfig.steps
    lr: Union[str, float] = "moderate"
    batch_size: int = RunConfig.batch_size
    eval_every: int = RunConfig.eval_every
    clip_g: Tuple[float, ...] = ()
    injection: Optional[InjectionSpec] = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"kind must be one of {SCENARIO_KINDS}, got {self.kind!r}")
        if not (self.lr in LR_PRESETS if isinstance(self.lr, str) else self.lr > 0.0):
            raise ValueError(f"'lr' must be one of {LR_PRESETS} or a number > 0, got {self.lr!r}")
        for g in self.clip_g:
            ClipConfig(g=g)
        clips = "clip_g" in KIND_DEFAULTS[self.kind]
        if bool(self.clip_g) != clips:
            rule = "must hold a threshold" if clips else "must be empty"
            raise ValueError(f"clip_g {rule} for kind {self.kind!r}")
        # The name goes into run file names, which must stay in the runs directory.
        if "/" in self.name or "\\" in self.name:
            raise ValueError(f"name must not contain '/' or '\\', got {self.name!r}")


@dataclass(frozen=True)
class SuiteConfig:
    out_dir: str = "results"
    seeds: Tuple[int, ...] = (7, 42, 123)
    tasks: Dict[str, TaskSpec] = field(default_factory=dict)
    optimizer: OptimizerConfig = OptimizerConfig()
    schedule: Schedule = Schedule()
    guard: GuardConfig = GuardConfig()
    scenarios: Tuple[ScenarioSpec, ...] = ()


def _parse_seeds(seeds) -> Tuple[int, ...]:
    seeds = _unique("seed", (strict_int(s) for s in seeds))
    if not seeds:
        raise ValueError("at least one seed is required")
    return seeds


def _parse_task(name: str, data) -> TaskSpec:
    """The task with every dim, so the echo shows every dim (see TaskSpec)."""
    return _build(f"tasks.{name}", TaskSpec, data, kind=strict_str,
                  dims=lambda dims: _object(f"tasks.{name}.dims", dims))


def _scenario_fields(scen: ScenarioSpec, tasks: Dict[str, TaskSpec]) -> dict:
    """The RunConfig fields that every arm of scen shares."""
    return dict(task=tasks[scen.task], steps=scen.steps, batch_size=scen.batch_size,
                eval_every=scen.eval_every, injection=scen.injection)


def _parse_scenario(idx: int, data, tasks: Dict[str, TaskSpec]) -> ScenarioSpec:
    section = f"scenarios[{idx}]"
    kind, task = _object(section, data).get("kind"), data.get("task")
    # A kind that is no string is strict_str's error, not an unhashable key.
    defaults = {"name": f"{kind}-{task}",
                **(KIND_DEFAULTS.get(kind, {}) if isinstance(kind, str) else {})}

    def validate(scen: ScenarioSpec) -> None:
        if scen.task not in tasks:
            raise ConfigError(f"{section}.task references unknown task {scen.task!r}")
        RunConfig(**_scenario_fields(scen, tasks))

    return _build(
        section, ScenarioSpec, {**defaults, **data}, validate=validate,
        name=strict_str, kind=strict_str, task=strict_str,
        lr=lambda lr: lr if isinstance(lr, str) else strict_float(lr),
        clip_g=lambda g: _unique("clip_g", (strict_float(x) for x in g)),
        injection=lambda d: _build(f"{section}.injection", InjectionSpec, d),
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
    return _build(
        "root", SuiteConfig, doc,
        seeds=_parse_seeds,
        optimizer=lambda d: _build("optimizer", OptimizerConfig, d),
        schedule=lambda d: _build("schedule", Schedule, d,
                                  kind=lambda k: ScheduleKind(strict_str(k))),
        guard=lambda d: _build("guard", GuardConfig, d),
        scenarios=lambda raw: _unique(
            "scenario name",
            (_parse_scenario(i, s, tasks) for i, s in enumerate(raw)),
            key=lambda scen: scen.name,
        ),
    )


def emit_config(cfg: SuiteConfig) -> dict:
    """Fully defaulted configuration document; parse_config(emit(cfg)) == cfg."""
    doc = dataclasses.asdict(cfg)
    doc["schedule"]["kind"] = cfg.schedule.kind.value
    for scen in doc["scenarios"]:
        if scen["injection"] is None:
            del scen["injection"]
    return doc


def resolve_lr(lr: Union[str, float], ladders: Iterable[Sequence[ProbeResult]]) -> float:
    """A scenario's rate from its lr: a number as given, else a preset read
    off ladders, the rungs of each of the scenario's probes (one per seed).

    aggressive is the largest degrading_lr over the ladders, so it degrades
    every arm; each preset divides it by its PRESET_BACKOFF factor.
    """
    if not isinstance(lr, str):
        return float(lr)
    if lr not in LR_PRESETS:
        raise ConfigError(f"unknown lr preset: {lr!r} (expected one of {LR_PRESETS})")
    return max(map(degrading_lr, ladders)) / PRESET_BACKOFF[lr]


def _pairs(cfg: SuiteConfig, scen: ScenarioSpec,
           lr: float) -> List[Tuple[str, RunConfig, RunConfig]]:
    """scen's (scenario_id, baseline_cfg, guarded_cfg) pairs at rate lr, seed
    by seed: each clip arm, one per clip_g threshold, else the plain
    baseline arm, against the guard arm."""
    pairs = []
    for seed in cfg.seeds:
        base = RunConfig(seed=seed, label=f"{scen.name}-baseline",
                         opt=replace(cfg.optimizer, lr=lr), schedule=cfg.schedule,
                         **_scenario_fields(scen, cfg.tasks))
        guard = replace(base, guard=cfg.guard, label=f"{scen.name}-guard")
        if scen.clip_g:
            pairs += [(f"{scen.name}/clip_g={g}",
                       replace(base, clip=ClipConfig(g=g), label=f"{scen.name}-clip{g}"), guard)
                      for g in scen.clip_g]
        else:
            pairs.append((scen.name, base, guard))
    return pairs


def _preset_probes(cfg: SuiteConfig) -> Dict[RunConfig, List[str]]:
    """Each distinct probe of cfg's preset scenarios, in config order, with
    the names of the scenarios it calibrates."""
    probes: Dict[RunConfig, List[str]] = {}
    for scen in cfg.scenarios:
        if isinstance(scen.lr, str):
            arms = (base for _, base, _ in _pairs(cfg, scen, PROBE_LR))
            for probe in dict.fromkeys(map(probe_config, arms)):
                probes.setdefault(probe, []).append(scen.name)
    return probes


def calibration_record(cfg: SuiteConfig, ladders: Dict[RunConfig, List[ProbeResult]]) -> List[dict]:
    """One entry per distinct probe of cfg's preset scenarios in ladders: the
    scenarios and seed it calibrates, its steps and injection, each rung's
    lr, initial and final loss and degraded flag, and its verdict lr."""
    return [
        {
            "scenarios": uses,
            "seed": probe.seed,
            "steps": probe.steps,
            "injection": None if probe.injection is None else dataclasses.asdict(probe.injection),
            "rungs": [
                {"lr": rung.lr, "initial_loss": rung.initial_loss, "final_loss": rung.final_loss,
                 "degraded": probe_degraded(rung)}
                for rung in ladders[probe]
            ],
            "lr": degrading_lr(ladders[probe]),
        }
        for probe, uses in _preset_probes(cfg).items()
    ]


def expand_scenarios(
    cfg: SuiteConfig, ladders: Optional[dict] = None
) -> List[Tuple[str, RunConfig, RunConfig]]:
    """Expand every scenario into (scenario_id, baseline_cfg, guarded_cfg) pairs.

    The one place preset ladders run: every distinct preset probe is
    calibrated first, at once through parallel_map, into ladders (probe ->
    rungs); each scenario's resolve_lr then reads its own probes' ladders.
    """
    ladders = {} if ladders is None else ladders
    probes = _preset_probes(cfg)
    ladders.update(zip(probes, parallel_map(doubling_ladder, list(probes),
                                            steps=lambda probe: probe.steps)))
    pairs: List[Tuple[str, RunConfig, RunConfig]] = []
    for scen in cfg.scenarios:
        try:
            lr = resolve_lr(scen.lr, (ladders[probe] for probe, uses in probes.items()
                                      if scen.name in uses))
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
