"""Configuration parsing, validation, and scenario-expansion tests."""

import dataclasses
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from guardlab import config as config_module
from guardlab import harness
from guardlab.config import (
    LR_PRESETS,
    PRESET_BACKOFF,
    ConfigError,
    InjectionSpec,
    OptimizerConfig,
    RunConfig,
    ScheduleKind,
    TaskSpec,
    emit_config,
    expand_scenarios,
    parse_config,
    resolve_lr,
)
from guardlab.governor import GuardConfig
from guardlab.harness import (
    LADDER_LRS,
    NotStressableError,
    ProbeResult,
    doubling_ladder,
    probe_config,
)
from guardlab.optim import ClipConfig, Schedule
from guardlab.tasks import TASK_CLASSES

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "default_suite.json"


MINIMAL = {
    "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4}}},
    "scenarios": [
        {"name": "demo", "kind": "lr_stress", "task": "toy", "steps": 20,
         "lr": 0.01, "eval_every": 10},
    ],
}


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seeds == (7, 42, 123)
    assert cfg.schedule.kind is ScheduleKind.COSINE
    assert cfg.guard == GuardConfig()
    assert cfg.scenarios[0].name == "demo"


def test_parse_config_from_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(MINIMAL))
    assert parse_config(path) == parse_config(MINIMAL)


def test_unknown_root_key_named_in_error():
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config({**MINIMAL, "bogus_key": 1})


def test_unknown_guard_key_named_in_error():
    with pytest.raises(ConfigError, match="spike_thresh"):
        parse_config({**MINIMAL, "guard": {"spike_thresh": 2.0}})


def test_unknown_run_key_named_in_error():
    # `guardlab run` runs a scenario's arm, so the old run section is no key.
    with pytest.raises(ConfigError, match="unknown key 'run' in section 'root'"):
        parse_config({"tasks": {}, "run": {"task": "toy"}})


def test_preset_below_min_lr_is_a_config_error(monkeypatch):
    # An aggressive rate of 0.4 backs off to 0.4 / 512 for "safe", below the
    # schedule's min_lr: no pair's RunConfig would build.
    monkeypatch.setattr(config_module, "degrading_lr", lambda *a, **k: 0.4)
    doc = {**MINIMAL, "schedule": {"min_lr": 0.05},
           "scenarios": [{**MINIMAL["scenarios"][0], "lr": "safe"}]}
    with pytest.raises(ConfigError, match=r"'demo'.*0\.00078125.*min_lr 0\.05"):
        expand_scenarios(parse_config(doc))


@pytest.mark.parametrize("min_lr", [-0.1, math.inf], ids=["negative", "inf"])
def test_a_negative_or_infinite_min_lr_is_a_config_error(min_lr):
    # The schedule checks its own floor as it is parsed, before any pair.
    with pytest.raises(ConfigError, match="section 'schedule'.*finite"):
        parse_config({**MINIMAL, "schedule": {"min_lr": min_lr}})


def test_a_floor_above_the_optimizer_rate_still_calibrates_presets():
    # min_lr 2.0 lies above the optimizer's rate and every rung up to 1.6384:
    # the probe and the arms it calibrates still build, and the ladder starts
    # at the lowest rung at or above the floor.
    cfg = parse_config({
        "seeds": [7], "tasks": {"b": {"kind": "bigram_lm", "dims": {"alphabet": 8}}},
        "schedule": {"min_lr": 2.0},
        "scenarios": [{"name": "s", "kind": "lr_stress", "task": "b", "steps": 20,
                       "lr": "aggressive", "eval_every": 2}]})
    ladders = {}
    ((_, base, guard),) = expand_scenarios(cfg, ladders)
    ((probe, rungs),) = ladders.items()
    assert probe.schedule.min_lr == 2.0 and rungs[0].lr == 3.2768
    assert base.opt.lr == guard.opt.lr == 6.5536


def test_guard_keys_are_exact():
    keys = {f.name for f in dataclasses.fields(GuardConfig)}
    assert len(keys) == 7
    assert set(emit_config(parse_config(MINIMAL))["guard"]) == keys


def test_removed_use_max_rms_is_an_unknown_key():
    # Each removed guard knob: a config that still sets it is rejected.
    for key, value in (("use_max_rms", True), ("recovery_confirm", 3)):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section 'guard'"):
            parse_config({**MINIMAL, "guard": {key: value}})


def test_scenario_run_limits_are_checked_at_parse_time():
    # steps 20 with the default eval_every of 100 makes no RunConfig.
    scen = {k: v for k, v in MINIMAL["scenarios"][0].items() if k != "eval_every"}
    with pytest.raises(ConfigError, match=r"'scenarios\[0\]'.*eval_every must lie in \[1, steps\]"):
        parse_config({**MINIMAL, "scenarios": [scen]})


def test_unstressable_task_under_a_preset_is_a_config_error(monkeypatch, workers):
    built = []

    def no_degrading_rung(probe, lrs):
        built.append(probe)
        return [ProbeResult(lr=lr, initial_loss=1.0, final_loss=0.5, eval_trace=[], params=None)
                for lr in lrs]

    monkeypatch.setattr(harness, "run_probe_ladder", no_degrading_rung)
    scen = {**MINIMAL["scenarios"][0], "lr": "aggressive"}
    later = {**scen, "name": "later", "steps": 40}
    cfg = parse_config({**MINIMAL, "scenarios": [scen, later]})
    with pytest.raises(ConfigError) as info:
        expand_scenarios(cfg)
    # The first unstressable scenario in config order is the one named.
    message = str(info.value)
    for part in ("'demo'", "'quadratic'", "'aggressive'", "numeric lr"):
        assert part in message, part
    assert "'later'" not in message
    if workers == 1:
        # Each distinct probe, one per scenario and seed, is built once: the
        # error is raised from the cached rungs, without a second ladder.
        # A forked worker's calls never reach this process's list.
        assert len(built) == 2 * len(cfg.seeds) == len(set(built))


def test_rejects_spike_not_above_stress():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "guard": {"stress_threshold": 2.0, "spike_threshold": 1.5}})


def test_rejects_c_max_above_one():
    with pytest.raises(ConfigError):
        parse_config({**MINIMAL, "guard": {"c_max": 1.5}})


def test_rejects_unknown_scenario_kind():
    bad = dict(MINIMAL)
    bad["scenarios"] = [{"name": "x", "kind": "chaos_monkey", "task": "toy"}]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_rejects_scenario_with_unknown_task():
    bad = dict(MINIMAL)
    bad["scenarios"] = [{"name": "x", "kind": "lr_stress", "task": "missing"}]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_emit_parse_round_trip():
    cfg = parse_config(MINIMAL)
    assert parse_config(emit_config(cfg)) == cfg


QUAD_ARM = RunConfig(task=TaskSpec(kind="quadratic", dims={}), steps=100, batch_size=8, seed=7)


def ladder(lr):
    """A hand-built ladder whose verdict is lr: below it a rung degraded
    mid-run only, with a finite eval, which is not a degraded rung."""
    return [
        ProbeResult(lr=lr / 2, initial_loss=1.0, final_loss=0.5,
                    eval_trace=[(1, 3.0)], params=None),
        ProbeResult(lr=lr, initial_loss=1.0, final_loss=3.0, eval_trace=[], params=None),
        ProbeResult(lr=lr * 2, initial_loss=1.0, final_loss=math.inf, eval_trace=[], params=None),
    ]


def test_resolve_lr_numeric_passthrough():
    assert resolve_lr(0.03, []) == 0.03
    assert resolve_lr(3, [ladder(1e-3)]) == 3.0


def test_resolve_lr_rejects_unknown_preset():
    with pytest.raises(ConfigError, match="ludicrous"):
        resolve_lr("ludicrous", [ladder(1e-3)])


def test_resolve_lr_reads_each_preset_off_its_ladders():
    # The aggressive rate is the largest verdict over the ladders, so it
    # degrades every arm; each preset divides it by its backoff.
    ladders = [ladder(8e-3), ladder(16e-3), ladder(4e-3)]
    for preset, backoff in PRESET_BACKOFF.items():
        assert resolve_lr(preset, ladders) == 16e-3 / backoff
    with pytest.raises(NotStressableError):
        resolve_lr("aggressive", [ladder(8e-3), ladder(8e-3)[:1]])


# The worker counts of harness.parallel_map: 1 is the plain loop, 2 a forked
# pool. The calibration tests below run under each in turn, keeping one name.
WORKER_COUNTS = (1, 2)


def fake_core(monkeypatch):
    """Replace the calibration ladder with one that records each probe and
    degrades from a rate derived from its batch size. A forked worker's
    records never reach the returned list, but its rungs reach the ladders."""
    probes = []

    def fake_ladder(probe, lrs):
        probes.append(probe)
        return ladder(1e-3 * probe.batch_size)

    monkeypatch.setattr(harness, "run_probe_ladder", fake_ladder)
    return probes


def test_resolve_lr_cache_keyed_on_batch_size(monkeypatch):
    # expand_scenarios keys its ladders on the probe, of which batch_size is
    # an input, and the base lr is not.
    probes = fake_core(monkeypatch)
    assert probe_config(replace(QUAD_ARM, opt=OptimizerConfig(lr=0.5))) == probe_config(QUAD_ARM)
    scen = {"kind": "lr_stress", "task": "toy", "steps": 20, "eval_every": 10,
            "lr": "aggressive"}
    cfg = parse_config({**MINIMAL, "seeds": [7], "optimizer": {"lr": 0.5}, "scenarios": [
        {**scen, "name": f"b{i}", "batch_size": b} for i, b in enumerate((8, 16, 8))]})
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(harness, "usable_cpus", lambda workers=workers: workers)
        probes.clear()
        ladders = {}
        pairs = expand_scenarios(cfg, ladders)
        assert [base.opt.lr for _, base, _ in pairs] == [8e-3, 16e-3, 8e-3]
        assert [probe.batch_size for probe in ladders] == [8, 16]
        assert len(probes) == (2 if workers == 1 else 0)


def test_resolve_lr_cache_is_keyed_on_exactly_the_probe_inputs():
    probe = probe_config(QUAD_ARM)
    # Fields a probe normalises away share the one ladder.
    for arm in (
        replace(QUAD_ARM, eval_every=7),
        replace(QUAD_ARM, label="other"),
        replace(QUAD_ARM, guard=GuardConfig()),
        replace(QUAD_ARM, clip=ClipConfig(g=0.5)),
        replace(QUAD_ARM, opt=OptimizerConfig(lr=0.3)),
    ):
        assert probe_config(arm) == probe
    # Every probe input gets a ladder of its own.
    probes = {probe_config(arm) for arm in (
        replace(QUAD_ARM, seed=8),
        replace(QUAD_ARM, schedule=Schedule(min_lr=1e-4)),
        replace(QUAD_ARM, batch_size=9),
        replace(QUAD_ARM, injection=InjectionSpec(period=10)),
        replace(QUAD_ARM, opt=OptimizerConfig(beta1=0.8)),
        replace(QUAD_ARM, opt=OptimizerConfig(beta2=0.99)),
        replace(QUAD_ARM, schedule=Schedule(kind=ScheduleKind.CONSTANT)),
        replace(QUAD_ARM, task=TaskSpec(kind="quadratic", dims={"dim": 4})),
        replace(QUAD_ARM, steps=50, eval_every=10),
    )}
    assert len(probes) == 9 and probe not in probes


def test_probes_decay_to_the_suite_min_lr(monkeypatch):
    def fake_ladder(probe, lrs):
        # The first rung ends degraded: final loss 3x the initial one.
        return [ProbeResult(lr=lr, initial_loss=1.0, final_loss=3.0 if i == 0 else 0.5,
                            eval_trace=[], params=None)
                for i, lr in enumerate(lrs)]

    monkeypatch.setattr(harness, "run_probe_ladder", fake_ladder)
    doc = {**MINIMAL, "seeds": [7, 8], "schedule": {"min_lr": 1e-3},
           "scenarios": [{"name": "hot", "kind": "lr_stress", "task": "toy",
                          "steps": 20, "lr": "aggressive", "eval_every": 10}]}
    # Rungs below min_lr are left off the ladder.
    lrs = [lr for lr in LADDER_LRS if lr >= 1e-3]
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(harness, "usable_cpus", lambda workers=workers: workers)
        ladders = {}
        pairs = expand_scenarios(parse_config(doc), ladders)
        assert len(ladders) == 2
        for probe, rungs in ladders.items():
            assert probe.schedule.min_lr == 1e-3 and [rung.lr for rung in rungs] == lrs
        for _, base, _ in pairs:
            assert base.schedule.min_lr == 1e-3 and base.opt.lr == lrs[0]
    # At min_lr 0 the ladder starts at its lowest rate.
    assert doubling_ladder(probe_config(QUAD_ARM))[0].lr == LADDER_LRS[0]


def test_lr_presets_and_backoffs():
    assert set(LR_PRESETS) == {"aggressive", "moderate", "safe"}
    assert PRESET_BACKOFF == {"aggressive": 1.0, "moderate": 32.0, "safe": 512.0}


def test_expand_scenarios_pairs_share_everything_but_governance():
    from guardlab.harness import GOVERNANCE_FIELDS

    cfg = parse_config(
        {
            "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4}}},
            "scenarios": [
                {"name": "clipdemo", "kind": "clip_baseline", "task": "toy",
                 "steps": 20, "lr": 0.01, "eval_every": 10, "clip_g": [1.0, 0.5]},
            ],
        }
    )
    pairs = expand_scenarios(cfg)
    ids = [scenario for scenario, _, _ in pairs]
    # One pair per clip arm per seed (three default seeds).
    assert sorted(set(ids)) == ["clipdemo/clip_g=0.5", "clipdemo/clip_g=1.0"]
    assert len(ids) == 6
    for _, base, guard in pairs:
        assert base.guard is None and base.clip is not None
        assert guard.guard is not None and guard.clip is None
        assert replace(base, **{name: getattr(guard, name) for name in GOVERNANCE_FIELDS}) == guard


SCEN = MINIMAL["scenarios"][0]


@pytest.mark.parametrize("patch, message", [
    pytest.param({"scenarios": [{**SCEN, "clip_g": 3}]}, "'clip_g' in section 'scenarios[0]'", id="clip_g-number"),
    pytest.param({"schedule": 5}, "'schedule' must be an object", id="schedule-number"),
    pytest.param({"scenarios": [{**SCEN, "steps": "x"}]}, "'steps' in section 'scenarios[0]'", id="steps-string"),
    pytest.param({"guard": "x"}, "'guard' must be an object", id="guard-string"),
    pytest.param({"tasks": {"toy": 5}}, "'tasks.toy' must be an object", id="task-number"),
    # A list of pairs would otherwise pass through dict() as an object.
    *(pytest.param({"tasks": {"toy": {"kind": "quadratic", "dims": dims}}},
                   "'tasks.toy.dims' must be an object", id=f"dims-{name}")
      for name, dims in [("pairs", [["dim", 4]]), ("empty-list", []), ("string", "dim"),
                         ("null", None)]),
    pytest.param({"scenarios": ["x"]}, "'scenarios[0]' must be an object", id="scenario-string"),
    pytest.param({"scenarios": [{**SCEN, "lr": [1]}]}, "scenarios[0]", id="lr-list"),
    pytest.param({"scenarios": [{**SCEN, "clip_g": ["a"]}]}, "scenarios[0]", id="clip_g-string"),
    # A clip scenario without a threshold would expand to no pairs at all.
    pytest.param({"scenarios": [{**SCEN, "kind": "clip_baseline", "clip_g": []}]},
                 "'scenarios[0]': clip_g", id="clip_g-empty-clip_baseline"),
    pytest.param({"scenarios": [{**SCEN, "kind": "injection", "clip_g": []}]},
                 "'scenarios[0]': clip_g", id="clip_g-empty-injection"),
    pytest.param({"seeds": 5}, "'seeds' in section 'root'", id="seeds-number"),
    pytest.param({"seeds": ["a"]}, "'seeds' in section 'root'", id="seeds-string"),
    pytest.param({"schedule": {"min_lr": "x"}}, "'min_lr' in section 'schedule'", id="min_lr-string"),
    pytest.param({"schedule": {"kind": "linear"}}, "'linear' is not a valid", id="schedule-kind"),
])
def test_malformed_values_are_config_errors(patch, message):
    with pytest.raises(ConfigError) as info:
        parse_config({**MINIMAL, **patch})
    assert message in str(info.value)
    assert "unknown key" not in str(info.value)


@pytest.mark.parametrize("task, message", [
    ({"kind": "quadratc"}, "unknown task kind: 'quadratc'"),
    ({"kind": "quadratic", "dims": {"dimm": 4}}, "unknown dim 'dimm'"),
    ({"kind": "quadratic", "dims": {"dim": "four"}}, "'four'"),
    ({"kind": "quadratic", "dims": [1]}, "tasks.toy"),
    ({"dims": {}}, "'kind'"),
    # Out-of-range dims: each bound of each kind, checked without a task built.
    ({"kind": "quadratic", "dims": {"dim": 1}}, "dim 'dim' must be >= 2, got 1"),
    ({"kind": "quadratic", "dims": {"condition": 0.5}}, "dim 'condition' must be >= 1.0"),
    ({"kind": "quadratic", "dims": {"noise": -0.1}}, "dim 'noise' must be >= 0.0"),
    ({"kind": "mlp_regression", "dims": {"d_in": 0}}, "dim 'd_in' must be >= 1, got 0"),
    ({"kind": "mlp_regression", "dims": {"d_hidden": 0}}, "dim 'd_hidden' must be >= 1"),
    ({"kind": "mlp_regression", "dims": {"d_out": 0}}, "dim 'd_out' must be >= 1"),
    ({"kind": "mlp_regression", "dims": {"noise": -1}}, "dim 'noise' must be >= 0.0"),
    ({"kind": "bigram_lm", "dims": {"alphabet": 1}}, "dim 'alphabet' must be >= 2, got 1"),
    ({"kind": "bigram_lm", "dims": {"corpus_len": 0}}, "dim 'corpus_len' must be >= 1, got 0"),
    ({"kind": "bigram_lm", "dims": {"eval_len": 0}}, "dim 'eval_len' must be >= 1, got 0"),
    ({"kind": "bigram_lm", "dims": {"concentration": 0}}, "dim 'concentration' must be > 0.0"),
])
def test_unknown_task_kinds_and_dims_are_rejected_at_parse_time(task, message, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("parsing builds no task")

    for cls in TASK_CLASSES.values():
        monkeypatch.setattr(cls, "__init__", unbuilt)
    with pytest.raises(ConfigError, match="tasks.toy") as info:
        parse_config({**MINIMAL, "tasks": {"toy": task}})
    assert message in str(info.value)


# Every integer field, each at an integral value that a float spells.
INTEGERS = {
    "seeds": [7],
    "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4}}},
    "guard": {"stats_freq": 10},
    "scenarios": [
        {"name": "demo", "kind": "injection", "task": "toy", "steps": 20, "lr": 0.01,
         "batch_size": 8, "eval_every": 10, "injection": {"period": 5}},
    ],
}


@pytest.mark.parametrize("path, section", [
    (("seeds", 0), "root"),
    (("tasks", "toy", "dims", "dim"), "tasks.toy"),
    (("guard", "stats_freq"), "guard"),
    (("scenarios", 0, "steps"), "scenarios[0]"),
    (("scenarios", 0, "batch_size"), "scenarios[0]"),
    (("scenarios", 0, "eval_every"), "scenarios[0]"),
    (("scenarios", 0, "injection", "period"), "scenarios[0].injection"),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_integer_fields_take_integral_numbers_only(path, section):
    def at(doc):
        for key in path:
            doc = doc[key]
        return doc

    def doc_with(value):
        doc = json.loads(json.dumps(INTEGERS))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return doc

    key = [k for k in path if isinstance(k, str)][-1]
    for bad in (True, 2.5, 7.9):
        with pytest.raises(ConfigError) as info:
            parse_config(doc_with(bad))
        assert f"'{section}'" in str(info.value) and f"'{key}'" in str(info.value)
    # An integral float is that int: the echo, the cache keys and the built
    # task are the int's.
    cfg = parse_config(doc_with(float(at(INTEGERS))))
    assert cfg == parse_config(INTEGERS)
    assert type(at(emit_config(cfg))) is int


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("path, value, section", [
    (("optimizer", "lr"), NAN, "optimizer"),
    (("optimizer", "eps"), NAN, "optimizer"),
    (("optimizer", "weight_decay"), INF, "optimizer"),
    (("optimizer", "beta1"), True, "optimizer"),
    (("schedule", "min_lr"), True, "schedule"),
    (("guard", "recovery_fast"), INF, "guard"),
    (("guard", "c_min"), True, "guard"),
    (("scenarios", 0, "lr"), True, "scenarios[0]"),
    (("scenarios", 0, "lr"), NAN, "scenarios[0]"),
    (("scenarios", 0, "lr"), 0, "scenarios[0]"),
    (("scenarios", 0, "lr"), -1, "scenarios[0]"),
    (("scenarios", 0, "clip_g", 0), NAN, "scenarios[0]"),
    (("scenarios", 0, "clip_g", 0), True, "scenarios[0]"),
    (("scenarios", 0, "injection", "magnitude"), NAN, "scenarios[0].injection"),
    (("tasks", "q", "dims", "condition"), INF, "tasks.q"),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_float_fields_take_finite_numbers_only(path, value, section):
    doc = json.loads(json.dumps(FULL))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    key = [k for k in path if isinstance(k, str)][-1]
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert f"'{section}'" in str(info.value) and f"'{key}'" in str(info.value)


def test_an_int_in_a_float_field_is_that_float():
    doc = json.loads(json.dumps(FULL))
    doc["optimizer"]["lr"] = 1
    doc["scenarios"][0].update(lr=2, clip_g=[3])
    cfg = parse_config(doc)
    for value in (cfg.optimizer.lr, cfg.scenarios[0].lr, *cfg.scenarios[0].clip_g):
        assert type(value) is float
    assert (cfg.optimizer.lr, cfg.scenarios[0].lr, cfg.scenarios[0].clip_g) == (1.0, 2.0, (3.0,))


@pytest.mark.parametrize("value", ["no", None, 0, 1], ids=repr)
def test_bool_fields_take_true_or_false_only(value):
    with pytest.raises(ConfigError) as info:
        parse_config({**MINIMAL, "guard": {"auto_enabled": value}})
    assert "'auto_enabled' in section 'guard'" in str(info.value)


def _with(section: str, key: str, value) -> dict:
    """MINIMAL with key of section set to value."""
    doc = json.loads(json.dumps(MINIMAL))
    if section == "root":
        doc[key] = value
    elif section.startswith("scenarios[0]"):
        scen = doc["scenarios"][0]
        if section.endswith(".injection"):
            scen.update(kind="injection", injection={key: value})
        else:
            scen[key] = value
    elif section.startswith("tasks."):
        doc["tasks"]["toy"][key] = value
    else:
        doc[section] = {key: value}
    return doc


STRING_FIELDS = [("root", "out_dir"), ("scenarios[0]", "name"), ("scenarios[0]", "kind"),
                 ("scenarios[0]", "task"), ("scenarios[0].injection", "mode"),
                 ("tasks.toy", "kind"), ("schedule", "kind")]


@pytest.mark.parametrize("value", [None, 3, True, ["r"], {"r": 1}], ids=repr)
@pytest.mark.parametrize("section, key", STRING_FIELDS)
def test_string_fields_take_strings_only(section, key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(_with(section, key, value))
    assert f"invalid {key!r} in section {section!r}: expected a string" in str(info.value)


def test_string_fields_parse_and_round_trip():
    doc = _with("scenarios[0]", "name", "mine")
    doc.update(out_dir="out", schedule={"kind": "constant"})
    cfg = parse_config(doc)
    assert (cfg.out_dir, cfg.scenarios[0].name, cfg.schedule.kind) == (
        "out", "mine", ScheduleKind.CONSTANT)
    assert parse_config(json.loads(json.dumps(emit_config(cfg)))) == cfg


@pytest.mark.parametrize("value", [True, False])
def test_a_bool_field_round_trips(value):
    cfg = parse_config({**MINIMAL, "guard": {"auto_enabled": value}})
    assert cfg.guard.auto_enabled is value
    assert parse_config(json.loads(json.dumps(emit_config(cfg)))) == cfg


def test_duplicate_scenario_names_are_rejected():
    doc = {**MINIMAL,
           "tasks": {**MINIMAL["tasks"], "other": {"kind": "bigram_lm"}},
           "scenarios": [{**SCEN, "name": "x"}, {**SCEN, "name": "x", "task": "other"}]}
    with pytest.raises(ConfigError, match="duplicate scenario name: 'x'"):
        parse_config(doc)


def test_duplicate_seeds_are_rejected():
    with pytest.raises(ConfigError, match="duplicate seed: 7"):
        parse_config({**MINIMAL, "seeds": [7, 42, 7]})


def test_an_empty_seed_list_is_rejected():
    with pytest.raises(ConfigError, match="'seeds' in section 'root'"):
        parse_config({**MINIMAL, "seeds": []})


@pytest.mark.parametrize("name", ["../escape", "a\\b"])
def test_a_scenario_name_with_a_path_separator_is_rejected(name):
    # The name goes into run file names, which must stay in the runs directory.
    scen = {**MINIMAL["scenarios"][0], "name": name}
    with pytest.raises(ConfigError, match=r"'scenarios\[0\]'.*name must not contain"):
        parse_config({**MINIMAL, "scenarios": [scen]})


@pytest.mark.parametrize("clip_g", [[1.0, 1.0], [1, 0.5, 1.0]])
def test_duplicate_clip_thresholds_are_rejected(clip_g):
    scen = {**MINIMAL["scenarios"][0], "kind": "clip_baseline", "clip_g": clip_g}
    with pytest.raises(ConfigError, match=r"duplicate clip_g: 1(\.0)?$"):
        parse_config({**MINIMAL, "scenarios": [scen]})


@pytest.mark.parametrize("kind", config_module.SCENARIO_KINDS)
def test_clip_g_belongs_to_the_kinds_that_clip(kind):
    # Only these kinds' baseline arms clip; a threshold on any other kind
    # would be echoed but never run.
    clips = kind in ("clip_baseline", "injection")
    scen = {**SCEN, "kind": kind}
    if kind == "injection":
        scen["injection"] = {"period": 5}
    cfg = parse_config({**MINIMAL, "scenarios": [scen]})
    assert cfg.scenarios[0].clip_g == ((1.0, 0.5) if clips else ())
    assert parse_config(emit_config(cfg)) == cfg
    rule = "must hold a threshold" if clips else "must be empty"
    with pytest.raises(ConfigError, match=rf"'scenarios\[0\]': clip_g {rule} for kind '{kind}'"):
        parse_config({**MINIMAL, "scenarios": [{**scen, "clip_g": [] if clips else [0.05]}]})


@pytest.mark.parametrize("injection", [{"period": 5}, {"mode": "outlier_batch", "period": 5}])
def test_outlier_batch_on_integer_targets_is_a_config_error(injection):
    # outlier_batch is no injection mode any more, so naming it fails; an
    # injection with no mode bursts the gradient, on integer targets too.
    doc = {**MINIMAL,
           "tasks": {"tokens": {"kind": "bigram_lm", "dims": {"alphabet": 8}}},
           "scenarios": [{**SCEN, "name": "spiky", "kind": "injection", "task": "tokens",
                          "injection": {**injection, "mode": "outlier_batch"}}]}
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    for part in ("scenarios[0].injection", "'outlier_batch'"):
        assert part in str(info.value)
    doc["scenarios"][0]["injection"] = {"period": injection["period"]}
    assert parse_config(doc).scenarios[0].injection.mode == "gradient_burst"


@pytest.mark.parametrize("injection", [{}, {"period": 20}])
def test_an_injection_that_schedules_no_step_is_a_config_error(injection):
    # SCEN runs 20 steps: a period of 20 or more never fires.
    doc = {**MINIMAL, "scenarios": [{**SCEN, "kind": "injection", "injection": injection}]}
    with pytest.raises(ConfigError, match=r"'scenarios\[0\]': injection schedules no step"):
        parse_config(doc)
    doc["scenarios"][0]["injection"] = {**injection, "period": 19}
    assert parse_config(doc).scenarios[0].injection.period == 19


@pytest.mark.parametrize("injection, message", [
    ({"period": 5, "steps": [3]}, "unknown key 'steps' in section 'scenarios[0].injection'"),
    ({"period": None}, "invalid 'period' in section 'scenarios[0].injection'"),
], ids=["explicit-steps", "null-period"])
def test_bursts_run_on_a_period_only(injection, message):
    # A burst schedule is a magnitude and a period: explicit burst steps and
    # a null period are gone from the format.
    doc = {**MINIMAL, "scenarios": [{**SCEN, "kind": "injection", "injection": injection}]}
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert message in str(info.value)


def test_shipped_config_parses_and_round_trips():
    cfg = parse_config(SHIPPED)
    assert parse_config(emit_config(cfg)) == cfg
    assert parse_config(json.loads(json.dumps(emit_config(cfg)))) == cfg


def test_shipped_config_expands_to_the_calibrated_scenarios(monkeypatch):
    probes = fake_core(monkeypatch)
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(harness, "usable_cpus", lambda workers=workers: workers)
        probes.clear()
        ladders = {}
        pairs = expand_scenarios(parse_config(SHIPPED), ladders)
        assert len(pairs) == 18
        assert list(dict.fromkeys(scenario for scenario, _, _ in pairs)) == [
            "lr-stress", "lr-moderate", "outlier-bursts/clip_g=1.0", "outlier-bursts/clip_g=0.5",
            "long-budget", "benign-quadratic",
        ]
        # Two probe configs (1000 steps, with bursts) on each of three seeds:
        # lr-moderate reuses lr-stress's ladders, and long-budget gives its
        # rate as a number.
        assert len(ladders) == 6
        assert probes == (list(ladders) if workers == 1 else [])


def test_one_task_under_two_names_is_calibrated_once_per_seed(monkeypatch):
    # dims {} and {"alphabet": 32} are the same task: its default alphabet is 32.
    probes = fake_core(monkeypatch)
    scen = {"kind": "lr_stress", "steps": 20, "eval_every": 10, "lr": "aggressive"}
    cfg = parse_config({
        "seeds": [7, 42],
        "tasks": {"plain": {"kind": "bigram_lm", "dims": {}},
                  "spelled": {"kind": "bigram_lm", "dims": {"alphabet": 32}}},
        "scenarios": [{**scen, "name": "a", "task": "plain"},
                      {**scen, "name": "b", "task": "spelled"}],
    })
    assert cfg.tasks["plain"] == cfg.tasks["spelled"]
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(harness, "usable_cpus", lambda workers=workers: workers)
        probes.clear()
        ladders = {}
        pairs = expand_scenarios(cfg, ladders)
        assert len(pairs) == 4
        assert len(ladders) == 2
        assert probes == (list(ladders) if workers == 1 else [])
    assert [entry["scenarios"] for entry in config_module.calibration_record(cfg, ladders)] == [
        ["a", "b"], ["a", "b"]]


def test_the_echo_holds_every_dim_of_each_task():
    doc = emit_config(parse_config(SHIPPED))
    for name, task in doc["tasks"].items():
        assert task["dims"] == TASK_CLASSES[task["kind"]].default_dims, name
    assert parse_config(doc) == parse_config(SHIPPED)
    assert parse_config(json.loads(json.dumps(doc))) == parse_config(SHIPPED)


@pytest.mark.parametrize("kind", config_module.SCENARIO_KINDS)
def test_a_kind_picks_its_defaults_from_the_kinds_table(kind):
    scen = parse_config({**MINIMAL, "scenarios": [{"kind": kind, "task": "toy"}]}).scenarios[0]
    picked = dict(config_module.KIND_DEFAULTS[kind])
    if "injection" in picked:
        picked["injection"] = InjectionSpec(**picked["injection"])
    defaults = {f.name: f.default for f in dataclasses.fields(scen)
                if f.default is not dataclasses.MISSING}
    assert {key: getattr(scen, key) for key in defaults} == {**defaults, **picked}
    assert scen.name == f"{kind}-toy"


def test_a_code_built_arm_on_default_dims_finds_its_rung_in_the_parsed_ladders(one_worker):
    # A TaskSpec holds every dim of its kind, built in code or parsed, so a
    # baseline arm built on dims {} has the parsed suite's probe, and a rung
    # of its ladder ran at the arm's rate.
    ladders = {}
    cfg = parse_config({"seeds": [7], "tasks": {"bigram": {"kind": "bigram_lm"}},
                        "scenarios": [{"name": "s", "kind": "lr_stress", "task": "bigram",
                                       "steps": 40, "lr": "aggressive", "eval_every": 4}]})
    ((_, base, _),) = expand_scenarios(cfg, ladders)
    arm = RunConfig(task=TaskSpec("bigram_lm", {}), opt=base.opt, steps=40, eval_every=4,
                    seed=7, label="code-built")
    assert arm.task == base.task and arm.task.dims == TASK_CLASSES["bigram_lm"].default_dims
    assert probe_config(arm) == probe_config(base)
    assert arm.opt.lr in [rung.lr for rung in ladders[probe_config(arm)]]


# Every field of GuardConfig, OptimizerConfig, InjectionSpec and ScenarioSpec,
# and the schedule, each away from its default.
FULL = {
    "out_dir": "elsewhere",
    "seeds": [3, 5],
    "tasks": {"q": {"kind": "quadratic", "dims": {"dim": 6, "condition": 10.0, "noise": 0.1}}},
    "optimizer": {"lr": 0.02, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6, "weight_decay": 0.01},
    "schedule": {"kind": "constant", "min_lr": 1e-4},
    "guard": {"auto_enabled": False, "stats_freq": 5, "stress_threshold": 1.5,
              "spike_threshold": 2.5, "recovery_fast": 0.01, "ema_decay": 0.9,
              "c_min": 0.1},
    "scenarios": [
        {"name": "inj", "kind": "injection", "task": "q", "steps": 40, "lr": "safe",
         "batch_size": 4, "eval_every": 8, "clip_g": [2.0],
         "injection": {"magnitude": 10.0, "period": 7, "mode": "gradient_burst"}},
    ]
}


def test_every_field_set_away_from_its_default_round_trips():
    import dataclasses

    cfg = parse_config(FULL)
    scen = cfg.scenarios[0]
    for obj in (cfg.guard, cfg.optimizer, scen, scen.injection):
        for f in dataclasses.fields(obj):
            # InjectionSpec.mode takes one value, so it cannot be set away from
            # its default; FULL still spells it for the round trip below.
            if obj is scen.injection and f.name == "mode":
                continue
            if f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) != f.default, f.name
    assert cfg.schedule.kind is ScheduleKind.CONSTANT and cfg.schedule.min_lr == 1e-4
    assert json.loads(json.dumps(emit_config(cfg))) == FULL
    assert parse_config(emit_config(cfg)) == cfg
