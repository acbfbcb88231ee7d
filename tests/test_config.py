"""Configuration parsing, validation, and scenario-expansion tests."""

import dataclasses
import json
from dataclasses import replace
from pathlib import Path

import pytest

from guardlab import config as config_module
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
from guardlab.harness import ProbeResult
from guardlab.optim import ClipConfig

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
    with pytest.raises(ConfigError, match="'warmup'"):
        parse_config({"tasks": {}, "run": {"warmup": 5}})


def test_preset_below_min_lr_is_a_config_error(monkeypatch):
    # An aggressive rate of 0.4 backs off to 0.4 / 512 for "safe", below the
    # schedule's min_lr: every pair would fail in ScheduleConfig.
    monkeypatch.setattr(config_module, "degrading_lr", lambda *a, **k: 0.4)
    doc = {**MINIMAL, "schedule": {"min_lr": 0.05},
           "scenarios": [{**MINIMAL["scenarios"][0], "lr": "safe"}]}
    with pytest.raises(ConfigError, match=r"'demo'.*0\.00078125.*min_lr 0\.05"):
        expand_scenarios(parse_config(doc))


def test_guard_keys_are_exact():
    keys = {f.name for f in dataclasses.fields(GuardConfig)}
    assert len(keys) == 8
    assert set(emit_config(parse_config(MINIMAL))["guard"]) == keys


def test_removed_use_max_rms_is_an_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'use_max_rms' in section 'guard'"):
        parse_config({**MINIMAL, "guard": {"use_max_rms": True}})


def test_scenario_run_limits_are_checked_at_parse_time():
    # steps 20 with the default eval_every of 100 makes no RunConfig.
    scen = {k: v for k, v in MINIMAL["scenarios"][0].items() if k != "eval_every"}
    with pytest.raises(ConfigError, match=r"'scenarios\[0\]'.*eval_every must lie in \[1, steps\]"):
        parse_config({**MINIMAL, "scenarios": [scen]})


def test_run_section_limits_are_checked_at_parse_time():
    with pytest.raises(ConfigError, match=r"'run'.*eval_every must lie in \[1, steps\]"):
        parse_config({**MINIMAL, "run": {"task": "toy", "steps": 20}})
    with pytest.raises(ConfigError, match=r"'run'.*lr must be > 0"):
        parse_config({**MINIMAL, "run": {"task": "toy", "lr": -1.0}})
    # No schedule decays to a run lr below schedule.min_lr.
    with pytest.raises(ConfigError, match=r"'run'.*min_lr must lie in \[0, base_lr\]"):
        parse_config({**MINIMAL, "schedule": {"min_lr": 0.05}, "run": {"task": "toy", "lr": 0.01}})
    with pytest.raises(ConfigError, match="run.task references unknown task 'missing'"):
        parse_config({**MINIMAL, "run": {"task": "missing"}})


def test_run_section_defaults_are_materialized():
    cfg = parse_config({**MINIMAL, "run": {"task": "toy", "arm": "baseline", "clip_g": None}})
    assert emit_config(cfg)["run"] == {
        "task": "toy", "label": "run-toy-baseline", "arm": "baseline", "lr": None,
        "steps": 1000, "batch_size": 32, "eval_every": 100, "clip_g": None,
    }
    run = config_module.run_config(cfg, seed=5)
    assert run.clip is None and run.guard is None and run.baseline_marker
    assert run.opt == cfg.optimizer and run.seed == 5


def test_unstressable_task_under_a_preset_is_a_config_error(monkeypatch, workers):
    built = []

    def no_degrading_rung(probe):
        built.append(probe)
        return [ProbeResult(lr=1e-4, initial_loss=1.0, final_loss=0.5, eval_trace=[], params=None)]

    monkeypatch.setattr(config_module, "doubling_ladder", no_degrading_rung)
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


def test_resolve_lr_numeric_passthrough():
    assert resolve_lr(0.03, [QUAD_ARM]) == 0.03


def test_resolve_lr_rejects_unknown_preset():
    with pytest.raises(ConfigError):
        resolve_lr("ludicrous", [QUAD_ARM])


def fake_core(monkeypatch):
    """Replace the calibration ladder with one that records each probe and
    degrades, under the "final" criterion, from a rate derived from its
    batch size."""
    probes = []

    def ladder(probe):
        probes.append(probe)
        lr = 1e-3 * probe.batch_size
        return [
            # Degraded mid-run only: the "peak" criterion would stop here.
            ProbeResult(lr=lr / 2, initial_loss=1.0, final_loss=0.5,
                        eval_trace=[(1, 3.0, 3.0)], params=None),
            ProbeResult(lr=lr, initial_loss=1.0, final_loss=3.0, eval_trace=[], params=None),
        ]

    monkeypatch.setattr(config_module, "doubling_ladder", ladder)
    return probes


def test_resolve_lr_cache_keyed_on_batch_size(monkeypatch):
    probes = fake_core(monkeypatch)
    cache = {}
    rates = [
        resolve_lr("aggressive", [replace(QUAD_ARM, batch_size=b)], cache) for b in (8, 16, 8)
    ]
    assert rates == [8e-3, 16e-3, 8e-3]
    assert [p.batch_size for p in probes] == [8, 16]
    # The base lr is not a probe input: it shares the cached rate.
    assert resolve_lr("aggressive", [replace(QUAD_ARM, opt=OptimizerConfig(lr=0.5))], cache) == 8e-3
    resolve_lr("aggressive", [replace(QUAD_ARM, opt=OptimizerConfig(beta2=0.99))], cache)
    resolve_lr("aggressive", [replace(QUAD_ARM, schedule_kind=ScheduleKind.CONSTANT)], cache)
    assert [p.batch_size for p in probes] == [8, 16, 8, 8]


def test_resolve_lr_cache_is_keyed_on_exactly_the_probe_inputs(monkeypatch):
    probes = fake_core(monkeypatch)
    cache = {}
    resolve_lr("aggressive", [QUAD_ARM], cache)
    # Fields a probe normalises away share the one ladder.
    for arm in (
        replace(QUAD_ARM, eval_every=7),
        replace(QUAD_ARM, label="other"),
        replace(QUAD_ARM, guard=GuardConfig()),
        replace(QUAD_ARM, baseline_marker=True, clip=ClipConfig(g=0.5)),
        replace(QUAD_ARM, opt=OptimizerConfig(lr=0.3)),
    ):
        resolve_lr("aggressive", [arm], cache)
    assert len(probes) == 1
    # Every probe input gets a ladder of its own.
    for arm in (
        replace(QUAD_ARM, seed=8),
        replace(QUAD_ARM, min_lr=1e-4),
        replace(QUAD_ARM, batch_size=9),
        replace(QUAD_ARM, injection=InjectionSpec()),
        replace(QUAD_ARM, opt=OptimizerConfig(beta1=0.8)),
        replace(QUAD_ARM, opt=OptimizerConfig(beta2=0.99)),
        replace(QUAD_ARM, schedule_kind=ScheduleKind.CONSTANT),
        replace(QUAD_ARM, task=TaskSpec(kind="quadratic", dims={"dim": 4})),
        replace(QUAD_ARM, steps=50, eval_every=10),
    ):
        resolve_lr("aggressive", [arm], cache)
    assert len(probes) == 10 == len(cache)
    # A preset over several arms is the largest of their rates.
    assert resolve_lr("aggressive", [QUAD_ARM, replace(QUAD_ARM, batch_size=9)], cache) == 1e-3 * 9
    assert len(probes) == 10


def test_probes_decay_to_the_suite_min_lr(monkeypatch):
    import guardlab.harness as harness

    probes = []

    def fake_ladder(cfg, lrs):
        probes.append((cfg.min_lr, list(lrs)))
        # The first rung ends degraded: final loss 3x the initial one.
        return [harness.ProbeResult(lr=lr, initial_loss=1.0, final_loss=3.0 if i == 0 else 0.5,
                                    eval_trace=[], params=None)
                for i, lr in enumerate(lrs)]

    monkeypatch.setattr(harness, "run_probe_ladder", fake_ladder)
    doc = {**MINIMAL, "seeds": [7], "schedule": {"min_lr": 1e-3},
           "scenarios": [{"name": "hot", "kind": "lr_stress", "task": "toy",
                          "steps": 20, "lr": "aggressive", "eval_every": 10}]}
    (_, base, _), = expand_scenarios(parse_config(doc))
    assert probes[0][0] == base.min_lr == 1e-3
    # Rungs below min_lr are left off the ladder.
    assert min(probes[0][1]) >= 1e-3
    assert base.opt.lr == probes[0][1][0]

    cache = {}
    for min_lr in (0.0, 1e-3, 0.0):
        resolve_lr("aggressive", [replace(QUAD_ARM, min_lr=min_lr)], cache)
    assert [m for m, _ in probes[1:]] == [0.0, 1e-3]
    assert probes[1][1][0] == 1e-4


def test_lr_presets_and_backoffs():
    assert set(LR_PRESETS) == {"aggressive", "moderate", "safe"}
    assert PRESET_BACKOFF == {"aggressive": 1.0, "moderate": 32.0, "safe": 512.0}


def test_expand_scenarios_pairs_share_everything_but_governance():
    from guardlab.harness import GOVERNANCE_FIELDS, config_pair_diff

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
        assert base.baseline_marker and base.clip is not None
        assert guard.guard is not None and guard.clip is None
        assert set(config_pair_diff(base, guard)) <= GOVERNANCE_FIELDS


SCEN = MINIMAL["scenarios"][0]


@pytest.mark.parametrize("patch, message", [
    pytest.param({"scenarios": [{**SCEN, "clip_g": 3}]}, "'clip_g' in section 'scenarios[0]'", id="clip_g-number"),
    pytest.param({"scenarios": [{**SCEN, "kind": "injection", "injection": {"steps": 3}}]},
                 "'steps' in section 'scenarios[0].injection'", id="injection-steps-number"),
    pytest.param({"schedule": 5}, "'schedule' must be an object", id="schedule-number"),
    pytest.param({"scenarios": [{**SCEN, "steps": "x"}]}, "'steps' in section 'scenarios[0]'", id="steps-string"),
    pytest.param({"guard": "x"}, "'guard' must be an object", id="guard-string"),
    pytest.param({"tasks": {"toy": 5}}, "'tasks.toy' must be an object", id="task-number"),
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
])
def test_unknown_task_kinds_and_dims_are_rejected_at_parse_time(task, message):
    with pytest.raises(ConfigError, match="tasks.toy") as info:
        parse_config({**MINIMAL, "tasks": {"toy": task}})
    assert message in str(info.value)


# Every integer field, each at an integral value that a float spells.
INTEGERS = {
    "seeds": [7],
    "tasks": {"toy": {"kind": "quadratic", "dims": {"dim": 4}}},
    "guard": {"stats_freq": 10, "recovery_confirm": 3},
    "scenarios": [
        {"name": "demo", "kind": "injection", "task": "toy", "steps": 20, "lr": 0.01,
         "batch_size": 8, "eval_every": 10, "injection": {"period": 5, "steps": [3]}},
    ],
    "run": {"task": "toy", "steps": 20, "batch_size": 8, "eval_every": 10},
}


@pytest.mark.parametrize("path, section", [
    (("seeds", 0), "root"),
    (("tasks", "toy", "dims", "dim"), "tasks.toy"),
    (("guard", "stats_freq"), "guard"),
    (("guard", "recovery_confirm"), "guard"),
    (("scenarios", 0, "steps"), "scenarios[0]"),
    (("scenarios", 0, "batch_size"), "scenarios[0]"),
    (("scenarios", 0, "eval_every"), "scenarios[0]"),
    (("scenarios", 0, "injection", "period"), "scenarios[0].injection"),
    (("scenarios", 0, "injection", "steps", 0), "scenarios[0].injection"),
    (("run", "steps"), "run"),
    (("run", "batch_size"), "run"),
    (("run", "eval_every"), "run"),
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
    (("run", "lr"), True, "run"),
    (("run", "clip_g"), NAN, "run"),
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
    elif section == "run":
        doc["run"] = {"task": "toy", "steps": 20, "eval_every": 10, key: value}
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
                 ("tasks.toy", "kind"), ("schedule", "kind"), ("run", "task"),
                 ("run", "label"), ("run", "arm")]


@pytest.mark.parametrize("value", [None, 3, True, ["r"], {"r": 1}], ids=repr)
@pytest.mark.parametrize("section, key", STRING_FIELDS)
def test_string_fields_take_strings_only(section, key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(_with(section, key, value))
    assert f"invalid {key!r} in section {section!r}: expected a string" in str(info.value)


def test_string_fields_parse_and_round_trip():
    doc = _with("run", "label", "mine")
    doc.update(out_dir="out", schedule={"kind": "constant"})
    cfg = parse_config(doc)
    assert (cfg.out_dir, cfg.run.label, cfg.schedule.kind) == ("out", "mine", ScheduleKind.CONSTANT)
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


@pytest.mark.parametrize("label", ["../escape", "a\\b"])
def test_a_run_label_with_a_path_separator_is_rejected(label):
    with pytest.raises(ConfigError, match=r"'run'.*label must not contain"):
        parse_config({**MINIMAL, "run": {"task": "toy", "label": label}})


@pytest.mark.parametrize("clip_g", [[1.0, 1.0], [1, 0.5, 1.0]])
def test_duplicate_clip_thresholds_are_rejected(clip_g):
    scen = {**MINIMAL["scenarios"][0], "kind": "clip_baseline", "clip_g": clip_g}
    with pytest.raises(ConfigError, match=r"duplicate clip_g: 1(\.0)?$"):
        parse_config({**MINIMAL, "scenarios": [scen]})


@pytest.mark.parametrize("injection", [{}, {"mode": "outlier_batch", "period": 5}])
def test_outlier_batch_on_integer_targets_is_a_config_error(injection):
    doc = {**MINIMAL,
           "tasks": {"tokens": {"kind": "bigram_lm", "dims": {"alphabet": 8}}},
           "scenarios": [{**SCEN, "name": "spiky", "kind": "injection", "task": "tokens",
                          "injection": injection}]}
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    for part in ("'spiky'", "'bigram_lm'", "'outlier_batch'"):
        assert part in str(info.value)
    doc["scenarios"][0]["injection"] = {**injection, "mode": "gradient_burst"}
    assert parse_config(doc).scenarios[0].injection.mode == "gradient_burst"


def test_shipped_config_parses_and_round_trips():
    cfg = parse_config(SHIPPED)
    assert parse_config(emit_config(cfg)) == cfg
    assert parse_config(json.loads(json.dumps(emit_config(cfg)))) == cfg


def test_shipped_config_expands_to_the_calibrated_scenarios(monkeypatch, one_worker):
    probes = fake_core(monkeypatch)
    pairs = expand_scenarios(parse_config(SHIPPED))
    assert len(pairs) == 18
    assert list(dict.fromkeys(scenario for scenario, _, _ in pairs)) == [
        "lr-stress", "lr-moderate", "outlier-bursts/clip_g=1.0", "outlier-bursts/clip_g=0.5",
        "long-budget", "benign-quadratic",
    ]
    # Three probe configs (1000 steps, with bursts, 5000 steps) on each of
    # three seeds: lr-moderate reuses lr-stress's ladders.
    assert len(probes) == 9 == len(set(probes))


def test_only_rungs_a_baseline_arm_replays_keep_their_per_step_data(one_worker):
    from test_golden import TINY_SUITE

    from guardlab.harness import ladder_rung, probe_config

    def losses_kept(name):
        (probe,) = {probe_config(base) for scen, base, _ in pairs if scen.startswith(name)}
        return [rung.lr for rung in cache[probe] if rung.losses is not None]

    cache = {}
    pairs = expand_scenarios(parse_config(TINY_SUITE), cache)
    # bursts pairs the guard against clip arms only, so no rung of its probe
    # is replayed and none keeps its losses.
    assert losses_kept("bursts") == []
    replayed = {base.label: ladder_rung(base, cache) for _, base, _ in pairs}
    assert [label for label, rung in replayed.items() if rung is not None] == [
        "lr-stress-baseline", "lr-moderate-baseline", "long-baseline"]
    assert all(rung.losses is not None for rung in replayed.values() if rung is not None)
    # clip shares lr-stress's probe, whose rungs keep their losses from the
    # lr-moderate rate (a 32nd of the aggressive one) up.
    stress = pairs[0][1].opt.lr
    assert min(losses_kept("clip")) == stress / 32 == pairs[1][1].opt.lr
    # With a probe of its own, clip keeps no losses either.
    clip_only = {**TINY_SUITE, "scenarios": [scen for scen in TINY_SUITE["scenarios"]
                                             if scen["name"] in ("clip", "bursts")]}
    ladders = {}
    expand_scenarios(parse_config(clip_only), ladders)
    assert len(ladders) == 2
    assert all(rung.losses is None and rung.params is None for rungs in ladders.values()
               for rung in rungs)


# Every field of GuardConfig, OptimizerConfig, InjectionSpec and ScenarioSpec,
# the schedule and the run section, each away from its default.
FULL = {
    "out_dir": "elsewhere",
    "seeds": [3, 5],
    "tasks": {"q": {"kind": "quadratic", "dims": {"dim": 6, "condition": 10.0, "noise": 0.1}}},
    "optimizer": {"lr": 0.02, "beta1": 0.8, "beta2": 0.99, "eps": 1e-6, "weight_decay": 0.01},
    "schedule": {"kind": "constant", "min_lr": 1e-4},
    "guard": {"auto_enabled": False, "stats_freq": 5, "stress_threshold": 1.5,
              "spike_threshold": 2.5, "recovery_fast": 0.01, "ema_decay": 0.9,
              "c_min": 0.1, "recovery_confirm": 2},
    "scenarios": [
        {"name": "inj", "kind": "injection", "task": "q", "steps": 40, "lr": "safe",
         "batch_size": 4, "eval_every": 8, "clip_g": [2.0],
         "injection": {"magnitude": 10.0, "period": 7, "steps": [3, 5],
                       "mode": "gradient_burst"}},
    ],
    "run": {"task": "q", "arm": "baseline", "lr": 0.1, "steps": 20, "batch_size": 4,
            "eval_every": 5, "clip_g": 1.0, "label": "solo"},
}


def test_every_field_set_away_from_its_default_round_trips():
    import dataclasses

    cfg = parse_config(FULL)
    scen = cfg.scenarios[0]
    for obj in (cfg.guard, cfg.optimizer, scen, scen.injection, cfg.run):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) != f.default, f.name
    assert cfg.schedule.kind is ScheduleKind.CONSTANT and cfg.schedule.min_lr == 1e-4
    assert json.loads(json.dumps(emit_config(cfg))) == FULL
    assert parse_config(emit_config(cfg)) == cfg
