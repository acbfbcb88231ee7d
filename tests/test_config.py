"""Configuration parsing, validation, and scenario-expansion tests."""

import pytest

from guardlab import config as config_module
from guardlab.config import (
    GUARD_KEYS,
    LR_PRESETS,
    MODERATE_BACKOFF,
    SAFE_BACKOFF,
    ConfigError,
    OptimizerConfig,
    ScheduleKind,
    TaskSpec,
    emit_config,
    expand_scenarios,
    parse_config,
    resolve_lr,
)
from guardlab.governor import GuardConfig


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
    assert cfg.schedule_kind is ScheduleKind.COSINE
    assert cfg.guard == GuardConfig()
    assert cfg.scenarios[0].name == "demo"


def test_parse_config_from_file(tmp_path):
    import json

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
    monkeypatch.setattr(config_module, "calibrate_divergence_lr", lambda *a, **k: 0.4)
    doc = {**MINIMAL, "schedule": {"min_lr": 0.05},
           "scenarios": [{**MINIMAL["scenarios"][0], "lr": "safe"}]}
    with pytest.raises(ConfigError, match=r"'demo'.*0\.00078125.*min_lr 0\.05"):
        expand_scenarios(parse_config(doc))


def test_guard_keys_are_exact():
    assert len(GUARD_KEYS) == 9
    assert set(GUARD_KEYS) == set(GuardConfig().__dataclass_fields__)


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


def test_resolve_lr_numeric_passthrough():
    lr = resolve_lr(0.03, TaskSpec(kind="quadratic", dims={}), OptimizerConfig(),
                    seeds=(7,), schedule_kind=ScheduleKind.COSINE, batch_size=8)
    assert lr == 0.03


def test_resolve_lr_rejects_unknown_preset():
    with pytest.raises(ConfigError):
        resolve_lr("ludicrous", TaskSpec(kind="quadratic", dims={}), OptimizerConfig(),
                   seeds=(7,), schedule_kind=ScheduleKind.COSINE, batch_size=8)


def test_resolve_lr_cache_keyed_on_batch_size(monkeypatch):
    import guardlab.config as config

    calls = []

    def fake_calibrate(task, opt, probe_steps, seed, schedule_kind, batch_size, **kw):
        calls.append(batch_size)
        return 1e-3 * batch_size

    monkeypatch.setattr(config, "calibrate_divergence_lr", fake_calibrate)
    cache = {}
    spec = TaskSpec(kind="quadratic", dims={})
    rates = [
        resolve_lr("aggressive", spec, OptimizerConfig(), seeds=(7,),
                   schedule_kind=ScheduleKind.COSINE, batch_size=b, cache=cache)
        for b in (8, 16, 8)
    ]
    assert rates == [8e-3, 16e-3, 8e-3]
    assert calls == [8, 16]
    # The base lr is not a probe input: it shares the cached rate.
    assert resolve_lr("aggressive", spec, OptimizerConfig(lr=0.5), seeds=(7,),
                      schedule_kind=ScheduleKind.COSINE, batch_size=8, cache=cache) == 8e-3
    resolve_lr("aggressive", spec, OptimizerConfig(beta2=0.99), seeds=(7,),
               schedule_kind=ScheduleKind.COSINE, batch_size=8, cache=cache)
    resolve_lr("aggressive", spec, OptimizerConfig(), seeds=(7,),
               schedule_kind=ScheduleKind.CONSTANT, batch_size=8, cache=cache)
    assert calls == [8, 16, 8, 8]


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
    spec = TaskSpec(kind="quadratic", dims={})
    for min_lr in (0.0, 1e-3, 0.0):
        resolve_lr("aggressive", spec, OptimizerConfig(), seeds=(7,),
                   schedule_kind=ScheduleKind.COSINE, batch_size=8, cache=cache, min_lr=min_lr)
    assert [m for m, _ in probes[1:]] == [0.0, 1e-3]
    assert probes[1][1][0] == 1e-4


def test_lr_presets_and_backoffs():
    assert set(LR_PRESETS) == {"aggressive", "moderate", "safe"}
    assert MODERATE_BACKOFF == 32.0
    assert SAFE_BACKOFF == 512.0


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
