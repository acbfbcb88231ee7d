"""Whole runs against reference_run: the clip, the periodic burst, the skip
rule, AdamW's counter, the schedule, the governor and the log, composed over
a run and checked bit for bit against a scalar restatement of the spec."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardlab.governor import GuardConfig, TelemetryError
from guardlab.harness import (InjectionSpec, RunConfig, TaskSpec, run_probe_ladder, run_suite,
                              run_training)
from guardlab.optim import ClipConfig, OptimizerConfig, Schedule, ScheduleKind
from reference_impl import reference_run

TASKS = st.one_of(
    st.builds(lambda alphabet, corpus_len, eval_len: TaskSpec("bigram_lm", {
        "alphabet": alphabet, "corpus_len": corpus_len, "eval_len": eval_len}),
        st.integers(2, 8), st.integers(1, 64), st.integers(1, 24)),
    st.builds(lambda dim, condition, noise: TaskSpec("quadratic", {
        "dim": dim, "condition": condition, "noise": noise}),
        st.integers(2, 6), st.sampled_from([1.0, 10.0, 1e3]), st.sampled_from([0.0, 0.1])),
)


@st.composite
def guard_configs(draw):
    stress = draw(st.floats(1.01, 2.0))
    return GuardConfig(
        auto_enabled=draw(st.booleans()),
        stats_freq=draw(st.integers(1, 12)),
        stress_threshold=stress,
        spike_threshold=stress + draw(st.floats(0.01, 2.0)),
        recovery_fast=draw(st.sampled_from([0.0, 0.005, 0.2])),
        ema_decay=draw(st.floats(0.5, 0.999)),
        c_min=draw(st.floats(0.01, 1.0)),
    )


@st.composite
def run_configs(draw):
    steps = draw(st.integers(1, 40))
    lr = draw(st.sampled_from([1e-3, 0.05, 1.0, 30.0, 1e300]))
    injection = None
    if steps >= 2 and draw(st.booleans()):
        injection = InjectionSpec(magnitude=draw(st.sampled_from([1.0, 50.0, 1e300])),
                                  period=draw(st.integers(1, steps - 1)))
    return RunConfig(
        task=draw(TASKS),
        opt=OptimizerConfig(lr=lr, weight_decay=draw(st.sampled_from([0.0, 0.01]))),
        schedule=Schedule(kind=draw(st.sampled_from(list(ScheduleKind))),
                          min_lr=draw(st.sampled_from([0.0, lr / 10]))),
        guard=draw(st.none() | guard_configs()),
        clip=draw(st.none() | st.builds(ClipConfig, st.sampled_from([0.1, 1.0, 10.0]))),
        steps=steps,
        batch_size=draw(st.integers(1, 8)),
        eval_every=draw(st.integers(1, steps)),
        seed=draw(st.integers(0, 2**32 - 1)),
        injection=injection,
    )


def _jsonl(result):
    text = io.StringIO()
    result.log.write_jsonl(text)
    return text.getvalue()


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=150, deadline=None)
@given(cfg=run_configs())
def test_a_run_is_the_reference_run_bit_for_bit(cfg):
    # Diverging draws (a rate of 1e300, a burst of 1e300) warn on overflow
    # and invalid values, which the suite's warning filter makes errors.
    with np.errstate(all="ignore"):
        try:
            params, final_loss, jsonl = reference_run(cfg)
        except TelemetryError:
            # An enabled guard rejects an update that overflows on a step it
            # does not skip (finite loss and gradient): the run dies there.
            with pytest.raises(TelemetryError, match="actuation on non-finite update"):
                run_training(cfg)
            return
        result = run_training(cfg)
        runs = [(result.params, result.final_loss)]
        if cfg.clip is None and not cfg.guard_or_disabled().auto_enabled:
            # A baseline draw: one ladder row runs it too.
            (rung,) = run_probe_ladder(cfg, [cfg.opt.lr])
            runs.append((rung.params, rung.final_loss))
    assert _jsonl(result) == jsonl
    for got_params, got_loss in runs:
        assert got_params.tobytes() == np.array(params).tobytes()
        assert _same_float(got_loss, final_loss)


def test_an_enabled_guard_stops_a_run_whose_update_overflows_from_finite_inputs():
    # The one difference the oracle found between the library and a reference
    # that skipped only on non-finite inputs, pinned here. Step 0 moves the
    # logits to +-1e300; on step 1 the loss and gradient are finite, so the
    # guard does not skip, but weight decay makes the update overflow, and
    # the guard's actuation rejects it. The README states that rejection, so
    # the library follows its spec: reference_run now restates it.
    cfg = RunConfig(task=TaskSpec("bigram_lm", {"alphabet": 2, "corpus_len": 1, "eval_len": 1}),
                    opt=OptimizerConfig(lr=1e300, weight_decay=0.01), guard=GuardConfig(),
                    steps=2, batch_size=1, eval_every=1, seed=0)
    with np.errstate(all="ignore"):
        for run in (reference_run, run_training):
            with pytest.raises(TelemetryError, match="actuation on non-finite update"):
                run(cfg)


# One fixed pair per task, each arm a different path through the step: a
# clipped bigram baseline under bursts against its guard arm, and a noisy
# quadratic (a drawn batch stream) without and with the guard. Both guard
# arms act (24 and 29 control-active steps).
BIGRAM = RunConfig(task=TaskSpec("bigram_lm", {"alphabet": 6, "corpus_len": 48, "eval_len": 16}),
                   opt=OptimizerConfig(lr=0.8), clip=ClipConfig(1.0), steps=30, batch_size=4,
                   eval_every=10, seed=11, injection=InjectionSpec(magnitude=50.0, period=7),
                   label="bigram-clip1.0")
QUADRATIC = RunConfig(task=TaskSpec("quadratic", {"dim": 4, "noise": 0.1}),
                      opt=OptimizerConfig(lr=3.0), schedule=Schedule(min_lr=0.01), steps=30,
                      batch_size=4, eval_every=10, seed=5, label="quadratic-baseline")
PAIRS = [(base.label.split("-")[0], base,
          replace(base, clip=None, guard=GuardConfig(), label=base.label.split("-")[0] + "-guard"))
         for base in (BIGRAM, QUADRATIC)]


def test_the_suite_s_forked_runs_write_the_reference_run_s_jsonl(tmp_path, workers):
    rows = run_suite(PAIRS, out_dir=tmp_path)
    assert [row.error for row in rows] == [None, None]
    written = sorted(path.name for path in tmp_path.glob("*.jsonl"))
    assert written == sorted(f"{cfg.label}_seed{cfg.seed}.jsonl" for _, *arms in PAIRS
                             for cfg in arms)
    for _, *arms in PAIRS:
        for cfg in arms:
            _, _, jsonl = reference_run(cfg)
            assert (tmp_path / f"{cfg.label}_seed{cfg.seed}.jsonl").read_text() == jsonl, cfg.label
