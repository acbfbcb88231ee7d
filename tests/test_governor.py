"""Governor-core unit tests: sensing, classification, posture, logging."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from guardlab.governor import (
    ACTIVE_SCALE_TOLERANCE,
    C_MAX,
    NEUTRAL_POSTURE,
    AnalyzerState,
    ControlPosture,
    Governor,
    GuardConfig,
    NonFiniteGradientError,
    Regime,
    StepLog,
    StepRecord,
    TelemetryError,
    TelemetrySample,
    TelemetrySummary,
    apply_posture,
    classify_regime,
    gradient_rms,
    record_from_json_dict,
    select_posture,
    sense,
    summarize_records,
    update_ema,
)
from guardlab.optim import ClipConfig, OptimizerConfig, guarded_step, init_optimizer_state

CFG = GuardConfig()


# --------------------------------------------------------------------------
# update_ema
# --------------------------------------------------------------------------


def test_update_ema_fixed_point():
    assert update_ema(1.0, 1.0, 0.98) == 1.0


def test_update_ema_direct_formula():
    # [DERIVED] direct formula evaluation: 0.5*0 + 0.5*2 = 1, 0.75*4 + 0.25*0 = 3
    assert update_ema(0.0, 2.0, 0.5) == 1.0
    assert update_ema(4.0, 0.0, 0.75) == 3.0


def test_update_ema_rejects_non_finite():
    with pytest.raises(TelemetryError):
        update_ema(math.nan, 1.0, 0.9)
    with pytest.raises(TelemetryError):
        update_ema(1.0, math.inf, 0.9)


def test_update_ema_rejects_bad_decay():
    with pytest.raises(ValueError):
        update_ema(1.0, 1.0, 1.0)


@given(
    prev=st.floats(-1e12, 1e12),
    value=st.floats(-1e12, 1e12),
    decay=st.floats(0.01, 0.99),
)
def test_update_ema_matches_formula(prev, value, decay):
    assert update_ema(prev, value, decay) == pytest.approx(
        decay * prev + (1.0 - decay) * value, rel=1e-12, abs=1e-12
    )


# --------------------------------------------------------------------------
# gradient_rms
# --------------------------------------------------------------------------


def test_gradient_rms_hand_computed():
    # [DERIVED] RMS of [3, 4] = sqrt((9+16)/2) = sqrt(12.5)
    assert gradient_rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-12)


def test_gradient_rms_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        gradient_rms(np.array([]))
    with pytest.raises(NonFiniteGradientError):
        gradient_rms(np.array([1.0, math.nan]))


# --------------------------------------------------------------------------
# sense
# --------------------------------------------------------------------------


def test_sense_probe_cadence():
    grads = np.array([1.0, 2.0])
    assert sense(0, 2.0, grads, 0.1, CFG).grad_rms is not None
    assert sense(7, 2.0, grads, 0.1, CFG).grad_rms is None
    assert sense(10, 2.0, grads, 0.1, CFG).grad_rms is not None


def test_sense_passes_non_finite_loss_through():
    sample = sense(5, math.nan, None, 0.1, CFG)
    assert math.isnan(sample.loss)


def test_sense_non_finite_gradient_yields_missing_probe():
    sample = sense(0, 2.0, np.array([math.inf]), 0.1, CFG)
    assert sample.grad_rms is None


def test_sense_rejects_negative_step():
    with pytest.raises(ValueError):
        sense(-1, 1.0, None, 0.1, CFG)


# --------------------------------------------------------------------------
# classify_regime
# --------------------------------------------------------------------------


def _initialized_state(loss_ema=1.0, regime=Regime.STABLE, streak=0):
    return AnalyzerState(
        loss_ema=loss_ema, rms_ema=None, regime=regime,
        improving_streak=streak, initialized=True,
    )


def _sample(loss, step=1, grad_rms=None):
    return TelemetrySample(step=step, loss=loss, grad_rms=grad_rms, lr=0.1)


def test_classify_spike_on_ratio():
    regime, _ = classify_regime(_sample(2.0), _initialized_state(1.0), CFG)
    assert regime is Regime.SPIKE


def test_classify_stable_at_ratio_one():
    regime, _ = classify_regime(_sample(1.0), _initialized_state(1.0), CFG)
    assert regime is Regime.STABLE


def test_classify_non_finite_is_spike():
    for bad in (math.nan, math.inf, -math.inf):
        regime, _ = classify_regime(_sample(bad), _initialized_state(1.0), CFG)
        assert regime is Regime.SPIKE


def test_classify_stress_on_loss_ratio():
    regime, _ = classify_regime(_sample(1.3), _initialized_state(1.0), CFG)
    assert regime is Regime.STRESS


def test_classify_stress_on_gradient_ratio():
    state = AnalyzerState(
        loss_ema=1.0, rms_ema=1.0, regime=Regime.STABLE,
        improving_streak=0, initialized=True,
    )
    regime, _ = classify_regime(_sample(1.0, step=0, grad_rms=2.0), state, CFG)
    assert regime is Regime.STRESS


def test_classify_first_observation_initializes():
    regime, state = classify_regime(_sample(2.5, step=0), AnalyzerState(), CFG)
    assert regime is Regime.STABLE
    assert state.initialized
    assert state.loss_ema == 2.5


def test_classify_first_non_finite_observation_is_spike():
    regime, state = classify_regime(_sample(math.nan, step=0), AnalyzerState(), CFG)
    assert regime is Regime.SPIKE
    assert not state.initialized


def test_classify_streak_resets_on_spike_and_stress():
    state = _initialized_state(1.0, streak=2)
    _, after_spike = classify_regime(_sample(5.0), state, CFG)
    assert after_spike.improving_streak == 0
    _, after_stress = classify_regime(_sample(1.3), state, CFG)
    assert after_stress.improving_streak == 0


def test_classify_recovery_after_confirmed_improvement():
    # After a spike, recovery_confirm consecutive improving observations
    # enter Recovery while the scale is still below C_MAX.
    cfg = GuardConfig(recovery_confirm=3)
    state = _initialized_state(1.0, regime=Regime.SPIKE)
    regimes = []
    for _ in range(4):
        regime, state = classify_regime(_sample(0.5), state, cfg, current_scale=0.5)
        regimes.append(regime)
    assert regimes[:2] == [Regime.STABLE, Regime.STABLE]
    assert regimes[2] is Regime.RECOVERY
    assert regimes[3] is Regime.RECOVERY


def test_classify_recovery_ends_when_scale_released():
    cfg = GuardConfig(recovery_confirm=1)
    state = _initialized_state(1.0, regime=Regime.RECOVERY, streak=5)
    regime, _ = classify_regime(_sample(0.5), state, cfg, current_scale=1.0)
    assert regime is Regime.STABLE


def test_classify_non_finite_never_enters_ema():
    state = _initialized_state(3.0)
    _, after = classify_regime(_sample(math.nan), state, CFG)
    assert after.loss_ema == 3.0


def test_classify_ema_updates_after_classification():
    state = _initialized_state(1.0)
    _, after = classify_regime(_sample(2.0), state, CFG)
    assert after.loss_ema == pytest.approx(0.98 * 1.0 + 0.02 * 2.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    loss=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.just(math.nan),
    ),
    loss_ema=st.floats(-1e6, 1e6),
    grad_rms=st.one_of(st.none(), st.floats(0, 1e9)),
    rms_ema=st.one_of(st.none(), st.floats(0, 1e9)),
    regime=st.sampled_from(list(Regime)),
    streak=st.integers(0, 10),
    scale=st.floats(0.05, 1.0),
)
def test_classify_regime_totality(loss, loss_ema, grad_rms, rms_ema, regime, streak, scale):
    state = AnalyzerState(
        loss_ema=loss_ema, rms_ema=rms_ema, regime=regime,
        improving_streak=streak, initialized=True,
    )
    sample = TelemetrySample(step=0, loss=loss, grad_rms=grad_rms, lr=0.1)
    out, new_state = classify_regime(sample, state, CFG, current_scale=scale)
    assert out in list(Regime)
    assert math.isfinite(new_state.loss_ema)


# --------------------------------------------------------------------------
# select_posture
# --------------------------------------------------------------------------


def test_posture_spike_halves():
    posture = select_posture(Regime.SPIKE, ControlPosture(scale=1.0), CFG, True)
    assert posture.scale == 0.5


def test_posture_stable_identity_at_bound():
    posture = select_posture(Regime.STABLE, ControlPosture(scale=1.0), CFG, True)
    assert posture.scale == 1.0


def test_posture_recovery_release():
    cfg = GuardConfig(recovery_fast=0.1)
    posture = select_posture(Regime.RECOVERY, ControlPosture(scale=0.5), cfg, True)
    assert posture.scale == pytest.approx(0.55, rel=1e-12)


def test_posture_stress_damps():
    posture = select_posture(Regime.STRESS, ControlPosture(scale=1.0), CFG, True)
    assert posture.scale == pytest.approx(0.9, rel=1e-12)


def test_posture_clamps_to_bounds():
    cfg = GuardConfig(c_min=0.4)
    low = select_posture(Regime.SPIKE, ControlPosture(scale=0.5), cfg, True)
    assert low.scale == 0.4
    high = select_posture(Regime.STABLE, ControlPosture(scale=0.999), GuardConfig(recovery_fast=1.0), True)
    assert high.scale == 1.0


def test_posture_skip_only_on_non_finite():
    assert not select_posture(Regime.SPIKE, ControlPosture(), CFG, True).skip_step
    assert select_posture(Regime.SPIKE, ControlPosture(), CFG, False).skip_step


def test_posture_auto_disabled_is_identity():
    posture = select_posture(Regime.SPIKE, ControlPosture(scale=0.3), GuardConfig(auto_enabled=False), False)
    assert posture.scale == 1.0
    assert not posture.skip_step


@settings(max_examples=200, deadline=None)
@given(
    regime=st.sampled_from(list(Regime)),
    scale=st.floats(0.05, 1.0),
    loss_finite=st.booleans(),
)
def test_posture_always_within_bounds(regime, scale, loss_finite):
    posture = select_posture(regime, ControlPosture(scale=scale), CFG, loss_finite)
    assert CFG.c_min <= posture.scale <= C_MAX


@settings(max_examples=200, deadline=None)
@given(
    regime=st.sampled_from(list(Regime)),
    scale=st.one_of(st.sampled_from([1.0, 0.999, 0.5]), st.floats(0.05, 1.0)),
    auto_enabled=st.booleans(),
    recovery_fast=st.sampled_from([0.0, 0.005, 1.0]),
    loss_finite=st.booleans(),
)
def test_select_posture_shares_the_neutral_posture_exactly_when_neutral(
    regime, scale, auto_enabled, recovery_fast, loss_finite
):
    cfg = GuardConfig(auto_enabled=auto_enabled, recovery_fast=recovery_fast)
    current = ControlPosture(scale=scale)
    posture = select_posture(regime, current, cfg, loss_finite)
    neutral = posture.scale == C_MAX and not posture.skip_step
    assert (posture is NEUTRAL_POSTURE) == neutral
    if not neutral:
        assert posture is not select_posture(regime, current, cfg, loss_finite)


def test_the_neutral_posture_is_the_default_posture():
    assert NEUTRAL_POSTURE == ControlPosture()
    assert Governor(CFG).posture is NEUTRAL_POSTURE


def test_monotone_damping_and_release():
    # Uninterrupted Spikes: scale non-increasing. Uninterrupted Stables:
    # non-decreasing and released within the advertised step bound.
    cfg = GuardConfig(recovery_fast=0.02)
    posture = ControlPosture(scale=1.0)
    scales = []
    for _ in range(20):
        posture = select_posture(Regime.SPIKE, posture, cfg, True)
        scales.append(posture.scale)
    assert all(b <= a for a, b in zip(scales, scales[1:]))
    s0 = posture.scale
    bound = math.ceil(math.log(C_MAX / s0) / math.log(1.0 + cfg.recovery_fast))
    for i in range(bound):
        prev = posture.scale
        posture = select_posture(Regime.STABLE, posture, cfg, True)
        assert posture.scale >= prev
    assert posture.scale == C_MAX


# --------------------------------------------------------------------------
# apply_posture
# --------------------------------------------------------------------------


def test_apply_posture_identity_and_scaling():
    delta = np.array([-0.1, 0.2])
    np.testing.assert_array_equal(apply_posture(delta, ControlPosture(scale=1.0)), delta)
    # At scale 1.0 the checked delta itself comes back: 1.0 * x is x, -0.0 included.
    signed_zero = np.array([-0.0, 0.25])
    assert apply_posture(signed_zero, NEUTRAL_POSTURE) is signed_zero
    np.testing.assert_allclose(
        apply_posture(delta, ControlPosture(scale=0.5)), [-0.05, 0.1], rtol=1e-12
    )


def test_apply_posture_skip_zeroes():
    out = apply_posture(np.array([math.nan, 1.0]), ControlPosture(skip_step=True))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_apply_posture_rejects_non_finite_without_skip():
    with pytest.raises(TelemetryError):
        apply_posture(np.array([math.nan]), ControlPosture(skip_step=False))


@settings(max_examples=100, deadline=None)
@given(
    delta=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    scale=st.floats(0.05, 1.0),
)
def test_apply_posture_never_amplifies_or_redirects(delta, scale):
    delta = np.array(delta)
    out = apply_posture(delta, ControlPosture(scale=scale))
    assert np.all(np.abs(out) <= np.abs(delta) + 1e-15)
    assert np.all(out * delta >= 0.0)  # direction preserved elementwise


# --------------------------------------------------------------------------
# logging and summaries
# --------------------------------------------------------------------------


def _rec(step, scale=1.0, skipped=False, regime=Regime.STABLE, loss=1.0):
    active = scale < 1.0 - ACTIVE_SCALE_TOLERANCE or skipped
    return StepRecord(
        step=step, loss=loss, loss_ema=loss, regime=regime, scale=scale,
        active=active, skipped=skipped, grad_rms=None, lr=0.1,
    )


def test_log_append_and_monotonicity():
    log = StepLog()
    log.append(_rec(0))
    log.append(_rec(1))
    assert len(log.records) == 2
    with pytest.raises(ValueError):
        log.append(_rec(1))


def test_finalize_empty_log():
    summary = summarize_records(StepLog().records)
    assert summary.total_steps == 0
    assert summary.control_active_steps == 0
    assert summary.regime_switches == 0
    assert summary.control_energy == 0.0
    assert summary.skipped_steps == 0


def test_finalize_counts_and_energy():
    log = StepLog()
    for i, s in enumerate((1.0, 0.5, 1.0)):
        log.append(_rec(i, scale=s))
    summary = summarize_records(log.records)
    assert summary.control_active_steps == 1
    assert summary.control_energy == pytest.approx(0.25, rel=1e-12)
    assert summary.min_scale == 0.5


def test_finalize_skipped_contributes_one():
    log = StepLog()
    log.append(_rec(0, skipped=True))
    summary = summarize_records(log.records)
    assert summary.control_active_steps == 1
    assert summary.skipped_steps == 1
    assert summary.control_energy == 1.0


def test_regime_switch_count():
    log = StepLog()
    regimes = [Regime.STABLE, Regime.SPIKE, Regime.SPIKE, Regime.RECOVERY]
    for i, r in enumerate(regimes):
        log.append(_rec(i, regime=r))
    assert summarize_records(log.records).regime_switches == 2


@settings(max_examples=100, deadline=None)
@given(
    scales=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=40),
    skip_mask=st.lists(st.booleans(), min_size=1, max_size=40),
    regimes=st.lists(st.sampled_from(list(Regime)), min_size=1, max_size=40),
)
def test_summary_matches_independent_recount(scales, skip_mask, regimes):
    n = min(len(scales), len(skip_mask), len(regimes))
    records = [
        _rec(i, scale=scales[i], skipped=skip_mask[i], regime=regimes[i])
        for i in range(n)
    ]
    summary = summarize_records(records)
    # Independent recount written inline, different style.
    active = len([r for r in records if r.scale < 1 - 1e-9 or r.skipped])
    switches = len(
        [i for i in range(1, n) if records[i].regime != records[i - 1].regime]
    )
    energy = 0.0
    for r in records:
        energy += 1.0 if r.skipped else (1.0 - r.scale) * (1.0 - r.scale)
    assert summary.control_active_steps == active
    assert summary.regime_switches == switches
    assert summary.control_energy == pytest.approx(energy, rel=1e-12, abs=1e-15)


def test_jsonl_round_trip():
    rec = _rec(3, scale=0.5, regime=Regime.STRESS)
    log = StepLog(records=[rec])
    buf = io.StringIO()
    log.write_jsonl(buf)
    line = buf.getvalue().strip()
    parsed = record_from_json_dict(json.loads(line))
    assert parsed == rec
    assert parsed.regime is Regime.STRESS
    # JSONL field order is fixed for byte-stable diffs.
    assert list(json.loads(line)) == [
        "step", "loss", "loss_ema", "regime", "scale",
        "active", "skipped", "grad_rms", "lr",
    ]


def test_jsonl_line_is_written_exactly():
    rec = StepRecord(step=4, loss=math.nan, loss_ema=2.5, regime=Regime.SPIKE, scale=0.25,
                     active=True, skipped=True, grad_rms=None, lr=0.125)
    buf = io.StringIO()
    StepLog(records=[rec]).write_jsonl(buf)
    assert buf.getvalue() == (
        '{"step": 4, "loss": NaN, "loss_ema": 2.5, "regime": "spike", "scale": 0.25, '
        '"active": true, "skipped": true, "grad_rms": null, "lr": 0.125}\n'
    )


def test_record_from_json_dict_rejects_a_missing_or_an_unknown_key():
    line = json.loads(json.dumps(dataclasses.asdict(_rec(3))))
    assert record_from_json_dict(line) == _rec(3)
    missing = {k: v for k, v in line.items() if k != "grad_rms"}
    with pytest.raises(TypeError, match="grad_rms"):
        record_from_json_dict(missing)
    with pytest.raises(TypeError, match="rho"):
        record_from_json_dict({**line, "rho": 1.0})


# --------------------------------------------------------------------------
# GuardConfig validation and the Governor bundle
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"stats_freq": 0},
        {"stress_threshold": 1.0},
        {"spike_threshold": 1.2, "stress_threshold": 1.5},
        {"recovery_fast": -0.1},
        {"ema_decay": 1.0},
        {"c_min": 1.5},
        {"c_min": 0.0},
        {"recovery_confirm": 0},
    ],
)
def test_guard_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GuardConfig(**kwargs)


def test_governor_skip_on_non_finite_inputs():
    gov = Governor(GuardConfig())
    gov.observe(0, 1.0, np.array([0.1]), 0.1, inputs_finite=True)
    posture = gov.observe(1, math.nan, np.array([0.1]), 0.1, inputs_finite=False)
    assert posture.skip_step
    rec = gov.log.records[-1]
    assert rec.skipped and rec.active
    assert rec.regime is Regime.SPIKE


def test_governor_stable_run_is_inactive():
    gov = Governor(GuardConfig())
    for step in range(50):
        gov.observe(step, 1.0, np.array([0.1]), 0.1, inputs_finite=True)
    summary = summarize_records(gov.log.records)
    assert summary.control_active_steps == 0
    assert summary.control_energy == 0.0


# --------------------------------------------------------------------------
# guarded_step under adversarial telemetry (stateful)
# --------------------------------------------------------------------------

# 1e307 is finite, and a burst of 50 overflows it.
EXTREMES = [math.nan, math.inf, -math.inf, 1e307, 1e300, 1e-300]
N_PARAMS = 4


class GuardedStepMachine(RuleBasedStateMachine):
    """Drive guarded_step with NaN, +-inf, 1e307, 1e300 and 1e-300 losses and
    gradients, with and without a gradient burst, and check the governor's
    invariants after every step."""

    @initialize(
        c_min=st.floats(0.01, 1.0),
        stats_freq=st.sampled_from([1, 3]),
        clip=st.sampled_from([None, 1.0]),
    )
    def setup(self, c_min, stats_freq, clip):
        self.gov = Governor(GuardConfig(c_min=c_min, stats_freq=stats_freq))
        self.clip = None if clip is None else ClipConfig(g=clip)
        self.opt_cfg = OptimizerConfig(lr=0.1, weight_decay=0.01)
        self.opt_state = init_optimizer_state(N_PARAMS)
        self.params = np.linspace(-1.0, 1.0, N_PARAMS)
        self.step = 0
        # An independent running tally of the summary.
        self.active = self.skipped = self.switches = 0
        self.energy = 0.0
        self.min_scale = 1.0
        self.prev_regime = None

    @rule(
        loss=st.one_of(st.sampled_from(EXTREMES), st.floats(0.01, 10.0)),
        grad_fill=st.one_of(st.sampled_from(EXTREMES), st.floats(-10.0, 10.0)),
        grad_at=st.integers(0, N_PARAMS),
        burst=st.sampled_from([1.0, 50.0]),
    )
    def step_once(self, loss, grad_fill, grad_at, burst):
        # grad_fill lands on one entry (or, at N_PARAMS, on all of them).
        grads = np.full(N_PARAMS, 0.5)
        grads[grad_at if grad_at < N_PARAMS else slice(None)] = grad_fill
        # The skip oracle reads the gradient after the burst. A clipped
        # gradient has norm <= 1, so only an unclipped one can overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            seen = grads if self.clip is not None else grads * burst
        finite = math.isfinite(loss) and bool(np.isfinite(seen).all())
        before = (self.params.tobytes(), self.opt_state.m.tobytes(),
                  self.opt_state.v.tobytes(), self.opt_state.t)
        with np.errstate(over="ignore"):
            self.params, self.opt_state, rec = guarded_step(
                self.gov, self.opt_state, self.params, grads, loss, self.step, 0.01,
                self.opt_cfg, self.clip, grad_scale=burst,
            )
        after = (self.params.tobytes(), self.opt_state.m.tobytes(),
                 self.opt_state.v.tobytes(), self.opt_state.t)
        self.step += 1

        assert self.gov.cfg.c_min <= rec.scale <= C_MAX
        assert rec.skipped == (not finite)
        if rec.skipped:
            assert after == before
        else:
            assert self.opt_state.t == before[3] + 1
        self.active += rec.active
        self.skipped += rec.skipped
        self.switches += self.prev_regime is not None and rec.regime is not self.prev_regime
        self.energy += 1.0 if rec.skipped else (1.0 - rec.scale) ** 2
        self.min_scale = min(self.min_scale, rec.scale)
        self.prev_regime = rec.regime

    @invariant()
    def summary_is_recomputable_from_the_log(self):
        summary = summarize_records(self.gov.log.records)
        assert summary == TelemetrySummary(
            total_steps=self.step,
            control_active_steps=self.active,
            regime_switches=self.switches,
            control_energy=self.energy,
            min_scale=self.min_scale,
            skipped_steps=self.skipped,
        )


GuardedStepMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
test_guarded_step_state_machine = GuardedStepMachine.TestCase
