"""Governor-core unit tests: sensing, classification, posture, logging."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from guardlab.governor import (
    ACTIVE_SCALE_TOLERANCE,
    C_MAX,
    AnalyzerState,
    Governor,
    GuardConfig,
    Regime,
    StepLog,
    StepRecord,
    TelemetryError,
    TelemetrySample,
    TelemetrySummary,
    all_finite,
    apply_posture,
    classify_regime,
    probe_rms,
    record_from_json_dict,
    select_posture,
    sense,
    summarize_records,
    update_ema,
)
from guardlab.governor import _EMA_FLOOR
from guardlab.optim import ClipConfig, OptimizerConfig, guarded_step, init_optimizer_state
from reference_impl import reference_classify_regime, reference_select_posture, reference_summary

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
# probe_rms: the gradient RMS that sense takes
# --------------------------------------------------------------------------


def test_gradient_rms_hand_computed():
    # [DERIVED] RMS of [3, 4] = sqrt((9+16)/2) = sqrt(12.5)
    assert probe_rms(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-12)
    # np.mean's pairwise sum and division, bit for bit, as an exact float
    # (the JSONL writer's fast path), also past numpy's 8-way unrolled blocks.
    for n in (1, 20, 1031):
        g = np.random.default_rng(n).normal(size=n)
        value = probe_rms(g)
        assert type(value) is float and value == math.sqrt(np.mean(g * g)), n


def test_gradient_rms_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        probe_rms(np.array([]))
    # A non-finite entry or an overflowing mean square leaves no usable probe.
    for bad in (math.nan, math.inf, -math.inf):
        assert probe_rms(np.array([1.0, bad])) is None
    assert probe_rms(np.array([1e200, -1e200])) is None


# Signed zeros, the smallest subnormal, non-finite values, and finite values
# whose squares (1e200) or whose sum of squares (1e308, twice) overflow.
FINITENESS_SPECIALS = [-0.0, 0.0, 5e-324, math.inf, -math.inf, math.nan, 1e200, -1e200, 1e308]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(FINITENESS_SPECIALS),
                          st.floats(allow_nan=False, allow_infinity=False)),
                max_size=64))
def test_all_finite_is_isfinite_all_and_never_warns(values):
    # Run under tier-1's error::RuntimeWarning filter, so a warning fails it.
    x = np.array(values, dtype=float)
    assert all_finite(x) is bool(np.isfinite(x).all())


def test_an_enabled_guard_logs_a_null_grad_rms_where_the_mean_square_overflows():
    # Finite entries whose squares overflow: no RuntimeWarning (an error
    # under this suite's filter), and the record says the probe is unusable.
    gov = Governor(GuardConfig())
    gov.observe(0, 1.0, np.array([1e200, -1e200]), 0.1, inputs_finite=True)
    buf = io.StringIO()
    gov.log.write_jsonl(buf)
    assert gov.log.records[-1].grad_rms is None and not gov.log.records[-1].skipped
    assert '"grad_rms": null' in buf.getvalue()


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


def _initialized_state(loss_ema=1.0):
    return AnalyzerState(loss_ema=loss_ema, rms_ema=None, initialized=True)


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
    state = AnalyzerState(loss_ema=1.0, rms_ema=1.0, initialized=True)
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
)
def test_classify_regime_totality(loss, loss_ema, grad_rms, rms_ema):
    state = AnalyzerState(loss_ema=loss_ema, rms_ema=rms_ema, initialized=True)
    sample = TelemetrySample(step=0, loss=loss, grad_rms=grad_rms, lr=0.1)
    out, new_state = classify_regime(sample, state, CFG)
    assert out in list(Regime)
    assert math.isfinite(new_state.loss_ema)


# --------------------------------------------------------------------------
# select_posture
# --------------------------------------------------------------------------


def test_posture_spike_halves():
    assert select_posture(Regime.SPIKE, 1.0, CFG) == 0.5


def test_posture_stable_identity_at_bound():
    assert select_posture(Regime.STABLE, 1.0, CFG) == 1.0


def test_posture_recovery_release():
    # Release runs at recovery_fast in the stable regime.
    cfg = GuardConfig(recovery_fast=0.1)
    assert select_posture(Regime.STABLE, 0.5, cfg) == pytest.approx(0.55, rel=1e-12)


def test_posture_stress_damps():
    assert select_posture(Regime.STRESS, 1.0, CFG) == pytest.approx(0.9, rel=1e-12)


def test_posture_clamps_to_bounds():
    assert select_posture(Regime.SPIKE, 0.5, GuardConfig(c_min=0.4)) == 0.4
    assert select_posture(Regime.STABLE, 0.999, GuardConfig(recovery_fast=1.0)) == 1.0
    # A spike clamped to an int c_min, as a config built in code may give it,
    # still logs a float scale.
    gov = Governor(GuardConfig(c_min=1))
    for step, loss in enumerate((1.0, 5.0)):
        gov.observe(step, loss, None, 0.1, inputs_finite=True)
    assert gov.log.records[-1].regime is Regime.SPIKE
    assert type(gov.log.records[-1].scale) is float and gov.log.records[-1].scale == 1.0


def test_posture_skip_only_on_non_finite():
    # The skip is the log's, from the verdict observe is passed, whatever the regime.
    for inputs_finite in (True, False):
        gov = Governor(CFG)
        gov.state = AnalyzerState(loss_ema=1.0, initialized=True)
        gov.observe(1, 5.0, None, 0.1, inputs_finite=inputs_finite)
        rec = gov.log.records[-1]
        assert rec.regime is Regime.SPIKE and rec.skipped is (not inputs_finite)


def test_posture_auto_disabled_is_identity():
    cfg = GuardConfig(auto_enabled=False)
    assert select_posture(Regime.SPIKE, 0.3, cfg) == C_MAX
    # A disabled guard never skips, whatever verdict it is passed.
    gov = Governor(cfg)
    assert gov.observe(0, math.nan, np.array([0.1]), 0.1, inputs_finite=False) == C_MAX
    assert not gov.log.records[-1].skipped and not gov.log.records[-1].active


@settings(max_examples=200, deadline=None)
@given(
    regime=st.sampled_from(list(Regime)),
    scale=st.floats(0.05, 1.0),
)
def test_posture_always_within_bounds(regime, scale):
    out = select_posture(regime, scale, CFG)
    assert type(out) is float and CFG.c_min <= out <= C_MAX


def test_monotone_damping_and_release():
    # Uninterrupted Spikes: scale non-increasing. Uninterrupted Stables:
    # non-decreasing and released within the advertised step bound.
    cfg = GuardConfig(recovery_fast=0.02)
    scale = 1.0
    scales = []
    for _ in range(20):
        scale = select_posture(Regime.SPIKE, scale, cfg)
        scales.append(scale)
    assert all(b <= a for a, b in zip(scales, scales[1:]))
    s0 = scale
    bound = math.ceil(math.log(C_MAX / s0) / math.log(1.0 + cfg.recovery_fast))
    for i in range(bound):
        prev = scale
        scale = select_posture(Regime.STABLE, scale, cfg)
        assert scale >= prev
    assert scale == C_MAX


# --------------------------------------------------------------------------
# the control transitions against an independent oracle
# --------------------------------------------------------------------------


def _bits(value):
    """A value as its type and repr: equal exactly when the two are the same
    type and, for floats, the same bits (-0.0 and NaN included)."""
    return type(value), repr(value)


def _around(x):
    """x and its two float neighbours."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


_LOSSES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1.25, 1.8]),
)
_EMA_EDGES = _around(_EMA_FLOOR) + [0.0, -0.0]


@st.composite
def _c_min_and_scale(draw):
    """c_min as a code-built config may give it (the int 1) or a float, and a
    scale at, just above or just below either bound, where a damping lands
    on c_min (a tie, which c_min wins), or anywhere in [0, 1]."""
    c_min = draw(st.one_of(st.just(1), st.floats(1e-6, 1.0)))
    edges = _around(c_min) + _around(C_MAX) + [2 * c_min, c_min / 0.9]
    return c_min, draw(st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0)))


_TIE = dict(initialized=True, enabled=True, recovery_fast=0.005, bounds=(1, 2))


@settings(max_examples=500, deadline=None)
@given(
    loss=_LOSSES,
    grad_rms=st.one_of(st.none(), st.floats(0.0, 1e6), st.sampled_from(_EMA_EDGES)),
    loss_ema=st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_EMA_EDGES + [1.0])),
    rms_ema=st.one_of(st.none(), st.floats(0.0, 1e6), st.sampled_from(_EMA_EDGES + [1.0])),
    initialized=st.booleans(),
    enabled=st.booleans(),
    recovery_fast=st.sampled_from([0.0, 0.005, 0.1]),
    bounds=_c_min_and_scale(),
)
# r, then rho, exactly at a threshold.
@example(loss=1.8, grad_rms=None, loss_ema=1.0, rms_ema=None, **_TIE)
@example(loss=1.25, grad_rms=None, loss_ema=1.0, rms_ema=None, **_TIE)
@example(loss=1.0, grad_rms=1.25, loss_ema=1.0, rms_ema=1.0, **_TIE)
def test_control_transitions_match_the_reference_bit_for_bit(
    loss, grad_rms, loss_ema, rms_ema, initialized, enabled, recovery_fast, bounds
):
    c_min, scale = bounds
    cfg = GuardConfig(auto_enabled=enabled, recovery_fast=recovery_fast, c_min=c_min)
    sample = TelemetrySample(7, loss, grad_rms, 0.1)
    regime, after = classify_regime(sample, AnalyzerState(loss_ema, rms_ema, initialized), cfg)
    want_regime, want_after = reference_classify_regime(
        loss, grad_rms, loss_ema, rms_ema, initialized, cfg
    )
    assert regime is want_regime
    assert type(after) is AnalyzerState
    assert [_bits(v) for v in after] == [_bits(v) for v in want_after]
    for r in Regime:
        assert _bits(select_posture(r, scale, cfg)) == _bits(reference_select_posture(r, scale, cfg))


# --------------------------------------------------------------------------
# apply_posture
# --------------------------------------------------------------------------


def test_apply_posture_identity_and_scaling():
    delta = np.array([-0.1, 0.2])
    np.testing.assert_array_equal(apply_posture(delta, 1.0), delta)
    # At scale 1.0 the checked delta itself comes back: 1.0 * x is x, -0.0 included.
    signed_zero = np.array([-0.0, 0.25])
    assert apply_posture(signed_zero, C_MAX) is signed_zero
    np.testing.assert_allclose(apply_posture(delta, 0.5), [-0.05, 0.1], rtol=1e-12)


def test_apply_posture_rejects_non_finite_without_skip():
    for scale in (C_MAX, 0.5):
        with pytest.raises(TelemetryError):
            apply_posture(np.array([math.nan]), scale)


@settings(max_examples=100, deadline=None)
@given(
    delta=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    scale=st.floats(0.05, 1.0),
)
def test_apply_posture_never_amplifies_or_redirects(delta, scale):
    delta = np.array(delta)
    out = apply_posture(delta, scale)
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
    regimes = [Regime.STABLE, Regime.SPIKE, Regime.SPIKE, Regime.STRESS]
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
        energy += 1.0 if r.skipped else (1.0 - r.scale) ** 2
    assert summary.control_active_steps == active
    assert summary.regime_switches == switches
    assert summary.control_energy == energy


_S, _T, _P = Regime.STABLE, Regime.STRESS, Regime.SPIKE


# rows are (scale, active, skipped, regime); active and skipped count by truthiness.
@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([1.0, 1, 0.9999999999, 0.5, 0.05, 0.0, -0.0]),
            st.sampled_from([True, False, 1, 0]),
            st.sampled_from([True, False, 1, 0]),
            st.sampled_from(list(Regime)),
        ),
        max_size=30,
    )
)
@example(rows=[])
@example(rows=[(1, False, False, _S), (1.0, False, False, _S)])
@example(rows=[(1.0, False, False, _S), (1, False, False, _S)])
@example(rows=[(0.0, True, False, _T), (-0.0, True, False, _T), (0.5, True, True, _P)])
@example(rows=[(0.5, True, True, _S), (0.25, True, False, _P)] * 3 + [(1.0, False, False, _T)])
def test_summary_equals_the_five_pass_reference_exactly(rows):
    records = [
        StepRecord(i, 1.0, 1.0, regime, scale, active, skipped, None, 0.1)
        for i, (scale, active, skipped, regime) in enumerate(rows)
    ]
    summary = summarize_records(records)
    got = {f.name: getattr(summary, f.name) for f in dataclasses.fields(summary)}
    want = reference_summary(records)
    assert got == want
    assert type(got["control_energy"]) is type(want["control_energy"])
    # The first minimum: an int and a float scale, or 0.0 and -0.0, tie.
    assert _bits(got["min_scale"]) == _bits(want["min_scale"])


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


def _json_dumps_lines(records):
    keys = [f.name for f in dataclasses.fields(StepRecord)]
    return [json.dumps({k: getattr(rec, k) for k in keys}) + "\n" for rec in records]


def test_write_jsonl_equals_json_dumps_line_for_line():
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e16, 1e22, 1 / 3,
              -2.5e-308, 1.7976931348623157e308, 123456789.125]
    records = []
    for i, (x, regime) in enumerate(zip(floats * 4, list(Regime) * 18)):
        records.append(StepRecord(
            step=i, loss=x, loss_ema=floats[-1 - i % len(floats)], regime=regime,
            scale=x if i % 3 else 0.05, active=bool(i % 2), skipped=not i % 5,
            grad_rms=None if i % 4 else x, lr=floats[(3 * i) % len(floats)],
        ))
    records.append(dataclasses.replace(records[-1], step=10**30))
    # Values of another type than the field's own: an np.float64 and ints,
    # an int subclass and a plain str where a Regime goes.
    records.append(StepRecord(step=10**30 + 1, loss=np.float64(0.1), loss_ema=np.float64(math.nan),
                              regime="stable", scale=1, active=False, skipped=False,
                              grad_rms=np.float64(2.0), lr=7))
    records.append(StepRecord(step=10**30 + 2, loss=-0, loss_ema=True, regime=Regime.STRESS,
                              scale=np.float64(-0.0), active=True, skipped=True, grad_rms=0,
                              lr=np.float64(1e22)))
    buf = io.StringIO()
    StepLog(records=records).write_jsonl(buf)
    assert buf.getvalue().splitlines(keepends=True) == _json_dumps_lines(records)


# A record of the fields' own types, finite floats (-0.0 included); then at
# most one field takes a non-finite float or a value of another type.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
TYPED_RECORDS = st.fixed_dictionaries({
    "step": st.integers(0, 2**70), "loss": FINITE, "loss_ema": FINITE,
    "regime": st.sampled_from(Regime), "scale": FINITE, "active": st.booleans(),
    "skipped": st.booleans(), "grad_rms": st.one_of(st.none(), FINITE), "lr": FINITE,
})
OFF_SCHEMA_VALUES = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                              FINITE.map(np.float64), st.integers(-3, 3), st.none(),
                              st.booleans(), st.just("stable"))


@settings(max_examples=500)
@given(values=TYPED_RECORDS,
       off_type=st.one_of(st.none(), st.tuples(st.sampled_from(
           [f.name for f in dataclasses.fields(StepRecord)]), OFF_SCHEMA_VALUES)))
def test_a_jsonl_line_is_json_dumps_of_any_values(values, off_type):
    if off_type is not None:
        values = {**values, off_type[0]: off_type[1]}
    rec = StepRecord(**values)
    buf = io.StringIO()
    StepLog(records=[rec, rec]).write_jsonl(buf)
    assert buf.getvalue() == "".join(_json_dumps_lines([rec, rec]))


def test_record_from_json_dict_rejects_a_missing_or_an_unknown_key():
    line = json.loads(json.dumps(dataclasses.asdict(_rec(3))))
    assert record_from_json_dict(line) == _rec(3)
    missing = {k: v for k, v in line.items() if k != "grad_rms"}
    with pytest.raises(TypeError, match="grad_rms"):
        record_from_json_dict(missing)
    with pytest.raises(TypeError, match="rho"):
        record_from_json_dict({**line, "rho": 1.0})


def test_step_record_is_a_slotted_dataclass_in_jsonl_key_order():
    rec = _rec(3, scale=0.5, regime=Regime.STRESS)
    names = [f.name for f in dataclasses.fields(StepRecord)]
    buf = io.StringIO()
    StepLog(records=[rec]).write_jsonl(buf)
    assert list(json.loads(buf.getvalue())) == names
    assert list(dataclasses.asdict(rec)) == names
    moved = dataclasses.replace(rec, step=4, skipped=True)
    assert (moved.step, moved.skipped, moved.scale, moved.regime) == (4, True, 0.5, Regime.STRESS)
    assert (rec.step, rec.skipped) == (3, False)
    assert not hasattr(rec, "__dict__")


_REQUIRED = object()


@pytest.mark.parametrize("cls, defaults", [
    (TelemetrySample, {"step": _REQUIRED, "loss": _REQUIRED, "grad_rms": _REQUIRED,
                       "lr": _REQUIRED}),
    (AnalyzerState, {"loss_ema": 0.0, "rms_ema": None, "initialized": False}),
], ids=lambda x: getattr(x, "__name__", ""))
def test_governor_values_are_immutable_with_their_fields_and_defaults(cls, defaults):
    assert cls._fields == tuple(defaults)
    assert cls._field_defaults == {k: v for k, v in defaults.items() if v is not _REQUIRED}
    value = cls(**{k: 1 if v is _REQUIRED else v for k, v in defaults.items()})
    for name in defaults:
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
    with pytest.raises(AttributeError):
        value.extra = 2
    assert value == cls(*value)


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
        {"ema_decay": 0.0},
    ],
)
def test_guard_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GuardConfig(**kwargs)


def test_governor_skip_on_non_finite_inputs():
    gov = Governor(GuardConfig())
    assert gov.scale == C_MAX
    gov.observe(0, 1.0, np.array([0.1]), 0.1, inputs_finite=True)
    scale = gov.observe(1, math.nan, np.array([0.1]), 0.1, inputs_finite=False)
    rec = gov.log.records[-1]
    assert rec.skipped and rec.active
    assert rec.regime is Regime.SPIKE
    # The skipped step's spike still damps the scale the next step starts from.
    assert scale == gov.scale == rec.scale == 0.5


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
        # The skip oracle reads the sum of squares of the gradient after the
        # burst. A clipped gradient has norm <= 1, so its sum is finite iff
        # its entries are; only an unclipped one can overflow.
        if self.clip is not None:
            finite = bool(np.isfinite(grads).all())
        else:
            with np.errstate(over="ignore"):
                seen = grads * burst
            finite = math.isfinite(np.vdot(seen, seen))
        finite = finite and math.isfinite(loss)
        before = (self.params.tobytes(), self.opt_state.m.tobytes(),
                  self.opt_state.v.tobytes(), self.opt_state.t)
        # No np.errstate: an enabled guard's step never warns.
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
