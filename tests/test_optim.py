"""Optimizer-engine tests: AdamW oracle, clipping contract, schedule, guarded step."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from guardlab import optim
from guardlab.governor import (
    AnalyzerState,
    Governor,
    GuardConfig,
    Regime,
    TelemetryError,
)
from guardlab.harness import InjectionSpec, RunConfig, TaskSpec
from guardlab.optim import (
    ClipConfig,
    OptimizerConfig,
    OptimizerState,
    Schedule,
    ScheduleKind,
    adamw_step,
    clip_global_norm,
    guarded_step,
    init_optimizer_state,
    schedule_lr,
)
from guardlab.rngstream import StreamState
from reference_impl import reference_adamw_trajectory


# --------------------------------------------------------------------------
# adamw_step
# --------------------------------------------------------------------------


def test_adamw_first_step_closed_form():
    # [DERIVED] With m_hat = g and v_hat = g^2 on the first step, the update
    # is -lr * g/(|g| + eps) = -0.1/(1 + 1e-8).
    cfg = OptimizerConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
    delta, state = adamw_step(
        init_optimizer_state(1), np.array([1.0]), np.array([1.0]), 0.1, cfg
    )
    assert abs(delta[0] - (-0.1)) <= 1e-9
    assert state.t == 1


def test_adamw_zero_gradient_zero_decay():
    cfg = OptimizerConfig(lr=0.1)
    delta, _ = adamw_step(
        init_optimizer_state(3), np.zeros(3), np.zeros(3), 0.1, cfg
    )
    np.testing.assert_array_equal(delta, np.zeros(3))


def test_adamw_decoupled_decay_term():
    # [DERIVED] zero gradient, wd=0.1, lr=0.1, theta=1 -> delta = -lr*wd*theta = -0.01
    cfg = OptimizerConfig(lr=0.1, weight_decay=0.1)
    delta, _ = adamw_step(
        init_optimizer_state(1), np.array([1.0]), np.array([0.0]), 0.1, cfg
    )
    assert delta[0] == pytest.approx(-0.01, rel=1e-12)


def test_adamw_oracle_100_random_steps():
    # [DERIVED] independent scalar-loop reference implementation.
    rng = np.random.default_rng(123)
    n, steps = 10, 100
    cfg = OptimizerConfig(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    params0 = rng.normal(size=n)
    grad_seq = rng.normal(size=(steps, n))
    lr_seq = 0.01 * (1.0 + rng.uniform(size=steps))

    state = init_optimizer_state(n)
    params = params0.copy()
    ours = []
    for t in range(steps):
        delta, state = adamw_step(state, params, grad_seq[t], lr_seq[t], cfg)
        params = params + delta
        ours.append(params.copy())

    theirs = reference_adamw_trajectory(
        params0.tolist(), grad_seq.tolist(), lr_seq.tolist(),
        cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay,
    )
    for step in range(steps):
        np.testing.assert_allclose(ours[step], theirs[step], rtol=1e-12, atol=0)


def _one_expression_adamw(state, params, grads, lr_t, cfg):
    """AdamW as one expression per quantity: the bitwise oracle for adamw_step."""
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    delta = -lr_t * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * params)
    return delta, OptimizerState(m=m, v=v, t=t)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("shape", [(10,), (21, 10)], ids=["1d", "rows"])
def test_adamw_bitwise_equal_to_one_expression_and_pure(shape, weight_decay):
    rng = np.random.default_rng(5)
    cfg = OptimizerConfig(lr=0.01, weight_decay=weight_decay)
    params = rng.normal(size=shape)
    state = OptimizerState(m=np.zeros(shape), v=np.zeros(shape))
    ref_params, ref_state = params.copy(), OptimizerState(m=np.zeros(shape), v=np.zeros(shape))
    for step in range(60):
        # Gradients over many magnitudes (and exact zeros) exercise rounding.
        grads = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        grads[rng.random(shape) < 0.1] = 0.0
        lr_t = 0.01 * (1.0 + rng.random((shape[0], 1))) if len(shape) == 2 else 0.01 / (step + 1)
        inputs = (state.m, state.v, params, grads)
        before = _bits(*inputs)
        delta, state_next = adamw_step(state, params, grads, lr_t, cfg)
        assert _bits(*inputs) == before
        ref_delta, ref_next = _one_expression_adamw(ref_state, ref_params, grads, lr_t, cfg)
        assert _bits(delta, state_next.m, state_next.v) == _bits(ref_delta, ref_next.m, ref_next.v)
        assert state_next.t == ref_next.t == step + 1
        params, state = params + delta, state_next
        ref_params, ref_state = ref_params + ref_delta, ref_next


# Finite entries a zero weight decay must pass through bit for bit: signed
# zeros, subnormals, and magnitudes whose square overflows (v -> inf).
EDGE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, 1e154, -1e200, 1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Rates a schedule gives, the cosine's final 0.0 included.
RATES = st.sampled_from([0.0, 1e-3, 0.1, 1.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(3,), (21, 3)]), t=st.integers(0, 50))
def test_zero_weight_decay_steps_params_as_the_textbook_bitwise(data, shape, t):
    # Without the weight-decay pass a zero entry of the delta may differ in
    # sign from the textbook's, but params + delta may not, for any finite
    # param: adding +-0.0 to a param >= +0.0 gives the same bits.
    cfg = OptimizerConfig(lr=0.1)
    params, grads, m = (data.draw(arrays(np.float64, shape, elements=EDGE_ENTRIES))
                        for _ in range(3))
    v = data.draw(arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([0.0, 5e-324, math.inf]), st.floats(0.0, allow_nan=False))))
    if len(shape) == 2:
        lr_t = data.draw(arrays(np.float64, (shape[0], 1), elements=RATES))
    else:
        lr_t = data.draw(RATES)
    state = OptimizerState(m=m, v=v, t=t)
    with np.errstate(all="ignore"):
        delta, new_state = adamw_step(state, params, grads, lr_t, cfg)
        textbook, want_state = _one_expression_adamw(state, params, grads, lr_t, cfg)
        assert (params + delta).tobytes() == (params + textbook).tobytes()
    assert _bits(new_state.m, new_state.v) == _bits(want_state.m, want_state.v)
    assert new_state.t == want_state.t == t + 1
    if len(shape) == 2:
        return
    # The same through an enabled guard, at a neutral and a damped posture.
    # It skips a gradient whose sum of squares overflows.
    for scale in (1.0, 0.5):
        gov = Governor(GuardConfig())
        gov.state = AnalyzerState(loss_ema=1.0, initialized=True)
        gov.scale = scale
        with np.errstate(all="ignore"):
            if not math.isfinite(np.vdot(grads, grads)):
                new_params, new_state, rec = guarded_step(gov, state, params, grads, 1.0, 1,
                                                          lr_t, cfg)
                assert rec.skipped and new_params is params and new_state is state
                continue
            if not np.isfinite(textbook).all():
                with pytest.raises(TelemetryError):
                    guarded_step(gov, state, params, grads, 1.0, 1, lr_t, cfg)
                continue
            new_params, _, rec = guarded_step(gov, state, params, grads, 1.0, 1, lr_t, cfg)
            assert new_params.tobytes() == (params + rec.scale * textbook).tobytes()
        assert not rec.skipped and (rec.scale == 1.0) == (scale == 1.0)


def test_zero_weight_decay_keeps_an_infinite_param_where_the_textbook_makes_it_nan():
    # The one departure from the textbook expression at weight_decay 0: a
    # param already at +-inf, reached only after an update overflows. The
    # textbook adds 0.0 * inf = NaN to its delta; adamw_step adds nothing.
    cfg = OptimizerConfig(lr=0.1)
    params = np.array([math.inf, -math.inf, 1.0])
    grads = np.array([0.5, -0.5, 0.5])
    delta, _ = adamw_step(init_optimizer_state(3), params, grads, 0.1, cfg)
    with np.errstate(invalid="ignore"):
        textbook, _ = _one_expression_adamw(init_optimizer_state(3), params, grads, 0.1, cfg)
    assert np.isnan(textbook[:2]).all() and np.isfinite(delta).all()
    assert (params + delta).tolist() == [math.inf, -math.inf, (params + textbook)[2]]


def test_adamw_t_advances_by_one():
    cfg = OptimizerConfig(lr=0.1)
    state = init_optimizer_state(2)
    for expected_t in (1, 2, 3):
        _, state = adamw_step(state, np.zeros(2), np.ones(2), 0.1, cfg)
        assert state.t == expected_t


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": 0.0},
        {"beta1": 1.0},
        {"beta2": 0.0},
        {"eps": 0.0},
        {"weight_decay": -1.0},
    ],
)
def test_optimizer_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        OptimizerConfig(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("build, field", [
    (OptimizerConfig, "lr"),
    (OptimizerConfig, "eps"),
    (OptimizerConfig, "weight_decay"),
    (Schedule, "min_lr"),
    (ClipConfig, "g"),
    (GuardConfig, "recovery_fast"),
    (GuardConfig, "spike_threshold"),
    (InjectionSpec, "magnitude"),
], ids=["OptimizerConfig.lr", "OptimizerConfig.eps", "OptimizerConfig.weight_decay",
        "Schedule.min_lr", "ClipConfig.g",
        "GuardConfig.recovery_fast", "GuardConfig.spike_threshold", "InjectionSpec.magnitude"])
def test_configs_built_directly_reject_non_finite_values(build, field, value):
    # As the config file's strict_float does: a NaN passes a bare "x <= 0"
    # check, and an inf passes a check with one bound.
    with pytest.raises(ValueError, match=field):
        build(**{field: value})


@pytest.mark.parametrize("build, field", [
    (partial(RunConfig, task=TaskSpec("quadratic")), "steps"),
    (partial(RunConfig, task=TaskSpec("quadratic")), "batch_size"),
    (partial(RunConfig, task=TaskSpec("quadratic")), "eval_every"),
    (InjectionSpec, "period"),
    (GuardConfig, "stats_freq"),
    (partial(StreamState, seed=0), "counter"),
], ids=["RunConfig.steps", "RunConfig.batch_size", "RunConfig.eval_every",
        "InjectionSpec.period", "GuardConfig.stats_freq", "StreamState.counter"])
def test_int_fields_built_directly_reject_nan(build, field):
    # As the config file's strict_int does: a NaN passes a bare "x < 1"
    # check, and a NaN period or eval_every would never fire.
    with pytest.raises(ValueError, match=field):
        build(**{field: math.nan})


# --------------------------------------------------------------------------
# clip_global_norm
# --------------------------------------------------------------------------


def test_clip_rescales_over_threshold():
    clipped, pre_norm = clip_global_norm(np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8], rtol=1e-12)
    assert pre_norm == 5.0


def test_clip_under_threshold_unchanged():
    grads = np.array([0.3, 0.4])
    for g in (0.5, 1.0, 1e308, math.inf):
        clipped, pre_norm = clip_global_norm(grads, g)
        # A clip that does not fire returns its input array itself.
        assert clipped is grads
        assert pre_norm == 0.5
    # NaN is no threshold, as a non-positive g is not.
    for g in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="clip threshold g must be > 0"):
            clip_global_norm(grads, g)


def test_clip_zero_vector():
    clipped, pre_norm = clip_global_norm(np.zeros(4), 0.5)
    np.testing.assert_array_equal(clipped, np.zeros(4))
    assert pre_norm == 0.0


def test_clip_passes_a_non_finite_gradient_through():
    # At every threshold, also beside an entry whose square overflows: the
    # gradient itself comes back, and no warning is raised.
    for g in (1e-300, 1.0, 1e308, math.inf):
        for bad in (math.nan, math.inf, -math.inf):
            for grads in (np.array([bad]), np.array([0.0, bad, 1e-3]), np.array([1e200, bad])):
                assert clip_global_norm(grads, g)[0] is grads


def test_clip_pre_norm_is_np_linalg_norm_bitwise():
    # Transposed stacks too: np.linalg.norm sums them in memory order.
    rng = np.random.default_rng(3)
    stacks = [rng.normal(size=(64, 48)).T for _ in range(16)]
    for grads in (rng.normal(size=1024), rng.normal(size=(3, 5)) * 1e-150, np.zeros(0), *stacks):
        assert clip_global_norm(grads, 1e308)[1] == float(np.linalg.norm(grads))


def test_clip_keeps_the_direction_when_the_norm_overflows():
    # Finite entries whose sum of squares overflows: the norm reads inf,
    # and the clipped vector still points along the gradient.
    clipped, pre_norm = clip_global_norm(np.array([1e200, -1e200]), 1.0)
    assert pre_norm == math.inf
    np.testing.assert_allclose(clipped, [math.sqrt(0.5), -math.sqrt(0.5)], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    vec=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16),
    g=st.floats(1e-6, 1e3),
)
def test_clip_contract(vec, g):
    grads = np.array(vec)
    clipped, pre_norm = clip_global_norm(grads, g)
    assert float(np.linalg.norm(clipped)) <= g + 1e-12 or pre_norm <= g
    # Positive collinearity: clipped is a non-negative multiple of grads.
    assert float(np.dot(clipped, grads)) >= 0.0
    if pre_norm > 0:
        ratio = float(np.linalg.norm(clipped)) / pre_norm
        np.testing.assert_allclose(clipped, ratio * grads, rtol=1e-9, atol=1e-12)


# --------------------------------------------------------------------------
# schedule_lr
# --------------------------------------------------------------------------


def test_schedule_boundaries_exact():
    cfg = Schedule(min_lr=0.01)
    assert schedule_lr(0, 100, cfg, 0.5) == 0.5
    assert schedule_lr(100, 100, cfg, 0.5) == pytest.approx(0.01, abs=1e-18)


def test_schedule_midpoint():
    cfg = Schedule(min_lr=0.0)
    assert schedule_lr(50, 100, cfg, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_schedule_clamps_past_total():
    cfg = Schedule(min_lr=0.01)
    assert schedule_lr(101, 100, cfg, 0.5) == 0.01


def test_schedule_constant():
    cfg = Schedule(kind=ScheduleKind.CONSTANT)
    for step in (0, 50, 100):
        assert schedule_lr(step, 100, cfg, 0.5) == 0.5


@pytest.mark.parametrize("make, expected", [
    # A kind given as its string is that kind: "constant" runs the constant rate.
    pytest.param(lambda: schedule_lr(50, 100, Schedule(kind="constant"), 0.5), 0.5,
                 id="schedule-constant"),
    pytest.param(lambda: Schedule(kind="bogus"), ValueError, id="schedule-bogus"),
    pytest.param(lambda: InjectionSpec(mode="x"), ValueError, id="injection-mode"),
    pytest.param(lambda: TaskSpec("x"), ValueError, id="task-kind"),
])
def test_a_kind_built_in_code_is_one_the_lab_runs(make, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            make()
    else:
        assert make() == expected


def test_schedule_config_rejects_invalid():
    with pytest.raises(ValueError, match="min_lr"):
        Schedule(min_lr=-0.1)
    # No schedule decays upwards: a RunConfig whose floor exceeds its rate
    # does not build.
    with pytest.raises(ValueError, match="min_lr 0.2 exceeds lr 0.1"):
        RunConfig(task=TaskSpec("quadratic"), opt=OptimizerConfig(lr=0.1),
                  schedule=Schedule(min_lr=0.2), steps=100, eval_every=10)


# --------------------------------------------------------------------------
# guarded_step
# --------------------------------------------------------------------------


def test_guarded_step_off_switch_matches_plain_adamw():
    rng = np.random.default_rng(7)
    n = 6
    cfg = OptimizerConfig(lr=0.05, weight_decay=0.01)
    gov = Governor(GuardConfig(auto_enabled=False))
    params_guarded = rng.normal(size=n)
    params_plain = params_guarded.copy()
    state_guarded = init_optimizer_state(n)
    state_plain = init_optimizer_state(n)
    for step in range(200):
        grads = rng.normal(size=n)
        loss = float(rng.uniform(0.5, 2.0))
        params_guarded, state_guarded, rec = guarded_step(
            gov, state_guarded, params_guarded, grads, loss, step, 0.05, cfg
        )
        delta, state_plain = adamw_step(state_plain, params_plain, grads, 0.05, cfg)
        params_plain = params_plain + delta
        assert rec.scale == 1.0
        np.testing.assert_array_equal(params_guarded, params_plain)


def test_guarded_step_skips_on_nan_loss():
    gov = Governor(GuardConfig())
    cfg = OptimizerConfig(lr=0.1)
    params = np.array([1.0, 2.0])
    state = init_optimizer_state(2)
    gov.observe  # warm path not needed; first observation may skip directly
    new_params, new_state, rec = guarded_step(
        gov, state, params, np.array([0.1, 0.1]), math.nan, 0, 0.1, cfg
    )
    np.testing.assert_array_equal(new_params, params)
    assert new_state is state
    assert new_state.t == 0
    assert rec.skipped


def test_guarded_step_skips_on_non_finite_gradient():
    gov = Governor(GuardConfig())
    cfg = OptimizerConfig(lr=0.1)
    params = np.array([1.0])
    state = init_optimizer_state(1)
    new_params, new_state, rec = guarded_step(
        gov, state, params, np.array([math.inf]), 1.0, 0, 0.1, cfg
    )
    np.testing.assert_array_equal(new_params, params)
    assert new_state.t == 0
    # The loss itself is finite, so the regime stays Stable; the skip comes
    # from the non-finite gradient input.
    assert rec.skipped and rec.regime is Regime.STABLE


def test_guarded_step_moments_follow_clipped_gradient_regardless_of_scale():
    # Force a spike; the applied delta is damped but the moments absorb the
    # full (clipped) gradient.
    gov = Governor(GuardConfig())
    cfg = OptimizerConfig(lr=0.1)
    params = np.zeros(1)
    state = init_optimizer_state(1)
    params, state, _ = guarded_step(gov, state, params, np.array([0.1]), 1.0, 0, 0.1, cfg)
    grads = np.array([0.2])
    _, state_after, rec = guarded_step(gov, state, params, grads, 10.0, 1, 0.1, cfg)
    assert rec.regime is Regime.SPIKE and rec.scale == 0.5
    expected_m = cfg.beta1 * state.m + (1 - cfg.beta1) * grads
    np.testing.assert_allclose(state_after.m, expected_m, rtol=1e-12)


def test_guarded_step_applies_clip_before_sensing():
    gov = Governor(GuardConfig())
    cfg = OptimizerConfig(lr=0.1)
    params = np.zeros(2)
    state = init_optimizer_state(2)
    _, _, rec = guarded_step(
        gov, state, params, np.array([30.0, 40.0]), 1.0, 0, 0.1, cfg,
        clip=ClipConfig(g=1.0),
    )
    # Post-clip vector is [0.6, 0.8]; its RMS is sqrt(0.5), sensed on step 0.
    assert rec.grad_rms == pytest.approx(math.sqrt(0.5), rel=1e-12)


def test_guarded_step_grad_scale_applies_after_clip():
    gov = Governor(GuardConfig(auto_enabled=False))
    cfg = OptimizerConfig(lr=0.1)
    state = init_optimizer_state(2)
    _, _, rec = guarded_step(
        gov, state, np.zeros(2), np.array([30.0, 40.0]), 1.0, 0, 0.1, cfg,
        clip=ClipConfig(g=1.0), grad_scale=50.0,
    )
    # Clip to norm 1, then scale by 50: sensed RMS = 50 * sqrt(0.5).
    assert rec.grad_rms == pytest.approx(50.0 * math.sqrt(0.5), rel=1e-12)


@pytest.mark.parametrize("auto_enabled", [False, True])
def test_guarded_step_survives_gradient_rms_overflow(auto_enabled):
    # Every entry of 1e200 is finite but its square overflows: the RMS probe
    # is unusable (None), and the next probe step must not raise.
    gov = Governor(GuardConfig(auto_enabled=auto_enabled))
    cfg = OptimizerConfig(lr=0.1)
    params = np.zeros(3)
    state = init_optimizer_state(3)
    records = []
    with np.errstate(over="ignore"):
        for step in range(21):
            grads = np.full(3, 1e200 if step == 0 else 1.0)
            params, state, rec = guarded_step(gov, state, params, grads, 1.0, step, 0.1, cfg)
            records.append(rec)
    # An enabled guard skips the step: the sum of squares overflows too.
    assert records[0].grad_rms is None and records[0].skipped is auto_enabled
    assert records[10].grad_rms == 1.0 and records[20].grad_rms == 1.0
    assert np.all(np.isfinite(params))


@pytest.mark.parametrize("grads, burst", [([1e200, -1e200], 1.0), ([1e307, 1.0], 50.0)],
                         ids=["square-overflow", "burst-overflow"])
def test_an_enabled_guard_skips_a_gradient_whose_square_overflows(grads, burst):
    # Finite entries whose sum of squares overflows, with no RuntimeWarning
    # (an error under this suite's filter): the step is skipped, and params,
    # moments and t are untouched.
    gov = Governor(GuardConfig())
    params = np.array([0.5, -0.5])
    state = OptimizerState(m=np.array([0.1, -0.2]), v=np.array([0.01, 0.04]), t=3)
    new_params, new_state, rec = guarded_step(gov, state, params, np.array(grads), 1.0, 0, 1e-2,
                                              OptimizerConfig(lr=1e-2), grad_scale=burst)
    assert rec.skipped and rec.active
    assert new_params is params and new_state is state
    assert (params.tolist(), state.m.tolist(), state.v.tolist(), state.t) == (
        [0.5, -0.5], [0.1, -0.2], [0.01, 0.04], 3)


def test_a_gradient_whose_square_overflows_freezes_its_parameter():
    # Past a disabled guard, plain AdamW: 1e200 is finite, and its square
    # makes AdamW's second moment inf. Every later delta of that parameter
    # is m / inf = 0, so it stays where it was for the run.
    gov = Governor(GuardConfig(auto_enabled=False))
    cfg = OptimizerConfig(lr=1e-2)
    params = np.zeros(2)
    state = init_optimizer_state(2)
    with np.errstate(over="ignore"):
        for step in range(50):
            grads = np.array([1e200, 1.0]) if step == 0 else np.ones(2)
            params, state, rec = guarded_step(gov, state, params, grads, 1.0, step, 1e-2, cfg)
            assert not rec.skipped
    assert gov.log.records[0].grad_rms is None
    assert params[0] == 0.0 and state.v[0] == math.inf
    assert params[1] < 0.0 and math.isfinite(state.v[1])


# --------------------------------------------------------------------------
# guarded_step: one finiteness verdict per step
# --------------------------------------------------------------------------

# 1e307 is finite, and a burst of 50 overflows it.
SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e307]


@settings(max_examples=300, deadline=None)
@given(
    loss=st.one_of(st.sampled_from(SPECIALS), st.floats(0.01, 10.0)),
    grads=st.lists(st.one_of(st.sampled_from(SPECIALS), st.floats(-10.0, 10.0)),
                   min_size=3, max_size=3),
    auto_enabled=st.booleans(),
    clip=st.sampled_from([None, 0.5]),
    burst=st.sampled_from([1.0, 50.0]),
    weight_decay=st.sampled_from([0.0, 0.01]),
    scale=st.sampled_from([1.0, 0.5, 0.3, 0.05]),
    t=st.integers(0, 5),
)
# A finite gradient that the burst overflows, clipped and unclipped; a NaN
# gradient past a disabled guard; a damped step; signed zeros at scale 1.0.
@example(loss=1.0, grads=[1e307, 0.5, -0.0], auto_enabled=True, clip=None, burst=50.0,
         weight_decay=0.0, scale=1.0, t=0)
@example(loss=1.0, grads=[1e307, 0.5, -0.0], auto_enabled=True, clip=0.5, burst=50.0,
         weight_decay=0.01, scale=0.5, t=2)
@example(loss=1.0, grads=[math.nan, 0.5, 1.0], auto_enabled=False, clip=0.5, burst=1.0,
         weight_decay=0.01, scale=1.0, t=1)
@example(loss=5.0, grads=[0.1, -0.2, 0.3], auto_enabled=True, clip=None, burst=1.0,
         weight_decay=0.01, scale=0.3, t=3)
@example(loss=-0.0, grads=[-0.0, 0.0, -0.0], auto_enabled=True, clip=None, burst=1.0,
         weight_decay=0.0, scale=1.0, t=0)
# A finite gradient beside a NaN loss is not clipped.
@example(loss=math.nan, grads=[3.0, -4.0, 0.5], auto_enabled=False, clip=0.5, burst=1.0,
         weight_decay=0.0, scale=1.0, t=1)
def test_guarded_step_is_the_textbook_composition_byte_for_byte(
    loss, grads, auto_enabled, clip, burst, weight_decay, scale, t
):
    # The textbook step: clip a finite gradient beside a finite loss, apply
    # the burst, skip if an enabled guard sees a non-finite loss or gradient
    # sum of squares, else take params + scale * adamw_step (a disabled
    # guard lets a non-finite gradient through, as plain AdamW).
    grads = np.array(grads)
    cfg = OptimizerConfig(lr=0.1, weight_decay=weight_decay)
    gov = Governor(GuardConfig(auto_enabled=auto_enabled))
    # The step's posture moves from this one: at scale 1.0 a finite loss at
    # or below the EMA keeps it neutral, and a spike damps it.
    gov.state = AnalyzerState(loss_ema=1.0, initialized=True)
    gov.scale = scale
    params = np.array([1.0, -0.5, -0.0])
    state = OptimizerState(m=np.array([0.1, -0.2, -0.0]), v=np.array([0.01, 0.04, 0.0]), t=t)
    with np.errstate(all="ignore"):
        finite = math.isfinite(loss) and bool(np.isfinite(grads).all())
        seen = clip_global_norm(grads, clip)[0] if clip is not None and finite else grads
        if burst != 1.0:
            seen = seen * burst
        finite = finite and math.isfinite(np.vdot(seen, seen))
        new_params, new_state, rec = guarded_step(
            gov, state, params, grads, loss, 0, 0.1, cfg,
            None if clip is None else ClipConfig(g=clip), grad_scale=burst,
        )
        assert rec.skipped == (auto_enabled and not finite)
        if rec.skipped:
            assert new_params is params and new_state is state
            return
        delta, want_state = adamw_step(state, params, seen, 0.1, cfg)
        want = params + rec.scale * delta
    assert auto_enabled or rec.scale == 1.0
    assert new_params.tobytes() == want.tobytes()
    assert new_state.m.tobytes() == want_state.m.tobytes()
    assert new_state.v.tobytes() == want_state.v.tobytes()
    assert new_state.t == want_state.t == t + 1


@pytest.mark.parametrize("clip", [None, ClipConfig(g=1.0)], ids=["unclipped", "clipped"])
@pytest.mark.parametrize("loss, grad, burst", [
    (math.nan, 0.5, 1.0),
    (math.inf, 0.5, 1.0),
    (1.0, math.nan, 1.0),
    (1.0, math.inf, 1.0),
    (1.0, 1e307, 50.0),
    (1.0, 0.5, 1.0),
], ids=["nan-loss", "inf-loss", "nan-grad", "inf-grad", "burst-overflow", "finite"])
def test_an_enabled_guard_never_steps_adamw_on_a_non_finite_gradient(
    monkeypatch, clip, loss, grad, burst
):
    calls = []
    unchecked = optim.adamw_step

    def finite_only(state, params, grads, *args, **kwargs):
        assert np.isfinite(grads).all(), "adamw_step reached with a non-finite gradient"
        calls.append(grads)
        return unchecked(state, params, grads, *args, **kwargs)

    monkeypatch.setattr(optim, "adamw_step", finite_only)
    # No np.errstate: an overflowing burst does not warn.
    _, _, rec = guarded_step(
        Governor(GuardConfig()), init_optimizer_state(2), np.zeros(2),
        np.array([grad, 0.5]), loss, 0, 0.1, OptimizerConfig(lr=0.1), clip,
        grad_scale=burst,
    )
    # A clipped gradient has norm <= 1, so only an unclipped one overflows.
    overflows = clip is None and burst != 1.0
    assert rec.skipped == (not (math.isfinite(loss) and math.isfinite(grad)) or overflows)
    assert len(calls) == (0 if rec.skipped else 1)


@pytest.mark.parametrize("auto_enabled, clip, burst, skip, calls", [
    (False, None, 1.0, False, 0),
    (False, None, 50.0, False, 0),
    (False, ClipConfig(g=1.0), 1.0, False, 1),
    (False, ClipConfig(g=1.0), 50.0, False, 1),
    (True, None, 1.0, False, 2),
    (True, None, 50.0, False, 2),
    (True, ClipConfig(g=1.0), 50.0, False, 3),
    (True, None, 1e308, True, 1),
], ids=["off", "off-burst", "off-clip", "off-clip-burst", "on", "on-burst", "on-clip-burst",
        "on-burst-overflow"])
def test_the_finiteness_verdict_is_taken_only_where_it_is_read(
    monkeypatch, auto_enabled, clip, burst, skip, calls
):
    # The np.vdot sums of squares a step takes, with a finite loss: one for
    # the clip's norm when it clips; none else for a disabled guard; and for
    # an enabled guard the skip verdict on the post-burst gradient and
    # apply_posture's check of the delta, unless the step skips.
    counted = []
    real = np.vdot

    def counting(a, b):
        counted.append(a)
        return real(a, b)

    monkeypatch.setattr(np, "vdot", counting)
    _, _, rec = guarded_step(
        Governor(GuardConfig(auto_enabled=auto_enabled)), init_optimizer_state(2),
        np.zeros(2), np.array([3.0, 5.0]), 1.0, 0, 0.1, OptimizerConfig(lr=0.1), clip,
        grad_scale=burst,
    )
    assert rec.skipped == skip
    assert len(counted) == calls
