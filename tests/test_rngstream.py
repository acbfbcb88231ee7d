"""Counter-based RNG stream tests."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from guardlab.governor import Governor, GuardConfig
from guardlab.harness import RunConfig, TaskSpec, run_training
from guardlab.optim import OptimizerConfig, guarded_step, init_optimizer_state, schedule_lr
from guardlab.rngstream import CounterStream, StreamState, advance, generator
from guardlab.tasks import sample_batch


def test_same_state_same_draws():
    a = generator(StreamState(seed=42, stream=1, counter=5)).normal(size=8)
    b = generator(StreamState(seed=42, stream=1, counter=5)).normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_distinct_draws():
    a = generator(StreamState(seed=42, stream=0)).normal(size=8)
    b = generator(StreamState(seed=42, stream=1)).normal(size=8)
    assert not np.array_equal(a, b)


def test_distinct_counters_distinct_draws():
    a = generator(StreamState(seed=42, stream=0, counter=0)).normal(size=8)
    b = generator(StreamState(seed=42, stream=0, counter=1)).normal(size=8)
    assert not np.array_equal(a, b)


def test_advance_is_pure_and_additive():
    s = StreamState(seed=1, stream=2, counter=3)
    s2 = advance(s, 4)
    assert s.counter == 3
    assert s2 == StreamState(seed=1, stream=2, counter=7)


def test_advance_default_one():
    assert advance(StreamState(seed=0)).counter == 1


@pytest.mark.parametrize("kwargs", [{"counter": -1}])
def test_state_rejects_negative_counter(kwargs):
    with pytest.raises(ValueError):
        StreamState(seed=0, **kwargs)


@given(seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 2**16),
       counter=st.integers(0, 2**20))
def test_generator_reproducible(seed, stream, counter):
    s = StreamState(seed=seed, stream=stream, counter=counter)
    assert generator(s).integers(0, 2**31) == generator(s).integers(0, 2**31)


# --------------------------------------------------------------------------
# CounterStream: one Philox per run, repositioned per counter
# --------------------------------------------------------------------------


def _fresh(seed, stream, counter):
    """The key layout spelled out: a Philox built at the counter itself."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=[counter, 0, 0, 0], key=key))


def _draw(rng, kind, size):
    if kind == "integers":
        return rng.integers(0, 2**31, size=size)
    if kind == "int32":  # consumes half a uint64, leaving a cached uint32
        return rng.integers(0, 1000, size=size, dtype=np.int32)
    if kind == "normal":
        return rng.normal(size=size)
    return rng.random(size=size)


KINDS = ("integers", "int32", "normal", "random")


@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**16),
    visits=st.lists(
        st.tuples(st.integers(0, 2**40), st.sampled_from(KINDS), st.integers(1, 9),
                  st.sampled_from(KINDS)),
        min_size=1, max_size=12,
    ),
)
def test_counter_stream_at_matches_a_fresh_generator(seed, stream, visits):
    # Counters come in any order, repeat and go backwards. Each visit draws
    # twice, so the second draw starts from whatever partial buffer (or
    # cached uint32) the first one left, and the next at() must discard it.
    s = CounterStream(seed, stream)
    for counter, first, size, second in visits:
        got = s.at(counter)
        want = generator(StreamState(seed=seed, stream=stream, counter=counter))
        oracle = _fresh(seed, stream, counter)
        for kind, n in ((first, size), (second, 3)):
            a, b, c = _draw(got, kind, n), _draw(want, kind, n), _draw(oracle, kind, n)
            assert a.tobytes() == b.tobytes() == c.tobytes()


@pytest.mark.parametrize("a,b", [(0, -1), (2**63, 2**63 + 1), (0, 2**64 - 1)])
def test_large_and_negative_seeds_get_their_own_key(a, b):
    # Seeds are taken mod 2**64, exactly: a key built from a Python list
    # would pass through float64 and merge seeds at and above 2**63.
    draws = [CounterStream(seed, 0).at(0).integers(0, 2**63, size=4) for seed in (a, b)]
    assert not np.array_equal(*draws)


def test_counter_stream_returns_one_generator():
    s = CounterStream(5, 0)
    assert s.at(3) is s.at(0)


def test_counter_stream_rejects_negative_counter():
    with pytest.raises(ValueError):
        CounterStream(5, 0).at(-1)


RUN_TASKS = {
    "quadratic": TaskSpec(kind="quadratic", dims={"dim": 6, "condition": 50.0, "noise": 0.5}),
    "mlp_regression": TaskSpec(kind="mlp_regression", dims={}),
    "bigram_lm": TaskSpec(kind="bigram_lm", dims={"alphabet": 8, "corpus_len": 256,
                                                  "eval_len": 64}),
}


@pytest.mark.parametrize("kind", list(RUN_TASKS))
def test_run_training_matches_a_sample_batch_loop(kind):
    cfg = RunConfig(task=RUN_TASKS[kind], opt=OptimizerConfig(lr=0.05), guard=GuardConfig(),
                    steps=60, batch_size=8, eval_every=20, seed=4)
    result = run_training(cfg)

    task = cfg.task.build(cfg.seed)
    params = task.init_params()
    opt_state = init_optimizer_state(task.n_params)
    gov = Governor(cfg.guard)
    state = StreamState(seed=cfg.seed, stream=0)
    for step in range(cfg.steps):
        batch, state = sample_batch(task, state, cfg.batch_size)
        loss, grads = task.loss_and_grad(params, batch)
        params, opt_state, _ = guarded_step(
            gov, opt_state, params, grads, loss, step, schedule_lr(step, cfg.schedule()), cfg.opt
        )
    assert result.params.tobytes() == params.tobytes()
    want, got = io.StringIO(), io.StringIO()
    gov.log.write_jsonl(want)
    result.log.write_jsonl(got)
    assert got.getvalue() == want.getvalue()
