"""Task tests: gradient oracles via finite differences, determinism, analytics."""

import math

import numpy as np
import pytest

from guardlab.rngstream import StreamState, advance
from guardlab.tasks import (
    TASK_CLASSES,
    QuadraticTask,
    evaluate,
    forward_backward,
    make_task,
    sample_batch,
)
from reference_impl import central_difference_gradient


# --------------------------------------------------------------------------
# Finite-difference gradient oracle
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(TASK_CLASSES))
def test_gradient_matches_finite_differences(kind):
    # [DERIVED] central-difference oracle at 20 random points per task kind.
    task = make_task(kind, seed=11)
    state = StreamState(seed=11, stream=0)
    batch, state = sample_batch(task, state, batch_size=8)
    rng = np.random.default_rng(99)
    n = task.init_params().size
    for _ in range(20):
        params = rng.normal(scale=0.5, size=n)
        _, grad = forward_backward(task, params, batch)

        def f(x):
            loss, _ = forward_backward(task, x, batch)
            return loss

        fd = central_difference_gradient(f, params.tolist())
        denom = max(1.0, float(np.linalg.norm(grad)))
        assert float(np.linalg.norm(grad - np.array(fd))) / denom < 1e-5


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(TASK_CLASSES))
def test_make_task_deterministic_in_seed(kind):
    a = make_task(kind, seed=3)
    b = make_task(kind, seed=3)
    np.testing.assert_array_equal(a.init_params(), b.init_params())
    res_a = evaluate(a, a.init_params())
    res_b = evaluate(b, b.init_params())
    assert res_a.eval_loss == res_b.eval_loss


def test_make_task_different_seeds_differ():
    a = make_task("mlp_regression", seed=1)
    b = make_task("mlp_regression", seed=2)
    pa = a.init_params()
    pb = b.init_params()
    la, _ = forward_backward(a, pa, a.draw_batch(np.random.default_rng(0), 8))
    lb, _ = forward_backward(b, pa, b.draw_batch(np.random.default_rng(0), 8))
    assert la != lb or not np.array_equal(pa, pb)


def test_make_task_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_task("transformer", seed=0)


def test_make_task_rejects_unknown_dim():
    with pytest.raises(ValueError):
        make_task("quadratic", dims={"width": 4}, seed=0)


# --------------------------------------------------------------------------
# Quadratic analytics
# --------------------------------------------------------------------------


def test_quadratic_gradient_closed_form():
    task = QuadraticTask(dim=8, condition=100.0, seed=5, noise=0.0)
    rng = np.random.default_rng(1)
    params = rng.normal(size=8)
    batch = task.draw_batch(np.random.default_rng(2), 4)
    _, grad = forward_backward(task, params, batch)
    # With noiseless targets b, the gradient is H*theta - b elementwise.
    expected = task.h * params - batch.targets
    np.testing.assert_allclose(grad, expected, rtol=1e-10)


def test_quadratic_minimizer_is_stationary_with_zero_loss():
    task = QuadraticTask(dim=6, condition=1e3, seed=9, noise=0.0)
    theta_star = task.minimizer()
    batch = task.draw_batch(np.random.default_rng(0), 4)
    loss, grad = forward_backward(task, theta_star, batch)
    assert abs(loss) < 1e-12
    assert float(np.max(np.abs(grad))) < 1e-10


# --------------------------------------------------------------------------
# Bigram analytics
# --------------------------------------------------------------------------


def test_bigram_zero_params_gives_uniform_loss():
    # [DERIVED] all-zero logits are a uniform model: CE = ln(alphabet).
    task = make_task("bigram_lm", {"alphabet": 32}, seed=4)
    res = evaluate(task, task.init_params())
    assert res.eval_loss == pytest.approx(math.log(32), rel=1e-12)
    assert res.perplexity == pytest.approx(32.0, rel=1e-9)


def test_evaluate_is_pure():
    task = make_task("bigram_lm", seed=8)
    params = task.init_params() + 0.1
    first = evaluate(task, params)
    second = evaluate(task, params)
    assert first.eval_loss == second.eval_loss
    assert first.perplexity == second.perplexity


def test_perplexity_is_exp_of_loss():
    task = make_task("mlp_regression", seed=2)
    params = task.init_params()
    res = evaluate(task, params)
    assert res.perplexity == pytest.approx(math.exp(res.eval_loss), rel=1e-12)


def test_evaluate_overflow_yields_non_finite_not_exception():
    task = make_task("quadratic", seed=0)
    params = np.full(task.init_params().size, 1e200)
    with pytest.warns(RuntimeWarning, match="overflow"):
        res = evaluate(task, params)
    assert not math.isfinite(res.perplexity) or res.perplexity == math.inf


# --------------------------------------------------------------------------
# sample_batch
# --------------------------------------------------------------------------


def test_sample_batch_same_state_same_batch():
    task = make_task("bigram_lm", seed=6)
    state = StreamState(seed=6, stream=0, counter=17)
    batch_a, next_a = sample_batch(task, state, 16)
    batch_b, next_b = sample_batch(task, state, 16)
    np.testing.assert_array_equal(batch_a.inputs, batch_b.inputs)
    np.testing.assert_array_equal(batch_a.targets, batch_b.targets)
    assert next_a == next_b
    assert next_a.counter == 18


def test_sample_batch_advancing_changes_batch():
    task = make_task("mlp_regression", seed=6)
    state = StreamState(seed=6, stream=0)
    batch_a, state = sample_batch(task, state, 16)
    batch_b, _ = sample_batch(task, state, 16)
    assert not np.array_equal(batch_a.inputs, batch_b.inputs)


def test_sample_batch_size_one():
    task = make_task("mlp_regression", seed=0)
    batch, _ = sample_batch(task, StreamState(seed=0), 1)
    assert batch.inputs.shape[0] == 1


def test_sample_batch_thousand_counters_distinct():
    task = make_task("mlp_regression", seed=13)
    state = StreamState(seed=13, stream=0)
    seen = set()
    for _ in range(1000):
        batch, state = sample_batch(task, state, 4)
        seen.add(batch.inputs.tobytes())
    assert len(seen) == 1000


def test_advance_requires_positive():
    with pytest.raises(ValueError):
        advance(StreamState(seed=0), 0)


# --------------------------------------------------------------------------
# Bigram corpus and the batched gradient entry point
# --------------------------------------------------------------------------


# sha256 of the train/eval pairs (int64, little endian) as the per-token
# ``rng.choice`` loop drew them; the vectorised sampler must reproduce them.
BIGRAM_CORPUS_SHA256 = [
    (0, {}, "b0f930a240e237fefe0a9be6d00f3c51ec800ea4ad9216f556d026c4588e2f3d"),
    (7, {"alphabet": 8, "corpus_len": 256, "eval_len": 64},
     "52e93ae966ae0cb7fe960f3c795cc88219956cf404c6ee0f1ba5883996b466c5"),
    (42, {"alphabet": 64, "concentration": 0.5},
     "bae8940f674d2732e14fb7dfef1896d5ae5df9dfedd132ee5be308922ad01a9b"),
    (123457, {"alphabet": 8, "concentration": 0.5},
     "94271dbbffa25f2ccc71d5cf5db9316e9d90d4a74ace242196a386e257bca328"),
]


@pytest.mark.parametrize("seed,dims,digest", BIGRAM_CORPUS_SHA256)
def test_bigram_corpus_golden(seed, dims, digest):
    import hashlib

    task = make_task("bigram_lm", dims, seed)
    h = hashlib.sha256()
    for arr in (*task._train_pairs, *task._eval_pairs):
        h.update(arr.astype("<i8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kind", sorted(TASK_CLASSES))
def test_loss_and_grad_rows_bitwise_per_row(kind):
    task = make_task(kind, seed=5)
    batch, _ = sample_batch(task, StreamState(seed=5, stream=0), batch_size=16)
    rng = np.random.default_rng(5)
    scales = np.logspace(-3, 2, 7)[:, None]
    rows = rng.normal(size=(7, task.n_params)) * scales
    losses, grads = task.loss_and_grad_rows(rows, batch)
    assert losses.shape == (7,) and grads.shape == (7, task.n_params)
    for row, loss, grad in zip(rows, losses, grads):
        ref_loss, ref_grad = task.loss_and_grad(row.copy(), batch)
        assert float(loss) == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()


# --------------------------------------------------------------------------
# Batched eval
# --------------------------------------------------------------------------


def _per_pair_eval_losses(task, param_rows):
    """The bigram eval as it was before eval_loss_rows: a softmax for each
    eval pair, over the logit row that pair reads."""
    prev, nxt = task._eval_pairs
    a = task.alphabet
    shifted = param_rows.reshape(param_rows.shape[0], a, a)[:, prev]
    shifted -= shifted.max(axis=2, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=2, keepdims=True)
    logp = shifted[:, np.arange(len(prev)), nxt] - np.log(total[:, :, 0])
    return -np.mean(np.ascontiguousarray(logp), axis=1)


SMALL_BIGRAM_DIMS = {"alphabet": 8, "corpus_len": 256, "eval_len": 64}


@pytest.mark.parametrize("dims", [{}, SMALL_BIGRAM_DIMS], ids=["default", "small"])
@pytest.mark.parametrize("n_rows", [1, 3, 21])
def test_bigram_eval_loss_rows_bitwise_equal_per_pair_eval(dims, n_rows):
    task = make_task("bigram_lm", dims, seed=5)
    rng = np.random.default_rng(n_rows)
    stacks = [rng.normal(size=(n_rows, task.n_params)) * 10.0**k for k in range(-3, 5)]
    special = rng.normal(size=(n_rows, task.n_params))
    special[0, ::7] = math.inf
    special[-1, 3::11] = -math.inf
    special[n_rows // 2, 5] = math.nan
    stacks.append(special)
    with np.errstate(all="ignore"):
        for rows in stacks:
            ref = _per_pair_eval_losses(task, rows.copy())
            assert task.eval_loss_rows(rows).tobytes() == ref.tobytes()
            for row, ref_loss in zip(rows, ref):
                assert np.float64(task.eval_loss(row)).tobytes() == ref_loss.tobytes()
        assert not np.isfinite(_per_pair_eval_losses(task, special)).all()

