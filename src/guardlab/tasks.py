"""Desk-scale differentiable tasks with exact hand-derived gradients.

Three task kinds stand in for full-scale LM training: an ill-conditioned
quadratic bowl, a one-hidden-layer tanh regression against a synthetic
teacher, and a softmax bigram language model over a small alphabet.
Everything is deterministic in (kind, dims, seed); evaluation sets are
fixed at construction and disjoint from the training stream.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .rngstream import StreamState, advance, generator


@dataclass
class Batch:
    inputs: np.ndarray
    targets: np.ndarray
    outlier_flag: bool = False


@dataclass(frozen=True)
class EvalResult:
    eval_loss: float
    perplexity: float


def _eval_result(loss: float) -> EvalResult:
    loss = float(loss)
    try:
        ppl = math.exp(loss)
    except OverflowError:
        ppl = math.inf
    return EvalResult(eval_loss=loss, perplexity=ppl)


class Task:
    """Immutable after construction; shareable across concurrent runs."""

    kind: str
    seed: int
    n_params: int
    # The constructor's dims with their defaults; task_dims casts to each default's type.
    default_dims: Dict[str, object]
    # Batches carry integer targets (token ids), which outlier_batch
    # injection cannot scale.
    integer_targets = False
    # Every batch is one full batch built at construction, with read-only
    # arrays: draw_batch ignores its rng, so a run loop passes None and
    # positions no stream.
    full_batch = False

    def init_params(self) -> np.ndarray:
        raise NotImplementedError

    def loss_and_grad(self, params: np.ndarray, batch: Batch) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def loss_and_grad_rows(
        self, param_rows: np.ndarray, batch: Batch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """loss_and_grad for each row of an (L, n_params) stack, on one batch.

        Returns (losses[L], grads[L, n_params]); row l is bitwise equal to
        loss_and_grad(param_rows[l], batch).
        """
        pairs = [self.loss_and_grad(row, batch) for row in param_rows]
        return np.array([loss for loss, _ in pairs]), np.stack([g for _, g in pairs])

    def eval_loss(self, params: np.ndarray) -> float:
        raise NotImplementedError

    def eval_loss_rows(self, param_rows: np.ndarray) -> np.ndarray:
        """eval_loss of each row of an (L, n_params) stack; entry l is
        bitwise equal to eval_loss(param_rows[l])."""
        return np.array([self.eval_loss(row) for row in param_rows])

    def draw_batch(self, rng: np.random.Generator, batch_size: int) -> Batch:
        raise NotImplementedError


class QuadraticTask(Task):
    """Ill-conditioned bowl: loss = 0.5 x'Hx - b'x + c, with H diagonal.

    The constant c shifts the minimum to exactly zero. Batches carry the
    (optionally noise-perturbed) linear term b as their target, so target
    injection produces a consistent gradient bias direction.
    """

    kind = "quadratic"
    default_dims = {"dim": 20, "condition": 1e3, "noise": 0.0}

    def __init__(self, dim: int, condition: float, seed: int, noise: float):
        if dim < 2:
            raise ValueError("quadratic dim must be >= 2")
        if condition < 1.0:
            raise ValueError("condition number must be >= 1")
        if noise < 0.0:
            raise ValueError("noise must be >= 0")
        self.seed = seed
        self.dim = dim
        self.noise = noise
        self.n_params = dim
        rng = generator(StreamState(seed=seed, stream=100))
        self.h = np.logspace(0.0, math.log10(condition), dim)
        self.b = rng.normal(size=dim)
        self._x0 = rng.normal(size=dim)
        # Shift so the minimum value is exactly 0.
        self.offset = 0.5 * float(np.dot(self.b / self.h, self.b))
        self.full_batch = noise == 0.0
        if self.full_batch:
            self._batch = Batch(inputs=np.zeros(0), targets=self.b.copy())
            self._batch.inputs.flags.writeable = False
            self._batch.targets.flags.writeable = False

    def init_params(self) -> np.ndarray:
        return self._x0.copy()

    def _loss(self, x: np.ndarray, hx: np.ndarray, b: np.ndarray) -> float:
        """The loss at x, given hx = h * x."""
        return float(0.5 * np.dot(x, hx) - np.dot(b, x) + self.offset)

    def loss_and_grad(self, params, batch):
        b = batch.targets
        hx = self.h * params
        return self._loss(params, hx, b), hx - b

    def eval_loss(self, params) -> float:
        return self._loss(params, self.h * params, self.b)

    def draw_batch(self, rng, batch_size):
        if self.full_batch:
            return self._batch
        return Batch(inputs=np.zeros(0), targets=self.b + self.noise * rng.normal(size=self.dim))

    def minimizer(self) -> np.ndarray:
        return self.b / self.h


class MlpRegressionTask(Task):
    """One-hidden-layer tanh network fit to a synthetic teacher.

    Student parameters are the flat vector [W1, b1, W2, b2]. Loss is the
    mean squared error over all batch entries. The teacher output bias is
    offset away from zero so scaled-target injection has a consistent
    direction.
    """

    kind = "mlp_regression"
    default_dims = {"d_in": 5, "d_hidden": 8, "d_out": 2, "noise": 0.02}
    # Rows in the fixed eval set.
    eval_size = 128

    def __init__(
        self,
        d_in: int,
        d_hidden: int,
        d_out: int,
        seed: int,
        noise: float,
    ):
        if min(d_in, d_hidden, d_out) < 1:
            raise ValueError("mlp dims must be >= 1")
        if noise < 0.0:
            raise ValueError("noise must be >= 0")
        self.seed = seed
        self.d_in, self.d_hidden, self.d_out = d_in, d_hidden, d_out
        self.noise = noise
        self.n_params = d_hidden * (d_in + 1) + d_out * (d_hidden + 1)
        rng = generator(StreamState(seed=seed, stream=100))
        self._teacher = rng.normal(size=self.n_params)
        # Push the teacher output bias off zero: injection bias direction.
        w1, b1, w2, b2 = self._unpack(self._teacher)
        b2 += 0.5
        self._teacher = self._pack(w1, b1, w2, b2)
        self._x0 = 0.5 * rng.normal(size=self.n_params)
        x_eval = rng.normal(size=(self.eval_size, d_in))
        self._eval_x = x_eval
        self._eval_y = self._predict(self._teacher, x_eval)

    def _unpack(self, p: np.ndarray):
        i = 0
        w1 = p[i : i + self.d_hidden * self.d_in].reshape(self.d_hidden, self.d_in)
        i += self.d_hidden * self.d_in
        b1 = p[i : i + self.d_hidden]
        i += self.d_hidden
        w2 = p[i : i + self.d_out * self.d_hidden].reshape(self.d_out, self.d_hidden)
        i += self.d_out * self.d_hidden
        b2 = p[i : i + self.d_out]
        return w1, b1, w2, b2

    def _pack(self, w1, b1, w2, b2) -> np.ndarray:
        return np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])

    def _predict(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(p)
        return np.tanh(x @ w1.T + b1) @ w2.T + b2

    def init_params(self) -> np.ndarray:
        return self._x0.copy()

    def loss_and_grad(self, params, batch):
        x, y = batch.inputs, batch.targets
        w1, b1, w2, b2 = self._unpack(params)
        z = x @ w1.T + b1
        a = np.tanh(z)
        pred = a @ w2.T + b2
        err = pred - y
        loss = float(np.mean(err * err))
        d_pred = 2.0 * err / err.size
        d_w2 = d_pred.T @ a
        d_b2 = d_pred.sum(axis=0)
        d_a = d_pred @ w2
        d_z = d_a * (1.0 - a * a)
        d_w1 = d_z.T @ x
        d_b1 = d_z.sum(axis=0)
        return loss, self._pack(d_w1, d_b1, d_w2, d_b2)

    def eval_loss(self, params) -> float:
        pred = self._predict(params, self._eval_x)
        err = pred - self._eval_y
        return float(np.mean(err * err))

    def draw_batch(self, rng, batch_size):
        x = rng.normal(size=(batch_size, self.d_in))
        y = self._predict(self._teacher, x)
        if self.noise > 0.0:
            y = y + self.noise * rng.normal(size=y.shape)
        return Batch(inputs=x, targets=y)


class BigramLmTask(Task):
    """Softmax next-token model over a small alphabet, synthetic corpus.

    Parameters are the flat A x A logits matrix, initialized to zeros so
    the initial loss is exactly ln(A). Training pairs come from a Markov
    chain sampled from a hidden transition matrix; the eval pairs come from
    a separate chain drawn from the same matrix.
    """

    kind = "bigram_lm"
    integer_targets = True
    default_dims = {"alphabet": 32, "corpus_len": 4096, "eval_len": 512, "concentration": 2.0}

    def __init__(
        self,
        alphabet: int,
        seed: int,
        corpus_len: int,
        eval_len: int,
        concentration: float,
    ):
        if alphabet < 2:
            raise ValueError("alphabet must be >= 2")
        if concentration <= 0.0:
            raise ValueError("concentration must be > 0")
        self.seed = seed
        self.alphabet = alphabet
        self.n_params = alphabet * alphabet
        rng = generator(StreamState(seed=seed, stream=100))
        # concentration sharpens the hidden transitions, separating the
        # achievable loss floor from the uniform-model loss ln(alphabet).
        true_logits = concentration * rng.normal(size=(alphabet, alphabet))
        probs = _softmax_rows(true_logits)
        self._train_pairs = _markov_pairs(rng, probs, corpus_len)
        self._eval_pairs = _markov_pairs(rng, probs, eval_len)

    def init_params(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def _ce_and_grad(self, param_rows, prev, nxt) -> Tuple[np.ndarray, np.ndarray]:
        """Mean cross-entropy and its gradient for each row of (L, A*A) logits."""
        a = self.alphabet
        n_rows, n = param_rows.shape[0], len(prev)
        positions = np.arange(n)
        shifted = param_rows.reshape(n_rows, a, a)[:, prev]
        shifted -= shifted.max(axis=2, keepdims=True)
        probs = np.exp(shifted)
        total = probs.sum(axis=2, keepdims=True)
        losses = -_row_means(shifted[:, positions, nxt] - np.log(total[:, :, 0]))
        probs /= total
        probs[:, positions, nxt] -= 1.0
        probs /= n
        # bincount adds each bin's entries in batch order, as np.add.at does.
        # Each pair's A bins, offset by their row's block when L > 1.
        bins = prev[:, None] * a + np.arange(a)
        if n_rows > 1:
            bins = np.arange(n_rows)[:, None, None] * (a * a) + bins
        grad = np.bincount(bins.ravel(), weights=probs.ravel(), minlength=n_rows * a * a)
        return losses, grad.reshape(n_rows, a * a)

    def loss_and_grad(self, params, batch):
        losses, grads = self.loss_and_grad_rows(params[None], batch)
        return float(losses[0]), grads[0]

    def loss_and_grad_rows(self, param_rows, batch):
        return self._ce_and_grad(param_rows, batch.inputs, batch.targets)

    def eval_loss(self, params) -> float:
        return float(self.eval_loss_rows(params[None])[0])

    def eval_loss_rows(self, param_rows):
        """Mean cross-entropy of each row on the eval pairs, as _ce_and_grad
        computes it, but with each of the A logit rows normalised once
        instead of once per pair that reads it."""
        prev, nxt = self._eval_pairs
        a = self.alphabet
        logits = param_rows.reshape(param_rows.shape[0], a, a)
        shifted = logits - logits.max(axis=2, keepdims=True)
        log_total = np.log(np.exp(shifted).sum(axis=2))
        return -_row_means(shifted[:, prev, nxt] - log_total[:, prev])

    def draw_batch(self, rng, batch_size):
        prev, nxt = self._train_pairs
        idx = rng.integers(0, len(prev), size=batch_size)
        return Batch(inputs=prev[idx], targets=nxt[idx])


def _row_means(x: np.ndarray) -> np.ndarray:
    """np.mean(x, axis=1), spelled out; C order keeps each row's sum the
    pairwise sum of the 1-D case."""
    return np.add.reduce(np.ascontiguousarray(x), axis=1) / x.shape[1]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _markov_pairs(
    rng: np.random.Generator, probs: np.ndarray, length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A Markov chain drawn token by token as ``rng.choice(a, p=probs[prev])``
    would, without a call per token.

    Generator.choice draws one uniform per call and returns the
    right-bisection of it in the row's cumsum divided by its last entry; the
    chain's uniforms are the same numbers drawn in one call, and each is
    bisected in the current token's row only.
    """
    a = probs.shape[0]
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    rows = cdf.tolist()
    chain = [int(rng.integers(0, a))]
    for u in rng.random(length).tolist():
        chain.append(bisect.bisect_right(rows[chain[-1]], u))
    tokens = np.array(chain, dtype=np.int64)
    return tokens[:-1].copy(), tokens[1:].copy()


TASK_CLASSES = {cls.kind: cls for cls in (QuadraticTask, MlpRegressionTask, BigramLmTask)}


def strict_int(value) -> int:
    """value as an int: an integral float such as 1e3 becomes one, and a bool,
    a non-integral number or a non-number is a ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def strict_bool(value) -> bool:
    """value, which must be a bool: a string, a number or None is a ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def strict_str(value) -> str:
    """value, which must be a string: None, a number, a bool, a list or an
    object is a ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def strict_float(value) -> float:
    """value as a float: an int becomes one, and a bool, a non-finite number
    or a non-number is a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def task_dims(kind: str, dims: Optional[Dict] = None) -> Dict:
    """kind's default dims updated by dims, each converted to its default's
    type (an int dim through strict_int, a float one through strict_float);
    raises ValueError for an unknown kind, an unknown dim or an unconvertible
    value. Builds nothing."""
    if kind not in TASK_CLASSES:
        raise ValueError(f"unknown task kind: {kind!r}")
    merged = dict(TASK_CLASSES[kind].default_dims)
    for key, value in (dims or {}).items():
        if key not in merged:
            raise ValueError(f"unknown dim {key!r} for task kind {kind!r}")
        convert = strict_int if type(merged[key]) is int else strict_float
        try:
            merged[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"dim {key!r}: {exc}") from exc
    return merged


def make_task(kind: str, dims: Optional[Dict] = None, seed: int = 0) -> Task:
    """Deterministic task factory: same (kind, dims, seed) -> identical task."""
    dims = task_dims(kind, dims)
    return TASK_CLASSES[kind](seed=seed, **dims)


def forward_backward(task: Task, params: np.ndarray, batch: Batch):
    """Loss and exact analytic gradient on one batch."""
    return task.loss_and_grad(np.asarray(params, dtype=float), batch)


def evaluate(task: Task, params: np.ndarray) -> EvalResult:
    """Mean loss over the fixed eval set; perplexity = exp(loss)."""
    return _eval_result(task.eval_loss(np.asarray(params, dtype=float)))


def evaluate_rows(task: Task, param_rows: np.ndarray) -> List[EvalResult]:
    """evaluate for each row of an (L, n_params) stack, in one eval_loss_rows call."""
    return [_eval_result(loss) for loss in task.eval_loss_rows(param_rows)]


def sample_batch(
    task: Task, rng_state: StreamState, batch_size: int
) -> Tuple[Batch, StreamState]:
    """Draw one batch from the counter-based stream and advance it."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batch = task.draw_batch(generator(rng_state), batch_size)
    return batch, advance(rng_state)
