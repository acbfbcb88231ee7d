"""Desk-scale differentiable tasks with exact hand-derived gradients.

Three task kinds stand in for full-scale LM training: an ill-conditioned
quadratic bowl, a one-hidden-layer tanh regression against a synthetic
teacher, and a softmax bigram language model over a small alphabet.
Everything is deterministic in (kind, dims, seed); evaluation sets are
fixed at construction and disjoint from the training stream.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .rngstream import CounterStream, StreamState, advance, generator


@dataclass
class Batch:
    inputs: np.ndarray
    targets: np.ndarray


class Task:
    """Immutable after construction; shareable across concurrent runs."""

    kind: str
    seed: int
    n_params: int
    # The constructor's dims with their defaults; task_dims casts to each default's type.
    default_dims: Dict[str, object]
    # Each dim's range as (">=" or ">", bound); task_dims checks it, the constructor does not.
    dim_bounds: Dict[str, Tuple[str, float]]
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

    def draw_batches(
        self, stream: Optional[CounterStream], first: int, count: int, batch_size: int
    ) -> List[Batch]:
        """The batches of counters first .. first + count - 1 of stream; entry
        r is draw_batch(stream.at(first + r), batch_size). A full-batch task
        returns its one batch count times and needs no stream."""
        if self.full_batch:
            return [self.draw_batch(None, batch_size)] * count
        return [self.draw_batch(stream.at(c), batch_size) for c in range(first, first + count)]


class QuadraticTask(Task):
    """Ill-conditioned bowl: loss = 0.5 x'Hx - b'x + c, with H diagonal.

    The constant c shifts the minimum, at x = b / h, to exactly zero. Batches
    carry the (optionally noise-perturbed) linear term b as their target.
    """

    kind = "quadratic"
    default_dims = {"dim": 20, "condition": 1e3, "noise": 0.0}
    dim_bounds = {"dim": (">=", 2), "condition": (">=", 1.0), "noise": (">=", 0.0)}

    def __init__(self, dim: int, condition: float, seed: int, noise: float):
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
        """The loss at x, given hx = h * x.

        The two dot products are taken as Python floats: the same IEEE
        operations in the same order as on np.float64 scalars, without the
        boxes. An overflow gives the same inf or NaN, without numpy's
        scalar warning."""
        return 0.5 * float(x.dot(hx)) - float(b.dot(x)) + self.offset

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


class MlpRegressionTask(Task):
    """One-hidden-layer tanh network fit to a synthetic teacher.

    Student parameters are the flat vector [W1, b1, W2, b2]. Loss is the
    mean squared error over all batch entries. The teacher output bias is
    offset by 0.5, so the targets are not centred on zero.
    """

    kind = "mlp_regression"
    default_dims = {"d_in": 5, "d_hidden": 8, "d_out": 2, "noise": 0.02}
    dim_bounds = {"d_in": (">=", 1), "d_hidden": (">=", 1), "d_out": (">=", 1),
                  "noise": (">=", 0.0)}
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
        self.seed = seed
        self.d_in, self.d_hidden, self.d_out = d_in, d_hidden, d_out
        self.noise = noise
        self.n_params = d_hidden * (d_in + 1) + d_out * (d_hidden + 1)
        rng = generator(StreamState(seed=seed, stream=100))
        self._teacher = rng.normal(size=self.n_params)
        # Shift the teacher output bias off its draw's zero mean.
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
    default_dims = {"alphabet": 32, "corpus_len": 4096, "eval_len": 512, "concentration": 2.0}
    dim_bounds = {"alphabet": (">=", 2), "corpus_len": (">=", 1), "eval_len": (">=", 1),
                  "concentration": (">", 0.0)}

    def __init__(
        self,
        alphabet: int,
        seed: int,
        corpus_len: int,
        eval_len: int,
        concentration: float,
    ):
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

    def loss_and_grad(self, params, batch):
        losses, grads = self.loss_and_grad_rows(params[None], batch)
        return float(losses[0]), grads[0]

    def loss_and_grad_rows(self, param_rows, batch):
        """Mean cross-entropy and its gradient for each row of (L, A*A) logits.

        Pair i of parameter row l reads logit row prev[i] of the l-th A x A
        matrix. One take along axis 1 gathers those rows as a C-ordered
        (L, n, A) array; viewed as (L*n, A) it is softmaxed in place, and
        pair j of it reaches its target entry through the flat index
        j*A + nxt[j mod n]. The index arrays that depend only on (L, n, A)
        come from _bigram_grids.
        """
        prev, nxt = batch.inputs, batch.targets
        a = self.alphabet
        n_rows, n = param_rows.shape[0], len(prev)
        offsets, grid = _bigram_grids(n_rows, n, a)
        # ndarray.take, not np.take, whose Python wrapper costs ~1 us a call;
        # [:, prev] would give a strided result for L > 1 that the reshape copies.
        probs = param_rows.reshape(n_rows, a, a).take(prev, axis=1).reshape(n_rows * n, a)
        # Each row's max from a transposed copy: A passes of length L*n instead
        # of L*n passes of length A (56 -> 37 us at L = 21, 3.9 -> 3.2 us at
        # L = 1). A max is exact, so the values are the same.
        probs -= np.maximum.reduce(np.ascontiguousarray(probs.T), axis=0)[:, None]
        flat = probs.ravel()
        targets = offsets + nxt
        # Each pair's target logit minus its row max, before exp overwrites it.
        picked = flat[targets]
        np.exp(probs, out=probs)
        total = np.add.reduce(probs, axis=1, keepdims=True)
        picked -= np.log(total.reshape(n_rows, n))
        losses = -_row_means(picked)
        probs /= total
        flat[targets] -= 1.0
        probs /= n
        # bincount adds each bin's entries in pair order, as np.add.at does.
        # Pair j of row l has as bins its logit row's flat indices
        # (l*A + prev[j])*A + k: the same gather, of the index grid.
        bins = grid.take(prev, axis=1).ravel()
        grad = np.bincount(bins, weights=flat, minlength=n_rows * a * a)
        return losses, grad.reshape(n_rows, a * a)

    def eval_loss(self, params) -> float:
        return float(self.eval_loss_rows(params[None])[0])

    def eval_loss_rows(self, param_rows):
        """Mean cross-entropy of each row on the eval pairs, as loss_and_grad_rows
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

    def draw_batches(self, stream, first, count, batch_size):
        prev, nxt = self._train_pairs
        idx = stream.integers_at(first, count, len(prev), batch_size)
        return [Batch(inputs=p, targets=t) for p, t in zip(prev[idx], nxt[idx])]


@functools.lru_cache(maxsize=16)
def _bigram_grids(n_rows: int, n: int, a: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only index arrays of loss_and_grad_rows for n_rows parameter
    rows, n pairs and alphabet a: the flat offset j*a of each pair's logit
    row in the (n_rows*n, a) gather, as (n_rows, n), and the flat index of
    every logit, as (n_rows, a, a)."""
    offsets = np.arange(0, n_rows * n * a, a).reshape(n_rows, n)
    grid = np.arange(n_rows * a * a).reshape(n_rows, a, a)
    offsets.flags.writeable = False
    grid.flags.writeable = False
    return offsets, grid


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
    raises ValueError for an unknown kind, an unknown dim, an unconvertible
    value or one outside its kind's dim_bounds. Builds nothing."""
    if kind not in TASK_CLASSES:
        raise ValueError(f"unknown task kind: {kind!r}")
    cls = TASK_CLASSES[kind]
    merged = dict(cls.default_dims)
    for key, value in (dims or {}).items():
        if key not in merged:
            raise ValueError(f"unknown dim {key!r} for task kind {kind!r}")
        convert = strict_int if type(merged[key]) is int else strict_float
        try:
            merged[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"dim {key!r}: {exc}") from exc
    for key, (op, bound) in cls.dim_bounds.items():
        if not (merged[key] >= bound if op == ">=" else merged[key] > bound):
            raise ValueError(f"dim {key!r} must be {op} {bound}, got {merged[key]!r}")
    return merged


def make_task(kind: str, dims: Optional[Dict] = None, seed: int = 0) -> Task:
    """Deterministic task factory: same (kind, dims, seed) -> identical task."""
    dims = task_dims(kind, dims)
    return TASK_CLASSES[kind](seed=seed, **dims)


def forward_backward(task: Task, params: np.ndarray, batch: Batch):
    """Loss and exact analytic gradient on one batch."""
    return task.loss_and_grad(np.asarray(params, dtype=float), batch)


def evaluate(task: Task, params: np.ndarray) -> float:
    """Mean loss over the fixed eval set."""
    return float(task.eval_loss(np.asarray(params, dtype=float)))


def sample_batch(
    task: Task, rng_state: StreamState, batch_size: int
) -> Tuple[Batch, StreamState]:
    """Draw one batch from the counter-based stream and advance it."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batch = task.draw_batch(generator(rng_state), batch_size)
    return batch, advance(rng_state)
