"""Independent oracles used by the test suite.

These are written deliberately in a different style from the library code
(pure-Python scalar loops, no numpy vectorization) so a shared bug is
unlikely to hide in both implementations.
"""

import math

import numpy as np


def reference_adamw_trajectory(params0, grad_seq, lr_seq, beta1, beta2, eps, wd):
    """Plain AdamW with bias correction and decoupled weight decay.

    params0: list of floats; grad_seq: list of per-step gradient lists;
    lr_seq: list of per-step learning rates. Returns the list of parameter
    vectors after each step (as lists of floats).
    """
    n = len(params0)
    theta = [float(x) for x in params0]
    m = [0.0] * n
    v = [0.0] * n
    trajectory = []
    for t_index, (grads, lr) in enumerate(zip(grad_seq, lr_seq)):
        t = t_index + 1
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i in range(n):
            g = float(grads[i])
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            theta[i] = theta[i] - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * theta[i])
        trajectory.append(list(theta))
    return trajectory


def central_difference_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of a list of floats."""
    x = [float(v) for v in x]
    grad = []
    for i in range(len(x)):
        x_plus = list(x)
        x_minus = list(x)
        x_plus[i] += h
        x_minus[i] -= h
        grad.append((f(x_plus) - f(x_minus)) / (2.0 * h))
    return grad


def reference_bigram_ce_and_grad(logits, prev, nxt):
    """Mean cross-entropy and its gradient for one (A, A) logit matrix over the
    pairs (prev[i], nxt[i]), one pair at a time.

    Each pair takes a softmax over the logit row it reads, in the bigram
    kernel's operation order (shift by the row max, exp, sum, log of the sum,
    divide, subtract the one-hot target, divide by the batch size), and adds
    its row into the gradient with np.add.at, pair after pair. numpy does the
    per-entry arithmetic (its exp and pairwise sum are what the kernel must
    match bit for bit); only the batching differs. Returns (loss, grad[A*A]).
    """
    a = logits.shape[0]
    n = len(prev)
    terms = np.empty(n)
    grad = np.zeros((a, a))
    for i in range(n):
        row = logits[prev[i]]
        shifted = row - np.maximum.reduce(row)
        exp = np.exp(shifted)
        total = np.add.reduce(exp)
        terms[i] = shifted[nxt[i]] - np.log(total)
        probs = exp / total
        probs[nxt[i]] -= 1.0
        probs /= n
        np.add.at(grad, prev[i], probs)
    return -(np.add.reduce(terms) / n), grad.ravel()
