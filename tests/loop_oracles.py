"""Brute-force loop oracles for the distance kernel and the pair losses.

Plain loops over rows and labels, independent of the library's vectorized
paths and of its triplet enumeration.  ``tests/test_losses.py`` and
``tests/test_fast_paths.py`` check the kernels against them.
"""

import functools

import numpy as np


def loop_dist(data):
    """Per-pair loop oracle: the square root of each pair's sum of squared differences."""
    size = len(data)
    out = np.empty((size, size))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(size):
            for j in range(size):
                diff = data[i] - data[j]
                out[i, j] = np.sqrt(np.sum(diff * diff))
    return out


def brute_triplets(labels):
    """Every (a, p, n) with a != p, label(p) == label(a) != label(n), lexicographically."""
    labels = list(labels)
    size = len(labels)
    return [(a, p, n) for a in range(size) for p in range(size) if a != p and labels[a] == labels[p]
            for n in range(size) if labels[n] != labels[a]]


def brute_pairs(labels):
    """Every ordered same-class (a, p) with the rows of other labels as negatives."""
    size = len(labels)
    return [(a, p, [n for n in range(size) if labels[n] != labels[a]])
            for a in range(size) for p in range(size) if a != p and labels[a] == labels[p]]


def cosine(x, y):
    """Cosine of the angle between two nonzero rows, clipped to [-1, 1] as the losses clip it."""
    return float(np.clip(x @ y / (np.linalg.norm(x) * np.linalg.norm(y)), -1.0, 1.0))


def hinge_args(data, labels, cfg, weighted=False, weights_from=None):
    """margin + w_ap d(a, p) - w_an d(a, n) per triplet, before the relu.

    Unweighted, w == 1.  Weighted, w = (1 - cos) / 2 of the pair, read from
    ``weights_from`` when given (weights frozen there) and from ``data``
    otherwise.  Each pair's w d is taken once and shared by its triplets.
    """
    wdata = data if weights_from is None else weights_from

    @functools.cache
    def term(i, j):
        w = (1.0 - cosine(wdata[i], wdata[j])) / 2.0 if weighted else 1.0
        return w * np.linalg.norm(data[i] - data[j])

    return np.array([cfg.margin + term(a, p) - term(a, n) for a, p, n in brute_triplets(labels)])


def reduce_terms(terms, cfg):
    if cfg.reduction == "mean_over_all":
        return float(np.mean(terms)) if len(terms) else 0.0
    active = terms[terms > 0.0]
    return float(np.mean(active)) if len(active) else 0.0


def _score_rows(data, cfg):
    return data / np.linalg.norm(data, axis=1, keepdims=True) if cfg.normalize_for_simce else data


def simce_terms(data, labels, cfg):
    rows = _score_rows(data, cfg)
    scores = np.array([[x @ y for y in rows] for x in rows])
    a, p, n = np.array(brute_triplets(labels), dtype=np.int64).reshape(-1, 3).T
    return np.logaddexp(0.0, (scores[a, n] - scores[a, p]) / cfg.temperature)


def m_simce_terms(data, labels, cfg):
    rows = _score_rows(data, cfg)
    terms = []
    for a, p, negs in brute_pairs(labels):
        sp = rows[a] @ rows[p] / cfg.temperature
        sn = np.array([rows[a] @ rows[k] / cfg.temperature for k in negs])
        m = max(sp, sn.max())
        terms.append(-(sp - m) + np.log(np.exp(sp - m) + np.sum(np.exp(sn - m))))
    return np.array(terms)


def brute_loss(name, data, labels, cfg, weights_from=None):
    """(value, n_non, n_total) of one pair loss from the loop oracles."""
    if name in ("triplet", "s_triplet"):
        terms = np.maximum(hinge_args(data, labels, cfg, name == "s_triplet", weights_from), 0.0)
        return reduce_terms(terms, cfg), int(np.sum(terms > 0.0)), len(terms)
    terms = (simce_terms if name == "simce" else m_simce_terms)(data, labels, cfg)
    return (float(np.mean(terms)) if len(terms) else 0.0), len(terms), len(terms)


def central_differences(fn, data, h=1e-6):
    grad = np.zeros_like(data)
    for idx in np.ndindex(*data.shape):
        up, down = data.copy(), data.copy()
        up[idx] += h
        down[idx] -= h
        grad[idx] = (fn(up) - fn(down)) / (2 * h)
    return grad
