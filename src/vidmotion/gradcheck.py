"""Finite-difference gradient oracle shared by tests and the selftest: one
tape step (``tape_gradient``) and one comparison (``gradient_error``)."""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function, one element at a time."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (float(fp) - float(fm)) / (2.0 * h)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """L2-relative disagreement between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def tape_gradient(f: Callable[[T.Tensor], T.Tensor], x0: np.ndarray) -> np.ndarray:
    """The tape gradient of scalar ``f`` at ``x0``."""
    tape = T.Tape()
    x = tape.watch(T.Tensor(x0))
    T.backward(tape, f(x))
    return tape.grad(x).data


def gradient_error(f: Callable[[T.Tensor], T.Tensor], x0: np.ndarray,
                   analytic: np.ndarray, h: float = 1e-3) -> float:
    """``relative_error`` of ``analytic`` against the central differences of
    scalar ``f`` at ``x0``. They re-evaluate the forward pass only, so they
    stay independent of every backward rule that ``analytic`` came from."""
    numeric = numeric_gradient(lambda arr: f(T.Tensor(arr)).item(),
                               np.array(x0, dtype=np.float32), h=h)
    return relative_error(analytic, numeric)


def directional_check(f: Callable[[T.Tensor], T.Tensor], x0: np.ndarray,
                      direction: np.ndarray, h: float = 1e-3,
                      tol: float = 1e-3) -> tuple[bool, float]:
    """Compare the tape gradient's projection onto ``direction`` against the
    central difference of the forward pass along it."""
    analytic = float(np.dot(tape_gradient(f, x0).reshape(-1).astype(np.float64),
                            direction.reshape(-1).astype(np.float64)))
    base = np.asarray(x0, dtype=np.float64)
    v = np.asarray(direction, dtype=np.float64)
    fp = f(T.Tensor(base + h * v)).item()
    fm = f(T.Tensor(base - h * v)).item()
    numeric = (fp - fm) / (2.0 * h)
    denom = abs(analytic) + abs(numeric)
    err = 0.0 if denom == 0.0 else abs(analytic - numeric) / denom
    return err <= tol, err


def check_gradient(f: Callable[[T.Tensor], T.Tensor], x0: np.ndarray,
                   h: float = 1e-3, tol: float = 1e-3) -> tuple[bool, float]:
    """Compare the tape gradient of scalar ``f`` at x0 against central differences."""
    err = gradient_error(f, x0, tape_gradient(f, x0), h)
    return err <= tol, err
