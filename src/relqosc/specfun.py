"""Special functions used by the closed-form oscillator wavefunctions.

Hermite polynomials are evaluated by their three-term recurrence and the
confluent hypergeometric function by its terminating series, which is exact
for polynomial degree and avoids cancellation-prone factorial prefactors.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hermite", "kummer_terminating"]


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    Evaluated by the recurrence H_{k+1} = 2*x*H_k - 2*k*H_{k-1} with
    H_0 = 1, H_1 = 2x. Accepts scalars or arrays in x.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    x : float or ndarray
        Evaluation points.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"hermite degree must be a nonnegative integer, got {n}")
    n = int(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev[()] if h_prev.ndim == 0 else h_prev
    h_cur = 2.0 * x
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * k * h_prev
    return h_cur[()] if h_cur.ndim == 0 else h_cur


def kummer_terminating(n: int, b: float, x):
    """Terminating confluent hypergeometric series 1F1(-n; b; x).

    With a nonpositive integer first argument the Kummer series truncates
    after n + 1 terms, so the sum is a degree-n polynomial evaluated exactly
    term by term:

        1F1(-n; b; x) = sum_{k=0}^{n} (-n)_k / ((b)_k k!) x^k.

    Parameters
    ----------
    n : int
        Truncation order, n >= 0.
    b : float
        Denominator parameter; must be positive (the oscillator families
        only need b > 0, and b = 0, -1, -2, ... would divide by zero).
    x : float or ndarray
        Evaluation points.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"kummer_terminating order must be a nonnegative integer, got {n}")
    if b <= 0:
        raise ValueError(f"kummer_terminating requires b > 0, got b={b}")
    n = int(n)
    x = np.asarray(x, dtype=float)
    total = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(n):
        # ratio of consecutive terms: (-n + k) / ((b + k)(k + 1)) * x
        term = term * ((k - n) / ((b + k) * (k + 1.0))) * x
        total = total + term
    return total[()] if total.ndim == 0 else total

