"""Small dense orthogonal-matrix helpers shared across the package.

Everything here is deterministic: the rotation between two directions is
one closed form in their plane, Haar-like samples come from a
caller-supplied seeded generator, and sphere discretizations are fixed
lattices.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # numpy loads it lazily; loaded here, gptkit's first rng costs no import


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, for any leading sample axes.

    Each pair goes through one BLAS dot, as ``a @ b`` does for two vectors,
    so a stacked result equals the one-pair-at-a-time result bit for bit; a
    summed elementwise product does not.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, equal to np.linalg.norm of each vector."""
    return np.sqrt(dots(vectors, vectors))


def rotation_between(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation R in SO(n) with R s = t for unit vectors s and t, over any
    leading sample axes of either; a stack equals single calls bit for bit.

    The rotation in the plane of s and t: with K = t s^T - s t^T,
    R = I + K + K K / (1 + s.t).  Where s.t < 0, a half-turn
    P = I - 2 (s s^T + a a^T) first takes s to -s, with a the coordinate
    axis least aligned with s orthogonalized against s, and R is
    R(-s -> t) P; so the denominator is always at least 1.  SO(1) = {1}
    maps each of +-1 only onto itself.
    """
    s, t = np.broadcast_arrays(np.asarray(source, dtype=float), np.asarray(target, dtype=float))
    n = s.shape[-1]
    s_norm, t_norm = norms(s), norms(t)
    if not (np.all(np.abs(s_norm - 1.0) <= 1e-9) and np.all(np.abs(t_norm - 1.0) <= 1e-9)):
        raise ValueError("source and target must be unit vectors")
    # rescaled, so that R stays orthogonal at the edge of the 1e-9 tolerance
    s, t = s / s_norm[..., None], t / t_norm[..., None]
    c = dots(s, t)
    if n == 1:
        if not np.all(c > 0):
            raise ValueError("SO(1) holds no rotation between -1 and +1")
        return np.ones(c.shape + (1, 1))
    flip = c < 0
    a = (np.arange(n) == np.argmin(np.abs(s), axis=-1)[..., None]).astype(float)
    a = a - dots(a, s)[..., None] * s
    a = a / norms(a)[..., None]
    ss, aa = s[..., :, None] * s[..., None, :], a[..., :, None] * a[..., None, :]
    half_turn = np.eye(n) - 2.0 * (ss + aa)
    s = np.where(flip[..., None], -s, s)
    k = t[..., :, None] * s[..., None, :] - s[..., :, None] * t[..., None, :]
    r = np.eye(n) + k + (k @ k) / (1.0 + np.abs(c))[..., None, None]
    return np.where(flip[..., None, None], r @ half_turn, r)


def sample_special_orthogonal(
    n: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Haar-like SO(n) sample, shape (n, n), or a stack (size, n, n).

    QR of a Gaussian matrix with the signs of R's diagonal moved into Q
    (Mezzadri, Notices AMS 54, 592 (2007)), then the last column flipped
    where the determinant is -1.  A stacked QR equals the one-matrix QR bit
    for bit.  SO(1) = {1} needs no randomness: n = 1 draws nothing.
    """
    shape = (n, n) if size is None else (size, n, n)
    if n == 1:
        return np.ones(shape)
    q, r = np.linalg.qr(rng.standard_normal(shape))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = (np.linalg.det(q) < 0)[..., None]
    q[..., -1] = np.where(flip, -q[..., -1], q[..., -1])
    return q


def circle_point(k: int, m: int) -> tuple[float, float]:
    """cos and sin of 2 pi k / m, exact under the circle's reflections.

    The angle is folded into the first octant by theta -> 2 pi - theta
    (negates sin), theta -> pi - theta (negates cos) and theta -> pi/2 -
    theta (swaps the pair), in integer arithmetic, and only the folded angle
    is evaluated.  So angles related by a reflection give exact negatives
    or swaps, multiples of pi/2 give zeros of exactly 0.0, and pi/4 gives
    sqrt(1/2) twice.
    """
    num = 8 * (k % m)  # the angle in units of pi / (4 m)
    sin_sign = cos_sign = 1.0
    if num > 4 * m:
        num, sin_sign = 8 * m - num, -1.0
    if num > 2 * m:
        num, cos_sign = 4 * m - num, -1.0
    swap = num > m
    if swap:
        num = 2 * m - num
    if num == m:
        c = s = math.sqrt(0.5)
    else:
        c, s = math.cos(math.pi * num / (4 * m)), math.sin(math.pi * num / (4 * m))
    if swap:
        c, s = s, c
    # cos is negated only inside (pi/2, 3 pi/2) and sin only inside (pi,
    # 2 pi), open intervals where neither is zero, so zeros stay 0.0
    return cos_sign * c, sin_sign * s


def deterministic_sphere_points(n: int, count: int) -> np.ndarray:
    """Fixed set of `count` unit vectors on the (n-1)-sphere.

    n = 1 alternates +1 and -1, n = 2 is the even circle at angles 2 pi k /
    count from `circle_point` (so for even count point k + count/2 is
    exactly -point k), n = 3 is a Fibonacci lattice (near-uniform covering);
    other dimensions fall back to normalized Gaussian draws from a fixed
    seed.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if n == 1:
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(count)])
        return signs.reshape(-1, 1)
    if n == 2:
        return np.array([circle_point(k, count) for k in range(count)])
    if n == 3:
        k = np.arange(count, dtype=float)
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        z = 1.0 - (2.0 * k + 1.0) / count
        theta = 2.0 * np.pi * k / golden
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])
    rng = np.random.default_rng(20240 + n)
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)
