"""Small dense orthogonal-matrix helpers shared across the package.

Everything here is deterministic: rotations are built from Householder
reflections, Haar-like samples come from a caller-supplied seeded generator,
and sphere discretizations are fixed lattices.
"""

from __future__ import annotations

import numpy as np

_AXIS_EPS = 1e-12


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


def _outer(v: np.ndarray) -> np.ndarray:
    return v[..., :, None] * v[..., None, :]


def rotation_taking_first_axis(direction: np.ndarray) -> np.ndarray:
    """Rotation O in SO(n) with O e1 = direction, for unit n-vectors.

    Built as a double Householder reflection: one reflection swaps e1 and the
    target, a second one fixing the target restores determinant +1.  Stable
    near direction = +-e1.  Takes any leading sample axes: (..., n) gives
    (..., n, n).
    """
    d = np.asarray(direction, dtype=float)
    n = d.shape[-1]
    if not np.all(np.abs(norms(d) - 1.0) <= 1e-9):
        raise ValueError("direction must be a unit vector")
    if n == 1 and not np.all(d > 0):
        raise ValueError("SO(1) holds no rotation taking e1 to -e1")
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = d - e1
    at_e1 = norms(v) < _AXIS_EPS
    h1 = np.eye(n) - 2.0 * _outer(v) / np.where(at_e1, 1.0, dots(v, v))[..., None, None]
    # second reflection axis must be orthogonal to the target direction
    w = e1 - dots(e1, d)[..., None] * d
    # direction ~ -e1: any axis orthogonal to it works; pick the least
    # aligned coordinate axis and orthogonalize
    k = np.argmin(np.abs(d), axis=-1)
    axis = (np.arange(n) == k[..., None]).astype(float)
    axis = axis - dots(axis, d)[..., None] * d
    w = np.where((norms(w) < 1e-8)[..., None], axis, w)
    h2 = np.eye(n) - 2.0 * _outer(w) / np.where(at_e1, 1.0, dots(w, w))[..., None, None]
    return np.where(at_e1[..., None, None], np.eye(n), h2 @ h1)


def rotation_between(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rotation O in SO(n) mapping one unit vector onto another, over any
    leading sample axes of either."""
    s, t = np.asarray(source, dtype=float), np.asarray(target, dtype=float)
    if s.shape[-1] == 1:  # SO(1) = {1} maps -1 onto -1 only: make the source +1
        s, t = s * np.sign(s), t * np.sign(s)
    return rotation_taking_first_axis(t) @ np.swapaxes(rotation_taking_first_axis(s), -1, -2)


def plane_rotation(n: int, i: int, j: int, angle: float) -> np.ndarray:
    """Rotation by `angle` in the coordinate plane (i, j) of R^n."""
    if not (0 <= i < j < n):
        raise ValueError("need 0 <= i < j < n")
    out = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    out[i, i] = c
    out[j, j] = c
    out[i, j] = -s
    out[j, i] = s
    return out


def special_orthogonal_draws(n: int, rng: np.random.Generator, size: int | None = None):
    """The Gaussian matrices sample_special_orthogonal turns into rotations.

    Shape (n, n), or (size, n, n); one stacked draw equals `size` draws in a
    row.  SO(1) = {1} needs no randomness: n = 1 draws nothing and returns
    ones in the same shape.
    """
    shape = (n, n) if size is None else (size, n, n)
    if n == 1:
        return np.ones(shape)
    return rng.standard_normal(shape)


def special_orthogonal_from_gaussian(g: np.ndarray) -> np.ndarray:
    """Haar-like SO(n) elements from Gaussian matrices: QR, sign-fixed, det +1.

    Takes any leading sample axes.  A stacked QR equals the one-matrix QR
    bit for bit.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[-1] == 1:
        return np.ones_like(g)
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    flip = (np.linalg.det(q) < 0)[..., None]
    q[..., -1] = np.where(flip, -q[..., -1], q[..., -1])
    return q


def sample_special_orthogonal(
    n: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Haar-like SO(n) sample, or a stack of `size` samples drawn in a row."""
    return special_orthogonal_from_gaussian(special_orthogonal_draws(n, rng, size))


def deterministic_sphere_points(n: int, count: int) -> np.ndarray:
    """Fixed set of `count` unit vectors on the (n-1)-sphere.

    n = 3 uses a Fibonacci lattice (near-uniform covering); other dimensions
    fall back to normalized Gaussian draws from a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if n == 1:
        signs = np.array([1.0 if k % 2 == 0 else -1.0 for k in range(count)])
        return signs.reshape(-1, 1)
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


def rotation_angle_from_trace(o3: np.ndarray) -> float:
    """Angle of a 3x3 rotation via acos((tr - 1)/2), argument clamped."""
    arg = (float(np.trace(o3)) - 1.0) / 2.0
    return float(np.arccos(np.clip(arg, -1.0, 1.0)))
