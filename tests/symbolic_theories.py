"""Polygon and simplex theories with exact symbolic entries, for tests."""

import sympy as sp


def exact_polygon(sides: int):
    """Polygon states and effect generators with exact symbolic entries.

    Returns (states, effects) as lists of sympy column vectors; pairings of
    these simplify to exact rationals for the small side counts where the
    trigonometric values have closed forms.
    """
    if sides < 3:
        raise ValueError("polygon systems need at least 3 sides")
    r = sp.sqrt(1 / sp.cos(sp.pi / sides))
    states = [
        sp.Matrix(
            [
                1,
                r * sp.cos(2 * sp.pi * (i + 1) / sides),
                r * sp.sin(2 * sp.pi * (i + 1) / sides),
            ]
        )
        for i in range(sides)
    ]
    if sides % 2 == 0:
        effects = [
            sp.Matrix(
                [
                    sp.Rational(1, 2),
                    r * sp.cos((2 * i + 1) * sp.pi / sides) / 2,
                    r * sp.sin((2 * i + 1) * sp.pi / sides) / 2,
                ]
            )
            for i in range(sides)
        ]
    else:
        scale = 1 / (1 + r**2)
        effects = [scale * s for s in states]
    return states, effects


def exact_classical_simplex(n: int):
    """Simplex states and dual-basis effects with exact symbolic entries."""
    if n < 1:
        raise ValueError("a classical system needs at least two outcomes")
    basis = [sp.Matrix([1 if k == i else 0 for k in range(n + 1)]) for i in range(n + 1)]
    centroid = sp.Matrix([sp.Rational(1, n + 1)] * (n + 1))
    centred = [b - centroid for b in basis]
    diffs = [basis[j + 1] - basis[j] for j in range(n)]
    ortho = sp.GramSchmidt(diffs, orthonormal=True)
    scale = sp.sqrt(sp.Rational(n + 1, n))
    points = [sp.Matrix([scale * (q.dot(x)) for q in ortho]) for x in centred]
    states = [sp.Matrix([1, *p]) for p in points]
    effects = [
        sp.Matrix([sp.Rational(1, n + 1), *(sp.Rational(n, n + 1) * p)]) for p in points
    ]
    return states, effects
