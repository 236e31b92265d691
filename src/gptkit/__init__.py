"""Desk-scale toolkit for convex operational theories and spacetime-symmetry numerics."""

from .core import (
    Ball,
    BallEffects,
    Polytope,
    PolytopeEffects,
    TheorySpec,
    apply_map,
    convex_mix,
    is_normalized_effect,
    is_pure,
    is_reversible,
    probability,
    theory_from_json,
    theory_to_json,
    validate_state,
)
from .zoo import (
    box_world_pair,
    classical_simplex,
    density_to_gpt,
    euclidean_ball,
    get_theory,
    polygon_rotation,
    polygon_theory,
)
from .composites import (
    ChshScenario,
    JointState,
    chsh_value,
    in_max_tensor,
    is_separable,
    maximize_chsh,
    no_signalling_check,
    tensor,
    two_qubit_gpt,
)
from .minkowski import (
    MassiveMomentum,
    PoincareTransform,
    apply_poincare,
    boost_x,
    compose,
    interval,
    is_lorentz,
    is_proper_orthochronous,
    little_group_element,
    rotation_to_axis,
    standard_boost,
    wigner_rotation,
)
from .poincare import (
    ClassicalMomentumEffect,
    ClassicalMomentumState,
    GroupSample,
    RepMap,
    check_representation,
    classical_pairing,
    detector_sphere_experiment,
    invariance_deviation,
    orbit_ball_reconstruction,
    toy_discrete_spacetime,
    transform_classical,
)

__version__ = "0.1.0"
