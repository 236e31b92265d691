"""Workload names, the local theories each uses, and the tag of the recorded
seed defect.  Standard library only, so a repetition can read them before
its set-up clock starts."""

# (local_a, local_b, measurements_a, measurements_b); None: every binary
# measurement of the local, so the CHSH functional is maximized over all
# assignments.
CHSH_FLOAT_SCENARIOS = (
    ("polygon:5", "polygon:5", None, None),
    ("polygon:8", "polygon:8", None, None),
    ("ball:3", "polygon:4", None, None),
)
# One side has a single measurement, so S = 2 E(a, b) and the optimum is the
# local bound 2 exactly.  bit has one measurement; polygon:4 here gets one
# per side, so each box-world scenario is a single LP.
EXACT_SCENARIOS = (
    ("polygon:4", "polygon:4", [[0, 2]], [[0, 2]]),
    ("polygon:4", "polygon:4", [[2, 0]], [[1, 3]]),
    ("bit", "polygon:4", None, None),
)
MEMBERSHIP_LOCALS = ("polygon:4", "polygon:5", "ball:3")

LOCALS = {
    "geometry": ("bit", "simplex:2", "polygon:3", "polygon:4", "ball:3"),
    "exact": ("bit", "polygon:4"),
    "chsh-float": ("ball:3", "polygon:4", "polygon:5", "polygon:8"),
    "membership": MEMBERSHIP_LOCALS,
}

# Seed defect kept in the membership workload: the exact separability path
# converts float vertices with Fraction(float) and ignores `tol`, so product
# vertices returned by max_tensor_vertices come back "entangled" although the
# float path calls them "separable".
KNOWN_DEFECT = "exact-path-rounding"
