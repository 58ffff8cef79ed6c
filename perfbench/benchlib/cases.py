"""Workload inputs and pinned tolerances, shared by the worker and the checks.

Nothing here imports extkit: the parent process that checks outputs
reads the same tables as the worker process that produces them.
"""

# Tolerances pinned in tests/test_acceptance.py.
TOL_PDE = 1e-7
TOL_BRACKET = 1e-5
TOL_DRIFT = 1e-6
TOL_RECURSION = 1e-10
TOL_COFACTOR = 1e-9
TOL_LOCAL_SEED = 1e-5
HALVING_RATIO = (8.0, 32.0)

# Tolerances of this benchmark's own checks (see README.md).
TOL_FINAL_STATE = 1e-10
TOL_ELLIPF = 1e-10
TOL_HAND_HK = 1e-12
MIN_KEPT_SHARE = 0.9

# ------------------------------------------------------------------ flow

FLOW_T = 2.0
FLOW_DT = 1e-3
FLOW_STRIDE = 10
# Half-width of the uniform perturbation the seed applies to each start.
FLOW_JITTER = 0.01

# (label, entry, extension constants or None for a base flow, (m, n), centre)
FLOW_CASES = [
    ("quartic1_m3n2", "quartic1", dict(c=1.0, c0=1.0, C=1.0), (3, 2),
     [0.6, 0.4, 0.9, -0.7]),
    ("quartic1_omega", "quartic1", dict(c=1.0, c0=1.0, C=1.0, omega=0.3), (2, 1),
     [0.6, 0.4, 0.9, -0.7]),
    ("vortex_opposite", "vortex_opposite", dict(c=0.0, c0=0.5, C=1.0), (1, 1),
     [0.7, 0.3, 0.8, -0.4, 0.5, 0.9]),
    ("square_polar", "square_polar", dict(c=1.0, c0=0.0, C=1.0), (1, 1),
     [0.6, 0.4, 1.0, 0.5, 0.3, -0.2]),
    ("lotka_volterra", "lotka_volterra", None, None, [1.2, 0.8]),
    ("euler_top", "euler_top", None, None, [0.5, 0.9, 0.7]),
]
# Observables each case must report as conserved.
FLOW_OBSERVABLES = {
    "quartic1_m3n2": ["H", "L", "K"],
    "quartic1_omega": ["H", "L", "K"],
    "vortex_opposite": ["H", "L", "K_re", "K_im", "X1t", "Y2t"],
    "square_polar": ["H", "L", "K"],
    "lotka_volterra": ["L"],
    "euler_top": ["L", "M"],
}
# The omega != 0 case is integrated again at half the step.
FLOW_HALVING_CASE = "quartic1_omega"
# The adaptive run (at the CLI's default tol 1e-10) and the case checked
# against the hand-written rk4.
FLOW_RKF45_CASE = "vortex_opposite"
FLOW_HAND_CASE = "quartic1_m3n2"

# ----------------------------------------------------------------- gates

PDE_ENTRIES = ["quartic1", "quartic2a", "quartic2b", "square_polar",
               "vortex_equal", "vortex_opposite"]
PDE_POINTS = 300
PDE_MARGIN = 0.15
# Points with |c L + c0| at or below this are not sampled.  There both
# sides of X_L^2 G = -2 (c L + c0) G vanish and the relative residual is
# rounding over rounding: 1.5e-6 at |c L + c0| = 1e-11 on quartic2a.
PDE_LAMBDA_FLOOR = 1e-8

# (label, entry, extension constants, (m, n))
BRACKET_CASES = [
    ("quartic1_m1n1", "quartic1", dict(c=1.0, c0=1.0, C=1.0), (1, 1)),
    ("quartic1_m3n2", "quartic1", dict(c=1.0, c0=1.0, C=1.0), (3, 2)),
    ("quartic1_omega", "quartic1", dict(c=1.0, c0=1.0, C=1.0, omega=0.3), (2, 1)),
    ("quartic2a_hyperbolic", "quartic2a", dict(c=1.0, c0=1.0, C=-1.0), (2, 1)),
    ("square_polar", "square_polar", dict(c=1.0, c0=0.0, C=1.0), (1, 1)),
    ("vortex_opposite", "vortex_opposite", dict(c=0.0, c0=0.5, C=1.0), (1, 1)),
    ("vortex_opposite_omega", "vortex_opposite",
     dict(c=0.0, c0=0.5, C=1.0, omega=0.2), (1, 1)),
]
BRACKET_STATES = 100
BRACKET_MARGIN = 0.1
BRACKET_U_RANGE = (0.3, 1.2)
BRACKET_PU_RANGE = (-1.0, 1.0)

SWEEP_ARGS = dict(n_max=8, count_real=200, count_complex=50)

POWER_INDEX_PAIRS = [(1, 1), (2, 1), (3, 2), (4, 3)]
POWER_TRIPLES = 100

# The rigid-body local seed on the box of `extkit check-kn`.
EULER_MOMENTS = (3.0, 2.0, 1.0)
EULER_PAIR = (0.0, -0.5)
EULER_BOX = ((-0.8, 0.8), (0.3, 1.2), (0.3, 1.2))
EULER_POINTS = 300
EULER_STEP = 1e-6
# Points with kappa above this (near the separatrix 2 I2 L = M, where x2
# vanishes) are not sampled.  The first-order residual grows about
# linearly with kappa (8.7e-7 at 5.5e3, 1.9e-5 near 5e5) and extkit's
# quad loses digits (2.7e-10 at 4.9e5 against 8e-13 below 1e3).
EULER_KAPPA_MAX = 1e3

# ------------------------------------------------------------------- cli

CLI_T_FINAL = 1.0
CLI_CSV_HEADER = "t,u,p_u,X1t,Y1t,X2t,Y2t,H,L,K_re,K_im"
# Extension constants and centre state of the README `extend` example.
CLI_EXTEND = dict(c=1.0, c0=1.0, C=1.0, m=1, n=1)
CLI_EXTEND_STATE = [0.6, 0.4, 0.9, -0.7]
# The README integrate config; the seed jitters its initial state.
CLI_INTEGRATE_CONFIG = {
    "system": "vortex_opposite",
    "extension": {"c": 0.0, "c0": 0.5, "C": 1.0, "m": 1, "n": 1},
    "initial_state": {"u": 0.7, "p_u": 0.3, "base": [0.8, -0.4, 0.5, 0.9]},
    "integration": {"method": "rk4", "dt": 0.001, "t_final": 10.0, "stride": 10},
    "output": {"csv": "trajectory.csv", "report": "report.json"},
}
