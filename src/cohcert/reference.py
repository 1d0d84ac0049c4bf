"""The source paper's published tables, as printed (2-3 significant digits)."""

# Table 1, keyed by k: (R_3 certification threshold, best-known R_3 over k levels).
PUBLISHED_TABLE1 = {1: (1.0, 1.0), 2: (1.25, 1.25), 3: (179 / 96, 1.77)}
# Table 2, keyed by (n, k): (max R_n over k levels, R_n of W_k,
# amplitude-squared profile of the maximizing state).
PUBLISHED_TABLE2 = {
    (3, 2): (1.25, 1.25, (0.50, 0.50)),
    (3, 3): (1.77, 1.74, (0.31, 0.38, 0.31)),
    (3, 4): (2.32, 2.27, (0.22, 0.28, 0.28, 0.22)),
    (3, 5): (2.88, 2.80, (0.17, 0.21, 0.23, 0.21, 0.17)),
    (4, 2): (2.19, 2.19, (0.50, 0.50)),
    (4, 3): (4.61, 4.56, (0.32, 0.36, 0.32)),
    (4, 4): (8.02, 7.90, (0.23, 0.27, 0.27, 0.23)),
    (4, 5): (12.42, 12.21, (0.18, 0.21, 0.22, 0.21, 0.18)),
    (5, 2): (3.94, 3.94, (0.50, 0.50)),
    (5, 3): (12.39, 12.28, (0.32, 0.36, 0.32)),
    (5, 4): (28.71, 28.39, (0.24, 0.26, 0.26, 0.24)),
    (5, 5): (55.52, 54.84, (0.19, 0.21, 0.21, 0.21, 0.19)),
}
# Table 3, keyed by n: Werner lambda thresholds for k = 3..10.
PUBLISHED_TABLE3 = {
    3: (0.18, 0.13, 0.10, 0.08, 0.06, 0.06, 0.05, 0.04),
    4: (0.28, 0.19, 0.14, 0.11, 0.09, 0.08, 0.07, 0.06),
    5: (0.33, 0.22, 0.16, 0.13, 0.11, 0.09, 0.08, 0.07),
}
# Polytope vertex maxima of R_3, keyed by bounds.VERTEX_CASES.
PUBLISHED_VERTEX = {
    "k3d3": (1.25, 1.58, 1.86),
    "k3_general_generic": (1.25, 1.27),
    "k3_general_ratio12": (1.25, 1.33),
    "k4d4": 2.44,
}
