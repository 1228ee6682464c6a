"""patlab: exact consecutive-pattern statistics over 123- and 132-avoiding
permutations, with staircase bijections to Dyck paths, a catalog of solved
generating-function recursions, and a brute-force conformance harness."""

from .catalog import (
    closed_coeff,
    closed_coeff_k0,
    printed_identity_check,
    reference_sequence,
    solve_catalog,
    solve_system,
)
from .checks import run_check, run_suite
from .dyck import (
    enumerate_paths,
    parse_path,
    path_pattern_count,
    pattern_path,
    phi_inverse,
    phi_map,
    psi_inverse,
    psi_map,
)
from .oracle import brute_distribution
from .perms import (
    consecutive_match_positions,
    contains_classical,
    descent_set,
    enumerate_avoiders,
    parse_perm,
    perm_str,
    phi_n,
    phi_n_inverse,
    reduce_word,
    symmetry_transform,
)
from .series import (
    Poly,
    TruncatedSeries,
    catalan,
    fixed_point_solve,
    gen_binom,
    multinom,
    poly_str,
    series_str,
    y_reverse,
)

__version__ = "0.1.0"
