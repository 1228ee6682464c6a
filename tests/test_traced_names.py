"""The benchmark tracer (perfbench/tracer.py) wraps these functions by name,
binds their arguments by parameter name and reads the hit counts of their
lru_caches.  A refactor that renames one breaks `perfbench/run.py --trace 1`
without failing anything else, so the names are pinned here."""

import inspect

import pytest

from patlab import catalog, dyck, oracle, perms
from patlab.series import TruncatedSeries

# (owner, name, parameters in order, lru_cache'd)
TRACED = [
    (perms, "avoider_list", ("pattern", "n"), True),
    (perms, "enumerate_avoiders", ("n", "pattern"), False),
    (perms, "consecutive_match_positions", ("p", "pat"), False),
    (oracle, "brute_distribution",
     ("avoided", "tracked", "n", "variables", "track_des"), False),
    (oracle, "_distribution",
     ("avoided", "tracked", "n", "variables", "track_des"), True),
    (catalog, "fixed_point_solve", ("equations", "order", "seeds"), False),
    (TruncatedSeries, "substitute", ("self", "assignments"), False),
    (TruncatedSeries, "inverse_unit", ("self",), False),
    (catalog, "solve_system", ("entry_id", "order", "m", "a"), True),
    (catalog, "printed_identity_check", ("identity_id", "order", "m", "a"), False),
    (catalog, "closed_coeff", ("form_id", "n", "k", "m"), False),
    (dyck, "phi_map", ("p",), False),
    (dyck, "psi_map", ("p",), False),
    (dyck, "phi_inverse", ("word",), False),
    (dyck, "psi_inverse", ("word",), False),
    (dyck, "path_pattern_count", ("word", "pattern"), False),
    (dyck, "enumerate_paths", ("n",), False),
]


@pytest.mark.parametrize("owner, name, params, cached", TRACED,
                         ids=[f"{o.__name__}.{n}" for o, n, _, _ in TRACED])
def test_traced_name_is_pinned(owner, name, params, cached):
    fn = vars(owner)[name] if inspect.isclass(owner) else getattr(owner, name)
    assert callable(fn)
    assert tuple(inspect.signature(fn).parameters) == params
    assert hasattr(fn, "cache_info") == cached
