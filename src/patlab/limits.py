"""Every cap on how far brute force, the checks and the caches go.

A check covers n (or the order) up to min(n_max, its cap), where n_max is
the caller's (`patlab verify --nmax`), or a fixed range where noted.  Every
bijection and transport check covers n <= min(n_max, DIST_NMAX), and every
cleared identity is checked to that order on the recursions' solves;
symmetries are the one kind with a brute cap of their own.  Trust sets a
check's status, not its range: a report-only check covers what a hard
check of its kind covers.  PATLAB_NMAX_CAP may lower DEFAULT_MAX_N, never
raise it (perms.max_enumeration_n).
"""

DEFAULT_MAX_N = 14            # enumeration of avoiders and Dyck paths
ORACLE_MAX_N = 12             # brute force: the oracle, `dist --n`, `verify --nmax`
DIST_NMAX = 10                # distributions, bijections, series, identities
SYMMETRY_NMAX = 9             # symmetries: brute force on both sides
EXPANSION_ORDER = 5           # the printed expansions stop at t^5
CLOSED_VS_SERIES_ORDER = 14   # fixed: closed form against its cheap (t, x) series
AVOIDERS_CACHED_MAX_N = 10    # avoider_class caches up to here, grows uncached above
