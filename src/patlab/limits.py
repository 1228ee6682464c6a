"""Every cap on how far brute force, the checks and the caches go.

A check covers n (or the order) up to the caller's n_max (`patlab verify
--nmax`), or a fixed range where noted.  The symmetries alone are clamped
below it, at SYMMETRY_NMAX: they run brute force on both sides, and at
n <= 10 they would add about 18% to a verify run's wall time.  Trust sets
a check's status, not its range.  run_check and run_suite reject an n_max
above the enumeration cap, which PATLAB_NMAX_CAP may lower from
DEFAULT_MAX_N, never raise (perms.max_enumeration_n); run_suite also
bounds it by ORACLE_MAX_N.
"""

DEFAULT_MAX_N = 14            # enumeration of avoiders and Dyck paths
ORACLE_MAX_N = 12             # brute force: the oracle, `dist --n`, `verify --nmax`
DIST_NMAX = 10                # the default n_max; no check is clamped by it
SYMMETRY_NMAX = 9             # the one brute clamp, kept for cost (see above)
EXPANSION_ORDER = 5           # the printed expansions stop at t^5
CLOSED_VS_SERIES_ORDER = 14   # fixed: closed form against its cheap (t, x) series
AVOIDERS_CACHED_MAX_N = 10    # avoider_class caches up to here, grows uncached above
