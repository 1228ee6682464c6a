"""Every cap on how far brute force, the checks and the caches go.

A check covers n (or the order) up to the caller's n_max (`patlab verify
--nmax`), or a fixed range where noted.  The symmetries alone are clamped
below it, at SYMMETRY_NMAX: they run brute force on both sides, and at
n <= 10 they would add about 18% to a verify run's wall time.  Trust sets
a check's status, not its range.  Brute force has one cap, the
enumeration cap DEFAULT_MAX_N, which PATLAB_NMAX_CAP may lower, never
raise (perms.max_enumeration_n): the oracle, `dist --n`, `verify --nmax`,
run_check and run_suite all refuse an n above it.  The solver side has
one cap too, series.T_CAP_HARD.
"""

DEFAULT_MAX_N = 14            # enumeration, brute force and every n_max
DIST_NMAX = 10                # the default n_max; no check is clamped by it
SYMMETRY_NMAX = 9             # the one brute clamp, kept for cost (see above)
AVOIDERS_CACHED_MAX_N = 10    # avoider_levels: cached up to here, grown uncached above
