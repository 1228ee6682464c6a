"""The benchmark's workloads: inputs made from a seed, the timed work, and
the output checks that feed `failed`.

Every workload runs in a fresh interpreter (see worker.py), so the library's
lru_caches start empty, as they do for each `patlab` command a user runs.
`run` is the timed part; `check` runs afterwards, untimed, and returns
(attempted, failed), where an operation is a check, a query or a solve and
both an exception and a wrong output count as a failure.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from patlab import catalog, checks, oracle
from patlab.series import y_reverse

HARD = catalog.HARD_PASS


def check_key(check_id: str, params: dict) -> str:
    return f"{check_id} {json.dumps(params, sort_keys=True)}"


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _attempt(op):
    """(result, None) or (None, error text); the error is a failed operation."""
    try:
        return op(), None
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


# -- verify-n10 -----------------------------------------------------------------

VERIFY_NMAX = 10


def verify_inputs(seed: int):
    return None


def verify_run(inputs, tracer=None):
    """The whole registry at n <= 10.

    Untraced, this is `run_suite("all", 10)`.  Traced, the same checks run
    one by one through `run_check`, in registry order, which is the order
    run_suite executes them in, each inside a `checks.<suite>` span.
    """
    if tracer is None:
        return checks.run_suite("all", VERIFY_NMAX)
    done = []
    for c in checks.REGISTRY:
        with tracer.span(f"checks.{c.suite}", id=c.check_id) as s:
            result, error = _attempt(
                lambda: checks.run_check(c.check_id, c.params, VERIFY_NMAX))
        done.append((c, s, result, error))
    return done


def verify_statuses(output) -> dict[str, str]:
    if isinstance(output, dict):
        return {check_key(r["id"], r["params"]): r["status"]
                for r in output["checks"]}
    return {check_key(c.check_id, c.params): (r.status if r else "error")
            for c, _, r, _ in output}


def verify_fingerprint(output, inputs) -> dict:
    report = checks.report_to_json(output)
    return {"sha256": hashlib.sha256(report.encode()).hexdigest(),
            "statuses": verify_statuses(output)}


def verify_check(output, expected, inputs) -> tuple[int, int]:
    want = expected["statuses"]
    got = verify_statuses(output)
    failed = sum(1 for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    if isinstance(output, dict):
        report = checks.report_to_json(output)
        if hashlib.sha256(report.encode()).hexdigest() != expected["sha256"]:
            failed = max(failed, 1)
        if output["aggregate"] != "pass":
            failed = max(failed, 1)
    return len(want), failed


def verify_records(output, tracer) -> list[dict]:
    """One record per check of a traced run: what it covered, how long it
    took and how much work each layer did."""
    from tracer import layer_metrics

    out = []
    for c, span, result, error in output:
        layers = {k: v for k, v in layer_metrics(tracer.subtree(span)).items()
                  if v and not k.startswith("checks.")}
        out.append({"id": c.check_id, "params": c.params,
                    "n_range": result.n_range if result else None,
                    "status": result.status if result else "error",
                    "error": error,
                    "ms": round(span.duration * 1000, 3),
                    "layers": layers})
    return out


# -- dist-n11 -------------------------------------------------------------------

DIST_NMAX = 11
# (avoided class, tracked pattern length) drawn from the seed, then the thm8
# pattern set, which is fixed.
DIST_DRAWS = (((1, 2, 3), 4), ((1, 2, 3), 5), ((3, 2, 1), 4),
              ((1, 3, 2), 4), ((1, 3, 2), 5))
THM8_SET = ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1))


def _reduce(word):
    ranks = sorted(word)
    return tuple(ranks.index(v) + 1 for v in word)


def _contains(p, pat) -> bool:
    return any(_reduce(sub) == pat for sub in combinations(p, len(pat)))


def dist_inputs(seed: int):
    """Six queries.  A tracked pattern is drawn only from patterns that avoid
    the class pattern, since any other can never occur."""
    rng = random.Random(seed)
    queries = []
    for avoided, k in DIST_DRAWS:
        pool = [g for g in permutations(range(1, k + 1))
                if not _contains(g, avoided)]
        queries.append((avoided, (rng.choice(pool),)))
    queries.append(((1, 3, 2), THM8_SET))
    return queries


def dist_run(queries, tracer=None):
    """`patlab dist --n 11` for each query: every slice n = 0..11."""
    out = []
    for avoided, tracked in queries:
        variables = tuple(f"x{i + 1}" for i in range(len(tracked)))
        out.append(_attempt(lambda: [
            oracle.brute_distribution(avoided, tracked, n,
                                      variables=variables).poly
            for n in range(DIST_NMAX + 1)]))
    return out


def dist_check(output, expected, queries) -> tuple[int, int]:
    """Each slice sums to catalan(n); with every x = 1 it is the descent
    slice of thm1 (123), its y-reversal (321) or thm4 (132)."""
    thm1 = catalog.solve_catalog("thm1", DIST_NMAX).substitute({"x": 1})
    thm4 = catalog.solve_catalog("thm4", DIST_NMAX).substitute({"x": 1})

    def descent_slice(avoided, n):
        if avoided == (1, 3, 2):
            return thm4.t_slice(n)
        if avoided == (3, 2, 1) and n:
            return y_reverse(thm1.t_slice(n), n)
        return thm1.t_slice(n)

    def holds(avoided, tracked, slices):
        ones = {f"x{i + 1}": 1 for i in range(len(tracked))}
        return all(sum(c for _, c in poly.terms()) == _catalan(n)
                   and poly.substitute(ones) == descent_slice(avoided, n)
                   for n, poly in enumerate(slices))

    failed = sum(1 for (avoided, tracked), (slices, error) in zip(queries, output)
                 if error is not None or not holds(avoided, tracked, slices))
    return len(queries), failed


# -- series-o16 -----------------------------------------------------------------

SERIES_ORDERS = (10, 12, 14, 16)
SERIES_TOP = 16


def _registered_params() -> dict[str, list]:
    """The (m, a) pairs the registry's recursion checks use, per entry."""
    out: dict[str, set] = {}
    for c in checks.REGISTRY:
        if "series" in c.params:
            out.setdefault(c.params["series"], set()).add(
                (c.params.get("m"), c.params.get("a")))
    return {k: sorted(v, key=repr) for k, v in out.items()}


def series_inputs(seed: int):
    registered = _registered_params()
    solves = [(order, eid, m, a)
              for order in SERIES_ORDERS
              for eid, entry in catalog.CATALOG.items()
              for m, a in (registered[eid] if entry.needs_m else [(None, None)])]
    relations = [c for c in checks.REGISTRY
                 if c.check_id.startswith(("spec_thm8_", "famcons_", "cross_"))]
    identities = [c for c in checks.REGISTRY if c.suite == "identities"]
    closed_ms = [c.params["m"] for c in checks.REGISTRY
                 if c.check_id == "cf_series_fam_123_1m2"]
    return solves, relations, identities, closed_ms


def _closed_vs_series(m: int):
    """cf_123_1m2 against the solved series, every n <= 16 and k <= n."""
    s = catalog.solve_catalog("fam_123_1m2", SERIES_TOP, m=m)
    for n in range(1, SERIES_TOP + 1):
        sl = s.t_slice(n)
        for k in range(1, n + 1):
            if catalog.closed_coeff("cf_123_1m2", n, k, m) != sl.coefficient({"x": k}):
                return False
        if catalog.closed_coeff_k0("cf_123_1m2", n, m) != sl.coefficient({}):
            return False
    return True


def series_run(inputs, tracer=None):
    """`patlab series` at the hard cap: cold solves at orders 10..16, then
    the relations, printed identities and a closed form at order 16."""
    solves, relations, identities, closed_ms = inputs
    out = {"solves": [], "relations": [], "identities": [], "closed": []}
    for order, eid, m, a in solves:
        out["solves"].append(_attempt(
            lambda: catalog.solve_system(eid, order, m, a)))
    for c in relations:
        params = dict(c.params, order=SERIES_TOP)
        out["relations"].append(_attempt(lambda: c.runner(params, SERIES_TOP)[0]))
    for c in identities:
        p = c.params
        out["identities"].append(_attempt(lambda: catalog.printed_identity_check(
            p["identity"], SERIES_TOP, m=p.get("m"), a=p.get("a"))))
    for m in closed_ms:
        out["closed"].append(_attempt(lambda: _closed_vs_series(m)))
    return out


def _digest(system: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(system):
        h.update(repr((name, system[name].order,
                       list(system[name].poly.terms()))).encode())
    return h.hexdigest()[:16]


def series_fingerprint(output, inputs) -> dict:
    solves, _, identities, _ = inputs
    return {
        "solves": {repr(key): _digest(r) for key, (r, _) in
                   zip(solves, output["solves"])},
        "identities": {check_key(c.check_id, c.params): repr((v.ok, v.witness))
                       for c, (v, _) in zip(identities, output["identities"])
                       if c.trust != HARD},
    }


def series_check(output, expected, inputs) -> tuple[int, int]:
    """Solves match the seed commit's series; hard relations, identities and
    the closed form hold; report-only verdicts match the seed commit."""
    solves, _, identities, _ = inputs
    failed = 0
    for key, (system, error) in zip(solves, output["solves"]):
        if error or _digest(system) != expected["solves"].get(repr(key)):
            failed += 1
    for ok, error in output["relations"]:
        failed += bool(error or not ok)
    for c, (v, error) in zip(identities, output["identities"]):
        if error:
            failed += 1
        elif c.trust == HARD:
            failed += not v.ok
        else:
            want = expected["identities"].get(check_key(c.check_id, c.params))
            failed += repr((v.ok, v.witness)) != want
    for ok, error in output["closed"]:
        failed += bool(error or not ok)
    return sum(len(v) for v in output.values()), failed


# -- the table ------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    uses_seed: bool
    inputs: object        # seed -> inputs, made before the timed region
    run: object           # (inputs, tracer or None) -> output; timed
    check: object         # (output, expected, inputs) -> (attempted, failed)
    fingerprint: object   # (output, inputs) -> what the seed commit produced


WORKLOADS = {
    "verify-n10": Workload(False, verify_inputs, verify_run, verify_check,
                           verify_fingerprint),
    "dist-n11": Workload(True, dist_inputs, dist_run, dist_check, None),
    "series-o16": Workload(False, series_inputs, series_run, series_check,
                           series_fingerprint),
}
