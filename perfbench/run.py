"""The patlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in workloads.py:

  verify-n10  checks.run_suite("all", 10): the harness's real job; every
              layer, with heavy reuse of the oracle and avoider caches.
  dist-n11    six cold brute_distribution queries, every slice n <= 11:
              enumeration and matching only.  The only seeded workload.
  series-o16  cold catalog solves at orders 10..16, then relations,
              identities and a closed form at order 16: series arithmetic
              only, no permutations.

Each iteration is a fresh interpreter (worker.py), one at a time, so the
library's lru_caches start cold as they do for a CLI user.  One closed-loop
caller, no threads.  Iterations repeat while the next one should end within --seconds;
the run reports medians.  setup_s, the time to `import patlab` (which builds
the 251-check registry), is also sampled by import-only interpreters.

Times are in reference seconds (hostspeed.py): wall time scaled by a probe
of the host's speed taken in the same process, so that the host's drift
cancels.  The unscaled medians are printed in the summary.

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced iteration
and prints the per-layer metrics, with trace.overhead_ratio = traced wall_s
/ median untraced wall_s.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str) -> dict:
    # Bytecode caching stays on, so setup_s is an import from cached
    # bytecode, as for an installed package, after the warm-up compiles it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} iteration exited {proc.returncode}:\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    child(workload, seed, "setup")   # warm-up: byte-compiles, fills the file cache

    def sample_setup():
        return [child(workload, seed, "setup") for _ in range(SETUP_SAMPLES)]

    # Import-only samples before and after the iterations, so that their
    # median spans the run as the iterations do.
    setups = sample_setup()
    plain = []
    start = time.monotonic()
    while True:
        plain.append(child(workload, seed, "plain"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > seconds:   # the next would overrun
            break
    setups += sample_setup() + plain
    runs = list(plain)
    wall_s = statistics.median(p["wall_s"] for p in plain)
    raw = {"setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
           "wall_raw_s": statistics.median(p["wall_raw_s"] for p in plain)}

    mismatched = 0
    if trace:
        traced = child(workload, seed, "traced")
        runs.append(traced)
        if "statuses" in traced:
            # The per-check run must reproduce run_suite's statuses.
            want, got = plain[0]["statuses"], traced["statuses"]
            mismatched = sum(1 for k in want.keys() | got.keys()
                             if want.get(k) != got.get(k))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + mismatched
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        values = dict(traced["metrics"],
                      **{"trace.overhead_ratio": traced["wall_s"] / wall_s})
        # Layer times in reference seconds, by the traced iteration's factor.
        factor = traced["wall_s"] / traced["wall_raw_s"]
        for m in declared:
            values[m["name"]] *= {"s": factor, "1/s": 1 / factor}.get(m["unit"], 1)
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "wall_s": wall_s,
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(f"# {workload} seed={seed}"
          f"{'' if plain[0]['uses_seed'] else ' (seed unused)'}"
          f" iterations={len(plain)} setup_samples={len(setups)}"
          f" python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"# error_rate {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for k, m in metrics.items():
        print(f"# {k} {m['value']:.6g} {m['unit']}")
    for k, v in raw.items():
        print(f"# {k} {v:.6g} s (unscaled wall time)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(SPEC) as f:
        spec = json.load(f)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "PATLAB_NMAX_CAP" in os.environ:
        print("PATLAB_NMAX_CAP is set; it would silently shrink every "
              "enumeration.  Unset it to benchmark.", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "patlab", "__init__.py")):
        print(f"no patlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
