"""One measured iteration of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `setup` (only time `import patlab`), `plain` (the timed workload,
untraced) or `traced` (the same work under the outside-in tracer; spans and,
for verify-n10, per-check records are written under `.perfbench/`).  Prints
one JSON object on stdout.  Run by run.py, one child at a time.  Times are
reported both as measured and in reference seconds (hostspeed.py).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")


def import_patlab() -> None:
    """Import the library from this checkout's sources."""
    sys.path.insert(0, SRC)
    import patlab
    if os.path.dirname(os.path.dirname(os.path.abspath(patlab.__file__))) != SRC:
        raise SystemExit(f"imported patlab from {patlab.__file__}, not {SRC}")


def _write_trace(name: str, seed: int, tracer, output) -> None:
    from workloads import verify_records

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    with open(stem + ".spans.json", "w") as f:
        json.dump(tracer.to_json(), f)
    if name == "verify-n10":
        with open(stem + ".checks.jsonl", "w") as f:
            for rec in verify_records(output, tracer):
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    speed = HostSpeed()
    _, setup_raw_s, setup_s = speed.timed(import_patlab, sample=False)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    from tracer import Tracer, install, layer_metrics
    from workloads import WORKLOADS, verify_statuses

    workload = WORKLOADS[name]
    with open(EXPECTED) as f:
        expected = json.load(f).get(name)
    inputs = workload.inputs(seed)

    if mode == "plain":
        output, wall_raw_s, wall_s = speed.timed(lambda: workload.run(inputs))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(peak_rss_mb=peak_kb / 1024)
    elif mode == "traced":
        # The spans' clock stands still while a probe runs.
        tracer = Tracer(speed.unprobed_clock)

        def traced_run():
            cpu, stolen = time.process_time(), speed.stolen
            with install(tracer):
                with tracer.span("run"):
                    out = workload.run(inputs, tracer)
            return out, time.process_time() - cpu - (speed.stolen - stolen)

        (output, cpu_s), wall_raw_s, wall_s = speed.timed(traced_run)
        metrics = layer_metrics(tracer.spans)
        metrics["run.cpu_s"] = cpu_s
        result.update(metrics=metrics)
        _write_trace(name, seed, tracer, output)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    result.update(wall_s=wall_s, wall_raw_s=wall_raw_s)
    attempted, failed = workload.check(output, expected, inputs)
    result.update(attempted=attempted, failed=failed,
                  uses_seed=workload.uses_seed)
    if name == "verify-n10":
        result["statuses"] = verify_statuses(output)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
