"""Record the outputs the benchmark checks against, from the current sources.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: for verify-n10 the report's sha256 and its
status table, for series-o16 a digest of every solved system and every
report-only identity verdict.  dist-n11 needs no record: its checks are
identities of the slices themselves.  Run it only on a commit whose outputs
are known good; the committed file was made at the seed commit.
"""

from __future__ import annotations

import json

from worker import EXPECTED, import_patlab


def main() -> None:
    import_patlab()
    from workloads import WORKLOADS

    record = {}
    for name, w in WORKLOADS.items():
        if w.fingerprint is None:
            continue
        inputs = w.inputs(0)
        record[name] = w.fingerprint(w.run(inputs), inputs)
    with open(EXPECTED, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
