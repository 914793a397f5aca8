"""Pin the sha256 of every report the benchmark can produce.

    python3 perfbench/record_digests.py

Runs every case of every workload at every library seed, refuses to write
if any case fails its closed-form check, and otherwise writes
perfbench/digests.json.  Rerun it only when a change alters the reports on
purpose; the benchmark counts every report that differs from its pinned
digest as a failed case.
"""

import hashlib
import json
import sys

from run import HERE, load_library


def main():
    load_library()
    import workloads

    pinned, bad = {}, []
    for workload in workloads.WORKLOADS:
        table = pinned[workload] = {}
        for cases in workloads.cycles(workload):
            for case in cases:
                code, text = case.call()
                problems = workloads.evaluate(case, code, text)
                if problems:
                    bad.append(f"{case.key}: {'; '.join(problems)}")
                table[case.key] = hashlib.sha256(text.encode()).hexdigest()
        print(f"{workload}: {len(table)} reports", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
