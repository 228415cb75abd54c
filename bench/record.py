"""Record bench/reference.json: exit codes and report digests for every
input any seed can draw, and for every fixture and solver.

Run it from the repository root, on the commit whose outputs are the
reference (the parent of a change the benchmark is to judge):

    python3 bench/record.py

It refuses to write a reference in which some call raised or exited 4,
since the workloads are chosen so that no operation fails.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import harness
import workloads


def main() -> int:
    co = harness.Checkout(os.getcwd())
    if co.missing():
        print(f"error: not a dulac checkout, missing {co.missing()}", file=sys.stderr)
        return 2
    co.prepare()
    harness.load_dulac_cli()
    entries: dict[str, list] = {}
    codes: Counter = Counter()
    bad = []
    for name in workloads.WORKLOADS:
        for op in workloads.catalogue(name):
            path = co.path("record-input.json")
            harness.write_input(path, op.system)
            out = harness.round_trip(co, path, op.subcommand)
            entries[harness.input_key(path, op.subcommand)] = harness.record_entry(co, out)
            codes[(op.subcommand, out.solve_code, out.verify_code)] += 1
            if harness.EXIT_INVARIANT in (out.solve_code, out.verify_code) or "traceback" in (
                out.solve_code,
                out.verify_code,
            ):
                bad.append(op.key)
            print(f"{op.key}: solve {out.solve_code} in {out.solve_s:.3f}s, "
                  f"verify {out.verify_code} in {out.verify_s or 0:.3f}s", flush=True)
    for path, sub in harness.fixture_inputs(co):
        out = harness.round_trip(co, path, sub)
        entries[harness.input_key(path, sub)] = harness.record_entry(co, out)
        codes[(sub, out.solve_code, out.verify_code)] += 1
    for (sub, solve, verify), count in sorted(codes.items(), key=str):
        print(f"{sub}: solve exit {solve}, verify exit {verify}: {count}")
    if bad:
        print(f"error: failing operations, fix the generator: {bad}", file=sys.stderr)
        return 1
    with open(harness.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"ops": entries}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {harness.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
