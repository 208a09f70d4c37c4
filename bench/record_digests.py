#!/usr/bin/env python3
"""Record the output digest of every call the benchmark can issue.

    python3 bench/record_digests.py

Writes bench/digests.json.  Default CLI output must stay byte-identical, so
the file is recorded once and a later run that reads a different digest
counts the call as failed.  Recording takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    table: dict[str, dict[str, str]] = {}
    for workload in run.WORKLOADS:
        inputs = run.setup(workload)
        session = run.Session(inputs, {}, {})
        cwd = os.getcwd()
        os.chdir(inputs.directory)
        try:
            entries = {}
            for argv in run.all_pool_calls(workload):
                code, out, err, _ = session.run(argv)
                if code != 0:
                    print(f"error: {run.call_key(argv)} exited {code}: {err}", file=sys.stderr)
                    return 1
                entries[run.call_key(argv)] = run.digest(out, err)
        finally:
            os.chdir(cwd)
        table[workload] = entries
        print(f"{workload}: {len(entries)} digests", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
