"""Record the `results` digests of the default-seed cli-queries stream.

    python3 bench/record_reference.py

Run it at a commit whose reports are trusted: it rewrites bench/reference.json,
against which every later run checks each query whose argv appears there.
"""
import json
import sys
import time

import run
import workloads

SEED = 0


def main() -> int:
    ops = workloads.plan("cli-queries", SEED)
    res = run.spawn({"ops": ops, "verify": False}, time.perf_counter() + 600)
    if res["failed"]:
        print("\n".join(res["failures"]), file=sys.stderr)
        return 1
    digests = {" ".join(op): d for op, d in zip(ops, res["digests"])}
    with open(run.REFERENCE, "w") as fh:
        json.dump({"seed": SEED, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
