"""Write reference.json: a digest of the exact outputs of every pool variant.

    python3 bench/record_reference.py

Every workload is recorded into a fresh file, so all digests come from
one commit.  Every check must pass its own verdicts and numeric bounds,
or nothing is written.  The cli variants are recorded as subprocesses
and must give the same digests through in-process gausscalc.cli.main,
which traced runs use.
Record only at a commit whose exact outputs are trusted: later commits are
judged against it.
"""

from __future__ import annotations

import json
import sys

import worker
import workloads


def record(name: str, gc) -> dict:
    build, slots = workloads.WORKLOADS[name]
    digests = {}
    for variant in range(workloads.VARIANTS):
        for tiny in (False, True):
            for module in ((None, gc) if name == "cli" else (gc,)):
                checks = build(module, [variant] * slots, tiny)
                _, (found, _, failures) = worker.execute(checks)
                if failures:
                    raise SystemExit(f"{name} variant {variant}: {sorted(set(failures.values()))[:5]}")
                for item, digest in found.items():
                    key = worker.reference_key(item, tiny)
                    if digests.setdefault(key, digest) != digest:
                        raise SystemExit(f"{key}: in-process output differs from the subprocess's")
        print(f"{name}: variant {variant} recorded", file=sys.stderr)
    return digests


def main() -> int:
    gc, _ = worker.load_gausscalc(with_cli=True)
    reference = {name: record(name, gc) for name in sorted(workloads.WORKLOADS)}
    worker.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
