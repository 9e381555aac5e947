#!/usr/bin/env python3
"""Record the sha256 of each generated document's report for ``run.py``.

``run.py`` checks every report of a generated workload against the digest
recorded here for its seed and document index.  Run this only when capkit's
reports are meant to change (the shipped goldens change with them), from
the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_digests.py --seeds 0-19

Documents are judged in this process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def report_digest(cli, command: str, path: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([command, path])
    if rc != 0 or err.getvalue():
        raise SystemExit(f"{path}: exit {rc}, stderr {err.getvalue()[:200]!r}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a range such as 0-19")
    parser.add_argument("--workload", choices=sorted(run.GENERATED), action="append")
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)

    import capkit.cli as cli

    table_path = run.BENCH / "expected_digests.json"
    table = json.loads(table_path.read_text())
    run.WORK.mkdir(exist_ok=True)
    for workload in args.workload or sorted(run.GENERATED):
        cfg = run.GENERATED[workload]
        for seed in seeds:
            digests = [report_digest(cli, *argv) for argv in run.write_documents(cfg, seed)]
            table.setdefault(workload, {})[str(seed)] = digests
            print(workload, seed, file=sys.stderr, flush=True)
            table_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
