"""The process that runs capkit in-process for the benchmark.

``run.py`` starts one worker per run.  The worker imports ``capkit.cli``,
prints ``ready`` on stdout (the harness times set-up up to that line), and
then, depending on the spec's mode:

``setup``   exits at once;
``timed``   runs the spec's operations one after another, cycling through
            them, until starting another would overrun the time budget;
``traced``  alternates untraced passes over the operations with passes
            under the tracer, for per-layer figures and the tracing
            overhead.

An operation is one ``capkit.cli.main(argv)`` call with stdout and stderr
captured: from reading the document's bytes to the finished report string.
Garbage from the previous operation is collected before the clock starts.
Results go to the spec's ``out`` file as JSON; checking them is the
harness's job.

Usage: ``python3 perfbench/worker.py SPEC.json`` from the checkout root,
with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter


def run_op(cli, argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
            rc = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return {"seconds": seconds, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def timed(cli, ops: list, budget: float) -> dict:
    results = []
    start = perf_counter()
    while True:
        if results:
            typical = median(r["seconds"] for r in results)
            if perf_counter() - start + typical > budget:
                break
        index = len(results) % len(ops)
        results.append(dict(run_op(cli, ops[index]), op=index))
    return {"wall_s": perf_counter() - start, "results": results}


def traced(cli, ops: list, passes: int) -> dict:
    """Alternate untraced and traced passes over the operations.

    Each traced pass has a tracer of its own, so its per-layer figures can be
    compared with the other passes'.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    out = {"untraced_s": [], "traced_s": [], "results": [], "layers": [], "absent": [],
           "spans": []}
    for _ in range(passes):
        start = perf_counter()
        out["results"] += [dict(run_op(cli, argv), op=i, traced=False)
                           for i, argv in enumerate(ops)]
        out["untraced_s"].append(perf_counter() - start)
        tracer = Tracer()
        tracer.install()
        try:
            start = perf_counter()
            for i, argv in enumerate(ops):
                out["results"].append(dict(run_op(cli, argv), op=i, traced=True))
                tracer.end_op()
            out["traced_s"].append(perf_counter() - start)
        finally:
            tracer.uninstall()
        out["layers"].append(tracer.layers())
        out["absent"] = tracer.absent
        out["spans"].append(tracer.spans)
    return out


def main(argv: list) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    import capkit.cli as cli

    print("ready", flush=True)
    if spec["mode"] == "setup":
        return 0
    if spec["mode"] == "timed":
        result = timed(cli, spec["ops"], spec["seconds"])
    else:
        result = traced(cli, spec["ops"], spec["passes"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
