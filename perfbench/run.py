#!/usr/bin/env python3
"""The capkit benchmark: one command, three workloads, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loops, one client: each operation starts when the
previous one has finished; load comes from one process with no threads):

``cli-fixtures``  ``python -m capkit`` in a fresh subprocess per command,
                  over every shipped fixture: ``validate`` on every document,
                  ``judge`` (structured, and human where a golden exists),
                  ``frontier --set Q|Qstar|M`` and ``detect``.  Start-up and
                  import dominate; engine work is under 10 ms.
``judge-large``   in-process ``capkit.cli.main(["judge", path])`` on
                  generated documents with a catalog of 2500: the
                  quantifiers and repeated set computations dominate.
``detect-trace``  in-process ``capkit.cli.main(["detect", path])`` on
                  generated documents with a catalog of 1000 and two traces
                  of eight chained steps; parsing is about half the time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run wraps capkit's
functions from outside the package (``tracer.py``) and reports per-layer
metrics.  The line before it is a JSON object with the run's details: the
machine, the seed, sample counts, the 90th percentile where it has at least
ten samples beyond it, the failed-operation ratio, and the correctness
problems found.  Results from different machines must never be compared.

Outputs are checked outside the timed region: CLI stdout against
``tests/golden`` byte for byte, exit codes, ``frontier`` ids against the
independent oracle, and generated reports against the sha256 digests in
``expected_digests.json`` (for the seeds recorded there) plus the mechanism
each document was built to fire.  Any mismatch is a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

SETUP_REPS = 3
STARTUP_REPS = 7
TRACED_PASSES = 2
OP_TIMEOUT_S = 60
WORKER_GRACE_S = 120

# A 30 s run holds about five judge-large operations at a catalog of 2500; at
# 5000 it held two, and the run-to-run spread of latency doubled.
GENERATED = {
    "judge-large": {"kind": "judge", "command": "judge", "catalog": 2500, "docs": 3},
    "detect-trace": {"kind": "detect", "command": "detect", "catalog": 1000, "docs": 4},
}
WORKLOADS = ("cli-fixtures",) + tuple(GENERATED)

# Fixtures whose expected `validate` exit status is not 0.
EXPECTED_EXIT = {"broken_chain.trc": 2}

END_TO_END = (
    ("latency_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
                "distinct_ratio": "ratio", "mb_per_s": "MB/s"}
_LAYER_FIELDS = (
    ("scenario_io.parse_document", ("self_s", "mb_per_s")),
    ("scenario_io.deep_validate", ("total_s",)),
    ("model.freedom.compute_freedom", ("calls", "self_s", "distinct_ratio")),
    ("model.freedom.compute_real_freedom", ("calls", "self_s")),
    ("model.freedom.access_profile", ("calls", "self_s")),
    ("model.frontier.maximal_set", ("calls", "self_s", "distinct_ratio")),
    ("model.types.dedupe_by_value", ("calls", "self_s")),
    ("model.types.ValuationMap.apply", ("calls",)),
    ("model.order.dominates", ("calls",)),
    ("model.order.strictly_dominates", ("calls",)),
    ("model.order.theta_prefers", ("calls",)),
    ("judgments.records.apply_interaction", ("calls", "self_s")),
    ("judgments.records.materialize_trace", ("calls", "self_s")),
    ("judgments.improvement.condition1", ("calls", "total_s")),
    ("judgments.improvement.condition2", ("calls", "total_s")),
    ("judgments.improvement.classify_beneficence", ("calls", "total_s")),
    ("judgments.improvement.assistance_real_freedom", ("calls", "total_s")),
    ("judgments.improvement.assistance_life_plans", ("calls", "total_s")),
    ("judgments.failures.detect_coercion", ("total_s",)),
    ("judgments.failures.detect_deception", ("total_s",)),
    ("judgments.failures.detect_exploitation", ("total_s",)),
    ("judgments.failures.paternalism_check", ("total_s",)),
    ("judgments.failures.detect_domination", ("total_s",)),
    ("judgments.verdict.judge", ("total_s",)),
    ("report.emit_structured", ("self_s",)),
    ("report.emit_human", ("self_s",)),
)
PER_LAYER = (
    (("startup.interpreter_s", "s"), ("startup.import_cli_s", "s"))
    + tuple((f"{layer}.{field}", _FIELD_UNITS[field])
            for layer, fields in _LAYER_FIELDS for field in fields)
    + (("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"))
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def machine() -> dict:
    """The machine a result set comes from, read from /proc where possible."""
    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu_model": None, "loadavg_start": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg") as fh:
            info["loadavg_start"] = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        pass
    return info


def capkit_env() -> dict:
    return dict(os.environ, PYTHONPATH="src", CAPKIT_COLOR="never")


def start_worker(spec: dict, name: str) -> subprocess.Popen:
    """Start a worker and return once it has imported capkit."""
    spec_path = WORK / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        stdout=subprocess.PIPE, cwd=ROOT, env=capkit_env(), text=True,
    )
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc


def finish_worker(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran its time budget") from None
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")


def startup_times() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing capkit.cli on top."""
    bare, loaded = [], []
    for _ in range(STARTUP_REPS):
        for code, sink in (("pass", bare), ("import capkit.cli", loaded)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=capkit_env(),
                           check=True, timeout=OP_TIMEOUT_S)
            sink.append(perf_counter() - start)
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(loaded) - interpreter


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------


def load_oracle():
    """The independent reference implementation, wherever the checkout keeps it."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    try:
        import capkit.oracle as oracle
    except ImportError:
        import oracle
    return oracle


def oracle_ids(path: Path, which: str) -> list:
    oracle = load_oracle()
    from capkit.scenario_io import parse_document

    s = parse_document(path.read_bytes().decode("utf-8"))[0].scenario
    if which == "Q":
        members = oracle.freedom(s)
    elif which == "Qstar":
        members = oracle.real_freedom(s)
    else:
        members = oracle.naive_maximal_set(oracle.freedom(s), s.v)
    return sorted(fv.id for fv in members)


def fixture_ops() -> list[dict]:
    """Every CLI command over every shipped fixture, with its expected result."""
    fixtures, golden = ROOT / "tests" / "fixtures", ROOT / "tests" / "golden"
    scenarios = sorted(fixtures.glob("*.scn"))
    traces = sorted(fixtures.glob("*.trc"))

    def rel(path: Path) -> str:
        return str(path.relative_to(ROOT))

    def expected(name: str):
        path = golden / name
        return path.read_bytes().decode("utf-8") if path.is_file() else None

    ops = []
    for path in scenarios + traces:
        rc = EXPECTED_EXIT.get(path.name, 0)
        ops.append({"argv": ["validate", rel(path)], "rc": rc,
                    "stdout": f"valid: {rel(path)}\n" if rc == 0 else ""})
    for path in scenarios:
        ops.append({"argv": ["judge", rel(path)], "rc": 0,
                    "stdout": expected(f"{path.stem}.judge.json")})
        human = expected(f"{path.stem}.judge.txt")
        if human is not None:
            ops.append({"argv": ["judge", rel(path), "--format", "human"], "rc": 0,
                        "stdout": human})
    for path in scenarios:
        for which in ("Q", "Qstar", "M"):
            ops.append({"argv": ["frontier", rel(path), "--set", which], "rc": 0,
                        "stdout": None, "frontier": which})
    for path in traces:
        if EXPECTED_EXIT.get(path.name, 0) == 0:
            ops.append({"argv": ["detect", rel(path)], "rc": 0,
                        "stdout": expected(f"{path.stem}.detect.json")})
    return ops


def check_fixture_op(op: dict, rc, stdout: str, stderr: str, oracle_cache: dict):
    if rc != op["rc"]:
        return f"{op['argv']}: exit {rc!r}, expected {op['rc']}"
    if op["rc"] == 0 and stderr:
        return f"{op['argv']}: unexpected stderr {stderr[:200]!r}"
    if op["stdout"] is not None and stdout != op["stdout"]:
        return f"{op['argv']}: stdout differs from the expected bytes"
    if "frontier" in op:
        key = (op["argv"][1], op["frontier"])
        if key not in oracle_cache:
            oracle_cache[key] = oracle_ids(ROOT / key[0], key[1])
        ids = sorted(line.split(" ", 1)[0] for line in stdout.splitlines())
        if ids != oracle_cache[key]:
            return f"{op['argv']}: ids {ids} differ from the oracle's {oracle_cache[key]}"
    return None


def run_cli_op(argv: list) -> dict:
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "capkit", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=capkit_env())
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = "timeout"
    return {"seconds": perf_counter() - start, "rc": rc,
            "stdout": out.decode("utf-8", "replace"), "stderr": err.decode("utf-8", "replace")}


def cli_fixtures(seconds: float, trace: bool) -> dict:
    """Fixture commands in fresh subprocesses, whole rounds at a time.

    Set-up is the import of capkit, since the inputs are shipped.  Peak RSS
    is the largest of any child's, and every child imports capkit.cli, so
    the set-up workers never exceed the CLI commands.
    """
    ops = fixture_ops()
    setup = []
    if trace:
        run = traced_worker([op["argv"] for op in ops], "cli-fixtures")
        results = run["results"]
    else:
        for _ in range(SETUP_REPS):
            start = perf_counter()
            proc = start_worker({"mode": "setup"}, "cli-fixtures-setup")
            setup.append(perf_counter() - start)
            finish_worker(proc, OP_TIMEOUT_S)
        results, rounds = [], []
        start = perf_counter()
        while not rounds or perf_counter() - start + statistics.median(rounds) <= seconds:
            round_start = perf_counter()
            for index, op in enumerate(ops):
                results.append(dict(run_cli_op(op["argv"]), op=index))
            rounds.append(perf_counter() - round_start)
        run = {"wall_s": perf_counter() - start,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}

    oracle_cache: dict = {}
    problems = [check_fixture_op(ops[r["op"]], r["rc"], r["stdout"], r["stderr"], oracle_cache)
                for r in results]
    return {"setup": setup, "run": run, "results": results, "problems": problems}


# ---------------------------------------------------------------------------
# Generated workloads
# ---------------------------------------------------------------------------


def mechanism_problems(command: str, report: dict) -> list:
    """Does each record or step show the mechanism it was built to fire?"""
    problems = []

    def kinds(findings):
        return {f["kind"]: f["severity"] for f in findings}

    if command == "judge":
        verdicts = {v["interaction"].split("_", 1)[1]: v for v in report["verdicts"]}
        if sorted(verdicts) != sorted(gen.KINDS):
            return [f"judged records {sorted(verdicts)}"]
        threat = kinds(verdicts["threat"]["findings"])
        if threat.get("coercion") != "serious" or "exploitation" not in threat:
            problems.append(f"threat record findings {threat}")
        if "deception" not in kinds(verdicts["misrep"]["findings"]):
            problems.append("misrepresentation record shows no deception")
        if verdicts["restrict"]["paternalism"]["status"] != "unjustified":
            problems.append("restricting record is not unjustified paternalism")
        offer = verdicts["offer"]
        if not (all(offer["beneficence"][k] for k in ("weak", "real_freedom", "life_plan"))
                and all(offer["assistance"].values())):
            problems.append(f"offer record: {offer['beneficence']} {offer['assistance']}")
        return problems
    if len(report["traces"]) != gen.TRACES:
        return [f"{len(report['traces'])} traces evaluated"]
    for trace in report["traces"]:
        if trace["domination"]["status"] != "finding":
            problems.append(f"{trace['trace']}: domination {trace['domination']['status']}")
        for step in trace["steps"]:
            kind = step["interaction"].split("_", 1)[1]
            found = kinds(step["findings"])
            ok = {
                "threat": "coercion" in found and "exploitation" in found,
                "misrep": "deception" in found,
                "restrict": step["paternalism"]["status"] == "unjustified",
                "offer": not found,
            }[kind]
            if not ok:
                problems.append(f"{trace['trace']} step {step['step']} ({kind}): {found}")
    return problems


def expected_digests(workload: str, seed: int):
    table = json.loads((BENCH / "expected_digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def write_documents(cfg: dict, seed: int) -> list:
    """Write the seed's documents; return one operation (argv) per document."""
    ops = []
    for index in range(cfg["docs"]):
        path = WORK / f"{cfg['kind']}-{seed}-{index}.json"
        path.write_bytes(gen.document_bytes(cfg["kind"], seed, index, cfg["catalog"]))
        ops.append([cfg["command"], str(path.relative_to(ROOT))])
    return ops


def generated(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generated documents judged in one worker process.

    Set-up is writing the documents plus starting a worker that imports
    capkit; it is repeated, and only the last worker runs the loop.  The
    traced run covers the first document.
    """
    cfg = GENERATED[workload]
    setup = []
    if trace:
        run = traced_worker(write_documents(cfg, seed)[:1], workload)
    else:
        out = WORK / f"{workload}.result.json"
        for rep in range(SETUP_REPS):
            last = rep == SETUP_REPS - 1
            start = perf_counter()
            ops = write_documents(cfg, seed)
            spec = {"mode": "timed", "ops": ops, "seconds": seconds, "out": str(out)}
            proc = start_worker(spec if last else {"mode": "setup"}, workload)
            setup.append(perf_counter() - start)
            finish_worker(proc, seconds + WORKER_GRACE_S if last else OP_TIMEOUT_S)
        run = json.loads(out.read_text())

    digests = expected_digests(workload, seed)
    mechanism_cache: dict = {}
    seen: dict = {}
    problems = []
    for r in run["results"]:
        digest = hashlib.sha256(r["stdout"].encode("utf-8")).hexdigest()
        problem = None
        if r["rc"] != 0 or r["stderr"]:
            problem = f"doc {r['op']}: exit {r['rc']!r}, stderr {r['stderr'][:200]!r}"
        elif digests is not None and digest != digests[r["op"]]:
            problem = f"doc {r['op']}: report digest {digest} differs from the recorded one"
        elif seen.setdefault(r["op"], digest) != digest:
            problem = f"doc {r['op']}: report differs between runs of the same document"
        else:
            if digest not in mechanism_cache:
                try:
                    found = mechanism_problems(cfg["command"], json.loads(r["stdout"]))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    found = [f"report not in the expected form: {type(exc).__name__} {exc}"]
                mechanism_cache[digest] = found
            if mechanism_cache[digest]:
                problem = f"doc {r['op']}: {mechanism_cache[digest]}"
        problems.append(problem)
    return {"setup": setup, "run": run, "results": run["results"], "problems": problems,
            "digests_checked": digests is not None}


def traced_run_problem(run: dict, workload: str):
    """What is wrong with a traced run as a whole, if anything.

    Call counts must repeat exactly from pass to pass, because a count is only
    evidence when it repeats; and ``detect`` must never reach the improvement
    judgments.
    """
    calls = [{layer: row["calls"] for layer, row in p.items()} for p in run["layers"]]
    if any(c != calls[0] for c in calls):
        return "call counts differ between traced passes"
    if workload == "detect-trace":
        improvement = {name: row["calls"] for name, row in run["layers"][0].items()
                       if name.startswith("judgments.improvement.") and row["calls"]}
        if improvement:
            return f"detect reached the improvement judgments: {improvement}"
    return None


def traced_worker(ops: list, workload: str) -> dict:
    out = WORK / f"{workload}.trace.json"
    proc = start_worker({"mode": "traced", "ops": ops, "passes": TRACED_PASSES,
                         "out": str(out)}, workload)
    finish_worker(proc, OP_TIMEOUT_S + WORKER_GRACE_S)
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(outcome: dict, details: dict) -> dict:
    durations = [r["seconds"] for r in outcome["results"]]
    run = outcome["run"]
    values = {
        "latency_p50_s": statistics.median(durations),
        "ops_per_s": len(durations) / run["wall_s"],
        "peak_rss_mb": run["maxrss_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(outcome["setup"]),
    }
    details["samples"] = len(durations)
    details["setup_samples_s"] = outcome["setup"]
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1]
        details["latency_p90_s"] = p90
        details["beyond_p90"] = sum(d > p90 for d in durations)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(outcome: dict, details: dict) -> dict:
    """Per-layer figures, times averaged over the traced passes.

    The tracing overhead is the median traced pass minus the median untraced
    pass over the same operations.
    """
    run = outcome["run"]
    passes = run["layers"]
    interpreter, import_cli = startup_times()
    untraced = statistics.median(run["untraced_s"])
    overhead = statistics.median(run["traced_s"]) - untraced
    values = {"startup.interpreter_s": interpreter, "startup.import_cli_s": import_cli,
              "trace.overhead_s": overhead, "trace.overhead_share": overhead / untraced}
    for layer, fields in _LAYER_FIELDS:
        for field in fields:
            # Call counts repeat exactly from pass to pass (traced_run_problem).
            values[f"{layer}.{field}"] = (passes[0][layer][field] if field == "calls" else
                                          statistics.fmean(p[layer][field] for p in passes))
    details["absent"] = run["absent"]
    details["untraced_s"] = run["untraced_s"]
    details["traced_s"] = run["traced_s"]
    (WORK / "spans.json").write_text(json.dumps(run["spans"]))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one capkit benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "capkit" / "cli.py").is_file() or (
        args.workload == "cli-fixtures" and not (ROOT / "tests" / "fixtures").is_dir()
    ):
        print(f"error: {ROOT} is not a capkit checkout (run from its root)", file=sys.stderr)
        return 2

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine()}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    trace = bool(args.trace)
    try:
        if args.workload == "cli-fixtures":
            outcome = cli_fixtures(args.seconds, trace)
        else:
            outcome = generated(args.workload, args.seed, args.seconds, trace)
            details["digests_checked"] = outcome["digests_checked"]
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        details["problems"] = [f"run aborted: {type(exc).__name__}: {exc}"]
        print(json.dumps({"perfbench": details}, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    problems = outcome["problems"]
    if trace:
        whole = traced_run_problem(outcome["run"], args.workload)
        problems = [p or whole for p in problems]
    failed = [p for p in problems if p]
    attempted = len(problems)
    details["failed_ops_ratio"] = len(failed) / attempted
    details["problems"] = sorted(set(failed))[:20]
    if trace:
        metrics = per_layer_metrics(outcome, details)
    else:
        metrics = end_to_end_metrics(outcome, details)
    correct = not failed
    print(json.dumps({"perfbench": details}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
