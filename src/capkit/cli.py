"""Command-line interface.

Commands
    validate  -- parse and fully validate a document, reporting diagnostics
    frontier  -- print the freedom set, real-freedom set, or maximal set
    judge     -- evaluate interaction records and emit verdict reports
    detect    -- evaluate traces for failure modes, including domination

Exit status contract
    0  analysis completed
    1  analysis completed, a violation or failure mode was found, and
       --fail-on-violation was passed
    2  input or parse error
    3  internal invariant failure

The tool reports; it does not gate.  Nothing is refused because a verdict
is adverse -- an adverse verdict is simply reported, and only the explicit
--fail-on-violation flag turns it into a nonzero exit.

Reports go to stdout, diagnostics to stderr.  Output for equal inputs is
byte-identical across runs.  ``CAPKIT_COLOR`` (auto, always, never)
controls ANSI color in human-format output; structured output is never
colored.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    CapkitError,
    DeltaError,
    DocumentError,
    IncompleteRecordError,
    InternalInvariantError,
    SchemaError,
    TraceError,
    ValuationError,
)
from .judgments.records import apply_interaction, first_trace_steps
from .judgments.verdict import detect_trace, judge
from .model.freedom import compute_freedom, compute_real_freedom, maximal_plans
from .rationals import format_rational
from .report import build_report, emit_human, emit_structured, input_digest
from .scenario_io import deep_validate, parse_document

_INPUT_ERRORS = (
    DocumentError,
    SchemaError,
    ValuationError,
    DeltaError,
    IncompleteRecordError,
    TraceError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _color_enabled(stream) -> bool:
    mode = os.environ.get("CAPKIT_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _load(path_str: str, *, lenient: bool = False):
    """Read and parse a document, printing its warnings; raises DocumentError."""
    path = Path(path_str)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DocumentError([f"error: {path_str}: {exc.strerror or exc}"]) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError([f"error: {path_str}: not valid UTF-8 ({exc.reason})"]) from None
    digest = input_digest(data)
    del data  # the text is all parsing needs; free the bytes before its peak
    doc, warnings = parse_document(text, lenient=lenient)
    _print_diagnostics(warnings, sys.stderr)
    return doc, warnings, digest


def _print_diagnostics(diagnostics, stream) -> None:
    for d in diagnostics:
        print(d, file=stream)


def cmd_validate(args) -> int:
    doc, warnings, _ = _load(args.file, lenient=args.lenient)
    deep = deep_validate(doc)
    _print_diagnostics(deep, sys.stderr)
    if any(getattr(d, "severity", "error") == "error" for d in deep):
        return EXIT_INPUT
    summary = f"valid: {args.file}"
    issues = len(warnings)
    if issues:
        summary += f" ({issues} warning{'s' if issues != 1 else ''})"
    print(summary)
    return EXIT_OK


def cmd_frontier(args) -> int:
    doc, _, _ = _load(args.file)
    s = doc.scenario
    if args.set == "Q":
        members = compute_freedom(s)
        annotate = None
    elif args.set == "Qstar":
        members = compute_real_freedom(s)
        annotate = ("r", s.r)
    else:
        members = maximal_plans(s)
        annotate = ("v", s.v)
    for fv in members:  # already id-sorted and value-deduplicated
        values = ", ".join(str(format_rational(x)) for x in fv.values)
        line = f"{fv.id} values=[{values}]"
        if annotate is not None:
            label, vmap = annotate
            image = ", ".join(str(format_rational(x)) for x in vmap.apply(fv))
            line += f" {label}=[{image}]"
        print(line)
    return EXIT_OK


def _judged_pair(doc, rec, step_of):
    """The base scenario and ``rec`` applied to it.  A record that applies
    only inside a trace is judged on the before/after pair of its first step
    there (traces in id order), the pair that validate checked; ``step_of``
    is ``first_trace_steps`` over the document."""
    try:
        return doc.scenario, apply_interaction(doc.scenario, rec)
    except DeltaError:
        step = step_of(rec.id)
        if step is None:
            raise
        return step.before, step.after


def cmd_judge(args) -> int:
    doc, _, digest = _load(args.file)
    records = doc.interactions if args.interaction is None else [doc.interaction(args.interaction)]
    step_of = first_trace_steps(doc.scenario, doc.records_by_id(), doc.traces)
    verdicts = [
        judge(*_judged_pair(doc, rec, step_of), rec, require_change=not args.strict_formula)
        for rec in records
    ]
    return _emit(args, digest, verdicts)


def cmd_detect(args) -> int:
    doc, _, digest = _load(args.file)
    traces = doc.traces if args.trace is None else [doc.trace(args.trace)]
    records = doc.records_by_id()
    verdicts = [detect_trace(doc.scenario, records, trace) for trace in traces]
    return _emit(args, digest, verdicts)


def _emit(args, digest: str, verdicts) -> int:
    """Write the verdicts' report in the requested format and pick the exit code."""
    report = build_report(args.command, digest, verdicts)
    if args.format == "human":
        sys.stdout.write(emit_human(report, color=_color_enabled(sys.stdout)))
    else:
        sys.stdout.write(emit_structured(report))
    if args.fail_on_violation and any(v.has_violation for v in verdicts):
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capkit",
        description="Evaluate capability scenarios: freedom sets, interaction "
        "verdicts, and failure-mode detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a document")
    p_validate.add_argument("file")
    p_validate.add_argument(
        "--lenient",
        action="store_true",
        help="downgrade unknown-field errors to warnings",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_frontier = sub.add_parser("frontier", help="print a computed functioning set")
    p_frontier.add_argument("file")
    p_frontier.add_argument(
        "--set",
        choices=["Q", "Qstar", "M"],
        required=True,
        help="freedom set, real-freedom set, or v-maximal set",
    )
    p_frontier.set_defaults(func=cmd_frontier)

    p_judge = sub.add_parser("judge", help="evaluate interaction records")
    p_judge.add_argument("file")
    p_judge.add_argument("--interaction", help="judge only this record id")
    p_judge.add_argument(
        "--format", choices=["structured", "human"], default="structured"
    )
    p_judge.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 when any violation or failure mode is found",
    )
    p_judge.add_argument(
        "--strict-formula",
        action="store_true",
        help="evaluate raw improvement formulas without the set-change guard",
    )
    p_judge.set_defaults(func=cmd_judge)

    p_detect = sub.add_parser("detect", help="evaluate traces for failure modes")
    p_detect.add_argument("file")
    p_detect.add_argument("--trace", help="evaluate only this trace id")
    p_detect.add_argument(
        "--format", choices=["structured", "human"], default="structured"
    )
    p_detect.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 when any failure mode is found",
    )
    p_detect.set_defaults(func=cmd_detect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A parsed document is ~10^5 long-lived acyclic containers, which every
    # full collection walks again: pause the collector for the command.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except DocumentError as exc:
        _print_diagnostics(exc.diagnostics, sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CapkitError as exc:  # defensive: unclassified package error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 -- exit-code contract demands 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
