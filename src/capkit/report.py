"""Deterministic report construction and rendering.

Reports exist in two formats.  The structured format is canonical JSON
(sorted keys, lowest-terms rationals, trailing newline) and is the source
of truth; the human-readable format is rendered purely from the structured
dictionary, so the two can never drift apart.  Reports carry provenance --
the digest of the input document and the engine version -- and contain
nothing run-dependent: equal inputs produce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

from . import __version__

JUDGE_FORMAT = "capkit.judge.v1"
DETECT_FORMAT = "capkit.detect.v1"
_SECTIONS = {"judge": (JUDGE_FORMAT, "verdicts"), "detect": (DETECT_FORMAT, "traces")}

_ANSI = {
    "green": "\x1b[32m",
    "red": "\x1b[31m",
    "yellow": "\x1b[33m",
    "reset": "\x1b[0m",
}

_GOOD = {"pass", "justified", "none", "not_paternalistic"}
_BAD = {"violated", "unjustified", "serious", "finding"}


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def build_report(command: str, digest: str, verdicts: Sequence) -> dict:
    """The report of ``judge`` or ``detect``: a header and each verdict's dict."""
    fmt, section = _SECTIONS[command]
    return {
        "format": fmt,
        "engine_version": __version__,
        "input_digest": digest,
        section: [v.to_dict() for v in verdicts],
    }


def emit_structured(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Human-readable rendering (from the structured dict only)
# ---------------------------------------------------------------------------


def _paint(text: str, color: Optional[str], enabled: bool) -> str:
    if not enabled or color is None:
        return text
    return f"{_ANSI[color]}{text}{_ANSI['reset']}"


def _status_color(status: str) -> Optional[str]:
    if status in _GOOD:
        return "green"
    if status in _BAD:
        return "red"
    return "yellow"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _finding_label(f: dict, color: bool) -> str:
    """A finding's kind, followed by its painted severity when it has one."""
    if not f.get("severity"):
        return f["kind"]
    sev_color = "red" if f["severity"] == "serious" else "yellow"
    return f["kind"] + " (" + _paint(f["severity"], sev_color, color) + ")"


def _paternalism_label(pat: dict, color: bool) -> str:
    """The painted paternalism status, followed by any failed clauses."""
    label = _paint(pat["status"], _status_color(pat["status"]), color)
    if pat["failed_clauses"]:
        label += " (failed clauses: " + ", ".join(pat["failed_clauses"]) + ")"
    return label


def _render_evidence(items, lines, indent="    "):
    for item in items:
        parts = []
        for key in sorted(item):
            if key == "kind":
                continue
            parts.append(f"{key}={json.dumps(item[key], sort_keys=True)}")
        detail = ", ".join(parts)
        lines.append(f"{indent}- {item.get('kind', 'note')}" + (f": {detail}" if detail else ""))


def emit_human(report: dict, *, color: bool = False) -> str:
    """Render a structured report for terminals."""
    lines: list[str] = []
    kind = report.get("format", "")
    title = "judgment report" if kind == JUDGE_FORMAT else "failure-mode report"
    lines.append(f"capkit {title} (engine {report['engine_version']})")
    lines.append(f"input {report['input_digest']}")
    lines.append("")
    render = _render_verdict if kind == JUDGE_FORMAT else _render_trace
    for item in report["verdicts" if kind == JUDGE_FORMAT else "traces"]:
        render(item, lines, color)
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def _render_verdict(verdict: dict, lines: list[str], color: bool) -> None:
    lines.append(f"interaction {verdict['interaction']}")
    for label, key in (("condition 1", "condition1"), ("condition 2", "condition2")):
        status = verdict[key]["status"]
        lines.append(
            f"  {label}: " + _paint(status, _status_color(status), color)
        )
        if status != "pass":
            _render_evidence(verdict[key]["evidence"], lines)
    ben = verdict["beneficence"]
    lines.append(
        "  beneficence: weak={} real_freedom={} life_plan={}{}".format(
            _yesno(ben["weak"]),
            _yesno(ben["real_freedom"]),
            _yesno(ben["life_plan"]),
            "  [weak only]" if ben["weak_only"] else "",
        )
    )
    assist = verdict["assistance"]
    lines.append(
        "  assistance: real_freedom={} life_plans={}".format(
            _yesno(assist["real_freedom"]), _yesno(assist["life_plans"])
        )
    )
    pat = verdict["paternalism"]
    lines.append("  paternalism: " + _paternalism_label(pat, color))
    if pat["status"] == "unjustified":
        _render_evidence(pat["evidence"], lines)
    findings = verdict["findings"]
    if not findings:
        lines.append("  failure modes: none")
    else:
        lines.append("  failure modes:")
        for f in findings:
            lines.append("    " + _finding_label(f, color))
            _render_evidence(f["evidence"], lines, indent="      ")


def _render_trace(trace: dict, lines: list[str], color: bool) -> None:
    lines.append(f"trace {trace['trace']}")
    dom = trace["domination"]
    status = dom["status"]
    lines.append("  domination: " + _paint(status, _status_color(status), color))
    _render_evidence(dom["evidence"], lines)
    for step in trace["steps"]:
        lines.append(f"  step {step['step']} (interaction {step['interaction']})")
        if not step["findings"]:
            lines.append("    findings: none")
        for f in step["findings"]:
            lines.append("    finding: " + _finding_label(f, color))
            _render_evidence(f["evidence"], lines, indent="      ")
        pat = step["paternalism"]
        if pat["status"] != "not_paternalistic":
            lines.append("    paternalism: " + _paternalism_label(pat, color))
