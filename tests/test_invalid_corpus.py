"""Every document under fixtures/invalid is rejected with a located diagnostic.

The corpus files are static; manifest.json records, for each file, a path
fragment and a message fragment that must both appear in the validator's
stderr.  This pins not just *that* bad input is rejected but that the
diagnostic points at the offending part of the document.  The golden
``invalid.diagnostics.json`` pins more: every diagnostic of every corpus
file, in order, and of the ``unknown_*`` files also under ``--lenient``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import capkit.cli as cli
from capkit.errors import DocumentError
from capkit.scenario_io import deep_validate, parse_document
from test_fixtures import check_golden

INVALID = Path(__file__).parent / "fixtures" / "invalid"
MANIFEST = json.loads((INVALID / "manifest.json").read_text())
CASES = sorted(MANIFEST.items())


class TestCorpus:
    @pytest.mark.parametrize("name,expected", CASES, ids=[n for n, _ in CASES])
    def test_rejected_with_located_diagnostic(self, name, expected, capsys):
        code = cli.main(["validate", str(INVALID / name)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # no success output on failure
        assert expected["path"] in captured.err
        assert expected["message"] in captured.err

    def test_corpus_is_large_enough(self):
        assert len(MANIFEST) >= 30

    def test_manifest_covers_every_corpus_file(self):
        files = {p.name for p in INVALID.glob("*.json")} - {"manifest.json"}
        assert files == set(MANIFEST)


def _diagnostics(path: Path, lenient: bool = False) -> list[str]:
    """Every diagnostic of ``path``, in order: parse_document's, and those of
    deep_validate for a document that parses."""
    try:
        doc, warnings = parse_document(path.read_text(encoding="utf-8"), lenient=lenient)
    except DocumentError as exc:
        return [str(d) for d in exc.diagnostics]
    return [str(d) for d in warnings + deep_validate(doc)]


def test_every_diagnostic_matches_golden():
    runs = {}
    for name in sorted(MANIFEST):
        runs[name] = _diagnostics(INVALID / name)
        if name.startswith("unknown_"):
            runs[f"{name} --lenient"] = _diagnostics(INVALID / name, lenient=True)
    check_golden("invalid.diagnostics.json", json.dumps(runs, indent=1, ensure_ascii=False) + "\n")
