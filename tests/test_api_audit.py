"""Audit: every documented name is importable, and __all__ is honest.

Two guarantees:

* every ``from repro... import name`` shown in any docs/*.md guide
  resolves — the guides cannot drift from the code;
* every name in each public package's ``__all__`` actually exists on
  the package (no stale exports).
"""

import importlib
import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"

_IMPORT_RE = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(.*)$")

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.measures",
    "repro.normalize",
    "repro.structure",
    "repro.generate",
    "repro.spec",
    "repro.scheduling",
    "repro.analysis",
    "repro.batch",
    "repro.obs",
    "repro.robust",
    "repro.serve",
    "repro.shard",
]


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _documented_imports():
    """(doc, module, name) triples for every import in docs/*.md."""
    triples = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        lines = doc.read_text(encoding="utf-8").splitlines()
        i = 0
        while i < len(lines):
            match = _IMPORT_RE.match(lines[i].strip())
            if match:
                module, rest = match.group(1), _strip_comment(match.group(2))
                if rest.startswith("("):
                    rest = rest[1:]
                    while ")" not in rest:
                        i += 1
                        rest += "," + _strip_comment(lines[i])
                    rest = rest.split(")", 1)[0]
                for raw in rest.split(","):
                    name = raw.strip()
                    if name and name.isidentifier():
                        triples.append((doc.name, module, name))
            i += 1
    return sorted(set(triples))


DOCUMENTED = _documented_imports()


def test_docs_have_import_statements():
    # Guard against the regex silently matching nothing.
    assert len(DOCUMENTED) > 40
    docs_seen = {doc for doc, _, _ in DOCUMENTED}
    assert "API.md" in docs_seen
    assert "ROBUSTNESS.md" in docs_seen


@pytest.mark.parametrize(
    "doc,module,name",
    DOCUMENTED,
    ids=[f"{d}:{m}:{n}" for d, m, n in DOCUMENTED],
)
def test_documented_name_imports(doc, module, name):
    mod = importlib.import_module(module)
    assert hasattr(mod, name), f"docs/{doc} documents {module}.{name}"


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{module}.__all__ lists missing names: {missing}"


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_all_has_no_duplicates(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))


def test_obs_entry_points_at_top_level():
    import repro

    for name in ("recording", "span", "traced", "summary", "ScalingOutcome"):
        assert name in repro.__all__
        assert hasattr(repro, name)


def test_robust_entry_points_at_top_level():
    import repro

    for name in (
        "Budget",
        "FaultPlan",
        "QuarantineReport",
        "characterize_ensemble_robust",
        "repaired_matrix",
    ):
        assert name in repro.__all__
        assert hasattr(repro, name)
