"""Docstring audit: every public module documents itself and its invariants.

The repo's documentation layer (``docs/``) maps the architecture; the
modules themselves must carry the contract.  This test enforces three
levels:

* every public module under ``repro`` has a substantive module
  docstring (the ``pydocstyle D100``-shaped check, without the dep);
* the subsystem packages whose correctness arguments live in prose —
  ``repro.adversary``, ``repro.recovery``, ``repro.api`` — state the
  invariants their code maintains, pinned by key phrases so a refactor
  that silently drops the contract fails here;
* every markdown file the source text cites (``README.md``,
  ``docs/recovery.md``) exists in the tree.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

SRC_ROOT = Path(repro.__file__).parent


def public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")[1:]):
            continue
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("name", public_modules())
def test_every_public_module_has_a_module_docstring(name):
    module = importlib.import_module(name)
    doc = module.__doc__
    assert doc and doc.strip(), f"{name} has no module docstring"
    assert len(doc.strip()) >= 60, (
        f"{name}'s module docstring is too thin to document the module "
        f"({len(doc.strip())} chars)"
    )


INVARIANT_PHRASES = {
    "repro.adversary": [
        "no fork",
        "balance conservation",
        "at-most-once",
        "quorum",  # authenticated elections: certificate quorum
    ],
    "repro.recovery": [
        "slots 1..seq",  # checkpoint digest covers exactly the applied prefix
        "f + 1",  # matching responses before trusting transferred state
    ],
    "repro.api": [
        "registry",
        "faults",
    ],
    "repro.consensus.view_change": [
        "certificate",
        "2f + 1",
    ],
    "repro.core.guard": [
        "at-most-once",
        "ownership",
        "InertGuard",  # the faultless-path contract: an unarmed replica admits all
    ],
}


@pytest.mark.parametrize("name", sorted(INVARIANT_PHRASES))
def test_subsystem_docstrings_state_their_invariants(name):
    doc = importlib.import_module(name).__doc__ or ""
    missing = [
        phrase for phrase in INVARIANT_PHRASES[name] if phrase not in doc
    ]
    assert not missing, f"{name} docstring no longer states: {missing}"


def test_recovery_checkpoint_states_the_digest_invariant():
    doc = importlib.import_module("repro.recovery.checkpoint").__doc__ or ""
    assert "1..seq" in doc or "slots 1" in doc, (
        "repro.recovery.checkpoint must document that the state digest "
        "covers exactly the applied prefix (slots 1..seq)"
    )


#: a markdown file cited in source text: ``README.md``, ``docs/recovery.md``.
MARKDOWN_REFERENCE = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")


def test_source_text_cites_only_markdown_files_that_exist():
    """Docstrings and doc comments must not point at pages that are not in the tree."""
    repo_root = SRC_ROOT.parent.parent
    dangling = sorted(
        f"{path.relative_to(repo_root)}: {reference}"
        for path in SRC_ROOT.rglob("*.py")
        for reference in MARKDOWN_REFERENCE.findall(path.read_text(encoding="utf-8"))
        if not (repo_root / reference).is_file()
    )
    assert not dangling, f"references to markdown files that do not exist: {dangling}"
