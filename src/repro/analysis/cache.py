"""The persisted, content-hashed facts cache behind incremental runs.

The cache is one JSON file::

    {
      "schema": 2,
      "signature": "<sha1 over the analysis package's own sources>",
      "modules": {
        "<rel>": {
          "hash": "<sha1 of the module source>",
          "pkg": "...", "path": "...",
          "facts": { ... Module.facts() ... },
          "findings": [ ... module-scope findings ... ],
          "suppressed": [ ... suppressed module-scope findings ... ]
        }, ...
      }
    }

A warm run looks up each discovered file by content hash: a hit rebuilds
the :class:`~repro.analysis.index.Module` from cached facts (no
``ast.parse``) and reuses its cached module-scope findings verbatim.
Program-scope rules (the T/P/R families) always re-run — they are cheap
over facts and their results depend on *other* modules, which is exactly
what a per-module cache cannot know.

Two hard validity guards:

* the **signature** hashes every source file of ``repro.analysis`` itself,
  so changing a rule or the facts extractor invalidates everything;
* the cache is only consulted / written for **all-rules** runs — findings
  cached under ``--rules D1`` would silently miss every other rule.

``--changed-since REV`` is advisory UX on top: the content hashes remain
the authority for what re-parses, the git diff merely names the region the
CLI reports (and lets CI log the dirty SCC set).
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from pathlib import Path

__all__ = ["AnalysisCache", "analysis_signature", "changed_files_since"]

CACHE_SCHEMA = 2


def analysis_signature() -> str:
    """sha1 over the analysis package's own sources (rule-config identity)."""
    package_dir = Path(__file__).resolve().parent
    digest = hashlib.sha1()
    digest.update(f"schema={CACHE_SCHEMA}".encode())
    for path in sorted(package_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(package_dir).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class AnalysisCache:
    """Load-modify-store wrapper around the cache file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.signature = analysis_signature()
        self.modules: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        self.valid = False
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
            return
        if data.get("signature") != self.signature:
            return  # the analyzer itself changed: every cached fact is suspect
        modules = data.get("modules")
        if isinstance(modules, dict):
            self.modules = modules
            self.valid = True

    # -- the ModuleIndex hook -------------------------------------------------

    def lookup(self, rel: str, content_hash: str) -> dict | None:
        entry = self.modules.get(rel)
        if entry is not None and entry.get("hash") == content_hash:
            self.hits += 1
            return entry.get("facts")
        self.misses += 1
        return None

    # -- cached per-module findings -------------------------------------------

    def findings_for(self, rel: str, content_hash: str) -> dict | None:
        entry = self.modules.get(rel)
        if entry is not None and entry.get("hash") == content_hash:
            return {
                "findings": entry.get("findings", []),
                "suppressed": entry.get("suppressed", []),
            }
        return None

    def store(self, module, findings: list[dict], suppressed: list[dict]) -> None:
        self.modules[module.rel] = {
            "hash": module.content_hash,
            "pkg": module.pkg,
            "path": str(module.path),
            "facts": module.facts(),
            "findings": findings,
            "suppressed": suppressed,
        }

    def write(self) -> None:
        payload = {
            "schema": CACHE_SCHEMA,
            "signature": self.signature,
            "modules": {rel: self.modules[rel] for rel in sorted(self.modules)},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def changed_files_since(rev: str, repo_root: Path | str = ".") -> list[str] | None:
    """``git diff --name-only REV`` as repo-relative paths; None if git fails."""
    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", rev, "--", "*.py"],
            cwd=str(repo_root), capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return sorted(line.strip() for line in proc.stdout.splitlines() if line.strip())
