"""detlint driver: file collection, pragmas, allowlist, rule dispatch.

The engine is deliberately free of repo-specific knowledge beyond *path
roles* (which invariant applies where).  Rules declare what they enforce via
:class:`~repro.analysis.rules.Rule`; this module owns everything around a
rule run:

* **File collection** -- directories are walked in sorted order (the linter
  obeys its own determinism contract) and ``detlint_fixtures`` corpora are
  skipped unless a fixture file is named explicitly.
* **Roles** -- a file's path decides which rules apply (``src/repro`` is a
  simulated path, ``repro/cloud`` hosts injector gates, the campaign /
  planner / replaycore / serving.server modules compute fingerprints).  A
  fixture can opt into a role with a ``# detlint: treat-as <path>``
  directive in its first lines.
* **Pragmas** -- an ``allow[DET001,DET007] reason`` comment (prefixed with
  the linter's name and a colon) on the finding's line, or the line directly
  above, suppresses those rules there.  A pragma with no reason, or naming
  an unknown rule id, is itself a finding (``DET000``): suppressions must be
  auditable.
* **Allowlist** -- the curated table in :mod:`repro.analysis.allowlist`
  retires the handful of repo-wide legitimate exceptions (with written
  rationale) without sprinkling pragmas over stable modules.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "FileRoles",
    "LintConfig",
    "LintContext",
    "LintResult",
    "collect_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

META_RULE = "DET000"

_PRAGMA_RE = re.compile(r"#\s*detlint:\s*allow\[([^\]]*)\]\s*(.*)$")
_TREAT_AS_RE = re.compile(r"#\s*detlint:\s*treat-as\s+(\S+)")
_RULE_ID_RE = re.compile(r"^DET\d{3}$")

#: directory names never descended into when walking a directory argument.
#: ``detlint_fixtures`` holds deliberately-firing corpus files for the
#: linter's own tests; they are linted only when named explicitly.
EXCLUDED_DIR_PARTS = frozenset(
    {"__pycache__", ".git", ".pytest_cache", "detlint_fixtures", ".venv"}
)

#: modules (path suffixes) and whole packages (trailing ``/``) that build
#: hashed reports -- DET004's scope.
FINGERPRINT_SUFFIXES = (
    "repro/experiments/campaign.py",
    "repro/serving/replaycore.py",
    "repro/serving/server.py",
    "repro/concurrency/",
    "repro/planner/",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass(frozen=True)
class FileRoles:
    """Which invariant classes apply to a file (derived from its path)."""

    in_repro: bool = False
    fingerprint: bool = False
    cloud_service: bool = False

    @staticmethod
    def from_path(path: str) -> "FileRoles":
        p = path.replace(os.sep, "/")
        anchored = "/" + p
        in_repro = "/src/repro/" in anchored or p.startswith("repro/")
        fingerprint = in_repro and any(
            suffix in p if suffix.endswith("/") else p.endswith(suffix)
            for suffix in FINGERPRINT_SUFFIXES
        )
        cloud = in_repro and "repro/cloud/" in p
        return FileRoles(in_repro=in_repro, fingerprint=fingerprint, cloud_service=cloud)


@dataclass(frozen=True)
class LintConfig:
    """Immutable run configuration (CLI flags map 1:1 onto fields)."""

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    use_allowlist: bool = True
    use_pragmas: bool = True

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


@dataclass
class _Pragma:
    line: int
    rules: Tuple[str, ...]
    reason: str


class _AliasMap:
    """Resolve ``Name``/``Attribute`` chains to canonical dotted paths.

    ``import numpy as np`` makes ``np.random.rand`` resolve to
    ``numpy.random.rand``; ``from time import perf_counter as pc`` makes a
    bare ``pc`` resolve to ``time.perf_counter``.  Relative imports are
    intentionally unresolved (repo-internal modules are never lint targets
    by canonical name).
    """

    def __init__(self, tree: ast.AST) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        self.names[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.names[bound] = f"{node.module}.{alias.name}"

    def resolve(self, expr: ast.AST) -> Optional[str]:
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.names.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    path: str
    effective_path: str
    roles: FileRoles
    tree: ast.AST
    lines: Sequence[str]
    aliases: _AliasMap
    parents: Mapping[ast.AST, ast.AST]

    def resolve(self, expr: ast.AST) -> Optional[str]:
        return self.aliases.resolve(expr)

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)


@dataclass
class LintResult:
    """Aggregated outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    allowlisted: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "suppressed_count": len(self.suppressed),
            "allowlisted_count": len(self.allowlisted),
        }


def _parse_pragmas(path: str, lines: Sequence[str]) -> Tuple[List[_Pragma], List[Finding]]:
    """Extract suppression pragmas; malformed pragmas become DET000 findings."""
    from .rules import ALL_RULE_IDS

    pragmas: List[_Pragma] = []
    meta: List[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
        reason = match.group(2).strip()
        bad = [rid for rid in ids if not _RULE_ID_RE.match(rid) or rid not in ALL_RULE_IDS]
        if not ids or bad:
            meta.append(
                Finding(
                    rule=META_RULE,
                    path=path,
                    line=lineno,
                    col=match.start(),
                    message=(
                        f"pragma names unknown rule id(s) {', '.join(bad)}"
                        if bad
                        else "pragma must name at least one rule id, e.g. allow[DET001]"
                    ),
                    symbol="pragma",
                )
            )
            continue
        if not reason:
            meta.append(
                Finding(
                    rule=META_RULE,
                    path=path,
                    line=lineno,
                    col=match.start(),
                    message="suppression pragma requires a written reason after the bracket",
                    symbol="pragma",
                )
            )
            continue
        pragmas.append(_Pragma(line=lineno, rules=ids, reason=reason))
    return pragmas, meta


def _treat_as(lines: Sequence[str]) -> Optional[str]:
    for text in lines[:10]:
        match = _TREAT_AS_RE.search(text)
        if match:
            return match.group(1)
    return None


def _build_parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def lint_source(source: str, path: str, config: LintConfig = LintConfig()) -> LintResult:
    """Lint one in-memory source text (the API the fixture tests drive)."""
    from .allowlist import allowlisted
    from .rules import ALL_RULES

    result = LintResult(files_checked=1)
    display = path.replace(os.sep, "/")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                rule=META_RULE,
                path=display,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
                symbol="syntax",
            )
        )
        return result

    pragmas, meta_findings = _parse_pragmas(display, lines)
    if not config.use_pragmas:
        pragmas = []
    effective = _treat_as(lines) or display
    ctx = LintContext(
        path=display,
        effective_path=effective,
        roles=FileRoles.from_path(effective),
        tree=tree,
        lines=lines,
        aliases=_AliasMap(tree),
        parents=_build_parents(tree),
    )

    raw: List[Finding] = list(meta_findings)
    for rule_cls in ALL_RULES:
        if not config.rule_enabled(rule_cls.id):
            continue
        rule = rule_cls()
        if not rule.applies(ctx):
            continue
        raw.extend(rule.check(ctx))

    suppress_map: Dict[int, Tuple[str, ...]] = {}
    for pragma in pragmas:
        for covered in (pragma.line, pragma.line + 1):
            existing = suppress_map.get(covered, ())
            suppress_map[covered] = existing + pragma.rules

    for finding in sorted(raw, key=lambda f: (f.line, f.col, f.rule)):
        if finding.rule != META_RULE and finding.rule in suppress_map.get(finding.line, ()):
            result.suppressed.append(finding)
        elif config.use_allowlist and allowlisted(finding):
            result.allowlisted.append(finding)
        else:
            result.findings.append(finding)
    return result


def lint_file(path: str, config: LintConfig = LintConfig()) -> LintResult:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    display = os.path.relpath(path) if os.path.isabs(path) else path
    return lint_source(source, display, config)


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand path arguments into a sorted, de-duplicated .py file list."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d not in EXCLUDED_DIR_PARTS and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    seen = set()
    unique: List[str] = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def lint_paths(paths: Iterable[str], config: LintConfig = LintConfig()) -> LintResult:
    """Lint every .py file under ``paths``; the CLI's and meta-test's entry."""
    total = LintResult()
    for path in collect_files(paths):
        single = lint_file(path, config)
        total.findings.extend(single.findings)
        total.suppressed.extend(single.suppressed)
        total.allowlisted.extend(single.allowlisted)
        total.files_checked += 1
    total.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return total
