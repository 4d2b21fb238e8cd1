"""What every rule sees: one parsed file, and the finding it reports.

A :class:`FileContext` parses one source file (AST plus a comment map
from :mod:`tokenize`) and answers the path-scoping questions rules ask:
is this production library code under ``src/repro``, a test, a module of
one of the library's packages.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``line_text`` carries the stripped source line; the baseline matches on
    it (rather than on line numbers) so grandfathered findings survive
    unrelated edits that shift lines around.
    """

    path: str  # posix-style path, relative to the lint root where possible
    line: int
    col: int
    rule_id: str
    message: str
    line_text: str = field(default="", compare=False)

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "line_text": self.line_text,
        }


class FileContext:
    """Parsed view of one source file handed to every rule."""

    def __init__(self, rel_path: str, source: str):
        #: Posix-style path used in findings, scoping and baselines.
        self.rel_path = rel_path.replace("\\", "/")
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.rel_path)
        #: line number -> comment text (including the leading ``#``).
        self.comments: dict = {}
        try:
            for token in tokenize.generate_tokens(io.StringIO(source).readline):
                if token.type == tokenize.COMMENT:
                    self.comments[token.start[0]] = token.string
        except tokenize.TokenizeError:
            # ast.parse accepted the file, so the comment map is merely
            # incomplete; rules degrade to "no suppressions seen".
            pass

    @property
    def parts(self) -> tuple:
        return tuple(part for part in self.rel_path.split("/") if part)

    @property
    def is_test(self) -> bool:
        parts = self.parts
        return "tests" in parts or bool(parts) and parts[-1].startswith("test_")

    @property
    def is_production(self) -> bool:
        """Library code under ``repro`` — where strict rules apply."""
        return "repro" in self.parts and not self.is_test

    def in_package(self, *packages: str) -> bool:
        """Production code inside ``repro/<package>/`` for any of ``packages``."""
        path = f"/{self.rel_path}"
        return self.is_production and any(
            f"/repro/{package}/" in path for package in packages
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""
