"""The package's file formats: every file it reads or writes goes through here.

CSV: any ``# key=value`` comment lines, the column row, then data rows, each
line ending with LF.  JSON: sorted keys, a 2-space indent, a final newline.
A ``file`` argument is a path, opened and closed here, or an open text file.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from typing import IO, Iterable, Mapping, Sequence

from .errors import ValidationError


def opened(file: str | os.PathLike | IO[str], mode: str = "r"):
    """A context giving ``file`` opened without newline translation if it is
    a path, else ``file`` itself, left open."""
    if isinstance(file, (str, bytes, os.PathLike)):
        return open(file, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(file)


def write_comments(handle: IO[str], comments: Mapping[str, object]) -> None:
    handle.writelines(f"# {key}={value}\n" for key, value in comments.items())


def write_csv(columns: Sequence[str], rows: Iterable[Sequence], file) -> None:
    with opened(file, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


@contextlib.contextmanager
def _reading(file):
    """``opened(file)``, with text that is not UTF-8 a ValidationError naming
    the file."""
    try:
        with opened(file) as handle:
            yield handle
    except UnicodeDecodeError as err:
        name = getattr(file, "name", file)
        raise ValidationError(f"{name}: not UTF-8 text ({err.reason})") from None


def read_csv(file) -> list[list[str]]:
    """Every non-empty row, comment lines skipped; CRLF lines read as LF."""
    with _reading(file) as handle:
        lines = (line for line in handle if not line.startswith("#"))
        return [row for row in csv.reader(lines) if row]


def json_text(document) -> str:
    """Canonical JSON text, without the final newline a file adds."""
    return json.dumps(document, indent=2, sort_keys=True)


def write_json(document, file) -> None:
    with opened(file, "w") as handle:
        handle.write(json_text(document) + "\n")


def parse_json(text: str | bytes, name: str):
    """``json.loads(text)``, with an integer past Python's digit limit for
    string conversion, or nesting past the interpreter's recursion limit, a
    ValidationError naming ``name``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except RecursionError as err:
        raise ValidationError(f"{name}: nested too deeply to read ({err})") from None
    except ValueError as err:  # int() refuses a string of too many digits
        reason = str(err).partition(";")[0]
        raise ValidationError(f"{name}: an integer is too long to read ({reason})") from None


def read_json(path: str):
    try:
        with _reading(path) as handle:
            return parse_json(handle.read(), path)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: not valid JSON: {err.msg} (line {err.lineno})") from None
