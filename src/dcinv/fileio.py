"""Plain-text data files and the row reader of every dcinv text file,
key-value config files, JSON manifests, and the one rule for a JSON object
that names a configuration."""

from __future__ import annotations

import configparser
import json
import math
import re
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ParseError
from .survey import Survey, survey_from_rows

DATA_HEADER = "# dcinv data v1"


def save_data(path, survey: Survey, values: np.ndarray, std: np.ndarray) -> None:
    """One datum per line: ``Ax Bx Mx Nx value std``."""
    values = np.asarray(values, dtype=float)
    std = np.asarray(std, dtype=float)
    if values.size != survey.n_data or std.size != survey.n_data:
        raise ValueError("values/std length must match the survey datum count")
    with open(path, "w") as f:
        f.write(f"{DATA_HEADER} n_data={survey.n_data}\n")
        for (a, b, m, n), value, s in zip(survey.electrodes[survey.abmn], values, std):
            f.write(f"{a:.10g} {b:.10g} {m:.10g} {n:.10g} {float(value)!r} {float(s)!r}\n")


def read_rows(path, width: int | None = None):
    """Returns (header, rows) of a plain-text file.  Blank lines are skipped;
    ``header`` maps each ``key=value`` token of a ``#`` line to its (line
    number, value), a later line overriding an earlier one.  Every other line
    is one (line number, floats) row of ``width`` values when given.  A key
    with no value, a wrong value count, a non-numeric token or a non-finite
    value raises :class:`ParseError` naming the line; so do bytes that are
    not UTF-8, which become U+FFFD."""
    header, rows = {}, []
    with open(path, encoding="utf-8", errors="replace") as f:
        for ln, line in enumerate(f, start=1):
            tok = line.split()
            if not tok:
                continue
            if tok[0].startswith("#"):
                for key, _, value in (t.partition("=") for t in tok if "=" in t):
                    if not value:
                        raise ParseError(f"'{key}=' has no value", ln, path)
                    header[key] = (ln, value)
                continue
            if width is not None and len(tok) != width:
                raise ParseError(f"expected {width} values, got {len(tok)}", ln, path)
            try:
                row = [float(t) for t in tok]
            except ValueError:
                raise ParseError("non-numeric value", ln, path) from None
            if not np.isfinite(row).all():
                raise ParseError("non-finite value", ln, path)
            rows.append((ln, row))
    return header, rows


def load_data(path):
    """Returns (survey, values, std) parsed from a data file."""
    header, rows = read_rows(path, width=6)
    if not rows:
        raise ParseError("no data rows", 1, path)
    ln, n_data = header.get("n_data", (1, str(len(rows))))
    if n_data != str(len(rows)):
        raise ParseError(f"n_data={n_data} but the file has {len(rows)} data rows", ln, path)
    for ln, (ax, bx, mx, nx, _, std) in rows:
        if ax == bx:
            raise ParseError("source electrodes A and B at one position", ln, path)
        if mx == nx:
            raise ParseError("receiver electrodes M and N at one position", ln, path)
        if std < 0:
            raise ParseError("negative std", ln, path)
    table = np.array([row for _, row in rows])
    # contiguous columns: a strided vector can take another BLAS kernel, with other rounding
    return survey_from_rows(table[:, :4]), table[:, 4].copy(), table[:, 5].copy()


def load_config(path) -> dict[str, dict[str, str]]:
    """Flat key-value config with one section per module; a file that does
    not parse raises :class:`ParseError` naming the offending line.  A ``;``
    after whitespace starts a comment, also after a value.  A non-empty
    ``[DEFAULT]`` is returned as a section of its own, whose keys configparser
    also copies into every other section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    with open(path) as f:
        text = f.read()
    try:
        parser.read_string(text, source=str(path))
        sections = {section: dict(parser[section]) for section in parser.sections()}
        if parser.defaults():
            sections[configparser.DEFAULTSECT] = dict(parser.defaults())
        return sections
    except configparser.DuplicateOptionError as e:
        raise ParseError(f"duplicate key {e.option!r} in [{e.section}]", e.lineno, path) from None
    except configparser.DuplicateSectionError as e:
        raise ParseError(f"duplicate section [{e.section}]", e.lineno, path) from None
    except configparser.MissingSectionHeaderError as e:
        raise ParseError("a key above the first [section]", e.lineno, path) from None
    except configparser.ParsingError as e:
        raise ParseError("expected 'key = value'", e.errors[0][0], path) from None
    except configparser.InterpolationError as e:
        # Values are interpolated when read out, after parsing dropped the line numbers.
        raise ParseError(e.message.splitlines()[0],
                         _key_line(text, e.section, e.option), path) from None


def _key_line(text: str, section: str, key: str) -> int:
    """Line number of ``key`` in ``[section]``, else in ``[DEFAULT]``, else 1."""
    current, found = None, {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line.startswith("["):
            current = line[1:line.find("]")]
        elif re.split("[=:]", line, maxsplit=1)[0].strip().lower() == key:
            found.setdefault(current, ln)
    return found.get(section) or found.get(configparser.DEFAULTSECT) or 1


def save_manifest(path, manifest: dict) -> None:
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def from_fields(cls, entry, path: str = ""):
    """The dataclass ``cls`` built from the JSON value ``entry``, an object
    that names every field and nothing else, each value of its field's type:
    ``bool`` takes only true or false, ``int`` only an integer (not ``2.0``),
    ``float`` any finite number, ``str`` only a string, null only a field
    that allows None; a tuple comes as a list and a nested dataclass as an
    object, built the same way.  A field's ``metadata["json"]`` is the type
    of its JSON form when that is not its own (the constructor converts).
    Anything else, or a value ``cls`` rejects, raises :class:`ValueError`
    naming its path (``config.gn.cg_maxiter``), so stored runs replay only
    as they were written."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path} must be an object, got {_describe(entry)}")
    members = fields(cls)
    names = [f.name for f in members]
    if missing := [name for name in names if name not in entry]:
        raise ValueError("lacks " + ", ".join(_join(path, name) for name in missing))
    if unknown := [key for key in entry if key not in names]:
        raise ValueError("unknown key " + ", ".join(_join(path, key) for key in unknown))
    hints = get_type_hints(cls)
    values = {f.name: _fit(f.metadata.get("json", hints[f.name]), entry[f.name],
                           _join(path, f.name)) for f in members}
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _fit(kind, value, path: str):
    """``value`` as the annotation ``kind`` reads it (see :func:`from_fields`)."""
    options = get_args(kind)
    if get_origin(kind) is UnionType:
        if value is None and type(None) in options:
            return None
        (kind,) = [option for option in options if option is not type(None)]
        return _fit(kind, value, path)
    if is_dataclass(kind):
        return from_fields(kind, value, path)
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {_describe(value)}")
        kinds = [options[0]] * len(value) if options[-1] is Ellipsis else options
        if len(value) != len(kinds):
            raise ValueError(f"{path} must hold {len(kinds)} values, got {len(value)}")
        return tuple(_fit(k, v, f"{path}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if kind is float:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
        raise ValueError(f"{path} must be a finite number, got {_describe(value)}")
    if type(value) is not kind:
        raise ValueError(f"{path} must be {_KINDS[kind]}, got {_describe(value)}")
    return value


_KINDS = {bool: "true or false", int: "an integer", str: "a string"}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _describe(value) -> str:
    """A JSON value for a message: scalars as written, containers by kind."""
    if isinstance(value, (list, dict)):
        return "a list" if isinstance(value, list) else "an object"
    return json.dumps(value)


def load_manifest(path) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"malformed JSON: {e.msg}", e.lineno, path) from None
