"""Strict typed readers for the fields of parsed JSON objects, and JSON files.

System and machine files are read through these, so that a field of the
wrong JSON type ends as an InputError naming the field instead of a Python
exception from a conversion, or a silent misparse such as a string read as
a list of its characters. `load_json_file` and `save_json_file` are the one
reader and writer of system and machine files.
"""

from __future__ import annotations

import json
from typing import Callable

from .errors import InputError

_REQUIRED = object()

_KIND_NAMES = {str: "a string", int: "an integer", list: "a list"}


def _is_kind(value, kind: type) -> bool:
    """JSON typing: true and false are not integers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def read_field(data: dict, key: str, kind: type, owner: str, default=_REQUIRED):
    """`data[key]` checked to be a `kind`, or `default` when the key is absent.

    Without a default the key is required.
    """
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"{owner} field {key!r} is missing")
        return default
    value = data[key]
    if not _is_kind(value, kind):
        raise InputError(f"{owner} field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def read_list_of(data: dict, key: str, kind: type, owner: str) -> tuple:
    """`data[key]` as a tuple whose items are each a `kind`."""
    values = read_field(data, key, list, owner)
    for i, value in enumerate(values):
        if not _is_kind(value, kind):
            raise InputError(f"{owner} field {key!r}[{i}] must be {_KIND_NAMES[kind]}, "
                             f"got {value!r}")
    return tuple(values)


def check_object(data, allowed: set[str], owner: str) -> dict:
    """`data` if it is a JSON object with no field outside `allowed`."""
    if not isinstance(data, dict):
        raise InputError(f"{owner} must be a JSON object")
    unknown = set(data) - allowed
    if unknown:
        raise InputError(f"{owner} has unknown field(s): {', '.join(sorted(unknown))}")
    return data


def load_json_file(path, from_dict: Callable[[dict], object]):
    """`from_dict` of the JSON in the file at `path`; every InputError names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                             f"{exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from None
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply to read") from None
    try:
        return from_dict(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def save_json_file(data: dict, path) -> None:
    """Write `data` to `path` as two-space-indented JSON with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
