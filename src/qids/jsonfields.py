"""Strict typed readers for the fields of parsed JSON objects.

System, machine and report files are read through these, so that a field
of the wrong JSON type ends as an InputError naming the field instead of
a Python exception from a conversion, or a silent misparse such as a
string read as a list of its characters.
"""

from __future__ import annotations

from .errors import InputError

_REQUIRED = object()

_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "an object"}


def _is_kind(value, kind: type) -> bool:
    """JSON typing: a bool is not a number, and an integer is also a number."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def read_field(data: dict, key: str, kind: type, owner: str, default=_REQUIRED,
               optional: bool = False):
    """`data[key]` checked to be a `kind`, or `default` when the key is absent.

    Without a default the key is required. With `optional`, null is read as
    None. A float field reads an integer as a float.
    """
    if key not in data:
        if default is _REQUIRED:
            raise InputError(f"{owner} field {key!r} is missing")
        return default
    value = data[key]
    if value is None and optional:
        return None
    if not _is_kind(value, kind):
        null = " or null" if optional else ""
        raise InputError(f"{owner} field {key!r} must be {_KIND_NAMES[kind]}{null}, "
                         f"got {value!r}")
    return float(value) if kind is float else value


def read_list_of(data: dict, key: str, kind: type, owner: str, optional: bool = False):
    """`data[key]` as a tuple whose items are each a `kind` (None when null and `optional`)."""
    values = read_field(data, key, list, owner, optional=optional)
    if values is None:
        return None
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
