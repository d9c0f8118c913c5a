"""The one reader of JSON objects people write or the program saved: configs, bias specs and checkpoints.

An input is checked before anything reads it: it must be a JSON object that
carries every field it needs and, where it becomes a dataclass, no field the
dataclass lacks and no value of the wrong JSON type. Each error names where
the input went wrong.
"""

from dataclasses import MISSING, fields, is_dataclass

# the JSON values a field annotated with each type takes: JSON true and false are not numbers
JSON_TYPES = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def require(payload, names, where, error):
    """The values of fields `names` of the JSON object `payload`, or `error` naming `where` and the problem."""
    if not isinstance(payload, dict):
        raise error(f"{where} must be a JSON object, got {type(payload).__name__}")
    for name in names:
        if name not in payload:
            raise error(f"{where} is missing field {name!r}")
    return tuple(payload[name] for name in names)


def check_type(value, kind, where, error):
    """`value` once it holds the JSON type of a field annotated `kind`, or `error` naming `where`."""
    accepted, described = JSON_TYPES[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise error(f"{where} must be {described}, got {value!r}")
    return value


def from_fields(cls, payload, where, error):
    """`cls(**payload)` for a dataclass `cls`, once `payload` holds its fields without a default and no other.

    A field annotated `bool`, `int`, `float` or `str` must hold that JSON type;
    a field whose type is a dataclass is read the same way, at `where.<field>`.
    """
    known = {f.name: f for f in fields(cls)}
    required = [name for name, f in known.items() if f.default is MISSING and f.default_factory is MISSING]
    require(payload, required, where, error)
    for name, value in payload.items():
        if name not in known:
            raise error(f"{where} has unknown field {name!r}")
        if known[name].type in JSON_TYPES:
            check_type(value, known[name].type, f"{where}.{name}", error)
    nested = {
        name: from_fields(known[name].type, value, f"{where}.{name}", error)
        for name, value in payload.items()
        if is_dataclass(known[name].type)
    }
    return cls(**{**payload, **nested})
