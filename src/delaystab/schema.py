"""The JSON-schema vocabulary of config dicts, and the one check every builder from a dict runs.

A kernel, a network or a preset's params is described once, by a schema
in the module that builds from it; the CLI's schemas embed those.  JSON
types are read strictly: an "integer" is integral and no bool (2.0 is
no count, ``np.int64(2)`` is), a "number" is real, no bool and no NaN
(which no minimum or maximum catches), and an "array" is a list or a
tuple.  ``NUM`` is a number a float holds finitely, so NaN, inf and
10**400 fail.
"""

from __future__ import annotations

import numbers
import sys

import jsonschema

__all__ = ["Validator", "NUM", "POS", "NONNEG", "PAIR", "SEED", "integer", "obj", "tagged", "check"]

Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
        "number": lambda _, v: isinstance(v, numbers.Real) and not isinstance(v, bool) and v == v,
        "array": lambda _, v: isinstance(v, (list, tuple)),
    }),
)

NUM = {"type": "number", "minimum": -sys.float_info.max, "maximum": sys.float_info.max}
POS = {**NUM, "exclusiveMinimum": 0}
NONNEG = {**NUM, "minimum": 0}
PAIR = {"type": "array", "items": NUM, "minItems": 2, "maxItems": 2}  # a complex number [re, im]
SEED = {"type": "integer", "minimum": 0}  # a random seed, which numpy takes at any size


def integer(lo: int) -> dict:
    """An integer >= ``lo`` that a float holds, so that 10**400 fails as a count too."""
    return {"type": "integer", "minimum": lo, "maximum": sys.float_info.max}


def obj(optional=(), **props) -> dict:
    """An object with the fields ``props`` only; all are required but those in ``optional`` (True: none)."""
    required = [] if optional is True else [k for k in props if k not in optional]
    return {"type": "object", "properties": props, "required": required, "additionalProperties": False}


def tagged(key: str, variants: dict) -> dict:
    """An object whose field ``key`` names one of ``variants``, and whose other fields that variant's schema checks."""
    return {
        "type": "object",
        "required": [key],
        "properties": {key: {"enum": sorted(variants)}},
        "allOf": [
            {"if": {"properties": {key: {"const": k}}, "required": [key]},
             "then": {**s, "properties": {key: True, **s["properties"]}}}
            for k, s in variants.items()
        ],
    }


def check(doc, schema: dict, what: str) -> None:
    """Raise ValueError, naming ``what`` and the path of the failing field, unless ``doc`` matches ``schema``."""
    err = jsonschema.exceptions.best_match(Validator(schema).iter_errors(doc))
    if err is not None:
        raise ValueError(f"invalid {what}: {err.message} (at {'/'.join(map(str, err.path))})")
