"""Field roles for the configuration dataclasses a fuzzing job hashes.

Every field of :class:`~repro.fuzz.driver.FuzzConfig` and the configs it
nests is declared :func:`semantic` (it can change a job's mutants,
verdicts, findings or ``deterministic()`` metrics) or :func:`operational`
(it only changes where output lands or which engine runs).  What
``jobs_fingerprint`` hashes and what ``RefinementConfig.cache_key``
covers are derived from the tags, so a result-changing field cannot fall
out of either; ``tests/test_config_roles.py`` fails on an untagged field.
"""

from __future__ import annotations

from dataclasses import MISSING, field, fields, is_dataclass
from functools import lru_cache
from typing import Any, Tuple

__all__ = ["OPERATIONAL", "SEMANTIC", "field_role", "operational",
           "semantic", "semantic_dict", "semantic_key"]

SEMANTIC = "semantic"
OPERATIONAL = "operational"

_ROLE = "role"


def semantic(default: Any = MISSING, *, default_factory: Any = MISSING):
    """A dataclass field whose value can change a job's results."""
    return field(default=default, default_factory=default_factory,
                 metadata={_ROLE: SEMANTIC})


def operational(default: Any = MISSING, *, default_factory: Any = MISSING):
    """A dataclass field that never changes a job's results."""
    return field(default=default, default_factory=default_factory,
                 metadata={_ROLE: OPERATIONAL})


def field_role(dataclass_field) -> Any:
    """:data:`SEMANTIC`, :data:`OPERATIONAL`, or None when untagged."""
    return dataclass_field.metadata.get(_ROLE)


@lru_cache(maxsize=None)
def _semantic_names(cls) -> Tuple[str, ...]:
    """The semantic field names of a config class (derived from the
    class alone, so computed once per class)."""
    names = []
    for item in fields(cls):
        role = field_role(item)
        if role is None:
            raise TypeError(f"{cls.__name__}.{item.name} has no "
                            "semantic/operational role")
        if role == SEMANTIC:
            names.append(item.name)
    return tuple(names)


def semantic_dict(config) -> dict:
    """The semantic fields of ``config`` as a dict, nested configs
    reduced the same way (the payload ``jobs_fingerprint`` hashes)."""
    payload = {}
    for name in _semantic_names(type(config)):
        value = getattr(config, name)
        payload[name] = semantic_dict(value) if is_dataclass(value) else value
    return payload


def semantic_key(config) -> tuple:
    """The semantic field values of ``config`` as a hashable tuple,
    nested configs flattened in place (``RefinementConfig.cache_key``)."""
    key = []
    for name in _semantic_names(type(config)):
        value = getattr(config, name)
        if is_dataclass(value):
            key.extend(semantic_key(value))
        elif isinstance(value, list):
            key.append(tuple(value))
        else:
            key.append(value)
    return tuple(key)
