"""The shared ``key=value`` grammar of the compact spec strings.

Every option list of a spec string has one shape: comma-separated parts,
an optional bare token, and ``key=value`` options mapped through a
``{key: (field, cast)}`` table. :func:`parse_options` reads that shape
and :func:`format_options` writes it back. Client retries, admission,
routing, the cache, the fallback tier, the scheduler and sharding are
that shape whole; retrieval (after ``ivf:``), the execution backend
(after ``mp:``), a tenant (after ``name=model:weight``) and a chaos event
(after ``kind@seconds``, its ``:``-separated options) read their option
list through it. :func:`on_off` is the cast of a switch.
:func:`format_value` is the number formatter every ``spec_string()``
uses, so a written spec parses back to the same config.

Standard library only: ``repro.core`` imports the config modules that
import this one, so it must not live there.
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

#: spec key -> (config field, cast applied to the value text).
Keys = Mapping[str, Tuple[str, Callable[[str], Any]]]


def format_value(value: Any) -> str:
    """Render one option value so that parsing the text gives it back.

    Integers are written in full (``1000000``, not ``1e+06``). A float
    keeps its short ``'g'`` form (``20.0`` -> ``20``) when that form
    parses back to the same value, and is written as its ``repr``
    otherwise. Text is written as it is.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    text = format(value, "g")
    return text if float(text) == value else repr(float(value))


def on_off(text: str) -> bool:
    """The cast of a switch: ``on`` is True and ``off`` is False."""
    if text not in ("on", "off"):
        raise ValueError(f"expected on/off, got {text!r}")
    return text == "on"


def parse_options(
    text: str,
    noun: str,
    keys: Keys,
    bare: Optional[Callable[[str], Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Keyword arguments from a ``[token,]key=value,...`` spec string.

    Whitespace around each part, key and value is dropped, and so are
    empty parts. A part without ``=`` goes to ``bare``, which returns the
    keyword arguments it sets and raises its own message for a token it
    does not know; without a handler such a part is an error. Casts run
    unwrapped, so a bad value raises the cast's own message.
    """
    kwargs: Dict[str, Any] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            if bare is None:
                raise ValueError(
                    f"bad {noun} spec item {part!r}; expected key=value"
                )
            kwargs.update(bare(part))
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(
                f"unknown {noun} spec key {key!r}; known: {sorted(keys)}"
            )
        name, cast = keys[key]
        kwargs[name] = cast(value.strip())
    return kwargs


def format_options(
    config: Any,
    keys: Keys,
    head: Optional[str] = None,
    skip_defaults: bool = False,
) -> str:
    """The spec string of ``config`` that :func:`parse_options` reads back.

    ``head`` names the field written first, as a bare token. Options
    follow in ``keys`` order; a field cast by :func:`on_off` is written
    ``on``/``off``. A None value is left out, and so is a value equal to
    the config class's default when ``skip_defaults`` is set.
    """
    default = type(config)() if skip_defaults else None
    parts = [] if head is None else [format_value(getattr(config, head))]
    for key, (name, cast) in keys.items():
        value = getattr(config, name)
        if name == head or value is None:
            continue
        if skip_defaults and value == getattr(default, name):
            continue
        if cast is on_off:
            value = "on" if value else "off"
        parts.append(f"{key}={format_value(value)}")
    return ",".join(parts)


__all__ = ["Keys", "format_options", "format_value", "on_off", "parse_options"]
