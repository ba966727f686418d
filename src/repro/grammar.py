"""The shared ``key=value`` grammar of the compact spec strings.

Routing, admission, the cache, the fallback tier and client retries read
one shape of text: comma-separated parts, an optional bare token, and
``key=value`` options mapped through a ``{key: (field, cast)}`` table.
:func:`parse_options` reads that shape and :func:`format_options` writes
it back. :func:`format_value` is the number formatter every
``spec_string()`` uses, so a written spec parses back to the same config.

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


def parse_options(
    text: str,
    noun: str,
    keys: Keys,
    bare: Optional[Callable[[str], Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Keyword arguments from a ``[token,]key=value,...`` spec string.

    Empty parts are dropped. A part without ``=`` goes to ``bare``, which
    returns the keyword arguments it sets and raises its own message for
    a token it does not know; without a handler such a part is an error.
    Casts run unwrapped, so a bad value raises the cast's own message.
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
        if key not in keys:
            raise ValueError(
                f"unknown {noun} spec key {key!r}; known: {sorted(keys)}"
            )
        name, cast = keys[key]
        kwargs[name] = cast(value)
    return kwargs


def format_options(
    config: Any,
    keys: Keys,
    head: Optional[str] = None,
    skip_defaults: bool = False,
) -> str:
    """The spec string of ``config`` that :func:`parse_options` reads back.

    ``head`` names the field written first, as a bare token. Options
    follow in ``keys`` order. A None value is left out, and so is a value
    equal to the config class's default when ``skip_defaults`` is set.
    """
    default = type(config)() if skip_defaults else None
    parts = [] if head is None else [getattr(config, head)]
    for key, (name, _cast) in keys.items():
        value = getattr(config, name)
        if name == head or value is None:
            continue
        if skip_defaults and value == getattr(default, name):
            continue
        parts.append(f"{key}={format_value(value)}")
    return ",".join(parts)


__all__ = ["Keys", "format_options", "format_value", "parse_options"]
