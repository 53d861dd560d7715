"""Shared parsing for ``REPRO_*`` environment variables.

Boolean environment switches (``repro.check`` reads ``REPRO_AUDIT``)
are easy to get wrong: ``REPRO_AUDIT=false`` is truthy under a naive
``value != "0"`` test.  :func:`env_flag` gives every flag one spelling
of the truth.

Accepted spellings (case-insensitive, surrounding whitespace ignored):

* true:  ``1``, ``true``, ``yes``, ``on``
* false: ``0``, ``false``, ``no``, ``off``

An unset or empty variable yields ``default``.  Anything else also
yields ``default`` but emits a :class:`RuntimeWarning` — once per
variable per process, so a misspelled flag in a sweep does not flood
stderr.
"""

from __future__ import annotations

import os
import warnings
from typing import Set

_TRUE_WORDS = frozenset(("1", "true", "yes", "on"))
_FALSE_WORDS = frozenset(("0", "false", "no", "off"))

_warned_vars: Set[str] = set()


def _warn_once(name: str, message: str) -> None:
    """Emit ``message`` as a RuntimeWarning once per variable."""
    if name in _warned_vars:
        return
    _warned_vars.add(name)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def env_flag(name: str, default: bool = False) -> bool:
    """Parse the boolean environment variable ``name``.

    Unset/empty returns ``default``; unrecognized spellings warn once
    and return ``default``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default
    if value in _TRUE_WORDS:
        return True
    if value in _FALSE_WORDS:
        return False
    _warn_once(
        name,
        f"ignoring unrecognized {name}={raw!r} "
        "(expected one of 1/true/yes/on or 0/false/no/off); "
        f"using default {default}",
    )
    return default


def reset_warnings() -> None:
    """Forget which variables have warned (test isolation)."""
    _warned_vars.clear()
