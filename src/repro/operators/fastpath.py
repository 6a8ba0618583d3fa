"""Runtime gate for the zero-copy operator fast paths.

Several operators carry two equivalent implementations: a *materializing*
slow path (copy the qualifying rows into a fresh array) and a *zero-copy*
fast path (return a view, a shared candidate array, or a binary-searched
sub-range).  The fast paths are bit-identical by construction -- same
values, same lengths, same work profiles -- but keeping the slow path
callable lets the property tests prove that equivalence on randomized
inputs, and gives a one-line escape hatch if a regression ever needs to
be bisected.

The gate is process-global: any host thread *reads* it freely (a bool
read is atomic under the GIL), but every *write* goes through the
module lock -- two overlapping :func:`disabled` blocks (e.g. pytest-run
threads) must not be able to interleave their save/restore pairs and
leave the gate stuck off.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_enabled = True
_lock = threading.Lock()


def enabled() -> bool:
    """True when operators may take their zero-copy fast paths."""
    return _enabled


def set_enabled(on: bool) -> None:
    """Flip the global gate (tests and bisection only)."""
    global _enabled
    with _lock:
        _enabled = bool(on)


@contextmanager
def disabled() -> Iterator[None]:
    """Force the materializing slow paths within the ``with`` block."""
    global _enabled
    with _lock:
        previous = _enabled
        _enabled = False
    try:
        yield
    finally:
        with _lock:
            _enabled = previous
