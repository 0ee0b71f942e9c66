"""Independent blocks of numpy work on every CPU the process may run on."""

from __future__ import annotations

import contextvars
import os
import threading


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each(func, n):
    """Call ``func(i)`` for every ``i`` in ``range(n)``, on the calling thread
    and ``min(cpus, n) - 1`` helper threads, each in a copy of the caller's
    context (so its numpy ``errstate`` holds); ``func`` must release the GIL
    to gain, and its calls must not depend on their order.

    Every thread takes the next index from one shared iterator and stops
    once it sees that a call has raised.  Every helper has ended on return.
    Then the exception of the lowest index that raised is re-raised: every
    lower index was taken before it and ran, so it is the exception a
    serial loop would have raised.
    """
    indices, errors = iter(range(n)), {}

    def work():
        while not errors:
            i = next(indices, None)
            if i is None:
                return
            try:
                func(i)
            except BaseException as exc:
                errors[i] = exc

    helpers = []
    try:
        for _ in range(min(_cpus(), n) - 1):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
