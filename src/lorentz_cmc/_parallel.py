"""Independent blocks of numpy work on the calling thread and one helper."""

from __future__ import annotations

import contextvars
import threading


def _each(func, n):
    """Call ``func(i)`` for every ``i`` in ``range(n)``, on the calling thread
    and, when ``n > 1``, one helper thread in a copy of the caller's context
    (so its numpy ``errstate`` holds); ``func`` must release the GIL to gain,
    and its calls must not depend on their order.

    Both threads take the next index from one shared iterator and stop once
    they see that a call has raised.  The helper has ended on return.  Then
    the exception of the lowest index that raised is re-raised: every lower
    index was taken before it and ran, so it is the exception a serial loop
    would have raised.
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

    helper = None
    if n > 1:
        helper = threading.Thread(target=contextvars.copy_context().run, args=(work,))
        helper.start()
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]
