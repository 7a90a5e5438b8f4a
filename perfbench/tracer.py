"""Spans and counters around trustsim's public functions, from outside.

Each probe replaces one function at the name its caller resolves (for
example ``trustsim.env.sample_top_k``, which ``Environment.step`` calls)
with a wrapper that adds the call's wall time to a named total and may run
a hook on the call's arguments and result.  Nothing inside ``src/`` changes;
the originals are put back when the probe set is closed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Probes:
    """A set of wrappers that can be installed and removed as one."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span: str, hook=None) -> None:
        """Time every call of ``owner.attr`` under ``span``.

        ``hook(result, args, kwargs)`` runs after the call, outside this
        span's timed interval but inside any enclosing span's, so hooks
        should only record.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        seconds, calls = self.seconds, self.calls

        @functools.wraps(original)
        def probe(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            seconds[span] += time.perf_counter() - t0
            calls[span] += 1
            if hook is not None:
                hook(result, args, kwargs)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, probe)

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
