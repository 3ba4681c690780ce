"""Arbiters used for switch allocation inside the routers."""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence


class RoundRobinArbiter:
    """A round-robin arbiter over a fixed universe of requesters.

    The arbiter remembers the last granted requester and, on the next grant,
    starts the search just after it, which gives the strong fairness property
    the tests assert: over ``len(universe)`` consecutive grants with all
    requesters asserting, every requester wins exactly once.
    """

    def __init__(self, universe: Sequence[Hashable]) -> None:
        if not universe:
            raise ValueError("arbiter universe must not be empty")
        self._universe = list(universe)
        self._index = {key: i for i, key in enumerate(self._universe)}
        if len(self._index) != len(self._universe):
            raise ValueError("arbiter universe must not contain duplicates")
        self._pointer = 0

    @property
    def universe(self) -> list[Hashable]:
        return list(self._universe)

    def grant(self, requests: Iterable[Hashable]) -> Hashable | None:
        """Grant one of ``requests`` or ``None`` for an empty request list.

        Requests must be drawn from the universe; a request list containing
        no universe member raises ``ValueError``.  (Validation is deferred
        to the no-winner case so the per-cycle hot path never pays for it.)
        """
        if not isinstance(requests, list):
            requests = list(requests)
        if not requests:
            return None
        index = self._index
        size = len(self._universe)
        if len(requests) == 1:
            # Uncontended fast path: a lone requester always wins regardless
            # of the pointer position, which then advances just past it —
            # exactly what the scan below would conclude.
            candidate = requests[0]
            position = index.get(candidate)
            if position is None:
                raise ValueError(f"requests outside arbiter universe: [{candidate!r}]")
            self._pointer = (position + 1) % size
            return candidate
        # Small request lists (the realistic switch-allocation case) are
        # cheaper to probe directly than to copy into a set.
        requesting = requests if len(requests) <= 4 else set(requests)
        universe = self._universe
        pointer = self._pointer
        for offset in range(size):
            candidate = universe[(pointer + offset) % size]
            if candidate in requesting:
                self._pointer = (index[candidate] + 1) % size
                return candidate
        # The scan covers the whole universe, so reaching this point means
        # no request named a universe member at all.
        raise ValueError(
            f"requests outside arbiter universe: {sorted(map(str, set(requests)))}"
        )
