"""MPI request and status objects (``MPI_Request`` / ``MPI_Status``)."""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.core import Future

__all__ = ["Request", "Status"]


class Status:
    """Completion information of a receive (``MPI_Status``)."""

    __slots__ = ("source", "tag", "count_bytes")

    def __init__(self, source: int, tag: int, count_bytes: int) -> None:
        self.source = source
        self.tag = tag
        self.count_bytes = count_bytes

    def get_count(self, datatype) -> int:
        """Number of whole ``datatype`` elements received (MPI_Get_count)."""
        if datatype.size == 0:
            return 0
        if self.count_bytes % datatype.size:
            return -1  # MPI_UNDEFINED: a partial element arrived
        return self.count_bytes // datatype.size

    def __repr__(self) -> str:
        return (
            f"Status(source={self.source}, tag={self.tag}, "
            f"count_bytes={self.count_bytes})"
        )


class Request:
    """Handle on an in-flight isend/irecv.

    A :class:`Request` *is* awaitable — ranks ``yield req`` to wait —
    and exposes ``test()`` for polling loops.  ``future`` is the
    operation's completion :class:`~repro.sim.core.Future`.
    """

    def __init__(self, future: Future, kind: str, nbytes: int) -> None:
        self._future = future
        self.kind = kind  # "send" | "recv"
        self.nbytes = nbytes

    @property
    def future(self) -> Future:
        return self._future

    @property
    def done(self) -> bool:
        return self._future.done

    def test(self) -> bool:
        """Non-blocking completion check (MPI_Test)."""
        return self._future.done

    @property
    def value(self) -> Any:
        return self._future.value

    # duck-type as a Future so `yield request` works inside rank programs
    def add_callback(self, cb) -> None:
        """Future-protocol hook so ``yield request`` works in programs."""
        self._future.add_callback(cb)

    @property
    def failed(self) -> bool:
        return self._future.failed

    @property
    def exception(self) -> Optional[BaseException]:
        return self._future.exception

    @property
    def _value(self):  # Future resume protocol
        return self._future._value

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"Request({self.kind}, {self.nbytes}B, {state})"
