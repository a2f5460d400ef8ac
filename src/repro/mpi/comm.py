"""Communicators: isolated matching contexts over the world group.

Mirrors the part of ``MPI_Comm`` semantics the matching engine depends
on: every communicator has its own context id, so identical (source, tag)
pairs on different communicators never match each other — the property
libraries rely on to keep their internal traffic away from application
messages.

``dup`` produces a same-group communicator with a fresh context id
(``MPI_Comm_dup``).  Group-subsetting (``MPI_Comm_split``) is not
implemented: ranks here are always world ranks.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mpi.world import MpiWorld

__all__ = ["Communicator"]

_context_ids = itertools.count(1)  # 0 is COMM_WORLD


class Communicator:
    """A context id over the full world group."""

    def __init__(self, world: "MpiWorld", comm_id: int = 0) -> None:
        self.world = world
        self.comm_id = comm_id
        self.freed = False

    @property
    def size(self) -> int:
        return self.world.size

    def dup(self) -> "Communicator":
        """A new communicator with the same group, fresh context id."""
        return Communicator(self.world, next(_context_ids))

    def free(self) -> None:
        """Release the context id (``MPI_Comm_free``).

        Idempotent; COMM_WORLD cannot be freed.
        """
        if self.comm_id == 0:
            raise ValueError("COMM_WORLD cannot be freed")
        self.freed = True

    def __repr__(self) -> str:
        tag = "WORLD" if self.comm_id == 0 else f"ctx{self.comm_id}"
        return f"Communicator({tag}, size={self.size})"
