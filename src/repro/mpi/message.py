"""Message envelopes and wire-format bookkeeping."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from repro.hw.memory import Buffer

__all__ = ["ANY_SOURCE", "ANY_TAG", "Envelope", "AmPacket"]

ANY_SOURCE = -1
ANY_TAG = -1

_seq = itertools.count()


class Envelope:
    """MPI matching triple plus ordering sequence numbers.

    ``seq`` is a global send-order stamp (used to pick the earliest
    unexpected message); ``pair_seq`` is the contiguous per
    (sender, dest, comm) counter the receiver's matching engine uses to
    re-sequence arrivals — eager packs of different sizes (or
    fault-injected delays) can deliver a later-posted message first, and
    MPI's non-overtaking rule says matching must still follow post
    order.  ``-1`` means unordered (no re-sequencing).

    A plain ``__slots__`` class (one is built per message; the frozen
    dataclass it used to be paid ~6 ``object.__setattr__`` calls each).
    """

    __slots__ = ("source", "dest", "tag", "comm_id", "seq", "pair_seq")

    def __init__(
        self,
        source: int,
        dest: int,
        tag: int,
        comm_id: int,
        seq: Optional[int] = None,
        pair_seq: int = -1,
    ) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.comm_id = comm_id
        self.seq = next(_seq) if seq is None else seq
        self.pair_seq = pair_seq

    def matches(self, want_source: int, want_tag: int) -> bool:
        """Does this envelope satisfy a posted (source, tag) pair?"""
        src_ok = want_source == ANY_SOURCE or want_source == self.source
        tag_ok = want_tag == ANY_TAG or want_tag == self.tag
        return src_ok and tag_ok

    def __repr__(self) -> str:
        return (
            f"Envelope(source={self.source}, dest={self.dest}, "
            f"tag={self.tag}, comm_id={self.comm_id}, seq={self.seq}, "
            f"pair_seq={self.pair_seq})"
        )


class AmPacket:
    """One Active Message: handler name, small header, optional payload.

    Neither the header nor the payload is copied at send time.  The
    payload is a view of the sender's bytes, and the receiver's copy out
    of it (a deposit into posted staging, or an unpack) is the one copy
    the wire makes.  The sender leaves header and payload unchanged until
    the receiver has consumed them; :meth:`repro.mpi.btl.base.Btl.am_send`
    says how each protocol keeps that promise.

    A rendezvous fragment's payload is the sender's segment as a
    :class:`~repro.hw.memory.Buffer`, so the receiver reads it through
    ``Buffer.bytes`` and the sanitizers see that read (a freed or reused
    segment is reported).  An eager message's payload, and a fragment
    snapshotted for retransmission, is a ``uint8`` array that only this
    packet references.
    """

    __slots__ = ("handler", "header", "payload", "envelope")

    def __init__(
        self,
        handler: str,
        header: dict[str, Any],
        payload: Union[Buffer, np.ndarray, None] = None,
        envelope: Optional[Envelope] = None,
    ) -> None:
        self.handler = handler
        self.header = header
        self.payload = payload
        self.envelope = envelope

    @property
    def payload_bytes(self) -> int:
        # Buffer and ndarray both expose ``nbytes``
        return 0 if self.payload is None else int(self.payload.nbytes)

    def __repr__(self) -> str:
        return (
            f"AmPacket({self.handler!r}, {self.payload_bytes}B, "
            f"envelope={self.envelope!r})"
        )
