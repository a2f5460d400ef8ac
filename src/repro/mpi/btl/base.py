"""BTL interface: Active Messages over a byte mover.

"The implementation of our pipelined RDMA protocol uses BTL-level Active
Message, which is an asynchronous communication mechanism ... each
message header contains the reference of a callback handler triggered on
the receiver side, allowing the sender to specify how the message will be
handled on the receiver side upon message arrival" (Section 4.1).

An :meth:`Btl.am_send` charges the wire cost (header + optional payload)
and, at delivery time, hands the packet to the destination process's
dispatcher.  Handlers run at arrival; anything long-running should punt
into a coroutine or mailbox.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional, Union

import numpy as np

from repro.mpi.message import AmPacket, Envelope
from repro.sanitize import runtime as _san
from repro.sim.core import Future

if TYPE_CHECKING:
    from repro.hw.memory import Buffer
    from repro.mpi.proc import MpiProcess

__all__ = ["Btl"]


class Btl(ABC):
    """One transport between a fixed (sender, receiver) process pair.

    A stateless value object: the BML builds one on every lookup, and it
    dies with the send that used it.
    """

    __slots__ = ("src", "dst")

    name = "base"

    def __init__(self, src: "MpiProcess", dst: "MpiProcess") -> None:
        self.src = src
        self.dst = dst

    # -- capabilities ------------------------------------------------------
    @property
    def same_node(self) -> bool:
        return self.src.node is self.dst.node

    @property
    @abstractmethod
    def supports_cuda_ipc(self) -> bool:
        """True when device buffers can be cross-mapped (intra-node IPC)."""

    @property
    @abstractmethod
    def header_cost_bytes(self) -> int:
        ...

    @abstractmethod
    def _wire_send(
        self, nbytes: int, label: str, gpudirect: bool = False, payload: Any = None
    ) -> Future:
        """Charge the transport for ``nbytes``; resolve with ``payload``
        at delivery."""

    # -- Active Messages ------------------------------------------------------
    def am_send(
        self,
        handler: str,
        header: dict[str, Any],
        payload: Union[Buffer, np.ndarray, None] = None,
        envelope: Optional[Envelope] = None,
        label: str = "",
        gpudirect: bool = False,
    ) -> Future:
        """Send an AM; the returned future resolves at *delivery*.

        Nothing is copied at send time: the packet carries ``header`` and
        ``payload`` themselves, and the receiver's copy (the deposit into
        its posted staging, or its unpack) is the wire's only one.  The
        caller therefore leaves both unchanged until the receiver has
        consumed them (:class:`~repro.mpi.message.AmPacket`).  Each
        caller meets that as follows:

        * **copy-in/out** — a host-ring slot is repacked only after the
          credit from the ACK of the fragment it held, and the receiver
          sends that ACK after depositing the fragment (links are FIFO,
          and one sequential loop receives, so ACKs return in order).
        * **host pipeline, contiguous** — the payload is the user's send
          buffer, which MPI forbids changing before the send completes;
          the send completes after the last ACK.  Strided sends pack
          into a pooled ring under the same credit rule as copy-in/out.
        * **eager** — every message sends a freshly packed array.
        * **under an active fault plan** —
          :meth:`~repro.mpi.protocols.common.TransferState.send_frag`
          snapshots each fragment, because a retransmission must resend
          the original bytes after the slot has moved on
          (docs/ROBUSTNESS.md).  That is the only send-side copy.

        With ``gpudirect`` the NIC reads/writes device memory directly
        (only meaningful on transports that support it).
        """
        packet = AmPacket(handler, header, payload, envelope)
        nbytes = self.header_cost_bytes + packet.payload_bytes
        if not label:
            label = f"am:{handler}"
        faults = getattr(self.src, "faults", None)
        if faults is None and _san.RACE is None:
            # fault-free, uninstrumented delivery: the wire future itself
            # carries the packet and dispatches as its first callback —
            # callers see the same contract (resolves with the packet at
            # delivery) without a second future per message
            wire = self._wire_send(
                nbytes, label, gpudirect=gpudirect, payload=packet
            )

            def deliver_fast(_f: Future) -> None:
                self.dst.dispatch(packet, self)

            wire.add_callback(deliver_fast)
            return wire
        wire = self._wire_send(nbytes, label, gpudirect=gpudirect)
        done = Future(self.src.sim, label=label)
        sim = self.src.sim
        # network delivery is a happens-before edge from the *send*: the
        # handler runs under the destination's AM actor joined with the
        # sender's clock at am_send time
        snap = None if _san.RACE is None else _san.RACE.snapshot()

        def dispatch() -> None:
            if _san.RACE is not None:
                _san.RACE.deliver_am(
                    f"am.r{self.dst.rank}",
                    snap,
                    lambda: self.dst.dispatch(packet, self),
                )
            else:
                self.dst.dispatch(packet, self)

        def deliver(_f: Future) -> None:
            fault = faults.am_decision(handler) if faults is not None else None
            if fault is None:
                dispatch()
                done.resolve(packet)
                return
            if fault.drop:
                # the wire accepted the message; it just never arrives.
                # The future still resolves (DMA-completion semantics).
                done.resolve(packet)
                return

            def arrive() -> None:
                dispatch()
                if not done.done:
                    done.resolve(packet)
                if fault.dup:
                    # the duplicate trails the original, as a spurious
                    # retransmission would
                    sim.call_soon(dispatch)

            if fault.delay_s > 0.0:
                sim.call_after(fault.delay_s, arrive)
            else:
                arrive()

        wire.add_callback(deliver)
        return done
