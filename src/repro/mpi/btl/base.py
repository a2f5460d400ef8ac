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
from functools import partial
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
        clock: Optional[dict] = None,
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

        Every message takes one delivery path, :meth:`_deliver`.  Without
        a fault plan the wire future is returned; with one, the returned
        future resolves after the handler runs, at arrival for a delayed
        message, and at wire completion for a dropped one.  ``clock`` is
        the race detector's snapshot of the sending context (default:
        the current one); a retransmission or re-ACK passes the one of
        the send it repeats.  With ``gpudirect`` the NIC reads/writes
        device memory directly (only meaningful on transports that
        support it).
        """
        packet = AmPacket(handler, header, payload, envelope)
        nbytes = self.header_cost_bytes + packet.payload_bytes
        if not label:
            label = f"am:{handler}"
        faults = getattr(self.src, "faults", None)
        wire = self._wire_send(nbytes, label, gpudirect=gpudirect, payload=packet)
        if clock is None and _san.RACE is not None:
            # network delivery is a happens-before edge from the *send*
            clock = _san.RACE.snapshot()
        done = wire if faults is None else Future(self.src.sim, label=label)
        wire.add_callback(partial(self._deliver, packet, clock, done))
        return done

    def _deliver(self, packet, clock, done, at_wire, fault=None) -> None:
        """The wire future's one callback: run the handler, complete ``done``.

        Under a fault plan (``done`` is then its own future) the plan
        draws the fault at wire completion, so its one RNG is consumed in
        event order.  A delayed arrival or a duplicate calls again with
        ``at_wire=None``.  The handler runs under the destination's AM
        actor, joined with ``clock``, when the race detector is installed.
        """
        if at_wire is not None and done is not at_wire:
            fault = self.src.faults.am_decision(packet.handler)
            if fault is not None:
                if fault.drop:
                    # the wire accepted the message; it just never
                    # arrives.  The send still completes (DMA-completion
                    # semantics)
                    done.resolve(packet)
                    return
                if fault.delay_s > 0.0:
                    self.src.sim.call_after(
                        fault.delay_s,
                        partial(self._deliver, packet, clock, done, None, fault),
                    )
                    return
        if _san.RACE is None:
            self.dst.dispatch(packet, self)
        else:
            _san.RACE.deliver_am(
                f"am.r{self.dst.rank}",
                clock,
                partial(self.dst.dispatch, packet, self),
            )
        if done is not at_wire and not done.done:
            done.resolve(packet)
        if fault is not None and fault.dup:
            # the duplicate trails the original, as a spurious
            # retransmission would
            self.src.sim.call_soon(partial(self._deliver, packet, clock, done, None))
