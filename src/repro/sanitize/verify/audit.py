"""Finalize-time resource audit — layer 2 of the MPI verifier.

:meth:`repro.mpi.world.MpiWorld.finalize` calls :func:`audit_world` when
the verifier is installed.  Like ``MPI_Finalize``'s "all pending
communication must be completed" rule, a clean program reaches teardown
with nothing outstanding; everything still live is a finding:

``verify.request_leak``
    A tracked isend/irecv request that never completed (e.g. a
    rendezvous send whose matching receive was never posted — the CTS
    never comes, but the world's root process can still finish, so the
    run "succeeds" with a zombie send parked forever).
``verify.recv_unmatched``
    A posted receive still sitting in a matching engine.
``verify.unexpected_message``
    A delivered message no receive ever consumed.
``verify.seq_gap``
    Out-of-order arrivals still held by the re-sequencer — the gap
    (a dropped or never-sent pair_seq) never closed.
``verify.barrier_incomplete``
    Ranks left waiting inside the scaffolding barrier.

Every finding also bumps a ``verify.audit.<kind>`` counter (plus
``verify.audit.findings``) in ``world.metrics``, so the audit surfaces
in :meth:`~repro.mpi.world.MpiWorld.stats` snapshots and the Perfetto
export alongside every other world metric.
"""

from __future__ import annotations

__all__ = ["audit_world", "matching_residue"]


def _count(world, kind: str) -> None:
    world.metrics.counter("verify.audit.findings").inc()
    world.metrics.counter(f"verify.audit.{kind}").inc()


def matching_residue(world):
    """Yield ``(kind, rank, text)`` for what the built ranks' matching
    engines still hold: posted receives (``recv_unmatched``), arrivals no
    receive matched (``unexpected_message``) and out-of-order arrivals
    held behind a gap (``seq_gap``).

    The audit records each as a finding; a stuck plain
    :meth:`~repro.mpi.world.MpiWorld.run` lists them in its error.
    """
    for proc in world.procs.materialized():
        rank = proc.rank
        eng = proc.matching
        for post in eng._posted:
            src = "ANY" if post.source < 0 else post.source
            yield "recv_unmatched", rank, (
                f"posted receive (source={src}, tag={post.tag}, "
                f"comm={post.comm_id}) never matched"
            )
        for env, arrival in eng._unexpected:
            header = arrival[1]  # the PML's (env, header, payload, source)
            proto = "eager" if header["eager"] else "rendezvous"
            yield "unexpected_message", rank, (
                f"holds an unexpected {proto} message from r{env.source} "
                f"(tag={env.tag}, comm={env.comm_id}, {header['total']}B, "
                f"pair_seq={env.pair_seq}) no receive consumed"
            )
        for (src, comm_id), pending in eng._held.items():
            if pending:
                want = eng._next_pair.get((src, comm_id), 0)
                yield "seq_gap", rank, (
                    f"held out-of-order arrivals from r{src} "
                    f"(comm={comm_id}): have pair_seq {sorted(pending)}, "
                    f"the gap at {want} never closed"
                )


def audit_world(world, verifier) -> list:
    """Audit one world at teardown; records and returns the findings.

    In ``raise`` mode the first finding raises
    :class:`~repro.sanitize.report.SanitizerError` (finalize acts as an
    assertion); in ``record`` mode everything is collected and returned.
    """
    found: list = []
    report = verifier.report
    now = getattr(world.sim, "now", None)

    def rec(code: str, kind: str, message: str, where: str) -> None:
        _count(world, kind)
        found.append(
            report.record("verify", code, message, where=where, time_s=now)
        )

    # -- never-completed requests -----------------------------------------
    for req in world._verify_requests:
        if req.done:
            continue
        info = getattr(req, "_verify_info", None)
        if info is None:
            rec(
                "verify.request_leak",
                "request_leak",
                f"{req!r} never completed",
                "finalize",
            )
            continue
        rank, kind, peer, tag, comm_id, nbytes = info
        direction = "to" if kind == "send" else "from"
        rec(
            "verify.request_leak",
            "request_leak",
            f"rank {rank} {kind} {direction} r{peer} (tag={tag}, "
            f"comm={comm_id}, {nbytes}B) never completed",
            f"r{rank}",
        )

    # -- matching-engine residue -------------------------------------------
    for kind, rank, text in matching_residue(world):
        rec(f"verify.{kind}", kind, f"rank {rank} {text}", f"r{rank}")

    # -- barrier ------------------------------------------------------------
    if world._barrier_arrived:
        rec(
            "verify.barrier_incomplete",
            "barrier_incomplete",
            f"{world._barrier_arrived} rank(s) still waiting inside a "
            f"barrier ({world.size - world._barrier_arrived} never arrived)",
            "barrier",
        )

    return found
