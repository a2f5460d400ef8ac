"""``repro.sanitize.verify`` — opt-in MPI-semantics verifier.

Three coordinated layers (enable with ``REPRO_SANITIZE=verify`` or
``SanitizeOptions(verify=True)``):

1. **Deadlock detector** — blocking MPI operations (rendezvous CTS
   waits, posted receives, barrier phases) register a
   :class:`~repro.sanitize.verify.waitgraph.WaitInfo` here while parked;
   when the event loop drains with the root process unfinished,
   :meth:`Verifier.on_stuck` turns the live waits into a wait-for-graph
   diagnosis (per-rank blocked call site, peer, tag, communicator, and
   the cycle, if any) recorded as ``verify.deadlock`` violations and
   folded into the :class:`~repro.sim.core.SimulationError` message.

2. **Finalize-time resource audit** — :meth:`repro.mpi.world.MpiWorld.finalize`
   calls :func:`repro.sanitize.verify.audit.audit_world` to flag
   unmatched posted receives, never-completed requests, and DevCache
   entries pinned past their communicator.

3. **Schedule-perturbation explorer** —
   ``python -m repro.sanitize.explore`` (see
   :mod:`repro.sanitize.verify.explore`) re-runs scenarios under a
   seeded :class:`~repro.sanitize.verify.explore.PerturbedSimulator`
   and randomized wildcard-match choices, asserting bit-identical
   application-visible results across schedules.

The verifier also asserts the pair_seq **non-overtaking invariant** at
every :meth:`~repro.mpi.matching.MatchingEngine._deliver` — matching
must see send order per (source, communicator) regardless of wire
reordering.

All hooks follow the sanitizer contract: hot paths test
``_san.VERIFY is not None`` and pay nothing when the verifier is off.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sanitize.verify.waitgraph import WaitInfo, diagnose

__all__ = ["Verifier", "WaitInfo"]


class Verifier:
    """MPI-semantics verifier: wait bookkeeping + matching invariants.

    One instance is installed at :data:`repro.sanitize.runtime.VERIFY`
    by :func:`repro.sanitize.enable`.  Per-world state (tracked
    requests) lives on the world objects themselves and
    per-engine state (delivery counters) on the matching engines, so a
    session-long verifier holds no references that outlive the worlds
    it watched.
    """

    def __init__(self, report) -> None:
        self.report = report
        self._tokens = 0
        #: token -> WaitInfo for every currently-blocked MPI operation
        self.waits: dict[int, WaitInfo] = {}
        #: per-rank stack of (op, seq, algo) collective frames, keyed
        #: (id(world), rank) so concurrent worlds don't collide
        self._coll: dict[tuple, list] = {}
        #: explorer hook — given the candidate unexpected-queue indices
        #: for a wildcard receive (first eligible per source), return the
        #: chosen index.  None = deterministic first match.
        self.match_choice: Optional[Callable[[list], int]] = None

    # -- wait-for bookkeeping --------------------------------------------
    def wait_begin(
        self,
        kind: str,
        rank: int,
        sim,
        peer: Optional[int] = None,
        tag: Optional[int] = None,
        comm_id: Optional[int] = None,
        detail: str = "",
        world=None,
    ) -> int:
        """Register a blocking operation; returns a token for wait_end."""
        self._tokens += 1
        tok = self._tokens
        if not detail:
            frame = self._coll.get((id(world), rank))
            if frame:
                op, seq, algo = frame[-1]
                detail = f"{op}#{seq}/{algo}"
        self.waits[tok] = WaitInfo(
            token=tok,
            kind=kind,
            rank=rank,
            sim=sim,
            peer=peer,
            tag=tag,
            comm_id=comm_id,
            detail=detail,
            since=getattr(sim, "now", 0.0),
            world=world,
        )
        return tok

    def wait_end(self, token: Optional[int]) -> None:
        """Unregister (idempotent — safe in ``finally`` blocks)."""
        if token is not None:
            self.waits.pop(token, None)

    # -- collective context ----------------------------------------------
    def coll_begin(self, world, rank: int, op: str, seq: int, algo: str) -> tuple:
        """Push a collective frame; waits inside inherit it as detail."""
        key = (id(world), rank)
        self._coll.setdefault(key, []).append((op, seq, algo))
        return key

    def coll_end(self, key: tuple) -> None:
        """Pop the frame pushed by :meth:`coll_begin` (idempotent)."""
        frames = self._coll.get(key)
        if frames:
            frames.pop()
            if not frames:
                del self._coll[key]

    # -- request tracking -------------------------------------------------
    def track_request(
        self,
        world,
        req,
        rank: int,
        kind: str,
        peer: int,
        tag: int,
        comm_id: int,
        nbytes: int,
    ) -> None:
        """Remember a request for the finalize-time leak audit.

        Metadata rides on the request object (no ``__slots__`` there);
        the per-world list dies with the world.
        """
        req._verify_info = (rank, kind, peer, tag, comm_id, nbytes)
        world._verify_requests.append(req)

    # -- matching-engine invariants ---------------------------------------
    def on_deliver(self, engine, env) -> None:
        """Assert pair_seq non-overtaking at the point of matching.

        Stamped arrivals must reach :meth:`MatchingEngine._deliver` in
        exactly send order per (source, comm) — the engine's re-sequencer
        guarantees it, and this is the runtime proof.  Counters start
        from the engine's own ``_next_pair`` so enabling the verifier
        mid-run never raises a false alarm.
        """
        if env.pair_seq < 0:
            return
        pairs = getattr(engine, "_verify_next_pair", None)
        if pairs is None:
            pairs = engine._verify_next_pair = {}
        key = (env.source, env.comm_id)
        want = pairs.get(key)
        if want is None:
            want = engine._next_pair.get(key, 0)
        if env.pair_seq != want:
            self.report.record(
                "verify",
                "verify.overtaking",
                f"matching saw pair_seq={env.pair_seq} from r{env.source} "
                f"(comm={env.comm_id}, tag={env.tag}) but send order expects "
                f"{want} — non-overtaking violated",
                where=f"matching r{env.dest}",
            )
            # keep counting from the observed point so record mode does
            # not cascade one reorder into a violation per message
            pairs[key] = env.pair_seq + 1
            return
        pairs[key] = want + 1

    def on_match_choice(self, engine, post, candidates: list) -> int:
        """Explorer choice point: pick among eligible unexpected messages.

        ``candidates`` holds the index of the first eligible message per
        distinct source (per-source FIFO is mandatory; *between* sources
        MPI leaves the choice open — exactly the race the explorer
        perturbs).  Default: the deterministic first match.
        """
        if self.match_choice is None or len(candidates) == 1:
            return candidates[0]
        return self.match_choice(candidates)

    # -- deadlock diagnosis ------------------------------------------------
    def on_stuck(self, sim, proc, queue_empty: bool) -> str:
        """Called by ``run_until_complete`` when the loop gives up.

        Records one ``verify.deadlock`` (queue drained — certain) or
        ``verify.stall`` (event-limit hit — possible livelock) violation
        per blocked rank, then returns the full diagnosis for the
        :class:`~repro.sim.core.SimulationError` message.  Findings use
        ``force_record`` — the simulator raises its own error anyway,
        and a raise here would mask the call-site context.
        """
        summary, per_rank = diagnose(
            list(self.waits.values()), sim, queue_empty=queue_empty
        )
        code = "verify.deadlock" if queue_empty else "verify.stall"
        for rank, line in per_rank:
            self.report.record(
                "verify",
                code,
                line,
                where=f"r{rank}",
                time_s=getattr(sim, "now", None),
                force_record=True,
            )
        return summary
