"""Wait-for-graph records and deadlock diagnosis for the MPI verifier.

Every blocking MPI operation registers a :class:`WaitInfo` with the
installed :class:`~repro.sanitize.verify.Verifier` while it is parked on
the event loop (``wait_begin``/``wait_end``).  When
:meth:`repro.sim.core.Simulator.run_until_complete` finds the queue
drained with the root process unfinished, :func:`diagnose` turns the set
of live waits into a per-rank report plus a wait-for-graph cycle
analysis:

* ``recv(source=s)`` / rendezvous ``cts`` waits add an **AND** edge
  ``rank -> s`` (progress requires exactly that peer).
* ``recv(source=ANY)`` adds **OR** edges to every other rank in the
  world (any sender would unblock it).
* ``barrier`` waits add AND edges to every world rank that has *not*
  arrived at the barrier.

Because the simulator is a discrete-event loop, "queue empty with a wait
outstanding" is an exact deadlock certificate: nothing can ever fire
again, so every registered wait is permanently stuck.  The graph/SCC
analysis exists to *explain* the hang (name the cycle vs. the ranks
merely blocked behind it), not to decide whether it is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["WaitInfo", "build_edges", "find_cycles", "diagnose"]


@dataclass
class WaitInfo:
    """One blocked MPI operation, live while its process is parked."""

    token: int
    kind: str  # "recv" | "cts" | "barrier"
    rank: int
    sim: object
    #: peer rank; ``None`` means MPI_ANY_SOURCE (recv) or not applicable
    peer: Optional[int] = None
    tag: Optional[int] = None
    comm_id: Optional[int] = None
    #: free-form context, e.g. "rendezvous isend 65536B" or "alltoall#3/staged"
    detail: str = ""
    since: float = 0.0
    #: the owning MpiWorld (plain reference; waits die with their op)
    world: Optional[object] = None

    def describe(self) -> str:
        """Human line: ``recv(source=ANY, tag=3, comm=0)`` etc."""
        args = []
        if self.kind in ("recv", "cts"):
            src = "ANY" if self.peer is None else str(self.peer)
            key = "source" if self.kind == "recv" else "peer"
            args.append(f"{key}={src}")
        elif self.peer is not None:
            args.append(f"peer={self.peer}")
        if self.tag is not None:
            args.append(f"tag={self.tag}")
        if self.comm_id is not None:
            args.append(f"comm={self.comm_id}")
        inner = ", ".join(args)
        text = f"{self.kind}({inner})"
        if self.detail:
            text += f" [{self.detail}]"
        return text


def _world_ranks(world, waits) -> list:
    """Rank ids known to participate in ``world`` (size if available)."""
    size = getattr(world, "size", None)
    if isinstance(size, int) and size > 0:
        return list(range(size))
    return sorted({w.rank for w in waits})


def build_edges(waits: list) -> dict:
    """Wait-for edges ``rank -> set(ranks)`` for one world's waits.

    OR waits (ANY-source recv) contribute edges to every other rank;
    in the drained-queue state OR/AND makes no liveness difference
    (no edge can ever be satisfied), so both feed the same graph and
    the distinction survives only in the per-wait description.
    """
    if not waits:
        return {}
    world = waits[0].world
    ranks = _world_ranks(world, waits)
    barrier_arrived = {w.rank for w in waits if w.kind == "barrier"}
    edges: dict = {}
    for w in waits:
        out = edges.setdefault(w.rank, set())
        if w.kind in ("recv", "cts"):
            if w.peer is not None:
                out.add(w.peer)
            else:
                out.update(r for r in ranks if r != w.rank)
        elif w.kind == "barrier":
            out.update(r for r in ranks if r not in barrier_arrived)
    return edges


def find_cycles(edges: dict) -> list:
    """Strongly connected components with >1 node (or a self-loop).

    Iterative Kosaraju — the graphs are tiny (one node per rank) but the
    verifier must not rely on recursion depth.
    """
    nodes = set(edges)
    for outs in edges.values():
        nodes.update(outs)
    order: list = []
    seen: set = set()
    for start in sorted(nodes):
        if start in seen:
            continue
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        seen.add(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    rev: dict = {}
    for src, outs in edges.items():
        for dst in outs:
            rev.setdefault(dst, set()).add(src)
    assigned: set = set()
    sccs: list = []
    for start in reversed(order):
        if start in assigned:
            continue
        comp = []
        stack = [start]
        assigned.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in rev.get(node, ()):
                if nxt not in assigned:
                    assigned.add(nxt)
                    stack.append(nxt)
        if len(comp) > 1 or start in edges.get(start, ()):
            sccs.append(sorted(comp))
    return sccs


def _matching_state_lines(world) -> list:
    """Posted/unexpected/held queue state per materialized rank."""
    lines: list = []
    procs = getattr(world, "procs", None)
    materialized = getattr(procs, "materialized", None)
    if materialized is None:
        return lines
    for proc in materialized():
        eng = getattr(proc, "matching", None)
        if eng is None:
            continue
        posted = getattr(eng, "_posted", ())
        unexpected = getattr(eng, "_unexpected", ())
        held = getattr(eng, "_held", {})
        for post in posted:
            src = "ANY" if post.source < 0 else post.source
            lines.append(
                f"  r{proc.rank}: posted recv(source={src}, tag={post.tag}, "
                f"comm={post.comm_id}) unmatched"
            )
        for env, _arrival in unexpected:
            lines.append(
                f"  r{proc.rank}: unexpected message from r{env.source} "
                f"(tag={env.tag}, comm={env.comm_id}, pair_seq={env.pair_seq})"
            )
        for (src, comm_id), pending in held.items():
            if pending:
                have = sorted(pending)
                want = eng._next_pair.get((src, comm_id), 0)
                lines.append(
                    f"  r{proc.rank}: held out-of-order arrivals from r{src} "
                    f"(comm={comm_id}): have pair_seq {have}, waiting for {want}"
                )
    return lines


def diagnose(waits: list, sim, queue_empty: bool = True) -> tuple:
    """Explain a stuck event loop.

    Returns ``(summary, per_rank)`` where ``summary`` is a multi-line
    human report and ``per_rank`` is ``[(rank, line)]`` — one structured
    finding per blocked rank — for :class:`SanitizerReport` records.
    """
    live = [w for w in waits if w.sim is sim]
    if not live:
        return ("no instrumented MPI waits registered on this simulator", [])
    by_world: dict = {}
    for w in live:
        by_world.setdefault(id(w.world), []).append(w)
    header = "deadlock" if queue_empty else "stall"
    lines = [f"{header}: {len(live)} blocked MPI operation(s)"]
    per_rank: list = []
    for group in by_world.values():
        edges = build_edges(group)
        cycles = find_cycles(edges)
        cycle_ranks = {r for comp in cycles for r in comp}
        for w in sorted(group, key=lambda w: (w.rank, w.token)):
            role = "in cycle" if w.rank in cycle_ranks else "blocked"
            line = (
                f"rank {w.rank} {role}: {w.describe()} "
                f"since t={w.since:g}s"
            )
            lines.append("  " + line)
            per_rank.append((w.rank, line))
        for comp in cycles:
            path = " -> ".join(f"r{r}" for r in comp)
            lines.append(f"  wait cycle: {path} -> r{comp[0]}")
        world = group[0].world
        if world is not None:
            state = _matching_state_lines(world)
            if state:
                lines.append("  matching-engine state:")
                lines.extend("  " + s for s in state)
    return ("\n".join(lines), per_rank)
