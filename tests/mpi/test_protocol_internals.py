"""Unit tests for protocol plumbing: selection, side info, staging pool."""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.datatype.ddt import contiguous, resized, vector
from repro.datatype.primitives import DOUBLE
from repro.hw.node import Cluster
from repro.mpi.btl.ib import IbBtl
from repro.mpi.btl.sm import SmBtl
from repro.mpi.bml import btl_for
from repro.mpi.config import MpiConfig
from repro.mpi import proc as proc_mod
from repro.mpi.pml import _signature_check
from repro.mpi.proc import MpiProcess
from repro.mpi.protocols.common import SideInfo, choose_protocol, describe_side
from repro.mpi.protocols.pipeline import transfer_mode


def procs(kind="sm-gpu"):
    if kind == "sm-gpu":
        c = Cluster(1, 2)
        return c, MpiProcess(0, c.nodes[0], c.nodes[0].gpus[0], MpiConfig()), \
            MpiProcess(1, c.nodes[0], c.nodes[0].gpus[1], MpiConfig())
    if kind == "ib-gpu":
        c = Cluster(2, 1)
        return c, MpiProcess(0, c.nodes[0], c.nodes[0].gpus[0], MpiConfig()), \
            MpiProcess(1, c.nodes[1], c.nodes[1].gpus[0], MpiConfig())
    c = Cluster(1, 1)
    return c, MpiProcess(0, c.nodes[0], None, MpiConfig()), \
        MpiProcess(1, c.nodes[0], None, MpiConfig())


def side(loc="device", contig=False, total=1 << 20):
    return SideInfo(loc=loc, gpu_name="g", contiguous=contig, total=total)


#: 4 KB of doubles per element, elements 8 KB apart
RESIZED = resized(contiguous(512, DOUBLE), 0, 8192).commit()


class TestProtocolSelection:
    def test_host_host(self):
        c, p0, p1 = procs("cpu")
        btl = SmBtl(p0, p1)
        assert choose_protocol(side("host"), side("host"), btl) == "host"

    def test_device_device_intra_node(self):
        c, p0, p1 = procs("sm-gpu")
        btl = SmBtl(p0, p1)
        assert choose_protocol(side(), side(), btl) == "ipc_rdma"

    def test_device_device_inter_node(self):
        c, p0, p1 = procs("ib-gpu")
        btl = IbBtl(p0, p1)
        assert choose_protocol(side(), side(), btl) == "copyinout"

    def test_mixed_host_device(self):
        c, p0, p1 = procs("sm-gpu")
        btl = SmBtl(p0, p1)
        assert choose_protocol(side("host"), side("device"), btl) == "copyinout"

    def test_ipc_disabled_forces_copyinout(self):
        c = Cluster(1, 2)
        cfg = MpiConfig(use_cuda_ipc=False)
        p0 = MpiProcess(0, c.nodes[0], c.nodes[0].gpus[0], cfg)
        p1 = MpiProcess(1, c.nodes[0], c.nodes[0].gpus[1], cfg)
        btl = SmBtl(p0, p1)
        assert choose_protocol(side(), side(), btl) == "copyinout"


class TestTransferMode:
    def test_modes(self):
        assert transfer_mode(side(contig=True), side(contig=True)) == "both_contig"
        assert transfer_mode(side(contig=True), side()) == "send_contig"
        assert transfer_mode(side(), side(contig=True)) == "recv_contig"
        assert transfer_mode(side(), side()) == "general"


class TestDescribeSide:
    def test_device_buffer(self):
        c, p0, _ = procs("sm-gpu")
        dt = vector(4, 2, 6, DOUBLE).commit()
        buf = p0.ctx.malloc(dt.extent)
        info = describe_side(p0, buf, dt, 1)
        assert info.loc == "device"
        assert info.gpu_name == p0.gpu.name
        assert not info.contiguous
        assert info.total == dt.size

    def test_host_contiguous(self):
        c, p0, _ = procs("cpu")
        dt = contiguous(32, DOUBLE).commit()
        buf = p0.node.host_memory.alloc(dt.size)
        info = describe_side(p0, buf, dt, 2)
        assert info.loc == "host" and info.contiguous
        assert info.total == dt.size * 2

    def test_resized_contiguous_strides_past_one_element(self):
        """One element of a resized contiguous type is one run from 0,
        but two elements are two runs with a gap between them."""
        c, p0, _ = procs("cpu")
        dt = RESIZED
        buf = p0.node.host_memory.alloc(2 * dt.extent)
        assert dt.is_contiguous and dt.extent == 2 * dt.size
        assert describe_side(p0, buf, dt, 1).contiguous
        assert not describe_side(p0, buf, dt, 2).contiguous


class TestSignatureCheck:
    def test_identical_ok(self):
        sig = (("MPI_DOUBLE", 10),)
        _signature_check(sig, sig)

    def test_recv_longer_ok(self):
        _signature_check((("MPI_DOUBLE", 5),), (("MPI_DOUBLE", 9),))

    def test_recv_shorter_fails(self):
        with pytest.raises(ValueError):
            _signature_check((("MPI_DOUBLE", 9),), (("MPI_DOUBLE", 5),))

    def test_different_primitive_fails(self):
        with pytest.raises(ValueError):
            _signature_check((("MPI_INT", 4),), (("MPI_DOUBLE", 4),))

    def test_run_boundaries_do_not_matter(self):
        # [2 INT][2 INT] matches [4 INT]
        _signature_check(
            (("MPI_INT", 2), ("MPI_INT", 2)), (("MPI_INT", 4),)
        )

    def test_interleaved_mismatch(self):
        with pytest.raises(ValueError):
            _signature_check(
                (("MPI_INT", 2), ("MPI_DOUBLE", 1)),
                (("MPI_INT", 3), ("MPI_DOUBLE", 1)),
            )


class TestStagingPool:
    def test_reuse(self):
        c, p0, _ = procs("sm-gpu")
        a = p0.acquire_staging("device", 4096)
        p0.release_staging("device", a)
        b = p0.acquire_staging("device", 4096)
        assert a is b

    def test_distinct_sizes_not_mixed(self):
        c, p0, _ = procs("sm-gpu")
        a = p0.acquire_staging("device", 4096)
        p0.release_staging("device", a)
        b = p0.acquire_staging("device", 8192)
        assert a is not b

    def test_zero_copy_host_ring_mapped(self):
        from repro.cuda.uma import is_mapped_host

        c, p0, _ = procs("sm-gpu")
        buf = p0.acquire_staging("host", 4096, zero_copy_map=True)
        assert is_mapped_host(buf)
        plain = p0.acquire_staging("host", 4096, zero_copy_map=False)
        assert not is_mapped_host(plain)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
    )
    @pytest.mark.parametrize("kind", ["host", "device"])
    def test_ring_resident_by_touched_pages(self, kind):
        # a ring sized for the largest transfer, one byte used per 2 MiB
        c, p0, _ = procs("sm-gpu")
        ring = p0.acquire_staging(kind, 64 << 20)

        def resident():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident()
        # the storage itself: .bytes would also mark sanitizer shadow
        ring.allocation.data[:: 2 << 20] = 1
        assert resident() - before < 16 << 20

    def test_host_rank_cannot_get_device_staging(self):
        c, p0, _ = procs("cpu")
        with pytest.raises(RuntimeError):
            p0.acquire_staging("device", 4096)

    def test_idle_cap_frees_least_recently_released(self, monkeypatch):
        from repro.cuda.uma import is_mapped_host

        monkeypatch.setattr(proc_mod, "STAGING_IDLE_CAP", 3 * 4096)
        c, p0, _ = procs("sm-gpu")
        bufs = [
            p0.acquire_staging("host", 4096 + 256 * i, zero_copy_map=True)
            for i in range(3)
        ]
        for b in bufs:
            p0.release_staging("host", b, zero_copy_map=True)
        # 3 * 4096 + 768 idle bytes: the first release alone goes
        assert bufs[0].allocation.freed and not is_mapped_host(bufs[0])
        assert not any(b.allocation.freed for b in bufs[1:])
        assert p0.staging_idle_bytes["host"] == 2 * 4096 + 768
        # reuse takes the buffer out of the idle count; the kinds are
        # capped separately
        assert p0.acquire_staging("host", 4096 + 256, zero_copy_map=True) is bufs[1]
        assert p0.staging_idle_bytes["host"] == 4096 + 512
        dev = p0.acquire_staging("device", 3 * 4096)
        p0.release_staging("device", dev)
        assert not dev.allocation.freed
        # the buffer just released stays, even alone above the cap
        big = p0.acquire_staging("device", 4 * 4096)
        p0.release_staging("device", big)
        assert dev.allocation.freed and not big.allocation.freed
        small = p0.acquire_staging("device", 4096)
        p0.release_staging("device", small)
        assert big.allocation.freed and not small.allocation.freed

    def test_warm_host_pipeline_allocates_nothing(self, monkeypatch):
        """A strided host rendezvous packs into a pooled ring: once warm,
        a repeat of the same transfer allocates no memory at all."""
        from repro.hw.memory import Memory

        world, bufs = ring_world("sm", "host", "host", MpiConfig(
            frag_bytes=4096, pipeline_depth=2, eager_limit=0))
        dt = RING_TYPES["strided"]
        world.run(ring_programs(bufs, dt))
        calls = []
        orig = Memory.alloc

        def alloc(self, nbytes, label=""):
            calls.append(label)
            return orig(self, nbytes, label)

        monkeypatch.setattr(Memory, "alloc", alloc)
        world.run(ring_programs(bufs, dt))
        assert world.stats().by_protocol == {"host": 4}
        assert calls == []

    def test_redrawn_alltoallv_stays_under_cap(self, monkeypatch):
        """Counts redrawn every round give every round new staging sizes;
        the pool must stay bounded and delivery stay byte-exact."""
        from repro.datatype.primitives import BYTE
        from repro.mpi.collectives import CollAlgorithm, alltoallv
        from repro.mpi.world import MpiWorld

        cap = 64 << 10
        monkeypatch.setattr(proc_mod, "STAGING_IDLE_CAP", cap)
        n, rec, rounds = 4, 64, 30
        world = MpiWorld(Cluster(1, n), [(0, g) for g in range(n)])
        rec_dt = contiguous(rec, BYTE).commit()
        rng = np.random.default_rng(5)
        vmax = 96
        send = [[world.procs[r].ctx.malloc(vmax * rec) for _ in range(n)] for r in range(n)]
        recv = [[world.procs[r].ctx.malloc(vmax * rec) for _ in range(n)] for r in range(n)]
        for row in send:
            for b in row:
                b.write(rng.integers(0, 256, b.nbytes, dtype=np.uint8))
        released = []
        orig = MpiProcess.release_staging

        def release(self, kind, buf, zero_copy_map=False):
            released.append(buf)
            orig(self, kind, buf, zero_copy_map)
            assert self.staging_idle_bytes[kind] <= cap

        monkeypatch.setattr(MpiProcess, "release_staging", release)
        for _ in range(rounds):
            counts = rng.integers(1, vmax, size=(n, n))

            def program(mpi, counts=counts):
                r = mpi.rank
                yield from alltoallv(
                    mpi, send[r], rec_dt, counts[r].tolist(),
                    recv[r], rec_dt, counts[:, r].tolist(),
                    algorithm=CollAlgorithm.STAGED,
                )

            world.run({r: program for r in range(n)})
            for r in range(n):
                for s in range(n):
                    k = int(counts[s, r])
                    assert np.array_equal(
                        recv[r][s].bytes[: k * rec], send[s][r].bytes[: k * rec]
                    )
        # unbounded pooling would have kept every released buffer
        assert any(b.allocation.freed for b in released)


#: 40 KB messages: ten 4 KB fragments through a two-slot ring
RING_TYPES = {
    "contiguous": contiguous(5120, DOUBLE).commit(),
    "strided": vector(80, 64, 96, DOUBLE).commit(),
}


def ring_world(btl: str, s_loc: str, r_loc: str, config: MpiConfig):
    """Two ranks (same node for ``sm``, two nodes for ``ib``) and one
    randomly filled send buffer, one zeroed receive buffer."""
    from repro.mpi.world import MpiWorld

    if btl == "sm":
        world = MpiWorld(Cluster(1, 2), [(0, 0), (0, 1)], config)
    else:
        world = MpiWorld(Cluster(2, 1), [(0, 0), (1, 0)], config)
    size = max(max(t.extent for t in RING_TYPES.values()), 5 * RESIZED.extent)
    bufs = []
    for rank, loc in enumerate((s_loc, r_loc)):
        proc = world.procs[rank]
        if loc == "device":
            bufs.append(proc.ctx.malloc(size))
        else:
            bufs.append(proc.node.host_memory.alloc(size))
    bufs[0].write(np.random.default_rng(3).integers(0, 256, size, dtype=np.uint8))
    bufs[1].fill(0)
    return world, bufs


def ring_programs(bufs, dt, count=1, rdt=None, rcount=None):
    def s(mpi):
        yield mpi.send(bufs[0], dt, count, dest=1, tag=1)

    def r(mpi):
        yield mpi.recv(bufs[1], rdt or dt, rcount or count, source=0, tag=1)

    return [s, r]


class TestRingWrap:
    """More fragments than ring slots: every slot is refilled while the
    receiver still reads fragments in place from the sender's memory, so
    a slot reused before its fragment was consumed shows up as wrong
    bytes."""

    @pytest.mark.parametrize("faults", [None, "am_drop"])
    @pytest.mark.parametrize("dtype", sorted(RING_TYPES))
    @pytest.mark.parametrize(
        "btl,s_loc,r_loc,protocol",
        [
            ("sm", "host", "host", "host"),
            ("ib", "host", "host", "host"),
            ("ib", "device", "device", "copyinout"),
            ("ib", "host", "device", "copyinout"),
            ("ib", "device", "host", "copyinout"),
            ("sm", "device", "device", "copyinout"),
        ],
    )
    def test_bytes_match_oracle(self, btl, s_loc, r_loc, protocol, dtype, faults):
        from repro.datatype.convertor import pack_bytes
        from repro.faults.plan import FaultSpec

        cfg = MpiConfig(
            frag_bytes=4096, pipeline_depth=2, eager_limit=0,
            use_cuda_ipc=False,
            faults=FaultSpec(seed=5, am_drop=0.2) if faults else None,
        )
        world, bufs = ring_world(btl, s_loc, r_loc, cfg)
        dt = RING_TYPES[dtype]
        world.run(ring_programs(bufs, dt))
        ws = world.stats()
        assert ws.by_protocol == {protocol: 2}
        assert {t.fragments for t in ws.transfers} == {10}
        if faults:
            assert ws.retransmits > 0
        assert np.array_equal(
            pack_bytes(dt, 1, bufs[1].bytes), pack_bytes(dt, 1, bufs[0].bytes)
        )


class TestStridedElements:
    """Five elements of a resized contiguous type are five runs with gaps
    between them, so no contiguous fast path may ship or fill the buffer
    in place (the host pipeline's user-buffer payload, ipc_rdma's
    contiguous modes)."""

    @pytest.mark.parametrize("ends", ["send", "recv", "both"])
    @pytest.mark.parametrize("btl,loc", [
        ("sm", "host"), ("sm", "device"), ("ib", "device"),
    ])
    def test_bytes_match_oracle(self, btl, loc, ends):
        from repro.datatype.convertor import pack_bytes

        flat = contiguous(5 * 512, DOUBLE).commit()
        sdt, sc = (RESIZED, 5) if ends != "recv" else (flat, 1)
        rdt, rc = (RESIZED, 5) if ends != "send" else (flat, 1)
        world, bufs = ring_world(btl, loc, loc, MpiConfig(
            frag_bytes=4096, pipeline_depth=2, eager_limit=0))
        world.run(ring_programs(bufs, sdt, sc, rdt, rc))
        assert np.array_equal(
            pack_bytes(rdt, rc, bufs[1].bytes), pack_bytes(sdt, sc, bufs[0].bytes)
        )


class TestBml:
    def test_selection_without_per_pair_state(self):
        c = Cluster(2, 1)
        cfg = MpiConfig()
        p0 = MpiProcess(0, c.nodes[0], c.nodes[0].gpus[0], cfg)
        p1 = MpiProcess(1, c.nodes[1], c.nodes[1].gpus[0], cfg)
        p2 = MpiProcess(2, c.nodes[0], None, cfg)
        assert isinstance(btl_for(p0, p1), IbBtl)
        assert isinstance(btl_for(p0, p2), SmBtl)
        # direction matters: each endpoint sends from its own side
        fwd, back = btl_for(p0, p1), btl_for(p1, p0)
        assert (fwd.src, fwd.dst) == (p0, p1)
        assert (back.src, back.dst) == (p1, p0)
        # a lookup leaves no per-pair state behind: endpoints are slotted
        # values built per call (no instance dict to cache labels in),
        # and looking up every ordered pair of a 16-rank world keeps
        # nothing alive
        assert not hasattr(fwd, "__dict__")
        c = Cluster(2, 0)
        ranks = [MpiProcess(r, c.nodes[r % 2], None, cfg) for r in range(16)]
        gc.collect()
        before = len(gc.get_objects())
        for a in ranks:
            for b in ranks:
                btl_for(a, b)
        gc.collect()
        assert len(gc.get_objects()) - before < 16


class TestAmDispatch:
    def test_unknown_handler_raises(self):
        c, p0, p1 = procs("sm-gpu")
        btl = SmBtl(p0, p1)
        btl.am_send("no.such.handler", {})
        with pytest.raises(Exception):
            c.sim.run()

    def test_duplicate_registration_rejected(self):
        c, p0, _ = procs("sm-gpu")
        p0.register_handler("h", lambda pkt, b: None)
        with pytest.raises(ValueError):
            p0.register_handler("h", lambda pkt, b: None)

    def test_payload_and_header_travel_uncopied(self, rng):
        """The receiver's copy is the wire's only one: the packet carries
        the sender's header and payload themselves, array or Buffer."""
        c, p0, p1 = procs("sm-gpu")
        btl = SmBtl(p0, p1)
        got = []
        p1.register_handler("x", lambda pkt, b: got.append(pkt))
        header = {"i": 0}
        data = rng.integers(0, 255, 64, dtype=np.uint8)
        seg = p0.node.host_memory.alloc(64)
        seg.write(data)
        btl.am_send("x", header, payload=data)
        btl.am_send("x", header, payload=seg)
        c.sim.run()
        arr, buf = got
        assert arr.header is header and buf.header is header
        assert np.shares_memory(arr.payload, data)
        assert np.array_equal(arr.payload, data)
        assert buf.payload is seg and buf.payload_bytes == 64
