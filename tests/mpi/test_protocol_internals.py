"""Unit tests for protocol plumbing: selection, side info, staging pool."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.datatype.ddt import contiguous, vector
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
from repro.mpi.protocols.ipc_rdma import transfer_mode


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

    def test_payload_snapshot_semantics(self, rng):
        c, p0, p1 = procs("sm-gpu")
        btl = SmBtl(p0, p1)
        got = []
        p1.register_handler("x", lambda pkt, b: got.append(pkt.payload.copy()))
        data = rng.integers(0, 255, 64, dtype=np.uint8)
        buf = data.copy()
        btl.am_send("x", {}, payload=buf)
        buf[:] = 0  # mutate after send: the wire carries the snapshot
        c.sim.run()
        assert np.array_equal(got[0], data)
