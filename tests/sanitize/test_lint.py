"""Tests for the project lint pass (``python -m repro.sanitize.lint``)."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.sanitize.lint import LintViolation, lint_file, run_lint

SIM_PATH = "src/repro/sim/fake.py"
PROTO_PATH = "src/repro/mpi/protocols/fake.py"
OTHER_PATH = "src/repro/obs/fake.py"


def lint_src(path: str, source: str) -> list:
    sites: dict = {}
    return lint_file(path, source, sites)


class TestDeterminismRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\nt = time.time()\n",
            "import time\nt = time.perf_counter()\n",
            "import random\nx = random.random()\n",
            "import numpy as np\nx = np.random.rand()\n",
            "import os\nx = os.urandom(8)\n",
            "for x in {1, 2, 3}:\n    pass\n",
            "for x in set(items):\n    pass\n",
        ],
    )
    def test_nondeterminism_flagged_in_sim_dirs(self, snippet):
        out = lint_src(SIM_PATH, snippet)
        assert [v.code for v in out] == ["SAN-L001"]

    def test_same_code_allowed_outside_sim_dirs(self):
        out = lint_src(OTHER_PATH, "import time\nt = time.time()\n")
        assert not out

    def test_sim_clock_is_legal(self):
        out = lint_src(SIM_PATH, "now = sim.now\nrng.integers(0, 10)\n")
        assert not out

    def test_sorted_set_iteration_is_legal(self):
        out = lint_src(SIM_PATH, "for x in sorted({1, 2}):\n    pass\n")
        assert not out


class TestBufferApiRule:
    def test_bytearray_flagged_in_protocols(self):
        out = lint_src(PROTO_PATH, "payload = bytearray(64)\n")
        assert [v.code for v in out] == ["SAN-L002"]

    def test_bytearray_allowed_elsewhere(self):
        assert not lint_src(OTHER_PATH, "payload = bytearray(64)\n")


class TestMetricIdentityRule:
    def test_one_name_two_kinds_flagged(self):
        sites: dict = {}
        lint_file(OTHER_PATH, "m.counter('pml.x').inc()\n", sites)
        lint_file(SIM_PATH, "m.gauge('pml.x').set(1)\n", sites)
        from repro.sanitize.lint import _metric_conflicts

        out = _metric_conflicts(sites)
        assert {v.code for v in out} == {"SAN-L003"}
        assert len(out) == 2  # one violation per conflicting site

    def test_one_name_one_kind_clean(self):
        sites: dict = {}
        lint_file(OTHER_PATH, "m.counter('pml.x').inc()\nm.counter('pml.x').inc()\n", sites)
        from repro.sanitize.lint import _metric_conflicts

        assert not _metric_conflicts(sites)


class TestCanonicalIdentityRule:
    DT_PATH = "src/repro/datatype/ddt.py"

    @pytest.mark.parametrize(
        "snippet",
        [
            "cache[dt.type_id] = units\n",
            "key = (dt.type_id, count)\n",
            "print(self.dt.type_id)\n",
        ],
    )
    def test_type_id_flagged_outside_datatype_package(self, snippet):
        out = lint_src(OTHER_PATH, snippet)
        assert [v.code for v in out] == ["SAN-L004"]
        assert "canonical_key" in out[0].message

    def test_type_id_allowed_inside_datatype_package(self):
        assert not lint_src(self.DT_PATH, "seen.add(dt.type_id)\n")

    def test_canonical_key_is_legal_everywhere(self):
        out = lint_src(
            OTHER_PATH,
            "key = canonical_key(dt, count, s)\nname = dt.display_id\n",
        )
        assert not out


class TestSyntaxRule:
    def test_unparsable_file_reported(self):
        out = lint_src(SIM_PATH, "def broken(:\n")
        assert [v.code for v in out] == ["SAN-L000"]


class TestRunLint:
    def test_directory_sweep(self, tmp_path):
        bad_dir = tmp_path / "src" / "repro" / "sim"
        bad_dir.mkdir(parents=True)
        (bad_dir / "bad.py").write_text("import time\nt = time.time()\n")
        out = run_lint([str(tmp_path)])
        assert len(out) == 1 and out[0].code == "SAN-L001"

    def test_violation_str_is_actionable(self):
        v = LintViolation("a/b.py", 7, "SAN-L001", "nondeterministic call")
        assert str(v) == "a/b.py:7: SAN-L001 nondeterministic call"


class TestSelfSendRule:
    def test_yield_send_to_own_rank_flagged(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    yield mpi.send(buf, dt, 1, dest=mpi.rank, tag=0)\n",
        )
        assert [v.code for v in out] == ["SAN-L005"]

    def test_rank_alias_flagged(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    me = mpi.rank\n"
            "    yield mpi.send(buf, dt, 1, dest=me, tag=0)\n",
        )
        assert [v.code for v in out] == ["SAN-L005"]

    def test_isend_to_self_is_legal(self):
        # the collectives' pattern: isend, recv, then wait the request
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    req = mpi.isend(buf, dt, 1, dest=mpi.rank, tag=0)\n"
            "    yield mpi.recv(buf, dt, 1, source=mpi.rank, tag=0)\n"
            "    yield req\n",
        )
        assert not out

    def test_send_to_peer_is_legal(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt, peer):\n"
            "    yield mpi.send(buf, dt, 1, dest=peer, tag=0)\n",
        )
        assert not out


class TestDroppedRequestRule:
    def test_discarded_request_flagged(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    mpi.isend(buf, dt, 1, dest=1, tag=0)\n",
        )
        assert [v.code for v in out] == ["SAN-L006"]

    def test_never_read_binding_flagged(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    r = mpi.irecv(buf, dt, 1, source=0, tag=0)\n"
            "    yield mpi.barrier()\n",
        )
        assert [v.code for v in out] == ["SAN-L006"]

    def test_waited_request_is_legal(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    r = mpi.irecv(buf, dt, 1, source=0, tag=0)\n"
            "    yield r\n",
        )
        assert not out

    def test_request_in_collection_is_legal(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, bufs, dt):\n"
            "    reqs = [mpi.irecv(b, dt, 1) for b in bufs]\n"
            "    yield mpi.wait_all(*reqs)\n",
        )
        assert not out

    def test_closure_wait_is_legal(self):
        out = lint_src(
            OTHER_PATH,
            "def f(mpi, buf, dt):\n"
            "    r = mpi.isend(buf, dt, 1, dest=1)\n"
            "    def waiter():\n"
            "        yield r\n"
            "    return waiter\n",
        )
        assert not out


class TestOneConcurrentModuleRule:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import threading\n",
            "import _thread\n",
            "import concurrent.futures\n",
            "from concurrent.futures import ThreadPoolExecutor\n",
            "from concurrent import futures\n",
            "import multiprocessing as mp\n",
            "from multiprocessing.pool import Pool\n",
            "import asyncio\n",
            "def f():\n    import threading\n",
        ],
    )
    def test_concurrency_import_flagged(self, snippet):
        for path in (SIM_PATH, PROTO_PATH, OTHER_PATH):
            out = lint_src(path, snippet)
            assert [v.code for v in out] == ["SAN-L007"], path

    def test_the_byte_mover_may_start_its_helper(self):
        source = "import os\nimport queue\nimport threading\n"
        assert not lint_src("src/repro/bytemove.py", source)

    def test_other_imports_are_legal(self):
        out = lint_src(
            OTHER_PATH,
            "import queue\nimport os\nfrom . import threading\n"
            "from .asyncio import loop\n",
        )
        assert not out


class TestMissingPathRule:
    def test_nonexistent_path_is_a_violation(self):
        out = run_lint(["no/such/dir", "ghost.py"])
        assert [v.code for v in out] == ["SAN-L000", "SAN-L000"]

    def test_cli_exits_nonzero_on_missing_path(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.lint", "no_such_path"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "SAN-L000" in proc.stdout


class TestOutputFormats:
    def _violating_tree(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        return tmp_path

    def test_json_format(self, tmp_path):
        import json

        root = self._violating_tree(tmp_path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.sanitize.lint",
                str(root), "--format", "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["count"] == 1 and doc["ok"] is False
        (v,) = doc["violations"]
        assert v["code"] == "SAN-L001" and v["line"] == 2

    def test_json_format_clean(self):
        import json

        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.sanitize.lint",
                "src", "--format", "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_github_format(self, tmp_path):
        root = self._violating_tree(tmp_path)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.sanitize.lint",
                str(root), "--format", "github",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        line = proc.stdout.strip().splitlines()[0]
        assert line.startswith("::error file=")
        assert "title=SAN-L001" in line and ",line=2," in line


class TestRepoIsClean:
    def test_src_tree_passes_lint(self):
        """The CI gate: the whole src tree lints clean."""
        assert run_lint(["src"]) == []

    def test_cli_exit_codes(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.lint", "src"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.sanitize.lint", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "SAN-L001" in proc.stdout
