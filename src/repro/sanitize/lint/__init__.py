"""Project lint pass — stdlib ``ast`` only, no third-party dependencies.

Three rules, each guarding an invariant the simulation depends on:

``SAN-L001`` **determinism** (``repro/sim``, ``repro/mpi``,
    ``repro/gpu_engine``): no wall-clock reads (``time.time`` /
    ``time_ns`` / ``monotonic`` / ``perf_counter``, ``datetime.now`` /
    ``utcnow``), no ambient randomness (``random.*``, ``np.random.*``,
    ``os.urandom``, ``uuid.uuid4``), and no iteration over ``set``
    expressions (set iteration order varies with hash seeding).  The
    simulator's virtual clock and seeded RNGs are the only legal sources;
    a single wall-clock read makes every schedule — and therefore every
    race/HB verdict — unreproducible.

``SAN-L002`` **Buffer API** (``repro/mpi/protocols``): no raw
    ``bytearray(...)`` construction.  Protocol code must move payload
    through :class:`repro.hw.memory.Buffer` views so the memory
    sanitizer's shadow state (and in-use accounting) sees every copy.

``SAN-L003`` **metric identity** (everywhere scanned): a metric name
    string must not be registered under two different instrument kinds
    (``counter`` vs ``gauge`` vs ``histogram`` vs ``timer``).  The
    registry raises at runtime only if the two registrations actually
    execute in one process; the lint catches the conflict statically.

``SAN-L004`` **canonical identity** (everywhere scanned except
    ``repro/datatype`` internals): no ``.type_id`` access.  ``type_id``
    is a per-construction global counter — keying a cache or dict on it
    makes structurally identical datatypes look distinct (the
    identity-keyed DevCache bug) and leaks construction order into
    output.  Use :func:`repro.datatype.canonical.canonical_key` for
    cache identity and ``display_id`` for human-readable ids.

``SAN-L005`` **blocking self-send** (everywhere scanned): no
    ``yield x.send(..., dest=<own rank>)`` (or directly-yielded
    ``isend``).  A blocking send to yourself is a wait-for self-cycle:
    over the eager limit the rendezvous CTS never comes, because the
    rank that must post the matching receive is blocked in the send —
    the runtime verifier reports it as a one-rank deadlock cycle.
    Issue the isend first, post the receive, then wait both requests
    (cf. the own-block legs of ``_fan_in`` in
    ``repro/mpi/collectives.py``).

``SAN-L006`` **dropped request** (everywhere scanned): the
    :class:`~repro.mpi.requests.Request` returned by ``isend`` /
    ``irecv`` must be waited.  A request discarded as a bare expression
    statement, or bound to a name that is never read again, can never
    be completed-checked — exactly the leak the finalize-time audit
    (``MpiWorld.finalize``) flags at runtime as
    ``verify.request_leak``; this rule catches the shape statically.
"""

from __future__ import annotations

import ast
import os
from typing import NamedTuple

__all__ = ["LintViolation", "run_lint", "lint_file", "iter_py_files"]

#: directories (path fragments) where SAN-L001 determinism rules apply
DETERMINISM_DIRS = ("repro/sim", "repro/mpi", "repro/gpu_engine")
#: path fragment where SAN-L002 applies
PROTOCOL_DIR = "repro/mpi/protocols"
#: path fragment exempt from SAN-L004 (type_id's owning package)
DATATYPE_DIR = "repro/datatype"

#: dotted-call prefixes that read wall clocks or ambient entropy
_NONDET_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "os.urandom",
    "uuid.uuid4",
)
_NONDET_PREFIXES = (
    "random.",
    "np.random.",
    "numpy.random.",
)
_METRIC_KINDS = ("counter", "gauge", "histogram", "timer")


class LintViolation(NamedTuple):
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _dotted(node: ast.AST) -> str:
    """Flatten an attribute chain rooted at a Name into 'a.b.c' ('' if not)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def _call_attr(node: ast.AST) -> str:
    """The method name of an ``x.method(...)`` call ('' otherwise)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _call_arg(call: ast.Call, kw: str, pos: int):
    """Keyword ``kw`` of ``call``, falling back to positional ``pos``."""
    for k in call.keywords:
        if k.arg == kw:
            return k.value
    if len(call.args) > pos:
        return call.args[pos]
    return None


def _own_nodes(fn: ast.AST):
    """Every node of ``fn``'s body excluding nested function/lambda bodies."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _lint_requests(path: str, tree: ast.AST) -> list:
    """SAN-L005 / SAN-L006: per-function request-discipline checks."""
    out: list = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # names bound from ``<x>.rank`` count as "own rank" for SAN-L005
        self_ranks = set()
        for node in _own_nodes(fn):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "rank"
            ):
                self_ranks.add(node.targets[0].id)
        #: (name, line) of requests bound to a never-read name
        pending: list = []
        for node in _own_nodes(fn):
            if isinstance(node, ast.Expr):
                val = node.value
                if _call_attr(val) in ("isend", "irecv"):
                    out.append(
                        LintViolation(
                            path,
                            node.lineno,
                            "SAN-L006",
                            f"the Request returned by .{val.func.attr}() is "
                            f"discarded — it can never be waited or "
                            f"completion-checked (the finalize audit flags "
                            f"this at runtime as verify.request_leak); bind "
                            f"it and yield/wait_all it",
                        )
                    )
                elif isinstance(val, ast.Yield) and _call_attr(val.value) in (
                    "send",
                    "isend",
                ):
                    dest = _call_arg(val.value, "dest", 3)
                    is_self = (
                        isinstance(dest, ast.Attribute) and dest.attr == "rank"
                    ) or (isinstance(dest, ast.Name) and dest.id in self_ranks)
                    if is_self:
                        out.append(
                            LintViolation(
                                path,
                                node.lineno,
                                "SAN-L005",
                                "blocking send to own rank: a rendezvous "
                                "self-send deadlocks — the rank that must "
                                "post the matching receive is blocked in "
                                "this send (a wait-for self-cycle); isend "
                                "first, recv, then wait both requests (cf. "
                                "repro/mpi/collectives.py _fan_in)",
                            )
                        )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _call_attr(node.value) in ("isend", "irecv")
            ):
                pending.append(
                    (node.targets[0].id, node.lineno, node.value.func.attr)
                )
        if pending:
            # loads anywhere in the function (closures included) count
            loads = {
                n.id
                for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for name, line, attr in pending:
                if name not in loads:
                    out.append(
                        LintViolation(
                            path,
                            line,
                            "SAN-L006",
                            f"Request {name!r} from .{attr}() is never read "
                            f"again — it can never be waited or "
                            f"completion-checked (the finalize audit flags "
                            f"this at runtime as verify.request_leak)",
                        )
                    )
    return out


def lint_file(path: str, source: str, metric_sites: dict) -> list:
    """Lint one file; appends metric registrations into ``metric_sites``
    (name -> list of (kind, path, line)) for the cross-file SAN-L003 pass."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [LintViolation(path, exc.lineno or 0, "SAN-L000", f"syntax error: {exc.msg}")]

    norm = _norm(path)
    check_determinism = any(frag in norm for frag in DETERMINISM_DIRS)
    check_protocol = PROTOCOL_DIR in norm
    check_type_id = DATATYPE_DIR not in norm
    out: list = []

    for node in ast.walk(tree):
        if (
            check_type_id
            and isinstance(node, ast.Attribute)
            and node.attr == "type_id"
        ):
            out.append(
                LintViolation(
                    path,
                    node.lineno,
                    "SAN-L004",
                    "type_id is a per-construction counter, not an "
                    "identity: keying on it makes structurally identical "
                    "datatypes look distinct and leaks construction order "
                    "into output; use repro.datatype.canonical."
                    "canonical_key (caches) or .display_id (display)",
                )
            )
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if check_determinism and name:
                if name in _NONDET_CALLS or any(
                    name.startswith(p) for p in _NONDET_PREFIXES
                ):
                    out.append(
                        LintViolation(
                            path,
                            node.lineno,
                            "SAN-L001",
                            f"nondeterministic call {name}() in simulation "
                            f"code; use the simulator clock / a seeded "
                            f"numpy Generator threaded through config",
                        )
                    )
            if (
                check_protocol
                and isinstance(node.func, ast.Name)
                and node.func.id == "bytearray"
            ):
                out.append(
                    LintViolation(
                        path,
                        node.lineno,
                        "SAN-L002",
                        "raw bytearray() in protocol code bypasses the "
                        "Buffer API (shadow memory and accounting cannot "
                        "see the copy); stage through Buffer views",
                    )
                )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_KINDS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                metric_sites.setdefault(node.args[0].value, []).append(
                    (node.func.attr, path, node.lineno)
                )
        elif check_determinism and isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            is_set = isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            )
            if is_set:
                out.append(
                    LintViolation(
                        path,
                        node.lineno,
                        "SAN-L001",
                        "iteration over a set expression in simulation "
                        "code; set order depends on hash seeding — "
                        "iterate a sorted() or list/dict instead",
                    )
                )
    out.extend(_lint_requests(path, tree))
    return out


def _metric_conflicts(metric_sites: dict) -> list:
    """Cross-file pass: one metric name, two instrument kinds."""
    out = []
    for name, sites in sorted(metric_sites.items()):
        kinds = sorted({kind for kind, _, _ in sites})
        if len(kinds) <= 1:
            continue
        for kind, path, line in sites:
            out.append(
                LintViolation(
                    path,
                    line,
                    "SAN-L003",
                    f"metric {name!r} registered as .{kind}() here but "
                    f"also as {', '.join('.' + k + '()' for k in kinds if k != kind)} "
                    f"elsewhere; one name must map to one instrument kind",
                )
            )
    return out


def iter_py_files(paths) -> list:
    """Expand files/directories into a sorted list of .py files.

    Nonexistent paths are passed through rather than dropped, so
    :func:`run_lint` reports them as ``SAN-L000`` and the CLI exits
    non-zero — a typo'd path must not read as a clean scan.
    """
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for n in sorted(names):
                    if n.endswith(".py"):
                        files.append(os.path.join(root, n))
        elif p.endswith(".py") or not os.path.exists(p):
            files.append(p)
    return files


def run_lint(paths) -> list:
    """Lint every .py file under ``paths``; returns all violations."""
    metric_sites: dict = {}
    out: list = []
    for path in iter_py_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            out.append(LintViolation(path, 0, "SAN-L000", f"unreadable: {exc}"))
            continue
        out.extend(lint_file(path, source, metric_sites))
    out.extend(_metric_conflicts(metric_sites))
    out.sort(key=lambda v: (v.path, v.line, v.code))
    return out
