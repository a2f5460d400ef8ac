"""MPI derived datatypes and the CPU datatype engine.

This package reimplements the parts of Open MPI's datatype machinery the
paper builds on:

* the full MPI type-constructor algebra (:mod:`repro.datatype.ddt`) —
  contiguous, vector/hvector, indexed/hindexed/indexed_block, struct,
  subarray, resized;
* the flattened *typemap* representation (:mod:`repro.datatype.typemap`) —
  coalesced (displacement, length) spans in pack order, computed with
  vectorized NumPy span algebra so million-block types stay cheap;
* the **canonical IR** (:mod:`repro.datatype.canonical`) — the normal
  form of ``(datatype, count)`` with a stable structural key (what the
  DevCache and fast-path selection key on) and the compiled pack-plan
  menu (memcpy, strided2d, gather) chosen by a small cost model;
* the **convertor** (:mod:`repro.datatype.convertor`) — Open MPI's
  fragment-oriented pack/unpack interface over those compiled plans,
  random-access at any byte position for fragment pipelining.

Open MPI's stack-based representation ("a datatype is described by a
concise stack-based representation", Section 3) survives as a frozen
test oracle, ``tests/datatype/reference_stack.py``: property tests hold
every plan to its bytes.
"""

from repro.datatype.primitives import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    INT64,
    SHORT,
    Primitive,
)
from repro.datatype.ddt import (
    Datatype,
    contiguous,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.datatype.typemap import Spans
from repro.datatype.canonical import (
    CanonicalForm,
    canonical_key,
    canonicalize,
    display_id,
    select_cpu_plan,
    select_gpu_plan,
)
from repro.datatype.convertor import Convertor, pack_bytes, unpack_bytes

__all__ = [
    "Primitive",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "INT64",
    "FLOAT",
    "DOUBLE",
    "Datatype",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "struct",
    "subarray",
    "resized",
    "Spans",
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    "display_id",
    "select_cpu_plan",
    "select_gpu_plan",
    "Convertor",
    "pack_bytes",
    "unpack_bytes",
]
