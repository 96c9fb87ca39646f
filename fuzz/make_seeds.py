#!/usr/bin/env python3
"""Regenerates the committed seed corpus under fuzz/corpus/.

Each fuzz target gets a handful of well-formed inputs (so coverage
starts inside the interesting code, not at the magic-number check) plus
the malformed shapes that found real bugs — those also live inline in
tests/decode_corpus_test.cc as named regression tests.

The CRC of every framed format is CRC-32C (Castagnoli), which matches
common/coding.h's Crc32c; the version-1 WAL and ODEACC01 seeds carry
zlib's CRC-32, as those formats did. Run from the repo root:

    python3 fuzz/make_seeds.py
"""

import os
import struct
import zlib

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def _crc32c_table():
    table = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
        table.append(crc)
    return table


CRC32C_TABLE = _crc32c_table()


def crc32c(data: bytes, seed: int = 0) -> int:
    """CRC-32C with zlib.crc32's seed-chaining contract."""
    crc = seed ^ 0xFFFFFFFF
    for b in data:
        crc = (crc >> 8) ^ CRC32C_TABLE[(crc ^ b) & 0xFF]
    return crc ^ 0xFFFFFFFF


def varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def zigzag(n: int) -> int:
    return ((n << 1) ^ (n >> 63)) & 0xFFFFFFFFFFFFFFFF


def lp(b: bytes) -> bytes:
    """Length-prefixed bytes."""
    return varint(len(b)) + b


# --- value codec (tags match ValueKind in src/odb/value.h) -------------

K_NULL, K_BOOL, K_INT, K_REAL, K_STRING, K_BLOB = 0, 1, 2, 3, 4, 5
K_STRUCT, K_ARRAY, K_SET, K_REF = 6, 7, 8, 9


def v_null() -> bytes:
    return bytes([K_NULL])


def v_int(n: int) -> bytes:
    return bytes([K_INT]) + varint(zigzag(n))


def v_real(x: float) -> bytes:
    return bytes([K_REAL]) + struct.pack("<d", x)


def v_string(s: str) -> bytes:
    return bytes([K_STRING]) + lp(s.encode())


def v_struct(fields) -> bytes:
    out = bytes([K_STRUCT]) + varint(len(fields))
    for name, value in fields:
        out += lp(name.encode()) + value
    return out


def v_array(elements) -> bytes:
    return bytes([K_ARRAY]) + varint(len(elements)) + b"".join(elements)


def v_ref(cluster: int, local: int, cls: str) -> bytes:
    return bytes([K_REF]) + varint(cluster) + varint(local) + lp(cls.encode())


def value_seeds():
    emp = v_struct(
        [
            ("name", v_string("agrawal")),
            ("salary", v_real(90000.0)),
            ("dept", v_ref(1, 42, "Dept")),
            ("projects", v_array([v_string("ode"), v_string("odeview")])),
        ]
    )
    yield "struct_employee", emp
    yield "int_negative", v_int(-123456789)
    yield "null", v_null()
    yield "bool_true", bytes([K_BOOL, 1])
    # The crasher shape: a struct claiming 2^60 fields with no bytes
    # behind the claim. Pre-fix this reserve()d ~exabytes.
    yield "forged_field_count", bytes([K_STRUCT]) + varint(1 << 60)
    # Nesting right at the depth cap boundary.
    deep = v_int(7)
    for _ in range(63):
        deep = v_array([deep])
    yield "deep_nesting", deep


# --- object record -----------------------------------------------------


def obj_record(version, history, current) -> bytes:
    out = varint(version) + varint(len(history))
    for ver, val in history:
        out += varint(ver) + lp(val)
    return out + current


def object_record_seeds():
    yield "simple", obj_record(3, [(1, v_int(10)), (2, v_int(20))], v_int(30))
    yield "no_history", obj_record(1, [], v_string("fresh"))
    # Forged history count with an empty tail (the reserve() crasher).
    yield "forged_history_count", varint(1) + varint(1 << 59)
    # History entry whose length prefix overruns the buffer.
    yield "lying_history_len", varint(2) + varint(1) + varint(1) + varint(200) + b"xy"


# --- slotted page ------------------------------------------------------

PAGE_USABLE = 4096 - 8  # kPageUsableSize (page minus LSN trailer)
HEADER = 12
SLOT = 4


def page(next_page, slots, records):
    """slots: list of (offset, length); records: {offset: bytes}."""
    buf = bytearray(4096)
    struct.pack_into("<I", buf, 0, next_page)
    struct.pack_into("<H", buf, 4, len(slots))
    live = [s for s in slots if s[0] != 0]
    free_end = min((s[0] for s in live), default=PAGE_USABLE)
    struct.pack_into("<H", buf, 6, free_end)
    struct.pack_into("<H", buf, 8, len(live))
    for i, (off, length) in enumerate(slots):
        struct.pack_into("<HH", buf, HEADER + i * SLOT, off, length)
    for off, data in records.items():
        buf[off : off + len(data)] = data
    return bytes(buf)


def slotted_page_seeds():
    rec = b"employee-record-bytes"
    off = PAGE_USABLE - len(rec)
    yield "one_record", page(0xFFFFFFFF, [(off, len(rec))], {off: rec})
    yield "empty", page(0xFFFFFFFF, [], {})
    # The crasher shapes: slot_count far past what fits in the page,
    # and a slot whose [offset, offset+len) runs off the end.
    hostile = bytearray(page(0, [], {}))
    struct.pack_into("<H", hostile, 4, 0xFFFF)
    yield "forged_slot_count", bytes(hostile)
    oob = bytearray(page(0, [(4000, 500)], {}))
    yield "slot_past_end", bytes(oob)


# --- WAL ---------------------------------------------------------------

WAL_MAGIC = 0x4F4445574C303155
WAL_CRC = {1: zlib.crc32, 2: crc32c}  # checksum by log version


def wal_header(base_lsn=0, version=2) -> bytes:
    h = struct.pack("<QII", WAL_MAGIC, version, 0) + struct.pack("<Q", base_lsn)
    return h + struct.pack("<I", WAL_CRC[version](h)) + struct.pack("<I", 0)


def wal_record(rtype: int, txn: int, payload: bytes, version=2) -> bytes:
    crc = WAL_CRC[version]
    body = struct.pack("<BQ", rtype, txn)
    checksum = crc(payload, crc(body))
    return struct.pack("<I", len(payload)) + body + struct.pack("<I", checksum) + payload


def wal_seeds():
    page_img = struct.pack("<I", 0) + b"\x42" * 4096
    committed = wal_header() + wal_record(1, 7, page_img) + wal_record(2, 7, b"")
    yield "committed_txn", committed
    yield "header_only", wal_header()
    yield "uncommitted_txn", wal_header() + wal_record(1, 9, page_img)
    yield "torn_tail", committed + wal_record(2, 8, b"")[:9]
    # The crasher shape: a committed image for page 2^31 — recovery
    # must refuse to grow the file toward it, not try.
    forged = struct.pack("<I", 1 << 31) + b"\x00" * 4096
    yield "forged_page_id", wal_header() + wal_record(1, 3, forged) + wal_record(
        2, 3, b""
    )
    # A committed transaction in a version-1 log: recovery must refuse
    # it with a typed status, not drop it as a torn tail.
    yield "v1_header", (
        wal_header(version=1)
        + wal_record(1, 7, page_img, version=1)
        + wal_record(2, 7, b"", version=1)
    )


# --- ODEACC02 access trace ---------------------------------------------


def frame(payload: bytes, crc=crc32c) -> bytes:
    return struct.pack("<I", len(payload)) + payload + struct.pack("<I", crc(payload))


def access_trace_seeds():
    classdef = bytes([1]) + varint(1) + lp(b"Employee")
    event = (
        bytes([2])
        + varint(0)  # op
        + varint(1)  # cluster
        + varint(42)  # local
        + varint(3)  # page
        + varint(1)  # class id
        + varint(5)  # session
        + varint(6)  # trace
        + varint(1000)  # ts
    )
    affinity = (
        bytes([3])
        + varint(1)
        + varint(42)
        + varint(1)
        + varint(1)
        + varint(43)
        + varint(1)
    )
    yield "full_trace", b"ODEACC02" + frame(classdef) + frame(event) + frame(affinity)
    yield "magic_only", b"ODEACC02"
    # Frame length claiming 2^31 bytes in a 30-byte file.
    yield "lying_frame_len", b"ODEACC02" + struct.pack("<I", 1 << 31) + b"\x00" * 18
    # Right CRC, wrong interior: event record cut mid-varint.
    torn = bytes([2]) + varint(0) + b"\xff"
    yield "torn_event", b"ODEACC02" + frame(torn)
    # An ODEACC01 capture (zlib CRC-32 frames): a typed version error.
    yield "v1_magic", b"ODEACC01" + frame(classdef, crc=zlib.crc32)


# --- HTTP request line -------------------------------------------------


def http_seeds():
    yield "get_metrics", b"GET /metrics HTTP/1.0\r\n\r\n"
    yield "get_healthz", b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    yield "no_spaces", b"GARBAGE\r\n"
    yield "spaces_only", b"   \r\n"
    yield "nul_bytes", b"GET /\x00\x01 HTTP/1.0\r\n"


# --- DDL ---------------------------------------------------------------


def ddl_seeds():
    yield "employee", (
        b"persistent class Employee {\n"
        b"public:\n  string name;\n  real salary;\n"
        b"  set<Project*> projects;\n};\n"
    )
    yield "nested_containers", b"class T { set<array<set<int>, 4>> x; };"
    # The crasher shape: nesting far past the depth cap.
    yield "deep_type_nesting", b"class T { " + b"set<" * 600 + b"int" + b">" * 600 + b" x; };"
    yield "unterminated_string", b'class T { string x = "abc'
    # Base graphs the class layouts must resolve before Validate rejects
    # them: a cycle, self-derivation, and bases that name no class.
    yield "cyclic_bases", (
        b"class a : public b { int x; };\nclass b : public a { int y; };\n"
    )
    yield "self_base", b"class s : public s { int x; };\n"
    yield "dangling_base", (
        b"class d : public ghost, public other { int x; };\n"
        b"class e : public d, public ghost { int y; };\n"
    )
    # A long valid chain: resolving it must not recurse per link.
    yield "deep_chain", b"class c0 { int m0; };\n" + b"".join(
        b"class c%d : public c%d { int m%d; };\n" % (i, i - 1, i)
        for i in range(1, 200)
    )
    # Classes that contain themselves by value: Validate must reject
    # them, or DefaultInstance recurses until the stack overflows.
    yield "by_value_self", b"class a { public: a inner; };\n"
    yield "by_value_mutual", (
        b"class a { public: b x; };\nclass b { public: a y; };\n"
    )
    yield "by_value_array", b"class a { public: a arr[2]; };\n"
    yield "by_value_subclass", (
        b"class a { public: b inner; };\n"
        b"class b : public a { public: int n; };\n"
    )


# --- predicate ---------------------------------------------------------


def predicate_seeds():
    yield "simple", b'name == "agrawal" && salary > 50000'
    yield "contains", b'projects contains "ode"'
    yield "negation", b"!(a == 1 || b != 2)"
    # The crasher shape: parens past the depth cap.
    yield "deep_parens", b"(" * 4000 + b"a == 1" + b")" * 4000


TARGETS = {
    "value_codec": value_seeds,
    "object_record": object_record_seeds,
    "slotted_page": slotted_page_seeds,
    "wal_replay": wal_seeds,
    "access_trace": access_trace_seeds,
    "http_request": http_seeds,
    "ddl": ddl_seeds,
    "predicate": predicate_seeds,
}


def main():
    for target, generator in TARGETS.items():
        directory = os.path.join(ROOT, target)
        os.makedirs(directory, exist_ok=True)
        for name, data in generator():
            with open(os.path.join(directory, name), "wb") as f:
                f.write(data)
            print(f"{target}/{name}: {len(data)}B")


if __name__ == "__main__":
    main()
