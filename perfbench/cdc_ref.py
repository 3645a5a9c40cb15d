"""The benchmark's own FastCDC v2020 cut rule and chunk-shingle Jaccard.

Written apart from the engine so the benchmark can check it: nothing here
imports ``fastcdc_rs_ray``.  The gear table is derived by the rule the
reference publishes (MD5 of 64 copies of the byte value, high 8 bytes,
big-endian) and the masks are the reference's published spread-bit
constants.

:func:`chunk_scalar` is the plain cut loop, two bytes per roll, exactly
as the reference writes it.  The kernel check compares the engine's chunk
rows with it, and the generator's exact pair-Jaccard table is built on it.
"""

from __future__ import annotations

import hashlib
import math

M64 = (1 << 64) - 1

# Spread-bit masks, indexed by effective bits (reference src/v2020).
MASKS = (
    0, 0, 0, 0, 0,
    0x0000000001804110, 0x0000000001803110, 0x0000000018035100,
    0x0000001800035300, 0x0000019000353000, 0x0000590003530000,
    0x0000D90003530000, 0x0000D90103530000, 0x0000D90303530000,
    0x0000D90313530000, 0x0000D90F03530000, 0x0000D90303537000,
    0x0000D90703537000, 0x0000D90707537000, 0x0000D91707537000,
    0x0000D91747537000, 0x0000D91767537000, 0x0000D93767537000,
    0x0000D93777537000, 0x0000D93777577000, 0x0000DB3777577000,
)

GEAR = [int.from_bytes(hashlib.md5(bytes([b]) * 64).digest()[:8], "big")
        for b in range(256)]
GEAR_LS = [(g << 1) & M64 for g in GEAR]

# The engine's transcript chunk sizes and the MinHash shingle width.
MIN_SIZE, AVG_SIZE, MAX_SIZE, NORM_LEVEL = 64, 256, 1024, 1
SHINGLE_K = 3

_BITS = int(round(math.log2(AVG_SIZE)))
MASK_S = MASKS[_BITS + NORM_LEVEL]
MASK_L = MASKS[_BITS - NORM_LEVEL]
MASK_S_LS = (MASK_S << 1) & M64
MASK_L_LS = (MASK_L << 1) & M64


def cut_scalar(buf: bytes, pos: int, end: int) -> tuple[int, int]:
    """(length, hash) of the chunk starting at ``pos`` (reference v2020
    cut loop: hashing starts at min_size, the matched byte ends the chunk
    exclusive, a tail of at most min_size bytes has hash 0)."""
    remaining = end - pos
    if remaining <= MIN_SIZE:
        return remaining, 0
    center = AVG_SIZE
    rem = remaining
    if rem > MAX_SIZE:
        rem = MAX_SIZE
    elif rem < center:
        center = rem
    index = MIN_SIZE // 2
    h = 0
    while index < center // 2:
        a = index * 2
        h = ((h << 2) + GEAR_LS[buf[pos + a]]) & M64
        if h & MASK_S_LS == 0:
            return a, h
        h = (h + GEAR[buf[pos + a + 1]]) & M64
        if h & MASK_S == 0:
            return a + 1, h
        index += 1
    while index < rem // 2:
        a = index * 2
        h = ((h << 2) + GEAR_LS[buf[pos + a]]) & M64
        if h & MASK_L_LS == 0:
            return a, h
        h = (h + GEAR[buf[pos + a + 1]]) & M64
        if h & MASK_L == 0:
            return a + 1, h
        index += 1
    return rem, h


def chunk_scalar(buf: bytes) -> list[tuple[int, int, int]]:
    """[(offset, length, hash)] of one payload."""
    out = []
    pos = 0
    while pos < len(buf):
        length, h = cut_scalar(buf, pos, len(buf))
        out.append((pos, length, h))
        pos += length
    return out


def shingles(hashes) -> set:
    """k=3 shingles over a chunk-hash sequence; fewer chunks give one."""
    h = [int(x) for x in hashes]
    if not h:
        return set()
    k = min(SHINGLE_K, len(h))
    return {tuple(h[i:i + k]) for i in range(len(h) - k + 1)}


def jaccard(a: set, b: set) -> float:
    u = len(a | b)
    return len(a & b) / u if u else 1.0
