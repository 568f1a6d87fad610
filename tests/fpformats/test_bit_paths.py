"""Bit-level fast paths pinned byte for byte against their references.

* The bf16 carrier's ``enter``: a float32 cast, then the in-place bf16
  rounding; the cast's midpoint cases are redone by the reference.
* The fp8 rounders: one rounding of the float64 bit pattern, with a
  subnormal path and the generic path for NaN, infinity and overflow.
* ``tree_sum_rows``: a last level of at most fan-in sums is added without
  the zero padding the wider levels use.
"""

import sys

import numpy as np
import pytest

from repro.fpformats.arithmetic import FormatArithmetic
from repro.fpformats.quantize import carrier, quantize, rounder
from repro.fpformats.spec import get_format

FP8 = ("fp8_e4m3", "fp8_e5m2")


def same_bytes(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


def all_bf16_patterns() -> np.ndarray:
    narrow = (np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)).view(np.float32)
    with np.errstate(invalid="ignore"):
        return narrow.astype(np.float64)


# -- bf16 enter ----------------------------------------------------------------


def bf16_midpoints() -> np.ndarray:
    """Every finite bf16 midpoint: each non-negative finite pattern plus half
    its ulp (0x8000 in the float32 bits), both signs."""
    finite = np.arange(0, 0x7F80, dtype=np.uint32) << np.uint32(16)
    mids = (finite | np.uint32(0x8000)).view(np.float32).astype(np.float64)
    return np.concatenate([mids, -mids])


def test_enter_bfloat16_on_every_midpoint_and_its_neighbours():
    mids = bf16_midpoints()
    # Offsets far below float32's resolution: the float32 cast lands on the
    # midpoint, and only the float64 input knows which side it was on.
    nudged = [mids * (1.0 + s * 2.0**-40) for s in (-1, 1)]
    subnormal_step = 2.0**-160
    nudged += [mids + subnormal_step, mids - subnormal_step]
    x = np.concatenate([mids, *nudged])
    with np.errstate(all="ignore"):
        got = carrier("bf16").enter(x).astype(np.float64)
    assert same_bytes(got, quantize(x, "bf16"))


def test_enter_bfloat16_keeps_the_shape_and_reuses_the_carry():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 5)) * 1e3
    x[0, 0] = bf16_midpoints()[1000] * (1 + 2.0**-40)
    x[1, 1] = np.nan
    carry = np.empty(x.shape, dtype=np.uint32)
    got = carrier("bf16").enter(x, carry)
    assert got.shape == x.shape and got.dtype == np.float32
    assert same_bytes(got.astype(np.float64), quantize(x, "bf16"))
    assert same_bytes(carrier("bf16").enter(np.float64(1.0 + 2.0**-8)), np.float32(1.0))


# -- fp8 rounders --------------------------------------------------------------


@pytest.mark.parametrize("fmt", FP8)
def test_fp8_rounder_on_every_bf16_pattern(fmt):
    """Every bf16 pattern: all of them in one array (NaNs force the generic
    path), then in blocks of 256 (most take the bit path, the blocks with
    NaN, infinity or overflow the generic one)."""
    x = all_bf16_patterns()
    rnd = rounder(fmt)
    with np.errstate(all="ignore"):
        assert same_bytes(rnd(x), quantize(x, fmt))
        for block in x.reshape(-1, 256):
            assert same_bytes(rnd(block), quantize(block, fmt))


@pytest.mark.parametrize("fmt", FP8)
def test_fp8_bit_path_without_the_generic_path(fmt, monkeypatch):
    """An array of finite values under the overflow threshold never reaches
    the generic path: every bf16 pattern in range, seeded float64 values
    across the subnormal and normal ranges, ties at both ends, and zeros."""
    spec = get_format(fmt)
    limit = spec.max_finite + 0.5 * 2.0 ** (spec.max_normal_exponent - spec.mantissa_bits)
    rng = np.random.default_rng(8)
    tiny = spec.min_positive_subnormal
    grid = np.arange(-64, 65) * tiny
    x = np.concatenate([
        all_bf16_patterns(),
        rng.standard_normal(1 << 14) * 10.0 ** rng.uniform(-8, 5, size=1 << 14),
        grid, grid + tiny / 2, grid - tiny / 2,
        [spec.max_finite, -spec.max_finite, np.nextafter(limit, 0.0), 0.0, -0.0, 5e-324],
    ])
    with np.errstate(invalid="ignore"):
        x = x[np.abs(x) < limit]
    want = np.asarray(quantize(x, fmt))

    def refuse(*args):
        raise AssertionError("generic path taken")

    # The package re-exports the function ``quantize`` under the module's name.
    monkeypatch.setattr(sys.modules["repro.fpformats.quantize"], "_quantize_generic", refuse)
    got = rounder(fmt)(x)
    assert same_bytes(got, want)
    assert same_bytes(rounder(fmt)(x.reshape(-1, 2)[:, ::-1]), want.reshape(-1, 2)[:, ::-1])


@pytest.mark.parametrize("fmt", FP8)
def test_fp8_rounder_sends_special_inputs_to_the_generic_path(fmt):
    spec = get_format(fmt)
    # A NaN whose pattern a carry would wrap onto zero, both infinities and
    # the exact overflow threshold (a tie that rounds to infinity).
    wraps = np.array([0xFFFF_FFFF_FFFF_FFFF, 0x7FFF_FFFF_FFFF_FFFF], dtype=np.uint64)
    limit = spec.max_finite + 0.5 * 2.0 ** (spec.max_normal_exponent - spec.mantissa_bits)
    for special in (*wraps.view(np.float64), np.inf, -np.inf, limit, -limit):
        x = np.array([1.0, special, 0.01])
        with np.errstate(all="ignore"):
            assert same_bytes(rounder(fmt)(x), quantize(x, fmt))
    assert rounder(fmt)(np.zeros((0, 3))).shape == (0, 3)


# -- adder tree ----------------------------------------------------------------


def padded_tree_sum_rows(rows: np.ndarray, fmt: str, k: int) -> np.ndarray:
    """The tree every level zero-padded to a multiple of the fan-in."""
    rnd = rounder(fmt)
    count, width = rows.shape
    current = rows.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        while width > 1:
            groups = -(-width // k)
            padded = np.zeros((count, groups * k))
            padded[:, :width] = current
            level = padded.reshape(count, groups, k)
            while level.shape[-1] > 1:
                level = level[..., 0::2] + level[..., 1::2]
            current = rnd(level.reshape(count, groups))
            width = groups
    return current[:, 0]


def tree_rows(fmt: str, width: int, rng) -> np.ndarray:
    spec = get_format(fmt)
    rows = rng.standard_normal((6, width)) * 10.0 ** rng.uniform(-3, 3, size=(6, 1))
    rows[1] = -0.0                                   # sums to -0 without padding
    rows[2] = np.where(np.arange(width) % 2, 0.0, -0.0)
    rows[3] = rows[0]
    rows[3, width // 2 :] = -rows[0, : width - width // 2]  # cancels to zero sums
    rows[4, 0] = np.inf
    rows[4, -1] = -np.inf if width > 1 else np.nan
    rows[5] = spec.max_finite                        # overflows in the sum
    with np.errstate(over="ignore"):
        return np.asarray(quantize(rows, fmt))


@pytest.mark.parametrize("k", [2, 4, 8, 16])
@pytest.mark.parametrize("fmt", ["fp32", "bf16", "fp16", "fp8_e4m3"])
def test_tree_sum_rows_matches_the_padded_tree(fmt, k):
    arith = FormatArithmetic(fmt, tree_fan_in=k)
    cr = carrier(fmt)
    rng = np.random.default_rng(k)
    for width in range(1, 70):
        rows = tree_rows(fmt, width, rng)
        want = padded_tree_sum_rows(rows, fmt, k)
        with np.errstate(all="ignore"):
            carried = rows.astype(cr.dtype)
        for given in (rows, carried):
            got = arith.tree_sum_rows(given)
            assert same_bytes(got, want), (fmt, k, width, given.dtype)
