"""Format-aware arithmetic: every operation rounds to the target format.

The IterL2Norm macro's Mul and Add blocks are "tailored to each data format"
(Sec. IV of the paper): their outputs are registers of the format's width, so
each arithmetic result is rounded before being consumed by the next stage.
:class:`FormatArithmetic` emulates this by quantizing the result of every
elementary operation.  Reductions mirror the macro's adder-tree structure so
the accumulation order — and hence the rounding error — matches the hardware
rather than whatever order a library ``sum`` picks.

The adder tree has one kernel, :meth:`FormatArithmetic.tree_sum_rows`, which
:meth:`~FormatArithmetic.tree_sum` (and so the macro's Add block) and the
normalizer's forward pass share.  It takes rows already in the format, in
their :func:`~repro.fpformats.quantize.carrier` dtype or in float64, and sums
each group of 8 in float64 in one fixed order,
``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`` — a balanced tree of 2-input adders,
and the order NumPy's pairwise ``sum`` takes for 8 addends — then rounds
each group's sum once.

Every rounding goes through the format's
:func:`~repro.fpformats.quantize.rounder`, bound once at construction; it is
bit-identical to :func:`~repro.fpformats.quantize.quantize`.
"""

from __future__ import annotations

import math

import numpy as np

# ``quantize`` stays a module attribute: the wall-clock benchmark's tracer
# patches ``repro.fpformats.arithmetic.quantize`` by name.
from repro.fpformats.quantize import quantize, rounder  # noqa: F401
from repro.fpformats.spec import FloatFormat, get_format


def _adder_tree(level: np.ndarray) -> np.ndarray:
    """Float64 sum over the last axis by rounds of strided pairwise adds:
    element ``2i`` meets ``2i + 1``, and an odd last element moves up a
    round unchanged."""
    while level.shape[-1] > 1:
        width = level.shape[-1]
        pairs = np.add(level[..., 0 : width - 1 : 2], level[..., 1::2], dtype=np.float64)
        if width % 2:
            pairs = np.concatenate([pairs, level[..., -1:].astype(np.float64)], axis=-1)
        level = pairs
    return level[..., 0]


class FormatArithmetic:
    """Arithmetic wrapper that quantizes after every operation.

    Parameters
    ----------
    fmt:
        Target format (name or :class:`FloatFormat`).
    tree_fan_in:
        Fan-in of the emulated adder trees used by :meth:`tree_sum`, a power
        of two.  The macro uses 8-input adder trees; the default matches
        that.
    """

    def __init__(self, fmt: FloatFormat | str, tree_fan_in: int = 8) -> None:
        if tree_fan_in < 2 or tree_fan_in & (tree_fan_in - 1):
            raise ValueError(f"tree_fan_in must be a power of two >= 2, got {tree_fan_in}")
        self.fmt = get_format(fmt)
        self.tree_fan_in = int(tree_fan_in)
        self._round = rounder(self.fmt)

    def _rounded(self, x) -> np.ndarray | float:
        """Round ``x``; a scalar result comes back as a Python float."""
        out = self._round(x)
        return float(out) if out.ndim == 0 else out

    # -- elementary operations -------------------------------------------------
    def cast(self, x: np.ndarray | float) -> np.ndarray | float:
        """Quantize a value into the working format."""
        return self._rounded(x)

    def add(self, a, b):
        """Format-rounded addition."""
        return self._rounded(np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64))

    def sub(self, a, b):
        """Format-rounded subtraction."""
        return self._rounded(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))

    def mul(self, a, b):
        """Format-rounded multiplication."""
        return self._rounded(np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64))

    def fma(self, a, b, c):
        """Multiply-add with rounding after each of the two operations.

        The macro has separate Mul and Add blocks (no fused MAC), so the
        product is rounded before the addition.
        """
        return self.add(self.mul(a, b), c)

    # -- reductions -------------------------------------------------------------
    def tree_sum(self, values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
        """Sum using balanced k-ary adder trees with per-level rounding.

        This mirrors the Add block of the macro: values are grouped into
        ``tree_fan_in``-wide chunks whose sums are rounded, then those partial
        sums are reduced the same way until a single value remains.  The
        reduction is vectorized across the non-reduced axes, so batched rows
        (e.g. every token of a transformer activation) reduce in one pass.
        """
        x = np.asarray(values, dtype=np.float64)
        if axis is None:
            reduced = self.tree_sum_rows(np.atleast_2d(self._round(x.reshape(-1))))
            return float(reduced.reshape(()))
        x = np.moveaxis(x, axis, -1)
        out_shape = x.shape[:-1]
        flat = self._round(x.reshape(math.prod(out_shape), x.shape[-1]))
        result = self.tree_sum_rows(flat)
        if out_shape == ():
            return float(result.reshape(()))
        return result.reshape(out_shape)

    def tree_sum_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`tree_sum` of each row of a 2-D array already in the format,
        float32 or float64, skipping the (idempotent) input rounding.

        Each level wider than the fan-in zero-pads the rows to a multiple of
        it, sums each group in float64 as a balanced tree of strided
        pairwise adds, and rounds the sums once; the first level reads
        float32 rows as they are.  The last level, of at most fan-in sums,
        is one group: its tree runs without the padding, then adds one
        zero for the padded lanes, the one effect they have (a ``-0`` sum
        comes out ``+0``).  A row holding both infinities sums to NaN, the
        datapath's result: like the iteration's update loop, the kernel
        reports no float error.  No rows, or rows of length 0, give zeros of
        length ``len(rows)``; the result is float64.
        """
        count, width = rows.shape
        if rows.size == 0:
            return np.zeros(count, dtype=np.float64)
        k = self.tree_fan_in
        current = rows
        with np.errstate(over="ignore", invalid="ignore"):
            while width > k:
                groups = -(-width // k)
                if groups * k != width:
                    padded = np.zeros((count, groups * k))
                    padded[:, :width] = current
                    current = padded
                current = self._round(_adder_tree(current.reshape(count, groups, k)))
                width = groups
            if width == 1:
                return current[:, 0].astype(np.float64, copy=False)
            total = _adder_tree(current)
            if width < k:
                total += 0.0
            return self._round(total)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Inner product: element-wise rounded products, then a tree sum."""
        products = self.mul(a, b)
        return float(self.tree_sum(np.asarray(products)))

    def sum_of_squares(self, a: np.ndarray) -> float:
        """``||a||^2`` computed through the format-rounded datapath."""
        return self.dot(a, a)

    def mean(self, a: np.ndarray) -> float:
        """Mean computed as tree-sum followed by a rounded multiply by 1/d.

        The macro multiplies by a pre-stored ``1/d`` constant (itself stored
        in the working format) rather than dividing.
        """
        a = np.asarray(a, dtype=np.float64)
        total = self.tree_sum(a)
        inv_d = self.cast(1.0 / a.size)
        return float(self.mul(total, inv_d))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FormatArithmetic({self.fmt.name}, fan_in={self.tree_fan_in})"
