"""Format-aware arithmetic: every operation rounds to the target format.

The IterL2Norm macro's Mul and Add blocks are "tailored to each data format"
(Sec. IV of the paper): their outputs are registers of the format's width, so
each arithmetic result is rounded before being consumed by the next stage.
:class:`FormatArithmetic` emulates this by quantizing the result of every
elementary operation.  Reductions mirror the macro's adder-tree structure so
the accumulation order — and hence the rounding error — matches the hardware
rather than NumPy's pairwise ``sum``.

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


class FormatArithmetic:
    """Arithmetic wrapper that quantizes after every operation.

    Parameters
    ----------
    fmt:
        Target format (name or :class:`FloatFormat`).
    tree_fan_in:
        Fan-in of the emulated adder trees used by :meth:`tree_sum`.  The
        macro uses 8-input adder trees; the default matches that.
    """

    def __init__(self, fmt: FloatFormat | str, tree_fan_in: int = 8) -> None:
        if tree_fan_in < 2:
            raise ValueError(f"tree_fan_in must be >= 2, got {tree_fan_in}")
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
        skipping the (idempotent) input rounding; vectorized level by level.
        No rows, or rows of length 0, give zeros of length ``len(rows)``."""
        if rows.size == 0:
            return np.zeros(rows.shape[0], dtype=np.float64)
        current = rows
        k = self.tree_fan_in
        while current.shape[-1] > 1:
            pad = (-current.shape[-1]) % k
            if pad:
                current = np.concatenate(
                    [current, np.zeros((current.shape[0], pad))], axis=-1
                )
            grouped = current.reshape(current.shape[0], -1, k)
            current = self._round(grouped.sum(axis=-1))
        return current[:, 0]

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
