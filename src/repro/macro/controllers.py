"""Controllers of the IterL2Norm macro (Fig. 1a and Fig. 2).

Each controller sequences one phase of the normalization, driving the
buffers and the Add/Mul blocks, and reports how many clock cycles the phase
occupied.  The cycle accounting is documented per controller; the constants
are architectural (chunk counts, two-cycle block latencies, controller
hand-off cycles) rather than technology numbers, which is what makes the
Fig. 5 latency reproducible from a functional simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.initialization import LAMBDA_COEFFICIENT
from repro.fpformats.bitops import unbiased_exponent
from repro.fpformats.quantize import quantize
from repro.fpformats.spec import FloatFormat, get_format
from repro.macro.blocks import AddBlock, MulBlock
from repro.macro.buffers import InputBuffer, ParamBuffer, PartialSumBuffer

#: Cycles charged for handing control from one controller to the next.
PHASE_HANDOFF_CYCLES = 4


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one controller phase: its name, cycle cost, and payload."""

    name: str
    cycles: int
    value: object = None


class MeanController:
    """The x-bar controller: computes the mean of the buffered input vector.

    Cycle model: one chunk read per cycle streaming into the Add block
    (``chunks`` cycles), the Add block pipeline drain (2), the reduction of
    the buffered partial sums (2), and the multiplication by the pre-stored
    ``1/d`` constant (2).
    """

    def __init__(self, add: AddBlock, mul: MulBlock, psum: PartialSumBuffer) -> None:
        self.add = add
        self.mul = mul
        self.psum = psum

    def execute(self, buffer: InputBuffer, d: int, base_row: int = 0) -> PhaseResult:
        chunks = int(np.ceil(d / buffer.chunk_elems))
        remaining = d
        for c in range(chunks):
            chunk = buffer.read_chunk(base_row + c, length=remaining)
            self.psum.push(self.add.reduce_chunk(chunk))
            remaining -= buffer.chunk_elems
        total = self.add.reduce_partials(self.psum.drain())
        inv_d = float(quantize(1.0 / d, self.add.fmt))
        mean = self.mul.scalar_mul(total, inv_d)
        cycles = chunks + self.add.latency + self.add.latency + self.mul.latency
        return PhaseResult("mean", cycles, mean)


class ShiftController:
    """Subtracts the mean from every element and rewrites ``y`` in place.

    Cycle model: each chunk needs a read and a write into the same banks
    (two cycles per chunk, a structural hazard on the shared read/write
    port), plus the Add block pipeline drain (2).
    """

    def __init__(self, add: AddBlock) -> None:
        self.add = add

    def execute(
        self, buffer: InputBuffer, d: int, mean: float, base_row: int = 0
    ) -> PhaseResult:
        chunks = int(np.ceil(d / buffer.chunk_elems))
        remaining = d
        for c in range(chunks):
            chunk = buffer.read_chunk(base_row + c, length=remaining)
            shifted = self.add.elementwise_sub(chunk, mean)
            length = min(remaining, buffer.chunk_elems)
            buffer.write_chunk(base_row + c, shifted, length=length)
            remaining -= buffer.chunk_elems
        cycles = 2 * chunks + self.add.latency
        return PhaseResult("shift", cycles, None)


class NormController:
    """The m controller: inner product of ``y`` with itself (``m = ||y||^2``).

    Cycle model: one chunk read per cycle through the Mul block (``chunks``),
    Mul pipeline drain (2), Add tree drain (2), partial-sum reduction (2).
    """

    def __init__(self, add: AddBlock, mul: MulBlock, psum: PartialSumBuffer) -> None:
        self.add = add
        self.mul = mul
        self.psum = psum

    def execute(self, buffer: InputBuffer, d: int, base_row: int = 0) -> PhaseResult:
        chunks = int(np.ceil(d / buffer.chunk_elems))
        remaining = d
        for c in range(chunks):
            chunk = buffer.read_chunk(base_row + c, length=remaining)
            squared = self.mul.elementwise_mul(chunk, chunk)
            self.psum.push(self.add.reduce_chunk(squared))
            remaining -= buffer.chunk_elems
        m = self.add.reduce_partials(self.psum.drain())
        cycles = chunks + self.mul.latency + self.add.latency + self.add.latency
        return PhaseResult("norm_squared", cycles, m)


class IterationController:
    """Initializes ``a0``/``lambda`` (Fig. 2a) and iterates ``a`` (Fig. 2b).

    Cycle model: the initialize module needs 4 cycles (exponent add/shift for
    ``a0`` overlapped with the subtract+multiply producing ``lambda``); each
    update step walks the Mul/Add dependency chain
    ``m*a -> (m*a)*a -> 1 - m*a^2 -> lambda*m*a * (.) -> a + delta`` whose
    critical path is five two-cycle block traversals plus control, charged at
    12 cycles per step; the final ``a * sqrt(d)`` product costs one Mul
    traversal (2 cycles).
    """

    INIT_CYCLES = 4
    CYCLES_PER_STEP = 12
    FINAL_SCALE_CYCLES = 2

    def __init__(self, add: AddBlock, mul: MulBlock, fmt: FloatFormat | str) -> None:
        self.add = add
        self.mul = mul
        self.fmt = get_format(fmt)

    def initial_values(self, m: float) -> tuple[float, float]:
        """Compute ``(a0, lambda)`` from the exponent field of ``m`` (Fig. 2a)."""
        exponent = int(unbiased_exponent(m, self.fmt))
        a0 = float(quantize(2.0 ** (-(exponent + 1) / 2.0), self.fmt))
        lam = float(quantize(LAMBDA_COEFFICIENT * 2.0 ** (-exponent), self.fmt))
        return a0, lam

    def execute(self, m: float, d: int, num_steps: int) -> PhaseResult:
        if m <= 0.0:
            # Degenerate all-zero input: scale of zero, only the init cost.
            return PhaseResult("iteration", self.INIT_CYCLES, 0.0)
        a, lam = self.initial_values(m)
        # An overflowed squared norm (m = inf) turns the update into
        # inf - inf = NaN, as in the software iteration, which runs its
        # loop under the same errstate and returns the same NaNs silently.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(num_steps):
                ma = self.mul.scalar_mul(m, a)
                ma2 = self.mul.scalar_mul(ma, a)
                one_minus = self.add.scalar_sub(1.0, ma2)
                lam_ma = self.mul.scalar_mul(lam, ma)
                delta = self.mul.scalar_mul(lam_ma, one_minus)
                a = self.add.scalar_add(a, delta)
        sqrt_d = float(quantize(np.sqrt(d), self.fmt))
        scale = self.mul.scalar_mul(a, sqrt_d)
        cycles = self.INIT_CYCLES + num_steps * self.CYCLES_PER_STEP + self.FINAL_SCALE_CYCLES
        return PhaseResult("iteration", cycles, scale)


class OutputController:
    """Scales ``y`` by ``a*sqrt(d)``, applies gamma/beta, and streams ``z`` out.

    Cycle model: the paper describes two passes through the Mul block (first
    the ``a*sqrt(d)`` scaling, then the gamma product) followed by the beta
    addition in the Add block, with the result streamed to the output channel
    as it is produced — three chunk traversals in total (read, re-send,
    write-out), plus the Mul, Mul, and Add pipeline drains.
    """

    def __init__(self, add: AddBlock, mul: MulBlock) -> None:
        self.add = add
        self.mul = mul

    def execute(
        self,
        buffer: InputBuffer,
        gamma: ParamBuffer,
        beta: ParamBuffer,
        d: int,
        scale: float,
        base_row: int = 0,
    ) -> PhaseResult:
        chunks = int(np.ceil(d / buffer.chunk_elems))
        remaining = d
        out = np.zeros(chunks * buffer.chunk_elems)
        for c in range(chunks):
            chunk = buffer.read_chunk(base_row + c, length=remaining)
            y_hat = self.mul.elementwise_mul(chunk, scale)
            scaled = self.mul.elementwise_mul(y_hat, gamma.read_chunk(c, buffer.chunk_elems))
            z = self.add.elementwise_add(scaled, beta.read_chunk(c, buffer.chunk_elems))
            out[c * buffer.chunk_elems : (c + 1) * buffer.chunk_elems] = z
            remaining -= buffer.chunk_elems
        cycles = 3 * chunks + 2 * self.mul.latency + self.add.latency
        return PhaseResult("output", cycles, out[:d])
