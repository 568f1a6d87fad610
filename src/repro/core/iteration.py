"""The discrete IterL2Norm scalar iteration (Eq. 5) and vector normalizer.

The iteration updates a single scalar ``a`` per input vector:

    delta_a = lambda * m * a * (1 - m * a^2)
    a      <- a + delta_a

which converges to ``a_inf = 1 / ||y||`` so that ``a * y`` is the
L2-normalized vector.  Two execution modes are provided:

* exact float64 (``fmt=None`` or ``"fp64"``) — for theory-level analysis;
* format-rounded (``fmt="fp32" | "fp16" | "bf16" | FloatFormat``) — every
  intermediate result is quantized, emulating the hardware datapath.

With the default ``a0`` (Eq. 6) and ``lambda`` (Eq. 10), the rounded
iteration's result is a pure function of the rounded ``m`` and the step
count.  A format of at most 16 bits has at most 2^15 positive values, so
:func:`iterate_a_batch` runs its update loop once over all of them, caches
the results per ``(format, num_steps)``, and answers every later call with
one table gather.  The loop stays the only definition of the arithmetic,
and the path for wider formats and explicit ``lam``/``a0``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.initialization import LAMBDA_COEFFICIENT, initial_a, update_rate
from repro.fpformats.arithmetic import FormatArithmetic
from repro.fpformats.bitops import decode_bits, stored_exponent
# ``quantize`` stays a module attribute: the wall-clock benchmark's tracer
# patches ``repro.core.iteration.quantize`` by name.
from repro.fpformats.quantize import carrier, quantize, rounder
from repro.fpformats.spec import FLOAT64, FloatFormat, get_format


def _resolve_format(fmt: FloatFormat | str | None) -> FloatFormat:
    if fmt is None:
        return FLOAT64
    return get_format(fmt)


def iterate_a(
    m: float,
    num_steps: int = 5,
    lam: float | None = None,
    a0: float | None = None,
    fmt: FloatFormat | str | None = None,
) -> float:
    """Run the scalar iteration for ``num_steps`` steps and return ``a``.

    Parameters
    ----------
    m:
        Squared norm ``||y||^2`` of the mean-shifted input.
    num_steps:
        Number of iteration steps ``n_iter`` (the paper uses 5 by default).
    lam:
        Update rate.  When omitted, Eq. (10) is applied to ``m`` in ``fmt``.
    a0:
        Initial value.  When omitted, Eq. (6) is applied to ``m`` in ``fmt``.
    fmt:
        Working format; ``None`` means exact float64.
    """
    return iterate_a_trace(m, num_steps=num_steps, lam=lam, a0=a0, fmt=fmt).final_a


@dataclass
class IterationTrace:
    """Full record of one scalar iteration run (used for convergence plots).

    Attributes
    ----------
    m:
        The squared norm the iteration was run for.
    lam:
        Update rate actually used.
    a_history:
        ``a`` after 0, 1, ..., n steps (length ``num_steps + 1``).
    delta_history:
        The ``delta_a`` applied at each step (length ``num_steps``).
    """

    m: float
    lam: float
    a_history: list[float] = field(default_factory=list)
    delta_history: list[float] = field(default_factory=list)

    @property
    def final_a(self) -> float:
        """The value of ``a`` after the last step."""
        return self.a_history[-1]

    @property
    def num_steps(self) -> int:
        """Number of update steps executed."""
        return len(self.delta_history)

    def error_history(self) -> np.ndarray:
        """Absolute error ``|a_i - 1/sqrt(m)|`` after each step."""
        target = 1.0 / np.sqrt(self.m)
        return np.abs(np.asarray(self.a_history) - target)


def iterate_a_trace(
    m: float,
    num_steps: int = 5,
    lam: float | None = None,
    a0: float | None = None,
    fmt: FloatFormat | str | None = None,
) -> IterationTrace:
    """Like :func:`iterate_a` but returning the full :class:`IterationTrace`."""
    if num_steps < 0:
        raise ValueError(f"num_steps must be non-negative, got {num_steps}")
    if not np.isfinite(m) or m <= 0.0:
        raise ValueError(f"m = ||y||^2 must be positive and finite, got {m}")

    work_fmt = _resolve_format(fmt)
    m_q = float(quantize(m, work_fmt))
    if m_q <= 0.0:
        # m underflowed in the working format; fall back to the smallest
        # representable positive value so the exponent read still works.
        m_q = work_fmt.min_positive_subnormal

    if a0 is None:
        a0 = initial_a(m_q, work_fmt)
    if lam is None:
        lam = update_rate(m_q, work_fmt)
    a = float(quantize(a0, work_fmt))
    lam = float(quantize(lam, work_fmt))

    trace = IterationTrace(m=m_q, lam=lam, a_history=[a])
    q = lambda v: float(quantize(v, work_fmt))  # noqa: E731 - local shorthand

    for _ in range(num_steps):
        ma = q(m_q * a)           # m * a
        ma2 = q(ma * a)           # m * a^2
        one_minus = q(1.0 - ma2)  # 1 - m a^2
        lam_ma = q(lam * ma)      # lambda * m * a
        delta = q(lam_ma * one_minus)
        a = q(a + delta)
        trace.delta_history.append(delta)
        trace.a_history.append(a)
    return trace


# Formats this wide or narrower run iterate_a_batch as a table gather.
_TABLE_MAX_BITS = 16


def iterate_a_batch(
    m: np.ndarray,
    num_steps: int = 5,
    lam: np.ndarray | float | None = None,
    a0: np.ndarray | float | None = None,
    fmt: FloatFormat | str | None = None,
) -> np.ndarray:
    """Vectorized scalar iteration over a batch of ``m`` values.

    Functionally identical to calling :func:`iterate_a` on each element of
    ``m`` (a unit test asserts this), but executed with array operations so
    the transformer substrate can normalize thousands of token rows per call.
    Non-positive and NaN entries of ``m`` (all-zero rows) yield ``a = 0``.
    ``m`` is rounded with a :func:`rounder`, its exponent is read with
    :func:`stored_exponent`, and the updates run on the format's
    :func:`carrier`.

    For a format of at most 16 bits with the default ``lam`` and ``a0``,
    the update loop runs once per ``(format, num_steps)`` over every
    positive value of the format (:func:`iteration_table`), and each call
    gathers its results from that table; the bytes are the loop's.  Wider
    formats and an explicit ``lam`` or ``a0`` run the loop on the batch.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be non-negative, got {num_steps}")
    work_fmt = _resolve_format(fmt)
    m_input = np.atleast_1d(np.asarray(m, dtype=np.float64))
    positive = m_input > 0.0
    m_arr = rounder(work_fmt)(m_input)
    # Positive entries that underflow to zero in the working format fall back
    # to the smallest representable positive value, exactly as iterate_a does.
    underflowed = positive & (m_arr <= 0.0)
    if np.any(underflowed):
        m_arr = np.where(underflowed, work_fmt.min_positive_subnormal, m_arr)
    # Use 1.0 as a placeholder for non-positive entries so the exponent read
    # and the arithmetic stay finite; the result is masked to zero at the end.
    m_safe = np.where(positive, m_arr, 1.0)

    if lam is None and a0 is None and work_fmt.total_bits <= _TABLE_MAX_BITS:
        values, results = iteration_table(work_fmt, num_steps)
        a = results[np.searchsorted(values, m_safe)]
    else:
        a = _update_loop(m_safe, num_steps, lam, a0, work_fmt)

    a = np.where(positive, a, 0.0)
    return a.reshape(np.shape(m) if np.ndim(m) else (1,))


@functools.lru_cache(maxsize=None)
def iteration_table(fmt: FloatFormat, num_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``(values, a)``: every positive value of ``fmt`` in ascending order
    (subnormals and +inf included), and the update loop's ``a`` for each,
    with the default ``a0`` and ``lambda``.  Built once per process and
    read-only; only meant for formats of at most 16 bits.
    """
    # Bit patterns of one sign order like their magnitudes; the last
    # positive pattern below the NaNs is +inf.
    values = decode_bits(np.arange(1, (fmt.max_exponent_field << fmt.mantissa_bits) + 1), fmt)
    results = _update_loop(values, num_steps, None, None, fmt)
    values.setflags(write=False)
    results.setflags(write=False)
    return values, results


def _update_loop(
    m_safe: np.ndarray,
    num_steps: int,
    lam: np.ndarray | float | None,
    a0: np.ndarray | float | None,
    fmt: FloatFormat,
) -> np.ndarray:
    """Eq. 6/10 set-up and ``num_steps`` updates of ``a`` for positive
    ``m_safe`` already in ``fmt``, rounding after every operation.

    The updates run on the format's :func:`carrier` (float32 for fp32 and
    the narrower paper formats): every operand is in the format, so each
    native operation followed by the carrier's rounding gives the bytes of
    the float64 operation rounded into the format.

    An infinite ``m`` drives ``a`` to NaN; that is the datapath's result, so
    float errors are not reported, whether the loop runs on a batch or
    builds a table.
    """
    cr = carrier(fmt)
    enter, rnd = cr.enter, cr.round
    exponents = stored_exponent(m_safe, fmt).astype(np.float64)
    if a0 is None:
        a = enter(np.exp2(-(exponents + 1.0) / 2.0))
    else:
        a = np.broadcast_to(enter(np.asarray(a0, dtype=np.float64)), m_safe.shape)
    if lam is None:
        lam_arr = enter(LAMBDA_COEFFICIENT * np.exp2(-exponents))
    else:
        lam_arr = np.broadcast_to(enter(np.asarray(lam, dtype=np.float64)), m_safe.shape)
    m_c = m_safe.astype(cr.dtype)
    one = cr.dtype.type(1.0)

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(num_steps):
            ma = rnd(m_c * a)
            ma2 = rnd(ma * a)
            one_minus = rnd(one - ma2)
            lam_ma = rnd(lam_arr * ma)
            delta = rnd(lam_ma * one_minus)
            a = rnd(a + delta)
    return a.astype(np.float64)


def iterl2norm_vector(
    y: np.ndarray,
    num_steps: int = 5,
    lam: float | None = None,
    a0: float | None = None,
    fmt: FloatFormat | str | None = None,
    scale_by_sqrt_d: bool = False,
) -> np.ndarray:
    """L2-normalize a (mean-shifted) vector with the IterL2Norm iteration.

    Parameters
    ----------
    y:
        Input vector.  No mean shift is applied here; use
        :class:`~repro.core.layernorm.IterL2Norm` for full layer
        normalization.
    num_steps, lam, a0, fmt:
        Forwarded to :func:`iterate_a_trace`.
    scale_by_sqrt_d:
        When true, multiply the result by ``sqrt(d)`` (the layer-norm
        convention ``y / sigma`` instead of ``y / ||y||``).

    Returns
    -------
    numpy.ndarray
        ``a * y`` (optionally times ``sqrt(d)``), quantized to ``fmt``.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"y must be a 1-D vector, got shape {y.shape}")
    if y.size == 0:
        raise ValueError("y must be non-empty")

    work_fmt = _resolve_format(fmt)
    arith = FormatArithmetic(work_fmt)
    y_q = np.asarray(arith.cast(y))
    m = arith.sum_of_squares(y_q)
    if m <= 0.0:
        # All-zero input: the normalized vector is defined as zero, matching
        # the behaviour of layer norm with zero variance and no epsilon.
        return np.zeros_like(y_q)

    a = iterate_a_trace(m, num_steps=num_steps, lam=lam, a0=a0, fmt=work_fmt).final_a
    if scale_by_sqrt_d:
        scale = float(arith.mul(a, arith.cast(np.sqrt(y.size))))
    else:
        scale = a
    return np.asarray(arith.mul(y_q, scale))
