"""Software emulation of IEEE-754-style floating-point formats.

The paper evaluates IterL2Norm in FP32, FP16, and BFloat16.  NumPy provides
native ``float32`` and ``float16`` but no bfloat16, and the hardware macro
operates on arbitrary (exponent, mantissa) splits.  This package provides:

* :class:`~repro.fpformats.spec.FloatFormat` — a declarative description of a
  binary floating-point format (exponent bits, mantissa bits, bias).
* :mod:`~repro.fpformats.bitops` — bit-level encode/decode between Python
  floats and the integer bit patterns of a format, plus exponent/significand
  extraction (the macro's initializer reads the exponent field directly).
* :mod:`~repro.fpformats.quantize` — round-to-nearest-even quantization of
  NumPy arrays to a target format, the workhorse used to emulate
  format-limited arithmetic, and ``rounder(fmt)``, the same rounding bound
  to one format for hot loops.
* :mod:`~repro.fpformats.arithmetic` — format-aware arithmetic helpers that
  quantize after every operation, mimicking a datapath whose registers hold
  values in the target format.
"""

from repro.fpformats.spec import (
    BFLOAT16,
    FLOAT16,
    FLOAT32,
    FLOAT64,
    FORMATS,
    FloatFormat,
    get_format,
)
from repro.fpformats.bitops import (
    decode_bits,
    encode_bits,
    exponent_field,
    significand_value,
    stored_exponent,
    unbiased_exponent,
)
from repro.fpformats.quantize import quantize, quantization_step, representable, rounder
from repro.fpformats.arithmetic import FormatArithmetic

__all__ = [
    "BFLOAT16",
    "FLOAT16",
    "FLOAT32",
    "FLOAT64",
    "FORMATS",
    "FloatFormat",
    "FormatArithmetic",
    "decode_bits",
    "encode_bits",
    "exponent_field",
    "get_format",
    "quantization_step",
    "quantize",
    "representable",
    "rounder",
    "significand_value",
    "stored_exponent",
    "unbiased_exponent",
]
