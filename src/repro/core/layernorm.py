"""IterL2Norm-based layer normalization (Algorithm 1 of the paper).

Layer normalization of ``x`` with learned scale ``gamma`` and shift ``beta``:

    Step 1:  y  = x - mean(x)
    Step 2:  y^ = y / sigma_y  =  sqrt(d) * y / ||y||
    Step 3:  z  = gamma * y^ + beta

IterL2Norm replaces Step 2's division/square-root with the scalar iteration
of :mod:`repro.core.iteration`.  :class:`IterL2Norm` is the user-facing
module: it handles batched inputs (normalization over the last axis), both
exact-float64 and format-rounded execution, and exposes the iteration count
``num_steps`` as a parameter, matching the PyTorch module the paper built for
its LLM-level evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.iteration import iterate_a_batch
from repro.fpformats.arithmetic import FormatArithmetic
from repro.fpformats.quantize import carrier
from repro.fpformats.spec import FLOAT64, FloatFormat, get_format


@dataclass(frozen=True)
class IterL2NormConfig:
    """Configuration of an IterL2Norm layer-norm module.

    Attributes
    ----------
    num_steps:
        Number of iteration steps ``n_iter``; the paper evaluates 3, 4, 5, 10.
    fmt:
        Working floating-point format name (``"fp64"`` means exact math).
    update_rate:
        Optional fixed lambda overriding Eq. (10).
    initial_a:
        Optional fixed ``a0`` overriding Eq. (6).
    elementwise_affine:
        Whether gamma/beta are applied (True for the paper's layer norm).
    """

    num_steps: int = 5
    fmt: str = "fp64"
    update_rate: float | None = None
    initial_a: float | None = None
    elementwise_affine: bool = True

    def __post_init__(self) -> None:
        if self.num_steps < 0:
            raise ValueError(f"num_steps must be non-negative, got {self.num_steps}")
        get_format(self.fmt)  # validate eagerly


class IterL2Norm:
    """Drop-in layer normalization module backed by the IterL2Norm iteration.

    Parameters
    ----------
    normalized_dim:
        Length ``d`` of the normalized (last) axis.
    config:
        An :class:`IterL2NormConfig`; defaults to 5 steps in exact float64.
    gamma, beta:
        Optional initial scale/shift parameters of shape ``(normalized_dim,)``.
        Default to ones and zeros, matching a freshly initialized LayerNorm.

    Examples
    --------
    >>> layer = IterL2Norm(8, IterL2NormConfig(num_steps=5, fmt="fp32"))
    >>> x = np.random.default_rng(0).normal(size=(4, 8))
    >>> z = layer(x)
    >>> z.shape
    (4, 8)
    """

    def __init__(
        self,
        normalized_dim: int,
        config: IterL2NormConfig | None = None,
        gamma: np.ndarray | None = None,
        beta: np.ndarray | None = None,
    ) -> None:
        if normalized_dim < 1:
            raise ValueError(f"normalized_dim must be >= 1, got {normalized_dim}")
        self.normalized_dim = int(normalized_dim)
        self.config = config or IterL2NormConfig()
        self.fmt: FloatFormat = get_format(self.config.fmt)
        self._arith = FormatArithmetic(self.fmt)
        self._carrier = carrier(self.fmt)
        # The macro's pre-stored constants, in the working format.
        self._inv_d = self._constant(1.0 / self.normalized_dim)
        self._sqrt_d = self._constant(np.sqrt(self.normalized_dim))

        self.gamma = self._init_param(gamma, default=1.0, name="gamma")
        self.beta = self._init_param(beta, default=0.0, name="beta")

    def _constant(self, value: float) -> np.generic:
        return self._carrier.enter(np.array([value]))[0]

    def _init_param(
        self, value: np.ndarray | None, default: float, name: str
    ) -> np.ndarray:
        if value is None:
            param = np.full(self.normalized_dim, default, dtype=np.float64)
        else:
            param = np.asarray(value, dtype=np.float64)
            if param.shape != (self.normalized_dim,):
                raise ValueError(
                    f"{name} must have shape ({self.normalized_dim},), got {param.shape}"
                )
        return np.asarray(self._arith.cast(param))

    # -- affine parameters -----------------------------------------------------
    # Each parameter is held read-only next to its carrier copy, bound when it
    # is assigned.  A value outside the working format has no carrier copy:
    # forward then applies it as a float64 operation rounded once, so an
    # unrounded parameter is never rounded before it is used.
    @property
    def gamma(self) -> np.ndarray:
        """Scale applied after normalization (read-only; assign to replace)."""
        return self._gamma

    @gamma.setter
    def gamma(self, value: np.ndarray) -> None:
        self._gamma, self._gamma_c = self._bind_param(value)

    @property
    def beta(self) -> np.ndarray:
        """Shift applied after scaling (read-only; assign to replace)."""
        return self._beta

    @beta.setter
    def beta(self, value: np.ndarray) -> None:
        self._beta, self._beta_c = self._bind_param(value)

    def _bind_param(self, value: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        param = np.array(value, dtype=np.float64)
        param.setflags(write=False)
        if np.asarray(self._arith.cast(param)).tobytes() != param.tobytes():
            return param, None
        param_c = self._carrier.enter(param)
        param_c.setflags(write=False)
        return param, param_c

    # -- forward ---------------------------------------------------------------
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Layer-normalize ``x`` over its last axis.

        Accepts any array whose last dimension equals ``normalized_dim``;
        leading dimensions are treated as independent rows (batch and
        sequence axes of a transformer activation).  The whole batch is
        normalized in one vectorized pass.

        Algorithm 1 runs in place, on one buffer of the format's
        :func:`~repro.fpformats.quantize.carrier` dtype per call: float32
        for fp32 and for every format whose precision ``p`` satisfies
        ``24 >= 2p + 2`` and whose range fits float32 (bf16, fp16, fp8),
        float64 for fp64.  ``x`` is rounded into the format once, straight
        into that fresh buffer.  Centring, scaling and the gamma/beta affine
        are native carrier ufuncs that write back into it, each followed by
        the carrier's in-place rounding, which gives the bytes of the
        float64 operation rounded into the format (double rounding is
        innocuous for ``p' >= 2p + 2``); for bf16 every rounding reuses one
        ``uint32`` carry array.  Per-row means and squared norms go through
        :meth:`~repro.fpformats.arithmetic.FormatArithmetic.tree_sum_rows`,
        which sums each group of 8 in the fixed order
        ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`` and rounds once per level;
        the scalar iteration runs on the vector of per-row ``m`` values at
        once.  The result converts to a fresh float64 array once.

        Live rows x d arrays besides ``x``: the carrier buffer, the bf16
        carry, and while the squared norms are summed, the squares and the
        adder tree's float64 levels (the first holds half as many
        elements); then the float64 result, once only the buffer and the
        carry are left.  ``x``, gamma, beta and their carrier copies are
        never written.

        Infinities and NaNs are datapath results here, as in the update
        loop: a row that overflows the format or holds both infinities
        returns its NaNs without a NumPy float-error warning.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(
                f"last axis of x must be {self.normalized_dim}, got {x.shape[-1]}"
            )
        cfg = self.config
        cr = self._carrier
        rnd = cr.round
        tree_sum_rows = self._arith.tree_sum_rows
        rows = x.reshape(-1, self.normalized_dim)
        carry = np.empty(rows.shape, dtype=np.uint32) if cr.carries else None

        with np.errstate(over="ignore", invalid="ignore"):
            # The carrier buffer: x in the format, then y, then the output.
            c = cr.enter(rows, carry)
            means = rnd(tree_sum_rows(c).astype(cr.dtype) * self._inv_d)
            rnd(np.subtract(c, means[:, None], out=c), carry)
            m = tree_sum_rows(rnd(np.multiply(c, c), carry))
            a = iterate_a_batch(
                m,
                num_steps=cfg.num_steps,
                lam=cfg.update_rate,
                a0=cfg.initial_a,
                fmt=self.fmt,
            )
            scales = rnd(a.astype(cr.dtype) * self._sqrt_d)
            rnd(np.multiply(c, scales[:, None], out=c), carry)
            if cfg.elementwise_affine:
                if self._gamma_c is None:
                    c = cr.enter(c.astype(np.float64) * self._gamma, carry)
                else:
                    rnd(np.multiply(c, self._gamma_c, out=c), carry)
                if self._beta_c is None:
                    c = cr.enter(c.astype(np.float64) + self._beta, carry)
                else:
                    rnd(np.add(c, self._beta_c, out=c), carry)
        return c.astype(np.float64, copy=False).reshape(x.shape)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """Alias of :meth:`forward` (keeps parity with the exact baseline)."""
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IterL2Norm(d={self.normalized_dim}, steps={self.config.num_steps}, "
            f"fmt={self.fmt.name})"
        )


def iterl2norm_layernorm(
    x: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    num_steps: int = 5,
    fmt: FloatFormat | str | None = None,
) -> np.ndarray:
    """Functional form of Algorithm 1 for a single call.

    Convenience wrapper that builds a transient :class:`IterL2Norm` for the
    last-axis length of ``x`` and applies it once.
    """
    x = np.asarray(x, dtype=np.float64)
    fmt_name = FLOAT64.name if fmt is None else get_format(fmt).name
    layer = IterL2Norm(
        x.shape[-1],
        IterL2NormConfig(num_steps=num_steps, fmt=fmt_name),
        gamma=gamma,
        beta=beta,
    )
    return layer(x)
