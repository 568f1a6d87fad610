"""In-memory span tracer and the wrappers that attach it to the stack.

Spans are recorded from the benchmark's own code, around the public calls
into each layer of the repository; nothing under ``src/`` knows it is
traced.  A span is ``[name, start, end, parent, request_id, attrs]``:
``parent`` is the index of the enclosing span (``-1`` for a root), and the
spans of one request carry that request's id.  The run is single-threaded,
so open spans form a stack and every child interval lies inside its
parent's.  A layer's *self* time is its span's duration minus the part its
child spans cover.

:func:`instrument` installs the wrappers for the duration of a ``with``
block and restores every patched attribute on exit, so untraced rounds in
the same process run the original code.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Collects nested spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Set by the ``Scheduler.plan`` wrapper: does the current step
        #: carry any prefill chunk?  Read by the forward wrapper.
        self.step_has_prefill = False

    def reset(self) -> None:
        """Drop recorded spans; wrappers made by this tracer keep recording."""
        self.spans = []
        self._stack = []
        self.step_has_prefill = False

    def begin(self, name: str, request_id=None, attrs=None) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, request_id, attrs]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = _clock()
        return record

    def end(self, record: list) -> None:
        record[2] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn, attrs_of=None, request_of=None):
        """``fn`` with a span named ``name`` around every call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            record = begin(
                name,
                request_of(args) if request_of is not None else None,
                attrs_of(args) if attrs_of is not None else None,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        return traced

    # -- reduction ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        spans = self.spans
        selfs = [s[2] - s[1] for s in spans]
        for span in spans:
            if span[3] >= 0:
                selfs[span[3]] -= span[2] - span[1]
        return selfs

    def aggregate(self) -> dict[str, dict]:
        """``name -> {calls, incl_s, self_s, <attr sums>}``."""
        out: dict[str, dict] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = out.get(span[0])
            if entry is None:
                entry = out[span[0]] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            entry["calls"] += 1
            entry["incl_s"] += span[2] - span[1]
            entry["self_s"] += self_s
            if span[5]:
                for key, value in span[5].items():
                    entry[key] = entry.get(key, 0) + value
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (times in seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, rid, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "request": rid,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


MATMUL_KINDS = ("attn_proj", "fc1", "fc2", "logits", "attn")
QUANTIZE_SITES = ("kv", "act", "norm")


def layer_metrics(tracer: Tracer, total_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round, named as in ``BENCHMARK.json``.

    ``busy_s`` is self time, except for ``nn.forward.busy_s`` and
    ``serve.engine.step_s``, which are inclusive next to their ``self_s``.
    ``core.iterl2norm.share`` is the normalizer's inclusive time (its own
    quantize calls included) over ``total_s``.
    """
    agg = tracer.aggregate()

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    out: dict[str, float] = {
        "core.iterl2norm.calls": get("core.iterl2norm", "calls"),
        "core.iterl2norm.rows": get("core.iterl2norm", "rows"),
        "core.iterl2norm.busy_s": get("core.iterl2norm", "self_s"),
        "core.iterl2norm.share": get("core.iterl2norm", "incl_s") / total_s if total_s else 0.0,
    }
    for site in QUANTIZE_SITES:
        name = "fpformats.quantize." + site
        out[name + ".calls"] = get(name, "calls")
        out[name + ".elements"] = get(name, "elements")
        out[name + ".busy_s"] = get(name, "self_s")
    for kind in MATMUL_KINDS:
        name = "nn.matmul." + kind
        out[name + ".calls"] = get(name, "calls")
        out[name + ".busy_s"] = get(name, "self_s")
        out[name + ".flops"] = get(name, "flops")
    out["nn.softmax.calls"] = get("nn.softmax", "calls")
    out["nn.softmax.busy_s"] = get("nn.softmax", "self_s")

    forward_calls = get("nn.forward", "calls")
    prefill_s = sum(
        s[2] - s[1] for s in tracer.spans if s[0] == "nn.forward" and s[5]["prefill"]
    )
    out["nn.forward.calls"] = forward_calls
    out["nn.forward.busy_s"] = get("nn.forward", "incl_s")
    out["nn.forward.rows_per_call"] = (
        get("nn.forward", "rows") / forward_calls if forward_calls else 0.0
    )
    out["nn.forward.prefill_s"] = prefill_s
    out["nn.forward.decode_s"] = get("nn.forward", "incl_s") - prefill_s
    out["nn.forward.self_s"] = get("nn.forward", "self_s")

    for method in ("admit", "plan", "reserve", "retire"):
        out[f"serve.scheduler.{method}_s"] = get("serve.scheduler." + method, "self_s")
    for method in ("adopt", "register", "rollback", "release"):
        out[f"serve.kv_pool.{method}_s"] = get("serve.kv_pool." + method, "self_s")
    out["serve.engine.steps"] = get("serve.engine.step", "calls")
    out["serve.engine.step_s"] = get("serve.engine.step", "incl_s")
    out["serve.engine.self_s"] = get("serve.engine.step", "self_s")
    return out


@contextmanager
def _patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _matmul_flops(a, b) -> int:
    a_shape, b_shape = np.shape(a), np.shape(b)
    batch = int(np.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]), dtype=np.int64))
    return 2 * batch * a_shape[-2] * a_shape[-1] * b_shape[-1]


def _rows(args) -> dict:
    x = args[1]  # IterL2Norm.forward(self, x)
    return {"rows": int(np.size(x) // np.shape(x)[-1])}


def _elements(args) -> dict:
    return {"elements": int(np.size(args[0]))}


def _weight_labels(model) -> dict[int, str]:
    """``id(operand) -> matmul kind`` for every weight the executor passes to
    ``det_matmul``.  Quantizing policies hand over the memoized quantized copy
    (``ops.weight`` returns the same object on every call); the float64
    passthrough hands over the parameter array itself."""
    ops = model.ops
    resolve = (lambda w: w) if ops.passthrough else ops.weight
    labels: dict[int, str] = {}
    for block in model.blocks:
        attn, ffn = block.attention, block.ffn
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.out_proj):
            labels[id(resolve(proj.weight.data))] = "attn_proj"
        labels[id(resolve(ffn.fc1.weight.data))] = "fc1"
        labels[id(resolve(ffn.fc2.weight.data))] = "fc2"
    if not ops.passthrough:
        # Tied output projection: same memo key as the executor's E.T view.
        labels[id(resolve(model.token_embedding.weight.data.T))] = "logits"
    return labels


@contextmanager
def instrument(tracer: Tracer, model=None):
    """Trace the library layers shared by every engine and kernel call.

    * ``IterL2Norm.forward`` → ``core.iterl2norm`` (rows per call);
    * ``quantize`` by call site: ``nn.executor`` → ``kv``,
      ``precision.ops`` → ``act``, ``fpformats.arithmetic`` and
      ``core.iteration`` → ``norm`` (elements per call);
    * ``det_matmul`` / ``det_softmax`` as called from ``nn.executor`` →
      ``nn.matmul.<kind>`` (FLOPs from shapes) and ``nn.softmax``.  Under the
      float64 passthrough the tied logits projection is a plain ``np.einsum``
      in the executor, traced through a copy of the ``numpy`` namespace.

    ``model`` (for the matmul operand labels) may be omitted when no model
    runs.  An executor whose plan captures ``det_softmax``/``det_matmul``
    at build time must build its plan inside this block.
    """
    import repro.core.iteration as iteration
    import repro.fpformats.arithmetic as arithmetic
    import repro.nn.executor as executor
    import repro.precision.ops as precision_ops
    from repro.core.layernorm import IterL2Norm

    begin, end = tracer.begin, tracer.end
    targets = [
        (IterL2Norm, "forward", tracer.wrap("core.iterl2norm", IterL2Norm.forward, _rows)),
        (executor, "quantize", tracer.wrap("fpformats.quantize.kv", executor.quantize, _elements)),
        (
            precision_ops,
            "quantize",
            tracer.wrap("fpformats.quantize.act", precision_ops.quantize, _elements),
        ),
        (
            arithmetic,
            "quantize",
            tracer.wrap("fpformats.quantize.norm", arithmetic.quantize, _elements),
        ),
        (
            iteration,
            "quantize",
            tracer.wrap("fpformats.quantize.norm", iteration.quantize, _elements),
        ),
        (executor, "det_softmax", tracer.wrap("nn.softmax", executor.det_softmax)),
    ]
    if model is not None:
        labels = _weight_labels(model)
        det_matmul = executor.det_matmul

        def traced_matmul(a, b, *args, **kwargs):
            kind = "attn" if np.ndim(b) > 2 else labels.get(id(b), "attn_proj")
            record = begin("nn.matmul." + kind, None, {"flops": _matmul_flops(a, b)})
            try:
                return det_matmul(a, b, *args, **kwargs)
            finally:
                end(record)

        einsum = np.einsum

        def traced_einsum(subscripts, a, b, **kwargs):
            record = begin("nn.matmul.logits", None, {"flops": _matmul_flops(a, b)})
            try:
                return einsum(subscripts, a, b, **kwargs)
            finally:
                end(record)

        numpy_view = types.ModuleType("numpy")
        numpy_view.__dict__.update(np.__dict__)
        numpy_view.einsum = traced_einsum
        targets += [(executor, "det_matmul", traced_matmul), (executor, "np", numpy_view)]
    with _patched(targets):
        yield


def instrument_engine(tracer: Tracer, engine) -> None:
    """Trace one engine's scheduler, KV sequences and executor.

    Instance attributes shadow the class methods, so only this engine is
    affected.  Each admitted request's ``SequenceKV`` gets its own wrappers
    carrying the request id.
    """
    scheduler = engine.scheduler
    begin, end = tracer.begin, tracer.end
    kv_methods = (
        ("adopt_prefix", "serve.kv_pool.adopt"),
        ("register_prefix", "serve.kv_pool.register"),
        ("rollback", "serve.kv_pool.rollback"),
        ("release", "serve.kv_pool.release"),
    )

    def wrap_kv(state) -> None:
        kv, rid = state.kv, state.request.request_id
        for method, name in kv_methods:
            traced = tracer.wrap(name, getattr(kv, method), request_of=lambda _a, r=rid: r)
            setattr(kv, method, traced)

    admit = scheduler.admit

    def traced_admit(now):
        record = begin("serve.scheduler.admit")
        try:
            admitted = admit(now)
            for state in admitted:
                wrap_kv(state)
            return admitted
        finally:
            end(record)

    plan = scheduler.plan

    def traced_plan():
        record = begin("serve.scheduler.plan")
        try:
            result = plan()
            tracer.step_has_prefill = bool(result.prefill)
            return result
        finally:
            end(record)

    scheduler.admit = traced_admit
    scheduler.plan = traced_plan
    scheduler.reserve = tracer.wrap("serve.scheduler.reserve", scheduler.reserve)
    scheduler.retire = tracer.wrap(
        "serve.scheduler.retire",
        scheduler.retire,
        request_of=lambda args: args[0].request.request_id,
    )

    executor = engine.executor
    forward = type(executor).forward_ragged.__get__(executor)

    def traced_forward(token_ids, caches, *args, **kwargs):
        record = begin(
            "nn.forward",
            None,
            {"rows": len(caches), "prefill": int(tracer.step_has_prefill)},
        )
        try:
            return forward(token_ids, caches, *args, **kwargs)
        finally:
            end(record)

    executor.forward_ragged = traced_forward
