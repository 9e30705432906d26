"""Per-layer tracing, done from outside the program by wrapping its public functions.

`Tracer.install()` replaces class methods and module functions with wrappers
that record a span (name, start, end, parent) per call. Every node built
through `autodiff.graph_op` (frozen ones included: each is one dispatched op)
is attributed to the innermost span active when it was built, and the time
of its backward callable is charged to that same layer. Names a module bound
by direct import are wrapped where they are bound (`losses.graph_op`,
`adapter.seq_to_grid`, `training.batch_tsr`, ...). Spans stay in memory;
`write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from histadapter import adapter, autodiff, cdc, histogram, losses, nn, optim, training, vit

clock = time.perf_counter

# (owner, attribute, span name); nn.Linear.__call__ is named at call time
SPANS = [
    # phases
    (vit.VisionTransformer, "forward", "vit.forward"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (optim.Adam, "step", "optim.step"),
    (optim.Adam, "zero_grad", "optim.zero_grad"),
    (training, "score_batch", "training.score_batch"),
    (training, "eer", "metrics.evaluate"),
    (training, "evaluate_scores", "metrics.evaluate"),
    (training, "save_checkpoint", "checkpoint.save"),
    (training, "load_checkpoint", "checkpoint.load"),
    # layers
    (vit.VisionTransformer, "embed", "vit.embed"),
    (vit.ViTBlock, "mhsa", "vit.mhsa"),
    (autodiff, "gelu", "autodiff.gelu"),
    (autodiff, "layernorm", "autodiff.layernorm"),
    (adapter.HistAdapter, "apply", "adapter.apply"),
    (cdc.CdcConv, "forward_tensor", "cdc.forward"),
    (histogram.SoftHistogram, "forward_tensor", "histogram.forward"),
    (adapter, "seq_to_grid", "tokens.convert"),
    (adapter, "grid_to_seq", "tokens.convert"),
    (training, "batch_tsr", "losses.tsr"),
    (training, "binary_cross_entropy_with_logits", "losses.bce"),
    (losses, "binary_cross_entropy_with_logits", "losses.bce"),
]
LINEAR_BACKBONE = "nn.linear.backbone"
LINEAR_ADAPTER = "nn.linear.adapter"
LAYER_NAMES = ["vit.embed", "vit.mhsa", LINEAR_BACKBONE, LINEAR_ADAPTER,
               "autodiff.gelu", "autodiff.layernorm", "adapter.apply", "cdc.forward",
               "histogram.forward", "tokens.convert", "losses.tsr", "losses.bce"]
UNSCOPED = "unscoped"


def _root_buffer(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


class Patcher:
    """Replaces attributes of classes and modules, and puts the originals back."""

    def __init__(self):
        self._saved: list = []

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(Patcher):
    """Spans, self times, graph-node counts and backward times per layer."""

    def __init__(self):
        super().__init__()
        self.spans: list = []          # (id, parent id or -1, name, start, end)
        self._stack: list = []         # [span id, name, child seconds]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.nodes = defaultdict(int)
        self.backward_s = defaultdict(float)
        self.graph_bytes = 0
        self.discarded_grad_bytes = 0
        self._incoming = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        self._patch(nn.Linear, "__call__", self._linear(nn.Linear.__call__))
        graph_op = self._graph_op(autodiff.graph_op)
        accumulate_grad = self._accumulate_grad(autodiff.accumulate_grad)
        for module in (autodiff, losses):
            self._patch(module, "graph_op", graph_op)
            self._patch(module, "accumulate_grad", accumulate_grad)

    # -- wrappers -----------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans) + len(stack)
        frame = [span_id, name, 0.0]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[2] += duration
            self.spans.append((span_id, -1 if parent is None else parent[0], name, start, end))

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            return self._run(name, fn, args, kwargs)
        return wrapper

    def _linear(self, fn):
        def wrapper(*args, **kwargs):
            inside_adapter = any(frame[1] == "adapter.apply" for frame in self._stack)
            name = LINEAR_ADAPTER if inside_adapter else LINEAR_BACKBONE
            return self._run(name, fn, args, kwargs)
        return wrapper

    def _graph_op(self, fn):
        def graph_op(data, parents, backward):
            out = fn(data, parents, backward)
            layer = self._stack[-1][1] if self._stack else UNSCOPED
            self.nodes[layer] += 1
            root = _root_buffer(out.data)
            if not any(_root_buffer(p.data) is root for p in parents):
                self.graph_bytes += root.nbytes
            if out._backward is not None:
                out._backward = self._timed_backward(layer, out._backward)
            return out
        return graph_op

    def _timed_backward(self, layer, backward):
        def timed(g):
            self._incoming = g
            start = clock()
            backward(g)
            self.backward_s[layer] += clock() - start
        return timed

    def _accumulate_grad(self, fn):
        def accumulate_grad(t, g):
            # a gradient built for a frozen tensor is computed and then dropped
            if not t.requires_grad and (self._incoming is None
                                        or not np.may_share_memory(g, self._incoming)):
                self.discarded_grad_bytes += np.asarray(g).nbytes
            fn(t, g)
        return accumulate_grad

    # -- results ------------------------------------------------------------

    def layer_metrics(self, per: float) -> dict:
        """Per-layer forward self ms, backward ms and node count, divided by ``per``."""
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.fwd_ms"] = (1e3 * self.self_s[name] / per, "ms")
            out[f"{name}.bwd_ms"] = (1e3 * self.backward_s[name] / per, "ms")
            out[f"{name}.nodes"] = (self.nodes[name] / per, "count")
        return out

    def write_spans(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        lines = ["id,parent,name,start_ms,end_ms"]
        lines += [f"{i},{p},{n},{1e3 * (a - origin):.4f},{1e3 * (b - origin):.4f}"
                  for i, p, n, a, b in sorted(self.spans)]
        path.write_text("\n".join(lines) + "\n")
