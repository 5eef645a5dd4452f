"""In-memory span tracer for the public functions of the tscnc package.

``Tracer.install`` rebinds every public function of every loaded tscnc
module, in every tscnc namespace that holds it (so ``trainer.pgd``,
``attacks.input_gradient`` and ``metrics.svd`` are all covered), to a
wrapper that records one span per call: name, start, end and parent span.
``uninstall`` restores the originals.  Spans stay in memory until
``summary`` turns them into per-layer metrics and ``dump`` writes them out.

A span's name is ``<module>.<function>`` after the module that defines the
function, so a layer is a module.  The benchmark adds its own spans named
``bench.*`` around its glue and correctness checks.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "tscnc"

# A backward call under one of these spans only serves an input gradient:
# the weight gradients it computes are thrown away.
INPUT_GRADIENT_SPANS = frozenset({
    "attacks.pgd", "attacks.fgsm", "network.input_gradient",
    "metrics.local_lipschitz_estimate",
})

# Layers reported as <layer>.self_s; with bench.self_s and unattributed_s
# they add up to the traced wall time.
LAYERS = ("tensor_ops", "network", "attacks", "pruning", "metrics", "trainer",
          "data", "checkpoint", "metrics_io", "bench")

_START, _END, _PARENT = 1, 2, 3


class NullTracer:
    """Stands in for Tracer in timed runs: benchmark spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index, per-call measure] per span
        self.spans = []
        self._stack = []
        self._saved = []
        # (id(net), version) -> (net, dense MACs per row, live MACs per row);
        # holding the net keeps its id from being reused by another network
        self._macs = {}

    # ------------------------------------------------------------ recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][_END] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        measure = {
            "network.forward": self._measure_forward,
            "network.backward": self._measure_backward,
            "attacks.pgd": self._measure_pgd,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                if measure is not None:
                    self.spans[idx][4] = measure(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__ or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if value not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self._wrap(name, value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        self._macs.clear()

    # ------------------------------------------------------------ measures

    def _mac_counts(self, net):
        """Dense and live (unmasked) multiply-adds per input row."""
        key = (id(net), net.version)
        hit = self._macs.get(key)
        if hit is None:
            dense = live = 0
            shape = tuple(net.input_shape)
            for layer in net.layers:
                if layer.kind == "linear":
                    dense += layer.W.size
                    live += int(np.count_nonzero(layer.Z))
                    shape = (layer.W.shape[1],)
                elif layer.kind == "conv2d":
                    k, s, p = layer.kernel_size, layer.stride, layer.pad
                    oh = (shape[1] + 2 * p - k) // s + 1
                    ow = (shape[2] + 2 * p - k) // s + 1
                    dense += layer.W.size * oh * ow
                    live += int(np.count_nonzero(layer.Z)) * oh * ow
                    shape = (layer.out_channels, oh, ow)
                elif layer.kind == "flatten":
                    shape = (int(np.prod(shape)),)
            hit = self._macs[key] = (net, dense, live)
        return hit[1], hit[2]

    def _measure_forward(self, net, x, *args, **kwargs):
        rows = int(np.shape(x)[0])
        dense, live = self._mac_counts(net)
        return rows, dense * rows, live * rows

    def _measure_backward(self, net, cache, *args, **kwargs):
        # weight gradient and input gradient: two products per layer
        dense, live = self._mac_counts(net)
        return cache.batch, 2 * dense * cache.batch, 2 * live * cache.batch

    def _measure_pgd(self, net, x, y, spec, *args, **kwargs):
        return spec.steps

    # ------------------------------------------------------------ results

    def _self_each(self):
        """Each span's duration minus the durations of its children."""
        own = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def self_times(self):
        """Self time per span name."""
        out = defaultdict(float)
        for s, own in zip(self.spans, self._self_each()):
            out[s[0]] += own
        return dict(out)

    def stages(self):
        """Layer self times and backward use under each top-level span name."""
        out = defaultdict(lambda: defaultdict(float))
        root = []
        for i, (s, own) in enumerate(zip(self.spans, self._self_each())):
            root.append(i if s[_PARENT] < 0 else root[s[_PARENT]])
            stage = out[self.spans[root[i]][0]]
            stage[s[0].split(".", 1)[0] + ".self_s"] += own
            if s[0] == "network.backward":
                stage["network.backward.calls"] += 1
                stage["network.backward.weight_grad_used"] += (
                    not self._under_input_gradient(i))
        return {name: dict(v) for name, v in out.items()}

    def _under_input_gradient(self, idx):
        parent = self.spans[idx][_PARENT]
        while parent >= 0:
            if self.spans[parent][0] in INPUT_GRADIENT_SPANS:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def _phases(self):
        """Split every run_tscnc span into its training phases.

        warmup runs from the end of build_network to the end of the last
        sgd_step before scoring; saliency from there to the end of
        apply_masks; then each phase-2 epoch is masked training up to its
        first condition_report and recording from there to its on_epoch.
        """
        kids = defaultdict(list)
        for s in self.spans:
            if s[_PARENT] >= 0:
                kids[s[_PARENT]].append(s)
        out = dict.fromkeys(("warmup", "saliency", "masked_train", "record"), 0.0)
        for i, run in enumerate(self.spans):
            if run[0] != "trainer.run_tscnc":
                continue
            ch = kids[i]
            names = [c[0] for c in ch]
            if "pruning.apply_masks" not in names:
                continue
            masked = names.index("pruning.apply_masks")
            start = next((c[_END] for c in ch if c[0] == "network.build_network"),
                         run[_START])
            steps = [c[_END] for c in ch[:masked] if c[0] == "trainer.sgd_step"]
            scoring = steps[-1] if steps else start
            out["warmup"] += scoring - start
            out["saliency"] += ch[masked][_END] - scoring
            boundary, record_start = ch[masked][_END], None
            for c in ch[masked + 1:]:
                if c[0] == "metrics.condition_report" and record_start is None:
                    record_start = c[_START]
                    out["masked_train"] += record_start - boundary
                elif c[0] == "bench.on_epoch" and record_start is not None:
                    out["record"] += c[_END] - record_start
                    boundary, record_start = c[_END], None
        return out

    def summary(self, wall_s):
        """Per-layer metrics over every span recorded in a window of wall_s.

        Besides the named counts and ratios, every traced function f gets
        f.self_s and every layer <layer>.self_s.
        """
        self_s = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        covered = sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)
        fwd = [s[4] for s in self.spans if s[0] == "network.forward"]
        bwd_idx = [i for i, s in enumerate(self.spans) if s[0] == "network.backward"]
        bwd = [self.spans[i][4] for i in bwd_idx]
        used = sum(1 for i in bwd_idx if not self._under_input_gradient(i))
        dense = sum(m[1] for m in fwd + bwd)
        live = sum(m[2] for m in fwd + bwd)
        m = {
            "traced_wall_s": wall_s,
            "unattributed_s": wall_s - covered,
            "tensor_ops.svd.calls": calls["tensor_ops.svd"],
            "tensor_ops.spectral_norm.calls": calls["tensor_ops.spectral_norm"],
            "network.forward.calls": calls["network.forward"],
            "network.forward.rows": sum(f[0] for f in fwd),
            # computed from layer shapes times rows: 2 flops per multiply-add
            "network.forward.flops": 2 * sum(f[1] for f in fwd),
            "network.backward.calls": len(bwd),
            "network.backward.flops": 2 * sum(b[1] for b in bwd),
            "network.backward.weight_grad_used_ratio": used / len(bwd) if bwd else 0.0,
            "network.dense_mac_useful_ratio": live / dense if dense else 0.0,
            "attacks.pgd.calls": calls["attacks.pgd"],
            "attacks.pgd.steps": sum(s[4] for s in self.spans if s[0] == "attacks.pgd"),
            "metrics.condition_report.calls": calls["metrics.condition_report"],
            "metrics.local_lipschitz_estimate.calls":
                calls["metrics.local_lipschitz_estimate"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".", 1)[0] == layer)
        m.update((f"{name}.self_s", v) for name, v in self_s.items())
        for phase, seconds in self._phases().items():
            m[f"phase.{phase}_s"] = seconds
        return m, self_s, dict(calls), self.stages()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, measure in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "measure": measure}) + "\n")
