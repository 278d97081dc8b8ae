"""Span tracing for the benchmark, attached to dcinv from outside.

Each hook wraps one public name of the package (a function, or a method
of ``DCSimulation``) and records a span per call: name, start, end,
parent span and run id, plus a few counts read from the call's arguments
or result.  Nothing under ``src/`` changes.  A name the package no longer
has is reported as absent instead of failing, so the benchmark keeps
running across refactors (for example once ``pcg_block`` is gone).

Spans stay in memory; :meth:`Tracer.write` saves them once, at the end.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
_FIXED_HOOKS = (
    ("forward.predict", "dcinv.forward", "DCSimulation.predict"),
    ("forward.j_vec", "dcinv.forward", "DCSimulation.j_vec"),
    ("forward.jt_vec", "dcinv.forward", "DCSimulation.jt_vec"),
    ("forward.fields", "dcinv.forward", "DCSimulation.fields"),
    ("forward.solve", "dcinv.forward", "pcg_block"),
    ("net.forward", "dcinv.net.model", "net_forward"),
    ("net.backward", "dcinv.net.model", "net_backward"),
    ("adam.step", "dcinv.adam", "adam_step"),
    ("dip.surrogate_loss", "dcinv.dip", "surrogate_loss"),
    ("tikhonov.gn", "dcinv.tikhonov", "gauss_newton"),
    ("tikhonov.phi_m", "dcinv.tikhonov", "phi_m"),
    ("tikhonov.update_irls", "dcinv.tikhonov", "update_irls"),
)

_MODEL_SPANS = ("forward.predict", "forward.j_vec", "forward.jt_vec", "forward.fields")
_LAYERS_MODULE = "dcinv.net.layers"


def _layer_role(name: str) -> str:
    """Span name for a ``dcinv.net.layers`` function, by what it computes."""
    bwd = name.endswith("_backward")
    if name.startswith("conv"):
        return "net.conv.bwd" if bwd else "net.conv.fwd"
    if "upsample" in name or name.startswith("transposed"):
        return "net.upsample.bwd" if bwd else "net.upsample.fwd"
    if name.startswith("dense"):
        return "net.dense"
    return "net.pointwise"  # activations, dropout, crop, scaling


def _conv_macs(x, k) -> int:
    """Multiply-adds of one valid cross-correlation of x (n,c,h,w) with k (o,c,kh,kw)."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    return n * o * c * kh * kw * (h - kh + 1) * (w - kw + 1)


class Tracer:
    """Installs the hooks, records spans, and turns them into layer metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run, extra]
        self.run = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._sims = weakref.WeakKeyDictionary()  # simulation -> serial number
        self._serials = itertools.count()

    # -- installing ---------------------------------------------------------
    def install(self) -> None:
        self.absent.clear()
        for span, module, attr in _FIXED_HOOKS:
            self._hook(span, module, attr)
        layers = sys.modules.get(_LAYERS_MODULE)
        if layers is None:
            self.absent.append(f"{_LAYERS_MODULE}.*")
            return
        for name, fn in vars(layers).copy().items():
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == _LAYERS_MODULE):
                self._hook(_layer_role(name), _LAYERS_MODULE, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _hook(self, span: str, module: str, attr: str) -> None:
        mod = sys.modules.get(module)
        cls_name, _, meth = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = owner.__dict__.get(meth) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self._wrap(span, original)
        if cls_name:
            self._patch(owner, meth, original, wrapper)
            return
        # The name may be imported into other modules (``from .net import
        # net_forward``); every binding of the same object gets the wrapper.
        for name, other in list(sys.modules.items()):
            if name == "dcinv" or name.startswith("dcinv."):
                if other is not None and other.__dict__.get(meth) is original:
                    self._patch(other, meth, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    @contextmanager
    def traced(self, root: str):
        """Hooks installed, and a root span open, for the duration of the block."""
        self.install()
        try:
            with self.span(root):
                yield
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str, extra=None):
        """Record a span around the block; yields its record."""
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, extra]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, span: str, fn):
        extra_of = self._extra_fn(span)

        def wrapper(*args, **kwargs):
            with self.span(span, extra_of(args) if extra_of else None) as rec:
                out = fn(*args, **kwargs)
            if span == "forward.solve":
                rec[5] = (rec[5][0], int(out[2]))  # (columns, iterations)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _extra_fn(self, span: str):
        """What a span records besides its times, read from the call arguments."""
        if span in _MODEL_SPANS:
            def model_key(args):
                sim, m = args[0], args[1]
                if sim not in self._sims:
                    self._sims[sim] = next(self._serials)
                return (self._sims[sim], hash(np.asarray(m).tobytes()))
            return model_key
        if span == "forward.solve":
            return lambda args: (1 if args[1].ndim == 1 else args[1].shape[1], 0)
        if span == "net.conv.fwd":
            return lambda args: 2 * _conv_macs(args[0], args[1])
        if span == "net.conv.bwd":
            # gradients with respect to both the kernel and the input
            return lambda args: 4 * _conv_macs(args[0], args[1])
        return None

    # -- reporting ----------------------------------------------------------
    def write(self, path, meta: dict) -> None:
        """Save every span as one JSON line, after a header line of ``meta``."""
        with open(path, "w") as f:
            f.write(json.dumps({**meta, "absent": self.absent}) + "\n")
            for i, (name, t0, t1, parent, run, extra) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "run": run,
                                    "extra": extra}) + "\n")

    def layer_metrics(self, runs: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics per traced run, averaged over the runs.

        ``runs`` maps run id to the wall time of its timed section.  Every
        ``.s`` metric is self time: a span's duration minus the time its
        child spans cover.
        """
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] in runs]
        child_s = defaultdict(float)
        solves_in = defaultdict(int)
        children = defaultdict(list)
        for i, s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
                children[s[3]].append(s)
                solves_in[s[3]] += s[0] == "forward.solve"
        calls = defaultdict(int)
        self_s = defaultdict(float)
        count = defaultdict(float)
        last_model = {}
        for i, (name, t0, t1, _, _, extra) in spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_s[i]
            if name == "forward.solve":
                count["rhs"] += extra[0]
                count["iters"] += extra[1]
            elif name in ("net.conv.fwd", "net.conv.bwd"):
                count["flop"] += extra
            elif name == "tikhonov.invert":
                gn = [c for c in children[i] if c[0] == "tikhonov.gn"]
                count["sens_s"] += (gn[0][1] if gn else t1) - t0
            elif name == "tikhonov.gn":
                for key, value in _gn_counts(children[i]).items():
                    count[key] += value
            if name in _MODEL_SPANS:
                # DCSimulation reassembles whenever a call brings a new model.
                sim, key = extra
                count["models"] += last_model.get(sim) != key
                last_model[sim] = key
                if name == "forward.fields":
                    count["fields_hits"] += solves_in[i] == 0

        n = len(runs)
        per_run = {
            "forward.predict.calls": calls["forward.predict"],
            "forward.predict.s": self_s["forward.predict"],
            "forward.j_vec.calls": calls["forward.j_vec"],
            "forward.j_vec.s": self_s["forward.j_vec"],
            "forward.jt_vec.calls": calls["forward.jt_vec"],
            "forward.jt_vec.s": self_s["forward.jt_vec"],
            "forward.solve.calls": calls["forward.solve"],
            "forward.solve.rhs": count["rhs"],
            "forward.solve.iters": count["iters"],
            "forward.solve.s": self_s["forward.solve"],
            "forward.models": count["models"],
            "net.forward.calls": calls["net.forward"],
            "net.forward.s": self_s["net.forward"],
            "net.backward.calls": calls["net.backward"],
            "net.backward.s": self_s["net.backward"],
            "net.conv.fwd_s": self_s["net.conv.fwd"],
            "net.conv.bwd_s": self_s["net.conv.bwd"],
            "net.upsample.fwd_s": self_s["net.upsample.fwd"],
            "net.upsample.bwd_s": self_s["net.upsample.bwd"],
            "net.dense.s": self_s["net.dense"],
            "net.pointwise.s": self_s["net.pointwise"],
            "net.conv.gflop": count["flop"] / 1e9,
            "adam.step.calls": calls["adam.step"],
            "adam.step.s": self_s["adam.step"],
            "dip.surrogate_loss.s": self_s["dip.surrogate_loss"],
            "dip.loop.self_s": self_s["dip.loop"],
            "tikhonov.gn.calls": calls["tikhonov.gn"],
            "tikhonov.gn.s": self_s["tikhonov.gn"],
            "tikhonov.sens_weights.s": count["sens_s"],
            "tikhonov.phi_m.calls": calls["tikhonov.phi_m"],
            "tikhonov.phi_m.s": self_s["tikhonov.phi_m"],
            "tikhonov.update_irls.s": self_s["tikhonov.update_irls"],
            "tikhonov.cg.products": count["products"],
            "tikhonov.linesearch.trials": count["trials"],
            "trace.unattributed_s": sum(runs.values()) - sum(self_s.values()),
        }
        out = {k: v / n for k, v in per_run.items()}
        out["forward.solves_per_model"] = _ratio(count["rhs"], count["models"])
        out["forward.fields_hit_ratio"] = _ratio(count["fields_hits"],
                                                 calls["forward.fields"])
        out["tikhonov.linesearch.accept_ratio"] = _ratio(count["accepted"],
                                                         count["trials"])
        out["forward.share"] = _ratio(sum(v for k, v in self_s.items()
                                          if k.startswith("forward.")),
                                      sum(runs.values()))
        return out


def _gn_counts(children: list[list]) -> dict[str, int]:
    """Inner-CG products and line-search trials inside one ``gauss_newton`` call.

    Read from the order of its simulator calls: an ``H v`` product is a
    ``J v`` followed by a ``J^T v``; a trial is a ``predict`` at a model the
    previous call did not use, and it was accepted when a later call uses
    that model again (the next iteration starts from it).
    """
    calls = [c for c in children if c[0] in ("forward.predict", "forward.j_vec",
                                             "forward.jt_vec")]
    products = sum(a[0] == "forward.j_vec" and b[0] == "forward.jt_vec"
                   for a, b in zip(calls, calls[1:]))
    trials = accepted = 0
    for k in range(1, len(calls)):
        name, extra = calls[k][0], calls[k][5]
        if name == "forward.predict" and extra != calls[k - 1][5]:
            trials += 1
            accepted += any(c[5] == extra for c in calls[k + 1:])
    return {"products": products, "trials": trials, "accepted": accepted}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
