"""Span tracer that wraps sparsebnn's public functions from outside.

:class:`Tracer.install` replaces each function in :data:`TRACED` with a
wrapper under every name through which the package reaches it: the module
that defines it, every sparsebnn module that imported it by name, and the
package namespace.  Each wrapped call appends one span (name, start, end,
parent) to in-memory arrays and counts one call; nothing on the
numeric path changes.  :meth:`Tracer.uninstall` puts the originals back.

A function's self time is its span time minus the time of the spans opened
directly inside it.  Functions that are not wrapped (private helpers such as
the training loop's gradient step and the optimizer update) count toward
the self time of the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function; "Class.method" names a method.
TRACED = (
    ("network", "forward"), ("network", "backward"),
    ("network", "nll"), ("network", "nll_grad"),
    ("svi", "NoiseDraw.draw"), ("svi", "sample_weights"),
    ("svi", "sigma_of_rho"), ("svi", "penalty_total"),
    ("svi", "grad_penalty"), ("svi", "optimal_p"), ("svi", "dsigma_drho"),
    ("training", "train"), ("training", "predict"),
    ("compression", "prune"), ("compression", "feature_importance_psi"),
    ("compression", "importance_report"),
    ("compression", "variable_selection"), ("compression", "cv_threshold"),
    ("datasets", "gen_sparse_regression"), ("datasets", "split"),
    ("datasets", "standardize_fit_apply"), ("datasets", "kfold_indices"),
    ("datasets", "Dataset.subset"), ("datasets", "Dataset.with_feature_mask"),
    ("checkpoint", "save_checkpoint"), ("checkpoint", "load_checkpoint"),
)


def train_steps(dataset, config) -> int:
    """Optimizer steps one ``train`` call performs: epochs * ceil(n / batch)."""
    return config.epochs * -(-dataset.n // config.batch_size)


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED]
        self.calls = [0] * len(self.names)
        self.steps = 0
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._restore = []

    # ------------------------------------------------------------ recording

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, nid, fn):
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so a generator's work is charged to it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return gen_wrapper

        is_train = self.names[nid] == "training.train"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[nid] += 1
            if is_train:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                self.steps += train_steps(bound.arguments["dataset"],
                                          bound.arguments["config"])
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # ------------------------------------------------------------- patching

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sparsebnn" or name.startswith("sparsebnn.")]
        for nid, (mod, attr) in enumerate(TRACED):
            owner = sys.modules[f"sparsebnn.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(nid, raw.__func__))
                else:
                    new = self._wrap(nid, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(nid, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- results

    def spans(self) -> dict:
        """Arrays of every span recorded, plus the per-name call counts."""
        return {
            "names": np.array(self.names),
            "calls": np.array(self.calls, dtype=np.int64),
            "steps": np.int64(self.steps),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
        }


def summarize(spans: dict) -> dict:
    """Per-name call counts and self seconds of one span set."""
    n_names = len(spans["names"])
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_s = np.bincount(spans["name_id"], weights=dur - child, minlength=n_names)
    names = [str(n) for n in spans["names"]]
    return {
        "steps": int(spans["steps"]),
        "calls": dict(zip(names, (int(c) for c in spans["calls"]))),
        "self_s": dict(zip(names, (float(s) for s in self_s))),
    }


def merge(summaries) -> dict:
    """Sum call counts, self times and steps over several processes."""
    out = {"steps": 0, "calls": {}, "self_s": {}}
    for s in summaries:
        out["steps"] += s["steps"]
        for key in ("calls", "self_s"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
    return out


def save_spans(path, span_sets) -> None:
    """Write one or more span sets (one per process) to a single .npz file."""
    cat = {k: [] for k in ("name_id", "parent", "start", "end", "proc")}
    offset = 0
    for proc, s in enumerate(span_sets):
        cat["name_id"].append(s["name_id"])
        cat["parent"].append(np.where(s["parent"] >= 0, s["parent"] + offset, -1))
        cat["start"].append(s["start"])
        cat["end"].append(s["end"])
        cat["proc"].append(np.full(s["start"].size, proc, dtype=np.int32))
        offset += s["start"].size
    np.savez(path, names=np.array([f"{mod}.{attr}" for mod, attr in TRACED]),
             **{k: np.concatenate(v) for k, v in cat.items()})
