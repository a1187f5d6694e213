"""Per-layer spans recorded from outside paravox.

``Tracer.installed()`` swaps each public entry point listed in ``ENTRY_POINTS``
for a wrapper that records a span (name, parent, start, end) in memory, and
puts every original back when the block ends, even on error.  Nothing inside
``src/paravox`` changes, and the wrappers only time calls, so a traced run
computes the same numbers as an untraced one.

Functions that paravox modules import by name are patched where they are
looked up: ``paravox.training.backward`` rather than ``paravox.tensor.backward``,
``paravox.model.upsample`` rather than ``paravox.upsample.upsample``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

import paravox.tensor as pt
from paravox import corpus, decoder, duration, encoder, fileformats, model, training, upsample, vae

# (owner, attribute, span name).  A span name is "<layer>.<part>"; the layers
# are the modules of src/paravox.
ENTRY_POINTS = [
    (training, "backward", "tensor.backward"),
    (model.SynthesisModel, "forward_train", "model.forward"),
    (model.SynthesisModel, "predict_durations_free", "model.predict_durations"),
    (model.SynthesisModel, "synthesize", "model.synthesize"),
    (encoder.TextEncoder, "__call__", "encoder.text"),
    (encoder.SpeakerTable, "__call__", "encoder.speakers"),
    (model, "attach_conditioning", "encoder.conditioning"),
    (vae.GlobalPosterior, "__call__", "vae.posterior"),
    (vae.FinePosterior, "__call__", "vae.posterior"),
    (vae.FinePriorLSTM, "teacher_forced", "vae.prior"),
    (vae.FinePriorLSTM, "rollout", "vae.prior"),
    (vae.LatentPosterior, "sample", "vae.sample"),
    (vae.SpeakerPrior, "__call__", "vae.speaker_prior"),
    (vae.LatentProjector, "__call__", "vae.latent_proj"),
    (model, "kl_divergence", "vae.kl"),
    (duration.DurationPredictor, "__call__", "duration.predictor"),
    (model, "duration_loss", "duration.loss"),
    (model, "finalize_durations", "duration.finalize"),
    # training.model_finalize imports finalize_durations from paravox.duration per call
    (duration, "finalize_durations", "duration.finalize"),
    (model, "upsample", "upsample.upsample"),
    (model, "positional_features", "upsample.positional"),
    (upsample.FeatureCombiner, "__call__", "upsample.combiner"),
    (decoder.SpectrogramDecoder, "__call__", "decoder.stack"),
    (training, "select_batch", "training.batch"),
    (training, "make_batch", "training.batch"),
    (training, "total_loss", "training.loss"),
    (training, "clip_global_norm", "training.clip"),
    (training.NesterovMomentum, "step", "training.optimizer"),
    (training, "evaluate", "training.evaluate"),
    (corpus, "generate", "corpus.generate"),
    (fileformats, "write_arrays", "fileformats.write"),
    (fileformats, "read_arrays", "fileformats.read"),
]

# Self time of these spans is glue between layers, not layer work.
GLUE_LAYERS = ("op", "model")


@dataclass
class GraphStats:
    nodes: int
    graph_bytes: int
    retained_grad_bytes: int


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def graph_nodes(root) -> list:
    """Every tensor the backward sweep from ``root`` visits.

    Walks ``Tensor._parents``, the graph structure ``paravox.tensor.backward``
    itself walks.
    """
    seen = {id(root)}
    stack = [root]
    nodes = []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return nodes


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.timed_from = 0          # index of the first span of the timed cycles
        self.graph: list[GraphStats] = []
        self.madds: list[int] = []   # per counted operation
        self._stack: list[int] = []
        self._next = 0
        self._counting = False

    # -- spans -------------------------------------------------------------------

    def _open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, token, name: str) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        token = self._open()
        try:
            yield
        finally:
            self._close(token, name)

    def begin_op(self, label: str, counting: bool):
        """Open the root span of one operation.  While ``counting``, also count
        its multiply-adds and the graph of each backward sweep (exact counts)."""
        self._counting = counting
        if counting:
            pt.reset_madds()
        return self._open(), label

    def end_op(self, token) -> None:
        inner, label = token
        if self._counting:
            self.madds.append(pt.madds())
        self._close(inner, f"op.{label}")
        self._counting = False

    def mark_timed(self) -> None:
        self.timed_from = len(self.spans)

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(token, name)
        return traced

    def _wrap_backward(self, fn, name: str):
        @functools.wraps(fn)
        def traced(loss):
            nodes = graph_nodes(loss) if self._counting else None
            token = self._open()
            try:
                fn(loss)
            finally:
                self._close(token, name)
            if nodes is not None:
                self.graph.append(GraphStats(
                    len(nodes), sum(n.data.nbytes for n in nodes),
                    sum(n.grad.nbytes for n in nodes if n._parents and n.grad is not None)))
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in ENTRY_POINTS:
                original = vars(owner)[attr]
                wrap = self._wrap_backward if name == "tensor.backward" else self._wrap
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def originals_in_place(snapshot: dict) -> bool:
    """True when every entry point is the object recorded in ``snapshot``."""
    return all(vars(owner)[attr] is snapshot[(id(owner), attr)]
               for owner, attr, _ in ENTRY_POINTS)


def snapshot_entry_points() -> dict:
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in ENTRY_POINTS}


# -- analysis ---------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return {s.sid: s.seconds - child.get(s.sid, 0.0) for s in spans}


def roots_of(spans: list[Span]) -> dict[int, Span]:
    """Map each span id to the outermost span enclosing it.

    Spans are recorded as they close, so a parent follows its children.
    """
    root = {}
    for s in reversed(spans):
        root[s.sid] = root.get(s.parent, s)
    return root


def layer_report(spans: list[Span]) -> dict:
    """Self time per span name per operation, and how much of each operation's
    wall time the layer spans cover.

    ``spans`` are the spans of the timed operations only.
    """
    selfs = self_times(spans)
    root = roots_of(spans)
    ops = [s for s in spans if s.name.startswith("op.")]
    op_wall = sum(s.seconds for s in ops)
    by_name: dict[str, float] = {}
    covered = 0.0
    for s in spans:
        by_name[s.name] = by_name.get(s.name, 0.0) + selfs[s.sid]
        if root[s.sid].name.startswith("op.") and s.name.split(".")[0] not in GLUE_LAYERS:
            covered += selfs[s.sid]
    n_ops = max(len(ops), 1)
    return {
        "ops": len(ops),
        "self_ms_per_op": {name: 1e3 * t / n_ops for name, t in by_name.items()},
        "coverage_pct": 100.0 * covered / op_wall if op_wall > 0 else 0.0,
    }


def inclusive_ms_per_op(spans: list[Span], name: str) -> float:
    ops = sum(1 for s in spans if s.name.startswith("op."))
    return 1e3 * sum(s.seconds for s in spans if s.name == name) / max(ops, 1)


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(f"{s.sid}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\n")


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
