"""In-memory span tracer, the timing shims it installs, and the statistics
the per-layer metrics are computed with.

Shims are installed from the benchmark's side, at the name each caller
looks up: a function bound into another module with `from ... import` is
patched in that module too, and `metrics.meteor`'s `stem=porter_stem`
default argument is replaced in the function's defaults. A target that no
longer exists is recorded as missing rather than raising, so a refactor
of the program surfaces in the traced run's coverage check.
"""

import importlib
import json
import math
import os
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    item: Optional[str]


@dataclass
class Tracer:
    """Spans in start order, plus plain event counters and per-call values."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    values: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    distinct: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    item: Optional[str] = None
    layer_names: dict[int, str] = field(default_factory=dict)  # id(BiLstmLayer) -> l1/l2
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item)
        self.spans.append(span)
        self._stack.append(index)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def write(self, path):
        """One JSON object per span: name, start, end, parent, item."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - covered_length(start, end, child_intervals)


def tail_percentile(samples, wanted: float) -> tuple[Optional[float], Optional[float], int]:
    """(value, percentile used, sample count) for the tail percentile rule.

    The percentile reported is the highest one, at most `wanted`, that
    leaves at least ten samples beyond it (nearest-rank). With ten samples
    or fewer no percentile qualifies and the value is None.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(math.ceil(wanted / 100.0 * n), n - 10)
    if rank < 1:
        return None, None, n
    return ordered[rank - 1], 100.0 * rank / n, n


# ---------------------------------------------------------------------------
# shims
# ---------------------------------------------------------------------------

@dataclass
class Shim:
    """A span (or a bare counter) around every place one function is looked up.

    targets are "module:attr" or "module:Class.attr" strings, or
    "module:func(arg)" for a default argument of func. name_of, when given,
    picks the span name from (tracer, args); after, when given, sees
    (tracer, args, result) once the call returns. sets_item makes the
    call's first argument (a file path) the item id of later spans.
    """

    name: str
    targets: tuple[str, ...]
    count_only: bool = False
    name_of: Optional[Callable] = None
    after: Optional[Callable] = None
    sets_item: bool = False


def _file_size(path) -> int:
    return os.path.getsize(path)


def _bilstm_name(kind: str):
    def name_of(tracer, args):
        return f"model.bilstm_{tracer.layer_names.get(id(args[0]), 'l?')}.{kind}"
    return name_of


def _name_layers(tracer: Tracer, args, result):
    encoder = args[0]
    for label in ("layer1", "layer2"):
        layer = getattr(encoder, label, None)
        if layer is not None:
            tracer.layer_names[id(layer)] = "l" + label[-1]


def _record_decode(tracer: Tracer, tokens):
    tracer.values["decoding.emitted"].append(len(tokens) - 1)


def build_shims() -> list[Shim]:
    """Every shim the per-layer metrics need, named by span or counter."""
    return [
        Shim("model.encoder_init", ("aacap.model:Encoder.__init__",), count_only=True,
             after=_name_layers),
        Shim("model.bilstm.forward", ("aacap.model:BiLstmLayer.forward",),
             name_of=_bilstm_name("forward")),
        Shim("model.bilstm.backward", ("aacap.model:BiLstmLayer.backward",),
             name_of=_bilstm_name("backward")),
        Shim("model.lstm_cell.step", ("aacap.model:LstmCell.step",), count_only=True),
        Shim("model.encode", ("aacap.model:CaptionModel.encode",)),
        Shim("model.attention.forward", ("aacap.model:Attention.forward",)),
        Shim("model.attention.backward", ("aacap.model:Attention.backward",)),
        Shim("model.decoder_step", ("aacap.model:Decoder.step",)),
        Shim("model.init", ("aacap.model:CaptionModel.__init__",)),
        Shim("model.load", ("aacap.model:CaptionModel.load",),
             after=lambda t, a, r: t.values["model.checkpoint_bytes"].append(_file_size(a[1]))),
        Shim("model.save", ("aacap.model:CaptionModel.save",),
             after=lambda t, a, r: t.values["model.checkpoint_bytes"].append(_file_size(a[1]))),
        Shim("numerics.adam_step", ("aacap.pipeline:adam_step", "aacap.numerics:adam_step")),
        Shim("decoding.beam_search", ("aacap.pipeline:beam_search", "aacap.decoding:beam_search"),
             after=lambda t, a, r: _record_decode(t, r.tokens)),
        Shim("decoding.greedy", ("aacap.pipeline:greedy_decode_encoded",
                                 "aacap.decoding:greedy_decode_encoded"),
             after=lambda t, a, r: _record_decode(t, r[0])),
        Shim("decoding.log_softmax", ("aacap.decoding:log_softmax",)),
        Shim("metrics.evaluate_corpus", ("aacap.metrics:evaluate_corpus",
                                         "aacap.pipeline:evaluate_corpus")),
        Shim("metrics.bleu", ("aacap.metrics:bleu", "aacap.pipeline:bleu")),
        Shim("metrics.cider", ("aacap.metrics:cider",)),
        Shim("metrics.rouge_l", ("aacap.metrics:rouge_l_corpus",)),
        Shim("metrics.meteor", ("aacap.metrics:meteor_corpus",)),
        Shim("metrics.ngram_counts", ("aacap.metrics:ngram_counts",), count_only=True),
        Shim("stemmer.porter_stem", ("aacap.metrics:porter_stem", "aacap.metrics:meteor(stem)"),
             count_only=True,
             after=lambda t, a, r: t.distinct["stemmer.porter_stem"].add(a[0])),
        Shim("features.read_wav", ("aacap.features:read_wav",), sets_item=True),
        Shim("features.resample", ("aacap.features:resample",), count_only=True,
             name_of=lambda t, a: ("features.resample" if a[0].sample_rate != a[1]
                                   else "features.resample_identity")),
        Shim("features.stft_power", ("aacap.features:stft_power",),
             after=lambda t, a, r: t.values["features.stft_frames"].append(r.shape[0])),
        Shim("features.log_mel", ("aacap.features:log_mel",)),
        Shim("embeddings.mock_extract", ("aacap.embeddings:mock_extract",)),
        Shim("embeddings.save", ("aacap.embeddings:save_embedding_file",),
             after=lambda t, a, r: t.values["embeddings.bytes_written"].append(_file_size(a[0]))),
        Shim("embeddings.load", ("aacap.embeddings:load_embedding_file",
                                 "aacap.pipeline:load_embedding_file"), sets_item=True,
             after=lambda t, a, r: t.values["embeddings.bytes_read"].append(_file_size(a[0]))),
        Shim("text.build_vocab", ("aacap.pipeline:build_vocab",)),
        Shim("pipeline.load_manifest", ("aacap.pipeline:load_manifest",)),
        Shim("pipeline.validation_bleu4", ("aacap.pipeline:validation_bleu4",)),
    ]


def _wrap(tracer: Tracer, shim: Shim, original: Callable) -> Callable:
    if shim.count_only:
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            name = shim.name_of(tracer, args) if shim.name_of else shim.name
            tracer.counts[name] += 1
            if shim.after:
                shim.after(tracer, args, result)
            return result
        return counted

    def timed(*args, **kwargs):
        name = shim.name_of(tracer, args) if shim.name_of else shim.name
        if shim.sets_item:
            tracer.item = os.path.basename(str(args[0]))
        result = tracer.call(name, original, args, kwargs)
        if shim.after:
            shim.after(tracer, args, result)
        return result
    return timed


def _resolve(target: str):
    """(owner object, attribute name, default-argument name or None)."""
    module_name, path = target.split(":")
    default_arg = None
    if path.endswith(")"):
        path, default_arg = path[:-1].split("(")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, default_arg


def install(tracer: Tracer, shims: list[Shim]) -> list[str]:
    """Patch every target in place; returns the targets that do not exist."""
    missing = []
    wrapped: dict[int, Callable] = {}  # one wrapper per original function
    for shim in shims:
        for target in shim.targets:
            try:
                owner, attr, default_arg = _resolve(target)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError, ValueError):
                missing.append(target)
                continue
            if default_arg is not None:
                # positional defaults belong to the last len(__defaults__) parameters
                names = raw.__code__.co_varnames[:raw.__code__.co_argcount]
                defaults = raw.__defaults__ or ()
                position = (names.index(default_arg) - (len(names) - len(defaults))
                            if default_arg in names else -1)
                if position < 0:
                    missing.append(target)
                    continue
                original = defaults[position]
                replacement = wrapped.setdefault(id(original), _wrap(tracer, shim, original))
                new_defaults = list(defaults)
                new_defaults[position] = replacement
                raw.__defaults__ = tuple(new_defaults)
                continue
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            replacement = wrapped.setdefault(id(original), _wrap(tracer, shim, original))
            setattr(owner, attr, classmethod(replacement) if is_classmethod else replacement)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def summarize(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced run of `ops` operations.

    Times ending in _s are seconds per call (self time where the name says
    self or bookkeeping); counts ending in _calls or _steps are per
    operation; byte and frame counts are per call.
    """
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        by_name[span.name].append(index)
        if span.parent >= 0:
            children[span.parent].append(index)
    spans = tracer.spans

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def self_times(name):
        return [self_time(spans[i].start, spans[i].end,
                          [(spans[c].start, spans[c].end) for c in children[i]])
                for i in by_name[name]]

    def per_op(count):
        return count / ops if ops else 0.0

    decode_spans = set(by_name["decoding.beam_search"]) | set(by_name["decoding.greedy"])
    decode_steps = sum(1 for i in by_name["model.decoder_step"] if spans[i].parent in decode_spans)
    emitted = tracer.values["decoding.emitted"]
    beam = durations("decoding.beam_search")
    p90, p90_used, _ = tail_percentile(beam, 90.0)
    stem_calls = tracer.counts["stemmer.porter_stem"]
    out = {
        "model.bilstm_l1.forward_s": _mean(durations("model.bilstm_l1.forward")),
        "model.bilstm_l1.backward_s": _mean(durations("model.bilstm_l1.backward")),
        "model.bilstm_l2.forward_s": _mean(durations("model.bilstm_l2.forward")),
        "model.bilstm_l2.backward_s": _mean(durations("model.bilstm_l2.backward")),
        "model.lstm_cell.step_calls": per_op(tracer.counts["model.lstm_cell.step"]),
        "model.attention.forward_s": _mean(durations("model.attention.forward")),
        "model.attention.backward_s": _mean(durations("model.attention.backward")),
        "model.attention_calls": per_op(len(by_name["model.attention.forward"])),
        "model.decoder_step_self_s": _mean(self_times("model.decoder_step")),
        "model.decoder_steps": per_op(len(by_name["model.decoder_step"])),
        "model.init_s": _mean(durations("model.init")),
        "model.load_s": _mean(durations("model.load")),
        "model.save_s": _mean(durations("model.save")),
        "model.checkpoint_bytes": _mean(tracer.values["model.checkpoint_bytes"]),
        "numerics.adam_step_s": _mean(durations("numerics.adam_step")),
        "numerics.adam_step_calls": per_op(len(by_name["numerics.adam_step"])),
        "decoding.beam_search_s_p50": statistics.median(beam) if beam else 0.0,
        "decoding.beam_search_s_p90": p90 if p90 is not None else 0.0,
        "decoding.beam_search_p90_used_pct": p90_used if p90_used is not None else 0.0,
        "decoding.beam_search_samples": len(beam),
        "decoding.beam_bookkeeping_s": _mean(self_times("decoding.beam_search")),
        "decoding.greedy_s": _mean(durations("decoding.greedy")),
        "decoding.emitted_tokens_mean": _mean(emitted),
        "decoding.steps_per_output_token": decode_steps / sum(emitted) if emitted else 0.0,
        "metrics.bleu_s": _mean(durations("metrics.bleu")),
        "metrics.cider_s": _mean(durations("metrics.cider")),
        "metrics.rouge_l_s": _mean(durations("metrics.rouge_l")),
        "metrics.meteor_s": _mean(durations("metrics.meteor")),
        "metrics.ngram_counts_calls": per_op(tracer.counts["metrics.ngram_counts"]),
        "stemmer.porter_stem_calls": per_op(stem_calls),
        "stemmer.distinct_ratio": (len(tracer.distinct["stemmer.porter_stem"]) / stem_calls
                                   if stem_calls else 0.0),
        "features.read_wav_s": _mean(durations("features.read_wav")),
        "features.resample_calls": per_op(tracer.counts["features.resample"]),
        "features.stft_power_s": _mean(durations("features.stft_power")),
        "features.stft_frames": _mean(tracer.values["features.stft_frames"]),
        "features.log_mel_s": _mean(durations("features.log_mel")),
        "embeddings.mock_extract_s": _mean(durations("embeddings.mock_extract")),
        "embeddings.save_s": _mean(durations("embeddings.save")),
        "embeddings.bytes_written": _mean(tracer.values["embeddings.bytes_written"]),
        "embeddings.load_s": _mean(durations("embeddings.load")),
        "embeddings.bytes_read": _mean(tracer.values["embeddings.bytes_read"]),
        "text.build_vocab_s": _mean(durations("text.build_vocab")),
        "pipeline.load_manifest_s": _mean(durations("pipeline.load_manifest")),
        "pipeline.validation_bleu4_s": _mean(durations("pipeline.validation_bleu4")),
    }
    return out


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_s", "_s_p50", "_s_p90")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_per_output_token")):
        return "ratio"
    if name.endswith("_tokens_mean"):
        return "tokens"
    return "count"


def call_counts(tracer: Tracer) -> Counter:
    """Calls per span or counter name, for the coverage check."""
    counts = Counter(span.name for span in tracer.spans)
    counts.update(tracer.counts)
    return counts
