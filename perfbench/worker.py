"""Workload process: set-up probes and the closed measurement loop.

run.py starts this script in a fresh process for each set-up probe and
for each measurement, with the BLAS thread count pinned in the process's
environment. It never prints the benchmark's result line; it writes a JSON
file that run.py reads.

    worker.py setup <workload> <inputs.json>
    worker.py measure <workload> <inputs.json> <seconds> <trace 0|1> <out.json>

A traced measurement also writes its spans next to <out.json>.
"""

import ctypes
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

MAX_CAPTION_TOKENS = 20  # <START> + words + <END>


def setup_probe(workload: str, info: dict) -> float:
    """Seconds of the program's own set-up, timed from before `import aacap`."""
    start = time.perf_counter()
    import aacap  # noqa: F401
    if workload == "train":
        from aacap import pipeline
        pipeline.CaptionModel(pipeline.ModelConfig(embed_dim=info["feature_dim"],
                                                   vocab_size=info["vocab_size"]))
    elif workload == "eval":
        from aacap import pipeline
        pipeline.load_checkpoint(info["checkpoint"])
    elif workload == "score":
        from aacap import metrics
        metrics.load_synonym_table(info["synonyms"])
    else:
        from aacap import embeddings, features  # noqa: F401
    return time.perf_counter() - start


@dataclass
class Outcome:
    """One unit of work: its timed seconds, work done, operations and failures."""

    seconds: float
    work: float
    attempted: int
    failed: int = 0
    error: str = ""


def _in_range(report: dict) -> bool:
    """BLEU, ROUGE-L and METEOR lie in [0, 1]; CIDEr (unscaled) in [0, 10]."""
    return all(math.isfinite(v) and 0.0 <= v <= (10.0 if k == "cider" else 1.0)
               for k, v in report.items())


class TrainWorkload:
    """One epoch of pipeline.train per unit; work is teacher-forced samples."""

    def __init__(self, info: dict, workdir: Path, seed: int):
        from aacap import pipeline
        self.pipeline = pipeline
        self.info = info
        self.out_dir = workdir / "train_run"
        self.seed = seed
        self.batches = math.ceil(info["samples"] / info["batch_size"])
        self.observed: dict = {}

    def step(self) -> Outcome:
        config = self.pipeline.TrainConfig(max_epochs=1, vocab_min_count=1, seed=self.seed)
        start = time.perf_counter()
        try:
            result = self.pipeline.train(config, self.info["manifest"], self.out_dir)
        except Exception as exc:  # a failed epoch is counted, not fatal
            return Outcome(time.perf_counter() - start, 0.0, self.batches, self.batches,
                           f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        loss, val = result.losses[0], result.val_bleu4[0]
        ok = (math.isfinite(loss) and 0.0 <= val <= 1.0
              and Path(result.checkpoint_path).is_file())
        self.observed = {"loss": loss, "val_bleu4": val, "vocab_size": len(result.vocab)}
        return Outcome(elapsed, self.info["samples"], self.batches,
                       0 if ok else self.batches, "" if ok else f"bad epoch: {self.observed}")


class EvalWorkload:
    """One pipeline.evaluate call at beam 3 per unit; work is decoded items.

    The returned captions are read through a capture wrapper on
    pipeline.beam_search (one extra call per item). If a refactor removes
    that name, caption lengths go unchecked and the result says so.
    """

    def __init__(self, info: dict, workdir: Path, seed: int):
        from aacap import pipeline
        self.pipeline = pipeline
        self.info = info
        self.captured: list = []
        self.capture_installed = callable(getattr(pipeline, "beam_search", None))
        if self.capture_installed:
            search = pipeline.beam_search

            def capture(*args, **kwargs):
                hyp = search(*args, **kwargs)
                self.captured.append(list(hyp.tokens))
                return hyp
            pipeline.beam_search = capture
        self.observed: dict = {}

    def step(self) -> Outcome:
        n = self.info["items"]
        self.captured.clear()
        start = time.perf_counter()
        try:
            report = self.pipeline.evaluate(self.info["checkpoint"], self.info["manifest"],
                                            split="eval", beam=3).to_dict()
        except Exception as exc:
            return Outcome(time.perf_counter() - start, 0.0, n, n,
                           f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if not _in_range(report):
            return Outcome(elapsed, n, n, n, f"scores out of range: {report}")
        too_long = sum(1 for tokens in self.captured if len(tokens) > MAX_CAPTION_TOKENS)
        self.observed = {"report": report,
                         "emitted": [len(tokens) - 1 for tokens in self.captured],
                         "captions_checked": self.capture_installed}
        return Outcome(elapsed, n, n, too_long,
                       f"{too_long} captions over {MAX_CAPTION_TOKENS} tokens" if too_long else "")


class ScoreWorkload:
    """One metrics.evaluate_corpus call per unit; work is scored items."""

    def __init__(self, info: dict, workdir: Path, seed: int):
        from aacap import metrics
        self.metrics = metrics
        with open(info["corpus"], encoding="utf-8") as fh:
            corpus = json.load(fh)
        self.candidates, self.references = corpus["candidates"], corpus["references"]
        self.synonyms = metrics.load_synonym_table(info["synonyms"])
        self.observed: dict = {}

    def step(self) -> Outcome:
        n = len(self.candidates)
        start = time.perf_counter()
        try:
            report = self.metrics.evaluate_corpus(self.candidates, self.references,
                                                  synonyms=self.synonyms).to_dict()
        except Exception as exc:
            return Outcome(time.perf_counter() - start, 0.0, n, n,
                           f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        self.observed = {"report": report}
        ok = _in_range(report)
        return Outcome(elapsed, n, n, 0 if ok else n, "" if ok else f"out of range: {report}")


class IngestWorkload:
    """One pass over the clips per unit, each clip through wav -> log-mel ->
    segments -> embeddings -> AACE; work is seconds of audio, an operation
    is one clip."""

    def __init__(self, info: dict, workdir: Path, seed: int):
        import numpy as np
        from aacap import embeddings, features
        import inputs
        self.np, self.embeddings, self.features, self.inputs = np, embeddings, features, inputs
        self.clips = info["clips"]
        self.out_dir = workdir / "ingest_out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.observed: dict = {"checksums": [None] * len(self.clips)}

    def step(self) -> Outcome:
        timed, work, problems = 0.0, 0.0, []
        for index, clip in enumerate(self.clips):
            seconds, problem = self._ingest(index, clip)
            timed += seconds
            if problem:
                problems.append(f"clip {index}: {problem}")
            else:
                work += clip["duration"]
        return Outcome(timed, work, len(self.clips), len(problems), "; ".join(problems))

    def _ingest(self, index: int, clip: dict) -> tuple[float, str]:
        np = self.np
        out_path = self.out_dir / f"clip_{index:03d}.aace"
        start = time.perf_counter()
        try:
            spectrogram = self.features.wav_to_log_mel(clip["path"])
            plan = self.embeddings.plan_segments(clip["duration"])
            matrix = self.embeddings.mock_extract(spectrogram, plan, self.inputs.FEATURE_DIM,
                                                  clip["extract_seed"])
            self.embeddings.save_embedding_file(out_path, matrix)
        except Exception as exc:
            return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.observed["checksums"][index] = [float(spectrogram.values.sum()),
                                             float(matrix.sum())]
        if not np.all(np.isfinite(spectrogram.values)):
            return elapsed, "non-finite log-mel"
        if matrix.shape != (self.inputs.segment_count(clip["duration"]), self.inputs.FEATURE_DIM):
            return elapsed, f"embedding shape {matrix.shape}"
        if not np.array_equal(self.inputs.read_aace(out_path), matrix.astype(np.float32)):
            return elapsed, "AACE round trip differs from float32"
        return elapsed, ""


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "score": ScoreWorkload,
             "ingest": IngestWorkload}


REFERENCE_SHARE = 0.05  # kernel time between units, as a share of the last unit's time
KERNEL_REPEAT_S = 0.0035  # one kernel repeat on the machine the benchmark was built on


def reference_seconds(repeats: int) -> list[float]:
    """Times of a fixed kernel of interpreter loops and small numpy
    matrix-vector steps, the two kinds of work the workloads are made of."""
    import numpy as np
    rng = np.random.default_rng(0)
    matrix, vector = rng.standard_normal((256, 256)) / 16.0, rng.standard_normal(256)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        state = vector
        for _ in range(100):
            state = np.tanh(matrix @ state)
        times.append(time.perf_counter() - start)
    return times


def closed_loop(step, seconds: float) -> tuple[list[Outcome], list[float]]:
    """One caller; the next unit starts only after the previous one ends.

    Runs at least one unit, and stops before a unit that, at the median unit
    time so far, would end past `seconds`. Output checks and the reference
    kernel run between units and are not timed. Returns the outcomes and the
    kernel's repeat times, sampled before the first unit and after each one
    for about REFERENCE_SHARE of the unit's time.
    """
    outcomes, reference = [], reference_seconds(30)
    start = time.perf_counter()
    while True:
        outcomes.append(step())
        reference += reference_seconds(
            max(5, int(REFERENCE_SHARE * outcomes[-1].seconds / KERNEL_REPEAT_S)))
        durations = sorted(o.seconds for o in outcomes)
        if time.perf_counter() - start + durations[len(durations) // 2] > seconds:
            return outcomes, reference


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or -1 if it cannot be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


def measure(workload: str, info: dict, seconds: float, traced: bool, out_path: Path) -> dict:
    import spans
    tracer = spans.Tracer()
    missing: list[str] = []
    if traced:
        missing = spans.install(tracer, spans.build_shims())
    runner = WORKLOADS[workload](info, out_path.parent / "work", info["seed"])
    outcomes, reference = closed_loop(runner.step, seconds)
    attempted = sum(o.attempted for o in outcomes)
    result = {
        "rates": [o.work / o.seconds for o in outcomes],
        "reference_s": statistics.median(reference),
        "seconds": sum(o.seconds for o in outcomes),
        "work": sum(o.work for o in outcomes),
        "units": len(outcomes),
        "attempted": attempted,
        "failed": sum(o.failed for o in outcomes),
        "errors": sorted({o.error for o in outcomes if o.error})[:5],
        "observed": runner.observed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if traced:
        tracer.write(out_path.with_suffix(".spans.jsonl"))
        result["layers"] = spans.summarize(tracer, attempted)
        result["calls"] = dict(spans.call_counts(tracer))
        result["missing"] = missing
    return result


def main(argv: list[str]) -> int:
    mode, workload, info_path = argv[:3]
    with open(info_path, encoding="utf-8") as fh:
        info = json.load(fh)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_probe(workload, info)}))
        return 0
    seconds, traced, out_path = float(argv[3]), argv[4] == "1", Path(argv[5])
    result = measure(workload, info, seconds, traced, out_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
