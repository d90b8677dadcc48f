"""aacap benchmark: four seeded closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload <train|eval|score|ingest|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark generates its inputs from the
seed under .perfbench_work/, measures the program through its public entry
points in a fresh worker process, checks the outputs, prints every metric
by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (throughput, setup_s,
peak_rss_mb). With --trace 1 the run measures untraced for half the time,
then traced for the full time, and the metrics are the per-layer ones plus
the tracing overhead (traced minus untraced time per unit). perfbench/README.md
defines every metric.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

BLAS_THREADS = 1  # single-threaded BLAS: steadiest on a shared machine, <= nproc
WORKLOADS = ("train", "eval", "score", "ingest")
DEFAULT_SEED = 0
SETUP_PROBES = 7
SUBPROCESS_TIMEOUT_S = 150
# Median repeat time of worker.reference_seconds' kernel on the machine the
# benchmark was built on (Intel Xeon, 2 vCPU; Python 3.11, numpy 2.4, one
# BLAS thread). Throughput is reported at that machine speed.
REFERENCE_KERNEL_S = 0.0035

# Name and unit each workload's throughput is printed under; the result
# line carries it as "throughput" so that every workload reports the same
# end-to-end metric names.
THROUGHPUT_NAMES = {"train": ("train_samples_per_s", "samples/s"),
                    "eval": ("eval_items_per_s", "items/s"),
                    "score": ("score_items_per_s", "items/s"),
                    "ingest": ("ingest_realtime_x", "audio-s/s")}

# Spans and counters that must record calls on each workload's traced run.
EXPECTED_CALLS = {
    "train": ["model.bilstm_l1.forward", "model.bilstm_l1.backward",
              "model.bilstm_l2.forward", "model.bilstm_l2.backward", "model.lstm_cell.step",
              "model.attention.forward", "model.attention.backward", "model.decoder_step",
              "model.init", "model.save", "numerics.adam_step", "decoding.greedy",
              "metrics.bleu", "metrics.ngram_counts", "embeddings.load", "text.build_vocab",
              "pipeline.load_manifest", "pipeline.validation_bleu4"],
    "eval": ["model.bilstm_l1.forward", "model.bilstm_l2.forward", "model.lstm_cell.step",
             "model.encode", "model.attention.forward", "model.decoder_step", "model.init",
             "model.load", "decoding.beam_search", "decoding.log_softmax",
             "metrics.evaluate_corpus", "metrics.bleu", "metrics.cider", "metrics.rouge_l",
             "metrics.meteor", "metrics.ngram_counts", "stemmer.porter_stem",
             "embeddings.load", "pipeline.load_manifest"],
    "score": ["metrics.evaluate_corpus", "metrics.bleu", "metrics.cider", "metrics.rouge_l",
              "metrics.meteor", "metrics.ngram_counts", "stemmer.porter_stem"],
    "ingest": ["features.read_wav", "features.resample", "features.stft_power",
               "features.log_mel", "embeddings.mock_extract", "embeddings.save"],
}

class BenchmarkError(Exception):
    """The benchmark cannot produce a result; nothing is printed on stdout."""


def machine_facts(worker_blas_threads: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads_env": BLAS_THREADS, "blas_threads": worker_blas_threads}


def spread(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "median": statistics.median(values), "max": values[-1],
            "mean": statistics.fmean(values)}


def padding_fractions(segments: list[int], captions_per_item: int, batch: int) -> list[float]:
    """Share of padded frames in each batch, samples taken in manifest order."""
    lengths = [t for t in segments for _ in range(captions_per_item)]
    out = []
    for start in range(0, len(lengths), batch):
        chunk = lengths[start:start + batch]
        out.append(1.0 - sum(chunk) / (len(chunk) * max(chunk)))
    return out


def input_properties(workload: str, info: dict, observed: dict) -> dict:
    """Measured properties of the inputs that later optimisations depend on."""
    import inputs
    if workload == "train":
        return {"segments": spread(info["segments"]),
                "batch_padding": spread(padding_fractions(info["segments"], inputs.N_CAPTIONS,
                                                          info["batch_size"])),
                "caption_words": spread(info["caption_words"]),
                "samples": info["samples"], "vocab_after_min_count": observed.get("vocab_size")}
    if workload == "eval":
        emitted = observed.get("emitted") or [0]
        return {"segments": spread(info["segments"]), "items": info["items"],
                "vocab": info["vocab_size"], "beam_emitted": spread(emitted),
                "beam_emitted_stdev": statistics.pstdev(emitted),
                "captions_checked": observed.get("captions_checked", False)}
    if workload == "score":
        return {"items": info["items"], "words": info["words"],
                "distinct_words": info["distinct_words"],
                "distinct_over_all": info["distinct_words"] / info["words"]}
    clips = info["clips"]
    return {"clips": len(clips), "seconds": spread([c["duration"] for c in clips]),
            "resampled_share": sum(c["rate"] != inputs.TARGET_RATE for c in clips) / len(clips)}


# ---------------------------------------------------------------------------
# reference outputs on the default seed
# ---------------------------------------------------------------------------

def _close(a, b, rtol: float) -> bool:
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            _close(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)
    return a == b


def reference_mismatch(workload: str, observed: dict) -> str:
    """Empty when the default seed's outputs match the recorded ones."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    entry = expected["workloads"].get(workload)
    if entry is None:
        return f"no recorded outputs for {workload}"
    rtol = expected["rtol"][workload]
    for key, want in entry.items():
        if not _close(want, observed.get(key), rtol):
            return f"{key}: expected {want}, got {observed.get(key)} (rtol {rtol})"
    return ""


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _python(args: list[str]) -> str:
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args[:2]} timed out after {exc.timeout} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker {args[:2]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def _measure(workload: str, info_path: Path, seconds: float, traced: bool,
             out_path: Path) -> dict:
    _python(["measure", workload, str(info_path), repr(seconds), "1" if traced else "0",
             str(out_path)])
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    run_dir = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        info = inputs.GENERATORS[workload](seed, run_dir / "inputs")
        info["seed"] = seed
        info_path = run_dir / "inputs.json"
        info_path.write_text(json.dumps(info), encoding="utf-8")
        setups = [json.loads(_python(["setup", workload, str(info_path)]))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        if not trace:
            plain = _measure(workload, info_path, seconds, False, run_dir / "plain.json")
            traced = None
        else:
            plain = _measure(workload, info_path, seconds / 2, False, run_dir / "plain.json")
            traced = _measure(workload, info_path, seconds, True, run_dir / "traced.json")
            spans_file = run_dir / "traced.spans.jsonl"
            shutil.copy(spans_file, WORK / f"spans-{workload}-s{seed}.jsonl")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if seed == DEFAULT_SEED:
        for r in runs:
            mismatch = reference_mismatch(workload, r["observed"])
            if mismatch:
                errors.append(f"reference outputs differ: {mismatch}")
                failed += r["attempted"] - r["failed"]
    return {"workload": workload, "seed": seed, "info": info, "setup": setups,
            "plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "errors": errors}


def at_reference_speed(plain: dict) -> float:
    """Median unit rate, scaled to the reference machine speed.

    The machine's speed moves by 10-50% over tens of seconds to minutes
    (other tenants, clock frequency). The fixed kernel, sampled between the
    run's units, measures the speed the run got; the median rate is scaled
    by (the kernel's median repeat time) / REFERENCE_KERNEL_S.
    """
    return statistics.median(plain["rates"]) * plain["reference_s"] / REFERENCE_KERNEL_S


def end_to_end(run: dict) -> dict:
    plain = run["plain"]
    return {"throughput": {"value": at_reference_speed(plain), "unit": "work/s"},
            "setup_s": {"value": statistics.median(run["setup"]), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"}}


def per_layer(run: dict) -> dict:
    import spans
    plain, traced = run["plain"], run["traced"]
    metrics = {name: {"value": value, "unit": spans.metric_unit(name)}
               for name, value in traced["layers"].items()}
    overhead_s = overhead_pct = 0.0  # stays 0 when a side completed no work
    if plain["work"] and traced["work"]:
        # seconds per unit of work, both at the reference speed
        plain_cost = plain["seconds"] / plain["work"] * REFERENCE_KERNEL_S / plain["reference_s"]
        traced_cost = (traced["seconds"] / traced["work"] * REFERENCE_KERNEL_S
                       / traced["reference_s"])
        overhead_s = (traced_cost - plain_cost) * plain["work"] / plain["units"]
        overhead_pct = 100.0 * (traced_cost / plain_cost - 1.0)
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


def coverage_problems(run: dict) -> list[str]:
    calls = run["traced"]["calls"]
    return [f"{name} recorded no calls on {run['workload']}"
            for name in EXPECTED_CALLS[run["workload"]] if calls.get(name, 0) == 0]


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable block for one run; return its metrics."""
    workload, plain = run["workload"], run["plain"]
    print(f"== perfbench {workload} seed={run['seed']} trace={int(trace)}")
    print("machine:", json.dumps(machine_facts(plain["blas_threads"])))
    print("inputs:", json.dumps(input_properties(workload, run["info"], plain["observed"])))
    for label, part in (("untraced", plain), ("traced", run["traced"])):
        if part:
            print(f"closed loop ({label}): 1 caller, {part['units']} units"
                  f" in {part['seconds']:.3f} s timed")
    for error in run["errors"]:
        print("error:", error)
    if trace:
        for target in run["traced"]["missing"]:
            print(f"trace: shim target missing: {target}")
        metrics = per_layer(run)
        calls = run["traced"]["calls"]
        for name, metric in metrics.items():
            base = name.rsplit("_", 1)[0] if name.endswith("_s") else name
            count = calls.get(base, "")
            print(f"{name} = {metric['value']!r} {metric['unit']}"
                  + (f"  (calls {count})" if count != "" else ""))
    else:
        metrics = end_to_end(run)
        label, unit = THROUGHPUT_NAMES[workload]
        print(f"{label} = {statistics.median(plain['rates'])!r} {unit}"
              f"  (as measured, median of {plain['units']} units)")
        print(f"throughput = {metrics['throughput']['value']!r} {unit}  (at the reference"
              f" speed: kernel {plain['reference_s']:.6f} s vs {REFERENCE_KERNEL_S} s)")
        print(f"setup_s = {metrics['setup_s']['value']!r} s  (median of {len(run['setup'])})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']['value']!r} MB")
    print(f"ops_attempted = {run['attempted']} count")
    print(f"ops_failed = {run['failed']} count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "aacap" / "__init__.py").is_file():
        print(f"perfbench: no aacap sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Pin BLAS threads before anything loads numpy; worker processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    trace = bool(args.trace)
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seed, args.seconds, trace) for w in selected]
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = [p for run in runs for p in coverage_problems(run)] if trace else []
    results = {run["workload"]: report(run, trace) for run in runs}
    if problems:
        for problem in problems:
            print(f"perfbench: trace coverage: {problem}", file=sys.stderr)
        return 1
    metrics = (results[args.workload] if args.workload != "all" else
               {f"{w}.{name}": m for w, ms in results.items() for name, m in ms.items()})
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
