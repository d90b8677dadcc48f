"""perfbench's traced runs find every span and counter they expect.

`perfbench/run.py --trace 1` patches timing shims onto the program's
functions by name and fails its coverage check when an expected name
records no calls, so a refactor that renames or bypasses a shimmed function
breaks the traced benchmark. This test installs the same shims in a fresh
process, runs a toy one-epoch `train` and a toy `evaluate`, and applies the
benchmark's own coverage check to each. It reads perfbench and changes
nothing in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, {perfbench!r})
import run, spans
from aacap import pipeline

tracer = spans.Tracer()
missing = spans.install(tracer, spans.build_shims())
work = Path({work!r})
manifest = pipeline.make_toy_dataset(work / "toy", seed=0, n_items=4)
config = pipeline.TrainConfig(batch_size=4, max_epochs=1, seed=0, vocab_min_count=1,
                              enc_hidden=8, attn_dim=8, dec_hidden=8, word_dim=8)
problems = []
for workload, call in [
        ("train", lambda: pipeline.train(config, manifest, work / "run")),
        ("eval", lambda: pipeline.evaluate(work / "run" / "model.ckpt", manifest,
                                           split="eval", beam=3))]:
    tracer.spans.clear()
    tracer.counts.clear()
    call()
    calls = dict(spans.call_counts(tracer))
    problems += run.coverage_problems({{"workload": workload, "traced": {{"calls": calls}}}})
print(json.dumps({{"missing": missing, "problems": problems}}))
"""


def test_traced_train_and_eval_record_every_expected_call(tmp_path):
    script = SCRIPT.format(perfbench=str(REPO / "perfbench"), work=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert result["missing"] == []
