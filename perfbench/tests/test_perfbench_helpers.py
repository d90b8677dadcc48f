"""Tests for the benchmark's own helpers: self time, the tail percentile
rule, seeded input generation, and shim installation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import inputs  # noqa: E402
import spans  # noqa: E402


def test_self_time_without_children_is_duration():
    assert spans.self_time(1.0, 3.5, []) == pytest.approx(2.5)


def test_self_time_subtracts_nested_children_once():
    # a grandchild inside a child is already covered by the child
    children = [(1.0, 2.0), (1.2, 1.5), (3.0, 4.0)]
    assert spans.self_time(0.0, 5.0, children) == pytest.approx(3.0)


def test_self_time_merges_overlapping_children():
    children = [(1.0, 3.0), (2.0, 4.0), (3.5, 4.5)]
    assert spans.self_time(0.0, 5.0, children) == pytest.approx(1.5)


def test_self_time_clips_children_to_the_parent():
    children = [(-1.0, 1.0), (4.0, 9.0), (7.0, 8.0)]
    assert spans.self_time(0.0, 5.0, children) == pytest.approx(3.0)


def test_tail_percentile_keeps_p90_with_enough_samples():
    value, used, n = spans.tail_percentile(range(1, 101), 90)
    assert (value, used, n) == (90, 90.0, 100)


def test_tail_percentile_drops_to_leave_ten_samples_beyond():
    value, used, n = spans.tail_percentile(range(1, 31), 90)
    assert n == 30
    assert value == 20
    assert used == pytest.approx(100 * 20 / 30)
    assert sum(1 for x in range(1, 31) if x > value) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert spans.tail_percentile(range(10), 90) == (None, None, 10)
    assert spans.tail_percentile(range(11), 90) == (0, 100 / 11, 11)


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["train", "score", "ingest", "eval"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    generate = inputs.GENERATORS[workload]
    first = generate(7, tmp_path / "a")
    second = generate(7, tmp_path / "b")
    other = generate(8, tmp_path / "c")
    files_a, files_b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert files_a and files_a == files_b
    assert json.dumps(first).replace("/a/", "/b/") == json.dumps(second)
    assert _tree(tmp_path / "c") != files_a
    assert other != first


def test_stratified_draws_one_value_per_stratum():
    import numpy as np
    values = np.sort(inputs.stratified(np.random.default_rng(0), 8, 15.0, 30.0))
    strata = np.floor((values - 15.0) / (15.0 / 8)).astype(int)
    assert list(strata) == list(range(8))


def test_segment_count_matches_clip_bounds():
    assert inputs.segment_count(15.0) == 30
    assert inputs.segment_count(30.0) == 61


def test_shims_reach_from_imports_and_default_arguments():
    """Run in a fresh interpreter: installing shims patches aacap for good."""
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]
import spans
tracer = spans.Tracer()
shims = spans.build_shims() + [spans.Shim("gone", ("aacap.metrics:no_such_function",))]
missing = spans.install(tracer, shims)
from aacap import metrics
metrics.evaluate_corpus([["dogs", "barking"]], [[["a", "dog", "barks"]]])
print(json.dumps({{"missing": missing, "calls": spans.call_counts(tracer)}}))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, check=True)
    result = json.loads(done.stdout)
    assert result["missing"] == ["aacap.metrics:no_such_function"]
    calls = result["calls"]
    # meteor reaches porter_stem only through its default argument
    assert calls["stemmer.porter_stem"] > 0
    assert calls["metrics.meteor"] == 1
    assert calls["metrics.bleu"] == 4
    assert calls["metrics.evaluate_corpus"] == 1
