import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacap.embeddings import (
    load_embedding_file,
    mock_extract,
    plan_segments,
    save_embedding_file,
)
from aacap.errors import CorruptionError, DataError, FormatError
from aacap.features import FRAME_HOP, Spectrogram


def test_plan_segments_enumeration():
    plan = plan_segments(2.4, 0.96)
    assert plan.count == 4
    assert plan.starts == pytest.approx([0.0, 0.48, 0.96, 1.44])


def test_plan_segments_single_window():
    plan = plan_segments(0.96, 0.96)
    assert plan.starts == [0.0]


def test_plan_segments_one_and_a_half_windows():
    plan = plan_segments(1.5 * 0.96, 0.96)
    assert plan.count == 2
    assert plan.starts == pytest.approx([0.0, 0.48])


@pytest.mark.parametrize("window", [0.96, 0.1, 2.0, 1e-3])
@pytest.mark.parametrize("short_by", [1e-10, 5e-10, 1e-9])
def test_plan_segments_gives_a_segment_to_every_duration_it_accepts(window, short_by):
    # the shortness check accepts audio up to 1e-9 s shorter than the window
    plan = plan_segments(window - short_by, window)
    assert plan.starts == [0.0]


def test_audio_a_hair_shorter_than_the_window_gets_one_embedding_row(tmp_path):
    plan = plan_segments(0.96 - 5e-10)
    rows = mock_extract(Spectrogram(np.ones((96, 4))), plan, dim=3, seed=0)
    assert rows.shape == (1, 3)
    save_embedding_file(tmp_path / "one.aace", rows)
    assert load_embedding_file(tmp_path / "one.aace").shape == (1, 3)


def test_plan_segments_too_short_audio():
    with pytest.raises(DataError) as exc:
        plan_segments(0.5, 0.96)
    assert "pad" in str(exc.value)


@pytest.mark.parametrize("duration, window", [
    (float("nan"), 0.96), (float("inf"), 0.96), (2.4, float("nan")), (2.4, float("inf")),
    (float("-inf"), 0.96),
])
def test_plan_segments_rejects_non_finite_times(duration, window):
    with pytest.raises(DataError, match="must be finite"):
        plan_segments(duration, window)


@given(st.floats(0.2, 2.0), st.floats(1.0, 20.0))
@settings(max_examples=100)
def test_plan_segments_spacing_and_fit(window, extra):
    duration = window + extra
    plan = plan_segments(duration, window)
    starts = np.array(plan.starts)
    assert starts[0] == 0.0
    if len(starts) > 1:
        assert np.allclose(np.diff(starts), window / 2.0)
    assert starts[-1] + window <= duration + 1e-6
    # one more segment would overflow
    assert starts[-1] + window / 2.0 + window > duration - 1e-6


def test_embedding_file_round_trip(tmp_path):
    path = tmp_path / "clip.aace"
    matrix = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    save_embedding_file(path, matrix)
    loaded = load_embedding_file(path)
    assert loaded.shape == (2, 3)
    assert np.array_equal(loaded, matrix)


def test_embedding_file_round_trip_is_bit_exact_for_f32_values(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((7, 11)).astype(np.float32).astype(np.float64)
    path = tmp_path / "m.aace"
    save_embedding_file(path, matrix)
    assert np.array_equal(load_embedding_file(path), matrix)


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "bad.aace"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError):
        load_embedding_file(path)


def test_embedding_file_bad_version(tmp_path):
    import struct

    path = tmp_path / "v9.aace"
    path.write_bytes(b"AACE" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError):
        load_embedding_file(path)


@pytest.mark.parametrize("t, f", [(0, 4), (3, 0), (0, 0)])
def test_embedding_file_empty_matrix_is_corrupt(tmp_path, t, f):
    import struct

    path = tmp_path / "clip.aace"
    path.write_bytes(b"AACE" + struct.pack("<III", 1, t, f))
    with pytest.raises(CorruptionError, match=f"empty {t}x{f} matrix"):
        load_embedding_file(path)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (5,)])
def test_save_embedding_file_refuses_empty_or_non_matrix(tmp_path, shape):
    with pytest.raises(DataError):
        save_embedding_file(tmp_path / "bad.aace", np.zeros(shape))


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
    (1e39, "beyond float32's range"), (-1e300, "beyond float32's range"),
], ids=["nan", "inf", "-inf", "1e39", "-1e300"])
def test_save_embedding_file_refuses_what_load_would_reject_and_writes_nothing(
        tmp_path, bad, message):
    matrix = np.ones((3, 4))
    matrix[1, 2] = bad
    path = tmp_path / "bad.aace"
    with pytest.raises(DataError, match=message):
        save_embedding_file(path, matrix)
    assert not path.exists()


def test_save_embedding_file_keeps_values_that_round_to_the_float32_edge(tmp_path):
    # float32's largest value, and one just above it that rounds down to it
    matrix = np.array([[F32_MAX, -F32_MAX, np.nextafter(F32_MAX, np.inf)]])
    path = tmp_path / "edge.aace"
    save_embedding_file(path, matrix)
    assert np.array_equal(load_embedding_file(path), [[F32_MAX, -F32_MAX, F32_MAX]])


def test_embedding_file_truncated_payload(tmp_path):
    import struct

    path = tmp_path / "short.aace"
    # header says 2x3 floats but only 5 are present
    path.write_bytes(b"AACE" + struct.pack("<III", 1, 2, 3) + b"\x00" * 20)
    with pytest.raises(CorruptionError) as exc:
        load_embedding_file(path)
    assert "40" in str(exc.value) and "36" in str(exc.value)


def _repeating_spectrogram(repeats=4, frames_per_segment=10, bins=8):
    block = np.random.default_rng(5).normal(size=(frames_per_segment, bins))
    return Spectrogram(np.tile(block, (repeats, 1)))


def test_mock_extract_identical_segments_identical_rows():
    # non-overlapping plan over a periodic spectrogram: every window sees the
    # same content, so every embedding row must match
    spec = _repeating_spectrogram(repeats=4)
    plan = plan_segments(0.2, 0.1)
    plan.starts = [0.0, 0.1, 0.2, 0.3]
    rows = mock_extract(spec, plan, dim=6, seed=3)
    assert rows.shape == (4, 6)
    for row in rows[1:]:
        assert np.allclose(row, rows[0])


def test_mock_extract_seed_changes_rows():
    spec = _repeating_spectrogram()
    plan = plan_segments(0.35, 0.1)
    a = mock_extract(spec, plan, dim=6, seed=1)
    b = mock_extract(spec, plan, dim=6, seed=2)
    assert a.shape == b.shape
    assert not np.allclose(a, b)


def test_mock_extract_row_count_matches_plan():
    spec = _repeating_spectrogram(repeats=6)
    plan = plan_segments(0.6, 0.2)
    rows = mock_extract(spec, plan, dim=5, seed=0)
    assert rows.shape[0] == plan.count


def test_mock_extract_deterministic():
    spec = _repeating_spectrogram()
    plan = plan_segments(0.3, 0.1)
    a = mock_extract(spec, plan, dim=4, seed=7)
    b = mock_extract(spec, plan, dim=4, seed=7)
    assert np.array_equal(a, b)


def test_mock_extract_rejects_overlong_plan():
    spec = Spectrogram(np.zeros((10, 4)))  # 0.1 s of frames
    plan = plan_segments(1.0, 0.2)
    with pytest.raises(DataError):
        mock_extract(spec, plan, dim=3, seed=0)


def write_raw_aace(path, matrix):
    """An AACE file of `matrix` as float32, written byte by byte: unlike
    save_embedding_file it writes non-finite values too."""
    import struct

    t, f = matrix.shape
    path.write_bytes(b"AACE" + struct.pack("<III", 1, t, f) + matrix.astype("<f4").tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedding_file_non_finite_values_are_corrupt(tmp_path, bad):
    path = tmp_path / "bad.aace"
    matrix = np.zeros((2, 3))
    matrix[1, 2] = bad
    write_raw_aace(path, matrix)
    with pytest.raises(CorruptionError, match="non-finite"):
        load_embedding_file(path)


# mock_extract takes the projection of every row in one product, where the
# per-segment loop took one vector-matrix product per row: BLAS sums each
# 2 * mel_bins-term dot product in another order, so an entry may move by a
# few ulps of the row's largest partial sums. On the benchmark's eight
# seed-0 clips the rows moved by at most 1.4e-15 of their largest |entry|
# (5.3e-15 absolute), and in the cases below by at most 7.3e-16.
POOLED_PROJECTION_RTOL = 1e-14  # of the largest |entry| of the rows


def _per_segment_stats(s: Spectrogram, plan) -> np.ndarray:
    """The per-segment loop mock_extract replaced: each segment's frames
    [round(start / FRAME_HOP), round(end / FRAME_HOP)), clipped to the
    spectrogram and at least one frame wide, summarised by their mean and
    variance."""
    stats = []
    for start in plan.starts:
        lo = int(round(start / FRAME_HOP))
        hi = max(lo + 1, min(int(round((start + plan.window) / FRAME_HOP)), s.frames))
        lo = min(lo, s.frames - 1)
        chunk = s.values[lo:hi]
        stats.append(np.concatenate([chunk.mean(axis=0), chunk.var(axis=0)]))
    return np.array(stats)


@pytest.mark.parametrize("frames, duration, window, widths", [
    # 0.335 s at a 0.01 s hop: starts at 16.75 k frames, segments 33 or 34 wide
    (200, 2.0, 0.335, {33, 34}),
    # the plan runs past the 2 s of frames: the last segment, frames
    # [168, 201), is clipped at s.frames to 32
    (200, 2.15, 0.335, {32, 33, 34}),
    # the default 0.96 s window over 30 s, as the benchmark clips have
    (2997, 29.97, 0.96, {96}),
    # 0.015 s hops round half to even: frames [0, 3), [2, 4), [3, 6)
    (7, 0.07, 0.03, {2, 3}),
], ids=["rounding", "clipped-last", "default-window", "short"])
def test_mock_extract_pools_as_the_per_segment_loop_did(frames, duration, window, widths):
    rng = np.random.default_rng(frames)
    spec = Spectrogram(rng.normal(size=(frames, 64)) * 3.0 - 4.0)
    plan = plan_segments(duration, window)
    stats = _per_segment_stats(spec, plan)
    lo = np.rint(np.array(plan.starts) / 0.01).astype(int)
    assert set((np.minimum(np.rint((np.array(plan.starts) + window) / 0.01), frames)
                - lo).astype(int).tolist()) == widths
    projection = (np.random.default_rng(3).standard_normal((128, 16)) / np.sqrt(128))
    rows = mock_extract(spec, plan, dim=16, seed=3)
    # the pooled statistics are the loop's bit for bit: the same one product
    # over them gives the same rows
    assert np.array_equal(rows, stats @ projection)
    per_row = np.array([row @ projection for row in stats])
    assert np.max(np.abs(rows - per_row)) <= POOLED_PROJECTION_RTOL * np.max(np.abs(per_row))
