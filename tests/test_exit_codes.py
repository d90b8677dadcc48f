"""The exit-code contract under damaged inputs: whatever the bytes of a
checkpoint, embedding file, WAV or manifest, `cli.main` returns 0 (the damage
changed nothing it checks), 2 or 3, with no exception escaping."""

import argparse
import shutil
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_features import write_wav

from aacap import cli
from aacap.decoding import MAX_BEAM
from aacap.features import Waveform
from aacap.model import CaptionModel, ModelConfig
from aacap.pipeline import load_manifest, make_toy_dataset

VOCAB = ["<PAD>", "<START>", "<END>", "<UNK>", "a", "b"]
TINY_DIMS = ["--enc-hidden", "2", "--attn-dim", "2", "--dec-hidden", "2", "--word-dim", "2"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Whole inputs of each kind, and the command that reads each one."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = make_toy_dataset(root / "toy", seed=0, n_items=3, segments_per_item=(1, 3))
    aace = load_manifest(manifest)[0].path
    wav = root / "clip.wav"
    write_wav(wav, Waveform(np.random.default_rng(0).uniform(-0.3, 0.3, 4000), 16000))
    checkpoints = {}
    for name, embed_dim in [("aace.ckpt", 16), ("wav.ckpt", 64)]:
        model = CaptionModel(ModelConfig(embed_dim=embed_dim, vocab_size=len(VOCAB),
                                         enc_hidden=2, attn_dim=2, dec_hidden=2, word_dim=2))
        model.save(root / name, extra_config={"vocab": VOCAB})
        checkpoints[name] = str(root / name)

    def caption(checkpoint, item):
        return ["caption", "--checkpoint", checkpoint, "--input", item, "--beam", "2"]

    return {
        "checkpoint": (checkpoints["aace.ckpt"],
                       lambda bad: caption(bad, aace)),
        "aace": (aace, lambda bad: caption(checkpoints["aace.ckpt"], bad)),
        "wav": (str(wav), lambda bad: caption(checkpoints["wav.ckpt"], bad)),
        "manifest-evaluate": (str(manifest), lambda bad: [
            "evaluate", "--checkpoint", checkpoints["aace.ckpt"], "--manifest", bad,
            "--split", "dev", "--beam", "2"]),
        "manifest-train": (str(manifest), lambda bad: [
            "train", "--manifest", bad, "--out-dir", str(root / "run"), "--epochs", "1",
            "--batch-size", "4", *TINY_DIMS]),
    }


@st.composite
def damage(draw, size: int):
    """A truncation, or one to three byte edits. Half of the edits fall
    within the first 512 bytes, where each of these formats keeps its header,
    and half write printable ASCII, which keeps JSON text decodable."""
    if draw(st.booleans()):
        return ("cut", draw(st.integers(0, size - 1)))
    position = st.one_of(st.integers(0, min(size, 512) - 1), st.integers(0, size - 1))
    value = st.one_of(st.integers(0, 255), st.integers(0x20, 0x7E))
    return ("edit", draw(st.lists(st.tuples(position, value), min_size=1, max_size=3)))


def _damaged(data: bytes, change) -> bytes:
    kind, detail = change
    if kind == "cut":
        return data[:detail]
    out = bytearray(data)
    for position, value in detail:
        out[position] = value
    return bytes(out)


@pytest.mark.parametrize("kind", ["checkpoint", "aace", "wav", "manifest-evaluate",
                                  "manifest-train"])
def test_damaged_inputs_exit_0_2_or_3(files, kind, capsys):
    whole_path, argv_for = files[kind]
    with open(whole_path, "rb") as fh:
        whole = fh.read()
    bad = str(Path(whole_path).with_name(f"bad-{Path(whole_path).name}"))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(change=damage(len(whole)))
    def run(change):
        with open(bad, "wb") as fh:
            fh.write(_damaged(whole, change))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # caption-count and numpy warnings
            code = cli.main(argv_for(bad))
        capsys.readouterr()
        assert code in (0, 2, 3), change

    run()


def test_every_single_byte_edit_in_the_weights_exits_3(files, capsys):
    whole_path, argv_for = files["checkpoint"]
    with open(whole_path, "rb") as fh:
        whole = fh.read()
    weights_start = 13 + int.from_bytes(whole[5:9], "little")
    bad = str(Path(whole_path).with_name("edited-weights.ckpt"))
    rng = np.random.default_rng(13)
    positions = rng.integers(weights_start, len(whole), size=2000)
    flips = rng.integers(1, 256, size=2000)  # xor with a nonzero byte: always an edit
    for position, flip in zip(positions.tolist(), flips.tolist()):
        data = bytearray(whole)
        data[position] ^= flip
        with open(bad, "wb") as fh:
            fh.write(data)
        assert cli.main(argv_for(bad)) == 3, (position, flip)
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err


def test_every_single_byte_edit_in_the_config_block_exits_3(files, capsys):
    # from the block's length prefix through its CRC and JSON (model dims,
    # array names, word sums, vocabulary) to its last byte
    whole_path, argv_for = files["checkpoint"]
    with open(whole_path, "rb") as fh:
        whole = fh.read()
    weights_start = 13 + int.from_bytes(whole[5:9], "little")
    bad = str(Path(whole_path).with_name("edited-config.ckpt"))
    flips = np.random.default_rng(17).integers(1, 256, size=weights_start)
    for position in range(5, weights_start):
        data = bytearray(whole)
        data[position] ^= int(flips[position])
        with open(bad, "wb") as fh:
            fh.write(data)
        assert cli.main(argv_for(bad)) == 3, (position, int(flips[position]))
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("rate", [44100, 16000])
def test_a_wav_with_no_samples_exits_3(files, tmp_path, rate, capsys):
    path = tmp_path / f"empty-{rate}.wav"
    write_wav(path, Waveform(np.zeros(0), rate))
    assert cli.main(files["wav"][1](str(path))) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "has no samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("min_count", ["0", "-5"])
@pytest.mark.parametrize("command", ["train"])
def test_a_min_count_below_one_exits_2(files, tmp_path, command, min_count, capsys):
    argv = [command, "--manifest", files["manifest-train"][0], "--out-dir",
            str(tmp_path / "run"), "--epochs", "1", *TINY_DIMS]
    assert cli.main([*argv, "--min-count", min_count]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "min_count must be >= 1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, code, message", [
    (["--enc-hidden", "0"], 2, "model enc_hidden must be a positive integer, got 0"),
    (["--word-dim", "-3"], 2, "model word_dim must be a positive integer, got -3"),
    (["--manifest", "absent.jsonl"], 3, "absent.jsonl"),
    (["--enc-hidden", "10000000"], 2, "allocate"),
], ids=["enc-hidden-0", "word-dim-negative", "missing-manifest", "too-large"])
def test_a_train_that_fails_leaves_no_out_dir(files, tmp_path, command, code, message, capsys):
    argv = ["train", "--manifest", files["manifest-train"][0], "--out-dir",
            str(tmp_path / "run"), "--epochs", "1", *TINY_DIMS, *command]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == "" and message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("out_dir", ["toy", "new/parents/toy"])
def test_a_make_toy_that_fails_leaves_no_directory_it_made(tmp_path, out_dir, capsys):
    argv = ["make-toy", "--out-dir", str(tmp_path / out_dir), "--dim", "100000000000000"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "allocate" in err
    assert list(tmp_path.iterdir()) == []


def test_a_bad_model_dim_exits_2_before_any_feature_file_is_read(tmp_path, capsys):
    manifest = make_toy_dataset(tmp_path / "toy", seed=0, n_items=3)
    Path(load_manifest(manifest)[1].path).write_bytes(b"junk")
    argv = ["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"),
            "--epochs", "1", *TINY_DIMS]
    assert cli.main(argv) == 3  # the junk file is a data error once the dims are fine
    capsys.readouterr()
    assert cli.main([*argv, "--enc-hidden", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "enc_hidden" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-time-mask", "-1", "mask lengths must be non-negative"),
    ("--max-freq-mask", "-5", "mask lengths must be non-negative"),
    ("--augment-prob", "2", "apply_probability 2.0 outside [0, 1]"),
])
@pytest.mark.parametrize("augment", [[], ["--augment"]], ids=["without-augment", "augment"])
def test_a_bad_masking_flag_exits_2_with_or_without_augment(files, tmp_path, flag, value,
                                                            message, augment, capsys):
    argv = ["train", "--manifest", files["manifest-train"][0], "--out-dir",
            str(tmp_path / "run"), "--epochs", "1", *TINY_DIMS, *augment, flag, value]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "make-toy"])
def test_a_size_too_large_to_allocate_exits_2(files, tmp_path, command, capsys):
    # each asks for more than 2**47 bytes at once, which fails before any
    # memory is touched, whatever the system's overcommit setting
    argv = (["train", "--manifest", files["manifest-train"][0], "--out-dir",
             str(tmp_path / "run"), "--epochs", "1", "--enc-hidden", "10000000"]
            if command == "train" else
            ["make-toy", "--out-dir", str(tmp_path / "toy"), "--dim", "100000000000000"])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and "allocate" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "make-toy"])
def test_a_size_numpy_cannot_represent_exits_2(files, tmp_path, command, capsys):
    # a dim of 2**63 - 1 asks for more bytes than numpy can address in one
    # array, which numpy reports as a ValueError, not a MemoryError
    argv = (["train", "--manifest", files["manifest-train"][0], "--out-dir",
             str(tmp_path / "run"), "--epochs", "1", "--enc-hidden", str(2**63 - 1)]
            if command == "train" else
            ["make-toy", "--out-dir", str(tmp_path / "toy"), "--dim", str(2**63 - 1)])
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ") and "too large to allocate" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Values every int or float option is walked through, then TOO_LARGE, one past
# the largest int64. Where a large valid value is only more work, UPPER_EDGES
# gives the values the walk tries in its place.
OUT_OF_DOMAIN = ["0", "-1", "nan", "inf", "-inf"]
TOO_LARGE = str(2**63)
UPPER_EDGES = {"--epochs": ["20"], "--n-items": ["100"],
               "--beam": [str(MAX_BEAM), str(MAX_BEAM + 1), TOO_LARGE]}
VALID = {int: "2", float: "0.5", "--dim": "8"}  # --dim holds one row per toy event


def _numeric_options():
    """(command, option, type) of every int or float option of the parser."""
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command, sub in commands.items():
        for action in sub._actions:
            if action.type in (int, float):
                yield command, action.option_strings[-1], action.type


def test_every_numeric_flag_exits_0_2_or_3_with_one_line_and_no_leftovers(files, tmp_path,
                                                                        capsys):
    out = tmp_path / "out"
    base = {  # the tiniest run of each command; the walked flag comes last and wins
        "train": ["train", "--manifest", files["manifest-train"][0], "--out-dir", str(out),
                  "--epochs", "1", "--batch-size", "8", "--min-count", "1", *TINY_DIMS],
        "evaluate": ["evaluate", "--checkpoint", files["checkpoint"][0], "--manifest",
                     files["manifest-train"][0], "--split", "eval"],
        "caption": ["caption", "--checkpoint", files["checkpoint"][0], "--input",
                    files["aace"][0]],
        "make-toy": ["make-toy", "--out-dir", str(out), "--n-items", "2"],
    }
    started = time.monotonic()
    cases = 0
    for command, option, kind in _numeric_options():
        upper = UPPER_EDGES.get(option, [TOO_LARGE])
        for value in [*OUT_OF_DOMAIN, *upper, VALID.get(option, VALID[kind])]:
            case = f"{command} {option} {value}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = cli.main([*base[command], option, value])
                except SystemExit as exc:  # argparse rejected the value
                    code = exc.code
            _, err = capsys.readouterr()
            assert code in (0, 2, 3), case
            assert "Traceback" not in err, case
            if code != 0:
                assert err.count("\n") == 1 and not caught, (case, err, caught)
                assert not out.exists(), case
            shutil.rmtree(out, ignore_errors=True)
            cases += 1
    assert cases > 100
    assert time.monotonic() - started < 20.0
