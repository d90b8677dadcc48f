import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aacap.errors import DataError
from aacap.text import (
    END,
    MAX_TOKENS,
    PAD,
    RESERVED,
    START,
    UNK,
    build_vocab,
    decode,
    encode,
    normalize,
)


def corpus_with_counts(**word_counts):
    return [w for w, n in word_counts.items() for _ in range(n)]


def test_build_vocab_applies_threshold():
    vocab = build_vocab(corpus_with_counts(water=12, gurgles=9), min_count=10)
    assert "water" in vocab.index
    assert "gurgles" not in vocab.index


def test_build_vocab_min_count_one_keeps_everything():
    vocab = build_vocab(["a dog barks", "water flows"], min_count=1)
    for word in ["a", "dog", "barks", "water", "flows"]:
        assert word in vocab.index


def test_build_vocab_deterministic():
    corpus = ["birds chirp loudly", "birds sing", "wind blows", "birds chirp"]
    a = build_vocab(corpus, min_count=1)
    b = build_vocab(corpus, min_count=1)
    assert a.words == b.words


def test_build_vocab_orders_by_frequency_then_lexicographic():
    vocab = build_vocab(corpus_with_counts(zebra=3, apple=3, mango=5), min_count=1)
    assert vocab.words[4:] == ["mango", "apple", "zebra"]


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([], min_count=1)


def test_reserved_indices_fixed():
    vocab = build_vocab(["water"], min_count=1)
    assert vocab.words[:4] == RESERVED
    assert (PAD, START, END, UNK) == (0, 1, 2, 3)


def test_normalize_strips_punctuation_keeps_apostrophes():
    assert normalize("A Dog's bark, loud!") == ["a", "dog's", "bark", "loud"]


def test_encode_simple_caption():
    vocab = build_vocab(["water flows"], min_count=1)
    ids = encode("water flows", vocab)
    water, flows = vocab.index["water"], vocab.index["flows"]
    assert ids == [START, water, flows, END] + [PAD] * 16


def test_encode_truncates_to_max_tokens_keeping_end():
    vocab = build_vocab(["w" + str(i) for i in range(25)], min_count=1)
    caption = " ".join(f"w{i}" for i in range(25))
    ids = encode(caption, vocab)
    assert len(ids) == MAX_TOKENS
    assert ids[0] == START
    assert ids[-1] == END
    assert ids.count(PAD) == 0
    assert ids[1:-1] == [vocab.index[f"w{i}"] for i in range(18)]


def test_encode_empty_caption():
    vocab = build_vocab(["water"], min_count=1)
    assert encode("", vocab) == [START, END] + [PAD] * 18


def test_encode_unknown_words_become_unk():
    vocab = build_vocab(corpus_with_counts(water=10), min_count=10)
    ids = encode("water gurgles", vocab)
    assert ids[1] == vocab.index["water"]
    assert ids[2] == UNK


def test_decode_round_trip():
    vocab = build_vocab(["a stream runs over rocks"], min_count=1)
    assert decode(encode("A stream runs over rocks.", vocab), vocab) == \
        "a stream runs over rocks"


def test_decode_empty_sequence():
    vocab = build_vocab(["water"], min_count=1)
    assert decode([START, END], vocab) == ""


def test_decode_renders_unk():
    vocab = build_vocab(["water"], min_count=1)
    assert decode([START, UNK, END], vocab) == "<unk>"


def test_decode_rejects_out_of_range_id():
    vocab = build_vocab(["water"], min_count=1)
    with pytest.raises(DataError):
        decode([START, 999, END], vocab)


words_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=0, max_size=18)


@given(words_strategy)
@settings(max_examples=150)
def test_encode_decode_round_trip_property(words):
    caption = " ".join(words)
    vocab = build_vocab([caption] if caption else ["placeholder"], min_count=1)
    ids = encode(caption, vocab)
    assert len(ids) == MAX_TOKENS
    assert ids[0] == START
    assert ids.count(END) == 1
    end_pos = ids.index(END)
    assert all(t == PAD for t in ids[end_pos + 1:])
    assert decode(ids, vocab) == " ".join(normalize(caption))
