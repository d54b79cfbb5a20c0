"""IDX parsing and split-task stream construction."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
import reference_data

from cogkit.data import (
    DEFAULT_PAIRS,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    IdxTypeError,
    dump_idx,
    load_idx,
    make_split_mnist,
    make_synthetic_digits,
    parse_idx,
    save_idx,
)


def idx_bytes(array):
    array = np.asarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    dims = b"".join(struct.pack(">I", n) for n in array.shape)
    return header + dims + array.tobytes()


class TestParse:
    def test_image_style_header(self):
        arr = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        data = idx_bytes(arr)
        # magic 00 00 08 03, three dim fields, then 1568 payload bytes
        assert data[:4] == b"\x00\x00\x08\x03"
        assert len(data) == 4 + 12 + 1568
        out = parse_idx(data)
        assert out.shape == (2, 28, 28)
        assert out.dtype == np.uint8
        assert np.array_equal(out, arr)

    def test_label_style_header(self):
        labels = np.array([5, 0, 4, 1, 9, 2, 1, 3, 1, 4], dtype=np.uint8)
        data = idx_bytes(labels)
        assert data[:4] == b"\x00\x00\x08\x01"
        out = parse_idx(data)
        assert out.shape == (10,)
        assert np.array_equal(out, labels)

    def test_reserialize_reproduces_input_bytes(self):
        rng = np.random.default_rng(7)
        for shape in [(13,), (4, 9), (3, 5, 7), (2, 2, 2, 2)]:
            arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
            blob = idx_bytes(arr)
            assert dump_idx(parse_idx(blob)) == blob

    def test_zero_length_dimension(self):
        arr = np.zeros((0, 4), dtype=np.uint8)
        assert parse_idx(idx_bytes(arr)).shape == (0, 4)

    def test_bad_magic(self):
        blob = idx_bytes(np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxMagicError):
            parse_idx(b"\x01" + blob[1:])
        with pytest.raises(IdxMagicError):
            parse_idx(blob[:1] + b"\x02" + blob[2:])

    def test_wrong_type_code(self):
        blob = idx_bytes(np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxTypeError):
            parse_idx(blob[:2] + b"\x0d" + blob[3:])

    def test_truncated(self):
        blob = idx_bytes(np.zeros((2, 3), dtype=np.uint8))
        with pytest.raises(IdxTruncatedError):
            parse_idx(blob[:3])  # inside the magic
        with pytest.raises(IdxTruncatedError):
            parse_idx(blob[:6])  # inside a dim field
        with pytest.raises(IdxTruncatedError):
            parse_idx(blob[:-1])  # one payload byte short

    @pytest.mark.parametrize("shape", [(65536,) * 4, (2**32 - 1,) * 3, (2**32 - 1,) * 4])
    def test_a_count_past_int64_is_exact(self, shape):
        # each shape counts 2**64 items or more; a header with no payload is
        # short by exactly that count
        header = struct.pack(f">BBBB{len(shape)}I", 0, 0, 0x08, len(shape), *shape)
        with pytest.raises(IdxTruncatedError,
                           match=rf"needs {math.prod(shape)} payload bytes, got 0$"):
            parse_idx(header)

    def test_trailing_garbage(self):
        blob = idx_bytes(np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxError):
            parse_idx(blob + b"\x00")

    def test_error_hierarchy(self):
        assert issubclass(IdxMagicError, IdxError)
        assert issubclass(IdxTypeError, IdxError)
        assert issubclass(IdxTruncatedError, IdxError)

    def test_file_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, size=(5, 6), dtype=np.uint8)
        path = tmp_path / "arr.idx"
        save_idx(path, arr)
        assert np.array_equal(load_idx(path), arr)
        assert path.read_bytes() == dump_idx(arr)


def constant_digit_dataset(per_label=120):
    """Images whose every pixel equals the label -> class identity is
    readable straight off the array."""
    labels = np.repeat(np.arange(10), per_label).astype(np.uint8)
    images = np.stack([np.full((28, 28), l, dtype=np.uint8) for l in labels])
    return images, labels


class TestSplitStream:
    def test_shapes_and_binary_labels(self):
        images, labels = constant_digit_dataset()
        stream = make_split_mnist(images, labels, pairs=((0, 1), (2, 3)),
                                  per_task_train=50, per_task_test=40, seed=3)
        assert len(stream) == 2
        for task in stream:
            assert task.train_x.shape == (50, 784)
            assert task.test_x.shape == (40, 784)
            assert set(np.unique(task.train_y)) <= {0, 1}
            assert task.train_x.min() >= 0.0 and task.train_x.max() <= 1.0

    def test_second_pair_label_maps_to_one(self):
        images, labels = constant_digit_dataset()
        stream = make_split_mnist(images, labels, pairs=((2, 3),),
                                  per_task_train=60, per_task_test=30, seed=0)
        task = stream[0]
        # pixel value identifies the source class: 3/255 rows must be y=1
        for x, y in zip(task.train_x, task.train_y):
            src = round(x[0] * 255)
            assert y == (1 if src == 3 else 0)
            assert src in (2, 3)

    def test_subsample_is_seed_deterministic(self):
        images, labels = constant_digit_dataset()
        a = make_split_mnist(images, labels, pairs=((0, 1),), per_task_train=50,
                             per_task_test=50, seed=9)
        b = make_split_mnist(images, labels, pairs=((0, 1),), per_task_train=50,
                             per_task_test=50, seed=9)
        assert np.array_equal(a[0].train_x, b[0].train_x)
        assert np.array_equal(a[0].test_y, b[0].test_y)

    def test_different_seeds_pick_different_examples(self):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(400, 28, 28), dtype=np.uint8)
        labels = np.repeat(np.arange(10), 40).astype(np.uint8)
        a = make_split_mnist(images, labels, pairs=((0, 1),), per_task_train=30,
                             per_task_test=30, seed=1)
        b = make_split_mnist(images, labels, pairs=((0, 1),), per_task_train=30,
                             per_task_test=30, seed=2)
        assert not np.array_equal(a[0].train_x, b[0].train_x)

    def test_float_input_not_rescaled(self):
        images = np.full((80, 4, 4), 0.5)
        labels = np.array([0, 1] * 40)
        stream = make_split_mnist(images, labels, pairs=((0, 1),),
                                  per_task_train=30, per_task_test=30)
        assert np.all(stream[0].train_x == 0.5)

    def test_absent_label_raises(self):
        images, labels = constant_digit_dataset(per_label=10)
        with pytest.raises(ValueError, match="absent"):
            make_split_mnist(images, labels, pairs=((0, 17),),
                             per_task_train=5, per_task_test=5)

    def test_too_few_examples_raises(self):
        images, labels = constant_digit_dataset(per_label=10)
        with pytest.raises(ValueError, match="need"):
            make_split_mnist(images, labels, pairs=((0, 1),),
                             per_task_train=50, per_task_test=50)


class TestSyntheticDigits:
    def test_shape_dtype_and_class_balance(self):
        images, labels = make_synthetic_digits(per_class=30, seed=0)
        assert images.shape == (300, 28, 28)
        assert images.dtype == np.uint8
        assert labels.shape == (300,)
        counts = np.bincount(labels, minlength=10)
        assert np.all(counts == 30)

    def test_deterministic_and_seed_sensitive(self):
        a_img, a_lab = make_synthetic_digits(per_class=10, seed=4)
        b_img, b_lab = make_synthetic_digits(per_class=10, seed=4)
        c_img, _ = make_synthetic_digits(per_class=10, seed=5)
        assert np.array_equal(a_img, b_img)
        assert np.array_equal(a_lab, b_lab)
        assert not np.array_equal(a_img, c_img)

    def test_classes_are_distinguishable(self):
        # nearest-class-mean classification should be near perfect
        images, labels = make_synthetic_digits(per_class=40, seed=2)
        x = images.reshape(len(images), -1).astype(float)
        means = np.stack([x[labels == c].mean(axis=0) for c in range(10)])
        pred = np.argmin(
            ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert (pred == labels).mean() > 0.95

    def test_feeds_the_split_builder(self):
        images, labels = make_synthetic_digits(per_class=60, seed=1)
        stream = make_split_mnist(images, labels, pairs=DEFAULT_PAIRS[:2],
                                  per_task_train=40, per_task_test=20, seed=0)
        assert len(stream) == 2
        assert stream[1].pair == (2, 3)


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_class, seed", [(900, 0), (30, 0), (10, 4), (60, 1), (1, 3), (0, 2)])
def test_synthetic_digits_match_the_per_sample_draws(per_class, seed):
    got = make_synthetic_digits(per_class=per_class, seed=seed)
    want = reference_data.make_synthetic_digits(per_class=per_class, seed=seed)
    for g, w in zip(got, want):
        _same_array(g, w)


@pytest.mark.parametrize("kind", ["uint8", "float"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_split_matches_scaling_the_whole_set(kind, seed):
    images, labels = make_synthetic_digits(per_class=40, seed=seed)
    if kind == "float":
        images = images / 255.0
    args = (images, labels, DEFAULT_PAIRS[:3], 20, 12)
    got = make_split_mnist(*args, seed=seed)
    want = reference_data.make_split_mnist(*args, seed=seed)
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert (g.task_id, g.pair) == (w.task_id, w.pair)
        for name in ("train_x", "train_y", "test_x", "test_y"):
            _same_array(getattr(g, name), getattr(w, name))


@pytest.mark.parametrize("bad", [1.5, -0.25, np.inf, np.nan])
def test_an_out_of_range_pixel_in_a_row_no_task_keeps_raises(bad):
    images, labels = make_synthetic_digits(per_class=20, seed=0)
    images = images / 255.0
    images[np.flatnonzero(labels == 9)[0], 3, 3] = bad  # class 9 is in no pair below
    for build in (make_split_mnist, reference_data.make_split_mnist):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            build(images, labels, pairs=((0, 1),), per_task_train=5, per_task_test=5)


def test_split_holds_only_the_rows_it_keeps():
    # the benchmark's data: 9,000 synthetic images, 2 pairs x 150 rows; turning
    # the whole set into floats first peaked at about 63 MB
    images, labels = make_synthetic_digits(per_class=900, seed=0)
    tracemalloc.start()
    try:
        make_split_mnist(images, labels, DEFAULT_PAIRS[:2], 100, 50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_parse_idx_copies_the_payload_once():
    data = idx_bytes(np.arange(2**20, dtype=np.uint64).astype(np.uint8).reshape(1024, 1024))
    tracemalloc.start()
    try:
        arr = parse_idx(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.flags.owndata and not np.shares_memory(arr, np.frombuffer(data, np.uint8))
    assert peak < 1.25 * 2**20  # a bytes slice and then a copy took twice that
