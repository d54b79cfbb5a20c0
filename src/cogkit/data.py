"""Dataset ingestion: IDX files, split-by-pairs task streams, and a
synthetic digit corpus for machines with no dataset on disk.

The IDX layout is the classic one: a big-endian magic word whose third byte
is the element type (0x08 = unsigned byte) and fourth byte the rank, then
one big-endian 32-bit length per dimension, then the raw row-major payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IDX_UBYTE = 0x08


class IdxError(Exception):
    """Base class for IDX parsing problems."""


class IdxMagicError(IdxError):
    """First two magic bytes are not zero (not an IDX file)."""


class IdxTypeError(IdxError):
    """Element type byte is not unsigned-byte (0x08)."""


class IdxTruncatedError(IdxError):
    """Payload (or header) is shorter than the dimensions promise."""


def parse_idx(data):
    """Decode IDX bytes into a uint8 array of the declared shape."""
    if len(data) < 4:
        raise IdxTruncatedError(f"only {len(data)} bytes; no room for a magic word")
    zero, zero2, dtype, rank = struct.unpack(">BBBB", data[:4])
    if zero != 0 or zero2 != 0:
        raise IdxMagicError(f"magic must start 0x00 0x00, got 0x{zero:02x} 0x{zero2:02x}")
    if dtype != IDX_UBYTE:
        raise IdxTypeError(f"unsupported element type 0x{dtype:02x}; only ubyte (0x08)")
    header_end = 4 + 4 * rank
    if len(data) < header_end:
        raise IdxTruncatedError(f"rank {rank} needs {header_end} header bytes, got {len(data)}")
    shape = struct.unpack(f">{rank}I", data[4:header_end])
    n_items = int(np.prod(shape)) if rank else 1
    payload = data[header_end:]
    if len(payload) < n_items:
        raise IdxTruncatedError(
            f"shape {shape} needs {n_items} payload bytes, got {len(payload)}"
        )
    if len(payload) > n_items:
        raise IdxError(f"{len(payload) - n_items} unexpected trailing bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def dump_idx(array):
    """Encode a uint8 array as IDX bytes (inverse of parse_idx)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, IDX_UBYTE, arr.ndim)
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes(order="C")


def load_idx(path):
    with open(path, "rb") as fh:
        return parse_idx(fh.read())


def save_idx(path, array):
    with open(path, "wb") as fh:
        fh.write(dump_idx(array))


@dataclass(frozen=True)
class Task:
    """One split task: binary-relabelled train/test subsets of a pair."""

    task_id: int
    pair: tuple
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


DEFAULT_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


def make_split_mnist(images, labels, pairs=DEFAULT_PAIRS, per_task_train=500,
                     per_task_test=500, seed=0):
    """Build a tuple of ``Task`` by filtering label pairs out of one dataset.

    Pixels are scaled into [0,1]; within a task the pair's labels remap to
    {0, 1}.  The per-task subsample is a seeded permutation, so the same
    seed always selects the same examples.
    """
    images = np.asarray(images)
    x = images.reshape(len(images), -1).astype(float)
    if images.dtype == np.uint8:
        x /= 255.0
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("pixel values outside [0, 1] after scaling")
    y = np.asarray(labels).astype(int).ravel()
    if len(x) != len(y):
        raise ValueError(f"{len(x)} images but {len(y)} labels")
    present = set(np.unique(y))
    tasks = []
    for task_id, (a, b) in enumerate(pairs):
        for lbl in (a, b):
            if lbl not in present:
                raise ValueError(f"label {lbl} absent from dataset")
        idx = np.flatnonzero((y == a) | (y == b))
        need = per_task_train + per_task_test
        if len(idx) < need:
            raise ValueError(
                f"pair {(a, b)} has {len(idx)} examples, need {need}"
            )
        rng = np.random.default_rng([seed, task_id])
        picked = idx[rng.permutation(len(idx))[:need]]
        tr, te = picked[:per_task_train], picked[per_task_train:]
        tasks.append(
            Task(
                task_id=task_id,
                pair=(a, b),
                train_x=x[tr],
                train_y=(y[tr] == b).astype(int),
                test_x=x[te],
                test_y=(y[te] == b).astype(int),
            )
        )
    return tuple(tasks)


def make_synthetic_digits(per_class=600, seed=0, side=28, classes=10):
    """A stand-in digit set: coarse per-class prototypes, blown up to
    ``side``x``side`` and perturbed per sample.

    All classes share one random canvas, consecutive class pairs share a
    mid-size shift on top of it, and the two classes of a pair sit at
    opposite ends of a pair-specific style axis.  Successive style axes
    anti-correlate, so the discriminating directions of different pairs
    partly collide — a "2" looks more like a "0" than a "1" does, even
    though the labels disagree.  Images therefore correlate strongly
    across the board — the way handwritten digits do — while class pairs
    still differ more between pairs than within one.  Shapes and dtypes
    mirror the classic handwritten-digit files so the rest of the
    pipeline cannot tell the difference.
    """
    rng = np.random.default_rng(seed)
    coarse = side // 4
    canvas = rng.integers(0, 256, size=(coarse, coarse))
    groups = (classes + 1) // 2
    shifts = rng.integers(-70, 71, size=(groups, coarse, coarse))
    rho = 0.6
    axes = [rng.normal(0.0, 1.0, size=(coarse, coarse))]
    for _ in range(1, groups):
        fresh = rng.normal(0.0, 1.0, size=(coarse, coarse))
        axes.append(-rho * axes[-1] + np.sqrt(1.0 - rho * rho) * fresh)
    signs = 1 - 2 * (np.arange(classes) % 2)
    devs = (
        20.0 * signs[:, None, None] * np.asarray(axes)[np.arange(classes) // 2]
        + rng.integers(-8, 9, size=(classes, coarse, coarse))
    )
    protos = np.clip(
        canvas + shifts[np.arange(classes) // 2] + devs, 0, 255
    )
    images = np.empty((classes * per_class, side, side), dtype=np.uint8)
    labels = np.empty(classes * per_class, dtype=np.uint8)
    up = np.ones((4, 4))
    for c in range(classes):
        base = np.kron(protos[c], up)[:side, :side]
        for i in range(per_class):
            noise = rng.normal(0.0, 20.0, size=(side, side))
            img = np.clip(base + noise, 0, 255)
            images[c * per_class + i] = img.astype(np.uint8)
            labels[c * per_class + i] = c
    order = rng.permutation(len(images))
    return images[order], labels[order]
