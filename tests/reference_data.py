"""Reference oracle for ``cogkit.data``: the straightforward versions.

``make_split_mnist`` turns the whole image set into floats and scales it
before it picks any task's rows; ``make_synthetic_digits`` draws its noise
one sample at a time.  The package's functions must give the same bytes,
dtypes and layout while holding only the rows a task keeps and drawing one
buffer of noise per class.
"""

from __future__ import annotations

import numpy as np

from cogkit.data import DEFAULT_PAIRS, Task


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
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN is outside too
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
