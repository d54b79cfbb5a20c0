"""Holographic reduced representation primitives.

Fixed-dimension real vectors with circular-convolution binding, involution
based unbinding, superposition, cyclic permutation for positional roles,
cosine similarity, and cleanup against a lexicon of named random symbols.

All operations are pure functions over float64 arrays. Binding is computed
in the Fourier domain; the direct O(d^2) convolution sum is the reference
the tests check against.

The read path gives the bytes of its plain form (``np.roll``, row norms
taken on every clean-up); a norm that is NaN or infinite raises.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

__all__ = [
    "random_symbol",
    "bind",
    "involution",
    "unbind",
    "superpose",
    "permute",
    "cosine",
    "cleanup",
    "SymbolLexicon",
]


def _as_vector(v, name="vector"):
    a = np.asarray(v, dtype=np.float64)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {a.shape}")
    return a


def _check_same_dim(a, b):
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def _symbol_rng(name, seed):
    # Stable across runs and platforms: Python's hash() is salted, so derive
    # the per-symbol stream from a keyed blake2b digest instead.
    h = hashlib.blake2b(name.encode("utf-8"), digest_size=16, person=b"cogkit-sym")
    h.update(int(seed).to_bytes(8, "little", signed=True))
    return np.random.default_rng(int.from_bytes(h.digest(), "little"))


def random_symbol(name, d, seed=0):
    """Deterministic random symbol vector for `name`.

    Components are i.i.d. Normal(0, 1/d) so the expected squared norm is 1.
    The same (name, d, seed) always yields the identical vector.
    """
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; must be >= 1")
    rng = _symbol_rng(name, seed)
    return rng.standard_normal(d) / np.sqrt(d)


def bind(a, b):
    """Circular convolution c_j = sum_k a_k * b_{(j-k) mod d}.

    Commutative and bilinear; computed via real FFTs.
    """
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_same_dim(a, b)
    d = a.shape[0]
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=d)


def involution(a):
    """Index-reversal a*_j = a_{(-j) mod d}; the approximate inverse element."""
    a = _as_vector(a, "a")
    out = np.empty_like(a)
    out[0] = a[0]
    out[1:] = a[:0:-1]
    return out


def unbind(c, b):
    """Approximate recovery of a from c = bind(a, b): bind(c, involution(b))."""
    return bind(c, involution(b))


def superpose(vs):
    """Element-wise sum of a non-empty list of same-dimension vectors."""
    if len(vs) == 0:
        raise ValueError("superpose of an empty list")
    vecs = [_as_vector(v) for v in vs]
    d = vecs[0].shape[0]
    for v in vecs[1:]:
        if v.shape[0] != d:
            raise ValueError(f"dimension mismatch in superpose: {d} vs {v.shape[0]}")
    return np.sum(vecs, axis=0)


def permute(a, shift):
    """Cyclic right-shift by the integer `shift` (mod d), as a new array.

    Equal to ``np.roll(a, shift)`` byte for byte: both only copy.  A shift
    that is not an integer raises rather than being truncated.
    """
    a = _as_vector(a, "a")
    try:
        shift = operator.index(shift)
    except TypeError:
        raise TypeError(f"permute shift must be an integer, got {shift!r}") from None
    k = shift % a.shape[0]
    if k == 0:
        return a.copy()
    return np.concatenate((a[-k:], a[:-k]))


def _check_norm(n, what):
    """Reject a zero or non-finite (NaN, inf, overflowed) norm."""
    if not math.isfinite(n):
        raise ValueError(f"{what} has a non-finite norm ({n})")
    if n == 0.0:
        raise ValueError(f"{what} has zero norm")


def cosine(a, b):
    """Cosine similarity in [-1, 1]; zero-norm or non-finite operands raise."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    _check_same_dim(a, b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    _check_norm(na, "cosine operand a")
    _check_norm(nb, "cosine operand b")
    return float(np.dot(a, b) / (na * nb))


def cleanup(v, lex, k=1):
    """Top-k lexicon symbols by descending cosine with the probe `v`.

    Ties break by lexicon insertion order. k larger than the lexicon returns
    every entry ranked; k < 1 raises.  The matrix, its row norms and the
    names come from the lexicon's cache; those axis-wise norms can differ
    from the 1-d norms `cosine` takes in the last bit, so never mix the two.
    """
    if len(lex) == 0:
        raise ValueError("cleanup against an empty lexicon")
    if k < 1:
        raise ValueError(f"cleanup needs k >= 1, got {k}")
    v = _as_vector(v, "probe")
    nv = np.linalg.norm(v)
    _check_norm(nv, "cleanup probe")
    mat, norms, names = lex.stacked()
    if mat.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: lexicon d={mat.shape[1]} vs probe {v.shape[0]}")
    scores = mat @ v / (norms * nv)
    order = np.argsort(-scores, kind="stable")[: min(k, len(names))]
    return [(names[i], float(scores[i])) for i in order]


class SymbolLexicon:
    """Ordered collection of named random symbols sharing one dimension.

    Vectors are regenerated from (name, seed) on demand, so a lexicon is
    fully described by its name list, dimension, and seed; rebuilding from
    those yields bit-identical vectors. Read-shared after construction.

    Symbol vectors are read-only.  The stacked matrix, its row norms and the
    name tuple are built together on first use and cached, also read-only;
    `add` of a new name drops all three.
    """

    def __init__(self, d, seed=0, names=()):
        if d < 1:
            raise ValueError(f"invalid dimension d={d}; must be >= 1")
        self.d = int(d)
        self.seed = int(seed)
        self._entries = {}
        self._cache = None
        for name in names:
            self.add(name)

    def add(self, name):
        """Register `name`, generating its vector; idempotent for known names."""
        if name not in self._entries:
            v = random_symbol(name, self.d, self.seed)
            v.flags.writeable = False  # a write would leave the cached matrix stale
            self._entries[name] = v
            self._cache = None
        return self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, name):
        return self._entries[name]

    def stacked(self):
        """(n, d) matrix, its ``np.linalg.norm(matrix, axis=1)`` and the name
        tuple, in insertion order (cached together)."""
        if self._cache is None:
            mat = np.stack(list(self._entries.values()))
            norms = np.linalg.norm(mat, axis=1)
            mat.flags.writeable = False
            norms.flags.writeable = False
            self._cache = (mat, norms, tuple(self._entries))
        return self._cache
