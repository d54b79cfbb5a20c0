"""Holographic reduced representation primitives.

Fixed-dimension real vectors with circular-convolution binding, involution
based unbinding, superposition, cyclic permutation for positional roles,
cosine similarity, and cleanup against a lexicon of named random symbols.

All operations are pure functions over float64 arrays. Binding is computed
in the Fourier domain; the direct O(d^2) convolution sum is the reference
the tests check against.

The read path gives the bytes of its plain form (``np.roll``, row norms
taken on every clean-up), but for the scores of a clean-up of several
probes at once, which may differ in the last bit; a norm that is NaN or
infinite raises.  ``_permute`` is ``permute`` without its checks, for the
vectors and shifts that ``memory`` and the agent make themselves; working
memory's encode shifts its item without it (see ``memory``).  ``_cosine``
is ``cosine`` given the two checked norms: ``memory``'s retrieval and the
recall runner take each norm once and score through it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .config import check, check_index, check_vector

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
    a = check_vector("a", a)
    b = check_vector("b", b, a.size)
    return np.fft.irfft(np.fft.rfft(a) * np.fft.rfft(b), n=a.size)


def involution(a):
    """Index-reversal a*_j = a_{(-j) mod d}; the approximate inverse element."""
    a = check_vector("a", a)
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
    d = check_vector("vs[0]", vs[0]).size
    vecs = [check_vector(f"vs[{i}]", v, d) for i, v in enumerate(vs)]
    return np.sum(vecs, axis=0)


def permute(a, shift):
    """Cyclic right-shift by the integer `shift` (mod d), as a new array.

    Equal to ``np.roll(a, shift)`` byte for byte: both only copy.  A shift
    that is not an integer, or a bool, raises rather than being truncated.
    """
    a = check_vector("a", a)
    return _permute(a, check_index("shift", shift))


def _permute(a, shift):
    """``permute`` of a float64 vector ``a`` by an int ``shift``, checking
    neither."""
    k = shift % a.shape[0]
    return np.concatenate((a[-k:], a[:-k]))


def _norm(v):
    """``np.linalg.norm(v)`` of a float64 vector: the same dot product of
    the raveled vector with itself and square root, without the wrapper."""
    v = v.ravel(order="K")
    return np.sqrt(v.dot(v))


def _check_norm(n, what):
    """Reject a zero or non-finite (NaN, inf, overflowed) norm."""
    if not math.isfinite(n):
        raise ValueError(f"{what} has a non-finite norm ({n})")
    if n == 0.0:
        raise ValueError(f"{what} has zero norm")


def cosine(a, b):
    """Cosine similarity in [-1, 1]; zero-norm or non-finite operands raise."""
    a = check_vector("a", a)
    b = check_vector("b", b, a.size)
    na = _norm(a)
    nb = _norm(b)
    _check_norm(na, "cosine operand a")
    _check_norm(nb, "cosine operand b")
    return _cosine(a, b, na, nb)


def _cosine(a, b, na, nb):
    """``cosine`` of float64 vectors ``a`` and ``b`` of one length whose
    checked norms are ``na`` and ``nb``, checking none of them."""
    return float(np.dot(a, b) / (na * nb))


def cleanup(v, lex, k=1):
    """Top-k lexicon symbols by descending cosine with the probe ``v``, as a
    list of ``(name, score)``; given a ``(B, d)`` batch of probes, one such
    list per row.

    Ties break by lexicon insertion order. k larger than the lexicon returns
    every entry ranked; k below 1 raises ``ValueError``, and k that is not a
    whole number, or is a bool, ``TypeError``.  All scores come from one
    product of the probes with the lexicon's cached matrix.  A single probe
    is a batch of one: OpenBLAS computes a one-row product as ``mat @ v``,
    so its scores keep those bits.  A batch of several rows groups the sums
    otherwise, and a row's scores can differ from its one-probe scores in
    the last bit.  Each probe's norm is its own 1-d norm.  The cached row
    norms are axis-wise and can differ from the 1-d norms `cosine` takes in
    the last bit, so never mix the two.
    """
    if len(lex) == 0:
        raise ValueError("cleanup against an empty lexicon")
    if check_index("k", k) < 1:
        raise ValueError(f"cleanup needs k >= 1, got {k}")
    probes = np.asarray(v, dtype=float)
    single = probes.ndim != 2
    if single:
        probes = check_vector("probe", probes, lex.d)[None, :]
    elif not probes.size or probes.shape[1] != lex.d:
        raise ValueError(f"bad shape for 'probe': {probes.shape}, expected (B, {lex.d}) "
                         "with B >= 1")
    nv = np.empty(len(probes))
    for i, row in enumerate(probes):
        nv[i] = _norm(row)
        _check_norm(nv[i], "cleanup probe" if single else f"cleanup probe row {i}")
    mat, norms, names = lex.stacked()
    scores = probes @ mat.T / (nv[:, None] * norms)
    order = np.argsort(-scores, axis=1, kind="stable")[:, : min(k, len(names))]
    tops = [[(names[i], row[i]) for i in top] for top, row in zip(order.tolist(), scores.tolist())]
    return tops[0] if single else tops


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
        self.d = int(check("d", d))
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
