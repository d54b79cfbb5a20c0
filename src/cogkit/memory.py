"""Working and declarative memory over holographic vectors.

Working memory is a single evolving trace: each encoded item is tagged with
its serial position by a cyclic permutation and added onto a decayed copy of
the buffer, so later items dominate (recency) while permutation keeps the
positions exactly separable.  Declarative memory keeps one accumulated trace
per concept; retrieval ranks stored concepts by cosine against a cue and turns
the scores into a probability distribution.

All state here is value-like: operations return updated copies and never
mutate their inputs, so snapshots and rollback stay trivial.

Each public function checks its arguments.  ``_wm_encode`` and
``_dm_retrieve`` are the bodies of ``wm_encode`` and ``dm_retrieve`` after
those checks, which the agent's routing calls on the values it made (and
the recall runner, ``_wm_encode`` on its lexicon's symbols); the
retrieval still checks the cue's and each trace's norm.  ``_wm_encode``
makes one new array: the decayed trace, onto which it adds the item's two
halves in place at the shifted offset, so each element is
``rho * m[i] + item[(i - p) mod d]``, the bytes of ``rho * m + np.roll(item,
p)``.  ``dm_store`` shifts symbols through ``hrr._permute``, ``hrr.permute``
without its checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hrr
from .config import check, check_index, check_vector


@dataclass(frozen=True)
class WorkingMemoryBuffer:
    """Superposition buffer with decay ``rho`` and an item counter.

    ``m`` is the zero vector exactly when ``position`` is zero; ``position``
    counts encodes since the buffer was made empty.
    """

    m: np.ndarray
    rho: float
    position: int
    d: int

    @classmethod
    def empty(cls, d, rho=1.0):
        check("d", d)
        check("wm_rho", rho, name="rho")
        return cls(m=np.zeros(d), rho=float(rho), position=0, d=int(d))


def wm_encode(buf: WorkingMemoryBuffer, item) -> WorkingMemoryBuffer:
    """Append ``item`` at the next serial position.

    The buffer decays by ``rho`` and the item is added under a cyclic shift
    of ``position + 1``, so position p is recovered later by shifting back.
    """
    return _wm_encode(buf, check_vector("item", item, buf.d))


def _wm_encode(buf, item):
    """``wm_encode`` of a float64 vector ``item`` of length ``buf.d``,
    checking none."""
    p = buf.position + 1
    d = buf.d
    k = p % d
    m = buf.m * buf.rho  # the one new array: rho * m, then the item shifted by p
    m[k:] += item[: d - k]
    m[:k] += item[d - k :]
    return WorkingMemoryBuffer(m=m, rho=buf.rho, position=p, d=d)


def wm_recall(buf: WorkingMemoryBuffer, p, lex: hrr.SymbolLexicon):
    """Recall the item at position ``p`` (1-based) as ``(name, score, probe)``;
    given a sequence of positions (a list, tuple, range or array of one
    dimension; a 0-d array is one position), recall them all as ``(names,
    scores, probes)`` with one clean-up.

    The probe of position p is the buffer un-permuted by p, byte-equal to
    ``np.roll(buf.m, -p)``; the probes of a sequence are the C-ordered rows
    of one ``(B, d)`` array, and a single position's probe is its one row.
    Each probe is cleaned up against the lexicon and its score is the
    winning cosine, so a caller that scores a probe against a known item
    needs no second un-permute.  A position that is not an integer, or is a
    bool, raises ``TypeError``; one outside ``1..buf.position``, no position
    at all, or a buffer holding NaN or inf raises ``ValueError``.
    """
    if isinstance(p, np.ndarray) and p.ndim == 0:
        p = p[()]  # one position, as its scalar
    single = not isinstance(p, (list, tuple, range, np.ndarray))
    positions = (p,) if single else p
    if len(positions) == 0:
        raise ValueError("recall needs at least one position p")
    d, m = buf.d, buf.m
    probes = np.empty((len(positions), d))
    for row, q in zip(probes, positions):
        q = check_index("p", q)
        if not 1 <= q <= buf.position:
            raise ValueError(f"recall position p={q} out of range 1..{buf.position}")
        k = q % d  # np.roll(m, -q): m[k:] then m[:k]
        row[: d - k] = m[k:]
        row[d - k :] = m[:k]
    tops = hrr.cleanup(probes, lex, k=1)
    names = [top[0][0] for top in tops]
    scores = [top[0][1] for top in tops]
    if single:
        return names[0], scores[0], probes[0]
    return names, scores, probes


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked retrieval with a strength distribution.

    ``strengths`` is a softmax over *all* stored concepts, listed in the same
    descending-score order; ``ranked`` is the top-k prefix of that order.
    Hence ``strengths`` always sums to 1 even when k cuts the ranking short.
    """

    ranked: list
    strengths: np.ndarray


@dataclass(frozen=True)
class DeclarativeMemory:
    """Per-concept holographic traces.

    Traces are unnormalized accumulators, so repeatedly stored associations
    outweigh rare ones.  A concept stored only with empty contexts has no
    trace (there is nothing to accumulate), and does not participate in
    retrieval.
    """

    lexicon: hrr.SymbolLexicon
    traces: dict = field(default_factory=dict)


def dm_store(dm: DeclarativeMemory, concept, context) -> DeclarativeMemory:
    """Accumulate a context occurrence onto ``concept``'s trace.

    The j-th context name (1-based) contributes its lexicon vector shifted by
    j, mirroring the working-memory position scheme.  An empty context leaves
    the memory as it was.
    """
    for name in (concept, *context):
        if name not in dm.lexicon:
            raise ValueError(f"unknown concept {name!r}; not in lexicon")
    if not context:
        return dm
    parts = [hrr._permute(dm.lexicon[name], j) for j, name in enumerate(context, start=1)]
    # the sum of one vector is that vector, and permute made it a fresh copy
    addend = parts[0] if len(parts) == 1 else hrr.superpose(parts)
    traces = dict(dm.traces)
    if concept in traces:
        traces[concept] = traces[concept] + addend
    else:
        traces[concept] = addend
    return DeclarativeMemory(lexicon=dm.lexicon, traces=traces)


def dm_retrieve(dm: DeclarativeMemory, cue, k, tau=0.1) -> RetrievalResult:
    """Rank stored concepts against ``cue`` by cosine.

    Strengths are softmax(scores / tau) over every stored concept; lower tau
    sharpens the distribution toward the best match.  A cue or trace whose
    norm is zero, NaN or infinite, or a bad ``k`` or ``tau``, raises ``ValueError``.
    Each score is ``hrr.cosine``'s.
    """
    check("dm_k", k, name="k")
    check("dm_tau", tau, name="tau")
    if not dm.traces:
        raise ValueError("retrieve from empty declarative memory")
    # the cue's norm, then its shape, named as ``hrr.cosine`` names it; the
    # body takes the norm again
    cue = np.asarray(cue, dtype=float)
    hrr._check_norm(hrr._norm(cue), "retrieval cue")
    return _dm_retrieve(dm, check_vector("a", cue), k, tau)


def _dm_retrieve(dm, cue, k, tau):
    """``dm_retrieve`` of a non-empty memory, a float64 vector ``cue`` and a
    checked ``k`` and ``tau``, which it does not check.  It still checks the
    cue's norm, taken once, and each trace's length and norm, with
    ``hrr.cosine``'s messages, before it scores the trace by ``hrr._cosine``."""
    n_cue = hrr._norm(cue)
    hrr._check_norm(n_cue, "retrieval cue")
    names = list(dm.traces)
    scores = np.empty(len(names))
    for i, name in enumerate(names):
        trace = check_vector("b", dm.traces[name], cue.size)
        n = hrr._norm(trace)
        hrr._check_norm(n, "cosine operand b")
        scores[i] = hrr._cosine(cue, trace, n_cue, n)
    order = np.argsort(-scores, kind="stable")
    logits = scores[order] / tau
    logits -= logits.max()  # shift for numerical stability
    expd = np.exp(logits)
    strengths = expd / expd.sum()
    ranked = [(names[i], float(scores[i])) for i in order[: min(k, len(names))]]
    return RetrievalResult(ranked=ranked, strengths=strengths)
