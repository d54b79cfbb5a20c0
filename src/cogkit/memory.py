"""Working and declarative memory over holographic vectors.

Working memory is a single evolving trace: each encoded item is tagged with
its serial position by a cyclic permutation and added onto a decayed copy of
the buffer, so later items dominate (recency) while permutation keeps the
positions exactly separable.  Declarative memory keeps one accumulated trace
per concept; retrieval ranks stored concepts by cosine against a cue and turns
the scores into a probability distribution.

All state here is value-like: operations return updated copies and never
mutate their inputs, so snapshots and rollback stay trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hrr


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
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"decay rho must be in (0, 1], got {rho}")
        if d < 1:
            raise ValueError(f"invalid dimension d={d}; must be >= 1")
        return cls(m=np.zeros(d), rho=float(rho), position=0, d=int(d))


def wm_encode(buf: WorkingMemoryBuffer, item) -> WorkingMemoryBuffer:
    """Append ``item`` at the next serial position.

    The buffer decays by ``rho`` and the item is added under a cyclic shift
    of ``position + 1``, so position p is recovered later by shifting back.
    """
    item = np.asarray(item, dtype=float)
    if item.shape != (buf.d,):
        raise ValueError(f"item dimension {item.shape} does not match buffer d={buf.d}")
    p = buf.position + 1
    return WorkingMemoryBuffer(
        m=buf.rho * buf.m + hrr.permute(item, p), rho=buf.rho, position=p, d=buf.d
    )


def wm_recall(buf: WorkingMemoryBuffer, p, lex: hrr.SymbolLexicon):
    """Recall the item at position ``p`` (1-based) as ``(name, score, probe)``.

    Un-permutes the buffer by ``p`` and cleans the result up against the
    lexicon; the score is the winning cosine and ``probe`` the un-permuted
    buffer itself, so a caller that scores it against a known item needs no
    second un-permute.  A buffer holding NaN or inf raises ``ValueError``.
    """
    if not 1 <= p <= buf.position:
        raise ValueError(f"recall position {p} out of range 1..{buf.position}")
    probe = hrr.permute(buf.m, -p)
    name, score = hrr.cleanup(probe, lex, k=1)[0]
    return name, score, probe


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
    """Per-concept holographic traces with store counts.

    Traces are unnormalized accumulators, so repeatedly stored associations
    outweigh rare ones.  A concept stored only with empty contexts has a
    count but no trace (there is nothing to accumulate), and does not
    participate in retrieval.
    """

    lexicon: hrr.SymbolLexicon
    traces: dict = field(default_factory=dict)
    store_count: dict = field(default_factory=dict)


def dm_store(dm: DeclarativeMemory, concept, context) -> DeclarativeMemory:
    """Accumulate a context occurrence onto ``concept``'s trace.

    The j-th context name (1-based) contributes its lexicon vector shifted by
    j, mirroring the working-memory position scheme.  An empty context leaves
    the trace untouched but still counts as a store event.
    """
    for name in (concept, *context):
        if name not in dm.lexicon:
            raise ValueError(f"unknown concept {name!r}; not in lexicon")
    traces = dict(dm.traces)
    counts = dict(dm.store_count)
    if context:
        addend = hrr.superpose(
            [hrr.permute(dm.lexicon[name], j) for j, name in enumerate(context, start=1)]
        )
        if concept in traces:
            traces[concept] = traces[concept] + addend
        else:
            traces[concept] = addend
    counts[concept] = counts.get(concept, 0) + 1
    return DeclarativeMemory(lexicon=dm.lexicon, traces=traces, store_count=counts)


def dm_retrieve(dm: DeclarativeMemory, cue, k, tau=0.1) -> RetrievalResult:
    """Rank stored concepts against ``cue`` by cosine.

    Strengths are softmax(scores / tau) over every stored concept; lower tau
    sharpens the distribution toward the best match.  A cue or trace whose
    norm is zero, NaN or infinite raises ``ValueError``.
    """
    if not dm.traces:
        raise ValueError("retrieve from empty declarative memory")
    cue = np.asarray(cue, dtype=float)
    hrr._check_norm(np.linalg.norm(cue), "retrieval cue")
    if tau <= 0.0:
        raise ValueError(f"temperature tau must be positive, got {tau}")
    names = list(dm.traces)
    scores = np.array([hrr.cosine(cue, dm.traces[n]) for n in names])
    order = np.argsort(-scores, kind="stable")
    logits = scores[order] / tau
    logits -= logits.max()  # shift for numerical stability
    expd = np.exp(logits)
    strengths = expd / expd.sum()
    ranked = [(names[i], float(scores[i])) for i in order[: min(k, len(names))]]
    return RetrievalResult(ranked=ranked, strengths=strengths)
