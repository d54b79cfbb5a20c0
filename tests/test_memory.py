import numpy as np
import pytest

from cogkit import hrr, runner
from cogkit.config import resolve
from cogkit.hrr import SymbolLexicon
from cogkit.memory import (
    DeclarativeMemory,
    WorkingMemoryBuffer,
    dm_retrieve,
    dm_store,
    wm_encode,
    wm_recall,
)


def make_lex(n, d, seed=0):
    return SymbolLexicon(d, seed=seed, names=[f"s{i}" for i in range(n)])


def test_empty_buffer_invariants():
    buf = WorkingMemoryBuffer.empty(32, rho=0.9)
    assert buf.position == 0
    assert not buf.m.any()
    with pytest.raises(ValueError):
        WorkingMemoryBuffer.empty(32, rho=0.0)
    with pytest.raises(ValueError):
        WorkingMemoryBuffer.empty(0)


def test_single_item_recall_exact():
    lex = make_lex(10, 64)
    buf = wm_encode(WorkingMemoryBuffer.empty(64, rho=1.0), lex["s3"])
    assert np.array_equal(buf.m, hrr.permute(lex["s3"], 1))
    name, score, probe = wm_recall(buf, 1, lex)
    assert name == "s3"
    assert np.array_equal(probe, lex["s3"])
    assert score >= 0.99


def test_two_items_rho_one_is_plain_sum():
    lex = make_lex(4, 48)
    buf = WorkingMemoryBuffer.empty(48, rho=1.0)
    buf = wm_encode(buf, lex["s0"])
    buf = wm_encode(buf, lex["s1"])
    want = hrr.permute(lex["s0"], 1) + hrr.permute(lex["s1"], 2)
    assert np.allclose(buf.m, want, atol=1e-12)
    assert buf.position == 2


def test_encode_dimension_mismatch():
    buf = WorkingMemoryBuffer.empty(16)
    with pytest.raises(ValueError):
        wm_encode(buf, np.zeros(17))


def test_encode_does_not_mutate_input():
    lex = make_lex(2, 32)
    buf = WorkingMemoryBuffer.empty(32, rho=0.5)
    wm_encode(buf, lex["s0"])
    assert buf.position == 0
    assert not buf.m.any()


def test_decay_produces_recency():
    # With rho=0.8 the most recent of 5 items keeps a cleaner trace than the
    # second: compare the position-probes' cosines over 100 random lists.
    d = 2048
    lex = make_lex(16, d, seed=1)
    rng = np.random.default_rng(1)
    wins = 0
    for _ in range(100):
        items = rng.choice(16, size=5, replace=False)
        buf = WorkingMemoryBuffer.empty(d, rho=0.8)
        for i in items:
            buf = wm_encode(buf, lex[f"s{i}"])
        c5 = hrr.cosine(hrr.permute(buf.m, -5), lex[f"s{items[4]}"])
        c2 = hrr.cosine(hrr.permute(buf.m, -2), lex[f"s{items[1]}"])
        wins += c5 > c2
    assert wins >= 90


def test_recall_list_of_seven_beats_chance():
    d = 2048
    lex = make_lex(16, d, seed=2)
    rng = np.random.default_rng(2)
    correct = total = 0
    for _ in range(30):
        items = rng.choice(16, size=7, replace=False)
        buf = WorkingMemoryBuffer.empty(d, rho=0.9)
        for i in items:
            buf = wm_encode(buf, lex[f"s{i}"])
        for p in range(1, 8):
            name, _, _ = wm_recall(buf, p, lex)
            correct += name == f"s{items[p - 1]}"
            total += 1
    assert correct / total > 1 / 16


def test_recall_out_of_range():
    lex = make_lex(2, 16)
    buf = wm_encode(WorkingMemoryBuffer.empty(16), lex["s0"])
    for p in (0, 2, -1):
        with pytest.raises(ValueError):
            wm_recall(buf, p, lex)
    with pytest.raises(ValueError):
        wm_recall(WorkingMemoryBuffer.empty(16), 1, lex)


def test_store_single_context_is_permuted_symbol():
    lex = make_lex(4, 64)
    dm = dm_store(DeclarativeMemory(lexicon=lex), "s0", ["s1"])
    assert hrr.cosine(dm.traces["s0"], hrr.permute(lex["s1"], 1)) == pytest.approx(1.0)


def test_store_frequency_dominates():
    lex = make_lex(4, 256, seed=3)
    dm = DeclarativeMemory(lexicon=lex)
    for _ in range(50):
        dm = dm_store(dm, "s0", ["s1"])
    dm = dm_store(dm, "s0", ["s2"])
    trace = dm.traces["s0"]
    assert hrr.cosine(trace, hrr.permute(lex["s1"], 1)) > hrr.cosine(
        trace, hrr.permute(lex["s2"], 1)
    )


def test_store_empty_context():
    lex = make_lex(2, 16)
    dm0 = DeclarativeMemory(lexicon=lex)
    assert dm_store(dm0, "s0", []) == dm0  # nothing accumulated, no zero placeholder
    dm1 = dm_store(dm0, "s0", ["s1"])
    dm2 = dm_store(dm1, "s0", [])
    assert dm2.traces.keys() == {"s0"} and dm2.traces["s0"] is dm1.traces["s0"]


def test_store_unknown_name():
    lex = make_lex(2, 16)
    dm = DeclarativeMemory(lexicon=lex)
    with pytest.raises(ValueError):
        dm_store(dm, "nope", ["s0"])
    with pytest.raises(ValueError):
        dm_store(dm, "s0", ["nope"])


def test_store_order_commutative():
    lex = make_lex(6, 128, seed=4)
    dm_a = DeclarativeMemory(lexicon=lex)
    dm_a = dm_store(dm_store(dm_a, "s0", ["s1", "s2"]), "s0", ["s3", "s4"])
    dm_b = DeclarativeMemory(lexicon=lex)
    dm_b = dm_store(dm_store(dm_b, "s0", ["s3", "s4"]), "s0", ["s1", "s2"])
    assert np.allclose(dm_a.traces["s0"], dm_b.traces["s0"], rtol=1e-9, atol=1e-12)


def test_store_is_value_like():
    lex = make_lex(3, 32)
    dm0 = DeclarativeMemory(lexicon=lex)
    dm1 = dm_store(dm0, "s0", ["s1"])
    assert not dm0.traces
    trace = dm1.traces["s0"].copy()
    dm_store(dm1, "s0", ["s2"])
    assert np.array_equal(dm1.traces["s0"], trace)


def test_retrieve_singleton_strength():
    lex = make_lex(3, 64)
    dm = dm_store(DeclarativeMemory(lexicon=lex), "s0", ["s1"])
    res = dm_retrieve(dm, lex["s1"], k=1)
    assert res.ranked[0][0] == "s0"
    assert np.allclose(res.strengths, [1.0])


def test_retrieve_equal_traces_split_evenly():
    lex = make_lex(4, 64)
    dm = DeclarativeMemory(lexicon=lex)
    dm = dm_store(dm, "s0", ["s2"])
    dm = dm_store(dm, "s1", ["s2"])
    res = dm_retrieve(dm, lex["s3"], k=2)
    assert np.allclose(res.strengths, [0.5, 0.5], atol=1e-12)


def test_retrieve_strengths_distribution():
    lex = make_lex(8, 128, seed=5)
    dm = DeclarativeMemory(lexicon=lex)
    for i in range(5):
        dm = dm_store(dm, f"s{i}", [f"s{(i + 1) % 8}", f"s{(i + 2) % 8}"])
    res = dm_retrieve(dm, lex["s6"], k=3)
    assert len(res.ranked) == 3
    assert len(res.strengths) == 5
    assert abs(res.strengths.sum() - 1.0) <= 1e-12
    assert (res.strengths >= 0).all()
    scores = [s for _, s in res.ranked]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_self_cue_wins():
    d = 1024
    lex = make_lex(40, d, seed=6)
    rng = np.random.default_rng(6)
    hits = 0
    for trial in range(100):
        dm = DeclarativeMemory(lexicon=lex)
        for i in range(20):
            ctx = [f"s{j}" for j in rng.choice(40, size=3, replace=False)]
            dm = dm_store(dm, f"s{i}", ctx)
        target = f"s{rng.integers(20)}"
        res = dm_retrieve(dm, dm.traces[target], k=1)
        hits += res.ranked[0][0] == target
    assert hits >= 99


def test_retrieve_scale_invariant_ranking():
    lex = make_lex(6, 128, seed=7)
    dm = DeclarativeMemory(lexicon=lex)
    for i in range(4):
        dm = dm_store(dm, f"s{i}", [f"s{(i + 1) % 6}"])
    cue = lex["s5"]
    base = [n for n, _ in dm_retrieve(dm, cue, k=4).ranked]
    scaled = DeclarativeMemory(
        lexicon=lex,
        traces={n: 13.7 * t for n, t in dm.traces.items()},
    )
    assert [n for n, _ in dm_retrieve(scaled, cue, k=4).ranked] == base


def test_retrieve_errors():
    lex = make_lex(2, 16)
    with pytest.raises(ValueError):
        dm_retrieve(DeclarativeMemory(lexicon=lex), lex["s0"], k=1)
    dm = dm_store(DeclarativeMemory(lexicon=lex), "s0", ["s1"])
    with pytest.raises(ValueError):
        dm_retrieve(dm, np.zeros(16), k=1)
    with pytest.raises(ValueError):
        dm_retrieve(dm, lex["s1"], k=1, tau=0.0)
    for k in (0, -1):
        with pytest.raises(ValueError, match=rf"k >= 1, got {k}"):
            dm_retrieve(dm, lex["s1"], k=k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_reads_raise(bad):
    lex = make_lex(3, 16)
    buf = wm_encode(WorkingMemoryBuffer.empty(16), lex["s0"])
    m = buf.m.copy()
    m[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        wm_recall(WorkingMemoryBuffer(m=m, rho=buf.rho, position=1, d=16), 1, lex)
    dm = dm_store(DeclarativeMemory(lexicon=lex), "s0", ["s1"])
    cue = lex["s1"].copy()
    cue[2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dm_retrieve(dm, cue, k=1)
    broken = DeclarativeMemory(lexicon=lex, traces={"s0": m})
    with pytest.raises(ValueError, match="non-finite"):
        dm_retrieve(broken, lex["s1"], k=1)


def plain_recall(d, rho, n_sym, length, n_lists, seed):
    """run_recall's loop written with np.roll, the uncached clean-up and a
    second un-permute for the cosine: the oracle of the fast read path."""
    names = [f"s{i}" for i in range(n_sym)]
    vecs = [hrr.random_symbol(n, d, seed) for n in names]
    mat = np.stack(vecs)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4000]))
    hits = np.zeros(length)
    cosines = np.zeros(length)
    for _ in range(n_lists):
        picked = rng.permutation(n_sym)[:length]
        m = np.zeros(d)
        for p, i in enumerate(picked, start=1):
            m = rho * m + np.roll(vecs[i], p)
        for p in range(1, length + 1):
            v = np.roll(m, -p)
            scores = mat @ v / (np.linalg.norm(mat, axis=1) * np.linalg.norm(v))
            hits[p - 1] += np.argsort(-scores, kind="stable")[0] == picked[p - 1]
            v = np.roll(m, -p)
            t = vecs[picked[p - 1]]
            cosines[p - 1] += float(np.dot(v, t) / (np.linalg.norm(v) * np.linalg.norm(t)))
    return hits / n_lists, cosines / n_lists


@pytest.mark.parametrize("d, rho, n_sym, length, seed", [
    (2048, 0.9, 16, 7, 1), (64, 0.7, 9, 9, 2), (17, 1.0, 5, 3, 3),
])
def test_run_recall_matches_the_plain_loop(d, rho, n_sym, length, seed):
    cfg = resolve(dict(recall_d=d, recall_rho=rho, recall_lexicon=n_sym,
                       recall_list_len=length, recall_lists=20))
    got = runner.run_recall(cfg, seed=seed)
    acc, cos = plain_recall(d, rho, n_sym, length, 20, seed)
    assert np.array_equal(got["accuracy"], acc)
    assert np.array_equal(got["mean_cosine"], cos)
