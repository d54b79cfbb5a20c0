import numpy as np
import pytest

from cogkit import hrr, memory, runner
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


def test_encode_does_not_mutate_input():
    lex = make_lex(2, 32)
    buf = WorkingMemoryBuffer.empty(32, rho=0.5)
    wm_encode(buf, lex["s0"])
    assert buf.position == 0
    assert not buf.m.any()


def _signed_zeros(rng, d):
    """A normal vector with a third of its entries -0.0 and a third 0.0."""
    v = rng.standard_normal(d)
    v[::3] = -0.0
    v[1::3] = 0.0
    return v


@pytest.mark.parametrize("d, p", [(1, 1), (1, 4), (7, 3), (7, 7), (7, 16), (64, 63), (64, 64)])
@pytest.mark.parametrize("rho", [1.0, 0.9])
def test_encode_is_decay_plus_roll_bit_for_bit(d, p, rho):
    # the one-array encode against its plain form, at shifts below, at and
    # past d, compared as bytes so that a -0.0 turned into 0.0 shows
    rng = np.random.default_rng(d * 100 + p)
    m, item = _signed_zeros(rng, d), _signed_zeros(rng, d)
    item[1::3] = -0.0  # every zero of the item -0.0, the trace's of both signs
    m_before, item_before = m.tobytes(), item.tobytes()
    buf = WorkingMemoryBuffer(m=m, rho=rho, position=p - 1, d=d)
    got = memory._wm_encode(buf, item)
    assert got.m.tobytes() == (rho * m + np.roll(item, p)).tobytes()
    assert (got.position, got.rho, got.d) == (p, rho, d)
    # a new array; the buffer's trace and the item are left as they were
    assert got.m is not m and m.tobytes() == m_before and item.tobytes() == item_before


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


def _buffer(lex, d, n, seed):
    rng = np.random.default_rng(seed)
    buf = WorkingMemoryBuffer.empty(d, rho=0.9)
    for i in rng.integers(len(lex), size=n):
        buf = wm_encode(buf, lex[f"s{i}"])
    return buf


@pytest.mark.parametrize("d, n", [(2048, 7), (64, 9), (5, 7)])
def test_recall_of_many_positions_matches_single_recalls(d, n):
    lex = make_lex(16, d, seed=3)
    buf = _buffer(lex, d, n, seed=d)
    for positions in (range(1, n + 1), [n, 1, n], np.arange(2, n + 1)):
        names, scores, probes = wm_recall(buf, positions, lex)
        assert probes.shape == (len(positions), d) and probes.flags.c_contiguous
        assert len(names) == len(scores) == len(positions)
        for row, name, p in zip(probes, names, positions):
            assert np.array_equal(row, np.roll(buf.m, -p))
            assert name == wm_recall(buf, int(p), lex)[0]


@pytest.mark.parametrize("p", [True, 1.0, np.float64(2.0), "1", None, [1, True], (1, 2.0)])
def test_recall_positions_are_whole_numbers(p):
    lex = make_lex(3, 16)
    buf = _buffer(lex, 16, 3, seed=4)
    with pytest.raises(TypeError, match="'p'"):
        wm_recall(buf, p, lex)


def test_a_zero_dimensional_position_is_one_position():
    lex = make_lex(3, 16)
    buf = _buffer(lex, 16, 3, seed=4)
    name, score, probe = wm_recall(buf, np.array(1), lex)
    assert (name, score) == wm_recall(buf, 1, lex)[:2]
    assert probe.tobytes() == wm_recall(buf, 1, lex)[2].tobytes()
    with pytest.raises(TypeError, match="'p'"):
        wm_recall(buf, np.array(True), lex)


def test_recall_positions_in_a_sequence_are_in_range():
    lex = make_lex(3, 16)
    buf = _buffer(lex, 16, 3, seed=5)
    for positions in ([1, 4], (0, 2), range(1, 5), np.array([3, -1])):
        with pytest.raises(ValueError, match="recall position p="):
            wm_recall(buf, positions, lex)
    with pytest.raises(ValueError, match="at least one position"):
        wm_recall(buf, [], lex)


def test_store_single_context_is_permuted_symbol():
    lex = make_lex(4, 64)
    dm = dm_store(DeclarativeMemory(lexicon=lex), "s0", ["s1"])
    assert hrr.cosine(dm.traces["s0"], hrr.permute(lex["s1"], 1)) == pytest.approx(1.0)


def test_a_one_name_store_adds_what_superpose_adds():
    # the oracle: the sum that superpose forms, here of one permuted vector
    lex = make_lex(4, 64, seed=5)
    dm = DeclarativeMemory(lexicon=lex)
    want = None
    for name in ["s1", "s2", "s1"]:
        dm = dm_store(dm, "s0", [name])
        addend = hrr.superpose([hrr.permute(lex[name], 1)])
        want = addend if want is None else want + addend
        assert np.array_equal(dm.traces["s0"], want)
    assert not np.shares_memory(dm_store(DeclarativeMemory(lexicon=lex), "s3", ["s1"])
                                .traces["s3"], lex["s1"])


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
        with pytest.raises(ValueError, match=rf"'k': {k} is not in \[1, inf\)"):
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
    (3, 0.8, 5, 5, 4),  # lists longer than d: the positions wrap
])
def test_run_recall_matches_the_plain_loop(d, rho, n_sym, length, seed):
    cfg = resolve(dict(recall_d=d, recall_rho=rho, recall_lexicon=n_sym,
                       recall_list_len=length, recall_lists=20))
    got = runner.run_recall(cfg, seed=seed)
    acc, cos = plain_recall(d, rho, n_sym, length, 20, seed)
    assert np.array_equal(got["accuracy"], acc)
    assert np.array_equal(got["mean_cosine"], cos)


def test_run_recall_starts_each_list_with_one_empty_buffer(monkeypatch):
    # the benchmark's OpClock starts a recall op at each call of
    # WorkingMemoryBuffer.empty, so a list must make exactly one
    calls = []
    empty = WorkingMemoryBuffer.empty.__func__
    monkeypatch.setattr(WorkingMemoryBuffer, "empty",
                        classmethod(lambda cls, *a, **kw: calls.append(0) or empty(cls, *a, **kw)))
    cfg = resolve(dict(recall_d=32, recall_rho=0.9, recall_lexicon=6,
                       recall_list_len=4, recall_lists=13))
    runner.run_recall(cfg, seed=5)
    assert len(calls) == 13
