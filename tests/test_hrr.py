import numpy as np
import pytest

from cogkit.hrr import (
    SymbolLexicon,
    bind,
    cleanup,
    cosine,
    involution,
    permute,
    random_symbol,
    superpose,
    unbind,
)


def identity_vector(d):
    return np.eye(1, d)[0]


def normalize(a):
    return a / np.linalg.norm(a)


def conv_direct(a, b):
    """Reference O(d^2) circular convolution sum; the normative oracle."""
    d = len(a)
    out = np.zeros(d)
    for j in range(d):
        for k in range(d):
            out[j] += a[k] * b[(j - k) % d]
    return out


def test_random_symbol_deterministic():
    v1 = random_symbol("A", 4, seed=7)
    v2 = random_symbol("A", 4, seed=7)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, random_symbol("B", 4, seed=7))
    assert not np.array_equal(v1, random_symbol("A", 4, seed=8))


def test_random_symbol_invalid_dim():
    with pytest.raises(ValueError):
        random_symbol("A", 0)


def test_random_symbol_norm_statistics():
    # Variance 1/d per component -> mean squared norm 1.0 +/- 0.02 over 10k draws.
    d = 256
    sq = [np.dot(v, v) for v in (random_symbol(f"s{i}", d, seed=1) for i in range(10_000))]
    assert abs(np.mean(sq) - 1.0) < 0.02


def test_random_symbols_quasi_orthogonal():
    d = 1024
    cs = [
        abs(cosine(random_symbol(f"a{i}", d, seed=2), random_symbol(f"b{i}", d, seed=2)))
        for i in range(1000)
    ]
    assert np.mean(cs) < 0.1


def test_bind_small_case():
    # Frozen from the direct convolution sum.
    got = bind([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    assert np.allclose(got, [3.0, 1.0, 2.0], atol=1e-12)
    assert np.allclose(got, conv_direct([1, 2, 3], [0, 1, 0]), atol=1e-12)


@pytest.mark.parametrize("d", [3, 16, 257])
def test_bind_identity_element(d):
    a = random_symbol("a", d)
    assert np.allclose(bind(a, identity_vector(d)), a, atol=1e-12)


def test_bind_commutative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=64), rng.normal(size=64)
        assert np.allclose(bind(a, b), bind(b, a), rtol=1e-9, atol=1e-12)


def test_bind_algebra_laws():
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=128), rng.normal(size=128), rng.normal(size=128)
    # associativity
    assert np.allclose(bind(bind(a, b), c), bind(a, bind(b, c)), rtol=1e-9)
    # distributivity over superposition
    assert np.allclose(
        bind(a, superpose([b, c])), superpose([bind(a, b), bind(a, c)]), rtol=1e-9
    )
    # bilinearity in a scalar
    assert np.allclose(bind(2.5 * a, b), 2.5 * bind(a, b), rtol=1e-9)


@pytest.mark.parametrize("d", [3, 64, 256])
def test_bind_matches_direct_sum(d):
    # Transform-based binding must agree with the O(d^2) sum to 1e-10 relative.
    rng = np.random.default_rng(d)
    for _ in range(100):
        a, b = rng.normal(size=d), rng.normal(size=d)
        ref = conv_direct(a, b)
        got = bind(a, b)
        assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


def test_involution_small_case():
    assert np.array_equal(involution([1.0, 2.0, 3.0]), [1.0, 3.0, 2.0])
    assert np.array_equal(involution([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_involution_is_involution_and_isometry():
    a = random_symbol("x", 97)
    assert np.array_equal(involution(involution(a)), a)
    # Component multiset is preserved exactly, hence the norm is too.
    assert np.array_equal(np.sort(involution(a)), np.sort(a))


def test_unbind_exact_for_cyclic_shift():
    got = unbind([3.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert np.allclose(got, [1.0, 2.0, 3.0], atol=1e-12)


def test_unbind_identity_exact():
    a = random_symbol("a", 32)
    assert np.allclose(unbind(bind(a, identity_vector(32)), identity_vector(32)), a, atol=1e-12)


def test_unbind_recovers_bound_operand():
    d = 512
    cs = []
    for i in range(100):
        a = normalize(random_symbol(f"a{i}", d, seed=3))
        b = normalize(random_symbol(f"b{i}", d, seed=3))
        cs.append(cosine(unbind(bind(a, b), b), a))
    assert np.mean(cs) >= 0.6


def test_superpose_basic():
    assert np.array_equal(superpose([[1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0])
    with pytest.raises(ValueError):
        superpose([])


def test_superpose_preserves_similarity_to_members():
    d = 512
    wins = 0
    for i in range(100):
        a = random_symbol(f"a{i}", d, seed=4)
        b = random_symbol(f"b{i}", d, seed=4)
        c = random_symbol(f"c{i}", d, seed=4)
        s = superpose([a, b])
        wins += cosine(s, a) > cosine(s, c)
    assert wins >= 95


def test_permute():
    assert np.array_equal(permute([1.0, 2.0, 3.0], 1), [3.0, 1.0, 2.0])
    a = random_symbol("a", 17)
    assert np.array_equal(permute(a, 0), a)
    assert np.array_equal(permute(a, 17), a)
    assert np.array_equal(permute(permute(a, 5), -5), a)


def test_cosine():
    a = random_symbol("a", 64)
    assert cosine(a, a) == pytest.approx(1.0)
    assert cosine(a, -a) == pytest.approx(-1.0)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        cosine(a, np.zeros(64))


def test_cleanup_exact_member():
    lex = SymbolLexicon(64, seed=5, names=["A", "B", "C"])
    top = cleanup(lex["A"], lex, k=1)
    assert top[0][0] == "A"
    assert top[0][1] == pytest.approx(1.0)


def test_cleanup_truncation_and_errors():
    lex = SymbolLexicon(32, seed=6, names=["A", "B", "C"])
    ranked = cleanup(lex["A"], lex, k=10)
    assert len(ranked) == 3
    with pytest.raises(ValueError):
        cleanup(lex["A"], SymbolLexicon(32), k=1)
    with pytest.raises(ValueError):
        cleanup(np.zeros(32), lex, k=1)


def test_cleanup_scale_invariant():
    lex = SymbolLexicon(128, seed=7, names=[f"s{i}" for i in range(10)])
    probe = superpose([lex["s3"], 0.3 * lex["s7"]])
    r1 = [n for n, _ in cleanup(probe, lex, k=10)]
    r2 = [n for n, _ in cleanup(37.5 * probe, lex, k=10)]
    assert r1 == r2


def test_cleanup_recovers_unbound_symbol():
    # 50-symbol lexicon at d=1024: unbinding then cleanup lands on the bound
    # symbol in at least 99/100 trials.
    d = 1024
    lex = SymbolLexicon(d, seed=8, names=[f"s{i}" for i in range(50)])
    rng = np.random.default_rng(8)
    hits = 0
    for _ in range(100):
        ia, ib = rng.choice(50, size=2, replace=False)
        names = lex.stacked()[2]
        a, b = lex[names[ia]], lex[names[ib]]
        hits += cleanup(unbind(bind(a, b), b), lex, k=1)[0][0] == names[ia]
    assert hits >= 99


# ---------------------------------------------------------------------------
# the read path against its plain form: np.roll and the uncached clean-up


@pytest.mark.parametrize("d", [1, 2, 17])
def test_permute_equals_roll_for_every_shift(d):
    a = np.arange(1.0, d + 1.0) + random_symbol("p", d)
    for shift in range(-2 * d - 1, 2 * d + 2):
        got = permute(a, shift)
        assert np.array_equal(got, np.roll(a, shift)), shift
        assert got.dtype == np.float64 and got.shape == (d,)


def test_permute_equals_roll_at_full_width():
    d = 2048
    a = random_symbol("wide", d)
    rng = np.random.default_rng(2048)
    shifts = [0, 1, -1, 7, -7, d - 1, d, d + 1, -d, 2 * d + 1, -2 * d - 1,
              *rng.integers(-3 * d, 3 * d, size=40)]
    for shift in shifts:
        assert np.array_equal(permute(a, shift), np.roll(a, shift)), shift


@pytest.mark.parametrize("shift", [0, 3, 17, -5])
def test_permute_returns_a_new_array(shift):
    a = random_symbol("own", 17)
    keep = a.copy()
    out = permute(a, shift)
    out[:] = -1.0
    assert np.array_equal(a, keep)


def test_permute_takes_integer_shifts_only():
    a = random_symbol("int", 8)
    assert np.array_equal(permute(a, np.int64(3)), np.roll(a, 3))
    for bad in (1.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="shift"):
            permute(a, bad)


def plain_cleanup_scores(v, lex):
    """The clean-up expression with nothing cached: the read path's oracle."""
    mat = np.stack([lex[n] for n in lex.stacked()[2]])
    return mat @ v / (np.linalg.norm(mat, axis=1) * np.linalg.norm(v))


def test_cleanup_matches_the_uncached_expression():
    lex = SymbolLexicon(2048, seed=9, names=[f"s{i}" for i in range(16)])
    rng = np.random.default_rng(9)
    names = lex.stacked()[2]
    for _ in range(50):
        probe = rng.normal(size=2048) + 3.0 * lex[names[rng.integers(16)]]
        want = plain_cleanup_scores(probe, lex)
        order = np.argsort(-want, kind="stable")
        got = cleanup(probe, lex, k=16)
        assert [n for n, _ in got] == [names[i] for i in order]
        assert np.array_equal([s for _, s in got], want[order])
        assert cleanup(probe, lex, k=3) == got[:3]


def test_add_after_matrix_refreshes_matrix_norms_and_names():
    lex = SymbolLexicon(64, seed=10, names=["A", "B"])
    probe = lex["B"] + 0.5 * random_symbol("C", 64, seed=10)
    assert lex.stacked()[0].shape == (2, 64)
    assert [n for n, _ in cleanup(probe, lex, k=5)] == ["B", "A"]
    lex.add("C")
    mat, norms, names = lex.stacked()
    assert np.array_equal(mat, np.stack([lex["A"], lex["B"], lex["C"]]))
    assert np.array_equal(norms, np.linalg.norm(mat, axis=1))
    assert names == ("A", "B", "C")
    got = cleanup(probe, lex, k=5)
    assert [n for n, _ in got] == ["B", "C", "A"]
    assert np.array_equal([s for _, s in got],
                          np.sort(plain_cleanup_scores(probe, lex))[::-1])
    lex.add("A")  # known names leave the cache alone
    assert lex.stacked()[0] is mat


def test_lexicon_arrays_are_read_only():
    lex = SymbolLexicon(16, seed=12, names=["A", "B"])
    mat, norms, _ = lex.stacked()
    for arr in (lex["A"], mat, norms):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reads_raise(bad):
    lex = SymbolLexicon(16, seed=13, names=["A", "B"])
    v = lex["A"].copy()
    v[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cleanup(v, lex)
    with pytest.raises(ValueError, match="non-finite"):
        cosine(v, lex["B"])
    with pytest.raises(ValueError, match="non-finite"):
        cosine(lex["B"], v)


def test_cleanup_rejects_k_below_one():
    lex = SymbolLexicon(16, seed=14, names=["A", "B"])
    for k in (0, -1):
        with pytest.raises(ValueError, match="k >= 1"):
            cleanup(lex["A"], lex, k=k)


@pytest.mark.parametrize("k", [True, False, np.True_, 1.5, 1.0, float("nan"), "1", None])
def test_cleanup_takes_whole_numbers_only_for_k(k):
    lex = SymbolLexicon(16, seed=14, names=["A", "B"])
    with pytest.raises(TypeError, match="'k'"):
        cleanup(lex["A"], lex, k=k)


def test_permute_rejects_a_bool_shift():
    with pytest.raises(TypeError, match="'shift'"):
        permute(random_symbol("int", 8), True)


# ---------------------------------------------------------------------------
# a batch of probes against one probe at a time


def _probes(lex, n, seed):
    rng = np.random.default_rng(seed)
    names = lex.stacked()[2]
    return np.stack([rng.normal(size=lex.d) + 3.0 * lex[names[rng.integers(len(names))]]
                     for _ in range(n)])


def test_a_batch_ranks_each_row_as_one_probe_does():
    lex = SymbolLexicon(2048, seed=15, names=[f"s{i}" for i in range(16)])
    probes = _probes(lex, 9, 15)
    for k in (1, 3, 16, 20):
        got = cleanup(probes, lex, k=k)
        assert len(got) == len(probes)
        for row, top in zip(probes, got):
            want = cleanup(row, lex, k=k)
            assert [n for n, _ in top] == [n for n, _ in want]
            assert [s for _, s in top] == pytest.approx([s for _, s in want], rel=1e-12)


def test_a_batch_of_one_gives_the_one_probe_bits():
    lex = SymbolLexicon(2048, seed=16, names=[f"s{i}" for i in range(16)])
    for probe in _probes(lex, 20, 16):
        assert cleanup(probe[None, :], lex, k=16) == [cleanup(probe, lex, k=16)]


def test_a_bad_batch_raises():
    lex = SymbolLexicon(8, seed=17, names=["A", "B", "C"])
    with pytest.raises(ValueError, match=r"bad shape for 'probe': \(0, 8\)"):
        cleanup(np.ones((0, 8)), lex)
    with pytest.raises(ValueError, match=r"bad shape for 'probe': \(3, 9\)"):
        cleanup(np.ones((3, 9)), lex)
    probes = np.ones((3, 8))
    probes[2, 5] = np.nan
    with pytest.raises(ValueError, match="row 2 has a non-finite norm"):
        cleanup(probes, lex)
    probes[2, 5] = 1.0
    probes[1] = 0.0
    with pytest.raises(ValueError, match="row 1 has zero norm"):
        cleanup(probes, lex)
