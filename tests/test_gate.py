import numpy as np
import pytest

from cogkit.agent import Agent, AgentConfig
from cogkit.gate import CompetitiveGate, ContextTracker


def make_gate(**kw):
    args = dict(context_dim=2, layer_widths={1: 8}, theta=1.0, seed=0)
    args.update(kw)
    return CompetitiveGate(**args)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_gate(theta=-0.1)
    with pytest.raises(ValueError):
        make_gate(eta_c=1.5)
    with pytest.raises(ValueError):
        make_gate(M_max=0)
    with pytest.raises(ValueError):
        make_gate(p=0.0)
    with pytest.raises(ValueError):
        make_gate(mask_mode="banana")
    with pytest.raises(ValueError):
        make_gate(metric="manhattan")


def test_match_requires_recruits():
    g = make_gate()
    with pytest.raises(ValueError):
        g.match([0.0, 0.0])


def test_match_arithmetic():
    g = make_gate(theta=0.5)
    g.select_or_recruit([0.0, 0.0])
    g.select_or_recruit([10.0, 10.0])
    assert g.active_count == 2
    winner, dist = g.match([1.0, 1.0])
    assert winner == 0
    assert dist == pytest.approx(np.sqrt(2.0))
    # exact prototype -> distance zero
    assert g.match([10.0, 10.0]) == (1, 0.0)


def test_match_single_unit_always_wins():
    g = make_gate()
    g.select_or_recruit([3.0, 4.0])
    for ctx in ([0.0, 0.0], [100.0, -5.0]):
        assert g.match(ctx)[0] == 0


def test_match_tie_goes_to_lowest_index():
    g = make_gate(theta=0.0)
    g.select_or_recruit([1.0, 0.0])
    g.select_or_recruit([-1.0, 0.0])
    winner, _ = g.match([0.0, 0.0])
    assert winner == 0


def test_recruit_on_empty_and_on_novelty():
    g = make_gate(theta=1.0)
    assert g.select_or_recruit([0.0, 0.0]) == 0
    assert np.array_equal(g.prototypes[0], [0.0, 0.0])
    # within theta: no recruitment
    assert g.select_or_recruit([0.5, 0.0]) == 0
    assert g.active_count == 1
    # beyond theta: new unit
    assert g.select_or_recruit([5.0, 0.0]) == 1
    assert g.active_count == 2


def test_saturation_falls_back_to_nearest():
    g = make_gate(theta=0.0, M_max=2)
    g.select_or_recruit([0.0, 0.0])
    g.select_or_recruit([10.0, 0.0])
    assert not g.saturated
    w = g.select_or_recruit([2.0, 0.0])
    assert w == 0
    assert g.saturated
    assert g.active_count == 2


def test_theta_zero_recruits_each_distinct_context():
    g = make_gate(theta=0.0, M_max=4)
    for i in range(4):
        g.select_or_recruit([float(i), 0.0])
    assert g.active_count == 4 and not g.saturated
    g.select_or_recruit([9.0, 9.0])
    assert g.saturated


def test_update_winner_rates():
    g = make_gate(eta_c=1.0)
    g.select_or_recruit([0.0, 0.0])
    g.update_winner(0, [2.0, 2.0])
    assert np.array_equal(g.prototypes[0], [2.0, 2.0])
    g2 = make_gate(eta_c=0.0)
    g2.select_or_recruit([1.0, 1.0])
    g2.update_winner(0, [5.0, 5.0])
    assert np.array_equal(g2.prototypes[0], [1.0, 1.0])


def test_update_winner_hand_iteration():
    g = CompetitiveGate(context_dim=1, layer_widths={1: 4}, theta=1.0, eta_c=0.5)
    g.select_or_recruit([0.0])
    g.update_winner(0, [1.0])
    assert g.prototypes[0][0] == pytest.approx(0.5)
    g.update_winner(0, [1.0])
    assert g.prototypes[0][0] == pytest.approx(0.75)


def test_update_winner_locality_and_convergence():
    g = make_gate(theta=0.1, eta_c=0.3)
    g.select_or_recruit([0.0, 0.0])
    g.select_or_recruit([10.0, 10.0])
    other_before = g.prototypes[1].copy()
    target = np.array([1.0, -1.0])
    dist = np.linalg.norm(g.prototypes[0] - target)
    for _ in range(5):
        g.update_winner(0, target)
        new_dist = np.linalg.norm(g.prototypes[0] - target)
        assert new_dist == pytest.approx(0.7 * dist, rel=1e-12)
        dist = new_dist
    assert np.array_equal(g.prototypes[1], other_before)


def test_update_winner_unrecruited_errors():
    g = make_gate()
    g.select_or_recruit([0.0, 0.0])
    with pytest.raises(ValueError):
        g.update_winner(1, [0.0, 0.0])
    with pytest.raises(ValueError):
        g.update_winner(-1, [0.0, 0.0])


def test_mask_density_and_immutability():
    g = make_gate(layer_widths={1: 40, 2: 10}, p=0.3, theta=0.0, M_max=4)
    g.select_or_recruit([0.0, 0.0])
    m1 = g.mask_for(0)
    assert set(np.unique(m1[1])) <= {0.0, 1.0}
    assert m1[1].sum() == round(0.3 * 40)
    assert m1[2].sum() == round(0.3 * 10)
    g.select_or_recruit([5.0, 5.0])  # recruiting more units...
    m1_again = g.mask_for(0)
    assert np.array_equal(m1_again[1], m1[1])  # ...never changes old masks
    assert np.array_equal(m1_again[2], m1[2])
    assert m1_again[1] is g.masks[0][1]  # callers get the stored mask...
    with pytest.raises(ValueError, match="read-only"):
        m1_again[1][:] = 7.0  # ...which no one can write
    with pytest.raises(TypeError):
        m1_again[1] = np.ones(40)
    assert np.array_equal(g.mask_for(0)[1], m1[1])
    # a restored mask is read-only too
    a = Agent(AgentConfig(obs_dim=8, n_actions=3, d=64, sensory_hidden=(16,), theta=2.0))
    a.cycle(np.ones(8))
    restored = Agent.restore(a.snapshot()).gate.mask_for(0)
    assert np.array_equal(restored[1], a.gate.mask_for(0)[1])
    with pytest.raises(ValueError, match="read-only"):
        restored[1][0] = 1.0 - restored[1][0]


def test_mask_full_density_is_all_ones():
    g = make_gate(p=1.0)
    g.select_or_recruit([0.0, 0.0])
    assert g.mask_for(0)[1].all()


def test_mask_overlap_statistics():
    # Two independent density-0.5 masks over 1000 units share about a
    # quarter of them.
    g = make_gate(layer_widths={1: 1000}, p=0.5, theta=0.0, M_max=64, seed=3)
    for i in range(40):
        g.select_or_recruit([float(3 * i), 0.0])
    overlaps = []
    for a in range(0, 40, 2):
        ma, mb = g.mask_for(a)[1], g.mask_for(a + 1)[1]
        overlaps.append((ma * mb).sum() / 1000)
    assert abs(np.mean(overlaps) - 0.25) < 0.05


def test_block_masks_are_disjoint():
    g = make_gate(layer_widths={1: 16}, p=0.25, mask_mode="blocks", theta=0.0, M_max=4)
    for i in range(4):
        g.select_or_recruit([float(10 * i), 0.0])
    total = sum(g.mask_for(k)[1] for k in range(4))
    assert (total == 1.0).all()  # every unit owned by exactly one mask


def test_mask_for_unrecruited():
    g = make_gate()
    with pytest.raises(ValueError):
        g.mask_for(0)


def test_match_invariant_under_extra_capacity():
    g_small = make_gate(M_max=2, theta=0.0, seed=9)
    g_big = make_gate(M_max=16, theta=0.0, seed=9)
    for gate in (g_small, g_big):
        gate.select_or_recruit([0.0, 0.0])
        gate.select_or_recruit([4.0, 4.0])
    ctx = [1.0, 2.0]
    assert g_small.match(ctx) == g_big.match(ctx)


def test_cosine_metric():
    g = make_gate(metric="cosine", theta=0.5)
    g.select_or_recruit([1.0, 0.0])
    # same direction, different magnitude: distance 0 under cosine
    winner, dist = g.match([7.0, 0.0])
    assert winner == 0 and dist == pytest.approx(0.0)


def test_masks_deterministic_per_seed():
    g1 = make_gate(layer_widths={1: 50}, seed=42, theta=0.0, M_max=4)
    g2 = make_gate(layer_widths={1: 50}, seed=42, theta=0.0, M_max=4)
    for g in (g1, g2):
        g.select_or_recruit([0.0, 0.0])
        g.select_or_recruit([8.0, 8.0])
    assert np.array_equal(g1.mask_for(0)[1], g2.mask_for(0)[1])
    assert np.array_equal(g1.mask_for(1)[1], g2.mask_for(1)[1])


def test_context_tracker_window_mean():
    t = ContextTracker(2, window=3)
    with pytest.raises(ValueError):
        t.context()
    assert np.array_equal(t.update([3.0, 0.0]), [3.0, 0.0])
    t.update([0.0, 3.0])
    assert np.allclose(t.context(), [1.5, 1.5])
    t.update([0.0, 0.0])
    t.update([0.0, 0.0])  # evicts the first observation
    assert np.allclose(t.context(), [0.0, 1.0])
    assert len(t) == 3
    with pytest.raises(ValueError):
        t.update([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ContextTracker(2, window=0)


def test_context_tracker_replaces_its_window_and_keeps_no_callers_array():
    t = ContextTracker(2, window=2)
    x = np.ones(2)
    t.update(x)
    first = t.window
    x[:] = 5.0  # the caller reuses its array
    t.update(x)
    t.update(x)
    assert len(first) == 1 and np.array_equal(first[0], [1.0, 1.0])
    assert isinstance(t.window, tuple) and len(t.window) == 2
    assert np.array_equal(t.context(), [5.0, 5.0])
