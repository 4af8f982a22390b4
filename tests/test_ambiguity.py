import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize as scipy_opt

from dro_offload.ambiguity import (
    AmbiguitySet,
    Distribution,
    SampleSpace,
    generate_history,
    reference_sets,
    tolerance_from_confidence,
    worst_case_rows,
)
from dro_offload.errors import ConfigError, DataError, ShapeError
from dro_offload.model import worst_case_means
from helpers import (
    choice_history,
    confidence_from_tolerance,
    empirical_distribution,
    in_ball,
    l1_distance,
    midpoint_edges,
    point_mass,
    worst_case_mean_loop,
)

ATOMS = [3e6, 9e6, 15e6, 21e6, 27e6]


@pytest.fixture
def space():
    return SampleSpace(atoms=tuple(ATOMS))


def _one_row(space, probs, radius):
    """The worst-case distribution and mean of a one-row set around `probs`."""
    amb = AmbiguitySet(space, np.asarray(probs, dtype=float)[None], radius)
    return worst_case_rows(amb.references, amb.radius)[0], worst_case_means(amb)[0]


class TestSampleSpace:
    def test_midpoint_edges(self, space):
        # the test oracle's bins: empirical_distribution bins by these edges
        assert tuple(midpoint_edges(space.atoms)) == (0.0, 6e6, 12e6, 18e6, 24e6, float("inf"))
        assert space.num_atoms == 5

    def test_atoms_must_increase(self):
        with pytest.raises(ConfigError):
            SampleSpace(atoms=(5.0, 5.0))

    def test_nonpositive_atom_rejected(self):
        with pytest.raises(ConfigError, match="> 0"):
            SampleSpace(atoms=(0.0, 9e6))


class TestDistribution:
    def test_uniform_mean(self, space):
        assert np.dot(Distribution.uniform(5).probs, space.atoms) == pytest.approx(
            15e6, rel=1e-12
        )

    def test_point_mass(self, space):
        d = point_mass(5, 4)
        assert np.dot(d.probs, space.atoms) == 27e6

    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            Distribution(probs=(0.5, 0.4))

    def test_no_negative_probs(self):
        # the second sums to 1 within PROB_TOL, but no sampler takes a negative weight
        for probs in ((1.2, -0.2), (-1e-10, 0.5, 0.5000000001, 0.0, 0.0)):
            with pytest.raises(ConfigError, match="non-negative"):
                Distribution(probs=probs)

    def test_no_nan_probs(self):
        with pytest.raises(ConfigError, match="finite"):
            Distribution(probs=(float("nan"), 0.5, 0.5))


class TestEmpirical:
    def test_hand_histogram(self, space):
        dist = empirical_distribution([3e6, 3e6, 14e6, 27e6], space)
        assert dist.probs == (0.5, 0.0, 0.25, 0.0, 0.25)

    def test_edge_sample_goes_right(self, space):
        # a sample exactly on edge d_k belongs to bin k (right-open bins)
        dist = empirical_distribution([6e6], space)
        assert dist.probs[1] == 1.0

    def test_sample_below_first_edge_rejected(self, space):
        with pytest.raises(DataError):
            empirical_distribution([-1.0], space)

    def test_empty_history_rejected(self, space):
        with pytest.raises(DataError, match="at least one sample"):
            empirical_distribution([], space)

    def test_matches_per_sample_binning(self, space):
        # edges, atoms and points between them, binned one sample at a time
        rng = np.random.default_rng(77)
        edges = midpoint_edges(space.atoms)[:-1]
        points = np.concatenate([edges, space.atoms, rng.uniform(0, 40e6, 50)])
        for _ in range(150):
            samples = rng.choice(points, size=int(rng.integers(1, 60)))
            counts = [0] * space.num_atoms
            for v in samples:
                counts[max(k for k, edge in enumerate(edges) if edge <= v)] += 1
            expected = tuple(c / samples.size for c in counts)
            assert empirical_distribution(samples, space).probs == expected


class TestDistanceAndRadius:
    def test_l1_distance(self):
        a = Distribution(probs=(0.5, 0.5))
        b = Distribution(probs=(0.2, 0.8))
        assert l1_distance(a, b) == pytest.approx(0.6, rel=1e-12)
        assert l1_distance(a, a) == 0.0

    def test_radius_spot_values(self):
        assert tolerance_from_confidence(5, 200, 0.9) == pytest.approx(
            0.05756462732485115, abs=1e-12
        )
        assert tolerance_from_confidence(5, 200, 0.95) == pytest.approx(
            0.06622896708185044, abs=1e-12
        )

    def test_round_trip(self):
        # large radii push the confidence so close to 1 that 1 - conf loses
        # precision, so the exact round trip is only checked where it is
        # numerically meaningful
        # radii below (K/2Q)ln(2K) map to nonpositive confidence and are
        # not round-trippable by construction
        for eps in (0.05, 0.05756462732485115, 0.1):
            conf = confidence_from_tolerance(5, 200, eps)
            assert tolerance_from_confidence(5, 200, conf) == pytest.approx(eps, abs=1e-12)

    def test_radius_shrinks_with_history(self):
        assert tolerance_from_confidence(5, 400, 0.95) < tolerance_from_confidence(5, 200, 0.95)

    def test_invalid_confidence(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ConfigError):
                tolerance_from_confidence(5, 200, bad)


class TestAmbiguitySet:
    @pytest.mark.parametrize(
        "references, radius, error, match",
        [
            ([[0.5, 0.4, 0.0, 0.0, 0.0]], 0.1, ConfigError, "sum to 1"),
            ([[0.2] * 5, [1.2, -0.2, 0.0, 0.0, 0.0]], 0.1, ConfigError, "non-negative"),
            ([[np.nan, 0.5, 0.5, 0.0, 0.0]], 0.1, ConfigError, "finite"),
            ([[0.25] * 4], 0.1, ShapeError, "column"),
            ([0.2] * 5, 0.1, ShapeError, "matrix"),
            ([[0.2] * 5], float("nan"), ConfigError, "radius"),
            ([[0.2] * 5], -0.1, ConfigError, "radius"),
        ],
        ids=["row-sum", "negative", "nan-entry", "columns", "vector", "nan-radius", "neg-radius"],
    )
    def test_constructor_checks_the_whole_matrix(self, space, references, radius, error, match):
        with pytest.raises(error, match=match):
            AmbiguitySet(space, np.array(references), radius)

    def test_references_are_read_only_and_a_shared_row_is_not_copied(self, space):
        row = np.full((1, 5), 0.2)
        amb = AmbiguitySet(space, np.broadcast_to(row, (4, 5)), 0.3)
        assert amb.references.shape == (4, 5) and not amb.references.flags.writeable
        assert np.shares_memory(amb.references, row) and amb.references.strides[0] == 0
        owned = np.full((2, 5), 0.2)
        assert not AmbiguitySet(space, owned, 0.3).references.flags.writeable
        assert owned.flags.writeable  # the caller's array is left as it was


class TestWorstCase:
    def test_uniform_reference_eps_03(self, space):
        dist, mean = _one_row(space, [0.2] * 5, 0.3)
        np.testing.assert_allclose(dist, (0.05, 0.2, 0.2, 0.2, 0.35), atol=1e-12)
        assert mean == pytest.approx(18.6e6, rel=1e-12)

    def test_zero_radius_returns_reference(self, space):
        ref = (0.1, 0.2, 0.3, 0.2, 0.2)
        dist, mean = _one_row(space, ref, 0.0)
        assert tuple(dist) == ref
        assert mean == pytest.approx(np.dot(ref, space.atoms))

    def test_huge_radius_caps_at_point_mass(self, space):
        dist, mean = _one_row(space, [0.2] * 5, 10.0)
        assert dist[-1] == pytest.approx(1.0)
        assert mean == pytest.approx(27e6)

    @given(
        raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=5, max_size=5),
        radius=st.floats(min_value=0.0, max_value=2.0),
    )
    def test_result_stays_in_set(self, raw, radius):
        space = SampleSpace(atoms=tuple(ATOMS))
        total = sum(raw)
        ref = [v / total for v in raw]
        dist, mean = _one_row(space, ref, radius)
        assert in_ball(ref, radius, dist)
        assert mean >= np.dot(ref, space.atoms) - 1e-9

    def test_matches_lp_oracle(self, space):
        # scipy solves max atoms@p over the L1 ball as an LP; the greedy
        # shift must agree on every random reference
        rng = np.random.default_rng(123)
        atoms = np.asarray(space.atoms)
        k = len(atoms)
        for _ in range(50):
            ref = rng.dirichlet(np.ones(k))
            radius = float(rng.uniform(0.0, 2.0))
            _, mean = _one_row(space, ref, radius)
            # variables [p, t] with |p - ref| <= t elementwise, sum t <= radius
            c = np.concatenate([-atoms, np.zeros(k)])
            a_ub = np.block(
                [
                    [np.eye(k), -np.eye(k)],
                    [-np.eye(k), -np.eye(k)],
                    [np.zeros((1, k)), np.ones((1, k))],
                ]
            )
            b_ub = np.concatenate([ref, -ref, [radius]])
            a_eq = np.concatenate([np.ones(k), np.zeros(k)])[None, :]
            res = scipy_opt.linprog(
                c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None)
            )
            assert res.status == 0
            assert mean == pytest.approx(-res.fun, rel=1e-9)


class TestHistoryGeneration:
    def test_deterministic(self, space):
        truth = Distribution.uniform(5)
        a = generate_history(truth, space, 50, [7, 1])
        b = generate_history(truth, space, 50, [7, 1])
        assert (a == b).all()

    def test_samples_are_atoms(self, space):
        hist = generate_history(Distribution.uniform(5), space, 100, 3)
        assert set(hist.tolist()) <= set(space.atoms)

    def test_empirical_converges_to_truth(self, space):
        truth = Distribution(probs=(0.1, 0.1, 0.2, 0.3, 0.3))
        hist = generate_history(truth, space, 20000, 11)
        emp = empirical_distribution(hist, space)
        assert l1_distance(emp, truth) < 0.05


@st.composite
def _weights(draw, k):
    """A probability vector over k atoms from small integer weights: zeros, ties and,
    now and then, all the mass on the top atom."""
    if draw(st.integers(0, 5)) == 0:
        return tuple([0.0] * (k - 1) + [1.0])
    raw = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any))
    return tuple(w / sum(raw) for w in raw)


@st.composite
def _space_and_truth(draw):
    k = draw(st.integers(1, 7))
    steps = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    space = SampleSpace(atoms=tuple((np.cumsum(steps) * 1.5e6).tolist()))
    return space, Distribution(probs=draw(_weights(k)))


class TestArraySampler:
    """The array pass equals, bit for bit, each stream's `Generator.choice` followed by
    its histogram over the midpoint bins."""

    @settings(max_examples=80, deadline=None)
    @given(
        case=_space_and_truth(),
        num_samples=st.integers(1, 70),
        num_streams=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        radius=st.floats(0.0, 3.0),
    )
    def test_matches_choice_and_histogram_per_stream(
        self, case, num_samples, num_streams, seed, radius
    ):
        space, truth = case
        streams = [[seed, 0x415, i] for i in range(num_streams)]
        amb = reference_sets(truth, space, num_samples, streams, radius, num_streams)
        assert amb.references.shape == (num_streams, space.num_atoms)
        assert amb.space is space and amb.radius == radius
        for stream, row in zip(streams, amb.references):
            hist = choice_history(truth, space, num_samples, stream)
            assert tuple(row) == empirical_distribution(hist, space).probs
            assert generate_history(truth, space, num_samples, stream).tobytes() == hist.tobytes()

    def test_checks_run_on_the_whole_matrix(self, space):
        truth = Distribution.uniform(5)
        for radius in (-0.1, float("nan")):
            with pytest.raises(ConfigError, match="radius"):
                reference_sets(truth, space, 10, [[1, 2]], radius, 3)
        with pytest.raises(DataError, match="num_samples"):
            reference_sets(truth, space, 0, [[1, 2]], 0.1, 3)
        with pytest.raises(ShapeError, match="truth"):
            reference_sets(Distribution.uniform(4), space, 10, [[1, 2]], 0.1, 3)


class TestWorstCaseRows:
    """The greedy shift across rows, and the means of `worst_case_means`, equal the
    scalar loop on each row bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(_weights(5), min_size=1, max_size=12),
        radius=st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(2.0, 50.0)),
        shared=st.integers(1, 4),
    )
    def test_matches_the_scalar_loop(self, rows, radius, shared):
        space = SampleSpace(atoms=tuple(ATOMS))
        # one row per device, and one history's row spread to `shared` devices
        for references in (np.array(rows), np.broadcast_to(rows[0], (shared, 5))):
            amb = AmbiguitySet(space, references, radius)
            loops = [worst_case_mean_loop(row, radius, space.atoms) for row in references]
            shifted = worst_case_rows(amb.references, amb.radius)
            for row, (probs, _) in zip(shifted, loops):
                assert tuple(row) == probs
            means = worst_case_means(amb)
            assert means.tobytes() == np.array([mean for _, mean in loops]).tobytes()
