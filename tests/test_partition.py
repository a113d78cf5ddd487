"""Tests for the non-IID partitioners and their audit statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcalib.errors import ConfigError, InvalidInputError
from fedcalib.numerics import RngStream, dirichlet_sample, multinomial_split
from fedcalib.partition import (
    LabeledDataset,
    _apportion,
    _enforce_min_one,
    base_to_new_split,
    client_entropy,
    dirichlet_partition,
    domain_partition,
    heterogeneity_stats,
    sort_and_partition,
)

from fixtures import plan_from_json
from oracles import naive_group_by_client


def make_dataset(samples_per_class=40, class_count=10, domains=1, test_fraction=0.2, seed=0):
    """Balanced dataset with placeholder embeddings; labels are what matter."""
    n = samples_per_class * class_count * domains
    labels = np.tile(np.repeat(np.arange(class_count), samples_per_class), domains)
    doms = np.repeat(np.arange(domains), samples_per_class * class_count)
    test_per_class = int(samples_per_class * test_fraction)
    is_train = np.ones(n, dtype=bool)
    for d in range(domains):
        for c in range(class_count):
            block = np.flatnonzero((labels == c) & (doms == d))
            is_train[block[:test_per_class]] = False
    emb = RngStream(seed, 5000).normal(n * 4).reshape(n, 4)
    return LabeledDataset(emb, labels, doms, class_count, is_train)


def assert_conservation(plan, data):
    train_ix = data.train_indices()
    combined = np.concatenate([ix for ix in plan.train_indices if len(ix)])
    assert len(combined) == len(train_ix)
    assert len(np.unique(combined)) == len(combined)
    assert set(combined.tolist()) == set(train_ix.tolist())


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        data = make_dataset()
        plan = dirichlet_partition(data, 1, 0.5, RngStream(1))
        assert plan.num_clients == 1
        assert_conservation(plan, data)
        assert len(plan.train_indices[0]) == len(data.train_indices())

    def test_conservation_across_seeds_and_alphas(self):
        data = make_dataset()
        for seed in range(10):
            for alpha in (0.05, 0.5, 10.0):
                plan = dirichlet_partition(data, 7, alpha, RngStream(seed, 31))
                assert_conservation(plan, data)
                assert np.array_equal(
                    plan.histograms.sum(axis=0),
                    np.bincount(data.labels[data.train_indices()], minlength=10),
                )

    def test_min_one_sample_per_client(self):
        data = make_dataset(samples_per_class=5, class_count=4)
        for seed in range(20):
            plan = dirichlet_partition(data, 10, 0.05, RngStream(seed, 32))
            assert all(len(ix) >= 1 for ix in plan.train_indices)

    def test_high_alpha_near_uniform(self):
        # alpha = 1000, N = 10, C = 10, 1e4 balanced samples: per-client TV
        # distance from uniform < 0.1 for at least 99/100 seeds
        data = make_dataset(samples_per_class=1000, class_count=10, test_fraction=0.0)
        bad = 0
        for seed in range(100):
            plan = dirichlet_partition(data, 10, 1000.0, RngStream(seed, 33))
            stats = heterogeneity_stats(plan)
            tv = 0.5 * np.abs(stats["proportions"] - 0.1).sum(axis=1)
            if np.any(tv >= 0.1):
                bad += 1
        assert bad <= 1

    def test_low_alpha_concentrates(self):
        # alpha = 0.05: mean client entropy < 0.5 ln C for >= 95/100 seeds
        data = make_dataset(samples_per_class=100, class_count=10, test_fraction=0.0)
        bad = 0
        for seed in range(100):
            plan = dirichlet_partition(data, 10, 0.05, RngStream(seed, 34))
            entropy = heterogeneity_stats(plan)["entropy"]
            if entropy.mean() >= 0.5 * math.log(10):
                bad += 1
        assert bad <= 5

    def test_seed_reproducibility(self):
        data = make_dataset()
        a = dirichlet_partition(data, 5, 0.5, RngStream(9, 35))
        b = dirichlet_partition(data, 5, 0.5, RngStream(9, 35))
        for i in range(5):
            assert np.array_equal(a.train_indices[i], b.train_indices[i])
            assert np.array_equal(a.test_indices[i], b.test_indices[i])

    def test_sample_permutation_keeps_histograms(self):
        data = make_dataset(test_fraction=0.0)
        perm = RngStream(77).permutation(data.sample_count)
        shuffled = LabeledDataset(
            data.embeddings[perm], data.labels[perm], data.domains[perm],
            data.class_count, data.is_train[perm],
        )
        a = dirichlet_partition(data, 6, 0.3, RngStream(11, 36))
        b = dirichlet_partition(shuffled, 6, 0.3, RngStream(11, 36))
        assert np.array_equal(a.histograms, b.histograms)

    @pytest.mark.slow
    def test_entropy_monotone_in_alpha(self):
        # mean per-client entropy should be non-decreasing in expectation
        data = make_dataset(samples_per_class=50, class_count=10, test_fraction=0.0)
        means = []
        for alpha in (0.1, 1.0, 10.0, 100.0):
            vals = []
            for seed in range(200):
                plan = dirichlet_partition(data, 8, alpha, RngStream(seed, 37))
                vals.append(heterogeneity_stats(plan)["entropy"].mean())
            means.append(np.mean(vals))
        assert all(means[i] < means[i + 1] for i in range(len(means) - 1))

    def test_reference_configuration_overlapping_heterogeneous(self):
        # alpha = 0.5 over 100 clients on 100-class data: clients overlap in
        # class support and the plan is heterogeneous, not a clean split
        data = make_dataset(samples_per_class=50, class_count=100, test_fraction=0.2)
        plan = dirichlet_partition(data, 100, 0.5, RngStream(77, 39))
        assert_conservation(plan, data)
        support = plan.histograms > 0
        clients_per_class = support.sum(axis=0)
        assert clients_per_class.max() > 1  # overlap allowed and present
        stats = heterogeneity_stats(plan)
        entropy = stats["entropy"]
        assert entropy.std() > 0.05  # clients differ in skew
        assert entropy.mean() < 0.9 * math.log(100)  # far from IID

    def test_mirrored_test_views(self):
        data = make_dataset()
        plan = dirichlet_partition(data, 5, 0.5, RngStream(13, 38))
        test_ix = data.test_indices()
        combined = np.concatenate(plan.test_indices)
        assert len(combined) == len(test_ix)
        assert set(combined.tolist()) == set(test_ix.tolist())
        # a client with zero train mass in a class gets no test samples of it
        for i in range(5):
            test_hist = np.bincount(data.labels[plan.test_indices[i]], minlength=10)
            assert np.all(test_hist[plan.histograms[i] == 0] == 0)

    def test_rejects_bad_args(self):
        data = make_dataset()
        with pytest.raises(InvalidInputError):
            dirichlet_partition(data, 0, 0.5, RngStream(0))
        with pytest.raises(InvalidInputError):
            dirichlet_partition(data, 3, 0.0, RngStream(0))
        empty = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int),
                               np.zeros(4, dtype=int), 2, np.zeros(4, dtype=bool))
        with pytest.raises(InvalidInputError):
            dirichlet_partition(empty, 2, 0.5, RngStream(0))


class TestSortAndPartition:
    def test_one_class_per_client(self):
        data = make_dataset(class_count=6)
        plan = sort_and_partition(data, 6, 1)
        for i in range(6):
            assert np.array_equal(np.flatnonzero(plan.histograms[i]), [i])
        assert_conservation(plan, data)

    def test_disjoint_pairs(self):
        data = make_dataset(class_count=10)
        plan = sort_and_partition(data, 5, 2)
        supports = [set(np.flatnonzero(plan.histograms[i]).tolist()) for i in range(5)]
        assert all(len(s) == 2 for s in supports)
        assert set().union(*supports) == set(range(10))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (supports[i] & supports[j])

    def test_full_coverage_degenerate(self):
        data = make_dataset(class_count=4, samples_per_class=24)
        plan = sort_and_partition(data, 3, 4)
        for i in range(3):
            assert np.all(plan.histograms[i] > 0)
        assert_conservation(plan, data)

    def test_infeasible_configs_rejected(self):
        data = make_dataset(class_count=10)
        with pytest.raises(ConfigError):
            sort_and_partition(data, 3, 2)  # 6 shards not a multiple of 10
        with pytest.raises(ConfigError):
            sort_and_partition(data, 4, 11)  # more classes than exist


class TestBaseToNew:
    def test_two_classes_one_client(self):
        data = make_dataset(class_count=2)
        plan, new_eval = base_to_new_split(data, 1, RngStream(21))
        base = plan.metadata["base_classes"]
        new = plan.metadata["new_classes"]
        assert len(base) == 1 and len(new) == 1
        assert set(base) | set(new) == {0, 1}
        assert len(new_eval) > 0

    def test_flowers_shaped_round_robin(self):
        # C = 102, N = 10: 51 base classes, clients hold 6 or 5 classes
        data = make_dataset(samples_per_class=4, class_count=102, test_fraction=0.25)
        plan, _ = base_to_new_split(data, 10, RngStream(22))
        assert len(plan.metadata["base_classes"]) == 51
        assert len(plan.metadata["new_classes"]) == 51
        sizes = [len(cc) for cc in plan.metadata["client_base_classes"]]
        assert sorted(sizes) == [5] * 9 + [6]

    def test_disjointness_over_seeds(self):
        data = make_dataset(class_count=11)
        for seed in range(30):
            plan, _ = base_to_new_split(data, 3, RngStream(seed, 41))
            base = set(plan.metadata["base_classes"])
            new = set(plan.metadata["new_classes"])
            assert not (base & new)
            assert base | new == set(range(11))
            clients = [set(cc) for cc in plan.metadata["client_base_classes"]]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not (clients[i] & clients[j])

    def test_test_views_cover_base_and_new(self):
        data = make_dataset(class_count=8)
        plan, new_eval = base_to_new_split(data, 2, RngStream(23))
        new = set(plan.metadata["new_classes"])
        for i in range(2):
            own = set(plan.metadata["client_base_classes"][i])
            view_classes = set(data.labels[plan.test_indices[i]].tolist())
            assert view_classes == own | new
            assert np.all(np.isin(new_eval, plan.test_indices[i]))

    def test_train_only_on_own_base_classes(self):
        data = make_dataset(class_count=8)
        plan, _ = base_to_new_split(data, 2, RngStream(24))
        for i in range(2):
            own = set(plan.metadata["client_base_classes"][i])
            assert set(data.labels[plan.train_indices[i]].tolist()) == own

    def test_too_many_clients_rejected(self):
        data = make_dataset(class_count=4)
        with pytest.raises(ConfigError):
            base_to_new_split(data, 3, RngStream(25))  # only 2 base classes


class TestDomainPartition:
    def test_one_client_per_domain_is_whole_domain(self):
        data = make_dataset(domains=3)
        plan = domain_partition(data, 1, 0.5, RngStream(26))
        assert plan.num_clients == 3
        for d in range(3):
            ix = plan.train_indices[d]
            assert np.all(data.domains[ix] == d)
            dom_train = [i for i in data.train_indices() if data.domains[i] == d]
            assert len(ix) == len(dom_train)

    def test_two_clients_four_domains(self):
        data = make_dataset(domains=4)
        plan = domain_partition(data, 2, 0.5, RngStream(27))
        assert plan.num_clients == 8
        assert plan.metadata["client_domain"] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert_conservation(plan, data)
        for client in range(8):
            dom = plan.metadata["client_domain"][client]
            assert np.all(data.domains[plan.train_indices[client]] == dom)
            assert np.all(data.domains[plan.test_indices[client]] == dom)

    def test_high_alpha_even_within_domain(self):
        data = make_dataset(domains=2, samples_per_class=60, test_fraction=0.0)
        plan = domain_partition(data, 2, 1000.0, RngStream(28))
        sizes = np.array([len(ix) for ix in plan.train_indices])
        assert np.all(np.abs(sizes - sizes.mean()) < 0.1 * sizes.mean())

    def test_undersized_domain_rejected(self):
        data = make_dataset(domains=2, samples_per_class=1, class_count=1, test_fraction=0.0)
        with pytest.raises(ConfigError):
            domain_partition(data, 5, 0.5, RngStream(29))


class TestHeterogeneityStats:
    def test_single_class_client_entropy_zero(self):
        data = make_dataset(class_count=4)
        plan = sort_and_partition(data, 4, 1)
        stats = heterogeneity_stats(plan)
        assert np.allclose(stats["entropy"], 0.0)

    def test_uniform_client_entropy_ln_c(self):
        data = make_dataset(class_count=5)
        plan = sort_and_partition(data, 1, 5)
        stats = heterogeneity_stats(plan)
        assert stats["entropy"][0] == pytest.approx(math.log(5))

    def test_overlap_matrix(self):
        data = make_dataset(class_count=4)
        plan = sort_and_partition(data, 4, 1)
        stats = heterogeneity_stats(plan)
        assert np.array_equal(stats["overlap"], np.eye(4, dtype=int))


class TestPlanSerialization:
    def test_json_roundtrip(self):
        data = make_dataset()
        plan = dirichlet_partition(data, 4, 0.5, RngStream(30, 50))
        text = plan.to_json()
        back = plan_from_json(text)
        assert back.num_clients == plan.num_clients
        assert np.array_equal(back.histograms, plan.histograms)
        for i in range(4):
            assert np.array_equal(back.train_indices[i], plan.train_indices[i])
        assert back.to_json() == text


# Plain per-class, per-client references built on ``naive_group_by_client``;
# the Dirichlet draws, ``_apportion`` and ``_enforce_min_one`` are shared
# with the program, the grouping is not.


def class_pieces(indices, labels, class_count):
    return [indices[labels[indices] == c] for c in range(class_count)]


def naive_histograms(per_client, labels, class_count):
    return np.array([np.bincount(labels[ix], minlength=class_count) for ix in per_client])


def reference_assign(data, indices, num_clients, alpha, rng):
    pieces = class_pieces(indices, data.labels, data.class_count)
    counts = [
        multinomial_split(len(piece), dirichlet_sample(alpha, num_clients, rng.child("class", c)),
                          rng.child("counts", c)) if len(piece) else np.zeros(num_clients, dtype=np.int64)
        for c, piece in enumerate(pieces)
    ]
    per_client = naive_group_by_client(pieces, counts, num_clients)
    _enforce_min_one(per_client, data.labels)
    return per_client


def reference_mirror(data, train, test_ix):
    hist = naive_histograms(train, data.labels, data.class_count)
    pieces = class_pieces(test_ix, data.labels, data.class_count)
    counts = [_apportion(len(piece), hist[:, c].astype(np.float64)) for c, piece in enumerate(pieces)]
    return naive_group_by_client(pieces, counts, len(train))


def reference_sort(data, num_clients, classes_per_client):
    spc = num_clients * classes_per_client // data.class_count
    shards = []
    for piece in class_pieces(data.train_indices(), data.labels, data.class_count):
        base, extra = divmod(len(piece), spc)
        shards += np.split(piece, np.cumsum([base + (j < extra) for j in range(spc)])[:-1])
    # shard s goes whole to client s mod N
    counts = [np.eye(num_clients, dtype=np.int64)[s % num_clients] * len(shard) for s, shard in enumerate(shards)]
    train = naive_group_by_client(shards, counts, num_clients)
    return train, reference_mirror(data, train, data.test_indices())


def reference_domain(data, clients_per_domain, alpha, rng):
    train_ix, test_ix = data.train_indices(), data.test_indices()
    train, test = [], []
    for dom in range(data.domain_count()):
        local = reference_assign(data, train_ix[data.domains[train_ix] == dom], clients_per_domain,
                                 alpha, rng.child("domain", dom))
        train += local
        test += reference_mirror(data, local, test_ix[data.domains[test_ix] == dom])
    return train, test


@st.composite
def labeled_rows(draw, class_count, groups, min_train_per_group, min_per_class=0):
    """Rows in a shuffled order: per group (domain), at least
    ``min_train_per_group`` train rows, and in each of the ``class_count``
    classes at least ``min_per_class`` train rows; classes may be empty."""
    labels, domains, is_train = [], [], []
    for dom in range(groups):
        train = [c for c in range(class_count) for _ in range(min_per_class)]
        extra = max(0, min_train_per_group - len(train))
        train += draw(st.lists(st.integers(0, class_count - 1), min_size=extra, max_size=extra + 20))
        test = draw(st.lists(st.integers(0, class_count - 1), max_size=15))
        labels += train + test
        domains += [dom] * (len(train) + len(test))
        is_train += [True] * len(train) + [False] * len(test)
    order = draw(st.permutations(range(len(labels))))
    n = len(labels)
    return LabeledDataset(np.zeros((n, 2)), np.array(labels, dtype=np.int64)[order],
                          np.array(domains, dtype=np.int64)[order], class_count,
                          np.array(is_train)[order])


ALPHAS = st.sampled_from([0.01, 0.1, 0.5, 1.0, 100.0])


class TestGroupingMatchesPerClassOracle:
    """Each partition equals a plain per-class, per-client split loop, index
    for index and in order, and conserves the train set."""

    def check(self, plan, data, train, test):
        train_ix = data.train_indices()
        assert np.array_equal(np.sort(np.concatenate(plan.train_indices)), train_ix)
        assert len(plan.train_indices) == len(train) == len(plan.test_indices) == len(test)
        for got, want in zip(plan.train_indices + plan.test_indices, train + test):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        assert np.array_equal(plan.histograms, naive_histograms(plan.train_indices, data.labels, data.class_count))

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 8), ALPHAS, st.integers(0, 2**32))
    def test_dirichlet(self, hyp, class_count, num_clients, alpha, seed):
        data = hyp.draw(labeled_rows(class_count, 1, num_clients))
        plan = dirichlet_partition(data, num_clients, alpha, RngStream(seed))
        train = reference_assign(data, data.train_indices(), num_clients, alpha, RngStream(seed))
        self.check(plan, data, train, reference_mirror(data, train, data.test_indices()))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.integers(1, 3), ALPHAS, st.integers(0, 2**32))
    def test_domain(self, hyp, class_count, domains, clients_per_domain, alpha, seed):
        data = hyp.draw(labeled_rows(class_count, domains, clients_per_domain))
        plan = domain_partition(data, clients_per_domain, alpha, RngStream(seed))
        self.check(plan, data, *reference_domain(data, clients_per_domain, alpha, RngStream(seed)))

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 3))
    def test_sort(self, hyp, class_count, shards_per_class):
        # N x classes_per_client = C x shards_per_class, and N >= shards_per_class
        # keeps every client's shards in distinct classes
        total = class_count * shards_per_class
        classes_per_client = hyp.draw(st.sampled_from(
            [k for k in range(1, class_count + 1) if total % k == 0 and total // k >= shards_per_class]))
        num_clients = total // classes_per_client
        data = hyp.draw(labeled_rows(class_count, 1, 0, min_per_class=shards_per_class))
        plan = sort_and_partition(data, num_clients, classes_per_client)
        self.check(plan, data, *reference_sort(data, num_clients, classes_per_client))


class TestClientEntropy:
    def test_matches_heterogeneity_stats_and_hand_values(self):
        hist = np.array([[5, 0, 0], [2, 2, 0], [0, 0, 0], [1, 1, 1]])
        entropy = client_entropy(hist)
        assert np.allclose(entropy, [0.0, math.log(2), 0.0, math.log(3)], atol=1e-15)
        plan = dirichlet_partition(make_dataset(), 6, 0.3, RngStream(4))
        assert np.array_equal(client_entropy(plan.histograms), heterogeneity_stats(plan)["entropy"])
