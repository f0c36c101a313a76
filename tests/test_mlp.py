"""Tests for the MLP, its gradient, synthetic datasets, and the training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.mlp import (
    Mlp,
    MlpSpec,
    accuracy,
    forward_loss,
    inject_label_noise,
    loss_and_grad,
    make_blobs,
    steps_per_epoch,
    train_classifier,
)
from flatmin.optim import AdamHyperParams, LrSchedule, MIAdamHyperParams, SgdParams


def reference_loss(model, inputs, labels):
    """Independent loss recomputation: explicit per-sample softmax CE."""
    a = inputs
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        if i != last:
            a = np.tanh(z) if model.spec.activation == "tanh" else np.maximum(z, 0.0)
        else:
            a = z
    total = 0.0
    for row, label in zip(a, labels):
        p = np.exp(row - row.max())
        p /= p.sum()
        total += -np.log(p[label])
    return total / len(labels)


# Verbatim copy of the MLP forward and backward passes as they were before
# the model kept its parameters in one flat buffer and its hidden arrays in a
# workspace: a fresh array for every intermediate, per-layer gradients joined
# by np.concatenate.  The current code must match it bit for bit.


def _ref_activate(model, z):
    if model.spec.activation == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def ref_logits(model, inputs):
    a = inputs
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else _ref_activate(model, z)
    return a


def _ref_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ref_loss_and_grad(model, inputs, labels):
    if inputs.shape[0] == 0:
        raise ContractViolationError("batch must be non-empty")
    n = inputs.shape[0]
    last = len(model.weights) - 1

    activations = [inputs]
    pre_acts = []
    a = inputs
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        pre_acts.append(z)
        a = z if i == last else _ref_activate(model, z)
        activations.append(a)
    logits = activations[-1]
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("non-finite activations in forward pass")

    logp = _ref_log_softmax(logits)
    loss = float(-logp[np.arange(n), labels].mean())

    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(last, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
            if model.spec.activation == "tanh":
                delta = delta * (1.0 - activations[i] ** 2)
            else:
                delta = delta * (pre_acts[i - 1] > 0)

    parts = []
    for gw, gb in zip(grads_w, grads_b):
        parts.append(gw.reshape(-1))
        parts.append(gb)
    return loss, np.concatenate(parts), logits


SPEC = MlpSpec(layer_sizes=(5, 8, 3), activation="tanh", init_seed=1)


def toy_batch(n=6, seed=70, n_in=5, classes=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n, n_in))
    y = rng.integers(0, classes, size=n)
    return x, y


class TestForward:
    def test_uniform_logits_give_log_c(self):
        model = Mlp(SPEC)
        # zero all parameters: logits identically 0, softmax uniform over 3
        model.set_flat(np.zeros(model.num_params))
        x, y = toy_batch()
        loss, logits = forward_loss(model, x, y)
        assert loss == pytest.approx(np.log(3.0), rel=1e-14)
        assert np.all(logits == 0.0)

    def test_loss_matches_reference(self):
        model = Mlp(SPEC)
        x, y = toy_batch()
        loss, _ = forward_loss(model, x, y)
        assert loss == pytest.approx(reference_loss(model, x, y), rel=1e-12)

    def test_large_logits_stable(self):
        model = Mlp(SPEC)
        model.set_flat(model.get_flat() * 50.0)
        x, y = toy_batch()
        loss, _ = forward_loss(model, x, y)
        assert np.isfinite(loss)

    def test_empty_batch_rejected(self):
        model = Mlp(SPEC)
        with pytest.raises(ContractViolationError):
            forward_loss(model, np.empty((0, 5)), np.empty(0, dtype=int))

    def test_flat_roundtrip(self):
        model = Mlp(SPEC)
        flat = model.get_flat()
        other = Mlp(MlpSpec(layer_sizes=(5, 8, 3), activation="tanh", init_seed=99))
        other.set_flat(flat)
        assert np.array_equal(other.get_flat(), flat)

    def test_set_flat_rejects_a_wrong_dimension(self):
        model = Mlp(SPEC)
        with pytest.raises(ContractViolationError, match="wrong dimension"):
            model.set_flat(np.zeros(model.num_params + 1))

    def test_init_bounds_and_zero_biases(self):
        model = Mlp(MlpSpec(layer_sizes=(10, 4, 2), init_seed=3))
        limit0 = np.sqrt(6.0 / 14.0)
        assert np.all(np.abs(model.weights[0]) <= limit0)
        assert np.all(model.biases[0] == 0.0) and np.all(model.biases[1] == 0.0)

    def test_spec_validation(self):
        with pytest.raises(ContractViolationError):
            MlpSpec(layer_sizes=(5,))
        with pytest.raises(ContractViolationError):
            MlpSpec(layer_sizes=(5, 1))
        with pytest.raises(ContractViolationError):
            MlpSpec(layer_sizes=(5, 3), activation="gelu")


class TestGradient:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        spec = MlpSpec(layer_sizes=(4, 6, 3), activation=activation, init_seed=2)
        model = Mlp(spec)
        rng = np.random.Generator(np.random.PCG64(71))
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, size=5)
        _, grad, _ = loss_and_grad(model, x, y)
        flat = model.get_flat()
        h = 1e-6
        idx = rng.choice(model.num_params, size=25, replace=False)
        probe = Mlp(spec)
        for i in idx:
            bumped = flat.copy()
            bumped[i] = flat[i] + h
            probe.set_flat(bumped)
            lp, _ = forward_loss(probe, x, y)
            bumped[i] = flat[i] - h
            probe.set_flat(bumped)
            lm, _ = forward_loss(probe, x, y)
            fd = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_batch_permutation_invariance(self):
        model = Mlp(SPEC)
        x, y = toy_batch(n=8)
        _, g1, _ = loss_and_grad(model, x, y)
        perm = np.array([3, 1, 7, 0, 5, 2, 6, 4])
        _, g2, _ = loss_and_grad(model, x[perm], y[perm])
        assert np.max(np.abs(g1 - g2)) < 1e-14

    def test_duplicated_samples_average(self):
        model = Mlp(SPEC)
        x, y = toy_batch(n=4)
        _, g1, _ = loss_and_grad(model, x, y)
        x2 = np.vstack([x, x])
        y2 = np.concatenate([y, y])
        _, g2, _ = loss_and_grad(model, x2, y2)
        assert np.max(np.abs(g1 - g2)) < 1e-14

    def test_loss_consistent_with_forward(self):
        model = Mlp(SPEC)
        x, y = toy_batch()
        loss_f, _ = forward_loss(model, x, y)
        loss_b, _, _ = loss_and_grad(model, x, y)
        assert loss_b == loss_f


class TestBitExactOracle:
    """The flat-buffer, workspace MLP against the verbatim reference above."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_in=st.integers(1, 24),
        hidden=st.lists(st.sampled_from([1, 7, 64]), min_size=1, max_size=3),
        # 8 or more columns take numpy's other reduction paths
        n_out=st.integers(2, 10),
        activation=st.sampled_from(["tanh", "relu"]),
        rows=st.lists(st.sampled_from([1, 3, 32, 128, 480]), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        zero=st.booleans(),
    )
    # 480 x 64 hidden arrays are above glibc's default mmap threshold
    @example(n_in=20, hidden=[64], n_out=4, activation="relu", rows=[480, 128, 480, 32], seed=0,
             zero=False)
    @example(n_in=20, hidden=[64, 64, 7], n_out=4, activation="tanh", rows=[32, 480, 1], seed=1,
             zero=False)
    # all parameters zero: every logit of the first batch ties at 0.0
    @example(n_in=20, hidden=[64], n_out=10, activation="relu", rows=[480, 1, 32], seed=2,
             zero=True)
    def test_matches_reference_bit_for_bit(self, n_in, hidden, n_out, activation, rows, seed, zero):
        spec = MlpSpec(layer_sizes=(n_in, *hidden, n_out), activation=activation, init_seed=seed)
        model = Mlp(spec)
        if zero:
            model.set_flat(np.zeros(model.num_params))
        rng = np.random.Generator(np.random.PCG64(seed))
        for n in rows:
            x = rng.standard_normal((n, n_in)) * 2.0
            y = rng.integers(0, n_out, size=n)
            loss, grad, logits = loss_and_grad(model, x, y)
            ref_loss, ref_grad, ref_out = ref_loss_and_grad(model, x, y)
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes()
            assert logits.tobytes() == ref_out.tobytes()
            assert model.logits(x).tobytes() == ref_logits(model, x).tobytes()
            assert forward_loss(model, x, y)[0] == ref_loss
            # move the parameters so the next batch sees new weights
            model.set_flat(model.get_flat() - 0.05 * ref_grad)

    def test_consecutive_gradients_are_distinct_arrays(self):
        model = Mlp(MlpSpec(layer_sizes=(20, 64, 4), activation="relu", init_seed=3))
        x, y = toy_batch(n=480, seed=71, n_in=20, classes=4)
        theta = model.get_flat()
        _, g1, z1 = loss_and_grad(model, x, y)
        kept = g1.copy()
        model.set_flat(theta + 1e-3)
        _, g2, z2 = loss_and_grad(model, x, y)
        assert not np.shares_memory(g1, g2) and not np.shares_memory(z1, z2)
        assert np.array_equal(g1, kept)
        assert not np.array_equal(g1, g2)

    def test_weights_are_views_of_the_flat_parameters(self):
        model = Mlp(SPEC)
        flat = model.get_flat()
        flat[0] = 123.0
        assert model.weights[0][0, 0] != 123.0  # get_flat hands out a copy
        model.set_flat(flat)
        assert model.weights[0][0, 0] == 123.0
        flat[0] = 0.0
        assert model.weights[0][0, 0] == 123.0  # set_flat copies in


class TestAllocation:
    def test_warm_loss_and_grad_allocates_less_than_one_hidden_array(self):
        # A (480, 64) float64 array is 245,760 B, above glibc's 128 KiB mmap
        # threshold: allocating such temporaries per call page-faults them in
        # again on every call.  The warm call may allocate only the small
        # per-call arrays: logits, softmax terms and the returned gradient.
        model = Mlp(MlpSpec(layer_sizes=(20, 64, 4), activation="relu", init_seed=0))
        x, y = toy_batch(n=480, seed=72, n_in=20, classes=4)
        loss_and_grad(model, x, y)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            loss_and_grad(model, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 480 * 64 * 8


class TestBlobs:
    def test_shapes_and_counts(self):
        ds = make_blobs(classes=4, per_class=50, spread=1.0, seed=0)
        assert ds.x_train.shape == (160, 20) and ds.x_test.shape == (40, 20)
        assert ds.x_train.dtype == ds.x_test.dtype == np.float64
        assert ds.y_train.dtype == ds.y_test.dtype == np.int64
        assert ds.classes == 4
        labels = np.concatenate([ds.y_train, ds.y_test])
        assert np.array_equal(np.bincount(labels), [50, 50, 50, 50])
        # the two parts are disjoint: their stacked rows are 200 distinct points
        assert len(np.unique(np.vstack([ds.x_train, ds.x_test]), axis=0)) == 200

    def test_deterministic(self):
        a = make_blobs(3, 20, 0.5, seed=7)
        b = make_blobs(3, 20, 0.5, seed=7)
        for part in ("x_train", "y_train", "x_test", "y_test"):
            assert np.array_equal(getattr(a, part), getattr(b, part))

    def test_seed_changes_data(self):
        a = make_blobs(3, 20, 0.5, seed=7)
        b = make_blobs(3, 20, 0.5, seed=8)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            make_blobs(1, 10, 1.0, seed=0)
        with pytest.raises(ContractViolationError):
            make_blobs(3, 0, 1.0, seed=0)
        with pytest.raises(ContractViolationError):
            make_blobs(3, 10, 0.0, seed=0)

    @pytest.mark.parametrize("n_features", [1, 0, -1])
    def test_fewer_than_two_features_rejected(self, n_features):
        # the class centres sit in features 0 and 1
        with pytest.raises(ContractViolationError, match="n_features must be >= 2"):
            make_blobs(2, 3, 1.0, 0, n_features=n_features)


class TestLabelNoise:
    def test_exact_flip_count_train_only(self):
        ds = make_blobs(4, 100, 1.0, seed=1)
        noisy = inject_label_noise(ds, 0.25, seed=2)
        changed = np.nonzero(noisy.y_train != ds.y_train)[0]
        assert len(changed) == round(0.25 * len(ds.y_train))
        for part in ("x_train", "x_test", "y_test"):
            assert np.array_equal(getattr(noisy, part), getattr(ds, part))

    def test_flips_change_class(self):
        ds = make_blobs(4, 100, 1.0, seed=1)
        noisy = inject_label_noise(ds, 0.5, seed=3)
        flipped = noisy.y_train != ds.y_train
        # every chosen victim ends up with a different label by construction
        assert np.sum(flipped) == round(0.5 * len(ds.y_train))

    def test_zero_rate_identity(self):
        ds = make_blobs(3, 30, 1.0, seed=4)
        assert inject_label_noise(ds, 0.0, seed=5) is ds

    def test_deterministic(self):
        ds = make_blobs(4, 50, 1.0, seed=6)
        a = inject_label_noise(ds, 0.3, seed=9)
        b = inject_label_noise(ds, 0.3, seed=9)
        assert np.array_equal(a.y_train, b.y_train)

    def test_rate_bounds(self):
        ds = make_blobs(3, 10, 1.0, seed=0)
        with pytest.raises(ContractViolationError):
            inject_label_noise(ds, 1.0, seed=0)
        with pytest.raises(ContractViolationError):
            inject_label_noise(ds, -0.1, seed=0)


class TestTraining:
    def test_steps_per_epoch_ceil(self):
        assert steps_per_epoch(100, 32) == 4
        assert steps_per_epoch(96, 32) == 3
        assert steps_per_epoch(1, 32) == 1

    def test_separable_blobs_high_test_accuracy(self):
        ds = make_blobs(3, 60, 1.0, seed=10)
        spec = MlpSpec(layer_sizes=(20, 16, 3), activation="tanh", init_seed=0)
        model, metrics = train_classifier(
            spec, ds, AdamHyperParams(alpha=1e-2, weight_decay=0.0),
            LrSchedule(), epochs=30, batch_size=32, seed=0,
        )
        assert metrics["test_acc"][-1] > 0.95
        assert metrics["train_loss"][-1] < metrics["train_loss"][0]

    def test_deterministic(self):
        ds = make_blobs(3, 40, 1.0, seed=11)
        spec = MlpSpec(layer_sizes=(20, 8, 3), init_seed=1)
        hp = AdamHyperParams(alpha=1e-3)
        _, m1 = train_classifier(spec, ds, hp, LrSchedule(), 5, 16, seed=2)
        _, m2 = train_classifier(spec, ds, hp, LrSchedule(), 5, 16, seed=2)
        assert {k: c.tobytes() for k, c in m1.items()} == {k: c.tobytes() for k, c in m2.items()}

    def test_shuffle_seed_matters(self):
        ds = make_blobs(3, 40, 1.0, seed=11)
        spec = MlpSpec(layer_sizes=(20, 8, 3), init_seed=1)
        hp = SgdParams(alpha=0.05)
        _, m1 = train_classifier(spec, ds, hp, LrSchedule(), 3, 16, seed=2)
        _, m2 = train_classifier(spec, ds, hp, LrSchedule(), 3, 16, seed=3)
        assert any(not np.array_equal(m1[k], m2[k]) for k in m1)

    def test_metrics_one_row_per_epoch(self):
        ds = make_blobs(2, 20, 1.0, seed=12)
        spec = MlpSpec(layer_sizes=(20, 4, 2), init_seed=0)
        _, metrics = train_classifier(
            spec, ds, SgdParams(alpha=0.01), LrSchedule(), 7, 8, seed=0
        )
        assert list(metrics) == ["epoch", "train_loss", "train_acc", "test_loss", "test_acc"]
        assert metrics["epoch"].tolist() == list(range(1, 8))
        assert metrics["epoch"].dtype == np.int64
        for key in ("train_loss", "train_acc", "test_loss", "test_acc"):
            assert metrics[key].shape == (7,) and metrics[key].dtype == np.float64

    def test_miadam_trains(self):
        ds = make_blobs(3, 60, 1.0, seed=13)
        spec = MlpSpec(layer_sizes=(20, 16, 3), activation="relu", init_seed=0)
        spe = steps_per_epoch(len(ds.y_train), 32)
        hp = MIAdamHyperParams(
            adam=AdamHyperParams(alpha=1e-3, weight_decay=0.0),
            order_n=1, kappa=0.98, switch_step=5 * spe,
        )
        _, metrics = train_classifier(spec, ds, hp, LrSchedule(), 20, 32, seed=0)
        assert metrics["test_acc"][-1] > 0.9

    def test_bad_args(self):
        ds = make_blobs(2, 10, 1.0, seed=0)
        spec = MlpSpec(layer_sizes=(20, 2), init_seed=0)
        with pytest.raises(ContractViolationError):
            train_classifier(spec, ds, SgdParams(alpha=0.1), LrSchedule(), 0, 8, seed=0)
        with pytest.raises(ContractViolationError):
            train_classifier(spec, ds, SgdParams(alpha=0.1), LrSchedule(), 1, 0, seed=0)

    def test_accuracy_bounds(self):
        model = Mlp(MlpSpec(layer_sizes=(5, 3), init_seed=0))
        x, y = toy_batch()
        acc = accuracy(model, x, y)
        assert 0.0 <= acc <= 1.0
