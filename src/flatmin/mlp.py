"""Minimal feedforward classifier with manual backpropagation.

Desk-scale stand-in for the image experiments: synthetic Gaussian-blob
datasets, label-noise injection on the training split only, and a
deterministic minibatch training loop driving any optimizer from
``flatmin.optim``.  Parameters travel as one flat float64 vector in
layer-major order (each layer's weights, then its biases).

Each ``Mlp`` owns that flat vector as its parameter buffer: its
``weights`` and ``biases`` are views into it, so ``set_flat`` is a single
copy.  The gradient is filled layer by layer into a second flat buffer,
through views built once with the model, and handed back as a copy.
The training loop's optimizer steps the parameter buffer in place.
One forward pass (``Mlp.logits``) serves ``forward_loss``,
``loss_and_grad`` and ``accuracy``.  It writes hidden activations into a
per-model workspace, and ``loss_and_grad`` writes its hidden deltas there
too.  The workspace is sized once to the largest batch the model has seen,
so the hot path allocates no hidden-layer arrays.  A model may therefore
serve only one call at a time.  Arrays handed back to callers never alias
the workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, NonFiniteError
from .optim import (
    LrSchedule,
    OptimizerParams,
    build_lanes,
    schedule_multiplier,
)


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...]
    activation: str = "tanh"
    init_seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ContractViolationError("need at least input and output layers")
        if self.layer_sizes[-1] < 2:
            raise ContractViolationError("output size (number of classes) must be >= 2")
        if self.activation not in ("tanh", "relu"):
            raise ContractViolationError(f"unknown activation {self.activation!r}")

    @property
    def num_params(self) -> int:
        """Length of the flat parameter vector: every layer's weights and biases."""
        sizes = self.layer_sizes
        return sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))


def _layer_views(flat: np.ndarray, sizes: tuple[int, ...]):
    """Per-layer (weights, biases) views into a layer-major flat vector."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


class Mlp:
    """Fully connected net; weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        sizes = spec.layer_sizes
        self.num_params = spec.num_params
        self._flat = np.zeros(self.num_params)
        self.weights, self.biases = _layer_views(self._flat, sizes)
        self._grad = np.empty(self.num_params)
        self._grad_views = _layer_views(self._grad, sizes)
        rng = np.random.Generator(np.random.PCG64(spec.init_seed))
        for w in self.weights:
            fan_in, fan_out = w.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        # hidden activations and deltas, one (rows, width) pair per hidden
        # layer; -1 rows until the first call allocates them
        self._rows = -1
        self._acts: list[np.ndarray] = []
        self._deltas: list[np.ndarray] = []

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        if flat.shape != (self.num_params,):
            raise ContractViolationError("flat parameter vector has wrong dimension")
        self._flat[...] = flat

    def _workspace(self, n: int):
        """Hidden-layer buffers for an n-row batch, grown to the largest n seen."""
        if n > self._rows:
            widths = self.spec.layer_sizes[1:-1]
            self._acts = [np.empty((n, w)) for w in widths]
            self._deltas = [np.empty((n, w)) for w in widths]
            self._rows = n
        return [a[:n] for a in self._acts], [d[:n] for d in self._deltas]

    def logits(self, inputs: np.ndarray) -> np.ndarray:
        """The forward pass; hidden activations are left in the workspace."""
        acts, _ = self._workspace(inputs.shape[0])
        a = inputs
        for w, b, h in zip(self.weights, self.biases, acts):
            np.matmul(a, w, out=h)
            np.add(h, b, out=h)
            if self.spec.activation == "tanh":
                np.tanh(h, out=h)
            else:
                np.maximum(h, 0.0, out=h)
            a = h
        out = np.matmul(a, self.weights[-1])
        out += self.biases[-1]
        return out


def _cross_entropy(model: Mlp, inputs: np.ndarray, labels: np.ndarray):
    """The forward pass and its mean cross-entropy; returns (loss, log-probabilities, logits)."""
    if inputs.shape[0] == 0:
        raise ContractViolationError("batch must be non-empty")
    logits = model.logits(inputs)
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite activations in forward pass")
    # a running maximum over the columns takes the row max in the same order
    # as logits.max(axis=1), and is faster on a few columns
    top = np.maximum(logits[:, 0], logits[:, 1])
    for j in range(2, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    shifted = logits - top[:, None]
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(len(labels)), labels].mean())
    return loss, logp, logits


def forward_loss(model: Mlp, inputs: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, logits)."""
    loss, _, logits = _cross_entropy(model, inputs, labels)
    return loss, logits


def loss_and_grad(model: Mlp, inputs: np.ndarray, labels: np.ndarray):
    """One forward/backward pass; returns (loss, flat gradient, logits)."""
    loss, logp, logits = _cross_entropy(model, inputs, labels)
    n = inputs.shape[0]

    delta = np.exp(logp)
    delta[np.arange(n), labels] -= 1.0
    delta /= n

    grads_w, grads_b = model._grad_views
    acts, deltas = model._workspace(n)
    layer_inputs = [inputs] + acts
    for i in range(len(model.weights) - 1, -1, -1):
        a = layer_inputs[i]
        np.matmul(a.T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = np.matmul(delta, model.weights[i].T, out=deltas[i - 1])
            # a is no longer needed, so it becomes the activation derivative
            if model.spec.activation == "tanh":
                np.square(a, out=a)
                np.subtract(1.0, a, out=a)
            else:
                # relu(z) > 0 exactly where z > 0; the mask is 1.0 or 0.0
                np.greater(a, 0.0, out=a)
            np.multiply(delta, a, out=delta)
    return loss, model._grad.copy(), logits


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))


def accuracy(model: Mlp, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions (lowest index wins ties)."""
    return _accuracy(model.logits(inputs), labels)


# ---------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class Dataset:
    """The two parts of an 80/20 split: float64 inputs and int64 labels of each."""

    x_train: np.ndarray  # (N_train, d)
    y_train: np.ndarray  # (N_train,)
    x_test: np.ndarray  # (N_test, d)
    y_test: np.ndarray  # (N_test,)
    classes: int


def train_size(n: int) -> int:
    """Number of the ``n`` examples in the 80/20 split's train part."""
    return int(round(0.8 * n))


def make_blobs(
    classes: int,
    per_class: int,
    spread: float,
    seed: int,
    n_features: int = 20,
) -> Dataset:
    """Gaussian class clusters on a circle of radius 3*spread.

    Cluster centers live in the first two feature dimensions; every
    dimension carries Gaussian noise with scale spread/3, so classes are
    cleanly separable at any spread and the difficulty of downstream
    experiments comes from injected label noise.  The train/test split is
    a seeded 80/20 shuffle.
    """
    if classes < 2:
        raise ContractViolationError("need at least 2 classes")
    if per_class < 1:
        raise ContractViolationError("per_class must be >= 1")
    if spread <= 0:
        raise ContractViolationError("spread must be > 0")
    if n_features < 2:  # the centres sit in features 0 and 1
        raise ContractViolationError("n_features must be >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    n = classes * per_class
    inputs = rng.normal(0.0, spread / 3.0, size=(n, n_features))
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    angles = 2.0 * np.pi * labels / classes
    inputs[:, 0] += 3.0 * spread * np.cos(angles)
    inputs[:, 1] += 3.0 * spread * np.sin(angles)
    perm = rng.permutation(n)
    train, test = np.split(perm, [train_size(n)])
    return Dataset(inputs[train], labels[train], inputs[test], labels[test], classes)


def inject_label_noise(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip exactly round(rate * N_train) train labels to a different class."""
    if not (0 <= rate < 1):
        raise ContractViolationError("noise rate must lie in [0, 1)")
    if rate == 0:
        return ds
    rng = np.random.Generator(np.random.PCG64(seed))
    n_flip = int(round(rate * len(ds.y_train)))
    victims = rng.choice(len(ds.y_train), size=n_flip, replace=False)
    labels = ds.y_train.copy()
    for idx in victims:
        # uniform over the other classes
        new = int(rng.integers(0, ds.classes - 1))
        if new >= labels[idx]:
            new += 1
        labels[idx] = new
    return replace(ds, y_train=labels)


# ---------------------------------------------------------------------------
# Training


def steps_per_epoch(n_train: int, batch_size: int) -> int:
    return -(-n_train // batch_size)


def train_classifier(
    spec: MlpSpec,
    dataset: Dataset,
    optimizer: OptimizerParams,
    sched: LrSchedule,
    epochs: int,
    batch_size: int,
    seed: int,
):
    """Seeded minibatch training; returns (model, metrics), metrics as columns.

    The optimizer is stepped once per batch with the schedule multiplier
    evaluated at the number of completed steps.  ``metrics`` maps ``epoch``
    and each split's loss and accuracy to an array filled as each epoch ends.
    A non-finite pass raises ``NonFiniteError`` naming its epoch, batch or split, and step.
    """
    if epochs < 1:
        raise ContractViolationError("epochs must be >= 1")
    if batch_size < 1:
        raise ContractViolationError("batch_size must be >= 1")
    model = Mlp(spec)
    (opt,) = build_lanes(optimizer, model.num_params)
    rng = np.random.Generator(np.random.PCG64(seed))
    x_train, y_train = dataset.x_train, dataset.y_train
    splits = (("train", x_train, y_train), ("test", dataset.x_test, dataset.y_test))
    columns = ("train_loss", "train_acc", "test_loss", "test_acc")
    metrics = {"epoch": np.arange(1, epochs + 1), **{key: np.empty(epochs) for key in columns}}
    step = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the checks report divergence
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(y_train))
            try:
                for lo in range(0, len(order), batch_size):
                    where, batch = f"batch {lo // batch_size}", order[lo : lo + batch_size]
                    step += 1
                    _, grad, _ = loss_and_grad(model, x_train[batch], y_train[batch])
                    opt.step(model._flat, grad, schedule_multiplier(sched, step - 1))
                    if opt.errors[0]:
                        raise opt.errors[0]
                for split, x, y in splits:
                    where = f"evaluating the {split} split"
                    loss, logits = forward_loss(model, x, y)
                    metrics[f"{split}_loss"][epoch - 1] = loss
                    metrics[f"{split}_acc"][epoch - 1] = _accuracy(logits, y)
            except NonFiniteError as err:
                message = f"training diverged at epoch {epoch}, {where}"
                raise NonFiniteError(message, step=step) from err
    return model, metrics
