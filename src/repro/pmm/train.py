"""PMM training (§3.3/§5.1).

Minimises the binary cross-entropy between predicted and ground-truth
argument selections with Adam, accumulating gradients over small graph
batches.  Validation F1 guides model selection, exactly as the paper's
hyperparameter search does; the trainer keeps the best-F1 checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.graphs.encode import GraphEncoder
from repro.kernel.build import Kernel
from repro.nn.optim import Adam
from repro.pmm.dataset import MutationDataset, MutationExample
from repro.pmm.metrics import SelectorMetrics, evaluate_selector
from repro.pmm.model import PMM
from repro.rng import split

__all__ = ["TrainConfig", "Trainer"]


# Adam step size.
LEARNING_RATE = 2e-3
# Decision thresholds the validation-F1 calibration tries.
CALIBRATION_THRESHOLDS = (0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7)


@dataclass
class TrainConfig:
    epochs: int = 4
    batch_size: int = 8
    # Cap per-epoch examples to bound wall time; 0 = use everything.
    max_examples_per_epoch: int = 0
    # Validation subset size for per-epoch F1 (0 = all).
    max_validation_examples: int = 500
    seed: int = 0


@dataclass
class EpochReport:
    epoch: int
    mean_loss: float
    validation: SelectorMetrics | None


@dataclass
class Trainer:
    """Trains a PMM on a mutation dataset."""

    model: PMM
    dataset: MutationDataset
    kernel: Kernel
    encoder: GraphEncoder
    config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        if not self.dataset.train:
            raise ModelError("dataset has no training examples")
        self._optimizer = Adam(self.model.parameters(), lr=LEARNING_RATE)
        self._best_f1 = -1.0
        self._best_state: list[np.ndarray] | None = None
        self.reports: list[EpochReport] = []

    def train(self) -> list[EpochReport]:
        """Run all epochs; restores the best-validation-F1 weights."""
        rng = split(self.config.seed, "trainer")
        for epoch in range(self.config.epochs):
            examples = list(self.dataset.train)
            order = rng.permutation(len(examples))
            if self.config.max_examples_per_epoch:
                order = order[: self.config.max_examples_per_epoch]
            losses = self._run_epoch([examples[int(i)] for i in order])
            validation = self._validate(rng)
            self.reports.append(
                EpochReport(
                    epoch=epoch,
                    mean_loss=float(np.mean(losses)) if losses else 0.0,
                    validation=validation,
                )
            )
            if validation is not None and validation.f1 > self._best_f1:
                self._best_f1 = validation.f1
                self._best_state = [
                    array.copy() for array in self.model.state_arrays()
                ]
        if self._best_state is not None:
            self.model.load_state_arrays(self._best_state)
        self.calibrate_threshold()
        return self.reports

    def calibrate_threshold(self) -> float:
        """Pick the decision threshold maximising validation F1.

        Logits are computed once per validation example and reused for
        every candidate threshold.
        """
        import numpy as np
        from repro.nn.tensor import no_grad
        from repro.pmm.metrics import score_sets

        examples = self.dataset.validation[: self.config.max_validation_examples or None]
        if not examples:
            return self.model.decision_threshold
        cached = []
        for example in examples:
            encoded = self.dataset.encode_example(
                example, self.kernel, self.encoder
            )
            with no_grad():
                logits = self.model.forward(encoded)
            probabilities = 1.0 / (1.0 + np.exp(-logits.data))
            arg_rows = np.flatnonzero(encoded.arg_mask)
            paths = [encoded.arg_paths[row] for row in arg_rows]
            cached.append((probabilities, paths, set(example.labels)))
        best_threshold = self.model.decision_threshold
        best_f1 = -1.0
        for threshold in CALIBRATION_THRESHOLDS:
            f1_sum = 0.0
            for probabilities, paths, truth in cached:
                predicted = {
                    path for path, prob in zip(paths, probabilities)
                    if prob >= threshold and path is not None
                }
                if not predicted and paths:
                    top = int(np.argmax(probabilities))
                    if paths[top] is not None:
                        predicted = {paths[top]}
                _, _, f1, _ = score_sets(predicted, truth)
                f1_sum += f1
            mean_f1 = f1_sum / len(cached)
            if mean_f1 > best_f1:
                best_f1 = mean_f1
                best_threshold = threshold
        self.model.decision_threshold = best_threshold
        return best_threshold

    def _run_epoch(self, examples: list[MutationExample]) -> list[float]:
        losses: list[float] = []
        batch: list[MutationExample] = []
        for example in examples:
            batch.append(example)
            if len(batch) >= self.config.batch_size:
                losses.append(self._step(batch))
                batch = []
        if batch:
            losses.append(self._step(batch))
        return losses

    def _step(self, batch: list[MutationExample]) -> float:
        self._optimizer.zero_grad()
        total = 0.0
        scale = 1.0 / len(batch)
        for example in batch:
            encoded = self.dataset.encode_example(
                example, self.kernel, self.encoder
            )
            loss = self.model.loss(encoded) * scale
            loss.backward()
            total += loss.item()
        self._optimizer.step()
        return total

    def _validate(self, rng: np.random.Generator) -> SelectorMetrics | None:
        examples = self.dataset.validation
        if not examples:
            return None
        limit = self.config.max_validation_examples
        if limit and len(examples) > limit:
            picks = rng.permutation(len(examples))[:limit]
            examples = [examples[int(i)] for i in picks]
        return self.evaluate(examples)

    def evaluate(self, examples: list[MutationExample]) -> SelectorMetrics:
        """Per-example metrics of the current model on ``examples``."""
        predictions: list[set] = []
        truths: list[set] = []
        for example in examples:
            encoded = self.dataset.encode_example(
                example, self.kernel, self.encoder
            )
            predicted = set(self.model.predict_paths(encoded))
            predictions.append(predicted)
            truths.append(set(example.labels))
        return evaluate_selector(predictions, truths)
