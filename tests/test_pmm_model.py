"""Tests for the PMM model: forward, loss, prediction, learnability."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graphs import AsmVocab, GraphEncoder, build_query_graph
from repro.kernel import Executor
from repro.pmm import PMM, PMMConfig
from repro.pmm.asm_encoder import AsmEncoder
from repro.rng import make_rng
from repro.syzlang import ProgramGenerator


@pytest.fixture(scope="module")
def encoder_setup(kernel):
    vocab = AsmVocab.build(kernel)
    encoder = GraphEncoder(vocab, kernel.table)
    return vocab, encoder


@pytest.fixture(scope="module")
def model(kernel, encoder_setup):
    vocab, encoder = encoder_setup
    return PMM(
        len(vocab), encoder.num_syscalls,
        PMMConfig(dim=16, gnn_layers=2, asm_layers=1, asm_heads=2, seed=1),
    )


def encode_query(kernel, encoder, seed=0, labels=None):
    generator = ProgramGenerator(kernel.table, make_rng(seed))
    executor = Executor(kernel)
    program = generator.random_program()
    coverage = executor.run(program).coverage
    frontier = sorted(kernel.frontier(coverage.blocks))
    targets = set(frontier[:3])
    graph = build_query_graph(program, coverage, kernel, targets)
    if labels == "first-site":
        labels = {program.mutation_sites()[0]: True}
    return program, encoder.encode(graph, labels=labels)


class TestForward:
    def test_logit_count_matches_mutable_args(
        self, kernel, encoder_setup, model
    ):
        _, encoder = encoder_setup
        program, encoded = encode_query(kernel, encoder)
        logits = model.forward(encoded)
        assert logits.shape == (int(encoded.arg_mask.sum()),)

    def test_forward_deterministic(self, kernel, encoder_setup, model):
        _, encoder = encoder_setup
        _, encoded = encode_query(kernel, encoder)
        a = model.forward(encoded).data
        b = model.forward(encoded).data
        assert np.allclose(a, b)

    def test_predict_paths_never_empty(self, kernel, encoder_setup, model):
        _, encoder = encoder_setup
        program, encoded = encode_query(kernel, encoder)
        paths = model.predict_paths(encoded, threshold=0.999999)
        assert len(paths) >= 1  # argmax fallback

    def test_predicted_paths_are_sites(self, kernel, encoder_setup, model):
        _, encoder = encoder_setup
        program, encoded = encode_query(kernel, encoder)
        predicted = model.predict_paths(encoded, threshold=0.0)
        assert set(predicted) <= set(program.mutation_sites())

    def test_loss_requires_labels(self, kernel, encoder_setup, model):
        _, encoder = encoder_setup
        _, encoded = encode_query(kernel, encoder)
        with pytest.raises(ModelError):
            model.loss(encoded)

    def test_loss_finite(self, kernel, encoder_setup, model):
        _, encoder = encoder_setup
        _, encoded = encode_query(kernel, encoder, labels="first-site")
        loss = model.loss(encoded)
        assert np.isfinite(loss.item())

    def test_gradients_reach_all_components(
        self, kernel, encoder_setup, model
    ):
        _, encoder = encoder_setup
        _, encoded = encode_query(kernel, encoder, labels="first-site")
        model.zero_grad()
        model.loss(encoded).backward()
        with_grad = sum(
            1 for p in model.parameters() if p.grad is not None
        )
        # Every component should participate except possibly unused
        # relation weights.
        assert with_grad > 0.5 * len(model.parameters())
        # The whole assembly encoder trains end to end: the training
        # path never takes the fuzz-time block-embedding cache.
        assert all(
            parameter.grad is not None
            for parameter in model.asm_encoder.parameters()
        )


class TestWeightTying:
    def test_slot_vectors_use_asm_token_table(self, kernel, encoder_setup):
        vocab, encoder = encoder_setup
        model = PMM(len(vocab), encoder.num_syscalls,
                    PMMConfig(dim=16, asm_layers=1, asm_heads=2, seed=2))
        slots = np.array([1, 5])
        vecs = model._slot_vectors(slots).data
        table = model.asm_encoder.token_embedding.table.data
        # stored slot s maps to vocab row s + 2 (off_<s-1> at 3+(s-1)).
        assert np.allclose(vecs[0], table[3])
        assert np.allclose(vecs[1], table[7])

    def test_dim_mismatch_rejected(self, kernel, encoder_setup):
        vocab, encoder = encoder_setup
        wrong = AsmEncoder(len(vocab), dim=8, heads=2, layers=1,
                           rng=make_rng(0))
        with pytest.raises(ModelError):
            PMM(len(vocab), encoder.num_syscalls,
                PMMConfig(dim=16), asm_encoder=wrong)


class TestLearnability:
    def test_overfits_single_example(self, kernel, encoder_setup):
        """Sanity: the model can drive loss near zero on one example."""
        from repro.nn.optim import Adam

        vocab, encoder = encoder_setup
        model = PMM(len(vocab), encoder.num_syscalls,
                    PMMConfig(dim=16, gnn_layers=2, asm_layers=1,
                              asm_heads=2, seed=3))
        _, encoded = encode_query(kernel, encoder, labels="first-site")
        optimizer = Adam(model.parameters(), lr=5e-3)
        first = model.loss(encoded).item()
        for _ in range(30):
            optimizer.zero_grad()
            loss = model.loss(encoded)
            loss.backward()
            optimizer.step()
        assert loss.item() < first * 0.25

    def test_target_marker_changes_prediction(
        self, kernel, encoder_setup, model
    ):
        """Moving the target must be able to change the logits: the
        query is target-conditioned."""
        _, encoder = encoder_setup
        generator = ProgramGenerator(kernel.table, make_rng(7))
        executor = Executor(kernel)
        program = generator.random_program()
        coverage = executor.run(program).coverage
        frontier = sorted(kernel.frontier(coverage.blocks))
        # The seeded program is chosen so its frontier always has at
        # least two targets; a shrink here is a real regression, not a
        # reason to skip.
        assert len(frontier) >= 2
        graph_a = build_query_graph(program, coverage, kernel, {frontier[0]})
        graph_b = build_query_graph(program, coverage, kernel, {frontier[-1]})
        logits_a = model.forward(encoder.encode(graph_a)).data
        logits_b = model.forward(encoder.encode(graph_b)).data
        assert not np.allclose(logits_a, logits_b)


class TestPretraining:
    def test_masked_lm_reduces_loss(self, kernel, encoder_setup):
        from repro.pmm.pretrain import PretrainConfig, masked_lm_pretrain

        vocab, _ = encoder_setup
        encoder = AsmEncoder(len(vocab), dim=16, heads=2, layers=1,
                             rng=make_rng(4))
        losses = masked_lm_pretrain(
            encoder, kernel, vocab,
            PretrainConfig(steps=40, batch_size=16, seed=5),
        )
        assert len(losses) > 10
        first = np.mean(losses[:5])
        last = np.mean(losses[-5:])
        assert last < first
