"""Tests for random program generation."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rng import make_rng
from repro.syzlang import ProgramGenerator, build_standard_table
from repro.syzlang.generator import MIN_CALLS
from repro.syzlang.program import IntValue, ResourceValue
from repro.syzlang.types import IntType


@pytest.fixture(scope="module")
def table():
    return build_standard_table("6.8")


class TestRandomProgram:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_generated_programs_validate(self, table, seed):
        generator = ProgramGenerator(table, make_rng(seed))
        program = generator.random_program()
        program.validate(table)

    def test_deterministic_given_seed(self, table):
        from repro.syzlang import serialize_program

        a = ProgramGenerator(table, make_rng(5)).random_program()
        b = ProgramGenerator(table, make_rng(5)).random_program()
        assert serialize_program(a) == serialize_program(b)

    def test_length_bounds(self, table):
        generator = ProgramGenerator(table, make_rng(0))
        for _ in range(20):
            program = generator.random_program()
            # Producers may be prepended, so only the lower bound holds
            # strictly; the upper bound is lower + producers.
            assert len(program) >= MIN_CALLS

    def test_explicit_length(self, table):
        generator = ProgramGenerator(table, make_rng(1))
        program = generator.random_program(length=1)
        assert len(program) >= 1

    def test_resources_mostly_wired(self, table):
        generator = ProgramGenerator(table, make_rng(2))
        wired = null = 0
        for _ in range(60):
            program = generator.random_program()
            for _, value in program.walk():
                if isinstance(value, ResourceValue):
                    if value.producer is None:
                        null += 1
                    else:
                        wired += 1
        assert wired > null  # resource-aware generation dominates

    def test_seed_corpus_size(self, table):
        generator = ProgramGenerator(table, make_rng(3))
        corpus = generator.seed_corpus(7)
        assert len(corpus) == 7


class TestRandomValues:
    def test_int_respects_range(self, table):
        generator = ProgramGenerator(table, make_rng(4))
        ty = IntType(bits=32, minimum=10, maximum=20)
        for _ in range(100):
            value = generator.random_value(ty, {})
            assert isinstance(value, IntValue)
            assert 10 <= value.value <= 20

    def test_int_alignment(self, table):
        generator = ProgramGenerator(table, make_rng(5))
        ty = IntType(bits=64, minimum=0, maximum=1 << 20, align=4096)
        for _ in range(50):
            value = generator.random_value(ty, {})
            assert value.value % 4096 == 0

    def test_interesting_values_sampled(self, table):
        generator = ProgramGenerator(table, make_rng(6))
        ty = IntType(bits=32, minimum=0, maximum=1 << 30,
                     interesting=(77777,))
        hits = sum(
            generator.random_value(ty, {}).value == 77777 for _ in range(300)
        )
        assert hits > 20  # ~25% expected

    def test_len_fields_consistent_after_generation(self, table):
        generator = ProgramGenerator(table, make_rng(7))
        for _ in range(20):
            program = generator.random_program()
            clone = program.clone()
            clone.resolve_len_fields()
            from repro.syzlang import serialize_program

            assert serialize_program(clone) == serialize_program(program)
