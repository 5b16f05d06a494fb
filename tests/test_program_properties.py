"""Hypothesis property tests on core program invariants."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rng import make_rng
from repro.syzlang import ProgramGenerator, build_standard_table


def _program(seed, table):
    return ProgramGenerator(table, make_rng(seed)).random_program()


class TestStructuralInvariants:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000), removals=st.integers(1, 3))
    def test_removal_sequence_keeps_validity(self, table, seed, removals):
        """Property: any sequence of call removals leaves the program
        valid (dangling resources become NULL, indices shift)."""
        rng = make_rng(seed)
        program = _program(seed, table)
        for _ in range(removals):
            if len(program) <= 1:
                break
            program.remove_call(int(rng.integers(len(program))))
        program.validate(table)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_insertion_keeps_validity(self, table, seed):
        rng = make_rng(seed)
        generator = ProgramGenerator(table, rng)
        program = generator.random_program()
        spec = table.specs[int(rng.integers(len(table.specs)))]
        position = int(rng.integers(0, len(program) + 1))
        call = generator.random_call(spec, {})
        program.insert_call(position, call)
        program.validate(table)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_mutation_sites_resolve(self, table, seed):
        """Property: every enumerated mutation site resolves via get()
        to a mutable leaf."""
        program = _program(seed, table)
        for path in program.mutation_sites():
            value = program.get(path)
            assert value.ty.is_mutable()

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 50_000))
    def test_clone_preserves_sites_and_serialization(self, table, seed):
        from repro.syzlang import serialize_program

        program = _program(seed, table)
        clone = program.clone()
        assert serialize_program(clone) == serialize_program(program)
        assert [p.elements for p in clone.mutation_sites()] == [
            p.elements for p in program.mutation_sites()
        ]
