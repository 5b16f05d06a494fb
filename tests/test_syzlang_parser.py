"""Parser/serializer tests, including hypothesis round-trip properties."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ParseError, SpecError
from repro.rng import make_rng
from repro.specgen import parse_table, serialize_table
from repro.syzlang import (
    ProgramGenerator,
    build_standard_table,
    parse_program,
    serialize_program,
)


@pytest.fixture(scope="module")
def table():
    return build_standard_table("6.10")


class TestSerialize:
    def test_resource_labels(self, table):
        gen = ProgramGenerator(table, make_rng(0))
        spec = table.lookup("open")
        program_text = serialize_program(
            __import__("repro.syzlang.program", fromlist=["Program"]).Program(
                [gen.random_call(spec, {})]
            )
        )
        assert program_text.startswith("r0 = open(")

    def test_flags_render_as_names(self, table):
        from repro.syzlang.program import Call, IntValue, Program, zero_value

        spec = table.lookup("pipe2")
        call = Call(spec, [zero_value(ty) for _, ty in spec.args])
        flags = call.args[0]
        assert isinstance(flags, IntValue)
        flags.value = 0x800 | 0x80000
        text = serialize_program(Program([call]))
        assert "O_NONBLOCK|O_CLOEXEC" in text

    def test_unnamed_flag_bits_render_hex(self, table):
        from repro.syzlang.program import Call, Program, zero_value

        spec = table.lookup("pipe2")
        call = Call(spec, [zero_value(ty) for _, ty in spec.args])
        call.args[0].value = 0x12345  # includes unnamed bits
        text = serialize_program(Program([call]))
        assert "0x12345" in text


class TestParse:
    def test_simple_program(self, table):
        text = "r0 = open(&(0x7f0000000000)='./file0', O_CREAT|O_RDWR, 0x1ff)\nclose(r0)"
        program = parse_program(text, table)
        assert len(program) == 2
        assert program.calls[1].args[0].producer == 0

    def test_comments_and_blanks_skipped(self, table):
        text = "# a comment\n\nmkdir(&(0x7f0000000000)='./dir0', 0x1c0)\n"
        program = parse_program(text, table)
        assert len(program) == 1

    def test_null_resource(self, table):
        text = "close(0xffffffffffffffff)"
        program = parse_program(text, table)
        assert program.calls[0].args[0].producer is None

    def test_unknown_syscall(self, table):
        with pytest.raises(ParseError):
            parse_program("frobnicate(0x0)", table)

    def test_undefined_label(self, table):
        with pytest.raises(ParseError):
            parse_program("close(r7)", table)

    def test_wrong_const(self, table):
        # openat's dirfd is pinned to AT_FDCWD (0xffffff9c).
        with pytest.raises(ParseError):
            parse_program(
                "openat(0x5, &(0x7f0000000000)='./file0', 0x0, 0x0)", table
            )

    def test_trailing_garbage(self, table):
        with pytest.raises(ParseError):
            parse_program("close(0xffffffffffffffff) junk", table)

    def test_error_carries_line_number(self, table):
        text = "mkdir(&(0x7f0000000000)='./dir0', 0x1c0)\nnope(0x0)"
        with pytest.raises(ParseError) as excinfo:
            parse_program(text, table)
        assert excinfo.value.line == 2

    def test_label_on_non_producing_call(self, table):
        with pytest.raises(ParseError):
            parse_program("r0 = close(0xffffffffffffffff)", table)

    def test_hash_inside_text_buffer_is_data(self, table):
        text = "unlink(&(0x7f0000000000)='a#b')"
        program = parse_program(text, table)
        assert program.calls[0].args[0].pointee.data == b"a#b"
        assert serialize_program(program) == text

    def test_trailing_comment_after_call_ignored(self, table):
        text = "unlink(&(0x7f0000000000)='a#b')  # removes ./a#b 'x'\n"
        program = parse_program(text, table)
        assert serialize_program(program) == (
            "unlink(&(0x7f0000000000)='a#b')"
        )

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=16))
    def test_text_buffer_bytes_round_trip(self, table, data):
        """Property: any filename bytes — ``#``, quotes and backslashes
        included — survive serialize → parse."""
        from repro.syzlang.program import Call, Program, zero_value

        spec = table.lookup("unlink")
        call = Call(spec, [zero_value(ty) for _, ty in spec.args])
        call.args[0].pointee.data = b"#" + data
        text = serialize_program(Program([call]))
        reparsed = parse_program(text, table)
        assert reparsed.calls[0].args[0].pointee.data == b"#" + data
        assert serialize_program(reparsed) == text


class TestRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_serialize_parse_roundtrip(self, table, seed):
        """Property: serialize → parse → serialize is a fixpoint and the
        reparsed program validates."""
        generator = ProgramGenerator(table, make_rng(seed))
        program = generator.random_program()
        text = serialize_program(program)
        reparsed = parse_program(text, table)
        reparsed.validate(table)
        assert serialize_program(reparsed) == text

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_roundtrip_preserves_structure(self, table, seed):
        generator = ProgramGenerator(table, make_rng(seed))
        program = generator.random_program()
        reparsed = parse_program(serialize_program(program), table)
        assert len(reparsed) == len(program)
        for original, parsed in zip(program.calls, reparsed.calls):
            assert original.spec.full_name == parsed.spec.full_name
        assert (
            [p.elements for p in reparsed.mutation_sites()]
            == [p.elements for p in program.mutation_sites()]
        )


@contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the body once ``seconds`` have passed, so a
    parser that loops forever fails the test instead of hanging it."""

    def _expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestTruncatedInput:
    """Cut or malformed syz text raises the parser's own error, fast."""

    @pytest.mark.parametrize("text", [
        "foo",
        "close(r0",
        "r0 = io_uring_setup(0x1000",
        "pipe2(O_NOT_A_FLAG)",
        "pipe2(²)",
        "r0 = open(&(0x7f0000000000)='\\xzz', 0x0, 0x0)",
    ])
    def test_program_raises_parse_error(self, text):
        table = build_standard_table("6.8")
        with _time_limit(5.0), pytest.raises(ParseError):
            parse_program(text, table)

    @pytest.mark.parametrize("line", [
        "f(a : int[0x8",
        "f(a : ptr[sideways, int[8]]) @x",
    ])
    def test_table_raises_parse_error(self, line):
        with _time_limit(5.0), pytest.raises(ParseError):
            parse_table(line)

    @pytest.mark.parametrize("version", ["6.8", "6.9", "6.10"])
    def test_every_program_prefix(self, version):
        table = build_standard_table(version)
        generator = ProgramGenerator(table, make_rng(7))
        with _time_limit(10.0):
            for _ in range(4):
                text = serialize_program(generator.random_program())
                for cut in range(len(text)):
                    try:
                        parse_program(text[:cut], table)
                    except ParseError:
                        pass

    def test_every_table_line_prefix(self):
        seen: set[str] = set()
        with _time_limit(10.0):
            for version in ("6.8", "6.9", "6.10"):
                table = build_standard_table(version)
                lines = serialize_table(table).splitlines()
                resources = [
                    line for line in lines if line.startswith("resource ")
                ]
                for line in lines:
                    if line in seen:
                        continue
                    seen.add(line)
                    head = [kind for kind in resources if kind != line]
                    for cut in range(len(line)):
                        try:
                            parse_table("\n".join(head + [line[:cut]]))
                        except (ParseError, SpecError):
                            pass
