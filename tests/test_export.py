"""The CSV and JSON writers against per-cell repr / json oracles, byte for byte.

The writers format rows in blocks of export.BLOCK_ROWS and each distinct bit
pattern of a block once; the edge cases sit on and across block boundaries.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import lyapunov_columns, naive_csv, naive_json, trajectory_columns

from scqsim import export, floattext
from scqsim.core import normalize_state
from scqsim.evolution import TimeGrid, propagate_static
from scqsim.hamiltonians import build_exact_two_level, build_fock, default_params
from scqsim.lyapunov import BilinearParams, Gains, simulate_closed_loop

PSI0 = normalize_state([0.6, 0.8j])
R0 = np.array([0.4444444444444444, -0.8888888888888889, -0.1111111111111111])


def csv_text(header, columns):
    stream = io.StringIO()
    export._write_csv(header, columns, stream)
    return stream.getvalue()


def json_text(data):
    stream = io.StringIO()
    export.dump_json(data, stream)
    return stream.getvalue()


class TestTrajectoryJson:
    def test_two_level_run(self):
        traj = propagate_static(build_exact_two_level(default_params("charge")), PSI0,
                                TimeGrid(0.0, 1e-14, 700))
        text = json_text(export.trajectory_to_dict(traj))
        assert text == naive_json(dict(zip(*trajectory_columns(traj))))

    def test_fock_run_with_leakage_column(self):
        psi0 = np.zeros(8, dtype=complex)
        psi0[:2] = PSI0
        traj = propagate_static(build_fock(default_params("charge"), 8), psi0,
                                TimeGrid(0.0, 1e-14, 300))
        data = export.trajectory_to_dict(traj)
        assert "leakage" in data and traj.leakage.max() > 0
        assert json_text(data) == naive_json(dict(zip(*trajectory_columns(traj))))


class TestLyapunovJson:
    @pytest.mark.parametrize("integrator, gains, grid", [
        ("fixed_rk4", Gains(2.0, 10.0), TimeGrid(0.0, 1e-3, 600)),
        ("substepped", Gains(1e4, 5e4), TimeGrid(0.0, 1e-3, 600)),  # frozen tail
    ])
    def test_run(self, integrator, gains, grid):
        run = simulate_closed_loop(R0, np.array([0.0, 0.0, 1.0]), gains,
                                   BilinearParams.from_qubit(default_params("lcjj")), grid,
                                   integrator=integrator)
        expected = dict(zip(*lyapunov_columns(run)), converged=run.converged,
                        final_error=run.final_error)
        text = json_text(export.lyapunov_to_dict(run))
        assert text == naive_json(expected)
        assert '"converged": ' in text and '"final_error": ' in text


def edge_columns():
    """Columns whose rows hit every edge of the block writer."""
    block = export.BLOCK_ROWS
    n = 2 * block + 37  # not a multiple of the block size
    values = np.random.default_rng(5).standard_normal((n, 4))
    values[block - 5:block + 6] = values[block - 5]  # a repeated run across a boundary
    values[10:12] = values[9]
    values[10, 0], values[11, 0] = 0.0, -0.0  # rows that differ only in the sign of zero
    values[20:30, 2] = values[20:30, 1]  # equal bits across columns
    values[40] = 0.5
    values[50] = [np.nan, np.inf, -np.inf, -np.nan]
    values[51] = values[50]  # a repeated non-finite row
    times = np.arange(n) * 0.1
    times[0] = -0.0
    return ["t", "a", "b", "c", "d"], [times, *values.T]


class TestBlockEdges:
    def test_csv(self):
        header, columns = edge_columns()
        text = csv_text(header, columns)
        assert text == naive_csv(header, columns)
        lines = text.splitlines()[1:]
        block = export.BLOCK_ROWS
        run = {line.split(",", 1)[1] for line in lines[block - 5:block + 6]}
        assert len(run) == 1
        assert lines[10].split(",")[1:3] == ["0.0", lines[9].split(",")[2]]
        assert lines[11].split(",")[1] == "-0.0"
        assert lines[51] == "5.1000000000000005,nan,inf,-inf,nan"

    def test_json(self):
        data = dict(zip(*edge_columns()))
        text = json_text(data)
        assert text == naive_json(data)
        for cell in ("NaN", "Infinity", "-Infinity", "-0.0"):
            assert f"\n    {cell},\n" in text

    def test_plain_values_follow_json(self):
        data = {"b": {"z": [1.5, -0.0], "a": {}}, "a": [], "c": True, "d": None,
                "e": "x\ny", "f": float("nan"), "g": np.array([1.0, -np.inf]), "h": []}
        assert json_text(data) == naive_json(data)
        assert json_text({}) == naive_json({}) == "{}\n"
        assert json_text({"t": np.array([])}) == naive_json({"t": np.array([])})

    @pytest.mark.parametrize("array", [np.array([3, 1, 2]), np.array([True, False]),
                                       np.zeros((2, 2)), np.array([1.5], dtype=np.float32)])
    def test_other_arrays_are_refused_as_json_refuses_them(self, array):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"a": array})


cells = st.one_of(st.floats(width=64),
                  st.sampled_from([0.0, -0.0, 1.0, np.nan, -np.nan, np.inf, -np.inf]))


@settings(max_examples=150)
@given(data=st.data(), width=st.integers(1, 4),
       block=st.sampled_from([1, 2, 3, 5, export.BLOCK_ROWS]), sort_times=st.booleans())
def test_random_arrays_match_naive_writers(data, width, block, sort_times):
    pool = data.draw(hnp.arrays(np.float64, (3, width), elements=cells))
    picks = data.draw(st.lists(st.integers(0, 2), max_size=30))  # repeats are frequent
    times = data.draw(hnp.arrays(np.float64, len(picks), elements=cells))
    if sort_times:  # mostly strictly increasing, like a time grid
        times = np.sort(times)
    header = ["t"] + [f"c{k}" for k in range(width)]
    columns = [times, *pool[picks].T]
    with mock.patch.object(export, "BLOCK_ROWS", block):
        assert csv_text(header, columns) == naive_csv(header, columns)
        data_dict = dict(zip(header, columns))
        assert json_text(data_dict) == naive_json(data_dict)


def float_texts(values, json_style=False):
    """The formatter's text of each cell of a 1-D float64 array, as a list."""
    words = floattext.cell_words(np.asarray(values, dtype=np.float64), json_style)
    words[:, 0] |= ord("\n")
    return floattext.text(words).split("\n")[1:]


def repr_texts(values, json_style=False):
    texts = [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]
    if json_style:
        spelled = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
        texts = [spelled.get(t, t) for t in texts]
    return texts


def assert_repr_identical(values, json_style=False):
    got, want = float_texts(values, json_style), repr_texts(values, json_style)
    assert len(got) == len(want)
    mismatches = [(w, g) for w, g in zip(want, got) if w != g]
    assert not mismatches, mismatches[:10]


def bit_patterns(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestFloatText:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20201127)
        for chunk in range(8):  # 8 * 2**17 > 10**6 patterns
            bits = bit_patterns(rng.integers(0, 2**64, 2**17, dtype=np.uint64))
            assert_repr_identical(bits, json_style=chunk == 0)

    def test_scaled_normals(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(2**16) * 10.0 ** rng.integers(-40, 40, 2**16)
        narrow = rng.standard_normal(2**12).astype(np.float32)
        assert_repr_identical(np.concatenate([values, np.round(values, 3), narrow]))

    def test_lowest_and_highest_mantissa_of_every_binade(self):
        exponents = np.arange(2047, dtype=np.uint64) << np.uint64(52)
        mantissas = np.array([0, 1, 2, 3, 2**51, 2**52 - 3, 2**52 - 2, 2**52 - 1], dtype=np.uint64)
        bits = (exponents[:, None] | mantissas).ravel()
        for json_style in (False, True):
            assert_repr_identical(bit_patterns(np.concatenate([bits, bits | np.uint64(2**63)])),
                                  json_style)

    def test_subnormals(self):
        smallest = bit_patterns(np.arange(1, 2**17, dtype=np.uint64))  # exhaustive from 5e-324
        largest = bit_patterns(2**52 - np.arange(1, 2**12, dtype=np.uint64))
        assert_repr_identical(np.concatenate([smallest, largest, -smallest[:100]]))
        named = [5e-324, 1e-323, 1.5e-323, 5e-323, 1e-322, 2.225073858507201e-308,
                 2.2250738585072014e-308]
        assert float_texts(named) == ["5e-324", "1e-323", "1.5e-323", "5e-323", "1e-322",
                                      "2.225073858507201e-308", "2.2250738585072014e-308"]

    def test_powers_of_two_and_ten(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        neighbours = [np.nextafter(tens, np.inf), np.nextafter(tens, 0.0)]
        assert_repr_identical(np.concatenate([twos, tens, *neighbours]))
        assert float_texts([1e22, 1e23, 2.0**53, 2.0**63]) == [
            "1e+22", "1e+23", "9007199254740992.0", "9.223372036854776e+18"]

    def test_layout_switch_points(self):
        values = [1e-5, 1e-4, 1e15, 1e16, 1234567890123456.0, 12345678901234567.0,
                  0.00012345678901234567, 9999999999999998.0, 0.1, 1.0, 100.0, 123.456]
        neighbours = [np.nextafter(values, np.inf), np.nextafter(values, 0.0)]
        assert_repr_identical(np.concatenate([values, *neighbours]))
        assert float_texts(values[:6]) == ["1e-05", "0.0001", "1000000000000000.0", "1e+16",
                                           "1234567890123456.0", "1.2345678901234568e+16"]

    def test_zeros_and_non_finite_cells(self):
        values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
        assert float_texts(values) == ["0.0", "-0.0", "nan", "nan", "inf", "-inf"]
        assert float_texts(values, json_style=True) == [
            "0.0", "-0.0", "NaN", "NaN", "Infinity", "-Infinity"]
        payloads = bit_patterns([0x7FF0_0000_0000_0001, 0xFFF8_0000_0000_0000,
                                 0x7FFF_FFFF_FFFF_FFFF])
        assert float_texts(payloads) == ["nan"] * 3

    def test_shape_and_separator_slot(self):
        values = np.arange(6.0).reshape(2, 3)
        words = floattext.cell_words(values)
        assert words.shape == (2, 3, 4)
        assert not (words[..., 0] & 0xFF).any()

    @settings(max_examples=200)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=50),
           st.lists(st.integers(0, 2**64 - 1), max_size=50))
    def test_hypothesis_against_repr(self, floats, bits):
        for json_style in (False, True):
            assert_repr_identical(np.concatenate([floats, bit_patterns(bits)]), json_style)


def test_repeated_rows_span_several_blocks():
    n = 40
    values = np.random.default_rng(7).standard_normal((n, 3))
    values[5:] = values[5]  # a frozen tail of many blocks' length
    values[30] = -values[30]
    header, columns = ["t", "a", "b", "c"], [np.arange(n) * 1e-3, *values.T]
    with mock.patch.object(export, "BLOCK_ROWS", 2):
        assert csv_text(header, columns) == naive_csv(header, columns)
