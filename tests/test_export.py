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

from scqsim import export
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
