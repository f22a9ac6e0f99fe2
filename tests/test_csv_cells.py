"""The CSV writer's vectorized "%.17g" kernel, against Python's "%" as the oracle."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lplimits import cli

# Cells outside the kernel's fixed-notation range, which "%" formats.
FALLBACK = (np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308, 2.2250738585072009e-308,
            9.9999999999999991e-05, -1e-300, 1e16, -1e17, 1.7976931348623157e308)


def oracle(values):
    return ["%.17g" % v for v in np.asarray(values, float).tolist()]


def kernel(values):
    cells = cli._g17_cells(np.asarray(values, float))
    assert cells.shape == (len(values), cli._CELL) and cells.dtype == np.uint8
    return [bytes(cell).replace(b"\0", b"").decode("ascii") for cell in cells]


def mismatches(values):
    values = np.asarray(values, float)
    return [(v, got, want) for v, got, want in zip(values.tolist(), kernel(values), oracle(values))
            if got != want]


def in_fixed_range(values):
    mag = np.abs(values)
    return (mag >= 1e-4) & (mag < 1e16)


def edge_values():
    """Powers of ten and their neighbours, the range ends, dyadic ties, signed zeros."""
    powers = 10.0 ** np.arange(-4, 17)
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    ends = np.array([1e-4, 1e16])
    ties = (2.0**50 + np.arange(64)[:, None] + [0.25, 0.5, 0.75]).ravel()
    values = np.concatenate([powers, below, above, np.nextafter(below, 0), ends,
                             np.nextafter(ends, 0), np.nextafter(ends, np.inf), ties, [0.0]])
    return np.concatenate([values, -values])


def fuzzed_fixed_cells(rng, n):
    """n cells in [1e-4, 1e16) of four kinds: bit patterns, short decimals, ulps of 10**k, ties."""
    quarter = n // 4
    exponents = rng.integers(-14, 54, quarter)  # binary exponents of 1e-4 .. 1e16
    bits = np.ldexp(1.0 + rng.integers(0, 2**52, quarter) / 2.0**52, exponents)
    decimals = (rng.integers(1, 10**6, quarter) * 10.0 ** rng.integers(-4, 10, quarter)
                / 10.0 ** rng.integers(0, 6, quarter))
    powers = 10.0 ** rng.integers(-3, 16, quarter)
    ulps = powers + rng.integers(-8, 9, quarter) * np.spacing(powers)
    dyadic = 2.0 ** rng.integers(36, 53, n - 3 * quarter)
    ties = dyadic + rng.integers(0, 2**10, len(dyadic)) + rng.integers(0, 8, len(dyadic)) / 8.0
    values = np.concatenate([bits, decimals, ulps, ties])
    values = values[in_fixed_range(values)]
    return values * rng.choice([-1.0, 1.0], len(values))


class TestKernel:
    def test_fuzzed_fixed_cells_match_percent(self):
        rng = np.random.default_rng(15)
        values = fuzzed_fixed_cells(rng, 240_000)
        assert len(values) >= 200_000 and in_fixed_range(values).all()
        started = time.perf_counter()
        bad = [m for chunk in np.array_split(values, 16) for m in mismatches(chunk)]
        assert bad == []
        assert time.perf_counter() - started < 5.0

    def test_edge_values_match_percent(self):
        assert mismatches(edge_values()) == []

    def test_fallback_cells_match_percent(self):
        values = np.array(FALLBACK)
        assert not in_fixed_range(values).any()
        assert mismatches(np.concatenate([values, -values, [0.5, -0.0]])) == []

    def test_no_value_rounds_up_to_the_next_power_of_ten(self):
        # 17 digits never carry: just below 10**k the 17-digit string keeps k digits.
        below = np.nextafter(10.0 ** np.arange(-3, 17), 0)
        assert all("e" not in cell and not cell.startswith("1") for cell in kernel(below))
        assert mismatches(below) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(1e-4, 1e16, exclude_max=True),
                              st.floats(-1e16, -1e-4, exclude_min=True),
                              st.sampled_from((0.0, -0.0) + FALLBACK)), min_size=1, max_size=64))
    def test_mostly_fixed_cells_match_percent(self, values):
        assert mismatches(values) == []


def csv_text(header, rows):
    rows = np.atleast_2d(rows)
    return ",".join(header) + "\n" + "".join(",".join(oracle(row)) + "\n" for row in rows)


def fixed_column(rng, n):
    return rng.standard_normal(n) * 10.0 ** rng.integers(-4, 16, n)


# Column layouts: "c" is a bit-constant column, "v" a varying one.
LAYOUTS = ["v", "cv", "vc", "cvc", "ccvcvcc", "vccv", "vv", "c", "ccc"]


class TestSlotLayout:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [1, 2, cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
    def test_rows_match_percent(self, tmp_path, layout, n):
        rng = np.random.default_rng([len(layout), n])
        constants = iter((0.0, -0.0, 0.5, np.nan, -1e-300, 123456789.0, 5e-324))
        rows = np.column_stack([
            np.full(n, next(constants)) if kind == "c" else fixed_column(rng, n) for kind in layout
        ])
        header = [f"{kind}{j}" for j, kind in enumerate(layout)]
        path = tmp_path / "rows.csv"
        cli._write_csv(path, header, rows)
        assert path.read_text() == csv_text(header, rows)

    def test_signed_zeros_and_fallback_cells_in_varying_columns(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = fixed_column(rng, 3 * 700).reshape(700, 3)
        rows[::3, 0] = -0.0
        rows[1::5, 0] = 0.0
        rows[::7, 1] = rng.choice(FALLBACK, len(rows[::7, 1]))
        rows[:, 2] = rng.choice(edge_values(), 700)
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["a", "b", "c"], rows)
        assert path.read_text() == csv_text(["a", "b", "c"], rows)


CELLS = cli._CSV_CELLS  # the varying cells one write formats at most


@pytest.fixture
def kernel_calls(monkeypatch):
    """The number of cells each _g17_cells call of the CSV writer receives."""
    calls = []
    real = cli._g17_cells

    def spy(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(cli, "_g17_cells", spy)
    return calls


class TestCellBudget:
    @pytest.mark.parametrize("n, calls", [
        (CELLS - 1, [CELLS - 1]), (CELLS, [CELLS]), (CELLS + 1, [CELLS, 1]),
    ])
    def test_one_varying_column_takes_the_whole_budget(self, tmp_path, kernel_calls, n, calls):
        rng = np.random.default_rng([1, n])
        rows = np.column_stack([np.full(n, 0.5), fixed_column(rng, n), np.full(n, -0.0)])
        path = tmp_path / "rows.csv"
        cli._write_csv(path, ["a", "b", "c"], rows)
        assert kernel_calls == calls
        assert path.read_text() == csv_text(["a", "b", "c"], rows)

    def test_all_columns_varying(self, tmp_path, kernel_calls):
        rng = np.random.default_rng(7)
        step = CELLS // 7  # rows per write
        rows = fixed_column(rng, 7 * (2 * step + 3)).reshape(-1, 7)
        rows[::5, 3] = rng.choice(FALLBACK, len(rows[::5, 3]))
        path = tmp_path / "rows.csv"
        cli._write_csv(path, [f"c{j}" for j in range(7)], rows)
        assert kernel_calls == [7 * step, 7 * step, 7 * 3]
        assert path.read_text() == csv_text([f"c{j}" for j in range(7)], rows)

    def test_more_varying_columns_than_cells_gives_one_row_blocks(self, tmp_path, kernel_calls):
        rng = np.random.default_rng(8)
        width = CELLS + 3
        rows = fixed_column(rng, 3 * width).reshape(3, width)
        rows[:, 1] = 0.25  # one constant column among them
        header = [f"c{j}" for j in range(width)]
        path = tmp_path / "rows.csv"
        cli._write_csv(path, header, rows)
        assert kernel_calls == [width - 1] * 3
        assert path.read_text() == csv_text(header, rows)

    def test_peak_memory_of_a_wide_write_is_bounded_by_cells(self, tmp_path):
        # 16 varying columns: 1,024-row blocks peaked at 4.3 MiB, 384-row blocks peak at 1.02 MiB
        rows = np.random.default_rng(5).standard_normal((20_000, 16))
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "big.csv", [f"c{j}" for j in range(16)], rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 2**20
