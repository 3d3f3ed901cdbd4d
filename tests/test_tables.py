import math

import numpy as np
import pytest

from ddqsim import tables
from ddqsim.campaign import MetricPoint, read_metrics_csv, write_metrics_csv
from ddqsim.errors import ConfigError
from ddqsim.metrology import TraceData, read_trace_csv, write_trace_csv
from ddqsim.noise_analysis import AllanCurve, write_allan_csv, write_psd_csv

TABLES = ("TRACE", "METRICS", "FREQUENCY", "ALLAN", "PSD", "SHOTS",
          "TRAJECTORIES", "CURVE")
# awkward values of each column type; every one must read back as written
FLOATS = [0.0, -0.0, 1.0 / 3.0, -2.5e-310, 5e-324, 1.7976931348623157e308,
          math.nan, math.inf, -math.inf]
INTS = [0, 7, -3, 2**62, 1, 0, 12, 99, 5]
TEXTS = ["+", "01", "", "+D", "q1", "t1l_us", "logical", "00", "x y"]
VALUES = {float: FLOATS, int: INTS, str: TEXTS}


def same(a, b) -> bool:
    """Equal values, NaN equal to NaN, and -0.0 told from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or \
            (a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return type(a) is type(b) and a == b


def rows_equal(got, want) -> bool:
    return len(got) == len(want) and all(
        len(g) == len(w) and all(map(same, g, w)) for g, w in zip(got, want))


@pytest.mark.parametrize("name", TABLES)
def test_every_table_round_trips(tmp_path, name):
    table = getattr(tables, name)
    columns = [VALUES[kind] for kind in table.values()]
    # a block of lists, then the same values as numpy arrays where they fit
    arrays = [np.array(c) if kind is not str else c
              for kind, c in zip(table.values(), columns)]
    path = tmp_path / f"{name}.csv"
    tables.write_table(path, table, [columns, arrays])
    want = list(zip(*columns)) * 2
    assert rows_equal(tables.read_table(path, table), want)


def test_lines_end_in_lf_with_floats_as_reprs_and_nan_empty(tmp_path):
    path = tmp_path / "allan.csv"
    tables.write_table(path, tables.ALLAN,
                       [([1.0, 0.1], np.array([math.nan, math.inf]))])
    assert path.read_bytes() == b"tau_s,sigma_hz\n1.0,\n0.1,inf\n"


def test_append_adds_rows_without_a_header(tmp_path):
    path = tmp_path / "m.csv"
    tables.write_table(path, tables.ALLAN, [([1.0], [2.0])])
    tables.write_table(path, tables.ALLAN, [([3.0], [4.0])], append=True)
    assert tables.read_table(path, tables.ALLAN) == [(1.0, 2.0), (3.0, 4.0)]


def test_columns_of_one_block_must_match(tmp_path):
    with pytest.raises(ValueError, match="one length"):
        tables.write_table(tmp_path / "a.csv", tables.ALLAN,
                           [([1.0, 2.0], [3.0])])
    with pytest.raises(ValueError, match="one column per"):
        tables.write_table(tmp_path / "b.csv", tables.ALLAN, [([1.0],)])


def test_a_write_that_fails_midway_leaves_the_target_as_it_was(tmp_path):
    # the first block is written before the second one is found bad
    blocks = [([1.0], [2.0]), ([3.0, 4.0], [5.0])]
    old = tmp_path / "old.csv"
    old.write_bytes(b"tau_s,sigma_hz\n9.0,8.0\n")
    for path in (old, tmp_path / "absent.csv"):
        with pytest.raises(ValueError, match="one length"):
            tables.write_table(path, tables.ALLAN, blocks)
    assert old.read_bytes() == b"tau_s,sigma_hz\n9.0,8.0\n"
    assert not (tmp_path / "absent.csv").exists()


def test_whole_files_land_through_a_tmp_name(tmp_path, monkeypatch):
    replaced = []
    monkeypatch.setattr(tables.os, "replace",
                        lambda src, dst: replaced.append((src, dst)))
    tables.write_json(tmp_path / "a.json", {"b": 1, "a": [math.nan]},
                      sort_keys=True)
    tables.write_table(tmp_path / "t.csv", tables.ALLAN, [([1.0], [2.0])])
    assert replaced == [(f"{tmp_path / name}.tmp", tmp_path / name)
                        for name in ("a.json", "t.csv")]
    assert (tmp_path / "a.json.tmp").read_text() == \
        '{\n  "a": [\n    null\n  ],\n  "b": 1\n}'


def test_crlf_line_ends_and_blank_lines_are_read(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_bytes(b"freq_hz,psd_hz2_per_hz\r\n0.5,2.0\r\n\r\n1.0,\r\n")
    got = tables.read_table(path, tables.PSD)
    assert rows_equal(got, [(0.5, 2.0), (1.0, math.nan)])


@pytest.mark.parametrize("text, line", [
    ("", 1),
    ("tau_s,sigma\n1.0,2.0\n", 1),
    ("tau_s,sigma_hz\n1.0,2.0\n1.0,x\n", 3),
    ("tau_s,sigma_hz\n1.0,2.0,3.0\n", 2),
    ("tau_s,sigma_hz\n1.0\n", 2),
    (",".join(tables.TRACE) + "\n0.0,1,2,3.5,10,+,0.0\n", 2),
], ids=["empty", "header", "field", "too-many", "too-few", "integer"])
def test_bad_header_or_field_names_path_and_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    table = tables.TRACE if text.startswith("delay_us") else tables.ALLAN
    with pytest.raises(ConfigError, match=f"bad.csv: line {line}:"):
        tables.read_table(path, table)


def test_read_appended_drops_only_a_cut_off_last_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("tau_s,sigma_hz\n1.0,2.0\n3.0,4")
    assert tables.read_appended(path, tables.ALLAN) == [(1.0, 2.0)]
    assert tables.read_table(path, tables.ALLAN) == [(1.0, 2.0), (3.0, 4.0)]
    path.write_text("tau_s,sigma_hz\n1.0,2.0\nbroken\n3.0,4.0\n5.0")
    with pytest.raises(ConfigError, match="line 3"):
        tables.read_appended(path, tables.ALLAN)


class TestModuleTables:
    """The public writers and readers keep every value."""

    def test_trace(self, tmp_path):
        delays = np.array([0.0, 7e-7, 1.0 / 3.0, 123.456789012345])
        traces = [TraceData(delays, [1, 0, 2, 3], [4, 5, 0, 1],
                            [5, 5, 8, 6], [10, 10, 10, 10],
                            init_label=label, timestamp_s=ts)
                  for label, ts in (("10", 0.1 + 0.2), ("01", 1e9 / 7))]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, traces)
        assert b"\r" not in path.read_bytes()
        back = read_trace_csv(path)
        assert [t.init_label for t in back] == ["10", "01"]
        for b, t in zip(back, traces):
            assert b.timestamp_s == t.timestamp_s
            for name in ("delays_us", "n00", "n01", "n10", "n_total"):
                assert np.array_equal(getattr(b, name), getattr(t, name))

    def test_metrics_with_nan_and_infinities_in_every_float_column(
            self, tmp_path):
        specials = (math.nan, math.inf, -math.inf)
        rows = [MetricPoint(x, "q1", "t1l_us", x, x, x) for x in specials]
        rows += [MetricPoint(100.0, "q2", metric, est, lo, hi)
                 for metric, (est, lo, hi) in zip(
                     ("a", "b", "c"), [specials, specials[::-1],
                                       (0.1, math.nan, 3e-300)])]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows[:2])
        write_metrics_csv(path, rows[2:], append=True)
        back = read_metrics_csv(path)
        assert rows_equal([tuple(vars(r).values()) for r in back],
                          [tuple(vars(r).values()) for r in rows])

    def test_allan_and_psd(self, tmp_path):
        tau = np.array([100.0, 200.0, 400.0])
        sigma = np.array([1.0 / 3.0, math.nan, 2e-12])
        write_allan_csv(tmp_path / "allan.csv", AllanCurve(tau, sigma,
                                                           np.ones(3)))
        write_psd_csv(tmp_path / "psd.csv", tau, sigma)
        want = list(zip(tau.tolist(), sigma.tolist()))
        assert rows_equal(tables.read_table(tmp_path / "allan.csv",
                                            tables.ALLAN), want)
        assert rows_equal(tables.read_table(tmp_path / "psd.csv",
                                            tables.PSD), want)
