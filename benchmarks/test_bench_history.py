"""``common.append_record``: the benchmark histories are append-only."""

import json

import pytest

from common import BenchHistoryError, append_record


def test_missing_history_starts_fresh(tmp_path):
    path = tmp_path / "BENCH_x.json"
    append_record(path, {"label": "first"})
    append_record(path, {"label": "second"})
    assert json.loads(path.read_text()) == {"records": [{"label": "first"}, {"label": "second"}]}
    assert path.read_text().endswith("\n")
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]


def test_corrupt_history_raises_and_is_left_untouched(tmp_path):
    path = tmp_path / "BENCH_x.json"
    append_record(path, {"label": "first"})
    truncated = path.read_bytes()[:-7]  # what an interrupted write leaves
    path.write_bytes(truncated)
    with pytest.raises(BenchHistoryError, match="BENCH_x.json"):
        append_record(path, {"label": "second"})
    assert path.read_bytes() == truncated
