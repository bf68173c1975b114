"""Tests for the structured result exporters."""

import csv
import json

import pytest

from repro.analysis.report import (
    result_to_record,
    sweep_to_records,
    write_records_csv,
    write_records_json,
)
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import Scenario, build_simulation


@pytest.fixture(scope="module")
def result():
    config = PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                        deadline_us=2000.0)
    sim = build_simulation(Scenario(
        pool=config, policy="flexran", workload="redis", load_fraction=0.4,
        seed=4))
    return sim.run(150)


class TestRecords:
    def test_flattens_all_headline_fields(self, result):
        record = result_to_record(result)
        for key in ("policy", "workload", "miss_fraction",
                    "latency_p99999_us", "reclaimed_fraction",
                    "scheduling_events", "meets_five_nines"):
            assert key in record
        assert record["policy"] == "flexran"
        assert record["rate_redis-get_per_s"] > 0

    def test_extra_labels_merged(self, result):
        record = result_to_record(result, sweep="loads", point=0.4)
        assert record["sweep"] == "loads"
        assert record["point"] == 0.4

    def test_sweep_zip(self, result):
        records = sweep_to_records([result, result],
                                   [{"i": 0}, {"i": 1}])
        assert [r["i"] for r in records] == [0, 1]


class TestWriters:
    def test_json_roundtrip(self, result, tmp_path):
        path = tmp_path / "out.json"
        write_records_json([result_to_record(result)], path)
        data = json.loads(path.read_text())
        assert len(data) == 1
        assert data[0]["policy"] == "flexran"

    def test_csv_union_header(self, result, tmp_path):
        records = [result_to_record(result, only_in_first=1),
                   result_to_record(result, only_in_second=2)]
        path = tmp_path / "out.csv"
        write_records_csv(records, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert "only_in_first" in rows[0]
        assert "only_in_second" in rows[0]

    def test_empty_csv_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_records_csv([], tmp_path / "x.csv")
