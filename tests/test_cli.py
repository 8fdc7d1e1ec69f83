"""Config parsing, report files and the command-line front end."""

from __future__ import annotations

import hashlib
import math
import os

import pytest

from batchsim import (CSV_HEADER, ParseError, SweepConfig, ValidationError,
                      load_config, parse_config, read_operations_csv,
                      run_sweep, validate_plant_config, validate_sweep_config,
                      write_report)
from batchsim.cli import main

from conftest import REFERENCE_INI, make_reference_plant, make_reference_sweep


def read_reference_text():
    return REFERENCE_INI.read_text(encoding="utf-8")


class TestParseConfig:
    def test_reference_document_round_trip(self):
        plant, sweep = parse_config(read_reference_text())
        assert plant == make_reference_plant()
        assert sweep == make_reference_sweep()

    def test_setpoint_below_ambient_names_field(self):
        text = read_reference_text().replace("setpoint = 70.0",
                                             "setpoint = 10.0")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.field == "setpoint"

    def test_unknown_key_rejected(self):
        text = read_reference_text().replace(
            "[plant]", "[plant]\nheater_color = red")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "heater_color" in str(excinfo.value)

    def test_unknown_section_rejected(self):
        # configparser folds [DEFAULT] keys into every section, which
        # blamed them on [plant].
        for extra, field in (("[turbo]\nboost = 11\n", "turbo"),
                             ("[DEFAULT]\nk_min = 1\n", "DEFAULT")):
            with pytest.raises(ValidationError) as excinfo:
                parse_config(read_reference_text() + "\n" + extra)
            assert excinfo.value.field == field

    def test_missing_key_rejected(self):
        text = read_reference_text().replace("batch_volume = 10.0\n", "")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "batch_volume" in str(excinfo.value)

    def test_malformed_document_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("batch_volume = 10\nno section header")

    def test_non_numeric_value_names_field(self):
        text = read_reference_text().replace("fill_rate = 1.0",
                                             "fill_rate = fast")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert "fill_rate" in str(excinfo.value)

    def test_too_fine_scan_step_names_k_step(self, tmp_path):
        # 2.4 M points, above the one-million cap of a scan.
        text = read_reference_text().replace("k_step = 0.2",
                                             "k_step = 0.000001")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        for parse in (lambda: parse_config(text), lambda: load_config(cfg)):
            with pytest.raises(ValidationError) as excinfo:
                parse()
            assert excinfo.value.field == "k_step"

    def test_sweep_defaults_apply(self):
        text = read_reference_text()
        for line in ("direction = ascending", "criterion = efficiency",
                     "stop_on_boundary = true", "tick_budget = 2000000"):
            text = text.replace(line, "")
        _, sweep = parse_config(text)
        assert sweep == SweepConfig(k_min=0.6, k_max=3.0, k_step=0.2)

    @pytest.mark.parametrize("raw, value", [
        (spelling, flag) for flag, spellings in (
            (True, ("1", "yes", "true", "on")),
            (False, ("0", "no", "false", "off")))
        for word in spellings
        for spelling in (word, f"  {word.upper()}  ", word.title())])
    def test_stop_on_boundary_reads_configparser_booleans(self, raw, value):
        text = read_reference_text().replace("stop_on_boundary = true",
                                             f"stop_on_boundary = {raw}")
        assert parse_config(text)[1].stop_on_boundary is value

    @pytest.mark.parametrize("raw", ["maybe", "2", ""])
    def test_stop_on_boundary_refuses_other_values(self, raw):
        text = read_reference_text().replace("stop_on_boundary = true",
                                             f"stop_on_boundary = {raw}")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(text)
        assert excinfo.value.field == "sweep.stop_on_boundary"

    def test_validators_cover_field_constraints(self):
        plant = make_reference_plant()
        validate_plant_config(plant)  # reference passes
        bad = plant._replace(heater_efficiency=1.5)
        with pytest.raises(ValidationError) as excinfo:
            validate_plant_config(bad)
        assert excinfo.value.field == "heater_efficiency"
        with pytest.raises(ValidationError):
            validate_sweep_config(SweepConfig(2.0, 1.0, 0.2))
        with pytest.raises(ValidationError):
            validate_sweep_config(SweepConfig(0.5, 2.0, 0.2,
                                              criterion="bogus"))


@pytest.fixture(scope="module")
def small_report():
    """A fast three-point sweep used for serialization tests."""
    plant, sweep = load_config(REFERENCE_INI)
    return run_sweep(plant, sweep._replace(k_min=2.0, k_max=3.0, k_step=0.5))


class TestWriteReport:
    def test_row_count_and_header(self, small_report, tmp_path):
        csv_path, summary_path = write_report(small_report, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[0] == ("num,control_k,t_op,rtv,rpv,ptv,rwv,"
                            "re,pe,prf,rnt,r,e,valid")
        assert len(lines) == 1 + len(small_report.records)
        assert summary_path.read_text().startswith("criterion: efficiency\n")

    def test_round_trip_to_emitted_precision(self, small_report, tmp_path):
        csv_path, _ = write_report(small_report, tmp_path)
        back = read_operations_csv(csv_path)
        for original, parsed in zip(small_report.records, back):
            assert parsed.num == original.num
            assert parsed.valid == original.valid
            for field in ("control_k", "t_op", "rtv", "rpv", "ptv", "rwv",
                          "re", "pe", "prf", "rnt", "r", "e"):
                assert getattr(parsed, field) == pytest.approx(
                    getattr(original, field), rel=1e-8)

    def test_crlf_line_endings_read_as_lf(self, small_report, tmp_path):
        csv_path, _ = write_report(small_report, tmp_path)
        lf = read_operations_csv(csv_path)
        csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
        assert read_operations_csv(csv_path) == lf

    def test_rewrite_is_byte_identical(self, small_report, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        paths_a = write_report(small_report, first)
        paths_b = write_report(small_report, second)
        for pa, pb in zip(paths_a, paths_b):
            assert hashlib.sha256(pa.read_bytes()).digest() == \
                hashlib.sha256(pb.read_bytes()).digest()

    def test_invalid_record_encodes_nan_indicators(self, small_report,
                                                   tmp_path):
        nan = float("nan")
        broken = small_report.records[0]._replace(prf=nan, rnt=nan, r=nan,
                                                  e=nan, valid=False)
        report = small_report._replace(records=[broken])
        csv_path, _ = write_report(report, tmp_path)
        row = csv_path.read_text().splitlines()[1].split(",")
        assert row[-1] == "0"
        assert row[9:13] == ["nan", "nan", "nan", "nan"]
        parsed = read_operations_csv(csv_path)[0]
        assert not parsed.valid
        assert math.isnan(parsed.rnt)

    @pytest.mark.parametrize("cell", ["yes", "", "2", "true"])
    def test_malformed_valid_cell_rejected(self, small_report, tmp_path,
                                           cell):
        # Only 1 or 0 is a flag; anything else used to parse as False.
        csv_path, _ = write_report(small_report, tmp_path)
        header, row, *rest = csv_path.read_text().splitlines()
        row = row.rsplit(",", 1)[0] + "," + cell
        csv_path.write_text("\n".join([header, row, *rest]) + "\n")
        with pytest.raises(ValueError):
            read_operations_csv(csv_path)

    @pytest.mark.parametrize("shape", ["extra cell", "missing cells"])
    def test_row_with_wrong_cell_count_rejected(self, small_report, tmp_path,
                                                shape):
        # An extra cell used to be dropped silently and a short row raised
        # TypeError; either is refused with the offending line named.
        csv_path, _ = write_report(small_report, tmp_path)
        header, row, *rest = csv_path.read_text().splitlines()
        row = row + ",1" if shape == "extra cell" else row.rsplit(",", 2)[0]
        csv_path.write_text("\n".join([header, row, *rest]) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            read_operations_csv(csv_path)

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
    def test_report_files_follow_umask(self, small_report, tmp_path, umask):
        # The atomic write used to leave both files at 0600.
        old = os.umask(umask)
        try:
            paths = write_report(small_report, tmp_path)
        finally:
            os.umask(old)
        assert [p.stat().st_mode & 0o777 for p in paths] \
            == [0o666 & ~umask] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(p.name for p in paths)

    def test_empty_report_refused(self, small_report, tmp_path):
        report = small_report._replace(records=[])
        with pytest.raises(ValueError):
            write_report(report, tmp_path)

    def test_no_partial_file_on_error(self, small_report, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        (target / "operations.csv").write_text("sentinel")
        bad = small_report._replace(records=[object()])  # unformattable
        with pytest.raises(Exception):
            write_report(bad, target)
        assert (target / "operations.csv").read_text() == "sentinel"


class TestCli:
    @pytest.mark.parametrize("direction", ["ascending", "descending"])
    def test_validate_reference(self, tmp_path, capsys, direction):
        text = read_reference_text()
        assert "direction = ascending" in text
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text.replace("direction = ascending",
                                    f"direction = {direction}"))
        rc = main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "config: OK" in out
        assert "k_min_feasible: 0.525" in out
        assert "predicted_operations: 13" in out
        assert "heating_time_at_k_min:" in out
        assert "heating_time_at_k_max:" in out
        assert ("ticks_at_k_min: 39676 (fill 100, heat 39475, release 100)"
                in out)
        assert ("ticks_at_k_max: 4218 (fill 100, heat 4017, release 100)"
                in out)
        assert "dt_limit: 1\n" in out

    def test_validate_infeasible_names_endpoint(self, tmp_path, capsys):
        # The reference floor is 0.525, so 0.5 is just below it.
        text = read_reference_text().replace("k_min = 0.6", "k_min = 0.5")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        rc = main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 1
        assert ("infeasible: k_min: 0.5 is below the feasible control "
                "floor 0.525\n") in out

    @pytest.mark.parametrize("edit, status, expected", [
        (None, 0, None),
        (("batch_volume = 10.0", "batch_volume = 0.5"), 1, "dt: must be"),
        (("tick_budget = 2000000", "tick_budget = 1000"), 1,
         "tick_budget: 1000 cannot finish the operation at control 0.6,"),
        (("k_min = 0.6", "k_min = 0.5"), 1, "k_min: 0.5 is below"),
        (("alpha = 3.0", "alpha = 1000"), 1, "k_max: the wear rate"),
        (("t_nominal = 3.6e6", "t_nominal = 1e-320"), 1,
         "t_nominal: the wear rate"),
    ], ids=["reference", "batch_volume", "tick_budget", "k_min", "alpha",
            "t_nominal"])
    def test_validate_refuses_what_sweep_refuses(self, tmp_path, capsys,
                                                 edit, status, expected):
        text = read_reference_text()
        if edit is not None:
            assert edit[0] in text
            text = text.replace(*edit)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == status
        out = capsys.readouterr().out
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "results")]) == status
        err = capsys.readouterr().err
        if expected is not None:
            assert f"infeasible: {expected}" in out
            assert f"error: {expected}" in err

    @pytest.mark.parametrize("dt", ["2.0", "nan"])
    def test_validate_takes_the_sweep_dt(self, tmp_path, capsys, dt):
        # validate used to check the default dt only, so a dt that the
        # sweep refuses passed it.
        assert main(["validate", "--config", str(REFERENCE_INI),
                     "--dt", dt]) == 1
        out = capsys.readouterr().out
        assert main(["sweep", "--config", str(REFERENCE_INI),
                     "--out", str(tmp_path / "results"), "--dt", dt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt: ")
        assert out.endswith("infeasible: " + err.removeprefix("error: "))

    def test_validate_too_fine_scan_step_names_k_step(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(read_reference_text().replace("k_step = 0.2",
                                                     "k_step = 0.000001"))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "error: k_step: scan step is too small for the range\n")

    def test_validate_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(read_reference_text().replace("setpoint = 70.0",
                                                     "setpoint = 5.0"))
        rc = main(["validate", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "setpoint" in err

    def test_sweep_command_writes_reports(self, tmp_path, capsys):
        text = read_reference_text().replace("k_min = 0.6", "k_min = 2.0") \
                                    .replace("k_step = 0.2", "k_step = 0.5")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(text)
        out_dir = tmp_path / "results"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "operations.csv").exists()
        assert (out_dir / "summary.txt").exists()
        stdout = capsys.readouterr().out
        assert "extremum of 'efficiency'" in stdout
        assert len((out_dir / "operations.csv")
                   .read_text().splitlines()) == 1 + 3

    def test_run_once_command(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        rc = main(["run-once", "--config", str(REFERENCE_INI),
                   "--out", str(out_dir), "--k", "1.5"])
        assert rc == 0
        records = read_operations_csv(out_dir / "operations.csv")
        assert len(records) == 1
        assert records[0].control_k == 1.5

    @pytest.mark.parametrize("command", ["sweep", "run-once"])
    @pytest.mark.parametrize("dt", ["nan", "inf", "0", "-1", "500"])
    def test_bad_dt_names_field(self, tmp_path, capsys, command, dt):
        rc = main([command, "--config", str(REFERENCE_INI),
                   "--out", str(tmp_path / "results"), "--dt", dt])
        assert rc == 1
        assert "error: dt:" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_parallel_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(REFERENCE_INI),
                  "--out", str(tmp_path), "--parallel"])

    def test_run_once_infeasible_k(self, tmp_path, capsys):
        rc = main(["run-once", "--config", str(REFERENCE_INI),
                   "--out", str(tmp_path), "--k", "0.2"])
        assert rc == 1
        assert "feasible" in capsys.readouterr().err

    def test_run_once_overflowing_wear_rate(self, tmp_path, capsys):
        rc = main(["run-once", "--config", str(REFERENCE_INI),
                   "--out", str(tmp_path / "results"), "--k", "1e200"])
        assert rc == 1
        assert "error: control_k:" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["validate", "--config", str(tmp_path / "absent.ini")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_not_utf8_is_an_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes(b"[plant]\nbatch_volume = 10\xff\n")
        rc = main(["validate", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert f"{cfg}: not valid UTF-8 at byte 25" in err
        assert "Traceback" not in err
