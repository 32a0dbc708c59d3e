"""Command-line interface: output schema, determinism, exit codes."""

import dataclasses
import json
import math

import jsonschema
import pytest

from ptrig import EvalConfig
from ptrig.cli import EXIT_DOMAIN, EXIT_OK, main

FIXED_STAMP = "2026-01-01T00:00:00+00:00"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_ndjson(out):
    return [json.loads(line) for line in out.strip().splitlines()]


@pytest.fixture(scope="module")
def schema():
    import importlib.resources as resources

    with resources.files("ptrig").joinpath("schema/output_record.schema.json").open() as fh:
        return json.load(fh)


class TestEval:
    def test_sin_classical(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "eval", "sin_p", "--p", "2", "--x", "1.0", "--timestamp", FIXED_STAMP
        )
        assert code == EXIT_OK
        (rec,) = parse_ndjson(out)
        jsonschema.validate(rec, schema)
        assert rec["results"]["value"] == pytest.approx(0.8414709848078965, abs=1e-12)

    def test_cos_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "cos_p", "--p", "1.5", "--x", "0")
        assert code == EXIT_OK
        (rec,) = parse_ndjson(out)
        assert rec["results"]["value"] == 1.0

    def test_incomplete_integral(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "F_p", "--p", "2", "--x", "0.5")
        assert code == EXIT_OK
        (rec,) = parse_ndjson(out)
        assert rec["results"]["value"] == pytest.approx(math.pi / 6.0, abs=1e-12)

    def test_exp_components(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "exp_p", "--p", "2", "--x", "1.0")
        (rec,) = parse_ndjson(out)
        assert rec["results"]["value_re"] == pytest.approx(math.cos(1.0), abs=1e-12)
        assert rec["results"]["value_im"] == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_p_beyond_two_to_the_53(self, capsys):
        # p/(p-1) rounds to 1 there; sin_p is the triangle wave of p -> inf
        code, out, _ = run_cli(capsys, "eval", "sin_p", "--p", "1e16", "--x", "0.3")
        assert code == EXIT_OK
        (rec,) = parse_ndjson(out)
        assert rec["results"]["value"] == pytest.approx(0.3, abs=1e-15)

    def test_grid_ordering(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "sin_p", "--p", "2", "--x-min", "0", "--x-max", "1", "--x-num", "5"
        )
        recs = parse_ndjson(out)
        xs = [r["params"]["x"] for r in recs]
        assert xs == sorted(xs)
        assert len(recs) == 5

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "F_p", "--p", "0.5", "--x", "0.5")
        assert code == EXIT_DOMAIN
        assert "p must be" in err
        # a grid names the offending value, not the whole array
        code, _, err = run_cli(
            capsys, "eval", "F_p", "--p", "1.5", "--x-min", "0", "--x-max", "1.5", "--x-num", "4"
        )
        assert code == EXIT_DOMAIN
        assert "got 1.5" in err and "array" not in err

    @pytest.mark.parametrize("num", ("0", "-1"))
    def test_empty_or_negative_grid_is_domain_error(self, capsys, num):
        code, out, err = run_cli(
            capsys, "eval", "sin_p", "--p", "1.5", "--x-min", "0", "--x-max", "1", "--x-num", num
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"eval --x-num requires an integer >= 1, got {num}" in err

    def test_function_precondition_named(self, capsys):
        code, _, err = run_cli(capsys, "eval", "v_p", "--p", "1.5", "--x", "0.2")
        assert code == EXIT_DOMAIN
        assert "v_p requires p > 2" in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        from ptrig.cli import EXIT_NUMERICAL
        from ptrig import pi_p

        cfg = tmp_path / "starved.cfg"
        cfg.write_text("quad_levels = 1\n")
        code, _, err = run_cli(
            capsys, "eval", "sin_p", "--p", "1.5",
            "--x", str(0.4 * pi_p(1.5)), "--config", str(cfg),
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestCoeffs:
    def test_classical_table(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--p", "2", "--jmax", "9")
        recs = parse_ndjson(out)
        values = {r["params"]["j"]: r["results"]["value"] for r in recs}
        assert values[1] == 1.0
        assert all(values[j] == 0.0 for j in values if j != 1)

    def test_small_p_csv_bound_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--p", "1.5", "--jmax", "99", "--format", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        ji, vi, bi = header.index("j"), header.index("value"), header.index("bound")
        for line in lines[1:]:
            cells = line.split(",")
            j = int(cells[ji])
            if j >= 1:
                assert abs(float(cells[vi])) < float(cells[bi])

    def test_large_p_bound_uses_conjugate_power(self, capsys):
        from ptrig.fourier import cosine_bound_large_p

        code, out, _ = run_cli(capsys, "coeffs", "--p", "3", "--jmax", "9")
        recs = parse_ndjson(out)
        for rec in recs:
            j = rec["params"]["j"]
            if j >= 3:
                assert rec["results"]["bound"] == pytest.approx(
                    cosine_bound_large_p(3.0, j), rel=1e-14
                )


class TestCriterion:
    def test_classical(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "2.0")
        (rec,) = parse_ndjson(out)
        assert rec["results"]["holds"] is True
        assert rec["results"]["margin"] == pytest.approx(1.0, abs=1e-12)

    def test_lower_edge(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "1.46", "--J", "199")
        (rec,) = parse_ndjson(out)
        assert rec["results"]["holds"] is True

    def test_margin_subtracts_every_recorded_term(self, capsys):
        code, out, _ = run_cli(capsys, "criterion", "--p", "1.46", "--J", "199")
        (res,) = (rec["results"] for rec in parse_ndjson(out))
        assert res["quadrature_err"] > 0.0
        assert res["margin"] == (abs(res["b1"]) - res["tail_computed"]
                                 - res["tail_remainder_bound"] - res["quadrature_err"])


class TestThresholds:
    def test_reference_windows(self, capsys, schema):
        code, out, _ = run_cli(capsys, "thresholds")
        assert code == EXIT_OK
        recs = parse_ndjson(out)
        for rec in recs:
            jsonschema.validate(rec, schema)
            assert rec["results"]["within_reference"] is True
        roots = {r["params"]["name"]: r["results"]["root"] for r in recs}
        assert abs(roots["p0"] - 1.458801) < 5e-6
        assert abs(roots["p1"] - 2.42865) < 5e-5


class TestRegularityCommand:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "regularity", "--p", "3", "--rho", "1.9", "--J", "99")
        (rec,) = parse_ndjson(out)
        assert rec["results"]["r_threshold"] == pytest.approx(2.0)
        assert rec["results"]["partial_sum"] > 0.0

    def test_infinite_rho_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "regularity", "--p", "3", "--rho", "inf", "--J", "11")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "sobolev_partial requires a finite rho >= 0, got inf" in err


class TestOperatorCommand:
    def test_build_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "--p", "1.5", "--N", "8", "--action", "build",
            "--format", "csv",
        )
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert {"k", "n", "value"} <= set(header)
        ki, ni = header.index("k"), header.index("n")
        pairs = {(int(l.split(",")[ki]), int(l.split(",")[ni])) for l in lines[1:]}
        assert (3, 1) in pairs and (2, 1) not in pairs

    def test_expand(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "--p", "2", "--N", "4", "--action", "expand",
            "--vector", "0,1,0,2",
        )
        (rec,) = parse_ndjson(out)
        assert rec["results"]["coeffs"] == [0.0, 1.0, 0.0, 2.0]

    @pytest.mark.parametrize("vector", ("nan,1", "1,inf", "abc,1"))
    def test_expand_rejects_non_finite_vector(self, capsys, vector):
        code, out, err = run_cli(
            capsys, "operator", "--p", "1.7", "--N", "4", "--action", "expand",
            "--vector", vector,
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("N,message", (
        ("4", "operator --vector has 6 coefficients, more than N = 4"),
        ("0", "expand_in_pcosine requires an integer N >= 1, got 0"),
    ))
    def test_expand_rejects_vector_longer_than_N(self, capsys, N, message):
        code, out, err = run_cli(
            capsys, "operator", "--p", "1.7", "--N", N, "--action", "expand",
            "--vector", "1,2,3,4,5,6",
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert message in err

    def test_expand_pads_vector_shorter_than_N(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "--p", "2", "--N", "4", "--action", "expand",
            "--vector", "0,1",
        )
        assert code == EXIT_OK
        (rec,) = parse_ndjson(out)
        assert rec["results"]["coeffs"] == [0.0, 1.0, 0.0, 0.0]

    def test_reconstruct(self, capsys):
        code, out, _ = run_cli(
            capsys, "operator", "--p", "1.6", "--N", "8", "--action", "reconstruct",
            "--n", "2",
        )
        (rec,) = parse_ndjson(out)
        assert rec["results"]["max_abs_dev"] < 1e-8


class TestReproducibility:
    def test_byte_identical_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code = main(["thresholds", "--out", str(path)])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "eval", "sin_p", "--p", "1.5", "--x", "1", "--out", str(path))
        assert code == EXIT_DOMAIN
        assert out == ""
        assert f"cannot write output file {str(path)!r}" in err
        assert not path.exists()

    def test_bad_source_date_epoch_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        code, out, err = run_cli(capsys, "eval", "sin_p", "--p", "1.5", "--x", "1")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "SOURCE_DATE_EPOCH requires an integer number of seconds, got 'abc'" in err

    def test_timestamp_flag_wins(self, capsys):
        _, out, _ = run_cli(capsys, "criterion", "--p", "2", "--timestamp", FIXED_STAMP)
        (rec,) = parse_ndjson(out)
        assert rec["timestamp"] == FIXED_STAMP

    def test_csv_floats_roundtrip(self, capsys):
        import ptrig

        _, out_csv, _ = run_cli(
            capsys, "coeffs", "--p", "1.5", "--jmax", "5", "--format", "csv"
        )
        lines = out_csv.strip().split("\n")
        header = lines[0].split(",")
        ji, vi = header.index("j"), header.index("value")
        for line in lines[1:]:
            cells = line.split(",")
            j, value = int(cells[ji]), float(cells[vi])
            assert value == ptrig.cosine_coeff(1.5, j)[0]

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("rel_tol = 1e-10\nquad_levels = 10\n")
        _, out, _ = run_cli(
            capsys, "eval", "sin_p", "--p", "2", "--x", "0.3", "--config", str(cfg)
        )
        (rec,) = parse_ndjson(out)
        expected = dataclasses.asdict(EvalConfig(rel_tol=1e-10, quad_levels=10))
        assert list(rec["config"].items()) == list(expected.items())
        _, out, _ = run_cli(
            capsys, "eval", "sin_p", "--p", "2", "--x", "0.3",
            "--config", str(cfg), "--tol", "1e-9",
        )
        (rec,) = parse_ndjson(out)
        assert rec["config"]["rel_tol"] == 1e-9

    @pytest.mark.parametrize(
        "text,message",
        [
            ("max_newton_iters = 1.5\n",
             "config key max_newton_iters requires an integer, got '1.5'"),
            ("rel_tol = abc\n", "config key rel_tol requires a number, got 'abc'"),
            (None, "cannot read config file"),
            ("rel_tol = inf\n", "rel_tol must be positive and finite, got inf"),
            ("abs_tol = inf\n", "abs_tol must be positive and finite, got inf"),
            ("reltol = 1e-3\n", "config line 'reltol = 1e-3' is not key = value"),
            ("# fine\nthis line has no equals\n",
             "config line 'this line has no equals' is not key = value"),
        ],
    )
    def test_bad_config_is_domain_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "settings.cfg"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(
            capsys, "eval", "sin_p", "--p", "2", "--x", "0.3", "--config", str(cfg)
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert message in err

    def test_infinite_tol_flag_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "sin_p", "--p", "1.5", "--x", "0.3", "--tol", "inf"
        )
        assert code == EXIT_DOMAIN
        assert out == ""
        assert "rel_tol must be positive and finite, got inf" in err


class TestSchemaConformance:
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "u_p", "--p", "1.5", "--x", "0.25"),
            ("coeffs", "--p", "2.5", "--jmax", "5"),
            ("criterion", "--p", "2.0"),
            ("regularity", "--p", "3", "--rho", "1.0", "--J", "99"),
            ("operator", "--p", "2", "--N", "4", "--action", "build"),
        ],
    )
    def test_all_commands_validate(self, capsys, schema, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        for rec in parse_ndjson(out):
            jsonschema.validate(rec, schema)
