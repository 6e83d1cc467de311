import csv
import json
import math

import numpy as np
import pytest

from brenier_bounds.cli import ConfigError, _rows_csv, load_config, main
from brenier_bounds.transport import MIN_MAP_POINTS


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def identity_doc(name="identity", **scen):
    base = {"name": name, "n": 1, "d": 2, "D": 2, "R": 10}
    base.update(scen)
    return {"scenario": base,
            "potentials": {"V": {"family": "quadratic", "coefficient": 1.0},
                           "W": {"family": "quadratic", "coefficient": 1.0}}}


def solver_doc(**solver):
    """A scenario with R = 2 under the given solver block."""
    return {"scenario": {"name": "window", "n": 1, "d": 2, "D": 3, "R": 2}, "solver": solver}


class TestConfigParsing:
    def test_strict_mode_rejects_unknown_keys(self, tmp_path):
        doc = identity_doc()
        doc["scenario"]["typo"] = 1
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    def test_inf_spelling_case_insensitive(self, tmp_path):
        doc = identity_doc(d="INF", D="Inf", R="inf")
        s = load_config(write(tmp_path / "c.json", doc))[0]
        assert math.isinf(s.d) and math.isinf(s.D) and math.isinf(s.R)

    def test_scenario_lists_flatten(self, tmp_path):
        doc = {"scenarios": [identity_doc("one"), identity_doc("two")]}
        scenarios = load_config(write(tmp_path / "c.json", doc))
        assert [s.name for s in scenarios] == ["one", "two"]

    def test_unknown_family_is_an_input_error(self, tmp_path):
        doc = identity_doc()
        doc["potentials"]["V"] = {"family": "cubic"}
        with pytest.raises(ConfigError):
            load_config(write(tmp_path / "c.json", doc))

    @pytest.mark.parametrize("block,key,value", [
        ("scenario", "n", "x"),
        ("V", "coefficient", "abc"),
        ("V", "shift", "left"),
        ("solver", "grid_points", "many"),
        ("scenario", "R", [10]),
    ])
    def test_malformed_scalar_exits_one(self, tmp_path, capsys, block, key, value):
        doc = identity_doc()
        if block == "scenario":
            doc["scenario"][key] = value
        elif block == "solver":
            doc["solver"] = {key: value}
        else:
            doc["potentials"]["V"] = {"family": "onedim", key: value}
        assert main(["bounds", "--config", write(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err


    @pytest.mark.parametrize("block,value,needle", [
        ("V", {"family": "quadratic", "coefficient": -1}, "coefficient"),
        ("V", {"family": "tabulated", "csv": "missing.csv"}, "missing.csv"),
        ("V", {"family": "quadratic", "hess_upper": "abc"}, "hess_upper"),
        ("solver", {"grid_min": "a"}, "grid_min"),
    ])
    def test_malformed_potential_or_solver_exits_one(self, tmp_path, capsys,
                                                     block, value, needle):
        doc = identity_doc()
        if block == "solver":
            doc["solver"] = value
        else:
            doc["potentials"][block] = value
        assert main(["verify", "--config", write(tmp_path / "c.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("command,doc,needle", [
        ("verify", {"scenarios": 5}, "scenarios"),
        ("verify", identity_doc(expected=3), "expected"),
        ("verify", identity_doc(expected={"lipschitz": {"value": 1}}), "tol"),
        ("verify", identity_doc(expected={"lipschtz": {"value": 1, "tol": 1e-8}}), "lipschtz"),
        ("verify", identity_doc(expected={"slope": {"value": 5, "window": 100}}), "window"),
        ("verify", {**identity_doc(), "output": {"dir": "out", "format": "json"}}, "output"),
        ("sweep", [1, 2], "config"),
        ("sweep", {"sweep": {"kind": "d_limit", "D_list": "abc"}}, "D_list"),
        ("sweep", {"sweep": {"kind": "d_limit", "D_list": ["inf"]}}, "D_list"),
        ("sweep", {"sweep": {"kind": "caffarelli_limit", "d_list": [0, 1]}}, "d_list"),
        ("sweep", {"sweep": {"kind": "d_limit", "R": "inf"}}, "sweep.R"),
        ("sweep", {"sweep": {"kind": "uniformity", "n_list": 3}}, "n_list"),
        ("sweep", {"sweep": {"kind": "d_limit", "d": 4, "D_list": [2, 10]}}, "d <= D"),
        ("sweep", {"sweep": {"kind": "uniformity", "n_list": [3], "d_max": 2}}, "no triple"),
        ("bounds", {"scenario": {"n": 2, "d": 1, "D": 3}}, "n <= d"),
        ("sweep", {"sweep": {"kind": "d_limit", "n": 2, "d": 1}}, "n <= d"),
        ("sweep", {"sweep": {"kind": "caffarelli_limit", "n": 3, "d_list": [1, 10]}}, "n <= d"),
        # d < n or D < n: no map either, so every command refuses it alike
        ("transport", {"scenario": {"n": 2, "d": 1, "R": 2}}, "requires n <= d, got n=2, d=1.0"),
        ("verify", {"scenario": {"n": 2, "d": 1, "R": 2}}, "requires n <= d, got n=2, d=1.0"),
        ("transport", {"scenario": {"n": 2, "d": 3, "D": 1}}, "requires n <= D, got n=2, D=1.0"),
        ("verify", {"scenario": {"n": 2, "d": 3, "D": 1}}, "requires n <= D, got n=2, D=1.0"),
        # a sweep takes only its own kind's keys, and a uniformity sweep no potentials
        ("sweep", {"sweep": {"kind": "uniformity", "D_list": [5, 7], "R": 2}}, "D_list"),
        ("sweep", {"sweep": {"kind": "caffarelli_limit", "qV": 2, "D_max": 3}}, "qV"),
        ("sweep", {"sweep": {"kind": "uniformity"},
                   "potentials": {"V": {"family": "bogus", "coefficient": -7}}}, "potentials"),
        # a solver window the map grid cannot use
        ("verify", solver_doc(grid_min=0), "solver.grid_min: expected a positive finite number"),
        ("transport", solver_doc(grid_min=-1), "solver.grid_min: expected a positive"),
        ("verify", solver_doc(grid_min=100, grid_max=1),
         "solver: the map grid's lower end 100 is not below its upper end 2"),
        ("transport", solver_doc(grid_min=100, grid_max=1), "is not below its upper end 2"),
        ("verify", solver_doc(grid_max="inf"), "solver.grid_max: expected a positive finite"),
        ("transport", solver_doc(grid_max="inf"), "solver.grid_max: expected a positive"),
        ("transport", {"scenario": {"n": 1, "d": 2}, "solver": {"grid_max": 1e-5}},
         "lower end 0.00141421 is not below its upper end 1e-05"),
        ("bounds", solver_doc(grid_min="nan"), "solver.grid_min: expected a positive"),
        # a window radius that is not positive ("inf" is the whole space)
        *[(command, identity_doc(R=R), f"scenario.R: expected a positive number, got {want}")
          for command in ("verify", "bounds", "transport")
          for R, want in ((0, "0.0"), (-1, "-1.0"), ("nan", "nan"))],
        # the uniformity chain's qV and qW
        *[("sweep", {"sweep": {"kind": "uniformity", "n_list": [1], "d_max": 3, key: value}},
           f"sweep.{key}: expected a positive finite number, got {want}")
          for key in ("qV", "qW")
          for value, want in ((-1, "-1.0"), ("inf", "inf"), ("nan", "nan"))],
    ])
    def test_malformed_config_exits_one(self, tmp_path, capsys, command, doc, needle):
        path = write(tmp_path / "c.json", doc)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err

    def test_grid_min_is_checked_against_the_widened_upper_end(self, tmp_path):
        # grid_max = 1 is widened to R = 200, so grid_min = 100 lies below it
        doc = solver_doc(grid_min=100, grid_max=1)
        doc["scenario"]["R"] = 200
        path = write(tmp_path / "c.json", doc)
        assert main(["transport", "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["transport", "verify", "bounds"])
    def test_too_few_grid_points_exit_one(self, tmp_path, capsys, command):
        doc = identity_doc()
        doc["solver"] = {"grid_points": MIN_MAP_POINTS - 1}
        path = write(tmp_path / "c.json", doc)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver.grid_points:") and err.count("\n") == 1
        doc["solver"] = {"grid_points": MIN_MAP_POINTS}
        assert main(["transport", "--config", write(tmp_path / "c.json", doc),
                     "--out", str(tmp_path / "o")]) == 0

    def test_csv_path_is_relative_to_the_config(self, tmp_path, monkeypatch, capsys):
        cfg_dir, elsewhere = tmp_path / "cfg", tmp_path / "elsewhere"
        cfg_dir.mkdir()
        elsewhere.mkdir()
        r = [0.25 * i for i in range(81)]
        (cfg_dir / "u.csv").write_text("r,u\n" + "".join(f"{x},{x * x}\n" for x in r))
        doc = identity_doc()
        doc["potentials"]["V"] = {"family": "tabulated", "csv": "u.csv"}
        path = write(cfg_dir / "c.json", doc)
        monkeypatch.chdir(elsewhere)
        # the table is read; without declared Hessian bounds the bounds are void
        assert main(["bounds", "--config", path]) == 2
        assert "VoidBound" in capsys.readouterr().err
        assert main(["transport", "--config", path]) == 0
        assert (elsewhere / "identity_map.csv").exists()

    def test_tabulated_quadratic_verifies_and_a_false_declaration_exits_one(
            self, tmp_path, capsys):
        # r^2 at 201 nodes declared [2, 2] passes with the bounds of |x|^2;
        # declared [0.5, 0.5] it is an input error, reported on one line
        r = np.linspace(0.0, 20.0, 201).tolist()
        (tmp_path / "u.csv").write_text("r,u\n" + "".join(f"{x!r},{x * x!r}\n" for x in r))
        quadratic = write(tmp_path / "q.json", identity_doc(R=5))
        doc = identity_doc(R=5)
        doc["potentials"]["V"] = {"family": "tabulated", "csv": "u.csv",
                                  "hess_upper": 2.0, "hess_lower": 2.0}
        tabulated = write(tmp_path / "t.json", doc)
        for path, out in ((quadratic, "q"), (tabulated, "t")):
            assert main(["verify", "--config", path, "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        got, want = (json.loads((tmp_path / out / "identity_report.json").read_text())["bounds"]
                     for out in ("t", "q"))
        assert [b["regime"] for b in got] == ["global", "local", "finite_global_sharp"]
        for b, w in zip(got, want):
            assert b["regime"] == w["regime"]
            assert b["bound"] == pytest.approx(w["bound"], rel=1e-10)
        doc["potentials"]["V"].update(hess_upper=0.5, hess_lower=0.5)
        assert main(["verify", "--config", write(tmp_path / "t.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: potentials.V: declared Hessian bounds [0.5, 0.5] do not "
                              "hold for the tabulated U'' range [")
        assert err.count("\n") == 1


class TestBoundsCommand:
    def test_identity_outputs_global_bound(self, tmp_path, capsys):
        path = write(tmp_path / "c.json", identity_doc())
        assert main(["bounds", "--config", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        regimes = {b["regime"]: b for b in doc["bounds"]}
        assert regimes["global"]["bound"] == pytest.approx(11401.416896030409, rel=1e-9)
        assert {"global", "local", "finite_global_sharp"} <= set(regimes)

    def test_inverted_order_exits_one(self, tmp_path, capsys):
        path = write(tmp_path / "c.json", identity_doc(d=3, D=1))
        assert main(["bounds", "--config", path]) == 1
        assert "d <= D" in capsys.readouterr().err

    def test_endpoint_regime_value(self, tmp_path, capsys):
        doc = identity_doc(D="inf", R=2)
        path = write(tmp_path / "c.json", doc)
        assert main(["bounds", "--config", path]) == 0
        out = json.loads(capsys.readouterr().out)
        ep = [b for b in out["bounds"] if b["regime"] == "endpoint_poly_log"][0]
        c0 = ep["constants"]["c0_V"]
        assert ep["bound"] == pytest.approx(math.sqrt(2.0 / (2.0 * c0)), rel=1e-9)

    def test_void_bound_exits_two(self, tmp_path, capsys):
        doc = identity_doc()
        doc["potentials"]["W"] = {"family": "quadratic", "coefficient": 1.0,
                                  "hess_lower": None}
        path = write(tmp_path / "c.json", doc)
        assert main(["bounds", "--config", path]) == 2

    def test_malformed_json_exits_one(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["bounds", "--config", str(path)]) == 1

    def test_csv_cells_of_scanned_constants_are_numbers(self, tmp_path, capsys):
        doc = identity_doc(R=5)
        for role in ("V", "W"):
            doc["potentials"][role] = {"family": "onedim", "coefficient": 1.0, "shift": 0.0}
        path = write(tmp_path / "c.json", doc)
        out = tmp_path / "b"
        assert main(["bounds", "--config", path, "--out", str(out), "--format", "csv"]) == 0
        capsys.readouterr()
        header, *rows = [line.split(",") for line in
                         (out / "identity_bounds.csv").read_text().splitlines()]
        assert header[0] == "regime" and len(rows) == 3
        [float(cell) for row in rows for cell in row[1:] if cell]  # no np.float64(...) reprs

    def test_csv_cells_of_numpy_scalars_are_numbers(self, tmp_path):
        path = tmp_path / "rows.csv"
        _rows_csv(path, [{"D": np.int64(2), "lambda": np.float64(0.5), "xi": 1e-300,
                          "bound": np.float32(3.5), "growth": np.float64(np.inf)}])
        header, row = path.read_text().splitlines()
        assert header == "D,lambda,xi,bound,growth"
        assert [float(cell) for cell in row.split(",")] == [2.0, 0.5, 1e-300, 3.5, math.inf]

    def test_bounds_prints_exactly_what_verify_checks(self, tmp_path, capsys):
        doc = {"scenarios": [
            identity_doc("finite_window"),
            identity_doc("endpoint_whole_space", D="inf", R="inf"),
            identity_doc("both_infinite", d="inf", D="inf", R="inf")]}
        doc["scenarios"][1]["potentials"]["V"]["coefficient"] = 0.3
        path = write(tmp_path / "c.json", doc)
        assert main(["bounds", "--config", path, "--out", str(tmp_path / "b")]) == 0
        main(["verify", "--config", path, "--out", str(tmp_path / "v")])
        capsys.readouterr()
        for s in doc["scenarios"]:
            name = s["scenario"]["name"]
            printed = json.loads((tmp_path / "b" / f"{name}_bounds.json").read_text())
            checked = json.loads((tmp_path / "v" / f"{name}_report.json").read_text())
            assert [(b["regime"], b["bound"]) for b in printed["bounds"]] == \
                [(b["regime"], b["bound"]) for b in checked["bounds"]]
        endpoint = json.loads((tmp_path / "b" / "endpoint_whole_space_bounds.json")
                              .read_text())["bounds"][1]
        assert endpoint["regime"] == "endpoint_poly_log"
        assert endpoint["scenario"]["R"] == "inf"
        assert endpoint["constants"]["c0_V"] == 0.3 and endpoint["bound"] == 1.0


class TestTransportCommand:
    def test_identity_map_csv(self, tmp_path, capsys):
        path = write(tmp_path / "c.json", identity_doc())
        assert main(["transport", "--config", path, "--out", str(tmp_path / "o")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lipschitz"] == pytest.approx(1.0, abs=1e-8)
        data = np.genfromtxt(tmp_path / "o" / "identity_map.csv",
                             delimiter=",", names=True)
        assert np.max(np.abs(data["t"] - data["r"])) < 1e-10

    def test_map_covers_the_window_verify_maps(self, tmp_path, capsys):
        # R = 200 lies beyond the proxy radius 50 sqrt(2)
        path = write(tmp_path / "c.json", identity_doc(d=2, D=3, R=200))
        assert main(["transport", "--config", path, "--out", str(tmp_path / "t")]) == 0
        assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0
        capsys.readouterr()
        last = (tmp_path / "t" / "identity_map.csv").read_text().splitlines()[-1]
        report = json.loads((tmp_path / "v" / "identity_report.json").read_text())
        assert float(last.split(",")[0]) == report["map_range"]["effective_max"]
        assert report["map_range"]["effective_max"] == pytest.approx(200.0, rel=1e-12)

    def test_failed_map_exits_two(self, tmp_path, capsys):
        # d = 3 > D = 1: past r = 10^6.1 the map runs into the radius cap at once
        doc = identity_doc(d=3, D=1)
        doc["solver"] = {"grid_points": 300, "grid_min": 10 ** 6.1, "grid_max": 1e9}
        path = write(tmp_path / "c.json", doc)
        assert main(["transport", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: identity: DivergentIntegral: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_passing_scenario_exits_zero(self, tmp_path, capsys):
        doc = identity_doc(expected={"lipschitz": {"value": 1.0, "tol": 1e-8}})
        path = write(tmp_path / "c.json", doc)
        out_dir = tmp_path / "reports"
        assert main(["verify", "--config", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "identity_report.json").exists()
        assert (out_dir / "summary.csv").exists()
        assert "identity" in capsys.readouterr().out

    def test_summary_csv_quotes_a_reason_with_commas(self, tmp_path, capsys):
        # a tabulated V without declared Hessian bounds voids all three bounds
        r = [0.25 * i for i in range(81)]
        (tmp_path / "u.csv").write_text("r,u\n" + "".join(f"{x},{x * x}\n" for x in r))
        doc = identity_doc()
        doc["potentials"]["V"] = {"family": "tabulated", "csv": "u.csv"}
        out = tmp_path / "o"
        assert main(["verify", "--config", write(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 3
        capsys.readouterr()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][4] == "component errors: ['finite_global_sharp', 'global', 'local']"

    def test_directory_of_configs_in_parallel(self, tmp_path):
        d = tmp_path / "suite"
        d.mkdir()
        write(d / "a.json", identity_doc("a"))
        write(d / "b.json", identity_doc("b", R="inf"))
        assert main(["verify", "--config", str(d)]) == 0

    def test_failing_scenario_exits_three(self, tmp_path):
        doc = identity_doc(expected={"lipschitz": {"value": 2.0, "tol": 1e-8}})
        path = write(tmp_path / "c.json", doc)
        assert main(["verify", "--config", path]) == 3

    def test_empty_directory_exits_one(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["verify", "--config", str(d)]) == 1
        assert "no scenarios" in capsys.readouterr().err


class TestSweepCommand:
    def test_uniformity_sweep(self, tmp_path, capsys):
        path = write(tmp_path / "c.json",
                     {"sweep": {"kind": "uniformity", "n_list": [1], "d_max": 6}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert (out / "uniformity.csv").exists()
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["pass"] is True

    def test_unknown_kind_exits_one(self, tmp_path):
        path = write(tmp_path / "c.json", {"sweep": {"kind": "nope"}})
        assert main(["sweep", "--config", path]) == 1

    def test_malformed_scalar_exits_one(self, tmp_path, capsys):
        path = write(tmp_path / "c.json", {"sweep": {"kind": "d_limit", "d": "x"}})
        assert main(["sweep", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("error: sweep.d:")

    @pytest.mark.parametrize("kind,role,key", [("caffarelli_limit", "W", "hess_lower"),
                                               ("caffarelli_limit", "V", "hess_upper"),
                                               ("d_limit", "W", "hess_lower")])
    def test_undeclared_hessian_bound_exits_two(self, tmp_path, capsys, kind, role, key):
        # the first bound raises VoidBound, which main reports in one line
        doc = {"sweep": {"kind": kind, "n": 1},
               "potentials": {role: {"family": "quadratic", key: None}}}
        path = write(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: VoidBound: ") and err.count("\n") == 1

    def test_d_limit_sweep(self, tmp_path):
        path = write(tmp_path / "c.json",
                     {"sweep": {"kind": "d_limit", "n": 1, "d": 1, "R": 1,
                                "D_list": [2, 10, 100, 1000]}})
        out = tmp_path / "o"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert (out / "d_limit.csv").exists()


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


class TestStrictJson:
    def test_equal_parameters_write_strict_json(self, tmp_path, capsys):
        # d = D finite: gamma = +inf appears among the local-bound constants
        path = write(tmp_path / "c.json", identity_doc())
        out = tmp_path / "o"
        assert main(["bounds", "--config", path, "--out", str(out)]) == 0
        texts = [capsys.readouterr().out, (out / "identity_bounds.json").read_text()]
        assert main(["verify", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        texts.append((out / "identity_report.json").read_text())
        sweep = write(tmp_path / "s.json",
                      {"sweep": {"kind": "d_limit", "n": 1, "d": 1, "R": 1,
                                 "D_list": [1, 10, 100, 1000]}})
        # starting at D = d fails the sweep's convergence checks (exit 3);
        # only the report's syntax is under test here
        assert main(["sweep", "--config", sweep, "--out", str(out)]) in (0, 3)
        texts += [capsys.readouterr().out, (out / "sweep_report.json").read_text()]
        docs = [json.loads(t, parse_constant=_reject_constant) for t in texts]
        for doc in docs[:3]:
            local = [b for b in doc["bounds"] if b["regime"] == "local"][0]
            assert local["constants"]["gamma"] == "inf"

