import json
import shlex
from pathlib import Path

import pytest

from ringchain import ChainParams, PerturbationPattern, band_edges, solve_gap
from ringchain.cli import _normalize_argv, build_parser, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"

# a valid command line per command, to which an option is added
VALID = {
    "bands": ["bands", "--cosA", "0.7"],
    "impurity": ["impurity", "--cosA", "0.6", "--gamma", "-2"],
    "weak": ["weak", "--cosA", "0.7", "--gamma", "-1", "--eps", "1e-3"],
    "distant": ["distant", "--cosA", "0.7", "--g1", "-1.5", "--g2", "-1.5", "--n", "4"],
    "oracle": ["oracle", "--cases", "1"],
}
# options a command does not read, each with a value
REMOVED = [
    ("bands", "--format", "json"), ("bands", "--tol-root", "1e-9"), ("bands", "--seed", "1"),
    ("impurity", "--tol-root", "1e-9"), ("impurity", "--seed", "1"), ("impurity", "--curve-points", "10"),
    ("weak", "--format", "csv"), ("weak", "--tol-root", "1e-9"), ("weak", "--seed", "1"),
    ("distant", "--format", "csv"), ("distant", "--tol-root", "1e-9"), ("distant", "--seed", "1"),
    ("oracle", "--A", "0"), ("oracle", "--cosA", "0.7"), ("oracle", "--alpha", "0"), ("oracle", "--format", "csv"),
    ("oracle", "--tol-root", "1e-9"), ("oracle", "--cutoff", "12"), ("oracle", "--M-levels", "64,128,256"),
]


def run(tmp_path, *argv, name="out"):
    out = tmp_path / name
    rc = main(list(argv) + ["--out", str(out)])
    return rc, out


class TestExitCodes:
    def test_both_flux_flags(self):
        assert main(["bands", "--A", "0", "--cosA", "0.7"]) == 2

    def test_missing_flux(self):
        assert main(["bands", "--alpha", "1"]) == 2

    def test_missing_pattern(self):
        assert main(["impurity", "--A", "0", "--alpha", "1"]) == 2

    def test_bad_sweep_spec(self):
        assert main(["bands", "--cosA", "0.7", "--alpha-sweep", "nope"]) == 2

    def test_bad_gap_index(self):
        assert (
            main(
                ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "1e-3", "--gap", "99"]
            )
            == 3
        )

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command,option,value", REMOVED)
    def test_unused_option_rejected(self, command, option, value):
        build_parser().parse_args(VALID[command])   # valid without the option
        assert main(VALID[command] + [option, value]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["impurity", "--figure", "fig4i", "--cosA", "-0.2", "--alpha", "5", "--curve"],
            ["impurity", "--figure", "fig4i", "--alpha", "5", "--curve"],
            ["impurity", "--figure", "fig5i", "--gamma", "-2"],
            ["bands", "--figure", "fig3", "--A", "0.3"],
            ["bands", "--figure", "fig3", "--alpha", "1"],
            ["bands", "--cosA", "0.7", "--alpha", "1", "--alpha-sweep", "-1:0:0.5"],
        ],
    )
    def test_preset_does_not_override_explicit_input(self, argv):
        assert main(argv) == 2

    def test_readme_command_lines_parse(self):
        block = README.read_text().split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("ringchain ")]
        assert len(lines) >= 7
        for argv in lines:
            build_parser().parse_args(_normalize_argv(argv[1:]))


class TestBands:
    def test_free_chain_layout(self, tmp_path):
        rc, out = run(tmp_path, "bands", "--A", "0", "--alpha", "0", "--cutoff", "10")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["bands"] == [[0.0, 10.0]]
        assert [f["E"] for f in doc["flat"]] == [1.0, 4.0, 9.0]
        assert doc["gaps"][0][0] is None

    def test_half_integer_layout(self, tmp_path):
        rc, out = run(tmp_path, "bands", "--cosA", "0", "--alpha", "4", "--cutoff", "2")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["regime"] == "half_integer_flux"
        assert doc["bands"] == [] and doc["gaps"] == []
        assert len(doc["flat"]) >= 2
        assert all((f["tag"] == "integer_k") == (f["E"] == 1.0) for f in doc["flat"])

    def test_fig3_golden_regression(self, tmp_path):
        rc, out = run(tmp_path, "bands", "--figure", "fig3")
        assert rc == 0
        assert out.read_bytes() == (DATA / "fig3_band0.csv").read_bytes()

    def test_sweep_deterministic(self, tmp_path):
        rc1, out1 = run(tmp_path, "bands", "--cosA", "0.7", "--alpha-sweep", "-1:0:0.1", name="a")
        rc2, out2 = run(tmp_path, "bands", "--cosA", "0.7", "--alpha-sweep", "-1:0:0.1", name="b")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fig3_preset_with_own_sweep(self, tmp_path):
        rc, out = run(tmp_path, "bands", "--figure", "fig3", "--alpha-sweep", "-1:0:0.5")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config: bands alpha-sweep cosA=0.69999999999999996 sweep=-1:0:0.5")
        assert len(lines) == 5

    def test_csv_has_header_and_config_comment(self, tmp_path):
        _, out = run(tmp_path, "bands", "--cosA", "0.7", "--alpha-sweep", "-1:0:0.5")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "alpha,band0_lo,band0_hi"


class TestImpurity:
    def test_single_state_matches_library(self, tmp_path):
        rc, out = run(
            tmp_path, "impurity", "--cosA", "0.6", "--alpha", "1", "--gamma", "-2", "--cutoff", "12"
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        gap0 = doc["gaps"][0]
        assert len(gap0["states"]) == 1
        p = ChainParams.from_cos_flux(0.6, 1.0)
        layout = band_edges(p, 12.0)
        expected = solve_gap(PerturbationPattern.single(-2.0), layout.gaps[0], p)[0].E
        assert gap0["states"][0]["E"] == pytest.approx(expected, abs=1e-12)

    def test_identical_shorthand(self, tmp_path):
        rc, out = run(
            tmp_path, "impurity", "--cosA", "0.6", "--alpha", "1", "--identical", "-1.5:3",
            "--cutoff", "12",
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pattern"] == [-1.5, -1.5, -1.5]

    def test_fig4_curve_monotone_per_gap(self, tmp_path):
        rc, out = run(tmp_path, "impurity", "--figure", "fig4ii", "--curve", "--cutoff", "12")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "gap_index,E,f"
        by_gap = {}
        for row in lines[2:]:
            gi, E, f = row.split(",")
            by_gap.setdefault(int(gi), []).append((float(E), float(f)))
        for gi, pts in by_gap.items():
            fs = [f for _, f in pts]
            assert all(b > a for a, b in zip(fs, fs[1:]))

    def test_fig5_curves_do_not_cross(self, tmp_path):
        rc, out = run(
            tmp_path, "impurity", "--cosA", "-0.6", "--alpha", "1", "--gamma", "3,1", "--curve",
            "--cutoff", "12",
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "gap_index,E,f_minus,f_plus"
        by_gap = {}
        for row in lines[2:]:
            gi, E, fm, fp = row.split(",")
            by_gap.setdefault(int(gi), []).append((float(fm), float(fp)))
        for pts in by_gap.values():
            diffs = [fm - fp for fm, fp in pts]
            assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)

    def test_fig5_preset_matches_explicit(self, tmp_path):
        rc1, out1 = run(tmp_path, "impurity", "--figure", "fig5i", "--curve", name="preset")
        rc2, out2 = run(
            tmp_path, "impurity", "--cosA", "-0.6", "--alpha", "1", "--gamma", "3,1", "--curve",
            name="explicit",
        )
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format_option(self, tmp_path):
        rc, out = run(
            tmp_path, "impurity", "--cosA", "0.6", "--alpha", "1", "--gamma", "-2",
            "--cutoff", "12", "--format", "csv",
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "gap_index,E,residual"


class TestWeakDistant:
    def test_weak_report_structure(self, tmp_path):
        rc, out = run(
            tmp_path, "weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1",
            "--eps", "1e-2,5e-3,2.5e-3,1.25e-3",
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"gamma", "gamma_sum", "gap_index", "per_eps", "edge_distance_fit"}
        assert doc["edge_distance_fit"]["slope"] == pytest.approx(2.0, abs=0.1)
        assert set(doc["edge_distance_fit"]) == {"slope", "intercept", "r2", "points"}

    def test_distant_report_structure(self, tmp_path):
        rc, out = run(
            tmp_path, "distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1.5", "--g2", "-1.5",
            "--n", "4,6,8,10",
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["splitting_fit"]["slope"] == pytest.approx(doc["log_lambda_reference"], rel=0.1)
        assert all(len(e["roots"]) == 2 for e in doc["per_n"])


class TestOracleCommand:
    def test_small_run_matches_and_is_deterministic(self, tmp_path):
        args = ["oracle", "--seed", "11", "--cases", "1"]
        rc1, out1 = run(tmp_path, *args, name="a")
        rc2, out2 = run(tmp_path, *args, name="b")
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("# config: oracle seed=11")
        assert all(row.split(",")[-1] == "1" for row in lines[2:])
