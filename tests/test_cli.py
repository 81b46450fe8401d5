import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ringchain import ChainParams, PerturbationPattern, band_edges, solve_gap
from ringchain.cli import MAX_SWEEP_POINTS, _normalize_argv, _parse_sweep, build_parser, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
GOLDEN_CLI = DATA / "cli_sha256.json"

# edge modes replayed besides the README lines: half-integer flux (by cos
# and by A), a two-vertex curve preset, a long identical array as CSV, an
# unequal distant pair, and the smallest oracle run
EDGE_LINES = [
    "ringchain bands --cosA 0 --alpha 4 --cutoff 2",
    "ringchain bands --A 0.5 --alpha -3 --cutoff 30",
    "ringchain impurity --figure fig5i --curve --cutoff 12",
    "ringchain impurity --cosA 0.7 --alpha 1 --identical -1:20 --format csv",
    "ringchain distant --cosA 0.7 --alpha 1 --g1 -1.5 --g2 -2.5 --n 4,6",
    "ringchain oracle --seed 7 --cases 1",
]
# the README's 20-case oracle line runs the code path of the one-case line
# above twenty times (about 8 s); test_acceptance runs 20 oracle cases
NOT_REPLAYED = ["ringchain oracle --seed 7 --cases 20 --out agreement.csv"]
# oracle columns that come from ARPACK, whose last bits follow the
# BLAS/LAPACK build; every other column comes from the float root path
ARPACK_COLUMNS = {"E_raw", "E_richardson", "err_raw", "err_richardson"}

# a valid command line per command, to which an option is added
VALID = {
    "bands": ["bands", "--cosA", "0.7"],
    "impurity": ["impurity", "--cosA", "0.6", "--gamma", "-2"],
    "weak": ["weak", "--cosA", "0.7", "--gamma", "-1", "--eps", "1e-3"],
    "distant": ["distant", "--cosA", "0.7", "--g1", "-1.5", "--g2", "-1.5", "--n", "4"],
    "oracle": ["oracle", "--cases", "1"],
    "impurity --curve": ["impurity", "--cosA", "0.6", "--alpha", "1", "--curve", "--cutoff", "4"],
    "bands --alpha-sweep": ["bands", "--cosA", "0.7", "--alpha-sweep", "-1:0:0.5"],
    "bands --figure": ["bands", "--figure", "fig3"],
}
# options a command (or one of its modes) does not read, each with a value
REMOVED = [
    ("bands", "--format", "json"), ("bands", "--tol-root", "1e-9"), ("bands", "--seed", "1"),
    ("impurity", "--tol-root", "1e-9"), ("impurity", "--seed", "1"), ("impurity", "--curve-points", "10"),
    ("weak", "--format", "csv"), ("weak", "--tol-root", "1e-9"), ("weak", "--seed", "1"),
    ("distant", "--format", "csv"), ("distant", "--tol-root", "1e-9"), ("distant", "--seed", "1"),
    ("oracle", "--A", "0"), ("oracle", "--cosA", "0.7"), ("oracle", "--alpha", "0"), ("oracle", "--format", "csv"),
    ("oracle", "--tol-root", "1e-9"), ("oracle", "--cutoff", "12"), ("oracle", "--M-levels", "64,128,256"),
    ("impurity --curve", "--identical", "-1:3"), ("impurity --curve", "--format", "csv"),
    ("impurity --curve", "--format", "json"),
    ("bands --alpha-sweep", "--cutoff", "3"), ("bands --figure", "--cutoff", "3"),
]


def readme_command_lines() -> list[str]:
    block = README.read_text().split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.startswith("ringchain ")]


def replayed_lines() -> list[str]:
    return [line for line in readme_command_lines() if line not in NOT_REPLAYED] + EDGE_LINES


def replay(line: str) -> tuple[int, str]:
    """Exit code and stdout of one command line run through main; --out
    is dropped so that the bytes land on stdout."""
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out")
        del argv[i:i + 2]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def record(line: str) -> dict:
    """What data/cli_sha256.json keeps of a line: the exit code, and the
    stdout sha256, or for the oracle the stdout itself."""
    rc, out = replay(line)
    if shlex.split(line)[1] == "oracle":
        return {"exit_code": rc, "stdout": out}
    return {"exit_code": rc, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


def assert_oracle_csv_close(out: str, golden: str) -> None:
    """Config and header lines equal, every row's columns equal except the
    ARPACK ones, which agree to rel 1e-9 (abs 1e-10 for the small errors)."""
    lines, ref = out.splitlines(), golden.splitlines()
    assert lines[:2] == ref[:2] and len(lines) == len(ref)
    rows = csv.DictReader(lines[1:])
    for row, ref_row in zip(rows, csv.DictReader(ref[1:])):
        for col, want in ref_row.items():
            if col in ARPACK_COLUMNS:
                assert float(row[col]) == pytest.approx(float(want), rel=1e-9, abs=1e-10), col
            else:
                assert row[col] == want, col


def regenerated(old: dict | None, new: dict) -> dict:
    """The record a regeneration writes for one line: the old one where
    both are oracle records with one exit code and the new stdout passes
    assert_oracle_csv_close against the old, so that another BLAS/LAPACK
    build's last ARPACK bits rewrite nothing; otherwise the new one."""
    if old is None or "stdout" not in old or "stdout" not in new or old["exit_code"] != new["exit_code"]:
        return new
    try:
        assert_oracle_csv_close(new["stdout"], old["stdout"])
    except AssertionError:
        return new
    return old


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

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["no-directory", "a-directory"])
    def test_unwritable_out_is_a_configuration_error(self, tmp_path, target, capsys):
        # both ended in an OSError traceback and exit 1
        out = tmp_path / target
        assert main(["bands", "--cosA", "0.7", "--alpha", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", ","], "--eps"),
            (["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", ""], "--eps"),
            (["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1", "--g2", "-1", "--n", ","], "--n"),
            (["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1", "--g2", "-1", "--n", ""], "--n"),
        ],
        ids=["eps-comma", "eps-blank", "n-comma", "n-blank"],
    )
    def test_empty_list_is_a_configuration_error(self, argv, option, capsys):
        # each printed an empty per_eps or per_n and exited 0
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {option} needs at least one value\n"

    @pytest.mark.parametrize("sweep", ["0:1:1e-300", "0:1:1e-320", "0:1:1e-7", "-1e308:1e308:1e-5", "0:100001:1"])
    def test_unbounded_sweep_is_a_configuration_error(self, sweep, capsys):
        # 1e-300 overflowed np.arange, and 1e-7 started 10^7 first_band calls
        assert main(["bands", "--cosA", "0.7", f"--alpha-sweep={sweep}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: sweep has more than {MAX_SWEEP_POINTS} points")

    @pytest.mark.parametrize("sweep, want", [("0:1:0.6", [0.0, 0.6]), ("0:1:0.7", [0.0, 0.7]),
                                             ("0:1:0.5", [0.0, 0.5, 1.0])])
    def test_sweep_never_passes_its_upper_end(self, sweep, want):
        # the count used to be rounded: 0:1:0.6 swept on to alpha = 1.2
        assert _parse_sweep(sweep).tolist() == want

    def test_fig3_sweep_keeps_its_rows(self):
        # (2 - -4)/0.01 is exactly 600
        alphas = _parse_sweep("-4:2:0.01")
        assert len(alphas) == 601 and alphas[-1] <= 2.0

    def test_longest_sweep_is_accepted(self):
        alphas = _parse_sweep(f"0:{MAX_SWEEP_POINTS - 1}:1")
        assert len(alphas) == MAX_SWEEP_POINTS and alphas[-1] == MAX_SWEEP_POINTS - 1

    @pytest.mark.parametrize("sweep", ["0:1:nan", "nan:1:0.1", "0:nan:0.1", "0:inf:0.1", "-inf:0:0.1", "0:1:inf"])
    def test_non_finite_sweep_is_a_configuration_error(self, sweep, capsys):
        assert main(["bands", "--cosA", "0.7", f"--alpha-sweep={sweep}"]) == 2
        assert capsys.readouterr().err.startswith("error: sweep needs finite lo, hi and step")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bands", "--cosA", "0.7", "--alpha", "1"],
            ["bands", "--cosA", "0"],
            ["impurity", "--cosA", "0.6", "--alpha", "1", "--gamma", "-2"],
            ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "1e-3"],
            ["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1.5", "--g2", "-1.5", "--n", "4"],
        ],
        ids=["bands", "bands-half-integer", "impurity", "weak", "distant"],
    )
    # the scan grid at cutoff 1e12 would hold about 1.8e8 points per array
    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf", "1e12"])
    def test_non_finite_cutoff_is_a_configuration_error(self, argv, cutoff, capsys):
        assert main(argv + [f"--cutoff={cutoff}"]) == 2
        assert capsys.readouterr().err.startswith("error: cutoff must be finite and at most 1e+06")

    @pytest.mark.parametrize("gamma", ["", "1,2,3"])
    def test_curve_takes_one_or_two_gammas(self, gamma, capsys):
        assert main(VALID["impurity --curve"] + [f"--gamma={gamma}"]) == 2
        assert capsys.readouterr().err == "error: --curve supports one or two gammas\n"

    def test_curve_of_one_gamma_is_the_bare_curve(self, tmp_path):
        # the single-impurity coupling function does not depend on gamma
        (rc1, out1), (rc2, out2) = (run(tmp_path, *VALID["impurity --curve"], *extra, name=name)
                                    for extra, name in (((), "bare"), (("--gamma", "-2"), "one")))
        assert rc1 == rc2 == 0 and out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("cos_flux, alpha, code", [
        ("0.7", 451, 0), ("0.7", -451, 0), ("0.05", 451, 0), ("0.05", -451, 0),
        ("0.7", 453, 2), ("0.7", -453, 2), ("0.7", 1000, 2), ("0.7", -1000, 2),
    ])
    def test_large_alpha_is_a_layout_or_a_configuration_error(self, cos_flux, alpha, code):
        # cosh(|alpha|*pi/2) overflows a float at the scan floor past
        # |alpha| = 451.86: numpy warnings reached stderr from 452 on (from
        # 451 at small cos(A*pi)), and from 905 on a traceback with exit 1
        path = [str(Path(__file__).parents[1] / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-m", "ringchain.cli", "bands", "--cosA", cos_flux, f"--alpha={alpha}"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == "" and json.loads(proc.stdout)["bands"]
        else:
            assert proc.stderr.startswith(f"error: coupling {float(alpha)} out of range"), proc.stderr
            assert "above |coupling| = 451.862" in proc.stderr
            assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    def test_bad_gap_index(self, capsys):
        argv = ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "1e-3", "--gap", "99"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --gap 99 out of range")

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "1e-3", "--gap", "-1"],
            ["distant", "--cosA", "0.7", "--g1", "-1.5", "--g2", "-1.5", "--n", "4", "--gap", "99"],
            ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "2"],
            ["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1.5", "--g2", "-1.5", "--n", "-3"],
            ["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1.5", "--g2", "-1.5", "--n", "2.5"],
            ["distant", "--cosA", "0.7", "--g1", "0", "--g2", "-1.5", "--n", "4"],
            ["bands", "--cosA", "2"],
            ["impurity", "--cosA", "0.6", "--gamma", "nan"],
            ["distant", "--cosA", "0.7", "--g1", "nan", "--g2", "-1.5", "--n", "4"],
            ["distant", "--cosA", "0.7", "--g1", "-1.5", "--g2", "inf", "--n", "4"],
            ["oracle", "--seed", "-1", "--cases", "1"],
            ["oracle", "--cases", "-1"],
        ],
        ids=["gap-negative", "distant-gap-99", "eps-2", "n-negative", "n-fractional", "g1-zero", "cosA-2", "gamma-nan",
             "g1-nan", "g2-inf", "oracle-seed-negative", "oracle-cases-negative"],
    )
    def test_invalid_value_is_a_configuration_error(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["weak", "--cosA", "0.7", "--alpha", "1", "--gamma", "-1", "--eps", "1e-3,1e-3,1e-3,1e-3"],
            ["distant", "--cosA", "0.7", "--alpha", "1", "--g1", "-1", "--g2", "-1", "--n", "4,4,4,4"],
        ],
        ids=["weak", "distant"],
    )
    def test_fit_on_repeated_values_is_a_numeric_failure(self, argv, capsys):
        # four equal values used to print a fit with r2 = 1.0 and exit 0
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numeric failure: need at least 4 distinct")

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command,option,value", REMOVED)
    def test_unused_option_rejected(self, command, option, value):
        build_parser().parse_args(_normalize_argv(VALID[command]))   # valid without the option
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
        lines = readme_command_lines()
        assert len(lines) >= 7
        for line in lines:
            build_parser().parse_args(_normalize_argv(shlex.split(line)[1:]))


class TestGoldenBytes:
    """Stdout and exit codes of the README lines and the edge modes,
    against data/cli_sha256.json: byte digests, except for the oracle,
    whose ARPACK columns are compared within a tolerance.  Regenerate the
    file with

        PYTHONPATH=src python tests/test_cli.py

    only when a change is meant to move CLI output; it prints each
    recorded value it changes (line, field, old -> new) before writing,
    and keeps an oracle record that this test accepts as it stands."""

    def test_every_line_is_recorded(self):
        assert set(NOT_REPLAYED) <= set(readme_command_lines())
        assert sorted(json.loads(GOLDEN_CLI.read_text())) == sorted(replayed_lines())

    @pytest.mark.parametrize("line", replayed_lines())
    def test_stdout_and_exit_code(self, line):
        golden = json.loads(GOLDEN_CLI.read_text())[line]
        rc, out = replay(line)
        assert rc == golden["exit_code"]
        if "stdout" in golden:
            assert_oracle_csv_close(out, golden["stdout"])
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == golden["stdout_sha256"]


class TestRegeneration:
    """What `python tests/test_cli.py` writes for the oracle line: the
    recorded stdout, unless an ARPACK column moved beyond what
    TestGoldenBytes accepts or the exit code changed."""

    LINE = "ringchain oracle --seed 7 --cases 1"

    @staticmethod
    def _moved(rec, rel, exit_code=None):
        """rec with the first row's E_raw scaled by 1 + rel."""
        lines = rec["stdout"].splitlines(keepends=True)
        fields = lines[2].split(",")
        col = lines[1].split(",").index("E_raw")
        fields[col] = repr(float(fields[col]) * (1.0 + rel))
        lines[2] = ",".join(fields)
        return {"exit_code": rec["exit_code"] if exit_code is None else exit_code, "stdout": "".join(lines)}

    def test_close_oracle_record_is_kept(self):
        old = json.loads(GOLDEN_CLI.read_text())[self.LINE]
        near = self._moved(old, 1e-12)
        assert near != old and regenerated(old, near) is old

    def test_moved_oracle_record_is_rewritten(self):
        old = json.loads(GOLDEN_CLI.read_text())[self.LINE]
        for new in (self._moved(old, 1e-6), self._moved(old, 1e-12, exit_code=1)):
            assert regenerated(old, new) is new
        digest = {"exit_code": 0, "stdout_sha256": "0" * 64}
        assert regenerated(None, old) is old and regenerated(digest, old) is old
        assert regenerated(old, digest) is digest


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


if __name__ == "__main__":
    from recorded_changes import changes

    old = json.loads(GOLDEN_CLI.read_text()) if GOLDEN_CLI.exists() else {}
    records = {}
    for line in replayed_lines():
        new = record(line)
        records[line] = regenerated(old.get(line), new)
        if records[line] is not new and records[line] != new:
            print(f"kept {line}: its ARPACK columns moved within the tolerance TestGoldenBytes allows")
    print("\n".join(changes(old, records)) or "no recorded value changes")
    GOLDEN_CLI.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {GOLDEN_CLI}", file=sys.stderr)
