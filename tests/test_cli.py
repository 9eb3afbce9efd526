import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thetacycles.cli as cli
import thetacycles.lierep as lierep
import thetacycles.schottky as schottky
from thetacycles.cli import _dumps, run
from thetacycles.cycles import CleanCycleModel, point_component
from thetacycles.lambdaring import (
    FgAbelianGroup, GroupRingElement, gr_adams, gr_multiply, lambda_op, schur_apply, sym_op)
from thetacycles.schottky import PpavInput, cc_odp, theta_target
from thetacycles.symfun import SymExpr, elementary_to_powersum, schur_to_powersum

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")
SCHEMA_DIR = os.path.join(SRC_DIR, "thetacycles", "schemas")


ELEMENT = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[-1], 1]]}
POINT = {"label": "x", "dim": 0, "mult": 1, "cm": ["1", "0", "0"], "gauss_finite": True}
CYCLE = {"g": 3, "components": [POINT]}
# sha256 of the cycle-schur output in TestCycleFiles.test_cycle_schur, 5863394
# bytes, as written by json.dumps(payload, sort_keys=True, indent=2) + "\n";
# its cm entries above d_trunc = 1 are "0" and its component's dim is 1
CYCLE_SCHUR_SHA256 = "af4afd4768feb5109343f56ae0fbc83200dee79e8c22ba61f27b7390201a1859"
# sha256 of the fourfold-table JSON (2400 bytes) and CSV (173 bytes) outputs
FOURFOLD_JSON_SHA256 = "12d88b34e3b31b2401e58bd94e3166bef8cf9a3b4f0326d2b32692d1e4e98f7d"
FOURFOLD_CSV_SHA256 = "1dec96b0820ec0884ec3b443b5e456898d3262f1a845f6dab371f50b4b7859b1"
# sha256 of `cc-odp --g 6` with --k 1 --gauss-finite and with --k 2 --sum-zero
# (3.4 MB each), and of `simplicity` on them with --m-bound 2 and 4 (266 and
# 277 bytes), as written when criterion 3 pushed the whole cycle and cc_odp
# canonicalized its keys
GENUS6_CYCLE_SHA256 = (
    "93e2fd0d44325b502ddea65ad6278f93b6aac38b54505f48babe77643a6e633e",
    "80b99d2aa7477ca22939a629b84201eeafae34db3dab8367f9318c9ed8765a1d",
)
GENUS6_SIMPLICITY_SHA256 = (
    "cabac232eb63f92e89535697b17c360e2005fd64348ec2ae5cb970fc51ee55c2",
    "258239a4a64cafcb0b066adfd9d41f79fff8b3480e279c7746f5cd40a48d21c1",
)
# the Schur operation s_(2,1) on an element of Z + Z/2 + Z/4, lambda-eval's input
SCHUR_21_INPUT = {
    "op": {"kind": "schur", "alpha": [2, 1]},
    "element": {"group": {"rank": 1, "torsion": [2, 4]},
                "coeffs": [[[1, 1, 3], 1], [[0, 0, 1], 2], [[-1, 1, 0], 1]]},
}
# sha256 of `genus5`, the same for every k the subcommand accepts and with or
# without --gauss-finite, as written when the obstruction solved its own
# degree-one equation
GENUS5_SHA256 = "63441d429343943e31c2b6ca7aae36d12e4980352d49259fee06efd692b2d89b"
# argv, exit code and sha256 of the fourfold-table outputs, of each README
# invocation that reads no earlier output, of a power-sum expansion and of
# lambda-eval on SCHUR_21_INPUT
OUTPUT_SHA256 = [
    (["fourfold-table"], 0, FOURFOLD_JSON_SHA256),
    (["--format", "csv", "fourfold-table"], 0, FOURFOLD_CSV_SHA256),
    (["rep-dim", "A5", "0,0,1,0,0"], 0,
     "79bfeaa19c8e6e27bd9f74ea6b23643223a28c3b50a44c10dd63e56b8b2dcf69"),
    (["genus5"], 1, GENUS5_SHA256),
    *((["genus5", "--k", str(k)] + flag, 1, GENUS5_SHA256)
      for k in (0, 3, 59) for flag in ([], ["--gauss-finite"])),
    (["fourfold-table", "--format", "csv"], 0, FOURFOLD_CSV_SHA256),
    (["theta-group", "--g", "5", "--k", "2", "--sum-zero"], 0,
     "676f2df1d0ab33182893cc6dbfd94ca01fc4c0dd810cd8f3b21538c0dc3cd965"),
    (["fake-jacobian", "--g", "5", "--degree", "70"], 0,
     "2772a1150339f36dbf775d17565193cd7cfc480f3927379bf6ef5b613a317408"),
    (["qm-search", "--dim", "118", "--max-rank", "20"], 0,
     "34f3262bb66385b2934a392282e3dea022d5a4d7dc43d703a1b115459328adac"),
    (["s-sets", "--bound", "10000"], 0,
     "95dc1f0268d99f75eed11f2b16add242b581c4ebb819241c14d5d45dbae55c6e"),
    (["rep-classify", "--max-rank", "8", "--max-dim", "600", "--format", "csv"], 0,
     "1047351671fdee1155a8c5cc6a62ca49bff569e87e0849508cb2c8cfaeb8cb17"),
    # 3,383 rows, 766,039 bytes, as written item by item before the row writer
    (["rep-classify", "--max-rank", "10", "--max-dim", "3000"], 0,
     "9e45e1c51c3040683adfa18cd470506ed3e79bd2b6274e7e667f1276d888f1d4"),
    (["wmf-tables", "--format", "csv"], 0,
     "13b7ef8ea88300b79d2302c3922217530f5e417de3d2f2aa87e9f0c48fe4438d"),
    (["symfun", "schur", "1,1,1,1"], 0,
     "d0ccc93143dff3785224466e93b3d6c808cfa50fd07bceef8b5810c809b42a80"),
    (["symfun", "elementary", "12"], 0,
     "c324c090adea066f6d8363e9743f71edb0b79f20cf3800c7b714525ee2700d19"),
    (["lambda-eval", "--input", "lambda.json"], 0,
     "081555d76bb3290c5d2ee65353161fe6336c2897d8b55bfa402343bb73ef527e"),
    # characters whose weights are listed orbit by orbit: E8 varpi_1, A14
    # varpi_5, D7 varpi_6, B5 2 varpi_1 + varpi_5 and C4 varpi_1 + varpi_3
    (["rep-char", "E8", "1,0,0,0,0,0,0,0"], 0,
     "529f606a986d20e97653f12fa92f6f92198139a57d7517659eb7312f82b2c4db"),
    (["rep-char", "A14", "0,0,0,0,1,0,0,0,0,0,0,0,0,0"], 0,
     "cbc4d9043b4a4afa84566ca1ce77914246b44829c8d2bc2703e44a0730af5304"),
    (["rep-char", "D7", "0,0,0,0,0,1,0"], 0,
     "e5a09343d44c7d0a20afa070acaf2f79c761d44414970c1e799a8d1a5dbc52af"),
    (["rep-char", "B5", "2,0,0,0,1"], 0,
     "dc9c6d5dbd14f71d716939a86b884d5efc737e42eecbb5165f1a38e04de8de46"),
    (["--format", "csv", "rep-char", "C4", "1,0,1,0"], 0,
     "831e7f1ba9d3c000cb0108cc8909c3019dd05fe35cd28c80f734c41cd3b5f971"),
]
# sha256 of the README's `cc-odp --g 5 --k 2 --sum-zero --gauss-finite` and
# of `simplicity --divisor theta` on it
GENUS5_CYCLE_SHA256 = "3bffdb44266b948d6c74169d7d0e600785c77e260c8dafea2969060561519d8e"
GENUS5_SIMPLICITY_SHA256 = "216b476838c276865d2b5aa9a2f0212d3c1d326326f843ca09dee579bce9a4f6"


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, f"{name}.schema.json")) as fh:
        return json.load(fh)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, schema, *argv):
    code, out = invoke(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema))
    return code, payload


class TestSymfun:
    def test_schur(self, capsys):
        code, payload = invoke_json(capsys, "symfun", "symfun", "schur", "1,1")
        assert code == 0
        assert payload["terms"] == [[[2], "-1/2"], [[1, 1], "1/2"]]

    def test_partitions(self, capsys):
        code, payload = invoke_json(capsys, "symfun", "symfun", "partitions", "4")
        assert code == 0
        assert len(payload["partitions"]) == 5

    def test_elementary(self, capsys):
        code, payload = invoke_json(capsys, "symfun", "symfun", "elementary", "3")
        assert code == 0


class TestRepCommands:
    def test_rep_dim_20(self, capsys):
        code, payload = invoke_json(capsys, "rep_dim", "rep-dim", "A5", "0,0,1,0,0")
        assert code == 0 and payload["dim"] == 20

    def test_rep_dim_text(self, capsys):
        code, out = invoke(capsys, "--format", "text", "rep-dim", "A5", "0,0,1,0,0")
        assert code == 0 and out.strip() == "20"

    def test_rep_char(self, capsys):
        code, payload = invoke_json(capsys, "rep_char", "rep-char", "A2", "1,1")
        assert code == 0
        assert sum(m for _, m in payload["weights"]) == 8

    @pytest.mark.parametrize("name, weight", [
        ("A1", "3"), ("G2", "1,1"), ("C3", "0,1,0"), ("D4", "1,0,1,0"),
        ("E8", "0,0,0,0,0,0,0,1")])
    def test_rep_char_matches_json_dumps(self, capsys, name, weight):
        # the character's to_json goes to the writer with its pairs as tuples
        code, out = invoke(capsys, "rep-char", name, weight)
        ch = lierep.freudenthal_character(lierep.root_system(name),
                                          tuple(map(int, weight.split(","))))
        assert (code, out) == (0, json.dumps(ch.to_json(), sort_keys=True, indent=2) + "\n")

    def test_rep_char_csv(self, capsys):
        code, out = invoke(capsys, "--format", "csv", "rep-char", "A2", "1,0")
        assert (code, out) == (0, "weight,multiplicity\n-1 1,1\n0 -1,1\n1 0,1\n")

    def test_rep_classify(self, capsys):
        code, payload = invoke_json(
            capsys, "rep_classify", "rep-classify", "--max-rank", "3", "--max-dim", "30"
        )
        assert code == 0
        assert any(r["dim"] == 14 and r["type"] == "C3" for r in payload["rows"])

    def test_wmf_tables_csv(self, capsys):
        code, out = invoke(
            capsys, "--format", "csv", "wmf-tables", "--max-rank", "3", "--max-dim", "15"
        )
        assert code == 0
        assert out.startswith("table,family,G,dimW")

    def test_qm_search(self, capsys):
        code, payload = invoke_json(
            capsys, "qm_search", "qm-search", "--dim", "7", "--max-rank", "3"
        )
        assert code == 0
        assert {"type": "G2", "weight": [1, 0]} in payload["matches"]


class TestThetaCommands:
    def test_theta_group(self, capsys):
        code, payload = invoke_json(
            capsys, "theta_group", "theta-group", "--g", "4", "--k", "1"
        )
        assert code == 0 and payload["label"] == "Sp22"

    def test_cc_odp(self, capsys):
        code, payload = invoke_json(
            capsys, "cc_odp", "cc-odp", "--g", "5", "--k", "2", "--sum-zero"
        )
        assert code == 0
        assert len(payload["components"]) == 3

    def test_genus5_exits_one(self, capsys):
        code, payload = invoke_json(capsys, "genus5", "genus5")
        assert code == 1
        assert payload["c1_coefficient"] == "96/5"
        assert payload["integral"] is False

    def test_fourfold_table(self, capsys):
        code, payload = invoke_json(capsys, "fourfold_table", "fourfold-table")
        assert code == 0
        assert len(payload["rows"]) == 4

    def test_fourfold_table_csv(self, capsys):
        code, out = invoke(capsys, "--format", "csv", "fourfold-table")
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_fourfold_table_computed_once(self, capsys, monkeypatch, fmt):
        calls = {"table": 0, "csv": 0}
        table, table_csv = schottky.fourfold_table, schottky.fourfold_table_csv

        def counted_table():
            calls["table"] += 1
            return table()

        def counted_csv(rows):
            calls["csv"] += 1
            return table_csv(rows)

        for module in (cli, schottky):
            monkeypatch.setattr(module, "fourfold_table", counted_table)
            monkeypatch.setattr(module, "fourfold_table_csv", counted_csv)
        assert run(["--format", fmt, "fourfold-table"]) == 0
        capsys.readouterr()
        assert calls == {"table": 1, "csv": int(fmt == "csv")}

    @pytest.mark.parametrize("argv,exit_code,digest", OUTPUT_SHA256, ids=[
        "json", "csv", "rep-dim", "genus5",
        *(f"genus5-k{k}{flag}" for k in (0, 3, 59) for flag in ("", "-gauss-finite")),
        "readme-csv", "theta-group", "fake-jacobian",
        "qm-search", "s-sets", "rep-classify", "rep-classify-json", "wmf-tables",
        "symfun-schur",
        "symfun-elementary", "lambda-eval", "rep-char-E8", "rep-char-A14", "rep-char-D7",
        "rep-char-B5", "rep-char-C4-csv"])
    def test_fourfold_table_bytes(self, capsys, monkeypatch, tmp_path, argv, exit_code,
                                  digest):
        (tmp_path / "lambda.json").write_text(json.dumps(SCHUR_21_INPUT))
        monkeypatch.chdir(tmp_path)
        code, out = invoke(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gauss_finite_flag(self, capsys):
        def both(*argv):
            return [invoke(capsys, "theta-group", *argv, *flag) for flag in ([], ["--gauss-finite"])]

        plain, finite = both("--g", "4", "--k", "2")
        assert plain != finite
        assert json.loads(plain[1])["label"] == "undetermined: exceptional dimension 20 in S-"
        assert json.loads(finite[1])["label"] == "Sp20"
        plain, finite = both("--g", "4", "--k", "1")
        assert plain == finite
        assert invoke(capsys, "theta-group", "--g", "4", "--k", "2", "--gauss-finite",
                      "--format", "text") == (0, "Sp20\n")

    def test_s_sets(self, capsys):
        code, payload = invoke_json(capsys, "s_sets", "s-sets", "--bound", "100")
        assert code == 0
        assert payload["s_minus"] == [2, 4, 20, 32, 56, 64]


class TestFakeJacobian:
    def test_solvable(self, capsys):
        code, payload = invoke_json(
            capsys, "fake_jacobian", "fake-jacobian", "--g", "5", "--degree", "70"
        )
        assert code == 0 and payload["c0"] == 8

    def test_infeasible_exits_one(self, capsys):
        code, payload = invoke_json(
            capsys, "fake_jacobian", "fake-jacobian", "--g", "5", "--degree", "69"
        )
        assert code == 1 and payload["feasible"] is False

    @pytest.mark.parametrize("cm1, c1", [(None, "96/5"), ("1/2", "2/5"), ("384", "1536/5")])
    def test_cm1_replaces_the_degree_one_class(self, capsys, cm1, c1):
        # c1 = e^2 cm1 / K with e = 4 and K = 20; without --cm1 the target's
        # own class, 24, is used
        argv = ["fake-jacobian", "--g", "5", "--degree", "70"]
        code, payload = invoke_json(
            capsys, "fake_jacobian", *argv, *(["--cm1", cm1] if cm1 else []))
        assert code == 0 and payload["c1_coefficient"] == c1


class TestSummandAndSimplicity:
    def test_summand(self, capsys):
        code, payload = invoke_json(
            capsys, "summand_bound", "summand-bound", "--dims", "2", "--dz", "3"
        )
        assert code == 0 and payload["delta"] == "1"

    def test_summand_exclusion_exits_one(self, capsys):
        code, payload = invoke_json(
            capsys, "summand_bound", "summand-bound", "--dims", "5", "--dz", "5"
        )
        assert code == 1 and payload["no_decomposition"] is True

    @pytest.mark.parametrize("cycle_argv,simplicity_argv,cycle_digest,digest", [
        (["--g", "6", "--k", "1", "--gauss-finite"], ["--m-bound", "2"],
         GENUS6_CYCLE_SHA256[0], GENUS6_SIMPLICITY_SHA256[0]),
        (["--g", "6", "--k", "2", "--sum-zero"], ["--m-bound", "4"],
         GENUS6_CYCLE_SHA256[1], GENUS6_SIMPLICITY_SHA256[1]),
        (["--g", "5", "--k", "2", "--sum-zero", "--gauss-finite"], ["--divisor", "theta"],
         GENUS5_CYCLE_SHA256, GENUS5_SIMPLICITY_SHA256),
    ], ids=["finite", "sum-zero", "readme-g5"])
    def test_genus6_bytes(self, capsys, tmp_path, cycle_argv, simplicity_argv, cycle_digest,
                          digest):
        code, out = invoke(capsys, "cc-odp", *cycle_argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == cycle_digest
        cycle_path = tmp_path / "cycle.json"
        cycle_path.write_text(out)
        code, out = invoke(capsys, "simplicity", "--input", str(cycle_path), *simplicity_argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_simplicity_roundtrip(self, capsys, tmp_path):
        code, out = invoke(capsys, "cc-odp", "--g", "5", "--k", "2", "--sum-zero",
                           "--gauss-finite")
        cycle_path = tmp_path / "cycle.json"
        cycle_path.write_text(out)
        code, payload = invoke_json(
            capsys, "simplicity", "simplicity", "--input", str(cycle_path)
        )
        assert code == 0
        assert payload["established"] is True


class TestCycleFiles:
    def test_convolve(self, capsys, tmp_path):
        _, theta = invoke(capsys, "cc-odp", "--g", "4", "--k", "0", "--gauss-finite")
        c = json.loads(theta)
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"c1": c, "c2": c, "d_trunc": 3}))
        code, payload = invoke_json(
            capsys, "cycle_convolve", "cycle-convolve", "--input", str(path)
        )
        assert code == 0
        total = sum(
            comp["mult"] * int(comp["cm"][0]) for comp in payload["components"]
        )
        assert total == 24 * 24

    def test_cycle_schur(self, capsys, tmp_path):
        _, theta = invoke(capsys, "cc-odp", "--g", "5", "--k", "0", "--gauss-finite")
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps({"cycle": json.loads(theta), "alpha": [1, 1], "d_trunc": 1})
        )
        code, out = invoke(capsys, "cycle-schur", "--input", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CYCLE_SCHUR_SHA256
        jsonschema.validate(json.loads(out), load_schema("cycle_schur"))

    def test_invalid_cycle_rejected(self, capsys, tmp_path):
        bad = {
            "g": 3,
            "components": [
                {"label": "x", "dim": 1, "mult": 1, "cm": ["2", "1", "1"],
                 "gauss_finite": False}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c1": bad, "c2": bad, "d_trunc": 1}))
        code, out = invoke(capsys, "cycle-convolve", "--input", str(path))
        assert code == 2

    def test_non_integral_verdict(self, capsys, tmp_path):
        # cm_1 = 1/3 gives lambda^4 a degree-1 class 20/3: no clean cycle has
        # these classes, the one "no" a Schur operation can answer
        comp = {"label": "c", "dim": 1, "mult": 1, "cm": ["8", "1/3", "0", "0", "0"],
                "gauss_finite": True}
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"cycle": {"g": 5, "components": [comp]},
                                    "alpha": [1, 1, 1, 1], "d_trunc": 1}))
        code, payload = invoke_json(capsys, "cycle_schur", "cycle-schur", "--input", str(path))
        assert code == 1
        assert payload == {"error": "non-integral result", "detail": (
            "schur_cycle((1,1,1,1)) has non-integral Chern-Mather coordinates "
            "at indices [1]: ['20/3']")}

    @staticmethod
    def _refused(capsys, argv, doc, tmp_path, named):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = run(argv + ["--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err

    def test_hypothesis_string_refused(self, capsys, tmp_path):
        # "false" is a string, not false: read by truthiness it made the theta
        # divisor's Gauss map finite
        _, theta = invoke(capsys, "cc-odp", "--g", "4", "--k", "0", "--gauss-finite")
        cycle = json.loads(theta)
        for comp in cycle["components"]:
            if comp["label"] == "theta":
                comp["gauss_finite"] = "false"
        self._refused(capsys, ["simplicity"], cycle, tmp_path, "'gauss_finite'")

    def test_convolve_hypothesis_string_refused(self, capsys, tmp_path):
        # "no" made one factor all Gauss-finite, so d_trunc = 2 was accepted
        curve = {"label": "c", "dim": 1, "mult": 1, "cm": ["2", "1", "0"],
                 "gauss_finite": False}
        doc = {"c1": {"g": 3, "components": [dict(curve, gauss_finite="no")]},
               "c2": {"g": 3, "components": [curve]}, "d_trunc": 2}
        self._refused(capsys, ["cycle-convolve"], doc, tmp_path, "'gauss_finite'")

    @pytest.mark.parametrize("entry", [0.5, True], ids=["float", "bool"])
    def test_cm_entry_type_refused(self, capsys, tmp_path, entry):
        # 0.5 and true were read as 1/2 and 1, and cycle-schur answered a
        # mathematical "no" about a class nobody wrote
        comp = {"label": "c", "dim": 1, "mult": 1, "cm": ["1", entry, "0"],
                "gauss_finite": False}
        doc = {"cycle": {"g": 3, "components": [comp]}, "alpha": [1, 1], "d_trunc": 1}
        self._refused(capsys, ["cycle-schur"], doc, tmp_path, "'cm' entries")

    def test_label_type_refused(self, capsys, tmp_path):
        doc = {"c1": {"g": 3, "components": [dict(POINT, label=5)]}, "c2": CYCLE,
               "d_trunc": 1}
        self._refused(capsys, ["cycle-convolve"], doc, tmp_path, "'label'")

    def test_fiber_degree_mismatch_rejected(self, capsys, tmp_path):
        bad = {
            "g": 3,
            "components": [
                {"label": "x", "dim": 0, "mult": 1, "cm": ["1", "0", "0"],
                 "gauss_finite": True}
            ],
            "fiber": {"group": {"rank": 1, "torsion": []},
                      "coeffs": [[[0], 2]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"c1": bad, "c2": bad, "d_trunc": 1}))
        code, _ = invoke(capsys, "cycle-convolve", "--input", str(path))
        assert code == 2


class TestLambdaEval:
    def test_adams(self, capsys, tmp_path):
        elem = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[-1], 1]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"element": elem, "op": {"kind": "adams", "n": 2}}))
        code, payload = invoke_json(
            capsys, "lambda_eval", "lambda-eval", "--input", str(path)
        )
        assert code == 0
        assert sorted(payload["coeffs"]) == [[[-2], 1], [[2], 1]]

    def test_lambda_beyond_dimension(self, capsys, tmp_path):
        elem = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[2], 1]]}
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"element": elem, "op": {"kind": "lambda", "k": 3}}))
        code, payload = invoke_json(
            capsys, "lambda_eval", "lambda-eval", "--input", str(path)
        )
        assert code == 0
        assert payload["coeffs"] == []

    def test_multiply(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"element": ELEMENT, "op": {"kind": "multiply",
                                                               "other": ELEMENT}}))
        code, payload = invoke_json(
            capsys, "lambda_eval", "lambda-eval", "--input", str(path)
        )
        assert code == 0
        assert payload["coeffs"] == [[[-2], 1], [[0], 2], [[2], 1]]


class TestVerifyIg:
    def test_roundtrip(self, capsys, tmp_path):
        elem = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[-1], 1]]}
        cand = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[2], 1], [[-2], 1]]}
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "target": elem,
                    "construction": {"kind": "var", "index": 0},
                    "e": 2,
                    "candidates": [cand],
                }
            )
        )
        code, payload = invoke_json(capsys, "verify_ig", "verify-ig", "--input", str(path))
        assert code == 0 and payload["verified"] is True

    def test_failure_exits_one(self, capsys, tmp_path):
        elem = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[1], 1], [[-1], 1]]}
        cand = {"group": {"rank": 1, "torsion": []}, "coeffs": [[[2], 1]]}
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "target": elem,
                    "construction": {"kind": "var", "index": 0},
                    "e": 2,
                    "candidates": [cand],
                }
            )
        )
        code, payload = invoke_json(capsys, "verify_ig", "verify-ig", "--input", str(path))
        assert code == 1 and payload["verified"] is False


def _ig(construction):
    """A verify-ig document with one candidate for the given construction."""
    return {"target": ELEMENT, "construction": construction, "e": 1, "candidates": [ELEMENT]}


def _cycle3(**component):
    """A genus-3 cycle of one component, a curve unless fields are replaced."""
    comp = {"label": "c", "dim": 1, "mult": 1, "cm": ["2", "1", "0"], "gauss_finite": False}
    return {"g": 3, "components": [dict(comp, **component)]}


class TestRefusals:
    # argv, --input document or None, and the message of a refusal that no
    # other test reaches, or only the exit-code fuzz does; each ends as exit
    # 2 and one stderr line
    @pytest.mark.parametrize("argv,doc,message", [
        (["cc-odp", "--g", "1"], None, "cc_odp needs g >= 2"),
        (["cc-odp", "--g", "0"], None, "g must be >= 1"),
        (["theta-group", "--g", "1"], None, "a theta divisor needs g >= 2, got g = 1"),
        (["theta-group", "--g", "5", "--k", "-1"], None, "k must be >= 0"),
        (["s-sets", "--bound", "0"], None, "bound must be >= 1"),
        (["symfun", "partitions", "-1"], None, "n must be nonnegative"),
        (["symfun", "elementary", "0"], None, "n must be >= 1"),
        (["lambda-eval"], {"element": {"coeffs": []}, "op": {"kind": "lambda", "k": 1}},
         "group-ring element schema violation"),
        (["lambda-eval"], {"element": ELEMENT, "op": {"kind": "lambda", "k": -1}},
         "k must be nonnegative"),
        (["lambda-eval"], {"element": ELEMENT, "op": {"kind": "sym", "k": -1}},
         "k must be nonnegative"),
        (["verify-ig"], _ig({"kind": "tensor", "children": [{"kind": "var", "index": 0}]}),
         "unknown node kind 'tensor'"),
        (["verify-ig"], _ig({"kind": "sum", "children": []}), "sum node needs children"),
        (["verify-ig"], _ig({"kind": "var", "index": 1}),
         "construction uses variable 1 but only 1 arguments were supplied"),
        (["cycle-schur"], {"cycle": _cycle3(cm=["2", "1"]), "alpha": [1], "d_trunc": 1},
         "need 3 coordinates, got 2"),
        (["cycle-schur"], {"cycle": _cycle3(dim=3), "alpha": [1], "d_trunc": 1},
         "component dim must be in [0, 2], got 3"),
    ], ids=["cc-odp-g1", "cc-odp-g0", "theta-group-g1", "theta-group-k-negative", "s-sets-zero",
            "partitions-negative", "elementary-zero", "element-without-group",
            "lambda-negative", "sym-negative", "ig-unknown-kind", "ig-no-children",
            "ig-var-past-candidates", "cm-short", "dim-past-g"])
    def test_refused(self, capsys, tmp_path, argv, doc, message):
        if doc is not None:
            path = tmp_path / "in.json"
            path.write_text(json.dumps(doc))
            argv = argv + ["--input", str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err

    def test_point_divisor_refused(self, capsys, tmp_path):
        _, cycle = invoke(capsys, "cc-odp", "--g", "5", "--k", "1")
        path = tmp_path / "cycle.json"
        path.write_text(cycle)
        assert run(["simplicity", "--input", str(path), "--divisor", "e1"]) == 2
        assert capsys.readouterr().err == "error: component 'e1' is not a divisor\n"

    def test_cancelling_components_convolve_to_nothing(self, capsys, tmp_path):
        cycle = _cycle3()
        cycle["components"].append(dict(cycle["components"][0], label="d", mult=-1))
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"c1": cycle, "c2": cycle, "d_trunc": 1}))
        code, payload = invoke_json(
            capsys, "cycle_convolve", "cycle-convolve", "--input", str(path))
        assert (code, payload) == (0, {"g": 3, "components": []})

    def test_schur_cycle_work_refused(self, capsys, tmp_path):
        # (1^16) on a genus-100 divisor at d_trunc 99 is 136 Pontryagin
        # products of 5,150 units each, and (12,10,1^10) is 276 Newton
        # products and 513 more for its minors: both refused before any
        # product; (1^4), (2,2,2) there and (1^28) on a genus-3 divisor at
        # d_trunc 1 run and write the bytes they wrote on the power-sum route
        cycles = {g: theta_target(g, 5).to_json() for g in (3, 100)}
        for g, alpha, d_trunc, sha256 in (
            (100, [1] * 16, 99, None),
            (100, [1] * 32, 99, None),
            (100, [12, 10] + [1] * 10, 99, None),
            (100, [1] * 4, 99, "2550b54724ea4c0f97d75dbd4ef16c00263f15c8a6ccfa0e73addefe6a06af7e"),
            (100, [2, 2, 2], 99, "bdf444de94d30c2daf75e7579c6673e2349d54e8f683706c1f911189af1b330c"),
            (3, [1] * 28, 1, "d86f190f82cd7d29931ece912b63ea3d3e14bf7912f1482a0b748bb163e292fd"),
        ):
            path = tmp_path / "schur.json"
            path.write_text(json.dumps({"cycle": cycles[g], "alpha": alpha, "d_trunc": d_trunc}))
            start = time.perf_counter()
            code = run(["cycle-schur", "--input", str(path)])
            captured = capsys.readouterr()
            if sha256 is None:
                assert code == 2 and time.perf_counter() - start < 1
                assert captured.out == "" and captured.err.count("\n") == 1
                assert "over the limit of" in captured.err
            else:
                assert code == 0
                assert hashlib.sha256(captured.out.encode()).hexdigest() == sha256


class TestLoaders:
    def test_cycle_round_trip(self, capsys, tmp_path):
        from thetacycles.cli import load_cycle

        _, out = invoke(capsys, "cc-odp", "--g", "5", "--k", "2", "--sum-zero")
        path = tmp_path / "cycle.json"
        path.write_text(out)
        cycle = load_cycle(str(path))
        assert json.loads(json.dumps(cycle.to_json())) == json.loads(out)

    def test_character_round_trip(self, capsys):
        from thetacycles.lierep import Character

        _, out = invoke(capsys, "rep-char", "A2", "1,1")
        doc = json.loads(out)
        ch = Character(lierep.root_system(doc["type"]), {tuple(w): m for w, m in doc["weights"]})
        assert json.loads(json.dumps(ch.to_json())) == doc

    def test_character_invariant_violation_named(self):
        from thetacycles.lierep import Character, NotACharacterError

        with pytest.raises(NotACharacterError, match="not Weyl-invariant"):
            Character(lierep.root_system("A2"), {(1, 0): 1})

    def test_cycle_invariant_violation_named(self, capsys, tmp_path):
        from thetacycles.cli import InputError, load_cycle

        bad = {
            "g": 3,
            "components": [
                {"label": "x", "dim": 1, "mult": 1, "cm": ["2", "1", "5"],
                 "gauss_finite": False}
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(InputError, match="invariant"):
            load_cycle(str(path))


class TestCliContract:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run(["no-such-command"]) == 2

    def test_missing_input_usage_error(self, capsys):
        assert run(["cycle-convolve", "--input", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "argv, doc, named",
        [
            (["cycle-convolve"], "{not json", "not valid JSON"),
            (["cycle-convolve"], {"c1": {"g": 3, "components": [dict(POINT, cm=5)]},
                                  "c2": {"g": 3, "components": [POINT]}, "d_trunc": 1},
             "'cm'"),
            (["lambda-eval"], {"element": ELEMENT, "op": [1]}, "'op'"),
            (["fake-jacobian", "--g", "5", "--degree", "70", "--cm1", "1/0"], None, "'1/0'"),
            (["rep-dim", "", "1"], None, "name ''"),
            (["cycle-convolve"], {"c1": CYCLE, "c2": CYCLE, "d_trunc": None}, "'d_trunc'"),
            (["cycle-convolve"], {"c1": CYCLE, "c2": CYCLE, "d_trunc": "x"}, "'d_trunc'"),
            (["cycle-convolve"], {"c1": CYCLE, "c2": CYCLE, "d_trunc": 1.5}, "'d_trunc'"),
            (["cycle-schur"], {"cycle": CYCLE, "alpha": [1, 1], "d_trunc": None}, "'d_trunc'"),
            (["cycle-schur"], {"cycle": CYCLE, "alpha": [1, 1], "d_trunc": "x"}, "'d_trunc'"),
            (["cycle-schur"], {"cycle": CYCLE, "alpha": [1, 1], "d_trunc": 1.5}, "'d_trunc'"),
            (["cycle-schur"], {"cycle": CYCLE, "alpha": None, "d_trunc": 1}, "'alpha'"),
            (["verify-ig"], [1], "'target'"),
            (["verify-ig"], {"target": ELEMENT, "construction": {"kind": "var", "index": 1.5},
                             "e": 1, "candidates": [ELEMENT, ELEMENT]}, "1.5"),
            (["verify-ig"], {"target": ELEMENT, "e": 1, "candidates": [ELEMENT],
                             "construction": {"kind": "schur", "alpha": [2.9],
                                              "child": {"kind": "var", "index": 0}}}, "2.9"),
            (["lambda-eval"], {"element": dict(ELEMENT, coeffs=[[[1.5], 1], [[-1], 2.7]]),
                               "op": {"kind": "adams", "n": 1}}, "1.5"),
            (["lambda-eval"], {"element": dict(ELEMENT, coeffs=[[[1], 1], [[1], 1]]),
                               "op": {"kind": "adams", "n": 1}}, "listed twice"),
            (["lambda-eval"], {"element": ELEMENT, "op": {"kind": "lambda", "k": None}}, "'k'"),
            (["lambda-eval"], {"element": dict(ELEMENT, coeffs=[[[1], 1, 5]]),
                               "op": {"kind": "adams", "n": 1}},
             "'coeffs' entries must be [key, coefficient] pairs, got [[1], 1, 5]"),
            (["lambda-eval"], {"element": dict(ELEMENT, coeffs=[1]),
                               "op": {"kind": "adams", "n": 1}},
             "'coeffs' entries must be [key, coefficient] pairs, got 1"),
            (["lambda-eval"], {"element": dict(ELEMENT, coeffs={"a": 1}),
                               "op": {"kind": "adams", "n": 1}},
             "'coeffs' must be a list of [key, coefficient] pairs, got {'a': 1}"),
            (["cycle-convolve"], {"c1": {"g": 3, "components": [dict(POINT, mult=1.5)]},
                                  "c2": CYCLE, "d_trunc": 1}, "'mult'"),
            (["cycle-convolve"], {"c1": {"g": 3, "components": [dict(POINT, mult=2.0)]},
                                  "c2": CYCLE, "d_trunc": 1}, "'mult'"),
            (["cycle-convolve"], {"c1": {"g": 3, "components": [dict(POINT, dim=0.0)]},
                                  "c2": CYCLE, "d_trunc": 1}, "'dim'"),
            (["fake-jacobian", "--g", "1", "--degree", "5", "--cm1", "1"], None, "g >= 2"),
            (["rep-char", "A1", "--", "-3"], None, "(-3,) is not dominant"),
            (["cc-odp", "--g", "4", "--k", "1", "--not-symmetric"], None,
             "symmetric theta divisor"),
            (["lambda-eval"], {"element": ELEMENT, "op": {"kind": "bogus"}},
             "unknown op kind 'bogus'"),
            (["verify-ig"], {"target": ELEMENT, "construction": {"kind": "var"}, "e": 1,
                             "candidates": [ELEMENT]}, "'index'"),
            (["verify-ig"], {"target": ELEMENT, "construction": {"kind": "var", "index": 0},
                             "e": 1, "candidates": 5}, "'candidates' must be a list"),
            (["cycle-convolve"], {"c1": CYCLE, "d_trunc": 1, "c2": {
                "g": 4, "components": [dict(POINT, cm=["1", "0", "0", "0"])]}},
             "dimension mismatch"),
            (["cycle-convolve"], {"c1": CYCLE, "c2": CYCLE, "d_trunc": 0},
             "d_trunc must be in [1, 2]"),
            (["cycle-convolve"], {"c1": {"g": 3, "components": [
                {"label": "a", "dim": 1, "mult": 1, "cm": ["2", "1", "0"]},
                {"label": "b", "dim": 1, "mult": -1, "cm": ["2", "3", "0"]}]},
                                  "c2": CYCLE, "d_trunc": 1}, "Gauss degree zero"),
            (["rep-dim", "A0", "1"], None, "A_n needs n >= 1"),
            (["rep-dim", "B1", "1"], None, "B_n needs n >= 2"),
            (["rep-dim", "C1", "1"], None, "C_n needs n >= 2"),
            (["rep-dim", "D2", "1"], None, "D_n needs n >= 3"),
            (["rep-dim", "E5", "1"], None, "E_n needs n in {6,7,8}"),
            (["rep-dim", "F3", "1"], None, "F_n needs n = 4"),
            (["rep-dim", "G3", "1"], None, "G_n needs n = 2"),
        ],
        ids=["not-json", "cm-not-a-list", "op-not-an-object", "cm1-zero-denominator",
             "empty-type-name", "convolve-d_trunc-null", "convolve-d_trunc-str",
             "convolve-d_trunc-float", "schur-d_trunc-null", "schur-d_trunc-str",
             "schur-d_trunc-float", "schur-alpha-null", "verify-ig-not-an-object",
             "verify-ig-float-index", "verify-ig-float-alpha",
             "element-float-values", "element-duplicate-key", "op-k-null",
             "coeffs-entry-triple", "coeffs-entry-int", "coeffs-object",
             "mult-float", "mult-integral-float", "dim-integral-float", "fake-jacobian-g1",
             "rep-char-not-dominant", "cc-odp-not-symmetric", "op-kind-unknown",
             "verify-ig-var-no-index", "verify-ig-candidates-not-a-list",
             "convolve-genus-mismatch", "convolve-d_trunc-zero", "convolve-degree-zero",
             "rep-dim-A0", "rep-dim-B1", "rep-dim-C1", "rep-dim-D2", "rep-dim-E5",
             "rep-dim-F3", "rep-dim-G3"],
    )
    def test_malformed_json_usage_error(self, capsys, tmp_path, argv, doc, named):
        if doc is not None:
            path = tmp_path / "bad.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = argv + ["--input", str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    def test_reused_parser_matches_fresh_processes(self, capsys, monkeypatch, tmp_path):
        """One process's run, with one parser, answers a sequence of argv
        lists byte for byte as a fresh `python -m thetacycles.cli` each."""
        cycle = cc_odp(PpavInput(g=4, k=0, gauss_finite=True)).to_json()
        for name, doc in [
            ("cycle.json", cycle),
            ("convolve.json", {"c1": cycle, "c2": cycle, "d_trunc": 1}),
            ("schur.json", {"cycle": cycle, "alpha": [1, 1], "d_trunc": 1}),
            ("lambda.json", {"element": ELEMENT, "op": {"kind": "sym", "k": 3}}),
            ("verify.json", {"target": ELEMENT, "construction": {"kind": "var", "index": 0},
                             "e": 2, "candidates": [ELEMENT]}),
        ]:
            (tmp_path / name).write_text(_dumps(doc))
        sequence = [
            ["symfun", "partitions", "4"],
            ["--format", "text", "symfun", "partitions", "4"],
            ["symfun", "schur", "2,1", "--format", "text"],
            ["symfun", "elementary", "3"],
            ["rep-dim", "A5", "0,0,1,0,0", "--format", "text"],
            ["rep-dim", "A5", "0,0,1,0,0"],
            ["rep-char", "G2", "1,0", "--format", "csv"],
            ["rep-char", "G2", "1,0"],
            ["--format", "csv", "rep-classify", "--max-rank", "3", "--max-dim", "30"],
            ["rep-classify", "--max-rank", "3", "--max-dim", "30"],
            ["wmf-tables", "--max-rank", "3", "--max-dim", "15", "--format", "csv"],
            ["wmf-tables", "--max-rank", "3", "--max-dim", "15"],
            ["theta-group", "--g", "5", "--k", "2", "--sum-zero", "--format", "text"],
            ["theta-group", "--g", "5", "--k", "2", "--sum-zero"],
            ["cc-odp", "--g", "4", "--k", "0", "--gauss-finite"],
            ["--format", "csv", "genus5"],
            ["genus5"],
            ["genus5", "--k", "2", "--gauss-finite"],
            ["fake-jacobian", "--g", "5", "--degree", "70"],
            ["fake-jacobian", "--g", "5", "--degree", "71", "--hyperelliptic"],
            ["summand-bound", "--dims", "5", "--dz", "5"],
            ["simplicity", "--input", "cycle.json"],
            ["--format", "csv", "fourfold-table"],
            ["fourfold-table"],
            ["qm-search", "--dim", "7", "--max-rank", "3"],
            ["qm-search", "--dim", "27", "--max-rank", "6"],
            ["s-sets", "--bound", "100"],
            ["lambda-eval", "--input", "lambda.json"],
            ["cycle-convolve", "--input", "convolve.json"],
            ["cycle-schur", "--input", "schur.json"],
            ["cycle-schur", "--input", "missing.json"],
            ["verify-ig", "--input", "verify.json"],
            ["no-such-command"],
            ["theta-group", "--k", "2"],
            ["--help"],
            ["rep-dim", "--help"],
            ["--format", "xml", "genus5"],
            ["genus5", "--format", "json"],
        ]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
        env = dict(os.environ, PYTHONPATH=SRC_DIR)

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "thetacycles.cli", *argv],
                                  capture_output=True, text=True, timeout=120, env=env)
            return proc.stdout, proc.stderr, proc.returncode

        builds = []

        def build_parser():
            builds.append(None)
            return real_build_parser()

        real_build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", build_parser)
        monkeypatch.setattr(cli, "_PARSER", None)
        for argv in sequence:
            code = run(argv)
            captured = capsys.readouterr()
            assert (captured.out, captured.err, code) == fresh(argv), argv
        assert len(builds) == 1

    def test_sweep_rank_guard(self, capsys, monkeypatch):
        built = []
        real_root_system = lierep.root_system
        real_types = lierep.canonical_simple_types

        def root_system(letter, rank):
            built.append(rank)
            return real_root_system(letter, rank)

        def canonical_simple_types(max_rank):
            # a missing guard fails here, before listing a billion types
            assert max_rank <= lierep.MAX_SWEEP_RANK, max_rank
            return real_types(max_rank)

        monkeypatch.setattr(lierep, "root_system", root_system)
        monkeypatch.setattr(lierep, "canonical_simple_types", canonical_simple_types)
        assert run(["qm-search", "--dim", "118", "--max-rank", "1000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and built == []
        assert captured.err.startswith("error: a sweep to rank 117 ")
        assert run(["rep-classify", "--max-rank", "1000000000", "--max-dim", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["max_rank"] == 1000000000
        assert max(built) == 4

    @pytest.mark.parametrize("argv", [
        ["rep-classify", "--max-rank", "40", "--max-dim", "1000000000000"],
        ["qm-search", "--dim", "1000000000000", "--max-rank", "1"],
        ["wmf-tables", "--max-rank", "1", "--max-dim", "1000000000000"],
    ], ids=["rep-classify", "qm-search", "wmf-tables"])
    def test_sweep_dim_guard(self, argv, capsys, monkeypatch):
        # A1 alone has max_dim - 1 weights, so without the guard these walk
        # for ever; no root system may be built
        monkeypatch.setattr(lierep, "root_system", None)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: a sweep to dimension 1000000000000 is over the limit of 100000")

    @pytest.mark.parametrize("g", ["8", "9", "100"])
    def test_oversized_cc_odp_refused(self, g):
        # under a 1 GiB address-space limit, so that a missing guard fails
        # at once instead of filling the machine's memory
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from thetacycles.cli import run; sys.exit(run(sys.argv[1:]))"
        )
        proc = subprocess.run([sys.executable, "-c", child, "cc-odp", "--g", g],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cc_odp at g = {g} ")
        assert "over the limit of" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["simplicity", "--input", "cycle.json", "--m-bound", "-1"],
        ["simplicity", "--input", "cycle.json", "--m-bound", "0"],
        ["summand-bound", "--dims", "3", "--dz", "-1"],
        ["summand-bound", "--dims", "3,-1", "--dz", "3"],
        ["qm-search", "--dim", "-1"],
        ["rep-classify", "--max-rank", "-1", "--max-dim", "-1"],
        ["rep-classify", "--max-rank", "0"],
        ["wmf-tables", "--max-dim", "0"],
        ["theta-group", "--g", "1000000000"],
        ["theta-group", "--g", "1000000000", "--k", str(10**30)],
        ["genus5", "--k", "60"],
        ["cc-odp", "--g", "5", "--k", "60"],
        ["simplicity", "--input", "cycle.json", "--m-bound", "100000000"],
        ["symfun", "partitions", "1000000"],
        ["symfun", "elementary", "200"],
        ["symfun", "schur", "50"],
        ["symfun", "schur", "15,15,15"],
        ["symfun", "schur", "33"],
        ["rep-dim", "A99999999", "1"],
        ["fake-jacobian", "--g", "1000000", "--degree", "5"],
    ], ids=["m-bound-negative", "m-bound-zero", "dz-negative", "dims-negative",
            "qm-dim-negative", "classify-negative", "classify-rank-zero",
            "tables-dim-zero", "theta-genus", "theta-genus-and-k", "genus5-k",
            "cc-odp-k", "m-bound-huge", "partitions-huge", "elementary-huge",
            "schur-huge", "schur-15-15-15", "schur-33", "root-system-rank-huge",
            "fake-jacobian-genus"])
    def test_impossible_numbers_refused(self, argv, capsys, monkeypatch, tmp_path):
        (tmp_path / "cycle.json").write_text(
            _dumps(cc_odp(PpavInput(g=4, k=0, gauss_finite=True)).to_json()))
        monkeypatch.chdir(tmp_path)
        # every refusal comes before a factorial or a theta divisor's class:
        # a missing guard fails at once instead of forming the factorial of a
        # billion
        monkeypatch.setattr(schottky, "factorial", None)
        monkeypatch.setattr(schottky, "_theta_cm", None)
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")
        assert elapsed < 1

    def test_character_dim_guard(self, capsys, monkeypatch):
        # E8 5 varpi_8 has dimension 2,642,777,280 and A20 9 rho 10^210: a
        # missing guard fails at the closure instead of listing their weights
        def closure(self, lam):
            raise AssertionError(f"closure of {lam} built")

        monkeypatch.setattr(lierep.RootSystem, "freudenthal_dominant", closure)
        for argv, dim in [(["rep-char", "E8", "0,0,0,0,0,0,0,5"], 2642777280),
                          (["rep-char", "A20", ",".join(["9"] * 20)], 10**210)]:
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: a character of dimension {dim} is over the "
                                    f"limit of {lierep.MAX_CHARACTER_DIM}\n")

    @pytest.mark.parametrize("argv", [
        ["--format", "text", "genus5"],
        ["cc-odp", "--g", "4", "--k", "1", "--format", "text"],
        ["rep-char", "G2", "1,0", "--format", "text"],
        ["--format", "csv", "genus5"],
    ], ids=["genus5-text", "cc-odp-text", "rep-char-text", "genus5-csv"])
    def test_format_without_that_output_refused(self, argv, capsys):
        # an accepted --format must change the output: a subcommand without
        # the form asked for exits 2 instead of printing JSON
        assert run(argv) == 2
        captured = capsys.readouterr()
        name = "CSV" if "csv" in argv else "text"
        assert (captured.out, captured.err) == (
            "", f"error: this subcommand has no {name} output\n")

    def test_emit_builds_only_the_form_asked_for(self, capsys):
        def never():
            raise AssertionError("a form not asked for was built")

        for fmt, form, out in (("json", "json_form", {"a": 1}), ("csv", "csv_text", "c\n"),
                               ("text", "text", "t")):
            builders = {"json_form": never, "csv_text": never, "text": never}
            builders[form] = lambda: out
            cli._emit(argparse.Namespace(format=fmt), **builders)
        assert capsys.readouterr().out == '{\n  "a": 1\n}\nc\nt\n'

    def test_classify_csv_builds_no_rows(self, capsys, monkeypatch):
        def never(self):
            raise AssertionError("a JSON row was built for CSV output")

        monkeypatch.setattr(lierep.WmfEntry, "to_json", never)
        code, out = invoke(capsys, "--format", "csv", "rep-classify", "--max-rank", "3",
                           "--max-dim", "30")
        assert code == 0 and out.startswith("type,weight,dim,")

    @pytest.mark.parametrize("doc", [
        '{"element": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"construction": ' + '{"kind": "sum", "children": [' * 600 + '{"kind": "var"}'
        + "]}" * 600 + "}",
    ], ids=["array-100000", "construction-600"])
    def test_deep_document_refused(self, doc, capsys, tmp_path):
        # the decoder's recursion limit ends as an input error, before any
        # field is read
        path = tmp_path / "deep.json"
        path.write_text(doc)
        command = "lambda-eval" if doc.startswith('{"element"') else "verify-ig"
        assert run([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path} is nested too deeply to decode\n")

    @pytest.mark.parametrize("g", ["3", 1000000, 101, 0, True, None])
    def test_cycle_genus_refused_before_any_work(self, g, capsys, monkeypatch, tmp_path):
        def schur_cycle(*args):
            raise AssertionError("schur_cycle ran")

        monkeypatch.setattr(cli, "schur_cycle", schur_cycle)
        path = tmp_path / "schur.json"
        path.write_text(json.dumps(
            {"cycle": {"g": g, "components": []}, "alpha": [1], "d_trunc": 1}))
        assert run(["cycle-schur", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cycle invariant violated in embedded cycle: g must be an integer in "
            f"[1, 100], got {g!r}\n")

    def test_empty_element_of_a_huge_group_refused(self, capsys, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"element": {"group": {"rank": 10**9, "torsion": []},
                                                "coeffs": []},
                                    "op": {"kind": "lambda", "k": 0}}))
        assert run(["lambda-eval", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: a group of 1000000000 coordinates is over the limit of 1000000\n")

    @pytest.mark.parametrize("op, err", [
        ({"kind": "schur", "alpha": []}, "alpha must be a nonempty partition"),
        ({"kind": "sym", "k": 33}, "p(33) is over the limit of 10000 partitions of a Schur expansion"),
        ({"kind": "lambda", "k": 33}, "p(33) is over the limit of 10000 partitions of a Schur expansion"),
        ({"kind": "schur", "alpha": [1] * 33},
         "p(33) is over the limit of 10000 partitions of a Schur expansion"),
    ], ids=["schur-empty", "sym-33", "lambda-33", "schur-1^33"])
    def test_schur_shape_refused_on_every_route(self, op, err, capsys, tmp_path):
        # one-row and one-column shapes take the product route, which needs
        # no power-sum expansion: the refusals must hold there all the same
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"element": ELEMENT, "op": op}))
        assert run(["lambda-eval", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("m_bound",["0", "-1", "100000000"])
    def test_m_bound_checked_before_the_cycle_is_read(self, m_bound, capsys, monkeypatch):
        def load_cycle(source):
            raise AssertionError(f"{source} read")

        monkeypatch.setattr(cli, "load_cycle", load_cycle)
        assert run(["simplicity", "--input", "/nonexistent.json", "--m-bound", m_bound]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "m_bound" in captured.err

    def test_double_point_count_has_one_message(self, capsys):
        errs = []
        for argv in (["theta-group", "--g", "5", "--k", "60"],
                     ["cc-odp", "--g", "5", "--k", "60"], ["genus5", "--k", "60"]):
            assert run(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["error: g! - 2k must be positive, got g = 5, k = 60\n"] * 3

    def test_unwritable_output(self, tmp_path):
        # a closed pipe and a full device both end in one line and exit 2,
        # with no traceback and no "Exception ignored" from the flush at exit
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        argv = [sys.executable, "-m", "thetacycles.cli", "fourfold-table"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, timeout=120, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE,
                                      text=True, timeout=120, env=env)
            assert proc.returncode == 2
            assert proc.stderr == (
                "error: cannot write output: [Errno 28] No space left on device\n")

    def test_closed_stdout(self):
        # with fd 1 closed at start-up Python sets sys.stdout to None
        proc = subprocess.run(
            [sys.executable, "-m", "thetacycles.cli", "rep-dim", "A5", "0,0,1,0,0"],
            stderr=subprocess.PIPE, text=True, timeout=120, preexec_fn=lambda: os.close(1),
            env=dict(os.environ, PYTHONPATH=SRC_DIR))
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write output: standard output is closed\n"

    def test_wmf_tables_json_schema(self, capsys):
        code, payload = invoke_json(
            capsys, "wmf_tables", "wmf-tables", "--max-rank", "3", "--max-dim", "15"
        )
        assert code == 0

    def test_determinism(self, capsys):
        _, out1 = invoke(capsys, "genus5")
        _, out2 = invoke(capsys, "genus5")
        assert out1 == out2

    def test_no_floats_in_output(self, capsys):
        _, out = invoke(capsys, "genus5")
        payload = json.loads(out)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(payload)


json_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
    # lone surrogates included: the Cs category is excluded by default
    | st.text(st.characters(exclude_categories=()))
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff x", "é€😀", "\u2028"])
)
json_ints = st.integers() | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)

def pair_lists(key_coords, coeffs, min_key=0):
    return st.lists(
        st.tuples(st.lists(key_coords, min_size=min_key, max_size=4), coeffs).map(list),
        max_size=6,
    )


# group-ring coeffs blocks, [[int, ...], int] pairs (empty keys included),
# and near misses: bool coordinates or coefficients, which take the generic
# path
coeff_blocks = pair_lists(json_ints, json_ints, min_key=1) | pair_lists(
    json_ints | st.booleans(), json_ints | st.booleans()
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=6)
    | coeff_blocks
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), inner,
                      max_size=5),
    max_leaves=40,
)


# elements of every group shape the writer meets: rank 0 (empty keys), rank 1
# to 6, torsion, residues mod 256 above 127 that do not fit a signed byte,
# and keys on both sides of cli._WIDE_KEY, where the writer switches to zero
# runs, with the torsion slot of a cc-odp fiber
WIDE_GROUPS = [FgAbelianGroup(r) for r in (47, 48, 64)] + [FgAbelianGroup(60, (2,))]
WRITER_GROUPS = [FgAbelianGroup(r) for r in range(7)] + [
    FgAbelianGroup(0, (2,)), FgAbelianGroup(1, (2, 4)), FgAbelianGroup(2, (3,)),
    FgAbelianGroup(0, (256,)), FgAbelianGroup(1, (256,)),
] + WIDE_GROUPS
element_coords = st.integers(-130, 130) | st.sampled_from(
    [127, -127, 128, -128, 10 ** 30, -(10 ** 30)])
element_coeffs = st.integers(-3, 3) | st.sampled_from([2 ** 70, -(2 ** 70)]) | st.integers()


def sparse_keys(n):
    """Keys of n coordinates, mostly 0, with a few element_coords at drawn
    slots (the first and last among them)."""
    slots = st.integers(0, n - 1) | st.sampled_from([0, n - 1])
    return st.dictionaries(slots, element_coords, max_size=4).map(
        lambda nonzero: tuple(nonzero.get(i, 0) for i in range(n)))


@st.composite
def elements(draw):
    group = draw(st.sampled_from(WRITER_GROUPS))
    n = group.ncoords
    coords = sparse_keys(n) if group in WIDE_GROUPS else st.tuples(*[element_coords] * n)
    keys = draw(st.lists(coords, max_size=12))
    coeffs = draw(st.lists(element_coeffs, min_size=len(keys), max_size=len(keys)))
    # given in the drawn order, which the constructor sorts
    return GroupRingElement(group, dict(draw(st.permutations(list(zip(keys, coeffs))))))


def cycle_shaped(fiber):
    return {"g": 3, "components": [POINT], "fiber": fiber}


def stdlib_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


# keys past cli._WIDE_KEY: all zero, nonzero only in the first or the last
# slot, in every slot, in adjacent slots, and values outside cli._INT_TEXT
WIDE_KEYS = {
    (0,) * 64: 3,
    (5,) + (0,) * 63: -1,
    (0,) * 63 + (-1,): 2 ** 70,
    tuple(i - 32 or 300 for i in range(64)): 1,
    (0,) * 20 + (1, -1, 2) + (0,) * 41: -2,
    (-129,) + (0,) * 30 + (300,) + (0,) * 31 + (10 ** 30,): 4,
    (0,) * 40 + (-(10 ** 30), 128) + (0,) * 22: 7,
}

# each value type the CLI writes, with the number of pair lists in its
# to_json(): elements of rank 0, empty, past a signed byte, with torsion and
# past 64 bits, a character, cycles with and without a fiber, and the wide
# keys, written from their nonzeros: an element of rank 64 and one at the
# switch, "p/q" coefficients of one key width and of two, and a cycle's fiber
WRITER_EXAMPLES = [
    (GroupRingElement(FgAbelianGroup(0), {(): -(2 ** 70)}), 1),
    (GroupRingElement(FgAbelianGroup(0)), 0),
    (GroupRingElement(FgAbelianGroup(2), {(1, -1): 1, (-1, 1): 2, (-128, 127): -3, (0, 0): 4}), 1),
    (GroupRingElement(FgAbelianGroup(1, (256,)), {(0, 200): 1, (0, 100): 1, (-1, 255): 5}), 1),
    (GroupRingElement(FgAbelianGroup(3), {(10 ** 30, -(10 ** 30), 257): 2 ** 70, (0, 1, 2): 1}), 1),
    (lierep.freudenthal_character(lierep.root_system("G2"), (1, 1)), 1),
    (cc_odp(PpavInput(g=3, k=1, gauss_finite=True)), 1),
    (CleanCycleModel(3, (point_component(3),)), 0),
    (schur_to_powersum((3, 2, 1)), 1),
    (elementary_to_powersum(6), 1),
    (GroupRingElement(FgAbelianGroup(64), WIDE_KEYS), 1),
    (GroupRingElement(FgAbelianGroup(48), {k[:24] + k[40:]: c for k, c in WIDE_KEYS.items()}), 1),
    (SymExpr({(2,) + (1,) * 49: Fraction(1, 3), (1,) * 50: Fraction(-2, 7)}), 1),
    (SymExpr({(2,) + (1,) * 48: Fraction(1, 3), (1,) * 50: Fraction(-2, 7)}), 1),
    (cc_odp(PpavInput(g=5, k=2, gauss_finite=True)), 1),
]


# groups and coordinates of the key-order property: free groups, Z + Z/3
# and Z/2 + Z/4, with coordinates at the packed kernels' slot edges and
# +-10^30 on their wide path
ORDER_GROUPS = [FgAbelianGroup(r) for r in (1, 2, 3)] + [
    FgAbelianGroup(1, (3,)), FgAbelianGroup(0, (2, 4))]
order_coords = st.integers(-3, 3) | st.sampled_from(
    [127, -127, 128, -128, 2 ** 15, -(2 ** 15), 10 ** 30, -(10 ** 30)])


# row lists, flat dicts that share a key set, as the sweeps' and tables'
# payloads hold them: each column of one kind the row writer takes (str,
# bool, int, nonempty int lists) or of mixed values it leaves to the generic
# path (None, True next to 1, bool lists, empty lists), and at times a last
# row with another key set
row_values = (json_scalars | st.lists(st.integers(), max_size=4)
              | st.lists(st.booleans(), max_size=2))
column_kinds = st.sampled_from([
    st.text(st.characters(exclude_categories=()), max_size=4), st.booleans(),
    st.integers() | st.sampled_from([10 ** 30, -129, 128]),
    st.lists(st.integers(), min_size=1, max_size=4), row_values])


@st.composite
def row_lists(draw):
    names = draw(st.lists(st.text(st.characters(exclude_categories=()), max_size=3),
                          max_size=4, unique=True))
    columns = {k: draw(column_kinds) for k in names}
    rows = draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=4))
    return rows + draw(st.lists(st.dictionaries(st.text(max_size=2), row_values, max_size=3),
                                max_size=1))


# row lists the writer meets at its edges, and whether it writes them as one
# piece: an empty row, rows with different key sets of one size, True next
# to 1 in a column, an empty int list, a nested dict value, non-ASCII text,
# and rows of the shape rep-classify writes
ROW_EXAMPLES = [
    ([{}], False),
    ([{"a": 1, "b": 2}, {"a": 1, "c": 2}], False),
    ([{"a": True, "b": 1}, {"a": 1, "b": False}], False),
    ([{"a": [], "b": 1}], False),
    ([{"a": {"b": 1}, "c": 2}], False),
    ([{"s": "\u00e9\u2603 \"q\"\n\U0001f600", "t": "x"}], True),
    ([{"dim": 7, "family": "G2-7", "minuscule": False, "weight": [1, 0]},
      {"dim": 10 ** 30, "family": "other", "minuscule": True, "weight": [-129, 300]}], True),
]


def random_pairs(rng, n, rank):
    return [(tuple(rng.randint(-300, 300) for _ in range(rank)), rng.randint(-(2**70), 2**70))
            for _ in range(n)]


class TestWriter:
    @given(json_values)
    @example([[[1, -2], 3], [[], 4]])
    @example({"coeffs": [[[True, 0], 1]], "n": [[[0], False]]})
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    @given(row_lists())
    @settings(max_examples=200, deadline=None)
    def test_row_lists_match_json_dumps(self, rows):
        for value in (rows, {"rows": rows, "n": 1}, [rows, 1]):
            assert _dumps(value) == stdlib_dumps(value)

    @pytest.mark.parametrize("rows, one_piece", ROW_EXAMPLES, ids=[
        "empty-row", "key-sets", "true-and-one", "empty-int-list", "nested-dict",
        "non-ascii", "classify-rows"])
    def test_row_examples(self, rows, one_piece):
        for value in (rows, {"rows": rows}, [rows]):
            assert _dumps(value) == stdlib_dumps(value)
        assert (cli._dumps_rows(rows, "\n") is not None) == one_piece

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 1000])
    def test_long_pair_lists(self, n):
        rng = random.Random(n)
        pairs = random_pairs(rng, n, 3)
        for value in (pairs, {"coeffs": pairs, "group": {"rank": 3, "torsion": []}},
                      [{"a": random_pairs(rng, n, 1)}, random_pairs(rng, n, 5)]):
            assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_peak_memory(self):
        # a join-built document needs its pieces and its result at once, so
        # 2x the output is the floor; 4 KiB covers the pieces' object headers.
        # Rendering a whole coeffs block from one repr goes well above it.
        # The payload is what cc-odp's builder hands to _dumps.
        record = cc_odp(PpavInput(g=6, k=2, gauss_finite=True)).to_json()
        tracemalloc.start()
        try:
            out = _dumps(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 3_000_000
        assert peak < 2 * len(out) + 4096

    @given(elements())
    @settings(max_examples=300, deadline=None)
    def test_element_matches_json_dumps(self, x):
        doc = x.to_json()
        assert _dumps(doc) == stdlib_dumps(doc)
        assert _dumps(cycle_shaped(doc)) == stdlib_dumps(cycle_shaped(doc))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_sorted_items(self, data):
        # every constructor and kernel holds its terms in key order, which
        # to_json writes as it is: from_json given them in the drawn order,
        # descending and with one adjacent pair swapped
        group = data.draw(st.sampled_from(ORDER_GROUPS), label="group")
        terms = st.lists(st.tuples(st.tuples(*[order_coords] * group.ncoords),
                                   st.integers(-3, 3)), max_size=5)
        x = GroupRingElement(group, dict(data.draw(terms, label="x")))
        y = GroupRingElement(group, dict(data.draw(terms, label="y")))
        items = sorted(x.coeffs.items())
        swapped = list(items)
        if len(items) > 1:
            i = data.draw(st.integers(0, len(items) - 2))
            swapped[i:i + 2] = swapped[i + 1], swapped[i]
        orders = [data.draw(st.permutations(items)), items[::-1], swapped]
        values = [GroupRingElement.from_json({"group": group.to_json(), "coeffs": order})
                  for order in orders]
        assert all(v.to_json()["coeffs"] == items for v in values)
        values += [x, x + y, y + x, gr_multiply(x, y), lambda_op(2, x), lambda_op(3, x),
                   sym_op(2, x), schur_apply((2, 1), x)]
        values += [gr_adams(n, x) for n in (-1, 0, 2, 3)]
        for v in values:
            assert v.to_json()["coeffs"] == sorted(v.coeffs.items())

    @pytest.mark.parametrize("value, pair_lists", WRITER_EXAMPLES, ids=[
        "rank0", "empty", "signed-bytes", "mod-256", "wide-coordinates", "character",
        "cycle", "cycle-without-fiber", "schur-powersum", "elementary-powersum",
        "wide-element", "wide-element-at-switch", "wide-powersum", "wide-mixed-powersum",
        "wide-cycle"])
    def test_value_examples(self, value, pair_lists, monkeypatch):
        calls = []

        def dumps_pairs(pairs, newline):
            calls.append(len(pairs))
            return write_pairs(pairs, newline)

        write_pairs = cli._dumps_pairs
        monkeypatch.setattr(cli, "_dumps_pairs", dumps_pairs)
        if isinstance(value, GroupRingElement):
            assert list(value.coeffs.items()) == sorted(value.coeffs.items())
        doc = value.to_json()
        assert _dumps(doc) == stdlib_dumps(doc)
        assert _dumps([doc]) == stdlib_dumps([doc])
        assert len(calls) == 2 * pair_lists

    def test_peak_memory_element(self):
        # the same bound as test_peak_memory, on a bare element, the payload
        # lambda-eval's builder hands to _dumps
        payload = cc_odp(PpavInput(g=6, k=2, gauss_finite=True)).fiber.to_json()
        tracemalloc.start()
        try:
            out = _dumps(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) > 2_500_000
        assert peak < 2 * len(out) + 4096

    def test_peak_memory_emit(self, monkeypatch):
        # _emit writes a dict's pieces in turn instead of joining them, so
        # the text is held once: into a discarding writer cc-odp's genus-6
        # payload peaked at 1.03x its 3,366,610 bytes, the pieces and the
        # slice being built (a slice holds about 8,192 key coordinates, 23
        # rank-360 keys); with 256-pair slices, about 1.1 MB each, it peaked
        # at 1.29x, and a joined write peaks at 2x
        class Discard(io.TextIOBase):
            def write(self, text):
                return len(text)

        payload = cc_odp(PpavInput(g=6, k=2, gauss_finite=True)).to_json()
        size = len(_dumps(payload))
        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            cli._emit(argparse.Namespace(format="json"), lambda: payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 3_000_000
        assert peak < 1.1 * size

    @pytest.mark.parametrize(
        "value", [1.5, Fraction(1, 2), {1: 2}, [{"a": [0.0]}], {"a": {None: 1}}, (1, 2),
                  GroupRingElement(FgAbelianGroup(1), {(1,): 1})],
        ids=["float", "fraction", "int-key", "nested-float", "nested-none-key", "tuple",
             "element"],
    )
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
