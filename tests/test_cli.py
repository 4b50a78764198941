import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anosovforms.catalog import sqrt2_datum
from anosovforms.cli import CONSTRUCT_DIM_BUDGET
from anosovforms.liealg import LieAlgebra
from anosovforms.pfaffian import nk_algebra
from anosovforms.serialize import (
    algebra_to_json,
    canonical_dumps,
    datum_to_json,
)


# the type-(4,2) algebra n_5 with a Galois datum object as its "field"
FIELD_ALGEBRA = algebra_to_json(nk_algebra(5)) | {"field": datum_to_json(sqrt2_datum())}


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "anosovforms", *args],
        capture_output=True, text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}): {proc.stderr}\n{proc.stdout}"
        )
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def z4_files(workdir):
    bundle_path = workdir / "z4_bundle.json"
    proc = run_cli("construct", "--recipe", "z4", "-o", str(bundle_path))
    summary = json.loads(proc.stdout)
    assert summary["signature"] == [2, 4]
    bundle = json.loads(bundle_path.read_text())
    alg = workdir / "z4_alg.json"
    mp = workdir / "z4_map.json"
    alg.write_text(canonical_dumps(bundle["algebra"]))
    mp.write_text(canonical_dumps({"matrix": bundle["matrix"]}))
    return bundle, alg, mp


class TestConstruct:
    def test_z4_gold_matrix(self, z4_files):
        bundle, _, _ = z4_files
        assert bundle["matrix"][0] == ["0", "0", "0", "-1", "0", "0"]
        assert bundle["matrix"][5] == ["0", "0", "0", "0", "-1/2", "-5/2"]

    def test_count(self, workdir):
        out = workdir / "count.json"
        proc = run_cli("construct", "--recipe", "count", "--k", "5", "--l", "2",
                       "-o", str(out))
        assert json.loads(proc.stdout)["signature"] == [2, 4]
        bundle = json.loads(out.read_text())
        assert bundle["provenance"]["classified"] == 5

    def test_count_bad_params_exit1(self):
        proc = run_cli("construct", "--recipe", "count", "--k", "4", "--l", "2",
                       check=False)
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "BadParameters"

    def test_stdout_bundle_when_no_output(self):
        proc = run_cli("construct", "--recipe", "last", "--class", "2")
        bundle = json.loads(proc.stdout)
        assert bundle["certificate"]["type"] == [3, 3]

    @pytest.mark.parametrize("recipe,lam", [("csig", "5,0,0,0"), ("last", "5,0,0")])
    def test_lambda_on_the_default_field(self, recipe, lam):
        # --lambda was ignored without --field, and the default unit used
        proc = run_cli("construct", "--recipe", recipe, "--lambda", lam, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "NotPisot"

    def test_csig_with_the_fixture_unit(self):
        from anosovforms.catalog import CSIG_N2_UNIT_COORDS

        lam = ",".join(map(str, CSIG_N2_UNIT_COORDS))
        given_unit = run_cli("construct", "--recipe", "csig", "--lambda", lam).stdout
        assert given_unit == run_cli("construct", "--recipe", "csig").stdout


class TestCertify:
    def test_gold(self, z4_files):
        _, alg, mp = z4_files
        proc = run_cli("certify", "--algebra", str(alg), "--map", str(mp))
        cert = json.loads(proc.stdout)
        assert cert["signature"] == [2, 4]
        assert cert["integer_like"] and cert["hyperbolic"]

    def test_negative_verdict_is_exit_zero(self, workdir):
        from anosovforms.liealg import heisenberg

        alg = workdir / "heis.json"
        alg.write_text(canonical_dumps(algebra_to_json(heisenberg())))
        mp = workdir / "id3.json"
        mp.write_text(canonical_dumps(
            {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        ))
        proc = run_cli("certify", "--algebra", str(alg), "--map", str(mp))
        cert = json.loads(proc.stdout)
        assert cert["hyperbolic"] is False

    @pytest.mark.parametrize("algebra, matrix", [
        ({"field": "Q", "dim": 3, "brackets": [[0, 0, 1, "1"]]}, None),
        ({"field": "Q", "dim": 3}, None),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, 2, 0.5]]}, None),
        (None, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", 0.5]]),
        (None, [["1", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        ({"field": "Q", "dim": 3, "brackets": [[0, 1, 2, "1/0"]]}, None),
        ({"field": "Q", "dim": -1, "brackets": []}, None),
        ({"field": "Q", "dim": 0, "brackets": []}, None),
        # a string is not a list of entries: "100" used to read as [1, 0, 0]
        (None, ["100", "010", "001"]),
        (None, "1"),
    ], ids=["repeated-index", "no-brackets", "float-coefficient",
            "float-entry", "ragged-map", "zero-denominator", "negative-dim", "zero-dim",
            "string-rows", "string-matrix"])
    def test_malformed_input_exit2(self, workdir, algebra, matrix):
        alg = workdir / "malformed_alg.json"
        mp = workdir / "malformed_map.json"
        alg.write_text(json.dumps(algebra or {
            "field": "Q", "dim": 3, "brackets": [[0, 1, 2, "1"]]}))
        mp.write_text(json.dumps({"matrix": matrix or [
            ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        proc = run_cli("certify", "--algebra", str(alg), "--map", str(mp),
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("malformed input: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_malformed_json_exit2(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("not json")
        proc = run_cli("certify", "--algebra", str(bad), "--map", str(bad),
                       check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("content", [
        b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)),
        b"[" * 100000 + b"]" * 100000,
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unreadable_json_exit2(self, workdir, content):
        bad = workdir / "unreadable.json"
        bad.write_bytes(content)
        proc = run_cli("certify", "--algebra", str(bad), "--map", str(bad),
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"cannot read {bad}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("lam", ["abc", "1/0", "1,2,3"])
    def test_malformed_lambda_exit2(self, lam):
        proc = run_cli("construct", "--recipe", "laur", "--lambda", lam,
                       check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("malformed input: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("grading", ["a,b", "5", "2,0,1", "-1,4"])
    def test_malformed_grading_exit2(self, workdir, grading):
        from anosovforms.liealg import heisenberg

        alg = workdir / "h.json"
        alg.write_text(canonical_dumps(algebra_to_json(heisenberg())))
        # the = form keeps argparse from reading "-1,4" as an option
        proc = run_cli("construct", "--recipe", "laur", "--algebra", str(alg),
                       f"--grading={grading}", check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("malformed input: --grading ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestDeterminism:
    def test_identical_bytes(self, z4_files):
        _, alg, mp = z4_files
        a = run_cli("certify", "--algebra", str(alg), "--map", str(mp)).stdout
        b = run_cli("certify", "--algebra", str(alg), "--map", str(mp)).stdout
        assert a == b

    def test_round_trip(self, z4_files, workdir):
        _, alg, mp = z4_files
        cert1 = run_cli("certify", "--algebra", str(alg), "--map", str(mp)).stdout
        # re-serialize the parsed algebra and certify again
        parsed = json.loads(alg.read_text())
        alg2 = workdir / "alg_rt.json"
        alg2.write_text(canonical_dumps(parsed))
        assert alg2.read_text() == alg.read_text()
        cert2 = run_cli("certify", "--algebra", str(alg2), "--map", str(mp)).stdout
        assert cert1 == cert2


class TestTools:
    def test_pell(self):
        proc = run_cli("pell", "--disc", "20")
        assert json.loads(proc.stdout) == {"x": 18, "y": 4}

    def test_pell_large_solution(self):
        # the fundamental solution has a 29-digit y
        proc = subprocess.run(
            [sys.executable, "-m", "anosovforms", "pell", "--disc", "991"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0
        sol = json.loads(proc.stdout)
        assert sol["x"] ** 2 - 991 * sol["y"] ** 2 == 4

    def test_pell_bad_disc(self):
        proc = run_cli("pell", "--disc", "4", check=False)
        assert proc.returncode == 1

    def test_pell_past_step_budget_exit1(self):
        proc = subprocess.run(
            [sys.executable, "-m", "anosovforms", "pell", "--disc", "10000000003"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "PellBudgetExceeded"

    @pytest.mark.parametrize("recipe,nclass,dim", [("last", "10", 30), ("csig", "8", 30),
                                                   ("last", "1000000", 3000000)])
    def test_construct_past_dimension_budget_exit1(self, recipe, nclass, dim):
        code, err = _run_in_process(["construct", "--recipe", recipe, "--class", nclass])
        assert code == 1
        assert json.loads(err) == {
            "error": "DimensionBudgetExceeded",
            "detail": f"dimension {dim} exceeds the budget of {CONSTRUCT_DIM_BUDGET}"}

    def test_classify42(self, z4_files):
        _, alg, _ = z4_files
        proc = run_cli("classify42", "--algebra", str(alg))
        assert json.loads(proc.stdout) == {"anosov_compatible": True, "k": 5}

    def test_pfaffian(self, z4_files):
        _, alg, _ = z4_files
        proc = run_cli("pfaffian", "--algebra", str(alg))
        out = json.loads(proc.stdout)
        assert out["discriminant"] == "5/4"

    def test_dualize(self, workdir):
        from anosovforms.pfaffian import hk_algebra, nk_algebra

        alg = workdir / "n5.json"
        alg.write_text(canonical_dumps(algebra_to_json(nk_algebra(5))))
        proc = run_cli("dualize", "--algebra", str(alg))
        dual = json.loads(proc.stdout)
        assert dual == json.loads(canonical_dumps(algebra_to_json(hk_algebra(5))))

    @pytest.mark.parametrize("command", ["certify", "pfaffian", "classify42", "dualize"])
    def test_algebra_over_a_field_exit1(self, workdir, command):
        # algebras are over Q only; certify used to accept this file
        alg = workdir / "field_algebra.json"
        alg.write_text(canonical_dumps(FIELD_ALGEBRA))
        argv = [command, "--algebra", str(alg)]
        if command == "certify":
            mp = workdir / "field_algebra_map.json"
            mp.write_text(canonical_dumps(
                {"matrix": [["2" if i == j else "0" for j in range(6)] for i in range(6)]}))
            argv += ["--map", str(mp)]
        proc = run_cli(*argv, check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "FieldMismatch"

    def test_verify_field(self, workdir, sqrt2):
        field = workdir / "sqrt2.json"
        field.write_text(canonical_dumps(datum_to_json(sqrt2)))
        proc = run_cli("verify-field", "--field", str(field))
        out = json.loads(proc.stdout)
        assert out["verified"] and out["degree"] == 2

    def test_verify_field_rejects(self, workdir, sqrt2):
        data = datum_to_json(sqrt2)
        data["automorphisms"][1] = ["1", "1"]
        field = workdir / "bad_field.json"
        field.write_text(canonical_dumps(data))
        proc = run_cli("verify-field", "--field", str(field), check=False)
        assert proc.returncode == 1

    # X^6 - 101X^3 + 2550 = (X^3 - 50)(X^3 - 51) lies past the factor
    # budget; one automorphism for degree 6 is wrong whenever the
    # irreducibility check is passed
    REDUCIBLE_SEXTIC = {
        "min_poly": ["2550", "0", "0", "-101", "0", "0", "1"],
        "automorphisms": [["0", "1"]], "identity": 0, "table": [[0]], "roots": [],
    }

    def test_verify_field_budget_without_the_flag_exit1(self, workdir):
        field = workdir / "sextic.json"
        field.write_text(json.dumps(self.REDUCIBLE_SEXTIC | {"assume_irreducible": False}))
        proc = run_cli("verify-field", "--field", str(field), check=False)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "IrreducibilityBudgetExceeded"

    # X^2 - (10^14 + 1): the factor box bound and |p(0)| are about 10^14,
    # so the irreducibility search gives up before listing constant terms
    LARGE_QUADRATIC = {
        "min_poly": ["-100000000000001", "0", "1"],
        "automorphisms": [["0", "1"], ["0", "-1"]], "identity": 0, "table": [[0, 1], [1, 0]],
        "roots": [{"lo": "10000000", "hi": "10000001"}, {"lo": "-10000001", "hi": "-10000000"}],
    }

    @pytest.mark.parametrize("flag, code", [(True, 0), (False, 1)])
    def test_verify_field_large_coefficients_finish(self, workdir, flag, code):
        field = workdir / "large_quadratic.json"
        field.write_text(json.dumps(self.LARGE_QUADRATIC | {"assume_irreducible": flag}))
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "verify-field",
                               "--field", str(field)], capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        if code:
            assert json.loads(proc.stderr)["error"] == "IrreducibilityBudgetExceeded"

    def test_count_with_a_large_prime_exits_at_once(self):
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "construct", "--recipe",
                               "count", "--k", "2", "--l", "1000003"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "IrreducibilityBudgetExceeded"

    @pytest.mark.parametrize("key", ["assume_irreducible", "totally_real"])
    @pytest.mark.parametrize("value", ["false", "0", "true", 0, 1, None], ids=json.dumps)
    def test_verify_field_non_boolean_flag_exit2(self, workdir, key, value):
        field = workdir / "sextic_flag.json"
        field.write_text(json.dumps(self.REDUCIBLE_SEXTIC | {key: value}))
        proc = run_cli("verify-field", "--field", str(field), check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("malformed input:")

    def test_verify_field_complex_distinguished_out_of_range_exit1(self, workdir):
        # X^2 - X + 2 has two complex roots of modulus sqrt 2
        modulus = {"lo": "7/5", "hi": "3/2"}
        data = {"min_poly": ["2", "-1", "1"], "automorphisms": [["0", "1"], ["1", "-1"]],
                "identity": 0, "table": [[0, 1], [1, 0]], "totally_real": False,
                "moduli": [modulus, modulus], "assume_irreducible": False}
        field = workdir / "complex.json"
        field.write_text(json.dumps(data))
        assert json.loads(run_cli("verify-field", "--field", str(field)).stdout)["verified"]
        field.write_text(json.dumps(data | {"distinguished": 7}))
        proc = run_cli("verify-field", "--field", str(field), check=False)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "BadParameters"

    def test_pisot_search(self, workdir, sqrt2):
        field = workdir / "sqrt2b.json"
        field.write_text(canonical_dumps(datum_to_json(sqrt2)))
        cons = workdir / "cone.json"
        cons.write_text(json.dumps([
            {"coeffs": [1, 0], "rel": ">1"}, {"coeffs": [0, 1], "rel": "<1"},
        ]))
        proc = run_cli("pisot", "--field", str(field), "--height", "2",
                       "--constraints", str(cons))
        found = json.loads(proc.stdout)
        assert {"coeffs": ["1", "1"], "min_poly": ["-1", "-2", "1"]}.items() <= \
            next(u for u in found if u["coeffs"] == ["1", "1"]).items()

    def test_pisot_box_over_budget_exit1(self, workdir, sqrt2):
        field = workdir / "sqrt2d.json"
        field.write_text(canonical_dumps(datum_to_json(sqrt2)))
        proc = run_cli("pisot", "--field", str(field), "--height", "1000",
                       check=False)
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "SearchBudgetExceeded"

    def test_pisot_height_zero(self, workdir, sqrt2):
        field = workdir / "sqrt2c.json"
        field.write_text(canonical_dumps(datum_to_json(sqrt2)))
        proc = run_cli("pisot", "--field", str(field), "--height", "0")
        assert json.loads(proc.stdout) == []


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------


def _documents():
    from anosovforms.catalog import cyclic_cubic_datum, sqrt2_datum
    from anosovforms.liealg import abelian, heisenberg

    return {
        "field": [datum_to_json(sqrt2_datum()), datum_to_json(cyclic_cubic_datum())],
        "algebra": [algebra_to_json(heisenberg()), algebra_to_json(abelian(2)),
                    FIELD_ALGEBRA],
        "map": [{"matrix": [["2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1"]]},
                {"matrix": [["2", "1"], ["1", "1"]]}],
        "constraints": [[{"coeffs": [1, 0], "rel": "<1"}],
                        [{"coeffs": [0, 1, -1], "rel": ">1"}]],
    }


_KEYS = ["min_poly", "automorphisms", "identity", "table", "roots", "lo", "hi",
         "totally_real", "moduli", "distinguished", "assume_irreducible",
         "field", "dim", "brackets", "labels", "matrix", "coeffs", "rel"]
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-4, 4, allow_nan=False, width=16)
    | st.text(alphabet="0123456789/-,ab<>1Q", max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _document(draw, kind):
    """A valid document of the kind, one with a key dropped or its value
    replaced, junk JSON, or text that is not JSON."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_documents()[kind]))))
    how = draw(st.sampled_from(["valid", "drop", "replace", "junk", "text"]))
    if how == "text":
        return draw(st.text(alphabet='{}[]":,0123abc ', max_size=12))
    if how == "junk":
        doc = draw(_junk)
    elif how != "valid":
        target = doc[0] if isinstance(doc, list) else doc
        key = draw(st.sampled_from(sorted(target)))
        if how == "drop":
            del target[key]
        else:
            target[key] = draw(_junk)
    return json.dumps(doc)


_number = st.one_of(st.integers(-3, 12).map(str),
                    st.text(alphabet="0123456789-/ax", min_size=0, max_size=4))


@st.composite
def _argv(draw, workdir):
    def file_option(flag, kind):
        if not draw(st.booleans()):
            return []
        path = workdir / f"fuzz_{kind}.json"
        if draw(st.integers(0, 9)) == 0:
            return [flag, str(workdir / "fuzz_missing.json")]
        text = draw(_document(kind))
        path.write_text(text)
        written[kind] = text
        return [flag, str(path)]

    def value_option(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    written = {}
    command = draw(st.sampled_from(["construct", "certify", "pell", "pisot"]))
    argv = [command]
    if command == "pell":
        argv += value_option("--disc", st.one_of(
            st.integers(-50, 10 ** 4).map(str), _number))
    elif command == "certify":
        argv += file_option("--algebra", "algebra") + file_option("--map", "map")
    elif command == "pisot":
        argv += file_option("--field", "field")
        argv += value_option("--height", st.one_of(
            st.integers(-2, 3).map(str), st.just(str(10 ** 6)), _number))
        argv += value_option("--powers", st.one_of(st.integers(-2, 3).map(str), _number))
        argv += file_option("--constraints", "constraints")
    else:
        # z4 takes no options and always succeeds, and csig/last cost seconds
        # from class 4 on, so classes 3..26 are left out to keep the draws
        # cheap; classes past the dimension budget exit 1 at once
        recipe = draw(st.sampled_from(["count", "laur", "csig", "last", "nope"]))
        argv += [f"--recipe={recipe}"]
        argv += value_option("--k", _number) + value_option("--l", _number)
        argv += value_option("--class", st.one_of(
            st.integers(-2, 2).map(str), st.sampled_from(["28", "1000000"]),
            st.text(alphabet="-/ax.", max_size=3)))
        argv += file_option("--field", "field")
        argv += value_option("--lambda", st.one_of(
            st.sampled_from(["1,1", "0,1", "1,1,0", "2,1,0,0"]),
            st.text(alphabet="0123,/-a ", max_size=6)))
        argv += file_option("--algebra", "algebra")
        argv += value_option("--grading", st.text(alphabet="0123,-a", max_size=5))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-o", "--help", "x"])))
    return argv, written


def _run_in_process(argv):
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from anosovforms.cli import main

    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


class TestFuzz:
    @pytest.mark.parametrize("argv", [
        ["construct", "--recipe=last", "--class=--"],
        ["construct", "--recipe=csig", "--class=--"],
        ["pell", "--disc=--"],
    ])
    def test_lone_double_dash_value_exit2(self, argv):
        code, err = _run_in_process(argv)
        assert code == 2 and err.startswith("usage: ")

    @pytest.mark.parametrize("text", ["[]", "3", '"Q"', "null"])
    def test_field_file_not_an_object_exit2(self, workdir, text):
        path = workdir / "not_an_object.json"
        path.write_text(text)
        code, err = _run_in_process(["pisot", "--field", str(path), "--height", "1"])
        assert code == 2 and err.startswith("malformed input: ")
        assert err.count("\n") == 1

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_contract(self, workdir, data):
        # an exception escaping main is the traceback the contract forbids
        argv, written = data.draw(_argv(workdir))
        code, err = _run_in_process(argv)
        case = (argv, written, code, err)
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 0:
            assert err == "", case
        elif code == 1:
            obj = json.loads(err)
            assert isinstance(obj, dict) and set(obj) == {"error", "detail"}, case
        else:
            assert err.startswith("usage: ") or err.count("\n") == 1, case


class TestInputsThatRanWithoutABound:
    """Each of these ran for minutes, or without end; under the timeout
    each finishes with its result or its named budget error."""

    def test_classify42_with_a_large_parameter(self, workdir):
        alg = workdir / "nk_large.json"
        alg.write_text(canonical_dumps(algebra_to_json(nk_algebra(10 ** 16 + 61))))
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "classify42",
                               "--algebra", str(alg)], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"anosov_compatible": True, "k": 10 ** 16 + 61}

    def test_count_with_a_large_squarefree_parameter(self):
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "construct", "--recipe",
                               "count", "--k", "10000000000000061", "--l", "2"],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "IrreducibilityBudgetExceeded"

    def test_pfaffian_past_its_size_budget(self, workdir):
        # a dense adapted algebra with n1 = 16, k = 2: 15!! = 2,027,025
        # matchings, where n1 = 12 has 10,395
        rng = random.Random(16)
        alg = workdir / "dense16.json"
        alg.write_text(canonical_dumps(algebra_to_json(LieAlgebra(18, tuple(
            (i, j, t, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for i in range(16) for j in range(i + 1, 16) for t in (16, 17))))))
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "pfaffian", "--algebra",
                               str(alg)], capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "DimensionBudgetExceeded",
            "detail": "skew matrix of size 16 exceeds the Pfaffian budget of 12"}

    @pytest.mark.parametrize("powers", ["100000", "1000000000"])
    def test_pisot_with_many_powers(self, workdir, powers):
        field = workdir / "sqrt2.json"
        field.write_text(canonical_dumps(datum_to_json(sqrt2_datum())))
        proc = subprocess.run([sys.executable, "-m", "anosovforms", "pisot", "--field",
                               str(field), "--height", "1", "--powers", powers],
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "SearchBudgetExceeded"
