import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from equipart.certify import verify_identities
from equipart.cli import build_parser, run
from equipart.problems import ConstraintProblem, compile_forms
from equipart.solver import SolverConfig

from oracle import product_of_forms_oracle


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def run_json(capsys, argv):
    code = run(argv)
    out, err = capture(capsys)
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_check_certified(capsys):
    code, doc, _ = run_json(capsys, ["check", "--k", "3", "--m", "1,1,2", "--d", "4"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "certified" and doc["mode"] == "strict"
    assert doc["D"] == 12 and doc["kd"] == 12 and doc["tight"]


def test_check_relaxed_inconclusive_exit_1(capsys):
    code, doc, _ = run_json(
        capsys,
        ["check", "--k", "3", "--m", "3", "--ortho", "all", "--d", "9", "--mode", "relaxed"],
    )
    assert code == 1
    assert doc["verdict"] == "inconclusive" and doc["h_is_zero"]


def test_check_verbose_dumps_polynomial(capsys):
    code, doc, _ = run_json(
        capsys, ["check", "--k", "2", "--m", "1,1", "--d", "2", "-v"]
    )
    assert code == 0
    assert doc["h_support"] == [[2, 2]]
    # a relaxed product of several terms, against the brute-force oracle
    code, doc, _ = run_json(
        capsys, ["check", "--k", "3", "--m", "4,2", "--d", "16", "--mode", "relaxed", "-v"]
    )
    forms = compile_forms(ConstraintProblem.of(3, m=(4, 2)))
    expect = product_of_forms_oracle(3, 16, forms).sorted_support()
    assert code == 0 and len(expect) == 4
    assert doc["h_support"] == [list(t) for t in expect]


def test_check_counting_violation_exit_2(capsys):
    code = run(["check", "--k", "2", "--m", "5", "--d", "2"])
    out, err = capture(capsys)
    assert code == 2
    msg = json.loads(err.splitlines()[-1])
    assert msg["kind"] == "usage" and "degrees of freedom" in msg["error"]


def test_check_extra_forms_fully_constrained(capsys):
    code, doc, _ = run_json(
        capsys,
        [
            "check", "--k", "4", "--m", "1", "--a", "0,0,2,3", "--ortho", "all",
            "--extra", "0100;0010;0001;0110;0101;0011", "--d", "8",
        ],
    )
    assert code == 0
    assert doc["verdict"] == "certified" and doc["D"] == 32 == doc["kd"]


def test_bound_document(capsys):
    code, doc, _ = run_json(capsys, ["bound", "--k", "4", "--m", "1"])
    assert code == 0
    assert doc["L"] == 4 and doc["U"] == 8 and doc["C"] == 15 and doc["lower_dim"] == 4


def test_bound_output_of_a_wide_problem(capsys):
    code = run(["bound", "--k", "64", "--m", "1"])
    out, _ = capture(capsys)
    zeros = ", ".join(["0"] * 63)
    assert code == 0 and out == (
        '{"C": 18446744073709551615, "L": 288230376151711744, '
        '"U": 9223372036854775808, "known": null, "lower_dim": 288230376151711744, '
        f'"problem": {{"a": [0, {zeros}], "extra": [], "k": 64, "m": [1, {zeros}], '
        '"ortho": []}, "schema_version": 1}\n'
    )


@pytest.mark.parametrize("k", ["20000", "1000000000"])
def test_bound_huge_k_exit_2(capsys, k):
    start = time.perf_counter()
    code = run(["bound", "--k", k, "--m", "1"])
    elapsed = time.perf_counter() - start
    out, err = capture(capsys)
    assert code == 2 and elapsed < 1.0 and out == ""
    (line,) = err.splitlines()
    assert f"k={k}" in json.loads(line)["error"]


def test_bound_known_value_with_cite(capsys):
    code = run(["bound", "--k", "3", "--m", "1,1,2", "--cite"])
    out, err = capture(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["known"]["lo"] == doc["known"]["hi"] == 4
    assert "provenance" in doc["known"]
    assert err.startswith("# known value:")


def test_classify_document(capsys):
    code, doc, _ = run_json(
        capsys, ["classify", "--k", "2", "--m", "5,2", "--ortho", "1-2", "--d", "9"]
    )
    assert code == 0
    c = doc["classification"]
    assert c["optimal"] is False and c["j_maximal"] == 2 and c["tight"]


def test_classify_contradiction_exit_2(capsys):
    code = run(["classify", "--k", "3", "--m", "1,1,2", "--d", "3"])
    _, err = capture(capsys)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["kind"] == "usage"


def test_families_generates_and_certifies(capsys):
    code, doc, _ = run_json(
        capsys, ["families", "cascade", "--q", "0", "--t", "1", "--k", "3"]
    )
    assert code == 0
    assert doc["problem"]["m"] == [1, 1, 2] and doc["d"] == 4
    assert doc["certificate"]["verdict"] == "certified"


def test_families_domain_error_exit_2(capsys):
    code = run(["families", "cascade", "--q", "0", "--t", "2", "--k", "3"])
    _, err = capture(capsys)
    assert code == 2


@pytest.mark.parametrize("family", ["cascade", "ortho-full", "ortho-not12", "ortho-last",
                                    "hs-cascade"])
@pytest.mark.parametrize("q, k, error", [
    ("100000000", "3", "q must be < 27, got 100000000"),
    pytest.param("1" * 4000, "3", "q must be < 27, got <13285-bit integer>", id="4000-digits"),
    ("27", "3", "q must be < 27, got 27"),
    ("1", "1000000000", "k must be <= 1024, got 1000000000"),
])
def test_families_refuse_a_huge_q_or_k_before_forming_2_to_the_q(capsys, family, q, k, error):
    # every family's d is at least 2^q, so from q = 27 its ring is past the
    # 2^26-cell cap; the refusal must come before 2^q or the k cascade
    # entries are built, and it names a q past 64 bits by its bit length
    t = [] if family == "hs-cascade" else ["--t", "2"]  # hs-cascade takes no --t
    start = time.perf_counter()
    code = run(["families", family, "--q", q, "--k", k, *t])
    elapsed = time.perf_counter() - start
    out, err = capture(capsys)
    assert code == 2 and out == "" and elapsed < 1.0
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == f"FamilyDomainError: {error}" + (
        "" if error.startswith("k") else ": d >= 2^q puts the instance's ring past the cap 2^26 cells"
    )


def test_families_ortho_last_subset(capsys):
    code, doc, _ = run_json(
        capsys,
        ["families", "ortho-last", "--q", "1", "--t", "1", "--k", "3", "--ortho", "2-3"],
    )
    assert code == 0
    assert doc["problem"]["m"] == [3, 1, 2] and doc["problem"]["ortho"] == [[2, 3]]


@pytest.mark.parametrize("argv, flag", [
    (["families", "cascade", "--q", "0", "--t", "1", "--k", "3", "--ortho", "1-2"], "ortho"),
    (["families", "ortho-full", "--q", "1", "--t", "2", "--k", "3", "--ortho", "1-2"], "ortho"),
    (["families", "hs-cascade", "--q", "0", "--k", "3", "--t", "5"], "t"),
    (["families", "hs-cascade", "--q", "0", "--k", "3", "--a", "0,0,1"], "a"),
    (["families", "ortho-not12", "--q", "1", "--t", "1", "--k", "3", "--a", "0,0,1"], "a"),
    (["families", "ortho-last", "--q", "1", "--t", "1", "--k", "3", "--a", "0,0,1"], "a"),
])
def test_families_refuse_a_flag_their_family_ignores(capsys, argv, flag):
    # the flag would be dropped, and the instance printed without it
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {
        "error": f"family {argv[1]!r} takes no --{flag}", "kind": "usage"
    }


@pytest.mark.parametrize("ortho", ["foo", "1-2,x", "1-2-3", "1", "1-"])
def test_malformed_ortho_names_the_accepted_forms(capsys, ortho):
    code = run(["check", "--k", "3", "--m", "1", "--d", "3", "--ortho", ortho])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == (
        f"--ortho must be 'all', 'last', 'not12' or pairs 'r-s,...', got {ortho!r}"
    )


@pytest.mark.parametrize("argv, message", [
    (["check", "--k", "2", "--m", "x", "--d", "2"],
     "--m must be integers 'n,n,...', got 'x'"),
    (["families", "cascade", "--q", "0", "--t", "1", "--k", "3", "--a", "x"],
     "--a must be integers 'n,n,...', got 'x'"),
    (["check", "--k", "2", "--m", "1", "--extra", "0x1", "--d", "3"],
     "--extra must be 0/1 strings 'bbb;bbb;...', got '0x1'"),
])
def test_malformed_integer_flags_name_the_flag_and_the_accepted_form(capsys, argv, message):
    # not a bare "invalid literal for int()" that leaves the user to guess
    # which flag it was
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": message, "kind": "usage"}


@pytest.mark.parametrize("argv", [
    ["check", "--k", "1025", "--m", "1", "--d", "1", "--ortho", "all"],
    ["families", "ortho-last", "--q", "1", "--t", "1", "--k", "1025", "--ortho", "all"],
])
def test_named_ortho_universe_refuses_a_huge_k_exit_2(capsys, argv):
    # a named universe would list k(k-1)/2 pairs: its builder refuses a k
    # past MAX_K before any pair is built
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "RangeError: k must be in 1..1024, got k=1025"


@pytest.mark.parametrize("extra, error", [
    ("00", "RangeError"), ("02", "RangeError"), ("101", "ShapeError"), ("11;1", "ShapeError")
])
def test_check_bad_extra_exit_2(capsys, extra, error):
    code = run(["check", "--k", "2", "--m", "1", "--d", "3", "--extra", extra])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"].startswith(f"{error}: ")


def test_identities_all_pass(capsys):
    code, doc, _ = run_json(capsys, ["identities", "--k", "4", "--d", "8"])
    assert code == 0
    assert doc["all_passed"] is True
    assert doc["results"]["dickson"]["i=1"] is True


@pytest.mark.parametrize("k, d", [(1, 1), (1, 4), (2, 1), (3, 2), (4, 8), (5, 3)])
def test_identities_document_is_the_library_result(capsys, k, d):
    code, doc, _ = run_json(capsys, ["identities", "--k", str(k), "--d", str(d)])
    results = verify_identities(k, d)
    assert code == 0
    assert doc == {"schema_version": 1, "k": k, "d": d, "results": results,
                   "all_passed": True}
    if k == 1:
        assert results == {"vandermonde": {}, "dickson": {"i=1": True},
                           "pair_shift": {"i=1": True}}


def test_identities_refuse_a_huge_ring_before_building_forms(capsys):
    # the first identity in range, j = k-1, already needs a 2^2000-cell ring
    start = time.perf_counter()
    code = run(["identities", "--k", "2000", "--d", "1"])
    elapsed = time.perf_counter() - start
    out, err = capture(capsys)
    assert code == 2 and out == "" and elapsed < 1.0
    (line,) = err.splitlines()
    assert json.loads(line)["error"].startswith("RangeError: ring with k=2000, d=1")


@pytest.mark.parametrize("k, d", [("0", "3"), ("3", "-2")])
def test_identities_reject_an_empty_range_exit_2(capsys, k, d):
    # no identity is in range there, so the verdict would pass vacuously
    code = run(["identities", "--k", k, "--d", d])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith("RangeError: identities need")


def test_atlas_inline_json(capsys):
    code = run(
        ["atlas", "--k", "2", "--d-lo", "2", "--d-hi", "2", "--max-m", "2", "--format", "json"]
    )
    out, _ = capture(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    ms = [row["problem"]["m"] for row in doc["rows"]]
    assert [1, 1] in ms


def test_atlas_spec_file_and_csv(tmp_path, capsys):
    spec = {
        "k": 2,
        "d_range": [2, 2],
        "mode": "strict",
        "max_m": 3,
        "max_a": 2,
        "allow_affine": True,
        "ortho_universe": "all",
    }
    path = tmp_path / "query.json"
    path.write_text(json.dumps(spec))
    code = run(["atlas", "--spec", str(path), "--format", "csv"])
    out, _ = capture(capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("k,d,m,")
    assert any('"(1,1)"' in line or "(1,1)" in line for line in out.splitlines()[1:])


def test_atlas_refusal_exit_2(tmp_path, capsys):
    spec = {"k": 3, "d_range": [2, 50], "max_m": 9, "max_a": 9,
            "allow_affine": True, "candidate_limit": 1000}
    path = tmp_path / "query.json"
    path.write_text(json.dumps(spec))
    code = run(["atlas", "--spec", str(path)])
    _, err = capture(capsys)
    assert code == 2
    msg = json.loads(err.splitlines()[-1])
    assert msg["kind"] == "search-space" and msg["estimate"] > 1000


@pytest.mark.parametrize("flag", ["--max-m", "--max-a"])
def test_atlas_negative_bound_flag_exit_2(flag):
    code, out, err = run_quiet(["atlas", "--k", "2", "--d-lo", "2", "--d-hi", "3", flag, "-1"])
    assert assert_clean_exit(code, out, err) == 2 and out == ""
    name = flag[2:].replace("-", "_")
    assert json.loads(err)["error"] == f"ConfigurationError: {name} must be >= 0, got -1"


@pytest.mark.parametrize("field", ["max_m", "max_a"])
def test_atlas_negative_bound_in_spec_exit_2(field):
    spec = {"k": 2, "d_range": [2, 3], field: -1}
    code, out, err = run_with_documents(["atlas"], spec=spec)
    assert assert_clean_exit(code, out, err) == 2 and out == ""
    assert json.loads(err)["error"] == f"ConfigurationError: {field} must be >= 0, got -1"


def test_atlas_huge_k_refused_before_counting(capsys):
    start = time.perf_counter()
    code = run(["atlas", "--k", "3000", "--d-lo", "2", "--d-hi", "2"])
    elapsed = time.perf_counter() - start
    _, err = capture(capsys)
    assert code == 2 and elapsed < 1.0
    msg = json.loads(err.splitlines()[-1])
    assert msg["kind"] == "search-space" and "k=3000, d=2" in msg["error"]


def test_solve_end_to_end(tmp_path, capsys):
    problem = {"k": 1, "m": [1]}
    masses = {
        "d": 2,
        "masses": [
            {"label": "1.1", "mixture": [{"mean": [0, 0], "cov": "I", "weight": 1}], "N": 2000}
        ],
    }
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps(problem))
    mpath.write_text(json.dumps(masses))
    code = run(
        ["solve", "--problem", str(ppath), "--masses", str(mpath), "--starts", "2", "--seed", "3"]
    )
    out, _ = capture(capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["success"] is True and doc["seed"] == 3
    # round trip under the same schema
    assert json.loads(json.dumps(doc)) == doc


def test_solve_flag_defaults_are_the_solver_config_defaults():
    # the parser spells them as literals, so that building it loads no
    # numpy; they must still be SolverConfig's
    args = build_parser().parse_args(["solve", "--problem", "p.json", "--masses", "m.json"])
    default = SolverConfig()
    assert (args.seed, args.starts, args.tol, args.jobs) == (
        default.seed, default.starts, default.tol, default.jobs
    )


def test_solve_refuses_a_stage_its_planes_cannot_cut_finely_enough(tmp_path, capsys):
    # three lines cut the plane into at most 7 regions, not the 8 orthants
    # a stage-1 mass of k = 3 needs
    masses = {"d": 2, "masses": [{"label": "1.1", "mixture": [{"mean": [0, 0]}], "N": 20_000}]}
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 3, "m": [1, 0, 0]}))
    mpath.write_text(json.dumps(masses))
    start = time.perf_counter()
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    elapsed = time.perf_counter() - start
    out, err = capture(capsys)
    assert code == 2 and out == "" and elapsed < 1.0
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == (
        "ConfigurationError: a stage-1 mass needs 2^3 regions, but 3 hyperplanes "
        "in R^2 cut at most 7"
    )


def test_solve_non_finite_mass_exit_2(tmp_path, capsys):
    masses = {
        "d": 2,
        "masses": [
            {"label": "1.1", "mixture": [{"mean": [float("nan"), 0], "weight": 1}], "N": 10}
        ],
    }
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 1, "m": [1]}))
    mpath.write_text(json.dumps(masses))
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    _, err = capture(capsys)
    assert code == 2
    assert "RangeError" in json.loads(err.splitlines()[-1])["error"]


@pytest.mark.parametrize(
    "component, error",
    [
        ('{"mean": [0, 0], "cov": [[1, 5], [0, 1]]}', "ConfigurationError: covariance must be symmetric"),
        ('{"mean": [0, 0], "weight": 1e400}', "ConfigurationError: component weights"),
        ('{"mean": [0, 0], "cov": [[1e400, 0], [0, 1]]}', "RangeError: covariance must be finite"),
    ],
)
@pytest.mark.filterwarnings("error")  # numpy's RuntimeWarning is no refusal
def test_solve_bad_mixture_component_exit_2(tmp_path, capsys, component, error):
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 1, "m": [1]}))
    # written by hand: json.dumps would spell 1e400 as Infinity
    mpath.write_text('{"d": 2, "masses": [{"label": "1.1", "N": 100, "mixture": [%s]}]}' % component)
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    _, err = capture(capsys)
    assert code == 2
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(error)


@pytest.mark.parametrize("label", ["1.10", "null", "1", "[1, 1]"])
def test_solve_mass_label_that_is_not_a_string_exit_2(tmp_path, capsys, label):
    # a number would be read through str(): 1.10 as "1.1", stage 1 index 1
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 1, "m": [1]}))
    # written by hand: json.dumps would spell 1.10 as 1.1
    mpath.write_text('{"d": 2, "masses": [{"label": %s, "N": 100, "mixture": [{"mean": [0, 0]}]}]}'
                     % label)
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    _, err = capture(capsys)
    assert code == 2
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(
        "ConfigurationError: masses[0].label must be a string"
    )


def test_solve_non_finite_containment_point_exit_2(tmp_path, capsys):
    masses = {
        "d": 2,
        "masses": [
            {"label": "1.1", "mixture": [{"mean": [0, 0], "cov": "I", "weight": 1}], "N": 100}
        ],
        "points": [{"hyperplane": 2, "coords": [float("nan"), float("inf")]}],
    }
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 2, "m": [1, 0], "a": [0, 1]}))
    mpath.write_text(json.dumps(masses))
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    _, err = capture(capsys)
    assert code == 2
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"].startswith("RangeError: containment point")


def test_solve_oversized_mass_exit_2(tmp_path, capsys):
    # 10^12 points in R^2 would be 16 TB of coordinates: one JSON line, no sampling
    masses = {"d": 2, "masses": [{"mixture": [{"mean": [0, 0]}], "N": 10**12}]}
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 1, "m": [1]}))
    mpath.write_text(json.dumps(masses))
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath)])
    out, err = capture(capsys)
    assert code == 2 and not out
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"].startswith("RangeError: a mass of N=1000000000000")


def test_solve_zero_starts_exit_2(tmp_path, capsys):
    masses = {
        "d": 2,
        "masses": [
            {"label": "1.1", "mixture": [{"mean": [0, 0], "cov": "I", "weight": 1}], "N": 100}
        ],
    }
    ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
    ppath.write_text(json.dumps({"k": 1, "m": [1]}))
    mpath.write_text(json.dumps(masses))
    code = run(["solve", "--problem", str(ppath), "--masses", str(mpath), "--starts", "0"])
    out, err = capture(capsys)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigurationError: starts must be >= 1, got 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--jobs", "0"], "ConfigurationError: jobs must be >= 1, got 0"),
        (["solve", "--tol", "inf"], "RangeError: tol must be finite, got inf"),
        (["solve", "--tol", "nan"], "RangeError: tol must be finite, got nan"),
        (["atlas", "--jobs", "0"], "ConfigurationError: jobs must be >= 1, got 0"),
        (["solve", "--seed", "-1"], "ConfigurationError: seed must be >= 0, got -1"),
        (["classify", "--k", "2", "--d", "0"], "RangeError: d must be >= 1, got 0"),
    ],
)
def test_out_of_range_solver_arguments_exit_2(tmp_path, capsys, argv, message):
    if argv[0] == "solve":
        ppath, mpath = tmp_path / "p.json", tmp_path / "m.json"
        ppath.write_text(json.dumps({"k": 1, "m": [1]}))
        mpath.write_text(json.dumps({"d": 2, "masses": GOOD_MASSES}))
        argv = argv + ["--problem", str(ppath), "--masses", str(mpath)]
    code = run(argv)
    out, err = capture(capsys)
    assert code == 2 and out == ""
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == message


def run_quiet(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err, kinds=("usage",)):
    """The exit code is 0, 1 or 2, exit 2 prints exactly one JSON error
    line on stderr, and no run prints a traceback."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] in kinds
    return code


def run_with_documents(argv, **documents):
    """Write each document as JSON to a temporary file and run the CLI
    with --<name> <file> appended for each."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in documents.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = argv + [f"--{name}", str(path)]
        return run_quiet(argv)


# Problem flag values: well-formed lists (of any length, so often not k),
# or fragments of numbers, separators and junk.
FLAG_TEXT = st.text(alphabet="0123456789,-;x ", max_size=8)
INT_LIST = st.lists(st.integers(0, 3), max_size=3).map(lambda xs: ",".join(map(str, xs)))
PAIR_LIST = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=3).map(
    lambda ps: ",".join(f"{r}-{s}" for r, s in ps)
)
BITS_LIST = st.lists(st.text(alphabet="01", min_size=1, max_size=3), max_size=2).map(";".join)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["check", "bound"]),
    k=st.integers(1, 3),
    d=st.integers(1, 6),
    mode=st.sampled_from(["strict", "relaxed"]),
    m=st.one_of(INT_LIST, FLAG_TEXT),
    a=st.one_of(INT_LIST, FLAG_TEXT),
    ortho=st.one_of(st.sampled_from(["all", "last", "not12"]), PAIR_LIST, FLAG_TEXT),
    extra=st.one_of(BITS_LIST, FLAG_TEXT),
)
def test_problem_flags_fuzz(command, k, d, mode, m, a, ortho, extra):
    argv = [command, "--k", str(k), f"--m={m}", f"--a={a}", f"--ortho={ortho}",
            f"--extra={extra}"]
    if command == "check":
        argv += ["--d", str(d), "--mode", mode]
    code, out, err = run_quiet(argv)
    if assert_clean_exit(code, out, err) != 2:
        assert json.loads(out)["schema_version"] == 1


GOOD_MASSES = [{"label": "1.1", "mixture": [{"mean": [0, 0], "cov": "I", "weight": 1}], "N": 6}]


@pytest.mark.parametrize(
    "command, documents, field",
    [
        ("atlas", {"spec": [1, 2]}, "atlas spec"),
        ("atlas", {"spec": {"k": 3, "d_range": [2]}}, "d_range"),
        ("atlas", {"spec": {"k": 2, "d_range": [2, 2], "ortho_universe": [5]}},
         "ortho_universe[0]"),
        ("atlas", {"spec": {"k": 2, "d_range": [2, 2], "max_m": float("inf")}}, "max_m"),
        ("solve", {"problem": {"k": 1, "m": [1]}, "masses": {"d": 2, "masses": [1]}}, "masses[0]"),
        ("solve", {"problem": {"k": 1, "m": [1], "a": [1]},
                   "masses": {"d": 2, "masses": GOOD_MASSES, "points": [5]}}, "points[0]"),
        ("solve", {"problem": [1]}, "problem"),
        ("solve", {"problem": {"k": None}}, "k"),
        ("solve", {"problem": {"k": 1.9}}, "k"),
        ("solve", {"problem": {"k": "1"}}, "k"),
        ("solve", {"problem": {"k": 1, "m": 5}}, "m"),
        ("solve", {"problem": {"k": 2, "a": [0, True]}}, "a[1]"),
        ("solve", {"problem": {"k": 2, "ortho": [[1]]}}, "ortho[0]"),
        ("solve", {"problem": {"k": 2, "ortho": [[1, "2"]]}}, "ortho[0][1]"),
        ("solve", {"problem": {"k": 2, "extra": [[0, 1.0]]}}, "extra[0][1]"),
        ("solve", {"problem": {"k": 2, "extra": 1}}, "extra"),
    ],
)
def test_malformed_documents_exit_2(command, documents, field):
    if command == "solve":
        documents = {"masses": {"d": 2, "masses": GOOD_MASSES}, **documents}
    code, out, err = run_with_documents([command], **documents)
    assert assert_clean_exit(code, out, err) == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"ConfigurationError: {field} must be")


@pytest.mark.parametrize(
    "command, documents, where, key",
    [
        ("solve", {"problem": {"k": 2, "m": [1], "orhto": [[1, 2]]}}, "problem", "orhto"),
        ("atlas", {"spec": {"k": 2, "d_range": [2, 2], "max-m": 5}}, "atlas spec", "max-m"),
        ("solve", {"masses": {"d": 2, "masses": GOOD_MASSES, "point": []}}, "mass spec", "point"),
        ("solve", {"masses": {"d": 2, "masses": [{**GOOD_MASSES[0], "n": 10}]}},
         "masses[0]", "n"),
        ("solve", {"masses": {"d": 2, "masses": [
            {**GOOD_MASSES[0], "mixture": [{"mean": [0, 0], "covariance": 9}]}]}},
         "masses[0].mixture[0]", "covariance"),
        ("solve", {"problem": {"k": 1, "m": [1], "a": [1]},
                   "masses": {"d": 2, "masses": GOOD_MASSES,
                              "points": [{"hyperplane": 1, "coords": [0, 0], "plane": 2}]}},
         "points[0]", "plane"),
    ],
)
def test_documents_refuse_a_field_they_do_not_read(command, documents, where, key):
    # a misspelt field would be dropped and its default used: a weaker
    # problem, another query, the identity covariance
    if command == "solve":
        documents = {"problem": {"k": 1, "m": [1]}, "masses": {"d": 2, "masses": GOOD_MASSES},
                     **documents}
    code, out, err = run_with_documents([command], **documents)
    assert assert_clean_exit(code, out, err) == 2 and out == ""
    error = json.loads(err)["error"]
    assert error.startswith(f"ConfigurationError: {where} has an unknown field {key!r}")


# JSON values of every type, for fields that are meant to hold something else.
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def maybe(strategy):
    """A well-formed value about seven times in eight, otherwise JSON junk
    (keyed on a middle value: hypothesis favours the ends of a range)."""
    return st.integers(0, 7).flatmap(lambda n: JUNK if n == 3 else strategy)


PAIRS = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda t: [t[0], t[0] + t[1]]),
        st.lists(st.integers(0, 4), max_size=3),
    ),
    max_size=3,
)
ATLAS_SPECS = maybe(
    st.fixed_dictionaries(
        {"k": maybe(st.integers(1, 3)),
         "d_range": maybe(st.one_of(
             st.tuples(st.integers(1, 3), st.integers(0, 1)).map(lambda t: [t[0], t[0] + t[1]]),
             st.lists(st.integers(0, 4), max_size=3),
         ))},
        optional={
            "mode": maybe(st.sampled_from(["strict", "relaxed", "loose"])),
            "max_m": maybe(st.integers(-1, 2)),
            "max_a": maybe(st.integers(0, 1)),
            "allow_ortho": maybe(st.booleans()),
            "allow_affine": maybe(st.booleans()),
            "ortho_universe": maybe(st.sampled_from(["all", "last", "not12", "none"]) | PAIRS),
            "require_optimal": maybe(st.booleans()),
            "require_maximal_j": maybe(st.none() | st.integers(0, 3)),
            "require_balanced": maybe(st.booleans()),
            "candidate_limit": maybe(st.integers(-1, 10_000)),
        },
    )
)


@settings(max_examples=200, deadline=None)
@given(spec=ATLAS_SPECS, fmt=st.sampled_from(["json", "csv", "markdown"]))
def test_atlas_spec_fuzz(spec, fmt):
    code, out, err = run_with_documents(["atlas", "--format", fmt], spec=spec)
    assert_clean_exit(code, out, err, kinds=("usage", "search-space"))
    assert code != 1
    if code == 0 and fmt == "json":
        assert json.loads(out)["schema_version"] == 1
    elif code == 0:
        assert out.startswith({"csv": "k,d,m,", "markdown": "| k | d |"}[fmt])
    event(f"exit {code}")


@st.composite
def mass_specs(draw):
    d = draw(st.integers(1, 3))
    coords = maybe(st.lists(st.floats(-5, 5), min_size=d, max_size=d))
    component = maybe(st.fixed_dictionaries({"mean": coords}, optional={
        "cov": maybe(st.one_of(st.just("I"), st.floats(0.1, 2.0),
                               st.lists(st.lists(st.floats(-1, 1), max_size=2), max_size=2))),
        "weight": maybe(st.floats(0.1, 2.0)),
    }))
    mass = maybe(st.fixed_dictionaries(
        {"mixture": maybe(st.lists(component, min_size=1, max_size=2)),
         "N": maybe(st.integers(1, 6))},
        optional={"label": maybe(st.sampled_from(["1.1", "1.2"])),
                  "total": maybe(st.floats(0.5, 2.0))},
    ))
    point = maybe(st.fixed_dictionaries({"hyperplane": maybe(st.just(1)), "coords": coords}))
    return draw(maybe(st.fixed_dictionaries(
        {"d": maybe(st.just(d)),
         "masses": maybe(st.lists(mass, min_size=1, max_size=2)),
         "points": maybe(st.lists(point, min_size=1, max_size=2))},
    )))


# The problem for the mass spec fuzz: hyperplane 1 bisects mass 1.1 through
# one prescribed point, each field now and then JSON junk.
PROBLEMS = maybe(st.fixed_dictionaries(
    {"k": maybe(st.just(1)), "m": maybe(st.just([1])), "a": maybe(st.just([1]))},
    optional={"ortho": maybe(st.just([])), "extra": maybe(st.just([[1]]))},
))


@settings(max_examples=100, deadline=None)
@given(problem=PROBLEMS, masses=mass_specs())
def test_mass_spec_fuzz(problem, masses):
    # a well-formed pair of documents runs one solver start on at most 6 points
    code, out, err = run_with_documents(
        ["solve", "--starts", "1"], problem=problem, masses=masses
    )
    assert_clean_exit(code, out, err)
    if code != 2:
        assert json.loads(out)["schema_version"] == 1
    event(f"exit {code}")


def test_usage_error_single_line(capsys):
    code = run(["check", "--k", "2", "--d", "oops"])
    _, err = capture(capsys)
    assert code == 2
    lines = [l for l in err.splitlines() if l.strip()]
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "usage"


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file_exit_2(capsys):
    code = run(["solve", "--problem", "/nonexistent.json", "--masses", "/also-missing.json"])
    _, err = capture(capsys)
    assert code == 2
