"""Command line behavior: exit codes, JSON output, self-check."""

import json

import pytest

from reesgor import cli
from reesgor.cli import (
    EXIT_INAPPLICABLE,
    EXIT_OK,
    EXIT_UNTRUSTED,
    EXIT_USAGE,
    classify_failure,
    main,
)
from reesgor.errors import (
    BudgetExceededError,
    InapplicableError,
    IncompleteSearchError,
    InvariantViolationError,
    NotAReductionError,
    NotMPrimaryError,
    StabilizationError,
)
from reesgor.report import SCHEMA_VERSION, job_from_dict


@pytest.fixture
def job(tmp_path):
    def write(payload, name="job.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


SQUARE = {"dim": 2, "gens": [[2, 0], [1, 1], [0, 2]]}
TWO_FACETS = {"dim": 2, "gens": [[3, 0], [1, 1], [0, 3]]}
PURE = {"dim": 2, "gens": [[2, 0], [0, 3]]}
NOT_PRIMARY = {"dim": 2, "gens": [[1, 0]]}


# ------------------------------------------------------------------ #
# exit codes


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "a command or --corpus" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file_is_usage_error(capsys):
    assert main(["np", "/no/such/file.json"]) == EXIT_USAGE
    assert "reesgor:" in capsys.readouterr().err


def test_malformed_json_is_usage_error(job, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["np", str(path)]) == EXIT_USAGE


def test_bad_job_shapes_are_usage_errors(job):
    assert main(["np", job([1, 2, 3])]) == EXIT_USAGE
    assert main(["np", job({"dim": 2})]) == EXIT_USAGE
    assert main(["np", job({"dim": 2, "gens": [[2, 0]], "zz": 1})]) == EXIT_USAGE
    assert main(["np", job({"dim": 2, "gens": [[2, 0, 0]]})]) == EXIT_USAGE
    assert (
        main(["qgor", job({**PURE, "reduction": [[1, 0]]})]) == EXIT_USAGE
    )


def test_boolean_job_data_is_usage_error(job, capsys):
    assert main(["--json", "report", job({"dim": True, "gens": [[3]]})]) == (
        EXIT_USAGE
    )
    assert "'dim' must be a positive integer" in capsys.readouterr().err
    bool_exponent = {"dim": 2, "gens": [[True, 0], [0, 2]]}
    assert main(["--json", "report", job(bool_exponent)]) == EXIT_USAGE
    assert "non-integer exponent" in capsys.readouterr().err
    with pytest.raises(ValueError):
        job_from_dict({"dim": True, "gens": [[3]]})
    with pytest.raises(ValueError):
        job_from_dict(bool_exponent)


def test_fast_gorenstein_needs_pure_powers(job, capsys):
    assert main(["gorenstein", "--fast", job(SQUARE)]) == EXIT_INAPPLICABLE
    assert "pure powers" in capsys.readouterr().err


def test_oversized_gorenstein_job_is_untrusted(job, capsys):
    exps = (7, 11, 13, 17, 19, 23)
    gens = [[a if i == j else 0 for j in range(6)] for i, a in enumerate(exps)]
    assert main(["gorenstein", job({"dim": 6, "gens": gens})]) == EXIT_UNTRUSTED
    assert "11612160 columns" in capsys.readouterr().err


def test_qgor_needs_pure_power_reduction(job, capsys):
    assert main(["qgor", job(TWO_FACETS)]) == EXIT_INAPPLICABLE


def test_cone_needs_m_primary(job, capsys):
    assert main(["cone", job(NOT_PRIMARY)]) == EXIT_USAGE


def test_classify_failure_table():
    assert classify_failure(InapplicableError("x")) == EXIT_INAPPLICABLE
    assert classify_failure(InvariantViolationError("x")) == EXIT_UNTRUSTED
    assert classify_failure(IncompleteSearchError("x")) == EXIT_UNTRUSTED
    assert classify_failure(BudgetExceededError("x")) == EXIT_UNTRUSTED
    assert classify_failure(StabilizationError("x")) == EXIT_UNTRUSTED
    assert classify_failure(NotMPrimaryError("x")) == EXIT_USAGE
    assert classify_failure(NotAReductionError("x")) == EXIT_USAGE
    assert classify_failure(ValueError("x")) == EXIT_USAGE
    assert classify_failure(OSError("x")) == EXIT_USAGE
    with pytest.raises(KeyError):
        classify_failure(KeyError("x"))


# ------------------------------------------------------------------ #
# command output


def test_np_human_output(job, capsys):
    assert main(["np", job(SQUARE)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bounded_facets" in out
    assert "m_primary: true" in out


def test_np_json_output(job, capsys):
    assert main(["--json", "np", job(SQUARE)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounded_facets"] == [{"normal": [1, 1], "offset": 2}]
    assert payload["m_primary"] is True


def test_iclosure_power_flag(job, capsys):
    assert main(["--json", "iclosure", "-n", "2", job(PURE)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["power"] == 2
    assert [4, 0] in payload["closure"]["gens"]


def test_cone_json(job, capsys):
    assert main(["--json", "cone", job(SQUARE)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [-1, -1, 2] in payload["matrix"]
    assert [0, 2, 1] in payload["rays"]


def test_gorenstein_full_and_fast_agree(job, capsys):
    assert main(["--json", "gorenstein", job(PURE)]) == EXIT_OK
    full = json.loads(capsys.readouterr().out)
    assert main(["--json", "gorenstein", "--fast", job(PURE)]) == EXIT_OK
    fast = json.loads(capsys.readouterr().out)
    assert full["gorenstein"] == fast["gorenstein"] is False
    assert full["method"] == "canonical-generators"
    assert fast["method"] == "pure-power"
    assert fast["remainder"] == 5


def test_core_power_flag(job, capsys):
    assert main(["--json", "core", "--u", "2", job(PURE)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["u"] == 2
    assert payload["power_formula"]["matches"] is True


def test_core_power_below_one_is_usage_error(job, capsys):
    for payload in (PURE, TWO_FACETS):
        for u in ("0", "-1"):
            assert main(["--json", "core", "--u", u, job(payload)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "u must be at least 1" in captured.err
    assert main(["--json", "core", "--u", "2", job(PURE)]) == EXIT_OK


def test_json_output_is_deterministic(job, capsys):
    main(["--json", "report", job(SQUARE)])
    first = capsys.readouterr().out
    main(["--json", "report", job(SQUARE)])
    second = capsys.readouterr().out
    assert first == second


def test_report_sections(job, capsys):
    assert main(["--json", "report", job(SQUARE)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == SCHEMA_VERSION
    for key in [
        "ideal",
        "newton",
        "integral_closure",
        "cone",
        "gorenstein",
        "gorenstein_fast",
        "invariants",
        "quasi_gorenstein",
        "cohen_macaulay",
        "core",
        "consistency",
    ]:
        assert key in payload, key
    assert payload["consistency"]["all_ok"] is True
    assert payload["quasi_gorenstein"]["quasi_gorenstein"] is False
    assert payload["invariants"]["conductor_exponent"] == 0


def test_report_marks_inapplicable_sections(job, capsys):
    assert main(["--json", "report", job(TWO_FACETS)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "inapplicable" in payload["quasi_gorenstein"]
    assert "inapplicable" in payload["gorenstein_fast"]
    assert "inapplicable" in payload["invariants"]
    assert payload["gorenstein"]["gorenstein"] is False


def test_report_with_supplied_reduction(job, capsys):
    spec = {**SQUARE, "reduction": [[2, 0], [0, 2]]}
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["quasi_gorenstein"]["reduction"]["gens"] == [[0, 2], [2, 0]]
    assert payload["invariants"]["reduction_number"] == 1


def test_job_reduction_must_be_inside():
    with pytest.raises(ValueError):
        job_from_dict({"dim": 2, "gens": [[2, 0], [0, 2]], "reduction": [[1, 0]]})


# ------------------------------------------------------------------ #
# seeded self-check


def test_corpus_smoke(capsys):
    assert main(["--corpus", "6", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 6
    assert all(l.endswith(" ok") for l in lines)


def test_corpus_json(capsys):
    assert main(["--json", "--corpus", "3", "--seed", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["results"]) == 3
    assert all(case["ok"] for case in payload["results"])


def test_corpus_records_a_raising_case(monkeypatch, capsys):
    real = cli.corpus_case

    def flaky_case(index, seed):
        if index == 1:
            raise RuntimeError("boom")
        return real(index, seed)

    monkeypatch.setattr(cli, "corpus_case", flaky_case)
    assert main(["--json", "--corpus", "3", "--seed", "5"]) == EXIT_UNTRUSTED
    results = json.loads(capsys.readouterr().out)["results"]
    assert [case["index"] for case in results] == [0, 1, 2]
    assert not results[1]["ok"]
    assert results[1]["failures"] == ["RuntimeError: boom"]
    for other in (results[0], results[2]):
        assert other["ok"] and other["ideal"] != "?"


def test_corpus_rejects_bad_count(capsys):
    assert main(["--corpus", "0"]) == EXIT_USAGE
