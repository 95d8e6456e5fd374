"""Command line behavior: exit codes, JSON output, self-check."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

from reesgor import analysis, cli, report
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
    assert "17506125 columns" in capsys.readouterr().err


def test_qgor_needs_pure_power_reduction(job, capsys):
    assert main(["qgor", job(TWO_FACETS)]) == EXIT_INAPPLICABLE


def test_cone_needs_m_primary(job, capsys):
    assert main(["cone", job(NOT_PRIMARY)]) == EXIT_USAGE


def test_classify_failure_table():
    assert classify_failure(InapplicableError("x")) == EXIT_INAPPLICABLE
    assert classify_failure(InvariantViolationError("x")) == EXIT_UNTRUSTED
    assert classify_failure(IncompleteSearchError("x")) == EXIT_UNTRUSTED
    assert classify_failure(BudgetExceededError("x")) == EXIT_UNTRUSTED
    assert classify_failure(MemoryError()) == EXIT_UNTRUSTED
    assert classify_failure(NotMPrimaryError("x")) == EXIT_USAGE
    assert classify_failure(NotAReductionError("x")) == EXIT_USAGE
    assert classify_failure(ValueError("x")) == EXIT_USAGE
    assert classify_failure(OSError("x")) == EXIT_USAGE
    with pytest.raises(KeyError):
        classify_failure(KeyError("x"))


def test_out_of_memory_is_untrusted_without_a_traceback(
    job, capsys, monkeypatch
):
    # A large closure can exhaust memory inside minimalize; the run
    # then exits 3 with one line naming it, not with Python's exit 1.
    def exhausted(ideal, n, facets=None):
        raise MemoryError()

    monkeypatch.setattr(report, "closure_power", exhausted)
    for flags in ([], ["--json"]):
        argv = flags + ["iclosure", "-n", "250", job(PURE)]
        assert main(argv) == EXIT_UNTRUSTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "reesgor: ran out of memory\n"


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


def test_core_over_budget_is_untrusted(job, capsys, monkeypatch):
    anchor = {"dim": 3, "gens": [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]}
    monkeypatch.setattr(analysis, "CORE_GENERATOR_BUDGET", 63)
    assert main(["--json", "core", "--u", "2", job(anchor)]) == EXIT_UNTRUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "64 generators, above the budget of 63" in captured.err
    assert main(["--json", "core", "--u", "1", job(anchor)]) == EXIT_OK


def test_core_in_one_variable_refuses_a_large_u(job, capsys):
    path = job({"dim": 1, "gens": [[2]]})
    assert main(["--json", "core", "--u", "100000", path]) == EXIT_UNTRUSTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "I^601 is past the 600 powers" in captured.err
    assert main(["--json", "core", "--u", "600", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["core"]["gens"] == [[1200]]


# ------------------------------------------------------------------ #
# one parser per process


def test_shared_parser_matches_a_fresh_parser_per_call(
    job, capsys, monkeypatch
):
    # Options of one call must not leak into the next: -n, --fast, --u
    # and --corpus/--seed each fall back to their defaults, also after
    # a usage error in the middle of the sequence.
    pure, square = job(PURE), job(SQUARE, "square.json")
    sequence = [
        ["--json", "iclosure", "-n", "3", square],
        ["--json", "iclosure", square],
        ["--json", "gorenstein", "--fast", pure],
        ["--json", "gorenstein", pure],
        ["--json", "core", "--u", "two", pure],
        ["--json", "core", "--u", "2", pure],
        ["--json", "core", pure],
        ["--json", "--corpus", "3", "--seed", "5"],
        ["--json", "np", square],
        ["iclosure", square],
    ]

    def run_all():
        runs = []
        for argv in sequence:
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        return runs

    shared = run_all()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = run_all()
    assert shared == fresh
    codes = [code for code, _, _ in shared]
    assert codes == [EXIT_OK] * 4 + [EXIT_USAGE] + [EXIT_OK] * 5
    assert json.loads(shared[0][1])["power"] == 3
    assert json.loads(shared[1][1])["power"] == 1
    assert json.loads(shared[2][1])["method"] == "pure-power"
    assert json.loads(shared[3][1])["method"] == "canonical-generators"
    assert json.loads(shared[5][1])["u"] == 2
    assert json.loads(shared[6][1])["u"] == 1
    assert "bounded_facets" in json.loads(shared[8][1])


def test_main_builds_its_parser_once_per_process(job, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._shared_parser.cache_clear()
    path = job(PURE)
    assert main(["--json", "np", path]) == EXIT_OK
    assert built[0] == "reesgor"
    del built[:]
    for argv in (["--json", "np", path], ["cone", path], ["bogus"], []):
        main(argv)
    assert built == []
    assert cli.build_parser() is not cli.build_parser()
    assert len(built) > 2
    capsys.readouterr()


def test_the_parser_is_not_built_at_import():
    # Importing the command line builds no parser, so the import time
    # of a process stays what it was.
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import reesgor.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0"


def test_json_output_is_deterministic(job, capsys):
    main(["--json", "report", job(SQUARE)])
    first = capsys.readouterr().out
    main(["--json", "report", job(SQUARE)])
    second = capsys.readouterr().out
    assert first == second


# sha256 of the `--json report` stdout of the two ROADMAP anchors. A
# change that alters the report schema or its values on purpose
# updates these digests and says so in CHANGES.md.
ANCHOR_REPORT_DIGESTS = (
    (
        {"dim": 3, "gens": [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]},
        "ca8464f2c958db3b9bc21daf5f334f333c769e549577a4d290bed5a4a1b4f358",
    ),
    (
        {"dim": 2, "gens": [[0, 4], [1, 3], [4, 0]]},
        "77052b70d1c66f07b7c01f869e0d6bd68b18d914f4eba2979da09879ebca2836",
    ),
)


def test_anchor_reports_are_byte_identical_across_changes(job, capsys):
    for payload, digest in ANCHOR_REPORT_DIGESTS:
        assert main(["--json", "report", job(payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, payload


# sha256 of the `--json report` stdout of three jobs that reach the
# section texts the anchors do not: two bounded facets (every
# inapplicable reason), a quasi-Gorenstein ideal whose core section
# carries the power formula, and a reduction that is not pure powers.
# Same rule as the digests above.
SECTION_REPORT_DIGESTS = (
    (
        TWO_FACETS,
        "5ae5f0db27eefcab7a6c05ccb42ec1258c73113977663dbbe034e0e3542f7c9f",
    ),
    (
        {"dim": 3, "gens": [[2, 0, 0], [0, 2, 0], [0, 0, 4]]},
        "9336f2a96a156e28b150bb42050edc59b088142d04ee7ed03ed62ebf92c3619e",
    ),
    (
        {**SQUARE, "reduction": SQUARE["gens"]},
        "dab4d0a16e8558a5cbf939244781ca5345644aec27532d995fc64c164050f5d7",
    ),
)


def test_section_reports_are_byte_identical_across_changes(job, capsys):
    for payload, digest in SECTION_REPORT_DIGESTS:
        assert main(["--json", "report", job(payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, payload


# sha256 of the human-readable stdout (no --json) of the five report
# jobs above and of both Gorenstein routes on a pure power. The JSON
# digests cannot see a tuple left in a section, since json.dumps writes
# tuples as lists; the human rendering prints one as "(3, 3, 3, 7)"
# instead of "[3, 3, 3, 7]". Same rule as the digests above.
HUMAN_DIGESTS = tuple(
    (["report"], payload, digest)
    for (payload, _), digest in zip(
        ANCHOR_REPORT_DIGESTS + SECTION_REPORT_DIGESTS,
        (
            "6b64823d5f5e1573eaa8345f2b90218c52fd6f572473e7f51660b763aabc2eea",
            "fc4bcad3ef17cf4e86531631fac2f7a62d863b04e505f2e423027a86f094f254",
            "2ac85cb89bc51635a35241dd6f4192a0f351d61715d043c5136696d82c5acecf",
            "c33a08aebde242ffa508d96a2e986848a9ceeff6e4c1631958f9aac200276159",
            "258907263bbead2e37c29a89bff2be562c688c3abbe6c6ac0052582a694f20c9",
        ),
    )
) + (
    (
        ["gorenstein"],
        PURE,
        "04412ec4126b11fafcdf3efe3d179131f2bf122166c75861f95e03852cc5ae2a",
    ),
    (
        ["gorenstein", "--fast"],
        PURE,
        "32684ab05f48e76e8e3182a46900ab14739fb55ca88c873c59d4d40cb1e6a346",
    ),
)


def test_human_outputs_are_byte_identical_across_changes(job, capsys):
    for command, payload, digest in HUMAN_DIGESTS:
        assert main(command[:1] + [job(payload)] + command[1:]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (
            command,
            payload,
        )


@pytest.mark.parametrize(
    "spec, command, message",
    [
        (TWO_FACETS, "qgor", "no pure-power reduction to run the colon test against"),
        (
            TWO_FACETS,
            "cm",
            "no pure-power reduction to run the intersection test against",
        ),
        (
            {**SQUARE, "reduction": SQUARE["gens"]},
            "qgor",
            "the colon test needs a reduction generated by pure powers",
        ),
        (
            {**SQUARE, "reduction": SQUARE["gens"]},
            "cm",
            "the intersection test needs a reduction generated by pure powers",
        ),
    ],
    ids=["none-qgor", "none-cm", "not-pure-qgor", "not-pure-cm"],
)
def test_colon_and_intersection_tests_refuse_in_their_own_words(
    job, capsys, spec, command, message
):
    assert main([command, job(spec)]) == EXIT_INAPPLICABLE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"reesgor: {message}\n"


# sha256 of the `--json gorenstein` stdout of the two ROADMAP anchors,
# the largest pure-power ladder input, a d = 4 ideal without pure-power
# shape, a d = 1 ideal, two more pure-power inputs (d = 3 and d = 4)
# and a d = 4 ideal with five bounded facets. Their sweep boxes reach
# the column scan's pruned sub-boxes and its clipped x ranges. Same
# rule as the report digests above.
GORENSTEIN_DIGESTS = (
    (
        {"dim": 3, "gens": [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]},
        "602ef02b4beb7872f71a4ec380540ab03b92c123aa55e4d0d63a8111f6d19168",
    ),
    (
        {"dim": 2, "gens": [[0, 4], [1, 3], [4, 0]]},
        "eb769490902da0d8f60959d2e53035892e0ebccd7f774c9af69a6eb448ea119e",
    ),
    (
        {
            "dim": 5,
            "gens": [
                [3, 0, 0, 0, 0],
                [0, 5, 0, 0, 0],
                [0, 0, 7, 0, 0],
                [0, 0, 0, 11, 0],
                [0, 0, 0, 0, 13],
            ],
        },
        "722412945c8cc7dd35b07cfe0b3db204cb6f88927730443b60ce2e57054d9c69",
    ),
    (
        {
            "dim": 4,
            "gens": [
                [4, 0, 0, 0],
                [1, 1, 1, 1],
                [0, 4, 0, 0],
                [0, 0, 4, 0],
                [0, 0, 0, 4],
            ],
        },
        "a61df65536f976a6cde8947fa5bc89e96d3be847be32fc5dc28627be5c23ebe3",
    ),
    (
        {"dim": 1, "gens": [[5]]},
        "46e5bd86f8736975653cfeb23e7a1e0ee5611585445bcc359a56ee4294d7db05",
    ),
    (
        {"dim": 3, "gens": [[7, 0, 0], [0, 11, 0], [0, 0, 13]]},
        "56c25d58c3a3f0147c763ee749348e62710b9409ff69215631ed5a40119072c6",
    ),
    (
        {
            "dim": 4,
            "gens": [[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 9, 0], [0, 0, 0, 10]],
        },
        "38eaa33c5ea877a91f63b28b288bb8fd7fb34f021545a8686a8b244b0fdbbded",
    ),
    (
        {
            "dim": 4,
            "gens": [
                [5, 0, 0, 0],
                [0, 5, 0, 0],
                [0, 0, 6, 0],
                [0, 0, 0, 4],
                [2, 1, 1, 0],
                [0, 2, 1, 1],
            ],
        },
        "850fb8ac5ca06491340a4f18887b2e1cb01c7b2acfa447521b3691d277cdf221",
    ),
)


def test_gorenstein_outputs_are_byte_identical_across_changes(job, capsys):
    for payload, digest in GORENSTEIN_DIGESTS:
        assert main(["--json", "gorenstein", job(payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, payload


# sha256 of the `--json iclosure -n 3` stdout of x * (x^2, y^2) in
# d = 3: its two bounded facets, x >= 1 and x + y >= 3, give the
# closure scan a row that prunes whole columns and a row that clips the
# x range from below, with no row bounding t. Same rule as above.
ICLOSURE_DIGEST = (
    {"dim": 3, "gens": [[3, 0, 0], [1, 2, 0]]},
    "b622529c75823c36683b34a1def811267438caee2165725d262151e3a6a295f1",
)


def test_iclosure_output_is_byte_identical_across_changes(job, capsys):
    payload, digest = ICLOSURE_DIGEST
    assert main(["--json", "iclosure", "-n", "3", job(payload)]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `--json iclosure -n 3` stdout of (x^2y, xy^2) in d = 2
# and y * (x^2, y^2, z^2) in d = 3. A bounded facet on an axis (x >= 1,
# y >= 1) makes every batch of the closure scan start above x = 0, so
# the first column of a batch has no column before it. Same rule as
# above.
ICLOSURE_OFFSET_DIGESTS = (
    (
        {"dim": 2, "gens": [[2, 1], [1, 2]]},
        "c071f1e5a848be13dff00813d8b1bee6092e7a027ca0170a2c85d1829ec961b6",
    ),
    (
        {"dim": 3, "gens": [[2, 1, 0], [0, 3, 0], [0, 1, 2]]},
        "9fc376dcd8a3ef4fdc615c0c0f3e533eb70d4cd467f1030606dd2d8e4931fbc2",
    ),
)


def test_offset_closures_are_byte_identical_across_changes(job, capsys):
    for payload, digest in ICLOSURE_OFFSET_DIGESTS:
        argv = ["--json", "iclosure", "-n", "3", job(payload)]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, payload


# sha256 of the `--json np` and `--json report` stdout of three d = 2
# staircases whose Newton polygons the lower hull must get right: a
# generator on an edge, (x^4, x^2y, y^2); a generator above the hull,
# (x^4, x^3y^2, y^4); and (x^2y, xy^2), which is not m-primary, so
# neither axis meets the polygon. Then `--json np` of a principal ideal
# and of the unit ideal. Same rule as above.
PLANE_DIGESTS = (
    (
        "np",
        {"dim": 2, "gens": [[4, 0], [2, 1], [0, 2]]},
        "339b9dc426633a44a4fa869957bcd260f60950ee6d4c5e35fc8018f4edccae01",
    ),
    (
        "report",
        {"dim": 2, "gens": [[4, 0], [2, 1], [0, 2]]},
        "22181132b363aa4ca1499266c4a98139a51fd1bf354b2dfbda4bda4e2716be8e",
    ),
    (
        "np",
        {"dim": 2, "gens": [[4, 0], [3, 2], [0, 4]]},
        "978c0d1e4cafe4bd889b62c4e3b5021fcc35a983c009d5631d61987f56af3864",
    ),
    (
        "report",
        {"dim": 2, "gens": [[4, 0], [3, 2], [0, 4]]},
        "1c37bf39e0629de4676e351e37128b6c1d28969d08e507a41d84a7d2fa67f071",
    ),
    (
        "np",
        {"dim": 2, "gens": [[2, 1], [1, 2]]},
        "c4f0ec33dc956604ea1ff01851520b2509983293a549f70575eca6400cbcb3d9",
    ),
    (
        "report",
        {"dim": 2, "gens": [[2, 1], [1, 2]]},
        "5293aba1b258c9c3b33e61aca0a5dfbac3b61ba5cece054c167450b68d0d619c",
    ),
    (
        "np",
        {"dim": 2, "gens": [[2, 3]]},
        "53a630522d4b8096bccaf38937fb75ae96a2e1bdcd03f71348beb12a9d530ad4",
    ),
    (
        "np",
        {"dim": 2, "gens": [[0, 0]]},
        "860a2a9f33d8ddf3649a20f14c58b9925f9facb509b6eaf65c43cc8b0d479199",
    ),
)


def test_plane_outputs_are_byte_identical_across_changes(job, capsys):
    for command, payload, digest in PLANE_DIGESTS:
        assert main(["--json", command, job(payload)]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (
            command,
            payload,
        )


# sha256 of the `--json --corpus 60 --seed 5` stdout: the drawn ideals,
# every cross-check verdict and the record layout of the self-check.
# Same rule as the digests above.
CORPUS_DIGEST = "5be6e6362e1f71f9b0127213b11177bc748a70c17907f475efd04308c468b644"


def test_corpus_output_is_byte_identical_across_changes(capsys):
    assert main(["--json", "--corpus", "60", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CORPUS_DIGEST


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


@pytest.mark.parametrize(
    "spec, facet_count",
    [({"dim": 2, "gens": [[2, 0]]}, 1), ({"dim": 2, "gens": [[0, 0]]}, 0)],
    ids=["x^2", "unit"],
)
def test_report_names_why_an_ideal_that_is_not_m_primary_has_no_invariants(
    job, capsys, spec, facet_count
):
    # With at most one bounded facet, the reason is the missing
    # m-primary source, as the facet section itself reports.
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["newton"]["bounded_facets"]) == facet_count
    assert payload["newton"]["m_primary"] is False
    assert payload["invariants"] == {
        "inapplicable": "no pure-power reduction: the ideal is not primary "
        "to the maximal ideal"
    }


def test_report_with_supplied_reduction(job, capsys):
    spec = {**SQUARE, "reduction": [[2, 0], [0, 2]]}
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["quasi_gorenstein"]["reduction"]["gens"] == [[0, 2], [2, 0]]
    assert payload["invariants"]["reduction_number"] == 1


def test_report_with_a_reduction_that_is_not_pure_powers(job, capsys):
    # I is a reduction of itself; no consistency check applies to it,
    # and the Cohen-Macaulay test refuses it.
    spec = {**SQUARE, "reduction": SQUARE["gens"]}
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "inapplicable" in payload["cohen_macaulay"]
    consistency = payload["consistency"]
    assert consistency["all_ok"] is True
    by_name = {c["name"]: c for c in consistency["checks"]}
    assert by_name["closure-index"]["applicable"] is False
    invariants = payload["invariants"]
    assert invariants["reduction_number"] == 0
    assert invariants["nilpotency_index"] == 0
    assert invariants["closure_nilpotency_index"] == 0

    # On the anchor, its own generators as the reduction (r = 0) would
    # make it Cohen-Macaulay, against the verdict from (x^3, y^3, z^3).
    anchor = {"dim": 3, "gens": [[0, 0, 3], [0, 3, 0], [1, 1, 1], [3, 0, 0]]}
    for spec in (
        {**SQUARE, "reduction": SQUARE["gens"]},
        {**anchor, "reduction": anchor["gens"]},
    ):
        assert main(["--json", "cm", job(spec)]) == EXIT_INAPPLICABLE
        assert capsys.readouterr().out == ""

    spec = {**SQUARE, "reduction": [[2, 0], [0, 2]]}
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    by_name = {c["name"]: c for c in payload["consistency"]["checks"]}
    assert by_name["closure-index"]["applicable"] is True
    assert by_name["closure-index"]["ok"] is True


def test_job_reduction_must_be_inside():
    with pytest.raises(ValueError):
        job_from_dict({"dim": 2, "gens": [[2, 0], [0, 2]], "reduction": [[1, 0]]})


@pytest.mark.parametrize("command", ["report", "qgor", "cm", "core"])
def test_empty_reduction_is_usage_error(job, capsys, command):
    # An empty list is the zero ideal, which sits inside every ideal.
    path = job({**SQUARE, "reduction": []})
    assert main(["--json", command, path]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'reduction' is empty" in captured.err
    null = job({**SQUARE, "reduction": None})
    assert main(["--json", command, null]) == EXIT_OK


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


def test_raising_corpus_case_keeps_its_witness(monkeypatch, capsys):
    assert main(["--json", "--corpus", "2", "--seed", "5"]) == EXIT_OK
    passing = json.loads(capsys.readouterr().out)["results"][1]
    assert passing["ideal"] == "(x^5, y^4, z^2)" and passing["dim"] == 3

    def raising_case(index, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "corpus_case", raising_case)
    assert main(["--json", "--corpus", "2", "--seed", "5"]) == EXIT_UNTRUSTED
    failed = json.loads(capsys.readouterr().out)["results"][1]
    assert failed["ideal"] == passing["ideal"]
    assert failed["dim"] == passing["dim"]
    assert failed["failures"] == ["RuntimeError: boom"]


def test_corpus_case_runs_the_colon_test_on_the_found_reduction(monkeypatch):
    seen = []

    def failing_test(ideal, reduction):
        seen.append((ideal.to_str(), reduction.to_str()))
        raise InvariantViolationError("boom")

    monkeypatch.setattr(cli, "quasi_gorenstein_test", failing_test)
    case = cli.corpus_case(1, 5)
    assert seen == [("(x^5, y^4, z^2)", "(x^5, y^4, z^2)")]
    assert case["failures"] == ["quasi-Gorenstein cross-check: boom"]


def test_corpus_rejects_bad_count(capsys):
    assert main(["--corpus", "0"]) == EXIT_USAGE
