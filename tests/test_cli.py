"""Command line behavior: exit codes, JSON output, self-check."""

import argparse
import enum
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_m_primary, seeded, single_facet_ideal
from reesgor import (
    MonomialIdeal,
    analysis,
    cli,
    closure_power,
    cone,
    ideals,
    is_gorenstein_normalization,
    newton_polyhedron,
    polyhedra,
    pure_power_gorenstein_test,
    report,
)
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
    ConeGeometryError,
    InapplicableError,
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

# the two reasons find_pure_power_reduction gives for finding none
NOT_PRIMARY_REASON = (
    "no pure-power reduction: the ideal is not primary to the maximal ideal"
)
SEVERAL_FACETS = (
    "no pure-power reduction: the Newton polyhedron has more than one "
    "bounded facet"
)


# ------------------------------------------------------------------ #
# exit codes


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "a command or --corpus" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_corpus_with_a_command_is_usage_error(job, capsys):
    # the command is refused, not silently dropped after the corpus runs
    assert main(["--corpus", "2", "report", job(PURE)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: reesgor")
    assert "exactly one of a command or --corpus" in captured.err


def test_missing_file_is_usage_error(capsys):
    assert main(["np", "/no/such/file.json"]) == EXIT_USAGE
    assert "reesgor:" in capsys.readouterr().err


def test_malformed_json_is_usage_error(job, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["np", str(path)]) == EXIT_USAGE


def test_too_deeply_nested_job_is_usage_error(tmp_path, capsys):
    # the decoder's RecursionError is refused at the input boundary
    path = tmp_path / "deep.json"
    path.write_text('{"dim": 2, "gens": ' + "[" * 100_000)
    assert main(["--json", "np", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "reesgor: job file is nested too deeply\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (b'\xef\xbb\xbf{"dim": 2, "gens": [[2, 0], [0, 2]]}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        (b"{not json", "Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"dim": 2} x', "Extra data: line 1 column 12 (char 11)"),
        (b"[1, 2", "Expecting ',' delimiter: line 1 column 6 (char 5)"),
    ],
    ids=["bom", "unquoted-key", "empty", "extra-data", "unclosed"],
)
def test_undecodable_job_file_is_refused_in_the_decoders_words(
    tmp_path, capsys, data, message
):
    # a job file is read as utf-8, so a leading byte order mark is
    # refused as json.loads refuses it, not skipped
    path = tmp_path / "undecodable.json"
    path.write_bytes(data)
    assert main(["--json", "np", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"reesgor: {message}\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dim": 2, "gens": [[2, 0], [0, 2]], "dim": 3}', "dim"),
        ('{"dim": 2, "gens": [[2, 0], [0, 2]], "gens": [[3, 0], [0, 3]]}',
         "gens"),
        ('{"dim": 2, "gens": [[2, 0], [0, 2]], "reduction": null, '
         '"reduction": [[2, 0], [0, 2]]}', "reduction"),
    ],
    ids=["dim", "gens", "reduction"],
)
def test_repeated_job_key_is_usage_error(tmp_path, capsys, text, key):
    # json alone lets the last value win; a job names each key once
    path = tmp_path / "twice.json"
    path.write_text(text)
    assert main(["--json", "np", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"reesgor: job file repeats the key '{key}'\n"


def test_bad_job_shapes_are_usage_errors(job, capsys):
    assert main(["np", job([1, 2, 3])]) == EXIT_USAGE
    assert main(["np", job({"dim": 2})]) == EXIT_USAGE
    assert main(["np", job({"dim": 2, "gens": [[2, 0]], "zz": 1})]) == EXIT_USAGE
    assert main(["np", job({"dim": 2, "gens": [[2, 0, 0]]})]) == EXIT_USAGE
    assert (
        main(["qgor", job({**PURE, "reduction": [[1, 0]]})]) == EXIT_USAGE
    )
    capsys.readouterr()
    # generators that are no list of lists are refused by their key
    for payload, key in (
        ({"dim": 2, "gens": "x"}, "gens"),
        ({"dim": 2, "gens": [[1, 0], 3]}, "gens"),
        ({**PURE, "reduction": {}}, "reduction"),
    ):
        assert main(["np", job(payload)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"reesgor: '{key}' must be a list of exponent lists\n"
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
    # the closure power is refused the same way
    capsys.readouterr()
    assert main(["--json", "iclosure", "-n", "0", job(PURE)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "reesgor: closure power must be at least 1\n"


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
    # a usage error in the middle of the sequence. The same sequence
    # with argparse parsing every line, the plain path turned off, is
    # the third run: exit codes, stdout and stderr all match.
    monkeypatch.chdir(os.path.dirname(job(PURE)))
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
        ["--json", "np", "-"],
        ["gorenstein", "--json", pure],
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
    with monkeypatch.context() as patch:
        patch.setattr(
            cli._Parser, "parse_args", argparse.ArgumentParser.parse_args
        )
        argparse_only = run_all()
    assert shared == fresh == argparse_only
    codes = [code for code, _, _ in shared]
    assert codes == (
        [EXIT_OK] * 4 + [EXIT_USAGE] + [EXIT_OK] * 5 + [EXIT_USAGE] * 2
    )
    assert json.loads(shared[0][1])["power"] == 3
    assert json.loads(shared[1][1])["power"] == 1
    assert json.loads(shared[2][1])["method"] == "pure-power"
    assert json.loads(shared[3][1])["method"] == "canonical-generators"
    assert json.loads(shared[5][1])["u"] == 2
    assert json.loads(shared[6][1])["u"] == 1
    assert "bounded_facets" in json.loads(shared[8][1])


def test_plain_command_lines_parse_as_argparse_does(capsys, monkeypatch):
    # `[--json] COMMAND JOB` with JOB a non-empty str not starting with
    # "-" is answered without argparse once its command has been parsed
    # once. Wherever the plain path answers, its namespace is the one
    # argparse gives on the same parser; every other line, usage errors
    # and -h among them, ends as argparse ends it.
    parser = cli.build_parser()
    known = argparse.ArgumentParser.parse_known_args
    asked = []

    def counting(self, args=None, namespace=None):
        if self is parser:
            asked.append(args)
        return known(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)

    def outcome(parse, argv):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    jobs = ["", "-", "--", "-x", "--json", "@f", "a b", "ü.json", "job.json"]
    argvs = [
        prefix + [command, name]
        for command in cli._COMMANDS
        for prefix in ([], ["--json"])
        for name in jobs
    ] + [
        ["iclosure", "-n", "3", "J"],
        ["--json", "iclosure", "J", "-n", "3"],
        ["--json", "gorenstein", "--fast", "J"],
        ["core", "--u", "2", "J"],
        ["--json", "core", "J", "--u", "2"],
        ["--seed", "5", "report", "J"],
        ["report", "--json", "J"],
        ["--js", "report", "J"],
        ["--json", "--json", "report", "J"],
        ["--json", "report", "J", "K"],
        ["--json", "report"],
        ["--json", "repo", "J"],
        ["--json", "--corpus", "3"],
        ["report", "-h"],
        ["-h"],
        [],
    ]
    plain_asks = dict.fromkeys(cli._COMMANDS, 0)
    answered = 0
    for argv in argvs * 2:
        is_plain = (
            len(argv) == 2 + (argv[:1] == ["--json"])
            and argv[-2] in cli._COMMANDS
            and argv[-1] != ""
            and not argv[-1].startswith("-")
        )
        before = len(asked)
        got = outcome(parser.parse_args, argv)
        if is_plain:
            plain_asks[argv[-2]] += len(asked) - before
            answered += len(asked) == before
        else:
            assert len(asked) > before, argv
        want = outcome(
            lambda a: argparse.ArgumentParser.parse_args(parser, a), argv
        )
        assert got == want, argv
    assert all(count == 1 for count in plain_asks.values())
    assert answered == 2 * 2 * 4 * len(cli._COMMANDS) - len(cli._COMMANDS)
    # an argv of None is read from sys.argv, as argparse reads it
    monkeypatch.setattr(sys, "argv", ["reesgor", "--json", "np", "J"])
    del asked[:]
    assert parser.parse_args() == argparse.ArgumentParser.parse_args(parser)
    assert len(asked) == 1
    # a namespace passed in is filled by argparse
    given = argparse.Namespace(extra=1)
    assert parser.parse_args(["--json", "np", "J"], given) is given
    assert vars(given) == dict(vars(parser.parse_args(["--json", "np", "J"])),
                               extra=1)


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


def _package_env():
    """The environment with the package's source first on PYTHONPATH,
    for a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


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
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_package_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "0"


# Modules that importing the command line must not load: `random`
# serves the self-check corpus alone, and `dataclasses`, with the
# `inspect` it imports, only the error of assigning to a frozen value.
NOT_AT_IMPORT = ("random", "dataclasses", "inspect")


def test_random_is_imported_by_the_corpus_alone():
    # A command run loads none of NOT_AT_IMPORT; the first self-check
    # case loads `random`. -S leaves out the site start-up, which may
    # import them itself.
    code = (
        "import sys\n"
        "import reesgor.cli\n"
        f"print([m for m in {NOT_AT_IMPORT!r} if m in sys.modules])\n"
        "reesgor.cli._corpus_ideals(0, 0)\n"
        "print('random' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_package_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["[]", "True"]


def test_python_dash_m_runs_the_command_line(job, capsys):
    # `python -m reesgor` is the in-process main: the same stdout bytes
    # on success, and the same exit code and reason on a refusal.

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "reesgor", *argv],
            env=_package_env(),
            capture_output=True,
        )

    path = job(SQUARE)
    done = run("--json", "np", path)
    assert main(["--json", "np", path]) == EXIT_OK
    assert done.returncode == EXIT_OK
    assert done.stdout == capsys.readouterr().out.encode()
    refused = run("qgor", job(TWO_FACETS, "two_facets.json"))
    assert refused.returncode == EXIT_INAPPLICABLE
    assert refused.stdout == b""
    assert refused.stderr.decode() == f"reesgor: {SEVERAL_FACETS}\n"


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
        "8c05ff3308c7d5dad693aff61435c5a5f1fba7d2d7851fdbc19998a6bdb8de95",
    ),
    (
        {"dim": 2, "gens": [[0, 4], [1, 3], [4, 0]]},
        "fa82fa087ec4a5ccc31ff7e574887b2d3b9298b050bdf4ed3c306af9357fc78a",
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
        "f14642c280af8a8dc38efd84d2cf065feaabbff165a90ea458354e4a2c8c6e42",
    ),
    (
        {"dim": 3, "gens": [[2, 0, 0], [0, 2, 0], [0, 0, 4]]},
        "6225b472910e05381c8726daa131f6b52ffaa749392b999b32bfa750dc345c25",
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
            "8252fce0c86937bb98495c57605a4486d22792209bf4c6789079d26b4bcf9755",
            "d67aa89a0afb3dd80861c1b66c71334d6ee47af1c561e18e42ad267146d81212",
            "d0bfb46242aedb9bca16061e088ac48185abc62d5284b8a78046fbd50a95742c",
            "8c9dddad19dd60cb43cba9a1dcd10edfcb41077f71a0d9a8615e97c9fa44a8e7",
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
        (TWO_FACETS, "qgor", SEVERAL_FACETS),
        (TWO_FACETS, "cm", SEVERAL_FACETS),
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
# and a d = 4 ideal with five bounded facets. The first seven cones
# have one bounded facet and read their generators off the residue
# box; the last runs the column scan, whose coordinate rows reject
# whole batches and whose lifted rows clip x ranges from below. Same
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
# closure scan a row that rejects whole batches and a row that clips
# the x range from below, with no row bounding t. Same rule as above.
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
        "7e478532afca726a435e5a8bc53497549dbb0b0dacecda7f3583ccdc8e4b4f4a",
    ),
    (
        "np",
        {"dim": 2, "gens": [[4, 0], [3, 2], [0, 4]]},
        "978c0d1e4cafe4bd889b62c4e3b5021fcc35a983c009d5631d61987f56af3864",
    ),
    (
        "report",
        {"dim": 2, "gens": [[4, 0], [3, 2], [0, 4]]},
        "b85db3471f35a26d88640e94926618ce4a79f3f0f9bcf128563488b537f898ff",
    ),
    (
        "np",
        {"dim": 2, "gens": [[2, 1], [1, 2]]},
        "c4f0ec33dc956604ea1ff01851520b2509983293a549f70575eca6400cbcb3d9",
    ),
    (
        "report",
        {"dim": 2, "gens": [[2, 1], [1, 2]]},
        "72e728baa60072a1d6c7ca97e7c42c97cf7f8e87e011191cf1634844619d5b61",
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
    [
        ({"dim": 2, "gens": [[2, 0]]}, 1),
        ({"dim": 2, "gens": [[0, 0]]}, 0),
        ({"dim": 2, "gens": [[2, 1]]}, 2),
        ({"dim": 2, "gens": [[2, 0], [1, 1]]}, 2),
        ({"dim": 2, "gens": [[2, 1], [1, 2]]}, 3),
    ],
    ids=["x^2", "unit", "x^2y", "x^2,xy", "x^2y,xy^2"],
)
def test_report_names_why_an_ideal_that_is_not_m_primary_has_no_invariants(
    job, capsys, spec, facet_count
):
    # The reason is the missing m-primary source, as the facet section
    # itself reports, however many positive-offset facets it lists:
    # without an m-primary source they are not all bounded, and those
    # of (x^2y) are x >= 2 and y >= 1, neither of them bounded.
    assert main(["--json", "report", job(spec)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["newton"]["bounded_facets"]) == facet_count
    assert payload["newton"]["m_primary"] is False
    for name in ("invariants", "quasi_gorenstein", "cohen_macaulay", "core"):
        assert payload[name] == {"inapplicable": NOT_PRIMARY_REASON}, name


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


def _closure_of(gen):
    def closure(ideal, n, facets=None):
        return MonomialIdeal(ideal.dim, (gen,))

    return closure


def _flipped_fast_test(ideal):
    test = pure_power_gorenstein_test(ideal)
    return cone.PurePowerTest(
        exponents=test.exponents,
        lcm=test.lcm,
        quotient=test.quotient,
        remainder=test.remainder,
        gorenstein=not test.gorenstein,
    )


def _failed_search(ideal, facets=None):
    raise InvariantViolationError("(1, 1, 1, 2) is missing from the generators")


@pytest.mark.parametrize(
    "name, wrong, failure",
    [
        ("oracle_colon", lambda ideal, divisor: (),
         "colon disagrees with the oracle"),
        ("oracle_intersect", lambda left, right: (),
         "intersection disagrees with the oracle"),
        ("closure_power", _closure_of((0, 0, 0)),
         "closure generator (0, 0, 0) outside the polyhedron"),
        ("closure_power", _closure_of((5, 5, 5)),
         "closure generator (5, 5, 5) not minimal"),
        ("pure_power_gorenstein_test", _flipped_fast_test,
         "fast and full Gorenstein tests disagree"),
        ("is_gorenstein_normalization", _failed_search,
         "(1, 1, 1, 2) is missing from the generators"),
    ],
    ids=["colon", "intersect", "outside", "not-minimal", "fast", "search"],
)
def test_corpus_case_names_each_failed_cross_check(
    monkeypatch, capsys, name, wrong, failure
):
    # seed 0 draws the pure-power ideal (x^4, y, z^3) as case 0, so
    # every cross-check of corpus_case runs on it; a wrong answer from
    # one routine fails that check alone, in its own words
    monkeypatch.setattr(cli, name, wrong)
    assert main(["--json", "--corpus", "1", "--seed", "0"]) == EXIT_UNTRUSTED
    (case,) = json.loads(capsys.readouterr().out)["results"]
    assert case["ideal"] == "(x^4, y, z^3)"
    assert case["failures"] == [failure]


def test_corpus_rejects_bad_count(capsys):
    assert main(["--corpus", "0"]) == EXIT_USAGE


# ------------------------------------------------------------------ #
# the --json writer


def _json_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Quotes, backslashes, control and non-ASCII characters, astral ones
# included, so every escape json makes is met.
_escapes = 'a"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'
_texts = st.one_of(
    st.text(max_size=8), st.text(st.sampled_from(_escapes), max_size=8)
)
_exact_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    _texts,
)


def _nested(atoms):
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.lists(st.integers(), max_size=5),
            st.dictionaries(_texts, inner, max_size=4),
        ),
        max_leaves=16,
    )


@given(_nested(_exact_atoms))
@settings(max_examples=100, deadline=None)
def test_the_json_writer_matches_json_dumps(payload):
    assert report.to_json(payload) == _json_dumps(payload)


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


@pytest.mark.parametrize(
    "payload, kind",
    [
        ({"a": [0, 1.5]}, "value of type float"),
        (
            {"a": [float("nan"), float("inf"), -float("inf")]},
            "value of type float",
        ),
        ({1: "int key", 2: [None]}, "dict key that is no str"),
        ({"level": [_Level.LOW, 2]}, "value of type _Level"),
        ({"name": _Name("x\u00e9")}, "value of type _Name"),
        ({_Name("k"): 1}, "dict key that is no str"),
        ({"gens": {1, 2}}, "value of type set"),
    ],
    ids=[
        "float", "nan-and-infinities", "int-keys", "IntEnum", "str-subclass",
        "str-subclass-key", "set",
    ],
)
def test_to_json_refuses_what_no_payload_holds(payload, kind):
    # json would write all but the set; no payload holds any of them
    with pytest.raises(TypeError, match=f"cannot write a {kind} as JSON"):
        report.to_json(payload)


def test_to_json_refuses_a_cyclic_payload():
    payload = {"a": []}
    payload["a"].append(payload)
    with pytest.raises(RecursionError):
        report.to_json(payload)


@pytest.mark.parametrize(
    "payload", [{"gens": {1, 2}}, [[{"x": frozenset()}]], {1: 2, "a": 3}]
)
def test_to_json_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        report.to_json(payload)


def test_int_subclass_powers_are_written_as_ints():
    # closure_power and core_compute take an int subclass; the sections
    # write the int it equals, so the payload stays writable
    ideal = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
    assert report.to_json(report.closure_section(ideal, _Level.LOW)) == (
        report.to_json(report.closure_section(ideal, 1))
    )
    assert report.to_json(report.core_section(ideal, None, _Level.LOW)) == (
        report.to_json(report.core_section(ideal, None, 1))
    )


# ------------------------------------------------------------------ #
# the job memo: each kernel solves an input once per job


# (home, name) of each memoized kernel and of the public function
# that reads it
KERNELS = (
    (polyhedra, "_cone_rays"),
    (polyhedra, "_dilate_minimal_points"),
    (cone, "_canonical_scan"),
    (ideals, "_product"),
    (ideals, "_join"),
    (polyhedra, "_facet_system"),
)
READERS = (
    (polyhedra, "extreme_rays"),
    (polyhedra, "closure_power"),
    (cone, "canonical_generators"),
    (MonomialIdeal, "__mul__"),
    (MonomialIdeal, "__and__"),
    (polyhedra, "newton_polyhedron"),
)


def _count(monkeypatch, functions):
    """Count the calls of each (home, name), rebound on its home (a
    module, or the class of a method) and in every reesgor module that
    holds the function, as the benchmark tracer does."""
    counts = {}
    for home, name in functions:
        original = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(home, name, counted)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("reesgor"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
    return counts


# (kernel runs, public calls) on each anchor's `--json report`, in the
# order of KERNELS and READERS
ANCHOR_KERNEL_RUNS = (
    (ANCHOR_REPORT_DIGESTS[0][0], (3, 3, 1, 10, 11, 1), (39, 9, 2, 144, 55, 36)),
    (ANCHOR_REPORT_DIGESTS[1][0], (1, 2, 1, 13, 15, 1), (3, 7, 2, 193, 104, 36)),
)


@pytest.mark.parametrize("payload, runs, calls", ANCHOR_KERNEL_RUNS)
def test_kernels_run_once_per_input_and_every_call_stays(
    job, capsys, monkeypatch, payload, runs, calls
):
    counts = _count(monkeypatch, KERNELS + READERS)
    assert main(["--json", "report", job(payload)]) == EXIT_OK
    capsys.readouterr()
    assert tuple(counts[name] for _, name in KERNELS) == runs
    assert tuple(counts[name] for _, name in READERS) == calls


# the three routes of the ray kernel `polyhedra._cone_rays`, and how
# often each runs on each anchor's `--json report` and over the pinned
# `gorenstein` pool: a closed form that stopped firing would change no
# output, only time
ROUTES = (
    (polyhedra, "_pure_power_rays"),
    (polyhedra, "_one_row_rays"),
    (polyhedra, "_double_description"),
)
ANCHOR_ROUTES = ((1, 1, 1), (0, 1, 0))
GORENSTEIN_POOL = (
    pathlib.Path(__file__).resolve().parent.parent
    / "perfbench" / "pins" / "gorenstein.jsonl"
)


def test_the_ray_kernel_takes_its_closed_forms(job, capsys, monkeypatch):
    counts = _count(monkeypatch, ROUTES)
    for (payload, _), routes in zip(ANCHOR_REPORT_DIGESTS, ANCHOR_ROUTES):
        counts.update(dict.fromkeys(counts, 0))
        assert main(["--json", "report", job(payload)]) == EXIT_OK
        assert tuple(counts[name] for _, name in ROUTES) == routes
    counts.update(dict.fromkeys(counts, 0))
    with open(GORENSTEIN_POOL, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            path = job({"dim": entry["dim"], "gens": entry["gens"]})
            assert main(["--json", "gorenstein", path]) == entry["exit"]
            capsys.readouterr()
    assert tuple(counts[name] for _, name in ROUTES) == (492, 704, 244)


def test_outside_a_job_every_call_runs_its_kernel(monkeypatch):
    counts = _count(monkeypatch, KERNELS)
    ideal = MonomialIdeal(3, ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    facets = newton_polyhedron(ideal)
    for _ in range(2):
        newton_polyhedron(ideal)
        closure_power(ideal, 2, facets)
        is_gorenstein_normalization(ideal, facets)
        ideal * ideal
        ideal & ideal
    # the facets above, then two ray solves per round: the facets
    # again and the lift of the cone
    assert counts == {
        "_cone_rays": 1 + 2 * 2,
        "_dilate_minimal_points": 2,
        "_canonical_scan": 2,
        "_product": 2,
        "_join": 2,
        "_facet_system": 1 + 2,
    }


def _report_or_refusal(ideal):
    """The `--json report` of ideal computed outside any job, as
    (exit code, stdout, stderr) of the command line."""
    try:
        payload = report.build_report(report.JobSpec(ideal, None))
    except Exception as exc:  # noqa: BLE001 - mapped like the cli maps it
        return classify_failure(exc), "", f"reesgor: {exc}\n"
    untrusted = payload["consistency"].get("all_ok") is False
    return EXIT_UNTRUSTED if untrusted else EXIT_OK, report.to_json(payload), ""


def _memo_inputs():
    rng = seeded(3101)
    for dim in (2, 3):
        for _ in range(40):
            yield single_facet_ideal(rng, dim)[0]
    for _ in range(40):
        yield random_m_primary(rng, 4)


def test_the_memo_changes_nothing_but_time(job, capsys):
    # the reference is the plain path: no job, every kernel run
    for ideal in _memo_inputs():
        path = job({"dim": ideal.dim, "gens": [list(g) for g in ideal.gens]})
        code = main(["--json", "report", path])
        out, err = capsys.readouterr()
        assert (code, out, err) == _report_or_refusal(ideal), ideal.gens
        assert ideals._job_memo.get() is None


def test_two_corpus_cases_share_no_entry(monkeypatch):
    # the same case twice: a memo shared across cases would leave the
    # second one nothing to solve
    counts = _count(monkeypatch, KERNELS)
    first = cli.corpus_case(1, 5)
    assert ideals._job_memo.get() is None
    once = dict(counts)
    assert all(once.values())
    assert cli.corpus_case(1, 5) == first
    assert ideals._job_memo.get() is None
    assert counts == {name: 2 * runs for name, runs in once.items()}


def test_a_corpus_case_in_its_job_matches_one_outside_any_job():
    # corpus_case is one job; undecorated, it runs every kernel on
    # every call, the reference the memo must not move from
    for seed in (11, 12, 13):
        for index in range(8):
            outside = cli.corpus_case.__wrapped__(index, seed)
            assert ideals._job_memo.get() is None
            assert cli.corpus_case(index, seed) == outside, (index, seed)


CUBES = MonomialIdeal.pure_powers((3, 3, 3))
CUBES_FACETS = newton_polyhedron(CUBES)
REFUSALS = (
    # rows that do not span: the cone is not pointed
    (
        "_cone_rays",
        lambda: polyhedra.extreme_rays([(1, 0, 0), (0, 1, 0)], 3),
        ConeGeometryError,
    ),
    # a box of (3001)^2 columns, past the column budget; the facets
    # are formed outside the job, so the job solves nothing else
    (
        "_dilate_minimal_points",
        lambda: closure_power(CUBES, 1000, CUBES_FACETS),
        BudgetExceededError,
    ),
)


@pytest.mark.parametrize("kernel, call, error", REFUSALS)
def test_a_kernel_that_raises_in_a_job_raises_again(
    monkeypatch, kernel, call, error
):
    counts = _count(monkeypatch, KERNELS)
    with ideals._job():
        with pytest.raises(error) as first:
            call()
        with pytest.raises(error) as second:
            call()
        assert ideals._job_memo.get() == {}
    assert str(second.value) == str(first.value)
    assert counts[kernel] == 2
