import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thueq import cli
from thueq.cli import MAX_ABS, _build_parser, main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "thueq.cli", *argv],
        capture_output=True,
        text=True,
    )


def main_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# sha256 of stdout, taken before the tmin-free algebra was cached
PINS = {
    "descent --type 0 --json":
        "4dc2bf630e273db5e04dcfa399743d2893d23e7f5b56fe3a7d106d2f60f12d32",
    "descent --type 3 --json":
        "722d21ce4afd515345da010d0ebf1230c83109d9dd152db8b2e20a0538f4b83b",
    "descent --type 0 --tmin 12345 --json":
        "096e48b74b75ccbd9de8a2c5c6ae3b15f497dcc0055637d16925bb0206e5855a",
    "descent --type 3 --tmin 12345 --json":
        "feea09a4d8b8dd577c62e6efa6c44ee9db883803be216861bbb5499a09143805",
    "rouche-certs --json":
        "b1cfd023d4eeb6c34b6685dc19f80431daf14e67e1503d0bfa2496374fbcaab1",
    "rouche-certs --tmin 1000 --json":
        "ec28cc0c3837741244ae76f6ec4853ea6c4d64826c7a98bf1bcd72ba9f039eed",
    "constants --type 0 --json":
        "d7d0fd746d73f38ebf69ca34afcff86b3fa4baa82806e209571faaa7e75df7e1",
    "constants --type 3 --json":
        "8a0ab6a542701ce396ef38542257e661202294ea40c3feb7cecdeea2d3dd84e6",
    # taken when t0 became the least t whose grid value passes the gates; the
    # tables print t0 to 4 digits, which that did not change
    "corollary-eps --eps 1/4 --json":
        "277186695e80d65efe84a0a3ab5b0cddd27a1ad5f8e0f525c1de09cb4c122e4f",
    "corollary-eps --eps 1/4":
        "9126b32b651f6728bbb2e94576b832a4e704fe2e53b9e88a19701c0cc9fa8424",
    "corollary-eps --eps 1/2 --json":
        "7afebed22a3d4d486dd9b0eb6861d96f5d9a720b340737f760facd04d9b606c1",
    "corollary-eps --eps 1/2":
        "7d72936e70d53c9c533575c9e6621342a46974eb52ef2c6eea705808ba97d787",
    "corollary-eps --eps 3/4 --json":
        "2b558434130f7ce8a556a310996d58b81faf7736ad6626c106a7de3422fdbbc4",
    "corollary-eps --eps 3/4":
        "083398de8b352125b3a97ecf99042945a2b5a97961c246dd2e0afbbb81898264",
    # t0 has 719 bits
    "corollary-eps --eps 37/1000 --json":
        "0cb1f2078cdc6def002949aab20394dacf9f963abb3a4202bdc7bd6970be6e5b",
    # taken before the closed-form step lines were formatted from descent's
    # named constants
    "descent --type 0":
        "13fa2f5669186edc48738b763e6412d6a3e09404ff6ef3f87cb34c28728e8c25",
    "descent --type 3":
        "e3793906b7fbe1d44eaa39684995a2ed0f800c7019b7e8a810e7fdbf78802b9e",
    "corollary-lin --C 1":
        "9d7e10b491752964e07b5ddeb0b67100b7e037cde9d1edb96ccfa47788440441",
    "corollary-lin --C 1 --json":
        "7d393846d550c5147796163c0bc30b7aeea1d115b82f4a67e8d5f412152df956",
    # taken before the descent steps, the root enclosures and the measure
    # chains built their tmin-free parts once over Z: a fractional tmin and
    # a 300-digit one
    "descent --type 0 --tmin 12345/7 --json":
        "11c854cd81c3f79d087c980b8093562513ce6c05fe9d406078a5b1fc384641f9",
    "descent --type 3 --tmin 12345/7 --json":
        "90d3b8b30f085fd014d45ec751ff11e3c18d70571bd32826efd4e8e9b831d07c",
    "constants --type 0 --tmin 12345/7 --json":
        "705104453a6a7a33e86e42f167a22eff4fa8617ce13b8997301469c153477ebb",
    "constants --type 3 --tmin 12345/7 --json":
        "3dbfc555519cab677ef933e924ae790322626047e32f4ea1a880f8ea7803a31d",
    "rouche-certs --tmin 12345/7 --json":
        "be52c10316ac4153ced3dc4917edc1e3d503f3d822bce02ace0dc176f53e5c7e",
    "constants --type 3 --tmin 1e300 --json":
        "f4b4ab99272735c04790856240e90b0f74ab80b1bf17d99377733b137565a9ee",
    # taken before the descent chain and the enclosure margins were held as
    # unreduced integer pairs: table and JSON at four tmin, and the exact
    # c_exact of a 1000-digit tmin
    "constants --type 0 --tmin 100":
        "03813fdb29f537cd97c9fb6a5a9142f8927e19b84c7dda9637bc762087324491",
    "constants --type 3 --tmin 100":
        "186c070272508eb34a4ab208a5f629e4165e6b5053dbca75d625c5d98b9ecd6a",
    "rouche-certs --tmin 100":
        "c9cb65e776b47a1a8951fee86b4f340484f709c0d252e718af8d8be125aa9fff",
    "descent --type 0 --tmin 12345":
        "b163a65b905c25a57a24aadd1cdb69637ccf1e81595e09ce41143ac7d03de555",
    "descent --type 3 --tmin 12345":
        "840954a2386d3f020b37a5b083695ddc2c2db54f148079463eceac7c476ecdb5",
    "constants --type 0 --tmin 12345":
        "574cee4f00f56dece2f12765911c8cfd6c0bb133184c924f4b7b005cb17e49a1",
    "constants --type 0 --tmin 12345 --json":
        "822cc4a661d15b4870072f56eacc171d6ea2d53491f8c4b9eac26e69f957ae51",
    "constants --type 3 --tmin 12345":
        "d15b7a18241120add4515ee8aceb909d2e6c6a35a5da5beffa55bcba19c0b191",
    "constants --type 3 --tmin 12345 --json":
        "f7c6b3de5545b2c5f1471b9eb33b7595efcd6297ff08d1fe88498a4ae8116b40",
    "rouche-certs --tmin 12345":
        "aa1dadabc64a390c7d523b473472d00534526991f2f726a103981f03d8f01e38",
    "rouche-certs --tmin 12345 --json":
        "3b84b76700d3d2765ac69b0c815109ded28ee4f1b6ec2301012a4db699466ef9",
    "descent --type 0 --tmin 123457/3":
        "6e18ee6f3df5ae57fb01e7a67dece95d3dce33390a989035051fec1a015a8a98",
    "descent --type 0 --tmin 123457/3 --json":
        "a2341c821f04d589b0134a22ac7d371d12d4850aca0b66eca6bc9f2251ad67e8",
    "descent --type 3 --tmin 123457/3":
        "b36b9297849daaa95d626249e803ebd7d7c2d0e4158774fd8c1493cbe00246ae",
    "descent --type 3 --tmin 123457/3 --json":
        "5597fdfb9403b8237ab94c51ccae9609e9850c0a188ce3bcda15dcb9af7255f4",
    "constants --type 0 --tmin 123457/3":
        "ec029b5f59aca0216ca323e5d6763741b6689e86e77c2b4055d193a110cb833f",
    "constants --type 0 --tmin 123457/3 --json":
        "9d53308a0c1b71b95c55cede77415bb88ae1e4126d884a1d292618fc24794432",
    "constants --type 3 --tmin 123457/3":
        "16cc7abb4204c019576bf8728f2eedea241637733c48498e5af8ef1d8f873260",
    "constants --type 3 --tmin 123457/3 --json":
        "b8ebf5bbc3eba1281497c548d5d551b51c1f6e481f28d4507e5cacd95eae28ba",
    "rouche-certs --tmin 123457/3":
        "9c45d8dc25797e4968ff4bb3c46edf563b7365f131c24f34843373ef7fc7c113",
    "rouche-certs --tmin 123457/3 --json":
        "4ae3e071c9a6225ada1f46224e2a134dba6d01811e80211247c3d588fed9fe40",
    "descent --type 0 --tmin 1e300":
        "a361dc358a2299dd2619f39401123f116e3d2fed2ee1921556ff02c720f2b17b",
    "descent --type 0 --tmin 1e300 --json":
        "e94c6c6c37fe7e353876492d9fc146b90037a9771056b92a741d1b04c9baeeee",
    "descent --type 3 --tmin 1e300":
        "4fc77f48417028a8037c88ab5b145a6056ea12a6732eac02fc553e9168ac527f",
    "descent --type 3 --tmin 1e300 --json":
        "28729910b74047365e8c1e98ad7fbc81113dcf91d97039170903e7e392fbb587",
    "constants --type 0 --tmin 1e300":
        "b7698787b47c64dcc4f1a80b503703b66c54f2f99c0575516e17455cb8448321",
    "constants --type 0 --tmin 1e300 --json":
        "1f5ee4eae80d5bf83e7b09d94902b6a58650a342dabde30126cbf1ba45c80384",
    "constants --type 3 --tmin 1e300":
        "78c632a89c9c13b37d3f6dbb95fe952b90a349fee943b447e1457754ec1e3103",
    "rouche-certs --tmin 1e300":
        "aa1d2755722805677d3cac9f2ca607d2b4d755140aca4972ff175edc286a848b",
    "rouche-certs --tmin 1e300 --json":
        "9b7e9633d2e213541f5e3f870b1199cd55a09e1385174657ff7e01e8fc9fa73c",
    "descent --type 0 --tmin 1e1000 --json":
        "9d375d85d8c8145a3e1d8c75662476081e46440f4aba90abf7d471641b657c8a",
    "descent --type 3 --tmin 1e1000 --json":
        "8f3ac731fbac0fd3f8e94e8c24ef334bf3f5f77dfef0d4f7fc1b7762b34b4953",
    # taken before the margins were printed by rounding the held pairs: B's and
    # B3's have about 930,000 bits here
    "rouche-certs --tmin 1e3000 --json":
        "6fb52482a1335aa600c74c90f6ad77bfccfa68a3dc0f49afd740cd560ec34595",
}
VERIFY_ALL_REFERENCE = Path(__file__).parents[1] / "perfbench/reference/verify_all.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command", list(PINS) + ["verify-all"])
def test_outputs_are_pinned_in_process(command, capsys):
    # one process for every case, so the later ones run on warm caches
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    if command == "verify-all":
        assert out == VERIFY_ALL_REFERENCE.read_text()
    else:
        assert sha256(out) == PINS[command]


# table-mode commands outside PINS, with their exit codes; rouche-certs at 95 fails
TABLES = {"irreducible-list": 0, "small-solutions --tmin 10": 0, "enumerate --max-abs 2": 0,
          "constants --type 3": 0, "rouche-certs --tmin 95": 1, "descent --type 0 --tmin 1e300": 0}


def test_a_table_builds_no_json_payload(monkeypatch, capsys):
    # without --json no command renders an exact rational or a ring element
    # for the JSON report it does not print
    outputs = {}
    for command, code in TABLES.items():
        assert main(command.split()) == code
        outputs[command] = capsys.readouterr().out

    def refuse(x):
        raise AssertionError(f"a table rendered {x!r} for JSON")

    monkeypatch.setattr(cli, "_num", refuse)
    monkeypatch.setattr(cli, "_quad", refuse)
    for command in [c for c in PINS if "--json" not in c]:
        assert main(command.split()) == 0
        assert sha256(capsys.readouterr().out) == PINS[command], command
    for command, code in TABLES.items():
        assert main(command.split()) == code
        assert capsys.readouterr().out == outputs[command], command


def test_output_is_pinned_in_a_fresh_process():
    command = "descent --type 3 --tmin 12345 --json"
    r = run_cli(*command.split())
    assert r.returncode == 0
    assert sha256(r.stdout) == PINS[command]


# each command's help line, handler and argparse actions, as the nine hand-written
# subparser blocks built them; an action is (option strings, dest, type, default,
# required, choices, help, nargs).  Unlike the rendered --help, these read the
# same on every Python version.
A_TMIN = (["--tmin"], "tmin", "_nonneg_rat", Fraction(100), False, None, None, None)
A_KMAX = (["--kmax"], "kmax", "int", 11, False, None, None, None)
A_TYPE = (["--type"], "type", "int", None, True, (0, 3), None, None)
A_JSON = (["--json"], "json", None, False, False, None, None, 0)
ACTIONS = {
    "verify-all": ("run the full verification pipeline", "_cmd_verify_all",
                   [A_TMIN, A_KMAX, (["--out"], "out", None, None, False, None, None, None)]),
    "irreducible-list": ("parameters with reducible form", "_cmd_irreducible_list", [A_JSON]),
    "small-solutions": ("exhaustive small-solution search", "_cmd_small_solutions",
                        [(["--tmin"], "tmin", "_nonneg_rat", Fraction(0), False, None, None,
                          None), A_JSON]),
    "enumerate": ("ring elements of bounded modulus", "_cmd_enumerate",
                  [(["--max-abs"], "max_abs", "_nonneg_rat", None, True, None,
                    "the bound m on |x|, at most 40", None), A_JSON]),
    "descent": ("iterated lower bounds for |y|", "_cmd_descent", [A_TYPE, A_TMIN, A_KMAX, A_JSON]),
    "constants": ("irrationality-measure constants", "_cmd_constants", [A_TYPE, A_TMIN, A_JSON]),
    "corollary-lin": ("thresholds for |F| <= C|t|", "_cmd_corollary_lin",
                      [(["--C"], "C", "_rat", None, True, None, None, None),
                       (["--t0"], "t0", "_rat", None, False, None, None, None), A_JSON]),
    "corollary-eps": ("thresholds for |F| <= |t|^(2-eps)", "_cmd_corollary_eps",
                      [(["--eps"], "eps", "_rat", None, True, None, None, None), A_JSON]),
    "rouche-certs": ("uniform root-enclosure certificates", "_cmd_rouche_certs", [A_TMIN, A_JSON]),
}


def test_each_command_builds_the_pinned_actions():
    sub, = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(ACTIONS)
    helps = {a.dest: a.help for a in sub._choices_actions}
    for name, p in sub.choices.items():
        actions = [(a.option_strings, a.dest, getattr(a.type, "__name__", a.type), a.default,
                    a.required, a.choices, a.help, a.nargs)
                   for a in p._actions if not isinstance(a, argparse._HelpAction)]
        assert (helps[name], p.get_default("fn").__name__, actions) == ACTIONS[name], name


def test_usage_errors_exit_64():
    assert run_cli().returncode == 64
    assert run_cli("no-such-command").returncode == 64
    assert run_cli("descent").returncode == 64  # missing required --type
    assert run_cli("enumerate", "--max-abs", "x").returncode == 64


def test_negative_max_abs_is_a_usage_error():
    r = run_cli("enumerate", "--max-abs", "-1")
    assert r.returncode == 64
    assert "--max-abs" in r.stderr and "certification failure" not in r.stderr


@pytest.mark.parametrize("argv", [
    ("verify-all", "--tmin", "-1"),
    ("small-solutions", "--tmin", "-5"),
    ("descent", "--type", "0", "--tmin=-1/2"),
    ("constants", "--type", "3", "--tmin", "-100"),
    ("rouche-certs", "--tmin=-100"),
])
def test_negative_tmin_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "--tmin" in err and "must be nonnegative" in err


def test_verify_all_below_the_reducible_parameters_names_them(capsys):
    # at tmin = 0 every reducible parameter is at or above tmin
    code, doc = main_json(capsys, "verify-all", "--tmin", "0")
    assert code == 1
    gate = doc["gates"][0]
    assert gate["name"] == "irreducibility exceptions below tmin" and not gate["ok"]
    assert gate["detail"] == "27 reducible parameters, 27 at or above tmin"


@pytest.mark.parametrize("argv", [
    ("descent", "--type", "0", "--kmax", "1"),
    ("descent", "--type", "0", "--kmax", "2"),
    ("descent", "--type", "3", "--kmax", "1"),
    ("descent", "--type", "3", "--kmax", "12"),
    ("verify-all", "--kmax", "2"),
    ("verify-all", "--kmax", "12"),
])
def test_kmax_outside_the_chain_is_a_usage_error(argv):
    r = run_cli(*argv)
    assert r.returncode == 64
    assert "--kmax must be in" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ("verify-all", "--rmax", "0"),
    ("constants", "--type", "0", "--rmax", "0"),
])
def test_rmax_is_not_a_flag(argv):
    # the Lettl range is fixed: --rmax 0 used to check nothing and still pass
    r = run_cli(*argv)
    assert r.returncode == 64
    assert "--rmax" in r.stderr and "Traceback" not in r.stderr


def test_kmax_at_the_first_step_runs(capsys):
    code, doc = main_json(capsys, "descent", "--type", "3", "--kmax", "2", "--json")
    assert code == 0
    assert [s["k"] for s in doc["steps"]] == [2]


def test_math_domain_errors_exit_2():
    r = run_cli("corollary-lin", "--C", "-1")
    assert r.returncode == 2
    assert "certification failure" in r.stderr
    r = run_cli("corollary-eps", "--eps", "2")
    assert r.returncode == 2


def test_a_failed_line_names_a_huge_side_by_its_leading_digits(capsys):
    # 10^-200001 has too many digits to print exactly: the floor line still names it
    assert main(["constants", "--type", "3", "--tmin", "1e-200001"]) == 2
    assert capsys.readouterr().err == (
        "certification failure: ChainError: tmin floor 100: 100 > 1e-200001\n")
    assert main(["constants", "--type", "3", "--tmin", "50"]) == 2
    assert capsys.readouterr().err == (
        "certification failure: ChainError: tmin floor 100: 100 > 50\n")


def test_a_result_past_the_output_limit_exits_64(capsys):
    # C0 would have 756,617 digits at C = 10^300: refused before it is built
    assert main(["corollary-lin", "--C", "1e300"]) == 64
    err = capsys.readouterr().err
    assert "200,000-digit output limit" in err and "--C" in err
    assert "certification failure" not in err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("argv", ["small-solutions --tmin 1e200000",
                                  "enumerate --max-abs 1e-200001"])
def test_an_exact_table_value_past_the_output_limit_exits_64(argv, json_flag, capsys):
    # a table prints --tmin and --max-abs exactly, so it refuses them as the
    # JSON report does, and so does corollary-lin's t0
    assert main(argv.split() + json_flag) == 64
    err = capsys.readouterr().err
    assert "200,000-digit output limit" in err and "certification failure" not in err


def test_the_output_limit_is_exact_at_its_edge():
    # _exact counts digits from bit lengths, with one comparison at 10^200,000's
    # own length, as from CPython 3.12 str() prints up to about 200,757 digits
    assert cli._LIMIT_BITS == (10**cli.MAX_DIGITS).bit_length()
    assert cli._exact(10**199_999) == "1" + "0" * 199_999
    assert cli._exact(10**200_000 - 1) == "9" * 200_000
    for n in (-10**200_000, 10**200_756, Fraction(7, 10**200_000)):
        with pytest.raises(cli.OutputLimitError):
            cli._exact(n)
    with pytest.raises(cli.OutputLimitError):
        cli._exact(10**200_000)
    assert cli._exact(Fraction(1, 10**199_999)) == "1/1" + "0" * 199_999


def test_a_threshold_past_the_output_limit_exits_64_at_once():
    # t0 would have about 10^31 bits: its grid value bounds its digits first
    r = run_cli("corollary-eps", "--eps", "1e-30")
    assert r.returncode == 64
    assert "200,000-digit output limit" in r.stderr and "--eps" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_an_eps_whose_floor_is_past_the_output_limit_exits_64_before_the_search(json_flag):
    # gate (iii) alone puts the least grid value near 3.7 10^200001 2^28: refused
    # before the g search, with eps rendered by significant digits
    r = subprocess.run([sys.executable, "-m", "thueq.cli", "corollary-eps", "--eps", "1e-200001",
                        *json_flag], capture_output=True, text=True, timeout=2)
    assert r.returncode == 64
    assert "200,000-digit output limit" in r.stderr and "--eps" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""
    from thueq.corollary import corollary_eps
    with pytest.raises(cli.OutputLimitError, match="^t0 for eps = 1e-200001 has more than"):
        corollary_eps(Fraction(1, 10**200_001))


def test_a_max_abs_past_the_bound_is_a_usage_error():
    # refused before eligible_fields sizes its sieve by 4 m^2 bytes
    r = run_cli("enumerate", "--max-abs", "1000000")
    assert r.returncode == 64
    assert "--max-abs must be at most 40" in r.stderr and "Traceback" not in r.stderr


def test_unwritable_out_exits_2(capsys, tmp_path):
    assert main(["verify-all", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O failure: FileNotFoundError") and err.count("\n") == 1


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip()


def test_irreducible_list_deterministic():
    a = run_cli("irreducible-list", "--json")
    b = run_cli("irreducible-list", "--json")
    assert a.returncode == 0 == b.returncode
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert len(doc["reducible"]) == 27
    assert len(doc["field_root_cases"]) == 2


def test_enumerate(capsys):
    code, doc = main_json(capsys, "enumerate", "--max-abs", "3", "--json")
    assert code == 0
    assert doc["count"] == 76
    assert len(doc["elements"]) == 76
    ds = {e["d"] for e in doc["elements"]}
    assert ds == {1, 2, 3, 5, 6, 7, 11, 15, 19, 23, 31, 35}


def test_small_solutions_at_100(capsys):
    code, doc = main_json(capsys, "small-solutions", "--tmin", "100", "--json")
    assert code == 0
    assert doc["count"] == 0
    assert doc["solutions"] == []


def test_descent_json(capsys):
    code, doc = main_json(
        capsys, "descent", "--type", "3", "--kmax", "5", "--json"
    )
    assert code == 0
    assert [s["k"] for s in doc["steps"]] == [2, 3, 4, 5]
    assert doc["steps"][0]["c"]["dec"] == "10.14"
    assert doc["steps"][1]["c"]["dec"] == "42.48"
    assert all(s["nonvanish_ok"] for s in doc["steps"])


def test_constants_json(capsys):
    code, doc = main_json(capsys, "constants", "--type", "0", "--json")
    assert code == 0
    assert doc["c_coeff"]["dec"] == "5.47"
    assert doc["qmin_coeff"]["rat"] == "7/25"


def test_rouche_certs_json(capsys):
    code, doc = main_json(capsys, "rouche-certs", "--json")
    assert code == 0
    names = [c["name"] for c in doc["certificates"]]
    assert sorted(names) == ["B", "B3", "alpha0", "alpha1", "alpha2", "alpha3"]
    assert all(c["verified"] for c in doc["certificates"])


def test_rouche_certs_shows_every_failed_enclosure(capsys):
    # alpha1 and alpha3 both fail at 95, so the separation, which reads them,
    # is left out; at 99 only B3 fails, and the separation is shown
    for tmin, failed, separation in (("95", {"alpha1", "alpha3", "B3"}, False),
                                     ("99", {"B3"}, True)):
        assert main(["rouche-certs", "--tmin", tmin]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert {row.split(":")[0] for row in rows if "FAILED" in row} == failed
        assert len([row for row in rows if "radius" in row]) == 6
        assert any(row.startswith("separation ") for row in rows) is separation
        code, doc = main_json(capsys, "rouche-certs", "--tmin", tmin, "--json")
        assert code == 1
        assert {c["name"] for c in doc["certificates"] if not c["verified"]} == failed
        assert (doc["separation"] is not None) is separation


def test_corollary_lin_json(capsys):
    code, doc = main_json(capsys, "corollary-lin", "--C", "1", "--json")
    assert code == 0
    assert doc["t0"]["rat"] == "524/1"
    # the reported threshold is accepted back as --t0, with the same output
    assert main_json(capsys, "corollary-lin", "--C", "1", "--t0", "524", "--json") == (0, doc)


def test_corollary_eps_json(capsys):
    code, doc = main_json(capsys, "corollary-eps", "--eps", "3/4", "--json")
    assert code == 0
    assert all(g["ok"] for g in doc["gates"])
    assert all(g["ok"] for g in doc["gates_at_double"])


def test_verify_all_exit_codes_and_schema(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = main(["verify-all", "--out", str(out_file)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    assert doc["verdict"] == "proven"
    assert doc["timing"] is None
    assert {g["name"] for g in doc["gates"]} == {
        "irreducibility exceptions below tmin",
        "no small solutions at tmin",
        "type reduction certified",
        "descent lower bounds",
        "measure constant chains",
        "kappa below 3",
    }
    assert all(g["ok"] for g in doc["gates"])
    capsys.readouterr()


def test_verify_all_inconclusive_exit_code(capsys):
    code, doc = main_json(capsys, "verify-all", "--tmin", "80")
    assert code == 1
    assert doc["verdict"] == "inconclusive"
    failed = [g["name"] for g in doc["gates"] if not g["ok"]]
    assert "kappa below 3" in failed


def test_verify_all_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify-all", "--tmin", "80", "--out", str(a)]) == 1
    assert main(["verify-all", "--tmin", "80", "--out", str(b)]) == 1
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_thueq_threads_env_is_tolerated(monkeypatch, capsys):
    monkeypatch.setenv("THUEQ_THREADS", "not-a-number")
    code, doc = main_json(capsys, "enumerate", "--max-abs", "2", "--json")
    assert code == 0


# ---------------------------------------------------------------------------
# fuzz: every argument vector ends in a documented exit code

_BAD = st.sampled_from(["x", "", "1/0", "nan", "inf", "0x10", " 7 ", "--json", "1//2", "3.0"])
_RAT = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(-10**3, 10**3)),
    st.sampled_from(["0", "-0", "100", "1e30", "-1e30", "2.5", "1e-30"]),
    _BAD,
)
# --tmin draws reach 10^300; --C and --t0 draws stay at 10^30, since a --C of
# 10^300 spends most of a second to meet the output limit, which
# test_a_result_past_the_output_limit_exits_64 covers
_TMIN = _RAT | st.integers(-10**300, 10**300).map(str) | st.sampled_from(["1e300", "-1e300"])
_INT = st.one_of(st.integers(-5, 30).map(str), st.just(str(10**30)), _BAD)


def _max_abs_in_budget(text: str) -> bool:
    # the enumeration grows with the cube of --max-abs: 21,360 elements at 20,
    # and past MAX_ABS the value is refused at once
    try:
        return not 20 < Fraction(text) <= MAX_ABS
    except (ValueError, ZeroDivisionError):
        return True


_OUT = object()  # --out draws a path in the test's temporary directory
_TYPE, _KMAX = st.sampled_from(["0", "3"]) | _INT, st.integers(2, 11).map(str) | _INT
_FLAGS = {
    "verify-all": {"--tmin": _TMIN, "--kmax": _KMAX, "--out": _OUT},
    "irreducible-list": {"--json": None},
    "small-solutions": {"--tmin": _TMIN, "--json": None},
    "enumerate": {"--max-abs": _RAT.filter(_max_abs_in_budget), "--json": None},
    "descent": {"--type": _TYPE, "--tmin": _TMIN, "--kmax": _KMAX, "--json": None},
    "constants": {"--type": _TYPE, "--tmin": _TMIN, "--json": None},
    "corollary-lin": {"--C": _RAT, "--t0": _RAT, "--json": None},
    "corollary-eps": {"--eps": _RAT, "--json": None},
    "rouche-certs": {"--tmin": _TMIN, "--json": None},
}
_REQUIRED = {"enumerate": "--max-abs", "descent": "--type", "constants": "--type",
             "corollary-lin": "--C", "corollary-eps": "--eps"}
_ANY_FLAG = sorted({f for flags in _FLAGS.values() for f in flags} | {"--version", "-h"})


@st.composite
def _argv(draw, out_dir: str):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["no-such-command", "--version", ""]))
    flags = _FLAGS.get(command, {})
    # the command's own flags, each possibly repeated; the required one usually
    # first, and sometimes a flag that belongs elsewhere
    names = draw(st.lists(st.sampled_from(sorted(flags) or _ANY_FLAG), max_size=4))
    if command in _REQUIRED and draw(st.integers(0, 4)):
        names.insert(0, _REQUIRED[command])
    if not draw(st.integers(0, 4)):
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(_ANY_FLAG)))
    argv = [command] if command else []
    for name in names:
        argv.append(name)
        values = flags.get(name, _RAT)
        if values is None or name in ("--version", "-h"):
            continue
        if values is _OUT:
            values = st.sampled_from([f"{out_dir}/r.json", f"{out_dir}/missing/r.json", out_dir])
        if draw(st.integers(0, 7)):  # else the value is missing
            argv.append(draw(values))
    return argv


def test_cli_fuzz_ends_in_a_documented_exit_code():
    with tempfile.TemporaryDirectory() as out_dir:
        @settings(max_examples=150, deadline=None, database=None)
        @given(_argv(out_dir))
        def run(argv):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main(argv)
            except SystemExit as exc:  # argparse's own exits: usage, --help, --version
                code = exc.code
            assert code in (0, 1, 2, 64), (argv, code, sink.getvalue()[-500:])

        run()
