import json
import subprocess
import sys

import pytest

from thueq.cli import main


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


def test_usage_errors_exit_64():
    assert run_cli().returncode == 64
    assert run_cli("no-such-command").returncode == 64
    assert run_cli("descent").returncode == 64  # missing required --type
    assert run_cli("enumerate", "--max-abs", "x").returncode == 64


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


def test_corollary_lin_json(capsys):
    code, doc = main_json(capsys, "corollary-lin", "--C", "1", "--json")
    assert code == 0
    assert doc["t0"]["rat"] == "524/1"


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
