"""What each entry point imports and runs, and the names callers read from the
modules that the concrete-t path and the corollaries left.

A cold ``verify-all`` compiles every module it imports when no bytecode is
cached, so it must not import ``thueq.concrete`` (root balls, the type
classification, the divisibility check) or ``thueq.corollary``.  ``dioph``,
``series`` and ``measure`` still hand out the moved names that the benchmark
and the acceptance criteria read there."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import thueq
from thueq import concrete, corollary, dioph, measure, series

SRC = os.path.dirname(os.path.dirname(os.path.abspath(thueq.__file__)))
VERDICT = {"thueq", "thueq.cli", "thueq.descent", "thueq.dioph", "thueq.exactnum",
           "thueq.hyperchi", "thueq.measure", "thueq.quadfield", "thueq.rouche",
           "thueq.series", "thueq.zpoly"}
CALLS = {
    "verify-all": "cli.main(['verify-all'])",
    "corollary-eps": "cli.main(['corollary-eps', '--eps', '1/2'])",
    "classify_type": ("from thueq.dioph import classify_type\n"
                      "from thueq.quadfield import QuadInt\n"
                      "classify_type(QuadInt(1, 37, 120), QuadInt(1, 1, 0), QuadInt(1, 0, 1))"),
}


def loaded_after(call: str, optimize: list) -> set:
    """The thueq modules in sys.modules after one call in a fresh interpreter."""
    code = (f"import contextlib, io, sys\nsys.path.insert(0, {SRC!r})\nfrom thueq import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n{textwrap.indent(call, '    ')}\n"
            "print(' '.join(m for m in sys.modules if m.startswith('thueq')))")
    # -I ignores PYTHONDONTWRITEBYTECODE: -B keeps the run from caching bytecode in src/
    out = subprocess.run([sys.executable, "-I", "-S", "-B", *optimize, "-c", code],
                         capture_output=True, text=True, timeout=60, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["plain", "O"])
def test_a_cold_verify_all_imports_only_the_verdict(optimize):
    assert loaded_after(CALLS["verify-all"], optimize) == VERDICT
    # the corollaries run no search, so they need no dioph
    eps = loaded_after(CALLS["corollary-eps"], optimize)
    assert "thueq.corollary" in eps and eps - {"thueq.corollary"} <= VERDICT
    classify = loaded_after(CALLS["classify_type"], optimize)
    assert "thueq.concrete" in classify and "thueq.corollary" not in classify


# every name that perfbench/ reads from a thueq module, by module
BENCHMARK_NAMES = {
    "dioph": ("classify_type", "all_root_balls", "root_ball", "divisibility_ball_check",
              "_t_exact", "_root_seeds", "_SEARCH_CACHE", "small_solution_search"),
    "series": ("GaussRat", "Series", "TPoly", "thue_polys_at", "tail_bound", "pade",
               "pade_residual", "newton_alpha_series", "alpha3_series", "quotient_root_check"),
    "measure": ("corollary_eps", "corollary_lin", "_eps_gates", "LIN_T0_FLOOR", "kappa_hi"),
    "exactnum": ("kappa", "ln_enclosure", "_LN2_CACHE"),
    "hyperchi": ("chi_coeffs", "denom_data"),
}


def _tracing():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_reads_resolves():
    tracing = _tracing()
    wanted = {(m, n) for m, names in BENCHMARK_NAMES.items() for n in names}
    wanted |= {(m, n) for table in (tracing.SPANS, tracing.COUNTED)
               for m, names in table.items() for n in names}
    missing = [f"{m}.{n}" for m, n in sorted(wanted)
               if not hasattr(importlib.import_module(f"thueq.{m}"), n)]
    assert missing == []


# the moved names that the old modules still hand out, and a moved name each does not
FORWARDED = [
    (dioph, concrete, ("classify_type", "all_root_balls", "root_ball",
                       "divisibility_ball_check", "_t_exact", "_root_seeds", "TieError"),
     "_embed"),
    (series, concrete, ("thue_polys_at", "TPoly"), "_thue_x_polys"),
    (measure, corollary, ("corollary_eps", "corollary_lin", "_eps_gates", "LIN_T0_FLOOR"),
     "_log_constants"),
]


@pytest.mark.parametrize("module, home, names, kept_there", FORWARDED,
                         ids=["dioph", "series", "measure"])
def test_a_forwarded_name_is_bound_on_first_access(module, home, names, kept_there):
    for name in names:
        assert getattr(module, name) is getattr(home, name)
        assert vars(module)[name] is getattr(home, name)
    with pytest.raises(AttributeError, match=f"has no attribute '{kept_there}'"):
        getattr(module, kept_there)


# README's trusted base: the distinct (file, line) pairs of the call and line events in
# src/thueq over one verify-all, with the hook set before thueq is imported
TRUSTED_BASE = """import contextlib, io, os, sys
src = os.path.join({src!r}, "thueq") + os.sep
sys.path.insert(0, {src!r})
seen = set()
def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(src):
        return None
    if event in ("call", "line"):
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return trace
sys.settrace(trace)
from thueq import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["verify-all"])
sys.settrace(None)
print(rc, len(seen))"""


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="README counts the trusted base under CPython 3.11; "
                           "the lines a run executes differ between versions")
def test_readme_states_the_trusted_base_it_measures():
    readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    stated = re.search(r"a cold `thueq verify-all` at `tmin` 100 executes ([\d,]+) distinct "
                       r"lines of `src/thueq` under CPython 3\.11", readme)
    assert stated is not None
    out = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", TRUSTED_BASE.format(src=SRC)],
                         capture_output=True, text=True, timeout=60, check=True)
    rc, count = map(int, out.stdout.split())
    assert rc == 0
    assert f"{count:,}" == stated.group(1)
