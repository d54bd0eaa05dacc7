import ast
from collections import Counter
from pathlib import Path

from thueq import descent, measure, rouche

SRC = Path(__file__).parents[1] / "src" / "thueq"


def _decimals(tree):
    """Every Fraction("...") / F("...") decimal literal under an AST node."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("Fraction", "F") and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and "." in node.args[0].value):
            yield node.args[0].value


def decimal_literals():
    """(module, text) of every decimal literal in src."""
    for path in sorted(SRC.glob("*.py")):
        yield from ((path.name, text) for text in _decimals(ast.parse(path.read_text())))


def test_every_published_decimal_is_spelled_once():
    found = list(decimal_literals())
    counts = Counter(text for _, text in found)
    assert len(counts) > 40
    repeated = {text: n for text, n in counts.items() if n > 1}
    # equal values, different constants: the alpha2 radius and the step-2
    # divisor; the type-0 absorption base and the type-0 q gate
    assert repeated == {"5.02": 2, "0.28": 2}
    assert sorted(m for m, text in found if text == "5.02") == ["descent.py", "rouche.py"]
    assert rouche.ALPHA2_RADIUS == descent.STEP2_DIVISOR
    assert measure.ABSORB_BASE[0] == measure.QMIN[0]


def test_no_function_body_holds_a_decimal():
    # a decimal is a module constant with a comment on what it bounds, so a
    # test can set it past its line
    found = [f"{path.name}:{node.name}: {text}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for text in _decimals(node)]
    assert found == []


def test_no_source_module_relies_on_assert():
    # python -O strips assert statements, so a certified check must raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_the_exception_classes_are_the_five_kept():
    # a failed certified check is a ChainError; each other class is caught by
    # type somewhere or signals bad input.  OutputLimitError lives with
    # MAX_DIGITS, as corollary_eps raises it as well as the CLI
    found = {(path.name, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and any(
                 isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
                 for b in node.bases)}
    assert found == {("exactnum.py", "ChainError"), ("exactnum.py", "DomainError"),
                     ("exactnum.py", "UndefinedKappaError"), ("concrete.py", "TieError"),
                     ("exactnum.py", "OutputLimitError")}
