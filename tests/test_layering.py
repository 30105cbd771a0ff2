"""Storage stays private to the module that owns it: only linalg.py reads a
SymmetricMatrix's operand, its bound product kernel or its cached Cholesky
factor, or a CholeskyFactor's L, row order and SuperLU handle, and no module reads the
retired per-kind fields or CSR-array tuple. B's factor has one owner: only
linalg.py calls ``cholesky_factorize``; every other module asks
``b.cholesky()``."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gepsolve"
OWNED = re.compile(r"\._(?:m|kernel|chol|l|lu|perm)\b")
RETIRED = re.compile(r"\._(?:dense|sparse|strict|diag|csr)\b")


def module_lines():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "linalg.py" for p in modules)
    for path in modules:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path.name, lineno, line


def test_no_module_reads_another_modules_storage():
    offenders = [f"{name}:{lineno}: {line.strip()}" for name, lineno, line in module_lines()
                 if RETIRED.search(line) or (name != "linalg.py" and OWNED.search(line))]
    assert offenders == []


def test_only_linalg_calls_cholesky_factorize():
    offenders = [f"{name}:{lineno}: {line.strip()}" for name, lineno, line in module_lines()
                 if name != "linalg.py" and "cholesky_factorize(" in line]
    assert offenders == []
