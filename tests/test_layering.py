"""Storage stays private to the module that owns it: only linalg.py reads a
SymmetricMatrix's operand or its CSR arrays, or a CholeskyFactor's L and
SuperLU handle, and no module reads the retired per-kind fields."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gepsolve"
OWNED = re.compile(r"\._(?:m|csr|l|lu)\b")
RETIRED = re.compile(r"\._(?:dense|sparse|strict|diag)\b")


def test_no_module_reads_another_modules_storage():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "linalg.py" for p in modules)
    offenders = []
    for path in modules:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if RETIRED.search(line) or (path.name != "linalg.py" and OWNED.search(line)):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
