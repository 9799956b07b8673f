"""The digests of scripts/byte_contract.py, pinned for the numpy they were recorded with."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

RECORDED_NUMPY = "2.4.6"
RECORDED = {
    "verify_minimality": "6017804ada81436479412540dfde23aa400805fc046c221de00e730a274ddc83",
    "cli": "c06f485d97691c1c051134e0c443cf584459cec173675aa379dc542af11a3d53",
    "cli_formats": "54e365780c9a7216441ac0545f76e9b8873d1bd4a7cd57ce81962da025542b6e",
    "key_rate_numeric": "133acd4964c62ca5fdadcab02168a979b03f8dfcabebb4561335741cf55e83ba",
}
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "byte_contract.py"


SAME_NUMPY = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests were recorded with numpy {RECORDED_NUMPY}, not {np.__version__}; "
    "its ufunc loops set the output bits",
)
# numpy's dispatch targets whose SIMD log1p, log2 and log round differently
# from the loops without them (ROADMAP item 14).
AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"


@SAME_NUMPY
def test_byte_contract_digests():
    spec = importlib.util.spec_from_file_location("byte_contract", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digests() == RECORDED


@SAME_NUMPY
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 14: the digests hold only where numpy runs its AVX-512 loops",
)
def test_byte_contract_digests_without_avx512_loops():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_TARGETS)
    src = str(SCRIPT.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert dict(line.split() for line in result.stdout.splitlines()) == RECORDED
