"""The digests of scripts/byte_contract.py, pinned for the numpy they were recorded with."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

RECORDED_NUMPY = "2.4.6"
RECORDED = {
    "verify_minimality": "6017804ada81436479412540dfde23aa400805fc046c221de00e730a274ddc83",
    "cli": "c06f485d97691c1c051134e0c443cf584459cec173675aa379dc542af11a3d53",
    "key_rate_numeric": "133acd4964c62ca5fdadcab02168a979b03f8dfcabebb4561335741cf55e83ba",
}
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "byte_contract.py"


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests were recorded with numpy {RECORDED_NUMPY}, not {np.__version__}; "
    "its ufunc loops set the output bits",
)
def test_byte_contract_digests():
    spec = importlib.util.spec_from_file_location("byte_contract", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.digests() == RECORDED
