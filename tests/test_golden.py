"""Command outputs compared byte for byte with tests/golden (see make_golden.py)."""

import pytest

from make_golden import CASES, GOLDEN_DIR, SWEEPS, run_case


def _golden(name):
    return {path.name: path.read_bytes() for path in (GOLDEN_DIR / name).iterdir()}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_outputs_match_golden(name, tmp_path):
    assert run_case(name, tmp_path) == _golden(name)


@pytest.mark.parametrize("name", sorted(set(CASES) - set(SWEEPS)))
def test_command_outputs_match_golden(name, tmp_path):
    assert run_case(name, tmp_path) == _golden(name)


def test_pool_outputs_match_golden(tmp_path):
    # Mixed groups (invalid rows, a kT = 0 bath, warm baths) split across workers.
    assert run_case("u_kt_checked", tmp_path, workers=2) == _golden("u_kt_checked")
