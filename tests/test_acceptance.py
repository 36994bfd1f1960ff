"""Acceptance gate: every criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion; ``nsfd-epi verify`` prints the same table.
"""

import subprocess
import sys

import pytest

from nsfd_epi.verification import acceptance_check_names, run_acceptance

# Which acceptance criterion each check implements.
CRITERION = {
    "converges:general-disease-free": 1,
    "converges:general-endemic": 1,
    "converges:horizontal-disease-free": 2,
    "converges:horizontal-endemic": 2,
    "converges:horizontal-susceptible-free": 2,
    "converges:vertical-disease-free": 3,
    "interior-equilibrium-algebra": 4,
    "reproduction-number-threshold": 5,
    "positivity": 6,
    "step-size-independence": 7,
    "jury-eigenvalue-oracle": 8,
    "theorem-crosscheck": 9,
    "consistency-order": 10,
}


@pytest.fixture(scope="module")
def acceptance_results():
    return {result.name: result for result in run_acceptance()}


def test_every_criterion_has_a_check():
    assert sorted(CRITERION) == sorted(acceptance_check_names())
    assert set(CRITERION.values()) == set(range(1, 11))


@pytest.mark.parametrize("name", sorted(CRITERION, key=lambda n: (CRITERION[n], n)))
def test_criterion(name, acceptance_results):
    result = acceptance_results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {CRITERION[name]:2d}] {status} {name}: {result.details}")
    assert result.passed, f"criterion {CRITERION[name]} ({name}): {result.details}"


def test_stock_verify_command_exits_zero(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "nsfd_epi.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=300,
        env=package_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
