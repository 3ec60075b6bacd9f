"""Shared fixtures: one run of every ``verify`` suite for the whole test session,
and a cleared evaluation memo after every test."""

import time
from dataclasses import dataclass

import pytest

from hyprec import hypergeom
from hyprec.verify import SUITES, PropertyResult, VerifySummary, verify_driver

VERIFY_SEED = 42


@dataclass(frozen=True)
class VerifyRun:
    """Every suite run once, in ``SUITES`` order, with each suite's wall time."""

    seed: int
    results: tuple[PropertyResult, ...]
    wall_s: dict[str, float]

    @property
    def records(self) -> dict[tuple[str, str], PropertyResult]:
        return {(r.suite, r.name): r for r in self.results}

    def summary(self, suite: str = "all") -> VerifySummary:
        """The summary ``verify_driver(suite, seed)`` returns, rebuilt from these records."""
        picked = tuple(r for r in self.results if suite == "all" or r.suite == suite)
        return VerifySummary(suite, self.seed, picked)


@pytest.fixture(scope="session")
def verify_run() -> VerifyRun:
    results, wall_s = [], {}
    for suite in SUITES:
        start = time.perf_counter()
        results.extend(verify_driver(suite, VERIFY_SEED).results)
        wall_s[suite] = time.perf_counter() - start
    return VerifyRun(VERIFY_SEED, tuple(results), wall_s)


@pytest.fixture(autouse=True)
def forget_unit_values():
    """Let no test leave series in ``hypergeom._MEMO`` for the next.

    It never changes a result, but a test that counts evaluations, such
    as the benchmark tracer's in ``perfbench/``, would see fewer of them when
    an earlier test happened to leave its inputs behind.
    """
    yield
    hypergeom._MEMO.clear()
