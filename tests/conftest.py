"""Fixtures for every test."""

import dataclasses
import importlib

import pytest

from _helpers import certify_compact_answer


@pytest.fixture(scope="session", autouse=True)
def certify_compact_solves():
    """Certify on the paper model every compact answer that `_verify` accepts
    as the solver stated it: a lifted answer that breaks a paper row or bound,
    or whose paper objective exceeds the compact one, fails the test. An
    answer `_verify` turns into an error, or into the do-nothing fallback,
    yields no placement from the solver's vector: the answers a test's stub
    solver writes on purpose are such."""
    solve = importlib.import_module("nbsopt.solve")  # not the package's `solve` function
    real = solve._verify

    def verify(inst, model, answer):
        result = real(inst, model, answer)
        if model.layout.guard_cells is not None and result.ok and result.status == answer.status:
            if answer.objective is None:  # the result's objective is the re-evaluated one
                answer = dataclasses.replace(answer, objective=result.objective)
            failure = certify_compact_answer(inst, model, answer)
            assert not failure, f"the compact answer fails the certificate: {failure}"
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve, "_verify", verify)
        yield
