"""Fixtures for every test."""

import importlib

import pytest

from _helpers import certify_compact_answer


@pytest.fixture(scope="session", autouse=True)
def certify_compact_solves():
    """Certify every compact answer on the paper model before `_verify`
    checks it: a lifted answer that breaks a paper row or bound, or whose
    paper objective exceeds the compact one, fails the test."""
    from nbsopt.model import CompactModel

    solve = importlib.import_module("nbsopt.solve")  # not the package's `solve` function
    real = solve._verify

    def verify(inst, model, answer):
        if isinstance(model, CompactModel) and answer.x is not None:
            failure = certify_compact_answer(inst, model, answer)
            assert not failure, f"the compact answer fails the certificate: {failure}"
        return real(inst, model, answer)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve, "_verify", verify)
        yield
