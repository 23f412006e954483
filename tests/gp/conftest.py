"""Shared fixtures: the toy model-revision problem of :mod:`tests.oracle`.

The hidden truth is ``dB/dt = B * (mu - loss) + 0.5 * Vx``; the seed given
to the engine omits the ``0.5 * Vx`` input flux, so revision has a real,
recoverable target.
"""

from __future__ import annotations

import pytest

from repro.dynamics.task import ModelingTask
from repro.gp.config import GMRConfig
from repro.gp.knowledge import PriorKnowledge, build_grammar
from tests import oracle


@pytest.fixture(scope="session")
def toy_knowledge() -> PriorKnowledge:
    return oracle.toy_knowledge()


@pytest.fixture(scope="session")
def toy_grammar(toy_knowledge):
    return build_grammar(toy_knowledge)


@pytest.fixture(scope="session")
def toy_task() -> ModelingTask:
    return oracle.toy_task()


@pytest.fixture()
def small_config() -> GMRConfig:
    return oracle.SMALL_CONFIG
