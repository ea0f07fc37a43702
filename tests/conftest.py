"""Hypothesis profiles for the test suite.

* ``tier1`` (the default): ``derandomize=True``.  Every run draws the
  same examples, so a red or green tier-1 run is reproducible and a
  result does not hang on a lucky seed.
* ``deep``: random seeds and ten times each test's tier-1
  ``max_examples`` (``DEEP_FACTOR``).  Select it with
  ``--hypothesis-profile=deep``, as ``make deep-property`` and the CI
  ``deep-property`` job do.  One seed serves the whole session; it is
  drawn unless ``--hypothesis-seed`` names one, and it is printed in the
  report header and the closing summary, so a failure can be replayed
  with ``--hypothesis-profile=deep --hypothesis-seed=<seed>``.
"""

import random

import pytest
from hypothesis import core, is_hypothesis_test, settings

DEEP_FACTOR = 10

settings.register_profile("tier1", derandomize=True)
settings.register_profile("deep", derandomize=False, print_blob=True)
settings.load_profile("tier1")


def _deep() -> bool:
    return settings.get_current_profile_name() == "deep"


def _replay_hint() -> str:
    return (f"hypothesis deep profile: seed {core.global_force_seed} "
            f"(replay with --hypothesis-profile=deep "
            f"--hypothesis-seed={core.global_force_seed})")


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    # After the Hypothesis plugin has applied --hypothesis-profile and
    # --hypothesis-seed.
    if _deep() and core.global_force_seed is None:
        core.global_force_seed = random.SystemRandom().getrandbits(32)


def pytest_report_header(config):
    return _replay_hint() if _deep() else None


def pytest_collection_modifyitems(config, items):
    """Under ``deep``, scale every Hypothesis test's own budget."""
    if not _deep():
        return
    scaled = set()
    for item in items:
        fn = getattr(item, "obj", None)
        fn = getattr(fn, "__func__", fn)
        if fn is None or not is_hypothesis_test(fn) or id(fn) in scaled:
            continue
        scaled.add(id(fn))
        own = fn._hypothesis_internal_use_settings
        fn._hypothesis_internal_use_settings = settings(
            own, max_examples=own.max_examples * DEEP_FACTOR)


def pytest_terminal_summary(terminalreporter):
    if _deep():
        terminalreporter.write_line(_replay_hint())
