"""Every trace and CLI output in the golden case set is bitwise unchanged.

The digests hold on the platform that made them (see golden_cases); on
another numpy build, BLAS or CPU they are not comparable, and those tests say
so instead of comparing. The case ids are compared on every platform.
"""

import json

import pytest

from golden_cases import GOLDEN_PATH, all_digests, case_ids, platform_fingerprint

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

on_golden_platform = pytest.mark.skipif(
    platform_fingerprint() != GOLDEN["platform"],
    reason=f"golden digests were made on {GOLDEN['platform']!r}; "
    "regenerate them with tests/make_golden.py on the parent commit to compare here",
)


def test_case_ids_match_committed_digests():
    # listing the ids runs no case, so a dropped or renamed case fails here
    # on any platform
    assert sorted(case_ids()) == sorted(GOLDEN["digests"])


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return all_digests(tmp_path_factory.mktemp("golden"))


@on_golden_platform
def test_case_set_matches_committed_digests(digests):
    assert sorted(digests) == sorted(GOLDEN["digests"])


@on_golden_platform
@pytest.mark.parametrize("case", sorted(GOLDEN["digests"]))
def test_golden_digest(digests, case):
    assert digests[case] == GOLDEN["digests"][case]
