"""Digest-stability regression: the schema-v2 (``speeds``) bump must not
churn a single pre-existing content address.

``tests/io/data/digest_fixtures.json`` pins the ``canonical_digest`` of 132
representative homogeneous payloads (graphs x platforms x algorithms x
options), captured at commit 4737e73 *before* the heterogeneous-processor
refactor.  Every service response body carries its request's digest in
the ``digest`` field, and the perfbench goldens hash those bodies, so any
drift here changes the service's output bytes.
"""

import json
import math
from pathlib import Path

import pytest

from repro.core.platform import Platform
from repro.io.json_io import (
    DIGEST_SCHEMA_VERSION,
    canonical_digest,
    platform_from_dict,
    platform_to_dict,
)

FIXTURES = json.loads(
    (Path(__file__).parent / "data" / "digest_fixtures.json").read_text())


@pytest.mark.parametrize(
    "fixture", FIXTURES["fixtures"],
    ids=[f"{f['graph']}-{f['platform']}-{f['algorithm']}-{f['options']}"
         for f in FIXTURES["fixtures"]])
def test_pinned_digest_unchanged(fixture):
    payloads = FIXTURES["payloads"]
    digest = canonical_digest(
        payloads["graphs"][fixture["graph"]],
        payloads["platforms"][fixture["platform"]],
        fixture["algorithm"],
        payloads["options"][fixture["options"]],
    )
    assert digest == fixture["digest"], (
        f"canonical_digest drifted for {fixture} — content-addressed "
        f"cache keys of existing deployments would churn")


def test_schema_version_is_v2():
    assert DIGEST_SCHEMA_VERSION == 2


def test_homogeneous_platform_dict_has_no_speeds_key():
    # The stability above hinges on this: all-1.0 speeds must serialize
    # exactly like the pre-v2 layout.
    assert "speeds" not in platform_to_dict(Platform(2, 1, 40.0, 40.0))
    assert "speeds" not in platform_to_dict(
        Platform([2, 1, 1], [1.0, 2.0, math.inf]))
    assert "speeds" not in platform_to_dict(
        Platform(2, 1, 40.0, 40.0, speeds=[1.0, 1.0, 1.0]))


def test_heterogeneous_platform_changes_digest():
    graph_d = FIXTURES["payloads"]["graphs"]["dex"]
    hom = platform_to_dict(Platform(1, 1))
    het = platform_to_dict(Platform(1, 1, speeds=[2.0, 1.0]))
    assert (canonical_digest(graph_d, hom, "memheft", None)
            != canonical_digest(graph_d, het, "memheft", None))


def test_heterogeneous_platform_roundtrips_through_dict():
    for plat in (Platform(2, 1, 40.0, 40.0, speeds=[1.0, 0.5, 2.0]),
                 Platform([3], [10.0], speeds=[1.0, 2.0, 0.25]),
                 Platform([1, 1, 2], [1.0, 2.0, math.inf],
                          speeds=[2.0, 1.0, 0.5, 1.5])):
        assert platform_from_dict(platform_to_dict(plat)) == plat
