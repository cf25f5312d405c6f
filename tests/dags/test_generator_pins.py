"""Every random workload is pinned to the bytes it had before the
generator drew its weights in bulk: ``sha256(canonical_json(...))`` of
the wire form of each graph (or of the list of a set's graphs, or of a
Poisson trace's rows).  A change to the generator that moves one draw of
the numpy stream, the order of the tasks or the order of the edges
fails here."""

import hashlib

import pytest

from repro.dags.daggen import random_dag
from repro.dags.datasets import large_rand_set, small_rand_set, tiny_rand_set
from repro.io.json_io import canonical_json, graph_to_dict
from repro.online.loadgen import poisson_trace

#: ``(size, width, density, jumps)``; case ``i`` is drawn with ``rng=i``.
STRUCTURES = (
    [(n, 0.3, 0.5, 5) for n in (1, 2, 12, 30, 150)]
    + [(150, w, d, j) for w in (0.3, 0.5, 1.0) for d in (0.0, 0.5, 1.0)
       for j in (1, 3, 5)]
    + [(1000, 1.0, 1.0, 3), (2000, 0.3, 0.5, 5), (4000, 0.5, 0.5, 5)])

#: weight ranges of ``random_dag(60, 0.5, 0.5, 3, rng=11, **ranges)``.
WEIGHTS = {
    "default": {},
    "large": dict(w_range=(1, 100), c_range=(1, 100), f_range=(1, 100)),
    "c_ne_f": dict(c_range=(2, 7), f_range=(10, 40)),
    "degenerate": dict(w_range=(5, 5), c_range=(0, 0), f_range=(3, 4)),
    "huge": dict(w_range=(1, 2**40), c_range=(0, 2**33),
                 f_range=(2**32, 2**32 + 1)),
}


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _cases():
    cases = {}
    for i, (n, w, d, j) in enumerate(STRUCTURES):
        cases[f"s{n}_{w}_{d}_{j}"] = (
            lambda i=i, n=n, w=w, d=d, j=j:
            graph_to_dict(random_dag(n, w, d, j, rng=i)))
    for name, ranges in WEIGHTS.items():
        cases[f"w_{name}"] = (
            lambda ranges=ranges:
            graph_to_dict(random_dag(60, 0.5, 0.5, 3, rng=11, **ranges)))
    for name, build in (("small", small_rand_set), ("large", large_rand_set),
                        ("tiny", tiny_rand_set)):
        cases[f"set_{name}"] = (
            lambda build=build: [graph_to_dict(g) for g in build()])
    cases["trace"] = lambda: poisson_trace(60, seed=4, size=12)
    return cases


CASES = _cases()

PINNED = {
    "s1000_1.0_1.0_3":
        "b44c68359159ed91758798f461ae6b74f791efa3be51a27cf63e239e75d95004",
    "s12_0.3_0.5_5":
        "97c23e245fbd7146bde87aab11abebdeb66cb2b52940c2f8f7e94afbf9490ec7",
    "s150_0.3_0.0_1":
        "2a201ca12fd5e1449a2295ef8ce237777a16d594fcc10318b5f71e61d9dfd90f",
    "s150_0.3_0.0_3":
        "5ca489c61a972791d9bcbd0ef7a839d1b0aeff106d7e615db3d291a1477a828b",
    "s150_0.3_0.0_5":
        "c3a3215d23a1e64852776ff2874d0960678894fd2389dc0ed91cb914e1fee749",
    "s150_0.3_0.5_1":
        "d74a3a6930ec8eb298eeb119639413d42635aae490f46591574f6680d6e05f3b",
    "s150_0.3_0.5_3":
        "26562841a7a710791ac9904725753f48e6fb34c0ce6971af739971d1032a005e",
    "s150_0.3_0.5_5":
        "6ca4490523773b2ac5aae78225a42184409f949b42011e2e0f8de5eef543a7c9",
    "s150_0.3_1.0_1":
        "5c8a2c2221be5fedf3a1506a15648c654be767954539cbc3250a5e2126fd3f08",
    "s150_0.3_1.0_3":
        "492d530f5aaeffde48399401f03329c466cb57ca8ada3d71779c2bf35a293598",
    "s150_0.3_1.0_5":
        "267f5d599045a36ddaafa94274ff827a95d7250cefdcbf6905f7bd15cc2a3e8c",
    "s150_0.5_0.0_1":
        "12a11d3345c593347c51d647e5730ae11208b09252410e798861c60e6b87369b",
    "s150_0.5_0.0_3":
        "4dd52a2e732a8c497b5a77610f089412aba762111b9134f4ba9d648ec2db7c3d",
    "s150_0.5_0.0_5":
        "7a65ffa0fd13f7974d151c68f13c42c950b977c691d99a7c16d700f3c47d3e51",
    "s150_0.5_0.5_1":
        "2616a60e615b74bf47c38509a1fe4b612ca2a7f04d02ee0909451f8749568a0d",
    "s150_0.5_0.5_3":
        "cbcd5af0e95a20f930eb44dfc972aef2773516b479c0864f77cd9460c4809d2d",
    "s150_0.5_0.5_5":
        "54ad87f97009d2d2ceb2bed080953aa25aace5998bcd7bc36a719685e468bafb",
    "s150_0.5_1.0_1":
        "eb22c83d7609badf324ab4890a2e73b3cab919e6ade3f7afd3e2219b0d5fc37a",
    "s150_0.5_1.0_3":
        "f7d44b0ce81eb54dcddcea8f691de2ae57f0e2e35a0bf64e483faa08f5265cc6",
    "s150_0.5_1.0_5":
        "a8dd27ac6fc8fff826e0b8eb0589e489f77f5ccadf0f7aa80bbddd50505866f6",
    "s150_1.0_0.0_1":
        "a3075a7a0716e051e8c7304896bb98564aa9ca271173bf102a06e4df11198652",
    "s150_1.0_0.0_3":
        "aeb7464abf12ec6bfc0016c096b125009618a17d029bfc192bba061a3f077d6a",
    "s150_1.0_0.0_5":
        "d732a6f70fa69b118f8fdba23f601f387f3d846372b0a970574ad936e0d55dee",
    "s150_1.0_0.5_1":
        "3c895f2d52a030986a72f96ac50902bb0ec0229b96069f6c2be2dafa940f27ec",
    "s150_1.0_0.5_3":
        "375f635142e6bd513b6a03fd63e2a732f86a6263a2cbbf09359c5e6b17d012e7",
    "s150_1.0_0.5_5":
        "1f51204e980275c59f0f84f0bff080b8d77ea1114d9ad909017d23f82af1cc17",
    "s150_1.0_1.0_1":
        "05786ebefb5c2241295fc90cc42f03d1722be3ca726b62639f5dd40943ceaddd",
    "s150_1.0_1.0_3":
        "7e8de9c5fa15b3f8fa01daf36c2ed35d6ca0563cbb0f7e064f8ad608a7b27284",
    "s150_1.0_1.0_5":
        "4b28233c5947b9c9b728a0a9e0323a42e552cb7688dac1cab83e3e021fc9f346",
    "s1_0.3_0.5_5":
        "011c193164438a34fa306e7a2a57f81b4988c848f229c7427344182ed019a46a",
    "s2000_0.3_0.5_5":
        "85e353ba949a6df30bc759adebbc87a37124ceea84e54021d7b444ef023a7034",
    "s2_0.3_0.5_5":
        "bc8afb7d92a2e9c5d5db0cdd44a41a5162c3fd8a06be67ad04f721e59c1097cb",
    "s30_0.3_0.5_5":
        "d3287f93e9075eed86d2624f18525c60162a7af3d77a3209b369eb58bfcb52b5",
    "s4000_0.5_0.5_5":
        "10e0826d901ea39c38322de2c7ee7d31dec3c0d0129cf2ad65856d0346ae2aa2",
    "set_large":
        "2a99b0bb9b8987236f8c8d1c5c5351074e74e95d0fff78e205570d4eb55f88eb",
    "set_small":
        "b0a5498e68dd6d8be0430bf5b477c2755f69949f216b17401e9abc89b6889398",
    "set_tiny":
        "ef671c7dda69f30cb47a38d34e106207e3b2b4da9f9667e308c28d339b28022f",
    "trace":
        "c756f0a01bfe6b70acec0c2e4ccef363d32e18211b72b40ff14fd11b1b10eb9a",
    "w_c_ne_f":
        "2af01fdd3b4e0ca9677ededf98b6cc1e2af362a406a5e2faa215b51ee7b92c99",
    "w_default":
        "642de216ae9d4e126a8b00e5d54a1c60a68c3d899ac70df79044bc570b269189",
    "w_degenerate":
        "29d405b7e51284f0e1298422cba99ba0b6a51074088ecac3dd22ae6be6e41d8d",
    "w_huge":
        "584621751111838b87224b51a7f9d3a7de9828b22942d023f77fa783958dfef6",
    "w_large":
        "a3a702162fef6d28800f32383fb87e7e116c90bf87a5757dcb6fd292d9d3cf37",
}


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_generated_bytes_are_pinned(key):
    assert _digest(CASES[key]()) == PINNED[key]
