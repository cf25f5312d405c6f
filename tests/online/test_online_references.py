"""Online planning rounds against the reference selections.

Every round builds its selector from the driver's one table, so the
references of ``tests/scheduling/scan_reference.py`` reach online rounds
as they reach the offline heuristics: under them a session's journals
and poll results (failing rounds included) must be those of the shipped
selectors, for every heuristic and policy, at tight and roomy bounds and
with fractional times and sizes.
"""

import pytest

from repro import Platform
from repro.online import OnlineSession

from ..scheduling.scan_reference import references
from .test_replan_checkpoint import _run, _stream

pytest.importorskip("numpy")

ALGOS = ("memheft", "memminmin", "memsufferage")
POLICIES = ("immediate", "batched:1.5", "replan:4", "replan:16")
#: Tight (some rounds fail) and roomy capacities for both classes.
BOUNDS = {"tight": 8.0, "roomy": 20000.0}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("algo", ALGOS)
def test_rounds_match_the_references(algo, policy, bound):
    platform = Platform(n_blue=2, n_red=1, mem_blue=BOUNDS[bound],
                        mem_red=BOUNDS[bound])
    # Times and sizes scaled by 1/3: fractional, not integer-valued.
    stream = _stream(12, 2027, 1.5, 1 / 3)
    got, got_polls = _run(OnlineSession, stream, platform, algo, policy)
    with references((algo,)) as built:
        ref, ref_polls = _run(OnlineSession, stream, platform, algo, policy)
    assert got.journal() == ref.journal()
    assert got_polls == ref_polls
    failed = sum(p == "infeasible" for polls in ref_polls for p in polls)
    # One reference selector per round, failing rounds included.
    assert built[algo] == len(ref.rounds) + failed > 0
    assert (failed > 0) == (bound == "tight")
