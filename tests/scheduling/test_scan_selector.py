"""The ordered ready list of :class:`ScanSelector`: whatever the
interleaving of pushes and removals, ``len()`` counts the ready tasks and
``select()`` hands the rule exactly those tasks, sorted by ``order``."""

from hypothesis import given
from hypothesis import strategies as st

from repro.scheduling.candidates import ScanSelector

N = 30


@given(order=st.permutations(range(N)),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, N - 1)),
                    max_size=120))
def test_ready_list_stays_ordered(order, ops):
    index = {f"t{i}": order[i] for i in range(N)}
    state = object()
    handed = []

    def rule(got_state, tasks):
        assert got_state is state
        handed.append(list(tasks))
        return None

    selector = ScanSelector(state, index, rule)
    ready = set()
    for push, i in ops:
        task = f"t{i}"
        if push:
            selector.push(task)
            ready.add(task)
        else:
            selector.remove(task)
            ready.discard(task)
        assert len(selector) == len(ready)
        assert selector.select() is None
        assert handed[-1] == sorted(ready, key=index.__getitem__)
