"""Differential test: the segment executor against the per-slice oracle.

``oracle/slice_oracle.json`` was recorded by ``oracle/gen_slice_oracle.py``
on the executor that ran one heap event per slice per hop.  Every cell —
the fault matrix, the corruption matrix, multi-chunk self-heal, the
detector early abort, 400 chaos schedules, the orchestrated-chaos seeds
and the benchmark's recover-fine / recover-coarse scenarios — is
replayed here and must produce the same record: outcomes, rebuilt-byte
digests, per-node wire accounting, the transfer-span digest and the
counters.  Integers, strings and digests compare exactly; floats within
``REL_TOL`` (relative), though bit-identical is what the executor gives.
"""

import json

import pytest

from .oracle.gen_slice_oracle import FIXTURE, all_cells, differences, normalise

CELLS = all_cells()
EXPECTED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell():
    assert sorted(EXPECTED) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_oracle(name):
    diff = differences(EXPECTED[name], normalise(CELLS[name]()))
    assert not diff, "\n".join(diff[:20])
