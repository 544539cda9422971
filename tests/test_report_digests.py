"""Round 0 of each benchmark workload emits the same report bytes.

The digest is the benchmark worker's `report_sha256`: the SHA-256 of the
reports of round 0 at one seed, in order, each run and emitted by
`perfbench.worker.Runner`.  The families-scan workload, whose eight scans
a round run through the pruned lattice kernel, is also pinned at rounds 0
and 1 of a second seed.  A change that alters report bytes on purpose
updates the digest here and names the change in CHANGES.md.
"""

import hashlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.scenarios import generate_round  # noqa: E402
from perfbench.worker import Runner  # noqa: E402
from warpcurv import cli, errors  # noqa: E402

SEED = 11
DIGESTS = {
    "oracle-sweep": "6972185262119458338e789bec18da0b170d5b6251e908db60f21b5944b7d1ca",
    "grid-residuals": "d98804e087e9c76652867e777667e8d04505237f63b59f59fa9b26539bdf40dd",
    "families-scan": "c394148717d54cb653d26417ff3c1dea4a98ed562af287a98ac9020336cb7aaa",
}
# families-scan at seed 23, by round
SCAN_SEED = 23
SCAN_DIGESTS = {
    0: "a765169d16d1d7014312042415febeb7328d0ebb6f46ae6a14b6517197518845",
    1: "b03ffe0119045fd1d6978a67721fb28e9ca4bb2fa27fc7c6310bde3e79e10731",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_round_zero_reports_keep_their_bytes(workload):
    runner = Runner(cli, errors)
    digest = hashlib.sha256()
    for sc in generate_round(workload, SEED, 0, ROOT):
        digest.update(runner.run(sc)[1])
    assert runner.failed == 0, runner.problems
    assert digest.hexdigest() == DIGESTS[workload]


@pytest.mark.parametrize("rnd", sorted(SCAN_DIGESTS))
def test_scan_rounds_keep_their_bytes_at_a_second_seed(rnd):
    runner = Runner(cli, errors)
    digest = hashlib.sha256()
    for sc in generate_round("families-scan", SCAN_SEED, rnd, ROOT):
        digest.update(runner.run(sc)[1])
    assert runner.failed == 0, runner.problems
    assert digest.hexdigest() == SCAN_DIGESTS[rnd]
