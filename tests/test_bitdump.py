"""``bitdump``'s digest against the one checked in at
``tests/bitdump.sha256``: any change to an output's bits, or to an error's
type or message, fails here. A change that means to alter outputs writes
the new digest into that file and says which records moved and why."""

from pathlib import Path

import bitdump

CHECKED_IN = Path(__file__).with_name("bitdump.sha256")


def test_digest_matches_checked_in():
    hexdigest, _ = bitdump.digest()
    assert hexdigest == CHECKED_IN.read_text().strip()
