"""The mutants of ``mutants.py`` still apply to the sources.

Only the texts are checked here, in milliseconds; ``run_mutants.py`` runs
the tests under each mutant.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_old_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    # a mutant that can be killed names the tests that kill it
    assert bool(mutant.tests) != bool(mutant.equivalent)
