"""test_rank3's structure, join, chain-map, symmetry and identity tests, run
on x1 | x2 ... x6 with the ladder's matching (dim 64).

That diagram has no closed component (`closed_components` 0); the rank-3
ladder has one.  The tests are imported from test_rank3 as they are, so
pytest collects them here too, and the module's own `am3` replaces the
ladder's for them and for the `r3_file` they read.
"""

import pytest

from diagrams import ladder
from strandjoin.strands import enumerate_basis
from test_rank3 import (  # noqa: F401
    r3_file,
    test_alg_as_aa_validates_at_rank3,
    test_check_structures_and_join_pass_at_rank3,
    test_join_at_rank3_is_a_chain_map,
    test_join_identity_and_hand_walker_at_rank3,
    test_join_identity_on_every_cap_and_candidate_at_rank3,
    test_join_symmetry_and_mirror_oracle_at_rank3,
    test_join_symmetry_on_128_triples_at_rank3,
    test_pair_bimodules_validate_at_rank3,
    test_standard_bimodules_validate_at_rank3,
    test_three_joins_at_rank3,
)


@pytest.fixture(scope="module")
def am3():
    am = enumerate_basis(ladder(3, split=True))
    assert am.dim == 64
    return am
