"""Property tests of single seeding runs over random generated instances."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seedbounds.core import cost, coverage
from seedbounds.instances import gen_kmeans_bad, gen_kmedian_bad
from seedbounds.seeding import seed

from conftest import assert_ext_rel_close, ext_to_fraction

GENERATORS = {"kmeans": gen_kmeans_bad, "kmedian": gen_kmedian_bad}


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(sorted(GENERATORS)),
       k=st.integers(1, 12),
       m=st.floats(1.0, 1e6),
       r=st.floats(1e-3, 1e3),
       rng_seed=st.integers(0, 2**64 - 1),
       trial_index=st.integers(0, 2**40))
def test_seeding_trace_properties(variant, k, m, r, rng_seed, trial_index):
    inst = GENERATORS[variant](k, m, r)
    tr = seed(inst, rng_seed=rng_seed, trial_index=trial_index)

    # the cost after each pick never increases
    costs = [ext_to_fraction(p) for p in tr.potentials[1:]] + [ext_to_fraction(tr.final_cost)]
    slack = 1 + Fraction(1e-12)
    assert all(b <= a * slack for a, b in zip(costs, costs[1:]))
    # coverage never decreases
    cov = tr.coverage_counts
    assert all(a <= b for a, b in zip(cov, cov[1:]))
    # and counts the distinct clusters of the centers so far
    assert all(cov[j] == len(set(tr.cluster_ids[:j + 1])) for j in range(len(cov)))
    assert coverage(inst, tr.centers)[0] == cov[-1]
    # the trace's final cost is the cost of its centers
    assert_ext_rel_close(tr.final_cost, ext_to_fraction(cost(inst, tr.centers)),
                         Fraction(1e-9))
