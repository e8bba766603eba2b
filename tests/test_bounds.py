from seedbounds import bounds
from seedbounds.urn import biased_distinct_colors_dp, distinct_colors_exact, tail_probability


def test_high_coverage_bound_crossover():
    # the bound first says something (drops below 1) at k = 1939
    assert bounds.high_coverage_bound(1938) >= 1.0 > bounds.high_coverage_bound(1939)
    assert bounds.is_vacuous(bounds.high_coverage_bound(1938))
    assert not bounds.is_vacuous(bounds.high_coverage_bound(1939))


def test_urn_bounds_hold_against_the_exact_tails():
    # at k = 1 the biased bound is the trivial 1.0: the exact tail is 1 there
    for k in (*range(1, 129), 256, 512, 1024):
        tail = tail_probability(distinct_colors_exact(k), 7 / 8)
        assert tail <= bounds.uniform_tail_bound(k), k
        for gamma in (1.0, 2.0, 5.0):
            tail = tail_probability(biased_distinct_colors_dp(k, gamma), 0.99)
            assert tail <= bounds.biased_tail_bound(k), (k, gamma)
