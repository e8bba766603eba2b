from seedbounds import bounds


def test_high_coverage_bound_crossover():
    # the bound first says something (drops below 1) at k = 1939
    assert bounds.high_coverage_bound(1938) >= 1.0 > bounds.high_coverage_bound(1939)
    assert bounds.is_vacuous(bounds.high_coverage_bound(1938))
    assert not bounds.is_vacuous(bounds.high_coverage_bound(1939))
