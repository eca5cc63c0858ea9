import compare


def test_worse_beyond_the_bound():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    b = [12.6, 12.5, 12.7, 12.4, 12.6]
    assert compare.verdict(a, b, "lower", 0.2) == "worse"
    assert compare.verdict(a, b, "higher", 0.2) == "better"


def test_small_shift_is_within_bound():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    b = [10.4, 10.5, 10.3, 10.45, 10.4]
    assert compare.verdict(a, b, "lower", 0.2) == "within-bound"


def test_clear_gain_needs_separated_samples():
    a = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(a, [8.0, 8.1, 7.9, 8.0, 8.2], "lower", 0.2) == "better"
    # Median improved, but one B run is slower than the fastest A run.
    assert compare.verdict(a, [8.0, 8.1, 7.9, 9.95, 8.2], "lower", 0.2) == "within-bound"


def test_wide_interleaved_samples_are_unresolved_not_unchanged():
    a = [10.0, 14.0, 8.0, 13.0, 9.0]
    b = [11.0, 15.0, 8.5, 12.0, 9.5]
    assert compare.verdict(a, b, "lower", 0.2) == "unresolved"
