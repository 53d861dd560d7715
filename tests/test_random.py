"""Tests for seeded random streams."""

from repro.sim.random import RandomStream, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")


def test_derive_seed_sensitive_to_labels():
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a", "b") != derive_seed(42, "ab")


def test_derive_seed_sensitive_to_root():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_streams_reproducible():
    a = RandomStream(7, "x")
    b = RandomStream(7, "x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_independent():
    a = RandomStream(7, "x")
    b = RandomStream(7, "y")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_randint_in_range():
    stream = RandomStream(1, "t")
    for _ in range(100):
        assert 3 <= stream.randint(3, 9) <= 9


def test_randrange_in_range():
    stream = RandomStream(1, "t")
    for _ in range(100):
        assert 0 <= stream.randrange(5) < 5


def test_expovariate_mean():
    stream = RandomStream(1, "exp")
    samples = [stream.expovariate(100.0) for _ in range(20_000)]
    assert 95 < sum(samples) / len(samples) < 105


def test_expovariate_nonpositive_mean():
    stream = RandomStream(1, "exp")
    assert stream.expovariate(0.0) == 0.0


def test_geometric_run_mean():
    stream = RandomStream(1, "geo")
    samples = [stream.geometric_run(8.0) for _ in range(20_000)]
    mean = sum(samples) / len(samples)
    assert 7.5 < mean < 8.5
    assert min(samples) >= 1


def test_geometric_run_degenerate():
    stream = RandomStream(1, "geo")
    assert stream.geometric_run(1.0) == 1
    assert stream.geometric_run(0.5) == 1
