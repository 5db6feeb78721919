"""The vectorized %.16e kernel: byte identity with Python's own formatting."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from bhe import _format, toric

CHUNK = 1 << 16


def render(x, end="\n"):
    return _format.e16_cells(x, end).tobytes().translate(None, b"\0")


def reference(x, end="\n"):
    return "".join("%.16e%s" % (v, end) for v in x.tolist()).encode()


def assert_identical(x, end="\n", want=None):
    got = render(x, end)
    want = reference(x, end) if want is None else want
    if got != want:
        bad = [
            (v, a, b)
            for v, a, b in zip(x.tolist(), got.split(b"\n"), want.split(b"\n"))
            if a != b
        ]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:3]}")


def edge_values():
    p = np.array([float("1e%d" % k) for k in range(-323, 309)])
    special = [
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
        1.0 + 2.0**-17,
    ]
    return np.concatenate([special, p, -p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def random_bits(count, seed=20261018):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False).view(np.float64)


@pytest.fixture(scope="module")
def bit_sample():
    """2**20 seeded random bit patterns in chunks, each with its reference text."""
    bits = random_bits(1 << 20)
    return [(c, reference(c)) for c in np.split(bits, bits.size // CHUNK)]


@pytest.fixture
def forced_fallback(monkeypatch):
    """Every element fails the fast-path test, through an infinite slack."""
    t = _format._tables()
    if t.slack is None:
        pytest.skip("longdouble has no fast path here")
    slow = dataclasses.replace(t, slack=np.full_like(t.slack, np.inf))
    monkeypatch.setattr(_format, "_tables", lambda: slow)


def test_edge_values():
    assert_identical(edge_values())


@pytest.mark.parametrize("end", [",", "\n", "abc"])
def test_separators(end):
    assert_identical(np.array([1.5, -0.0, np.nan, 1e-100, -1e300]), end)


def test_random_bit_patterns(bit_sample):
    for bits, want in bit_sample:
        assert_identical(bits, want=want)


def test_forced_fallback(forced_fallback, bit_sample):
    fast, _, _ = _format._decimal(edge_values(), _format._tables())
    assert not fast.any()
    assert_identical(edge_values())
    for bits, want in bit_sample:
        assert_identical(bits, want=want)


def test_no_fast_path(monkeypatch):
    t = dataclasses.replace(_format._tables(), slack=None)
    monkeypatch.setattr(_format, "_tables", lambda: t)
    assert not _format._decimal(edge_values(), t)[0].any()
    assert_identical(np.concatenate([edge_values(), random_bits(CHUNK)]))


def test_powers_of_ten_correctly_rounded():
    # The slack argument assumes each table entry is within half an ulp.
    t = _format._tables()
    if t.slack is None:
        pytest.skip("longdouble has no fast path here")
    half_ulp = Fraction(1, 2 ** (np.finfo(np.longdouble).nmant + 1))
    for e, p in zip(range(_format._E_MIN, _format._E_MAX + 1), t.pow10):
        exact = Fraction(10) ** (16 - e)
        assert abs(Fraction(*p.as_integer_ratio()) - exact) <= half_ulp * exact, e


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63, reason="longdouble too narrow for the fast path"
)
def test_residual_field_mostly_fast():
    f = toric.SphereProfile.round_perturbed(2.0, 256, 0.01)
    field = toric.pde_residual(toric.ProductSurface(f, f, 0.5))
    fast, _, _ = _format._decimal(field.E.ravel(), _format._tables())
    assert fast.mean() >= 0.95
