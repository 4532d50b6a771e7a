"""Tests for the deterministic RNG utilities."""

import random

import pytest

from repro.rng import child_rng, derive_seed, stable_fraction, stable_hash, token_hex


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_path_sensitivity(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_64_bit_range(self):
        for seed in (0, 1, 2**63, 2**64 - 1):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**64

    def test_mixed_label_types(self):
        assert derive_seed(1, "site", 42) == derive_seed(1, "site", "42")


class TestChildRng:
    def test_independent_streams(self):
        a = [child_rng(1, "a").random() for _ in range(5)]
        b = [child_rng(1, "b").random() for _ in range(5)]
        assert a != b

    def test_returns_random_instance(self):
        assert isinstance(child_rng(1, "x"), random.Random)


class TestStableHash:
    def test_process_independent_known_value(self):
        # Pinned: regressions here would silently change every generated web.
        assert stable_hash("example") == 1235904663938521941
        assert derive_seed(2023, "visit", "https://example.com/", "Sim1", 7) == 2052367905976749443
        assert child_rng(2023, "include", "slot-1").random() == 0.6251599616254064
        assert token_hex(random.Random(5)) == "8b0e7153bf7c3706"
        assert stable_hash("a") != stable_hash("b")

    def test_fraction_range(self):
        for text in ("", "a", "hello world", "x" * 1000):
            assert 0.0 <= stable_fraction(text) < 1.0

    def test_fraction_of_largest_hash_below_one(self, monkeypatch):
        # Regression: dividing all 64 bits rounded the top hashes to 1.0.
        monkeypatch.setattr("repro.rng.stable_hash", lambda text: 2**64 - 1)
        assert stable_fraction("x") == 1.0 - 2.0**-53


class TestTokenHex:
    def test_length(self):
        rng = random.Random(1)
        assert len(token_hex(rng, 8)) == 16
        assert len(token_hex(rng, 3)) == 6

    def test_hex_alphabet(self):
        rng = random.Random(2)
        token = token_hex(rng, 16)
        assert all(c in "0123456789abcdef" for c in token)

    def test_deterministic_given_rng(self):
        assert token_hex(random.Random(5)) == token_hex(random.Random(5))

    def test_same_draws_as_choice_per_digit(self):
        def reference(rng, nbytes):
            return "".join(rng.choice("0123456789abcdef") for _ in range(nbytes * 2))

        for seed in range(1000):
            for nbytes in range(1, 17):
                fast, slow = random.Random(seed), random.Random(seed)
                assert token_hex(fast, nbytes) == reference(slow, nbytes)
                assert fast.getstate() == slow.getstate()

    def test_rejects_non_positive_nbytes(self):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="nbytes must be >= 1"):
            token_hex(rng, 0)
        with pytest.raises(ValueError, match="nbytes must be >= 1"):
            token_hex(rng, -4)
