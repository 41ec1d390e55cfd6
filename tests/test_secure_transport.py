"""Homomorphic transport: primitives, codec, slot layout, vectors, secure mean."""

import dataclasses
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedfall.secure_transport
from fedfall.errors import ShapeMismatchError
from fedfall.secure_transport import (
    CARRY_BITS,
    EXPONENT_BITS,
    EncryptedVector,
    FixedPointCodec,
    _is_probable_prime,
    add_encrypted,
    decrypt,
    decrypt_vector,
    encrypt,
    encrypt_vector,
    keygen,
    min_modulus_bits,
    secure_mean_demo,
    slot_layout,
)

TEST_KEY_BITS = 256
KEY = keygen(TEST_KEY_BITS, seed=1234)
CODEC = FixedPointCodec(scale_bits=20, clip_range=100.0)
# differs from CODEC only in clip_range
CLIP50 = FixedPointCodec(20, 50.0)


class TestPrimality:
    def test_known_primes(self):
        rng = random.Random(0)
        for p in (2, 3, 5, 101, 7919, 104729, (1 << 61) - 1):
            assert _is_probable_prime(p, rng)

    def test_known_composites(self):
        rng = random.Random(0)
        for c in (1, 4, 561, 1105, 1729, 294409, 3215031751, 7919 * 104729):
            assert not _is_probable_prime(c, rng)


class TestKeygen:
    def test_deterministic(self):
        a = keygen(TEST_KEY_BITS, seed=5)
        b = keygen(TEST_KEY_BITS, seed=5)
        assert a == b
        c = keygen(TEST_KEY_BITS, seed=6)
        assert a.n != c.n

    def test_generator_and_sizes(self):
        # the CRT constants are those of the implicit generator g = n + 1,
        # raised to the subgroup exponents alpha_p and alpha_q
        for key in [KEY] + [keygen(TEST_KEY_BITS, seed=seed) for seed in range(3)]:
            p, q, n = key.p, key.q, key.n
            hp = pow((pow(n + 1, key.alpha_p, p * p) - 1) // p, -1, p)
            hq = pow((pow(n + 1, key.alpha_q, q * q) - 1) // q, -1, q)
            assert key._crt[2:4] == (hp, hq)
        assert KEY.n.bit_length() in (TEST_KEY_BITS - 1, TEST_KEY_BITS)
        assert KEY.p * KEY.q == KEY.n and KEY.p != KEY.q

    def test_min_modulus_bits(self):
        for bits in (128, 129, 256):
            low = min_modulus_bits(bits)
            for seed in range(4):
                assert keygen(bits, seed=seed).n.bit_length() in (low, low + 1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            keygen(64, seed=0)

    def test_zero_round_trip(self):
        rng = random.Random(7)
        assert decrypt(encrypt(0, KEY, rng), KEY) == 0

    def test_random_round_trips(self):
        rng = random.Random(8)
        for _ in range(100):
            m = rng.randrange(0, KEY.n)
            assert decrypt(encrypt(m, KEY, rng), KEY) == m

    def test_negative_residues_wrap(self):
        rng = random.Random(9)
        c = encrypt(-5, KEY, rng)
        assert decrypt(c, KEY) == KEY.n - 5


class TestKeyCache:
    def test_same_arguments_same_key(self):
        assert keygen(TEST_KEY_BITS, 5) is keygen(TEST_KEY_BITS, 5)
        assert keygen(TEST_KEY_BITS, 6) is not keygen(TEST_KEY_BITS, 5)
        assert keygen(TEST_KEY_BITS, 6).n != keygen(TEST_KEY_BITS, 5).n
        assert keygen(TEST_KEY_BITS + 128, 5).n != keygen(TEST_KEY_BITS, 5).n

    def test_bounded(self):
        maxsize = keygen.cache_info().maxsize
        assert maxsize == 8
        for seed in range(maxsize + 3):
            keygen(128, seed=seed)
        assert keygen.cache_info().currsize == maxsize

    def test_prime_search_runs_once_per_key(self, monkeypatch):
        keygen.cache_clear()
        calls = []
        search = fedfall.secure_transport._random_prime

        def counting_search(bits, rng):
            calls.append(bits)
            return search(bits, rng)

        monkeypatch.setattr(fedfall.secure_transport, "_random_prime", counting_search)
        first = keygen(TEST_KEY_BITS, seed=77)
        per_key = len(calls)
        assert per_key >= 2  # alpha_p and alpha_q
        assert keygen(TEST_KEY_BITS, seed=77) is first
        assert len(calls) == per_key
        keygen.cache_clear()
        assert keygen(TEST_KEY_BITS, seed=77) == first
        assert len(calls) == 2 * per_key


class TestSubgroupKeys:
    # alpha has min(160, 5*(bits//2)//16) bits: 160 at 1024 bits, as Paillier suggests
    @pytest.mark.parametrize("bits, alpha_bits", [(128, 20), (129, 20), (256, 40), (1024, 160)])
    def test_structure(self, bits, alpha_bits):
        for seed in range(3 if bits < 1024 else 1):
            key = keygen(bits, seed=seed)
            p, q = key.p, key.q
            assert (p - 1) % key.alpha_p == 0 and (q - 1) % key.alpha_q == 0
            assert key.alpha_p.bit_length() == key.alpha_q.bit_length() == alpha_bits
            assert key.alpha_p != key.alpha_q
            rng = random.Random(seed)
            assert _is_probable_prime(key.alpha_p, rng) and _is_probable_prime(key.alpha_q, rng)
            assert p.bit_length() == q.bit_length() == bits // 2
            assert key.n.bit_length() >= min_modulus_bits(bits)
            # hs lies in the subgroup of order alpha_p * alpha_q, and is not trivial
            assert key.hs != 1
            assert pow(key.hs, key.alpha_p * key.alpha_q, key.n_squared) == 1
            # so an exponent a of EXPONENT_BITS bits spans that subgroup
            assert EXPONENT_BITS >= (key.alpha_p * key.alpha_q).bit_length()


class TestFixedBaseEncryption:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, (1 << EXPONENT_BITS) - 1))
    @example(0)
    @example((1 << EXPONENT_BITS) - 1)
    def test_table_power_equals_pow(self, a):
        assert KEY.hs_power(a) == pow(KEY.hs, a, KEY.n_squared)

    @pytest.mark.parametrize("a", [-1, pytest.param(1 << EXPONENT_BITS, id="above")])
    def test_exponent_out_of_range_rejected(self, a):
        with pytest.raises(ValueError, match="exponent"):
            KEY.hs_power(a)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, KEY.n - 1), st.integers(0, 2**32))
    @example(0, 0)
    @example(KEY.n - 1, 0)
    def test_round_trip(self, m, seed):
        assert decrypt(encrypt(m, KEY, random.Random(seed)), KEY) == m

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32))
    def test_hs_is_an_nth_residue(self, seed):
        # hs^lambda = 1 mod n^2 is what lets decryption ignore the randomness
        key = keygen(128, seed=seed)
        assert pow(key.hs, (key.p - 1) * (key.q - 1), key.n_squared) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, KEY.n - 1), st.integers(0, 2**32), st.integers(2, 2**64), st.integers(2, 2**64))
    def test_encrypt_reads_only_public_material(self, m, seed, p, q):
        other = dataclasses.replace(KEY, p=p, q=q)
        assert encrypt(m, other, random.Random(seed)) == encrypt(m, KEY, random.Random(seed))

    def test_no_exponentiation_by_n(self, monkeypatch):
        # a revert to Paillier's r^n would exponentiate by n for each ciphertext
        key = keygen(512, seed=3)
        exponents = []

        def counting_pow(base, exp, mod=None):
            exponents.append(exp)
            return pow(base, exp, mod)

        monkeypatch.setattr(fedfall.secure_transport, "pow", counting_pow, raising=False)
        vec = np.linspace(-1.0, 1.0, 2 * slot_layout(CODEC, key.n.bit_length()).per + 1)
        enc = encrypt_vector(vec, key, CODEC, random.Random(0))
        assert len(enc.ciphertexts) == 3
        assert all(e.bit_length() < key.n.bit_length() for e in exponents)
        monkeypatch.undo()
        assert np.max(np.abs(decrypt_vector(enc, key, CODEC) - vec)) <= 2.0**-21


class TestCrtDecrypt:
    @pytest.mark.parametrize("bits", [TEST_KEY_BITS, 1024])
    def test_equals_lambda_mu_formula(self, bits):
        # on what the scheme produces: ciphertexts and their products
        # (subgroup decryption does not invert other units of Z*_{n^2})
        key = KEY if bits == TEST_KEY_BITS else keygen(bits, seed=1)
        lam = (key.p - 1) * (key.q - 1)
        mu = pow(lam, -1, key.n)
        rng = random.Random(bits)
        previous = encrypt(rng.randrange(0, key.n), key, rng)
        for i in range(200):
            c = encrypt(rng.randrange(0, key.n), key, rng)
            if i % 2:
                c = c * previous % key.n_squared
            previous = c
            reference = (pow(c, lam, key.n_squared) - 1) // key.n * mu % key.n
            assert decrypt(c, key) == reference

    def test_exponents_are_the_subgroup_orders(self, monkeypatch):
        # a revert to exponents p - 1 and q - 1 would be 3.2x the work at 1024 bits
        key = keygen(512, seed=3)
        rng = random.Random(4)
        cts = [encrypt(m, key, rng) for m in (0, 1, key.n - 1)]
        decrypt(cts[0], key)  # the constants, with their pow(x, -1, p), once
        exponents = []

        def counting_pow(base, exp, mod=None):
            exponents.append(exp)
            return pow(base, exp, mod)

        monkeypatch.setattr(fedfall.secure_transport, "pow", counting_pow, raising=False)
        out = [decrypt(c, key) for c in cts]
        monkeypatch.undo()
        assert out == [0, 1, key.n - 1]
        assert exponents == [key.alpha_p, key.alpha_q] * len(cts)

    def test_out_of_range_rejected(self):
        for c in (-1, KEY.n_squared):
            with pytest.raises(ValueError, match="out of range"):
                decrypt(c, KEY)


class TestHomomorphism:
    def test_scalar_addition(self):
        rng = random.Random(10)
        c = encrypt(3, KEY, rng) * encrypt(4, KEY, rng) % KEY.n_squared
        assert decrypt(c, KEY) == 7

    def test_random_pairs(self):
        rng = random.Random(11)
        for _ in range(25):
            a = rng.randrange(0, 10**9)
            b = rng.randrange(0, 10**9)
            c = encrypt(a, KEY, rng) * encrypt(b, KEY, rng) % KEY.n_squared
            assert decrypt(c, KEY) == a + b


class TestCodec:
    def test_round_trip_error_bound(self):
        codec = FixedPointCodec(scale_bits=20, clip_range=50.0)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-50.0, 50.0, size=10_000)
        bound = 2.0 ** -(20 + 1)
        for x in xs.tolist():
            v, clipped = codec.encode(x)
            assert not clipped
            assert abs(codec.decode(v) - x) <= bound

    def test_zero_exact(self):
        v, clipped = CODEC.encode(0.0)
        assert v == 0 and not clipped
        assert CODEC.decode(0) == 0.0

    def test_clipping_flagged(self):
        v, clipped = CODEC.encode(1e6)
        assert clipped
        assert CODEC.decode(v) == pytest.approx(100.0)
        v, clipped = CODEC.encode(-1e6)
        assert clipped
        assert CODEC.decode(v) == pytest.approx(-100.0)

    def test_representable_values_exact(self):
        # multiples of 2^-20 survive the round trip unchanged
        for x in (1.0, -3.5, 0.25, 99.0 + 1.0 / (1 << 20)):
            v, _ = CODEC.encode(x)
            assert CODEC.decode(v) == x

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointCodec(scale_bits=0, clip_range=100.0)
        with pytest.raises(ValueError):
            FixedPointCodec(scale_bits=20, clip_range=-1.0)
        for clip in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                FixedPointCodec(scale_bits=20, clip_range=clip)
        with pytest.raises(ValueError, match="overflows"):
            FixedPointCodec(scale_bits=20, clip_range=1e308)
        with pytest.raises(ValueError, match="overflows"):
            FixedPointCodec(scale_bits=2000, clip_range=100.0)


def quantized(vec, codec):
    """The per-coordinate codec round trip that the packed transport must equal."""
    return np.array([codec.decode(codec.encode(x)[0]) for x in np.asarray(vec).tolist()])


def edge_vector(length, codec, seed):
    """Random in-range values, with +-clip and +-1e9 (clipped) at the front."""
    c = codec.clip_range
    vec = np.random.default_rng(seed).uniform(-c, c, size=length)
    edges = [c, -c, 1e9, -1e9, np.nextafter(c, 0.0), 0.0]
    vec[: min(length, len(edges))] = edges[:length]
    return vec


NON_DYADIC = FixedPointCodec(scale_bits=20, clip_range=0.3)
PER = slot_layout(CODEC, KEY.n.bit_length()).per


class TestSlotLayout:
    def test_formula(self):
        layout = slot_layout(CODEC, 1024)
        assert layout.offset == CODEC.encode(CODEC.clip_range)[0] == 100 << 20
        assert layout.width == (2 * layout.offset).bit_length() + CARRY_BITS == 36
        assert layout.per == 1023 // 36
        assert -CODEC.encode(-CODEC.clip_range)[0] <= layout.offset
        assert -NON_DYADIC.encode(-NON_DYADIC.clip_range)[0] <= slot_layout(NON_DYADIC, 256).offset

    def test_no_slot_fits_rejected(self):
        # a 146-bit slot cannot sit below a 128-bit modulus; this used to
        # wrap mod n silently and decrypt 50.0 as -0.0346
        key = keygen(128, seed=0)
        codec = FixedPointCodec(scale_bits=130, clip_range=100.0)
        with pytest.raises(ValueError, match="does not fit"):
            slot_layout(codec, key.n.bit_length())
        with pytest.raises(ValueError, match="does not fit"):
            encrypt_vector(np.array([50.0]), key, codec, random.Random(0))

    def test_one_slot_exactly_fits(self):
        # 110 scale bits at clip 100: a 127-bit slot, the most a 128-bit key holds
        key = keygen(128, seed=0)
        codec = FixedPointCodec(scale_bits=110, clip_range=100.0)
        assert slot_layout(codec, key.n.bit_length()).per == 1
        with pytest.raises(ValueError):
            slot_layout(FixedPointCodec(scale_bits=111, clip_range=100.0), key.n.bit_length())
        vec = np.array([100.0, -100.0, 50.0, -1e9])
        enc = encrypt_vector(vec, key, codec, random.Random(1))
        assert len(enc.ciphertexts) == 4
        out = decrypt_vector(enc, key, codec)
        assert out.tobytes() == quantized(vec, codec).tobytes()

    def test_corrupt_plaintext_rejected(self):
        enc = EncryptedVector(
            ciphertexts=(encrypt(KEY.n - 1, KEY, random.Random(2)),),
            modulus=KEY.n,
            codec=CODEC,
            length=1,
        )
        with pytest.raises(ValueError, match="overflows its slots"):
            decrypt_vector(enc, KEY, CODEC)


class TestPackedRoundTrip:
    @pytest.mark.parametrize("codec", [CODEC, NON_DYADIC], ids=["clip100", "clip0.3"])
    def test_equals_per_coordinate_codec(self, codec):
        per = slot_layout(codec, KEY.n.bit_length()).per
        for length in (0, 1, per - 1, per, per + 1, 64):
            vec = edge_vector(length, codec, seed=length)
            enc = encrypt_vector(vec, KEY, codec, random.Random(length))
            assert len(enc) == length
            assert len(enc.ciphertexts) == math.ceil(length / per)
            out = decrypt_vector(enc, KEY, codec)
            assert out.dtype == np.float64 and out.shape == (length,)
            assert out.tobytes() == quantized(vec, codec).tobytes()

    def test_clip_warning_counts_coordinates(self, caplog):
        vec = edge_vector(64, CODEC, seed=3)
        with caplog.at_level(logging.WARNING, logger="fedfall.secure_transport"):
            enc = encrypt_vector(vec, KEY, CODEC, random.Random(4))
        assert enc.clipped_count == 2
        assert "clipped 2 of 64 coordinates" in caplog.text


class TestCarryGuard:
    @pytest.mark.parametrize("codec", [CODEC, NON_DYADIC], ids=["clip100", "clip0.3"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_full_headroom_sums_exactly(self, codec, sign):
        vec = np.full(slot_layout(codec, KEY.n.bit_length()).per + 1, sign * codec.clip_range)
        enc = encrypt_vector(vec, KEY, codec, random.Random(5))
        total = enc
        for _ in range((1 << CARRY_BITS) - 1):
            total = add_encrypted(total, enc)
        assert total.addends == 1 << CARRY_BITS
        code = codec.encode(sign * codec.clip_range)[0]
        expected = codec.decode(code << CARRY_BITS)
        np.testing.assert_array_equal(decrypt_vector(total, KEY, codec), expected)
        with pytest.raises(ValueError, match="carry bits"):
            add_encrypted(total, enc)

    def test_addends_counted_and_validated(self):
        rng = random.Random(6)
        a = encrypt_vector(np.ones(3), KEY, CODEC, rng)
        assert a.addends == 1
        assert add_encrypted(add_encrypted(a, a), a).addends == 3
        with pytest.raises(ValueError, match="carry bits"):
            EncryptedVector(a.ciphertexts, a.modulus, codec=a.codec, length=3, addends=0)

    def test_ciphertext_count_must_match_layout(self):
        a = encrypt_vector(np.ones(PER + 1), KEY, CODEC, random.Random(7))
        assert len(a.ciphertexts) == 2
        for length in (PER, 2 * PER + 1, -1):
            with pytest.raises(ShapeMismatchError):
                EncryptedVector(a.ciphertexts, a.modulus, codec=a.codec, length=length)


class TestVectorOps:
    def test_zero_vector_exact(self):
        rng = random.Random(12)
        enc = encrypt_vector(np.zeros(8), KEY, CODEC, rng)
        out = decrypt_vector(enc, KEY, CODEC)
        np.testing.assert_array_equal(out, 0.0)

    def test_round_trip_error(self):
        rng = random.Random(13)
        vec = np.random.default_rng(1).uniform(-10, 10, size=64)
        enc = encrypt_vector(vec, KEY, CODEC, rng)
        out = decrypt_vector(enc, KEY, CODEC)
        assert np.max(np.abs(out - vec)) <= 2.0**-21
        assert enc.clipped_count == 0

    def test_randomized_ciphertexts(self):
        rng = random.Random(14)
        vec = np.ones(4)
        a = encrypt_vector(vec, KEY, CODEC, rng)
        b = encrypt_vector(vec, KEY, CODEC, rng)
        assert a.ciphertexts != b.ciphertexts
        np.testing.assert_array_equal(
            decrypt_vector(a, KEY, CODEC), decrypt_vector(b, KEY, CODEC)
        )

    def test_clip_counted(self):
        rng = random.Random(15)
        vec = np.array([0.0, 1e9, -1e9, 2.0])
        enc = encrypt_vector(vec, KEY, CODEC, rng)
        assert enc.clipped_count == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected_before_encryption(self, bad, monkeypatch):
        # the codec encodes only finite values; an infinity is not clipped
        def no_encryption(*args):
            raise AssertionError("a ciphertext was made")

        monkeypatch.setattr(fedfall.secure_transport, "encrypt", no_encryption)
        with pytest.raises(ValueError, match="non-finite"):
            encrypt_vector(np.array([0.0, 1.0, 2.0, bad]), KEY, CODEC, random.Random(18))

    def test_wrong_key_rejected(self):
        rng = random.Random(16)
        other = keygen(TEST_KEY_BITS, seed=4321)
        enc = encrypt_vector(np.ones(3), KEY, CODEC, rng)
        with pytest.raises(ValueError):
            decrypt_vector(enc, other, CODEC)

    def test_wrong_codec_rejected(self):
        rng = random.Random(17)
        enc = encrypt_vector(np.ones(3), KEY, CODEC, rng)
        for codec in (FixedPointCodec(scale_bits=16, clip_range=100.0), CLIP50):
            with pytest.raises(ValueError, match="different codec"):
                decrypt_vector(enc, KEY, codec)

    def test_add_five_vectors(self):
        rng = random.Random(18)
        gen = np.random.default_rng(2)
        vecs = [gen.uniform(-5, 5, size=20) for _ in range(5)]
        encs = [encrypt_vector(v, KEY, CODEC, rng) for v in vecs]
        total = encs[0]
        for e in encs[1:]:
            total = add_encrypted(total, e)
        out = decrypt_vector(total, KEY, CODEC)
        np.testing.assert_allclose(out, np.sum(vecs, axis=0), atol=5 * 2.0**-21)

    def test_add_zero_is_identity(self):
        rng = random.Random(19)
        vec = np.array([1.5, -2.25])
        enc = encrypt_vector(vec, KEY, CODEC, rng)
        zero = encrypt_vector(np.zeros(2), KEY, CODEC, rng)
        combined = add_encrypted(enc, zero)
        assert combined.ciphertexts != enc.ciphertexts
        np.testing.assert_array_equal(
            decrypt_vector(combined, KEY, CODEC), decrypt_vector(enc, KEY, CODEC)
        )

    def test_incompatible_adds_rejected(self):
        rng = random.Random(20)
        a = encrypt_vector(np.ones(3), KEY, CODEC, rng)
        b = encrypt_vector(np.ones(4), KEY, CODEC, rng)
        with pytest.raises(Exception):
            add_encrypted(a, b)
        other_key = keygen(TEST_KEY_BITS, seed=999)
        c = encrypt_vector(np.ones(3), other_key, CODEC, rng)
        with pytest.raises(ValueError):
            add_encrypted(a, c)
        d = encrypt_vector(np.ones(3), KEY, CLIP50, rng)
        with pytest.raises(ValueError, match="different codecs"):
            add_encrypted(a, d)


class TestSecureMean:
    def test_matches_plain_mean(self):
        rng = random.Random(21)
        gen = np.random.default_rng(3)
        vecs = [gen.uniform(-10, 10, size=50) for _ in range(5)]
        out = secure_mean_demo(vecs, KEY, CODEC, rng)
        np.testing.assert_allclose(out, np.mean(vecs, axis=0), atol=1e-5)

    def test_single_client_round_trip(self):
        rng = random.Random(22)
        vec = np.random.default_rng(4).uniform(-1, 1, size=10)
        out = secure_mean_demo([vec], KEY, CODEC, rng)
        np.testing.assert_allclose(out, vec, atol=2.0**-21)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            secure_mean_demo([], KEY, CODEC, random.Random(0))

    def test_more_updates_than_carry_bits_hold_rejected(self):
        updates = [np.zeros(2)] * ((1 << CARRY_BITS) + 1)
        with pytest.raises(ValueError, match="one sum holds"):
            secure_mean_demo(updates, KEY, CODEC, random.Random(0))
