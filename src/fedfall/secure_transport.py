"""Additively homomorphic transport for model updates.

Clients quantize their parameter vectors to fixed point, pack many
coordinates into each plaintext, encrypt it under a Paillier-style public
key, and ship ciphertexts; the server can sum ciphertexts without
decrypting and only ever decrypts the aggregate (for an equal-weight
mean), or decrypt individual updates first when the aggregation rule needs
sorting (trimming cannot run on ciphertexts under a purely additive
scheme).

The scheme is the n+1-generator construction: n = p*q, and the generator
g = n + 1 is implicit, so no key stores it: encryption uses
(n+1)^m = 1 + m*n mod n^2. Additive homomorphism is ciphertext
multiplication mod n^2.

Keys use Paillier's subgroup variant (EUROCRYPT 1999, section 6): each
prime is p = 2*alpha_p*k_p + 1 with a prime alpha_p of ALPHA_BITS bits
(160 at a 1024-bit n, scaled down for smaller keys), and likewise q. The
public encryption base hs = (y^n mod n^2)^(4*k_p*k_q) mod n^2 is an n-th
residue whose order divides alpha_p*alpha_q. ``decrypt`` therefore
exponentiates by alpha_p mod p^2 and by alpha_q mod q^2, which removes hs
exactly as lambda does but with 160-bit exponents instead of 511-bit ones,
and recombines the two halves mod n by the Chinese remainder theorem with
constants computed once per key. With g = n + 1,
L_p(g^alpha_p mod p^2) = alpha_p*q mod p, with L_p(x) = (x-1)/p, so the
constant hp is (alpha_p*q)^-1 mod p, and hq is (alpha_q*p)^-1 mod q.
Decryption inverts only ciphertexts the scheme produces and their
products: a unit of Z*_{n^2} outside that subgroup does not decrypt to
its lambda-mu plaintext, by design.

Encryption follows the short-exponent variant of Damgard, Jurik and
Nielsen (Int. J. Inf. Secur. 2010): c = (1 + m*n) * hs^a mod n^2 for a
fresh EXPONENT_BITS-bit (320-bit) exponent a, which spans the
alpha_p*alpha_q subgroup hs generates. hs^a comes from a table of
hs^(d * 32^i), one row per 5-bit window i of a and one column per digit d,
built once per key from public material: at most 64 multiplications mod
n^2 per ciphertext instead of an exponentiation by n itself.

Key generation is deterministic in (bits, seed), and ``keygen`` keeps the
last few keys per process, so every run at one seed shares one prime
search and one encryption table.

Slot layout (after BatchCrypt, Zhang et al., USENIX ATC 2020). A codec
integer m lies in [-offset, offset], where offset is the code of
+clip_range; the slot holds u = m + offset >= 0. Each slot is
(2*offset).bit_length() + CARRY_BITS bits wide, so up to 2**CARRY_BITS
encrypted vectors can be summed before a slot could carry into the next.
One plaintext holds (n.bit_length() - 1) // width slots, coordinate 0 in
the lowest bits, so it stays below n and never wraps; the last plaintext
of a vector may hold fewer. Decryption unpacks the slots and subtracts
addends * offset, which gives back exactly the sum of the codes.

Key sizes here are deliberately small (1024 bits by default in the
config) and the primality test is probabilistic; nothing in this module is
claimed production-secure. Beyond Paillier's decisional composite
residuosity, the scheme rests on two more assumptions: that n stays hard
to factor when p-1 and q-1 have known-size prime factors alpha_p and
alpha_q (Paillier suggests 160 bits each for a 1024-bit n), and that hs^a
for a random 320-bit a cannot be told from a uniformly random element of
the subgroup hs generates. The module exists to demonstrate that the
transport layer is semantically transparent to aggregation up to
quantization error.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from fedfall.errors import ShapeMismatchError

logger = logging.getLogger(__name__)

# 40 rounds of the probabilistic primality test bound the error per prime
# by 4^-40 = 2^-80, comfortably past the 2^-64 requirement.
MILLER_RABIN_ROUNDS = 40

# Headroom bits above each slot's largest code: room for sums of up to
# 2**CARRY_BITS encrypted vectors.
CARRY_BITS = 8

# Bits of the prime alpha dividing p - 1 (and q - 1) at a 1024-bit key,
# the size Paillier suggests; smaller keys scale it down.
ALPHA_BITS = 160

# Bits of the encryption exponent a, twice ALPHA_BITS so that a spans the
# alpha_p*alpha_q subgroup; read from the fixed-base table in
# WINDOW_BITS-bit windows.
EXPONENT_BITS = 2 * ALPHA_BITS
WINDOW_BITS = 5


def _odd_prime_product(limit: int) -> int:
    """The product of the odd primes below ``limit``, by Eratosthenes' sieve."""
    prime = bytearray([1]) * limit
    for k in range(3, math.isqrt(limit) + 1, 2):
        if prime[k]:
            prime[k * k :: 2 * k] = bytes(len(range(k * k, limit, 2 * k)))
    return math.prod(k for k in range(3, limit, 2) if prime[k])


# One gcd with this product stands for trial division of a prime candidate
# by every odd prime below 4096.
_SIEVE = _odd_prime_product(4096)


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """A probable prime of ``bits`` bits; ``bits`` > 12, so no sieve prime
    is itself a candidate."""
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if math.gcd(cand, _SIEVE) == 1 and _is_probable_prime(cand, rng):
            return cand


def _subgroup_prime(bits: int, alpha: int, rng: random.Random) -> int:
    """A probable prime p = 2*alpha*k + 1 of exactly ``bits`` bits."""
    step = 2 * alpha
    low = -(-((1 << (bits - 1)) - 1) // step)  # least k with p >= 2^(bits-1)
    high = ((1 << bits) - 2) // step  # greatest k with p < 2^bits
    while True:
        cand = step * rng.randrange(low, high + 1) + 1
        if math.gcd(cand, _SIEVE) == 1 and _is_probable_prime(cand, rng):
            return cand


@dataclass(frozen=True)
class HeKeyPair:
    """Public modulus and encryption base plus the private primes and the
    primes alpha_p | p - 1 and alpha_q | q - 1 that bound the order of hs."""

    n: int
    hs: int
    p: int
    q: int
    alpha_p: int
    alpha_q: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @cached_property
    def _hs_table(self) -> tuple[tuple[int, ...], ...]:
        """hs^(d * 32^i) mod n^2 at [i][d], one row per window of the exponent."""
        n2 = self.n_squared
        rows = []
        base = self.hs
        for _ in range(EXPONENT_BITS // WINDOW_BITS):
            row = [1, base]
            for _ in range(2, 1 << WINDOW_BITS):
                row.append(row[-1] * base % n2)
            rows.append(tuple(row))
            base = row[-1] * base % n2
        return tuple(rows)

    def hs_power(self, a: int) -> int:
        """hs^a mod n^2 for 0 <= a < 2^EXPONENT_BITS, one product per window."""
        if not 0 <= a < 1 << EXPONENT_BITS:
            raise ValueError(f"exponent outside [0, 2^{EXPONENT_BITS})")
        n2 = self.n_squared
        mask = (1 << WINDOW_BITS) - 1
        acc = 1
        for row in self._hs_table:
            digit = a & mask
            if digit:
                acc = acc * row[digit] % n2
            a >>= WINDOW_BITS
        return acc

    @cached_property
    def _crt(self) -> tuple[int, int, int, int, int]:
        """p^2, q^2, hp, hq and p^-1 mod q, the constants of CRT decryption."""
        p, q = self.p, self.q
        hp = pow(self.alpha_p * q, -1, p)
        hq = pow(self.alpha_q * p, -1, q)
        return p * p, q * q, hp, hq, pow(p, -1, q)


@lru_cache(maxsize=8)
def keygen(bits: int, seed: int) -> HeKeyPair:
    """Deterministic key generation from a seed, kept per process.

    ``bits`` is the size of the modulus n; each prime gets bits//2 bits and
    a prime alpha of min(ALPHA_BITS, 5*(bits//2)//16) bits dividing p - 1
    (q - 1). The last eight keys are kept, so a repeated (bits, seed)
    returns the same key, with the tables it has already built.
    """
    if bits < 128:
        raise ValueError(f"key size must be at least 128 bits, got {bits}")
    rng = random.Random(seed)
    half = bits // 2
    alpha_bits = min(ALPHA_BITS, 5 * half // 16)
    alpha_p = _random_prime(alpha_bits, rng)
    alpha_q = _random_prime(alpha_bits, rng)
    while alpha_q == alpha_p:
        alpha_q = _random_prime(alpha_bits, rng)
    p = _subgroup_prime(half, alpha_p, rng)
    q = _subgroup_prime(half, alpha_q, rng)
    while q == p:
        q = _subgroup_prime(half, alpha_q, rng)
    n = p * q
    while True:
        y = rng.randrange(1, n)
        if math.gcd(y, n) == 1:
            break
    # (y^n)^(4*k_p*k_q) with p - 1 = 2*alpha_p*k_p: the order divides alpha_p*alpha_q
    k_pq = (p - 1) // (2 * alpha_p) * ((q - 1) // (2 * alpha_q))
    hs = pow(pow(y, n, n * n), 4 * k_pq, n * n)
    return HeKeyPair(n=n, hs=hs, p=p, q=q, alpha_p=alpha_p, alpha_q=alpha_q)


def min_modulus_bits(bits: int) -> int:
    """The smallest n.bit_length() of a ``keygen(bits)`` key: two primes of
    bits//2 bits each, top bits set, multiply to at least 2^(2*(bits//2) - 2)."""
    return 2 * (bits // 2) - 1


def encrypt(m: int, key: HeKeyPair, rng: random.Random) -> int:
    """Encrypt one plaintext residue mod n, reading only the public n and hs."""
    m %= key.n
    # (n+1)^m = 1 + m*n (mod n^2), so the generator power needs no pow()
    return (1 + m * key.n) * key.hs_power(rng.getrandbits(EXPONENT_BITS)) % key.n_squared


def decrypt(c: int, key: HeKeyPair) -> int:
    """Decrypt to the plaintext residue in [0, n): exponents alpha_p mod p^2
    and alpha_q mod q^2 remove hs^a, and CRT joins the halves."""
    if not 0 <= c < key.n_squared:
        raise ValueError("ciphertext out of range")
    p, q = key.p, key.q
    p2, q2, hp, hq, p_inv = key._crt
    mp = (pow(c, key.alpha_p, p2) - 1) // p * hp % p
    mq = (pow(c, key.alpha_q, q2) - 1) // q * hq % q
    return mp + (mq - mp) * p_inv % q * p


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to integers at 2^scale_bits resolution within +-clip_range.

    Round-trip error within range is at most 2^-(scale_bits+1).
    """

    scale_bits: int
    clip_range: float

    def __post_init__(self):
        if self.scale_bits < 1 or not 0 < self.clip_range < math.inf:
            raise ValueError("scale_bits must be >= 1 and clip_range positive and finite")
        try:
            self.encode(self.clip_range)
        except OverflowError:
            raise ValueError(
                f"clip_range {self.clip_range:g} at 2^{self.scale_bits} overflows a float"
            ) from None

    @property
    def scale(self) -> int:
        return 1 << self.scale_bits

    def encode(self, x: float) -> tuple[int, bool]:
        clipped = x > self.clip_range or x < -self.clip_range
        x = min(max(x, -self.clip_range), self.clip_range)
        # floor(x + 0.5) rounds halves up, so the code of -clip_range is never
        # further from 0 than the code of +clip_range, the slot offset
        return int(math.floor(x * self.scale + 0.5)), clipped

    def decode(self, v: int) -> float:
        return v / self.scale


class SlotLayout(NamedTuple):
    """Where a codec's integers sit in one plaintext (see the module docstring)."""

    offset: int  # code of +clip_range; slot value = code + offset
    width: int  # bits per slot, CARRY_BITS of them headroom
    per: int  # slots per plaintext

    def ciphertext_count(self, length: int) -> int:
        return -(-length // self.per)

    def pack(self, slots: list[int]) -> int:
        plaintext = 0
        for u in reversed(slots):
            plaintext = plaintext << self.width | u
        return plaintext

    def unpack(self, plaintext: int) -> list[int]:
        if plaintext >> (self.per * self.width):
            raise ValueError("plaintext overflows its slots; the ciphertext is corrupt")
        mask = (1 << self.width) - 1
        return [plaintext >> (k * self.width) & mask for k in range(self.per)]


def slot_layout(codec: FixedPointCodec, modulus_bits: int) -> SlotLayout:
    """The layout of ``codec``'s slots under a modulus of ``modulus_bits`` bits.

    Raises ValueError when not even one slot, carry bits included, fits
    below the modulus: the codes would wrap mod n and decrypt to garbage.
    """
    offset = codec.encode(codec.clip_range)[0]
    width = (2 * offset).bit_length() + CARRY_BITS
    per = (modulus_bits - 1) // width
    if per < 1:
        raise ValueError(
            f"a {width}-bit slot (scale_bits={codec.scale_bits}, clip_range={codec.clip_range:g}, "
            f"{CARRY_BITS} carry bits) does not fit below a {modulus_bits}-bit modulus"
        )
    return SlotLayout(offset=offset, width=width, per=per)


@dataclass(frozen=True)
class EncryptedVector:
    """Packed ciphertexts plus enough metadata to unpack them and refuse mixing.

    ``modulus`` is the public n, carried so ciphertext addition can run
    without the private key. ``codec`` encoded the coordinates and, with
    the modulus, fixes the slot layout. ``length`` is the coordinate
    count, which ``len()`` reports; ``addends`` is how many encrypted
    vectors were summed into this one.
    """

    ciphertexts: tuple[int, ...]
    modulus: int
    codec: FixedPointCodec
    length: int
    clipped_count: int = 0
    addends: int = 1

    def __post_init__(self):
        if not 1 <= self.addends <= 1 << CARRY_BITS:
            raise ValueError(
                f"{self.addends} addends: a slot's {CARRY_BITS} carry bits hold sums "
                f"of 1 to {1 << CARRY_BITS} vectors"
            )
        if self.length < 0:
            raise ShapeMismatchError(f"negative length {self.length}")
        expected = self.layout.ciphertext_count(self.length)
        if len(self.ciphertexts) != expected:
            raise ShapeMismatchError(
                f"{len(self.ciphertexts)} ciphertexts for {self.length} coordinates; "
                f"the slot layout needs {expected}"
            )

    @property
    def layout(self) -> SlotLayout:
        return slot_layout(self.codec, self.modulus.bit_length())

    def __len__(self) -> int:
        return self.length

    def _compatible(self, other: "EncryptedVector") -> None:
        if self.modulus != other.modulus:
            raise ValueError("ciphertexts under different keys cannot be combined")
        if self.codec != other.codec:
            raise ValueError("ciphertexts under different codecs cannot be combined")
        if len(self) != len(other):
            raise ShapeMismatchError(f"length mismatch: {len(self)} vs {len(other)}")


def encrypt_vector(
    params: np.ndarray,
    key: HeKeyPair,
    codec: FixedPointCodec,
    rng: random.Random,
) -> EncryptedVector:
    """Quantize a flat parameter vector, pack it into slots and encrypt it.

    The codec encodes only finite values: NaN or an infinity raises
    ValueError before anything is encrypted. Finite out-of-range
    coordinates are clipped; the count is carried on the result and
    logged. Raises ValueError when one slot of ``codec`` does not fit below
    the key's modulus.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ShapeMismatchError(f"expected a flat vector, got shape {params.shape}")
    if not np.all(np.isfinite(params)):
        raise ValueError("vector contains non-finite values, which the codec cannot encode")
    layout = slot_layout(codec, key.n.bit_length())
    slots = []
    clipped = 0
    for x in params.tolist():
        m, was_clipped = codec.encode(x)
        clipped += was_clipped
        slots.append(m + layout.offset)
    if clipped:
        logger.warning("clipped %d of %d coordinates to +-%g", clipped, len(slots), codec.clip_range)
    cts = tuple(
        encrypt(layout.pack(slots[i : i + layout.per]), key, rng)
        for i in range(0, len(slots), layout.per)
    )
    return EncryptedVector(
        ciphertexts=cts,
        modulus=key.n,
        codec=codec,
        length=len(slots),
        clipped_count=clipped,
    )


def decrypt_vector(enc: EncryptedVector, key: HeKeyPair, codec: FixedPointCodec) -> np.ndarray:
    """Decrypt and unpack; each coordinate decodes the sum of its addends' codes."""
    if enc.modulus != key.n:
        raise ValueError("vector was encrypted under a different key")
    if enc.codec != codec:
        raise ValueError("vector was encoded under a different codec")
    layout = enc.layout
    shift = enc.addends * layout.offset
    slots = []
    for c in enc.ciphertexts:
        slots.extend(layout.unpack(decrypt(c, key)))
    return np.array([codec.decode(u - shift) for u in slots[: len(enc)]], dtype=np.float64)


def add_encrypted(a: EncryptedVector, b: EncryptedVector) -> EncryptedVector:
    """Coordinate-wise ciphertext combination; decrypts to the plaintext sum.

    Runs entirely on public material (ciphertext product mod n^2). Raises
    ValueError when the sum would hold more than 2**CARRY_BITS addends,
    the most a slot's carry bits can take.
    """
    a._compatible(b)
    n2 = a.modulus * a.modulus
    cts = tuple(x * y % n2 for x, y in zip(a.ciphertexts, b.ciphertexts))
    return EncryptedVector(
        ciphertexts=cts,
        modulus=a.modulus,
        codec=a.codec,
        length=a.length,
        clipped_count=a.clipped_count + b.clipped_count,
        addends=a.addends + b.addends,
    )


def secure_mean_demo(
    updates: list[np.ndarray],
    key: HeKeyPair,
    codec: FixedPointCodec,
    rng: random.Random,
) -> np.ndarray:
    """Equal-weight mean computed on ciphertexts, decrypted once.

    Each client encrypts its vector; the server multiplies ciphertexts
    coordinate-wise (plaintext addition), decrypts the single aggregate,
    and divides by the client count. Only the aggregate ever leaves the
    encrypted domain. Sorting-based rules cannot run in this domain: a
    robust trimming step requires the server to decrypt individual updates
    first, which is the decrypt-then-aggregate variant the round loop uses.
    At most 2**CARRY_BITS updates fit one sum; more are rejected before any
    encryption.
    """
    if not 1 <= len(updates) <= 1 << CARRY_BITS:
        raise ValueError(f"{len(updates)} updates; one sum holds 1 to {1 << CARRY_BITS}")
    encrypted = [encrypt_vector(u, key, codec, rng) for u in updates]
    total = encrypted[0]
    for e in encrypted[1:]:
        total = add_encrypted(total, e)
    summed = decrypt_vector(total, key, codec)
    return summed / len(updates)
