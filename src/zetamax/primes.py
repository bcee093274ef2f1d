"""Small prime utilities: sieve, primality test, factorization."""

from __future__ import annotations

import math


def sieve_primes(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    n = int(n)
    bs = bytearray(b"\x01") * (n + 1)
    bs[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if bs[p]:
            start = p * p
            bs[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(bs) if v]


def is_prime(n: int) -> bool:
    """Trial-division primality test; intended for n <= ~1e14."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out

