"""Dense integer polynomials: the one kernel of the exact polynomial algebra.
A polynomial over Z is a sequence of ints, ascending; one over Z[i] is a pair
(re, im) of such sequences, so each operation reduces to integer
convolutions; a form in (X, t) is a sequence, indexed by the power of t, of
polynomials in X over Z[i].  Results are new lists, no argument is mutated,
and trailing zeros may appear anywhere.
"""

from __future__ import annotations

from itertools import zip_longest

ZERO = ((), ())  # the zero of Z[i][X]


def add(a, b) -> list[int]:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def sub(a, b) -> list[int]:
    return [x - y for x, y in zip_longest(a, b, fillvalue=0)]


def scale(c: int, a) -> list[int]:
    return [c * x for x in a]


def pad(a, n: int) -> list[int]:
    """a with zeros appended up to length n."""
    return list(a) + [0] * (n - len(a))


def mul(a, b) -> list[int]:
    """The product, by one convolution."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def deriv(a) -> list[int]:
    return [k * c for k, c in enumerate(a)][1:]


# ---------------------------------------------------------------------------
# over Z[i]


def gadd(f, g):
    return add(f[0], g[0]), add(f[1], g[1])


def gsub(f, g):
    return sub(f[0], g[0]), sub(f[1], g[1])


def gmul(f, g):
    """The product by three integer convolutions, (a + bi)(c + di) =
    ac - bd + ((a + b)(c + d) - ac - bd)i."""
    (a, b), (c, d) = f, g
    ac, bd = mul(a, c), mul(b, d)
    return sub(ac, bd), sub(sub(mul(add(a, b), add(c, d)), ac), bd)


def gscale(c: int, f):
    return scale(c, f[0]), scale(c, f[1])


def homogenise(n, P, Q):
    """sum_k n_k P^k Q^(d-k) with d = len(n) - 1, for integers n_k and P, Q
    over Z[i] (the chi-star of n at (P, Q)), by homogeneous Horner."""
    acc, qk = ([n[-1]], []), ([1], [])
    for nk in reversed(n[:-1]):
        qk = gmul(qk, Q)
        acc = gadd(gmul(acc, P), gscale(nk, qk))
    return acc


# ---------------------------------------------------------------------------
# forms in (X, t)


def fadd(F, G) -> list:
    return [gadd(f, g) for f, g in zip_longest(F, G, fillvalue=ZERO)]


def fmul(F, G) -> list:
    out = [ZERO] * (len(F) + len(G) - 1)
    for e, f in enumerate(F):
        for k, g in enumerate(G, e):
            out[k] = gadd(out[k], gmul(f, g))
    return out


def same(F, G) -> bool:
    """F = G as forms, trailing zeros aside; same(F, ()) tests F = 0."""
    return not any(c for f, g in zip_longest(F, G, fillvalue=ZERO)
                   for part in gsub(f, g) for c in part)
