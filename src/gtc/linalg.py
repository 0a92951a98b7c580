"""Exact linear algebra mod p on matrices stored as row tuples.

Sizes 3 and 4, the ones the protocols use, multiply and invert through
straight-line kernels and test invertibility by a closed-form determinant;
every other size, nullspaces and centralizers share one Gauss-Jordan
routine.  The kernels live outside gtc.platforms because
CPython holds a module's whole syntax tree while it compiles the source:
apart, the two trees are never in memory at once.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Optional


def mat_identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _row_reduce(rows, p: int) -> tuple[list, list]:
    """Gauss-Jordan over Z_p: the reduced rows and their pivot columns."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(m[0])):
        row = len(pivots)
        pivot = next((r for r in range(row, len(m)) if m[r][col] % p), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = top = [(v * inv) % p for v in m[row]]
        for r in range(len(m)):
            f = m[r][col]
            if r != row and f:
                m[r] = [(v - f * w) % p for v, w in zip(m[r], top)]
        pivots.append(col)
    return m, pivots


def _mm3(a, b, p):
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        ((a00 * b00 + a01 * b10 + a02 * b20) % p, (a00 * b01 + a01 * b11 + a02 * b21) % p,
         (a00 * b02 + a01 * b12 + a02 * b22) % p),
        ((a10 * b00 + a11 * b10 + a12 * b20) % p, (a10 * b01 + a11 * b11 + a12 * b21) % p,
         (a10 * b02 + a11 * b12 + a12 * b22) % p),
        ((a20 * b00 + a21 * b10 + a22 * b20) % p, (a20 * b01 + a21 * b11 + a22 * b21) % p,
         (a20 * b02 + a21 * b12 + a22 * b22) % p),
    )


def _mm4(a, b, p):
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    (b00, b01, b02, b03), (b10, b11, b12, b13), (b20, b21, b22, b23), (b30, b31, b32, b33) = b
    return (
        ((a00 * b00 + a01 * b10 + a02 * b20 + a03 * b30) % p,
         (a00 * b01 + a01 * b11 + a02 * b21 + a03 * b31) % p,
         (a00 * b02 + a01 * b12 + a02 * b22 + a03 * b32) % p,
         (a00 * b03 + a01 * b13 + a02 * b23 + a03 * b33) % p),
        ((a10 * b00 + a11 * b10 + a12 * b20 + a13 * b30) % p,
         (a10 * b01 + a11 * b11 + a12 * b21 + a13 * b31) % p,
         (a10 * b02 + a11 * b12 + a12 * b22 + a13 * b32) % p,
         (a10 * b03 + a11 * b13 + a12 * b23 + a13 * b33) % p),
        ((a20 * b00 + a21 * b10 + a22 * b20 + a23 * b30) % p,
         (a20 * b01 + a21 * b11 + a22 * b21 + a23 * b31) % p,
         (a20 * b02 + a21 * b12 + a22 * b22 + a23 * b32) % p,
         (a20 * b03 + a21 * b13 + a22 * b23 + a23 * b33) % p),
        ((a30 * b00 + a31 * b10 + a32 * b20 + a33 * b30) % p,
         (a30 * b01 + a31 * b11 + a32 * b21 + a33 * b31) % p,
         (a30 * b02 + a31 * b12 + a32 * b22 + a33 * b32) % p,
         (a30 * b03 + a31 * b13 + a32 * b23 + a33 * b33) % p),
    )


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def _inv3(m, p):
    """Adjugate over the determinant; None if singular."""
    (a, b, c), (d, e, f), (g, h, i) = m
    c0, c1, c2 = e * i - f * h, f * g - d * i, d * h - e * g
    det = (a * c0 + b * c1 + c * c2) % p
    if not det:
        return None
    r = pow(det, -1, p)
    return (
        (c0 * r % p, (c * h - b * i) * r % p, (b * f - c * e) * r % p),
        (c1 * r % p, (a * i - c * g) * r % p, (c * d - a * f) * r % p),
        (c2 * r % p, (b * g - a * h) * r % p, (a * e - b * d) * r % p),
    )


def _laplace4(m):
    """Determinant of a 4x4 matrix by Laplace expansion along rows 0-1, with
    the 2x2 minors s of rows 0-1 and c of rows 2-3 it is built from."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    s = (a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03,
         a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03)
    c = (a20 * a31 - a30 * a21, a20 * a32 - a30 * a22, a20 * a33 - a30 * a23,
         a21 * a32 - a31 * a22, a21 * a33 - a31 * a23, a22 * a33 - a32 * a23)
    det = s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]
    return det, s, c


def _inv4(m, p):
    """Adjugate over the determinant, from _laplace4's minors; None if singular."""
    det, (s0, s1, s2, s3, s4, s5), (c0, c1, c2, c3, c4, c5) = _laplace4(m)
    det %= p
    if not det:
        return None
    r = pow(det, -1, p)
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = m
    return (
        ((a11 * c5 - a12 * c4 + a13 * c3) * r % p, (a02 * c4 - a01 * c5 - a03 * c3) * r % p,
         (a31 * s5 - a32 * s4 + a33 * s3) * r % p, (a22 * s4 - a21 * s5 - a23 * s3) * r % p),
        ((a12 * c2 - a10 * c5 - a13 * c1) * r % p, (a00 * c5 - a02 * c2 + a03 * c1) * r % p,
         (a32 * s2 - a30 * s5 - a33 * s1) * r % p, (a20 * s5 - a22 * s2 + a23 * s1) * r % p),
        ((a10 * c4 - a11 * c2 + a13 * c0) * r % p, (a01 * c2 - a00 * c4 - a03 * c0) * r % p,
         (a30 * s4 - a31 * s2 + a33 * s0) * r % p, (a21 * s2 - a20 * s4 - a23 * s0) * r % p),
        ((a11 * c1 - a10 * c3 - a12 * c0) * r % p, (a00 * c3 - a01 * c1 + a02 * c0) * r % p,
         (a31 * s1 - a30 * s3 - a32 * s0) * r % p, (a20 * s3 - a21 * s1 + a22 * s0) * r % p),
    )


def mat_mul(a: tuple, b: tuple, p: int) -> tuple:
    n = len(a)
    if n == 3:
        return _mm3(a, b, p)
    if n == 4:
        return _mm4(a, b, p)
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, ra, cb)) % p for cb in bt]) for ra in a])


def mat_mul_mod(n: int, p: int) -> Callable:
    """mat_mul of n x n matrices with p bound: the size's kernel, chosen once."""
    kernel = {3: _mm3, 4: _mm4}.get(n, mat_mul)
    return lambda a, b: kernel(a, b, p)


def mat_inv(m: tuple, p: int) -> Optional[tuple]:
    """Inverse mod p; None if singular."""
    n = len(m)
    if n == 3:
        return _inv3(m, p)
    if n == 4:
        return _inv4(m, p)
    reduced, pivots = _row_reduce(
        [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)], p)
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def is_invertible(m: tuple, p: int) -> bool:
    """Whether the square matrix m is invertible mod p, without inverting it."""
    n = len(m)
    if n == 3:
        return _det3(m) % p != 0
    if n == 4:
        return _laplace4(m)[0] % p != 0
    return len(_row_reduce(m, p)[1]) == n


def nullspace_mod_p(rows: list, p: int) -> list:
    """Basis of the right nullspace of a matrix over Z_p."""
    if not rows:
        return []
    n_cols = len(rows[0])
    m, pivots = _row_reduce(rows, p)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-m[r][fc]) % p
        basis.append(tuple(vec))
    return basis


def centralizer_basis(m: tuple, p: int) -> list:
    """The basis nullspace_mod_p gives for Xm - mX = 0: row-major matrices commuting with m.

    If I, m, ..., m^(n-1) are independent they span the centralizer; reduced
    with reversed columns, their rows reversed and read backwards are that
    basis (1 on one free column, 0 on the others).  Otherwise solve the system.
    """
    n = len(m)
    powers = [mat_identity(n)]
    for _ in range(n - 1):
        powers.append(mat_mul(powers[-1], m, p))
    reduced, pivots = _row_reduce([[v for row in q[::-1] for v in row[::-1]] for q in powers], p)
    if len(pivots) == n:
        return [tuple(row[::-1]) for row in reversed(reduced)]
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k2 in range(n):
                for l in range(n):
                    coeff = 0
                    if k2 == i:
                        coeff += m[l][j]
                    if l == j:
                        coeff -= m[i][k2]
                    row[k2 * n + l] = coeff % p
            rows.append(tuple(row))
    return nullspace_mod_p(rows, p)
