"""Reference arithmetic that the benchmark checks outputs against.

Nothing here imports ``gtc``: matrices mod p, permutation products and
free-group words are re-implemented in a few lines each, so a wrong
answer from the package cannot also be the expected answer.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# matrices over Z_p (tuples of row tuples)

def mat_mul(a, b, p):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols) for row in a)


def mat_identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_det(m, p):
    """Determinant by elimination mod p."""
    rows = [list(r) for r in m]
    n = len(rows)
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return det % p


def mat_inv(m, p):
    """Inverse by Gauss-Jordan elimination mod p (m must be invertible)."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_trace(m, p):
    return sum(m[i][i] for i in range(len(m))) % p


def mat_eval(gens, letters, p):
    """Product of gens[i-1] (inverse for -i) over a letter sequence."""
    out = mat_identity(len(gens[0]))
    for letter in letters:
        g = gens[abs(letter) - 1]
        out = mat_mul(out, g if letter > 0 else mat_inv(g, p), p)
    return out


def conjugate_orbit_size(u, gens, max_len, p):
    """Number of distinct x^-1 u x over expressions x of length <= max_len.

    Breadth-first over values, not words: every value first reached at
    depth d is expanded once, which reaches exactly the set of values the
    word enumeration visits.
    """
    steps = []
    for g in gens:
        g_inv = mat_inv(g, p)
        steps += [(g_inv, g), (g, g_inv)]
    seen = {u}
    frontier = [u]
    for _ in range(max_len):
        nxt = []
        for value in frontier:
            for left, right in steps:
                c = mat_mul(mat_mul(left, value, p), right, p)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# permutations: 1-based image tuples, composed left to right

def perm_mul(a, b):
    return tuple(b[i - 1] for i in a)


def perm_inv(a):
    out = [0] * len(a)
    for i, img in enumerate(a, start=1):
        out[img - 1] = i
    return tuple(out)


def perm_eval(images, letters):
    out = tuple(range(1, len(images[0]) + 1))
    for letter in letters:
        g = images[abs(letter) - 1]
        out = perm_mul(out, g if letter > 0 else perm_inv(g))
    return out


# ---------------------------------------------------------------------------
# free-group words as letter tuples

def free_reduce(letters):
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_inv(letters):
    return tuple(-x for x in reversed(letters))


def free_map(images, letters):
    """Substitute images[i-1] for letter i (inverse for -i), reduced."""
    out = []
    for letter in letters:
        img = images[abs(letter) - 1]
        out.extend(img if letter > 0 else free_inv(img))
    return free_reduce(out)


def exponent_sums(letters, rank):
    sums = [0] * rank
    for letter in letters:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)
