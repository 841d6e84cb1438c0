"""A reference Smith form over the local ring at p, shared by the tests.

It eliminates over Fraction and keeps U, V and the columns of U^-1 as it
goes, so it shares no code with ``linalg.p_local_snf``, which never forms U.
"""

from fractions import Fraction

from padicforms.arith import valuation


def fraction_p_local_snf(rows, p):
    """(U, diag, V, uinv) with U*A*V = diag(p^e_i), as dense Fraction
    matrices; uinv[i] is column i of U^-1 as a sparse {row: entry} dict.

    The pivot is the first entry of least valuation in row-major order, and
    the pivot row is divided by the pivot's unit part."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, m = len(a), len(a[0]) if a else 0
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    v = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    perm, uinv = list(range(n)), []
    k = 0
    while k < min(n, m):
        pivot, best = None, None
        for i in range(k, n):
            for j in range(k, m):
                if a[i][j] and (best is None or valuation(a[i][j], p) < best):
                    best, pivot = valuation(a[i][j], p), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[k], a[pi], u[k], u[pi] = a[pi], a[k], u[pi], u[k]
        perm[k], perm[pi] = perm[pi], perm[k]
        for r in a + v:
            r[k], r[pj] = r[pj], r[k]
        unit = a[k][k] / Fraction(p) ** best
        a[k] = [x / unit for x in a[k]]
        u[k] = [x / unit for x in u[k]]
        w_k, piv = {perm[k]: unit}, a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / piv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                u[i] = [x - f * y for x, y in zip(u[i], u[k])]
                w_k[perm[i]] = f
        uinv.append(w_k)
        for j in range(k + 1, m):
            if a[k][j]:
                f = a[k][j] / piv
                for r in a + v:
                    r[j] -= f * r[k]
        k += 1
    uinv += [{perm[i]: Fraction(1)} for i in range(k, n)]
    return u, [a[i][i] for i in range(min(n, m))], v, uinv
