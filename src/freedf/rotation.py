"""Weingarten matrices on the rotation blocks of C(m).

The rotation r of the m points, position i to i + 1 mod m, maps C(m) to
itself in all four categories (Banica-Speicher), and a join commutes with
relabelling the points, so G[r x][r y] = G[x][y] and W = G^-1 inherits
the same invariance. Write each orbit of r as {r^t a : t < L_a}, with a
representative a, its length L_a and its stabiliser order s_a = m / L_a.

Modulo a prime p = 1 (mod m), with w a primitive m-th root of unity, the
vectors sum_(t < L_a) w^(-jt) e_(r^t a) over the a with s_a | j span the
eigenspace of r for the character j, and G maps each eigenspace to
itself. On the character j, for j = 0 .. m-1, G acts through the block

    K_j[a][b] = sum_(t < L_b) w^(jt) G[a][r^t b],

indexed by the representatives a, b with s_a | j and s_b | j; the block
sizes sum to N. Inverting every block gives the rows of W at the
representatives c, by the symmetry of W:

    W[c][r^t a] = (s_c / m) sum_j w^(jt) K_j^-1[a][c],

over the j with s_a | j and s_c | j. Every other row follows by rotation,
W[r^u c][y] = W[c][r^-u y]. The blocks take about N^3 / m^2 of the work
of the full elimination. Both DFT sums, over t for the rows of K_j and
over j for the rows of W, run on packed rows: one big-integer multiply-add
per term, in nonnegative slots wide enough for the whole sum.

Rows given at the representatives fill to a rotation-invariant matrix
exactly when each row c is fixed by r^(L_c), which generates the
stabiliser of c: the fill reads row r^u c, u < L_c, as row c at r^-u y,
and row r^(L_c) c = c must agree with it. Rotation.invariant tests this,
and it is what lets weingarten.py check a candidate on the representative
columns only.
"""

from functools import cache

from .categories import enumerate_category
from .partitions import relabel
from .weingarten import _inverse_mod, _pack, _unpack


class Rotation:
    """The orbits of r on C(m) and the index tables of the block route."""

    def __init__(self, basis, m):
        size = len(basis)
        m = max(m, 1)  # C(0) = {()} is fixed by the trivial rotation
        index = {p: x for x, p in enumerate(basis)}
        step = [index[relabel(p[-1:] + p[:-1])] for p in basis]
        # power[t][x] is the index of r^t x
        power = [list(range(size))]
        for _ in range(1, m):
            power.append([step[x] for x in power[-1]])
        reps, length, where = [], [], [None] * size
        for x in range(size):
            if where[x] is None:
                t, y = 0, x
                while where[y] is None:
                    where[y] = len(reps), t
                    t, y = t + 1, step[y]
                reps.append(x)
                length.append(t)
        k = len(reps)
        self.m, self.reps = m, reps
        self.stab = [m // L for L in length]
        # r^(L_a), which generates the stabiliser of a
        self.fix = [power[L % m] for L in length]
        # row r^u c of W or G is row c read at r^-u y
        self.back = [(a, power[-u % m]) for a, u in where]
        # spread[t][b]: the index of r^t b for t < L_b, else the sentinel
        # size, where a row of A carries a trailing zero
        self.spread = [
            [power[t][b] if t < L else size for b, L in zip(reps, length)] for t in range(max(length, default=0))
        ]
        # slot u k + a of the unpacked sums over j holds W[c][r^u a]
        self.at = [u * k + a for a, u in where]
        # block j: the representatives whose stabiliser order divides j;
        # place[j][a]: the place of a in block j, the sentinel (a zero) off it
        self.blocks = [[a for a, s in enumerate(self.stab) if j % s == 0] for j in range(m)]
        self.place = []
        for block in self.blocks:
            place = [len(block)] * k
            for i, a in enumerate(block):
                place[a] = i
            self.place.append(place)

    def fill(self, rows):
        """The full matrix from its rows at the representatives."""
        return [list(map(rows[a].__getitem__, perm)) for a, perm in self.back]

    def invariant(self, rows):
        """Whether each row at a representative c is fixed by r^(L_c), so
        that fill(rows) is rotation-invariant."""
        return all(list(map(row.__getitem__, perm)) == row for row, perm in zip(rows, self.fix))

    def inverse_rows(self, A, p):
        """The rows of A^-1 mod p at the representatives, or None when the
        elimination of a block stops. A is a rotation-invariant symmetric
        matrix of nonnegative integers and p = 1 (mod m).

        By the symmetry of A, block m-j is S K_j^T S^-1 with S = diag(s_a),
        so only the blocks j <= m/2 are built and inverted; the inverse of
        block m-j has entries s_a K_j^-1[c][a] / s_c.
        """
        m, k, stab, blocks, place = self.m, len(self.reps), self.stab, self.blocks, self.place
        half = m // 2 + 1
        w = [pow(_root(m, p), e, p) for e in range(m)]
        B = (m * p * max(max(A[c]) for c in self.reps)).bit_length() // 8 + 1
        K = [[] for _ in range(half)]
        for a, c in enumerate(self.reps):
            row = A[c] + [0]
            packed = [_pack(map(row.__getitem__, idx), B) for idx in self.spread]
            for j in range(0, half, stab[a]):
                q = _unpack(sum(w[j * t % m] * r for t, r in enumerate(packed)), k, B)
                K[j].append(list(map(q.__getitem__, blocks[j])))
        # vecs[j][i]: column i of the inverse of block j, with a trailing zero
        vecs = [None] * m
        for j in range(half):
            _, inv = _inverse_mod(K[j], p)
            if inv is None:
                return None
            vecs[j] = [list(col) + [0] for col in zip(*inv)]
            if 0 < j < m - j:
                sb = [stab[a] for a in blocks[j]]
                vecs[m - j] = [[x * s for x, s in zip(row, sb)] + [0] for row in inv]
        B = (m * m * p * p).bit_length() // 8 + 1
        scale = pow(m, -1, p)
        out = []
        for c in range(k):
            terms = []
            for j in range(0, m, stab[c]):
                f = (stab[c] if j < half else 1) * scale
                col = _pack(map(vecs[j][place[j][c]].__getitem__, place[j]), B)
                terms.append(([f * w[j * t % m] % p for t in range(len(self.spread))], col))
            flat = []
            for t in range(len(self.spread)):
                flat += [x % p for x in _unpack(sum(f[t] * col for f, col in terms), k, B)]
            out.append(list(map(flat.__getitem__, self.at)))
        return out


@cache
def _root(m, p):
    """A primitive m-th root of unity modulo the prime p = 1 (mod m)."""
    factors = [q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))]
    for x in range(2, p):
        w = pow(x, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in factors):
            return w


@cache
def rotation(cat, m):
    return Rotation(enumerate_category(cat, m), m)
