"""Independent oracles and input generators for the freedf benchmark.

Nothing here imports freedf. Partitions are plain tuples in
restricted-growth form, rationals are Fractions, and every check is
exact. Each oracle returns None when the output is right and a short
reason string when it is wrong.
"""

import itertools
import json
import random
from fractions import Fraction
from math import lcm

# Allowed block sizes of each category.
BLOCK_OK = {
    "o+": lambda s: s == 2,
    "s+": lambda s: True,
    "h+": lambda s: s % 2 == 0,
    "b+": lambda s: s <= 2,
}


def canon(labels):
    """Relabel a sequence by first occurrence (the kernel of a tuple)."""
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def rgs_text(p):
    return ",".join(map(str, p))


def parse_rgs(text):
    return tuple(int(t) for t in text.split(",")) if text else ()


def q_text(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_q(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def dump(doc):
    """The CLI's JSON layout: two-space indent and a trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def leq(p, q):
    """Every block of p lies inside a block of q."""
    image = {}
    return all(image.setdefault(a, b) == b for a, b in zip(p, q))


def join_blocks(p, q):
    """Number of blocks of the join of p and q, by union-find."""
    parent = list(range(len(p)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    count = len(p)
    for labels in (p, q):
        first = {}
        for pos, lab in enumerate(labels):
            if lab in first:
                ra, rb = find(first[lab]), find(pos)
                if ra != rb:
                    parent[rb] = ra
                    count -= 1
            else:
                first[lab] = pos
    return count


def _nc_blocks(pos, ok):
    """Non-crossing partitions of the sorted tuple pos, as block lists.

    The block of pos[0] is chosen first; the gaps it leaves are then
    partitioned independently, which is exactly non-crossingness.
    """
    if not pos:
        yield []
        return
    head, rest = pos[0], pos[1:]
    for r in range(len(rest) + 1):
        if not ok(r + 1):
            continue
        for chosen in itertools.combinations(range(len(rest)), r):
            block = (head,) + tuple(rest[k] for k in chosen)
            cuts = (-1,) + chosen + (len(rest),)
            gaps = [rest[a + 1:b] for a, b in zip(cuts, cuts[1:])]
            for parts in itertools.product(*(list(_nc_blocks(g, ok)) for g in gaps)):
                yield [block] + [b for part in parts for b in part]


_MEMBERS = {}


def category_members(cat, m):
    """C(m) as sorted RGS tuples."""
    key = (cat, m)
    if key not in _MEMBERS:
        out = []
        for blocks in _nc_blocks(tuple(range(m)), BLOCK_OK[cat]):
            labels = [0] * m
            for bid, block in enumerate(sorted(blocks)):
                for x in block:
                    labels[x] = bid
            out.append(tuple(labels))
        _MEMBERS[key] = sorted(out)
    return _MEMBERS[key]


def kernel_classes(m, n):
    """All set partitions of [m] with at most n blocks, as RGS tuples."""
    out = []

    def rec(prefix, top):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for lab in range(min(top + 2, n)):
            rec(prefix + [lab], max(top, lab))

    rec([0], 0)
    return out


def resum(coeffs, tau):
    """sum of c_sigma over sigma <= tau."""
    return sum((v for s, v in coeffs.items() if leq(s, tau)), Fraction(0))


# ---- inputs ---------------------------------------------------------------


def invariant_kernel_table(cat, n, M, rng):
    """A kernel moment table phi~(tau) = sum_{sigma in C(m), sigma <= tau} c_sigma.

    This is the invariance condition itself, so the table is invariant by
    construction without asking freedf.
    """
    values = {}
    for m in range(1, M + 1):
        c = {s: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for s in category_members(cat, m)}
        values[m] = {tau: resum(c, tau) for tau in kernel_classes(m, n)}
    return values


def dense_doc(values, n, M):
    """The dense JSON table of a kernel-valued table."""
    layers = {}
    for m in range(1, M + 1):
        layers[str(m)] = {
            rgs_text(i): q_text(values[m][canon(i)])
            for i in itertools.product(range(1, n + 1), repeat=m)
        }
    return {"n": n, "max_order": M, "kind": "moments", "repr": "dense", "values": layers}


def perturb_dense(doc, rng):
    """Copy of a dense table with one seeded entry moved by a nonzero amount."""
    out = json.loads(json.dumps(doc))
    m = str(rng.randint(2, doc["max_order"]))
    key = rng.choice(sorted(out["values"][m]))
    delta = Fraction(rng.choice([-1, 1]), rng.randint(1, 7))
    out["values"][m][key] = q_text(parse_q(out["values"][m][key]) + delta)
    return out


def coefficient_family(cat, kind, M, rng):
    """A seeded c/C family in the convert JSON shape."""
    values = {}
    for m in range(1, M + 1):
        values[str(m)] = {
            rgs_text(p): q_text(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for p in category_members(cat, m)
        }
    return {"category": cat, "kind": kind, "max_order": M, "values": values}


def phi_family(table_doc, cat):
    """phi~ restricted to C(m), cut from a kernel moment table."""
    M = table_doc["max_order"]
    values = {}
    for m in range(1, M + 1):
        layer = table_doc["values"][str(m)]
        values[str(m)] = {rgs_text(p): layer[rgs_text(p)] for p in category_members(cat, m)}
    return {"category": cat, "kind": "phi", "max_order": M, "values": values}


def labelled(kernel, rng, top=9):
    """An index tuple with the given kernel and seeded distinct labels."""
    labels = rng.sample(range(1, top + 1), max(kernel) + 1)
    return tuple(labels[b] for b in kernel)


def rng_for(seed, *key):
    return random.Random("%s/%s" % (seed, "/".join(map(str, key))))


# ---- oracles --------------------------------------------------------------


def table_values(doc):
    """{m: {key_tuple: Fraction}} of a table document."""
    return {
        int(m): {parse_rgs(k): parse_q(v) for k, v in layer.items()}
        for m, layer in doc["values"].items()
    }


def class_values(doc, m):
    """{kernel: value} at order m, for kernel or (uniform) dense tables."""
    layer = table_values(doc)[m]
    if doc["repr"] == "kernel":
        return layer
    return {canon(i): v for i, v in layer.items()}


def check_weingarten(doc, cat, m, n):
    """G W = I exactly, with G = n^#(pi v sigma) over the true C(m)."""
    if (doc.get("category"), doc.get("m"), doc.get("n")) != (cat, m, n):
        return "header does not name %s m=%d n=%d" % (cat, m, n)
    basis = [parse_rgs(s) for s in doc["basis"]]
    if basis != category_members(cat, m):
        return "basis is not C(%d) in RGS-lex order" % m
    W = [[parse_q(v) for v in row] for row in doc["entries"]]
    size = len(basis)
    if len(W) != size or any(len(row) != size for row in W):
        return "matrix is not %dx%d" % (size, size)
    if not size:
        return None
    D = lcm(*(v.denominator for row in W for v in row))
    num = [[v.numerator * (D // v.denominator) for v in row] for row in W]
    powers = [n ** e for e in range(m + 1)]
    for a in range(size):
        # row a of G * num, grouping the rows of num by Gram exponent
        acc = [[0] * size for _ in range(m + 1)]
        for c in range(size):
            e = join_blocks(basis[a], basis[c])
            acc[e] = [x + y for x, y in zip(acc[e], num[c])]
        for b in range(size):
            total = sum(powers[e] * acc[e][b] for e in range(m + 1))
            if total != (D if a == b else 0):
                return "(G W)[%d][%d] != %d" % (a, b, int(a == b))
    return None


def exact_inverse(cat, m, n):
    """Weingarten matrix by Gauss-Jordan over Fractions (small C(m) only)."""
    basis = category_members(cat, m)
    size = len(basis)
    A = [
        [Fraction(n ** join_blocks(p, q)) for q in basis] + [Fraction(int(i == j)) for j in range(size)]
        for i, p in enumerate(basis)
    ]
    for k in range(size):
        piv = next(r for r in range(k, size) if A[r][k])
        A[k], A[piv] = A[piv], A[k]
        inv = 1 / A[k][k]
        A[k] = [x * inv for x in A[k]]
        for r in range(size):
            if r != k and A[r][k]:
                f = A[r][k]
                A[r] = [x - f * y for x, y in zip(A[r], A[k])]
    return basis, [row[size:] for row in A]


def haar_value(basis, W, i, j):
    """h(u_i1j1 ... u_imjm) = sum of Wg(p, q) over p <= ker i, q <= ker j."""
    ki, kj = canon(i), canon(j)
    rows = [a for a, p in enumerate(basis) if leq(p, ki)]
    cols = [b for b, q in enumerate(basis) if leq(q, kj)]
    return sum((W[a][b] for a in rows for b in cols), Fraction(0))


def check_certificate(report, table_doc, expect_pass):
    """A PASS must re-sum to the table; a FAIL must carry true witnesses."""
    verdict = report.get("verdict")
    if verdict != ("PASS" if expect_pass else "FAIL"):
        return "verdict %r" % verdict
    coeffs = {
        int(m): {parse_rgs(k): parse_q(v) for k, v in layer.items()}
        for m, layer in report["coefficients"].items()
    }
    values = table_values(table_doc)
    if expect_pass:
        if report["witnesses"]:
            return "PASS with witnesses"
        for m, layer in values.items():
            predicted = {}
            for key, v in layer.items():
                tau = canon(key)
                if tau not in predicted:
                    predicted[tau] = resum(coeffs[m], tau)
                if predicted[tau] != v:
                    return "coefficients do not reproduce order %d at %s" % (m, rgs_text(key))
        return None
    if not report["witnesses"]:
        return "FAIL without witnesses"
    for w in report["witnesses"]:
        m = w["m"]
        i = parse_rgs(w["tuple"])
        key = i if table_doc["repr"] == "dense" else canon(i)
        actual, expected = parse_q(w["actual"]), parse_q(w["expected"])
        if actual != values[m][key]:
            return "witness %s: actual is not the table entry" % w["tuple"]
        if expected != resum(coeffs[m], canon(i)):
            return "witness %s: expected is not the coefficient re-sum" % w["tuple"]
        if actual == expected:
            return "witness %s has zero residual" % w["tuple"]
    return None


def check_solve(out_doc, table_doc, cat, m):
    """The coefficients re-sum over sigma <= tau to the table at order m."""
    coeffs = {parse_rgs(k): parse_q(v) for k, v in out_doc["coefficients"].items()}
    if sorted(coeffs) != category_members(cat, m):
        return "coefficients are not indexed by C(%d)" % m
    for tau, v in class_values(table_doc, m).items():
        if resum(coeffs, tau) != v:
            return "re-sum differs at %s" % rgs_text(tau)
    return None


def check_reconstruct(out_doc, table_doc, i):
    """Reconstruction equals the generating table at kernels of <= n blocks."""
    tau = canon(i)
    if max(tau) + 1 > table_doc["n"]:
        return "kernel %s has more than n blocks" % rgs_text(tau)
    want = class_values(table_doc, len(i))[tau]
    got = parse_q(out_doc["value"])
    return None if got == want else "value %s, table has %s" % (got, want)


def check_same_bytes(got, want):
    if got == want:
        return None
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return "round trip differs from the input at byte %d" % k
