"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions rather
than the library's own algorithms: an integer Smith form by alternating
row/column Euclid, a brute-force projective-line count over all residue
pairs, the all-pairs sweep that fixes the canonical points of P^1, and
a small Todd-Coxeter coset enumerator.  Each of these is itself
sanity-checked in test_oracles.py before anything else relies on it.

The rest are the earlier, plainer forms of code the library now does
faster, kept as references: the Euclidean descent on QuadInt objects
with its letter-by-letter check (euclid_word) and its rounding rule
(euclid_divmod_box), a coset walk through P1Table.apply (rewrite), the
four-entry Hecke quotient (quotient_full), the all-pairs check that no
two Hecke representatives share a right coset (shared_right_cosets),
T_l and the unit conjugation operator by one located and expressed
quotient per Schreier generator and representative (hecke_matrix,
unit_conjugation_operator; for T_l the representatives come from
hecke_reps and each coset is found by the scan over all of them at the
level, locate_right_coset), the transversal matrices (tmats), and the
two degeneracy maps by rewriting the word of every Schreier generator
and expressing its conjugate by diag(pi, 1) (degeneracy_maps,
conjugate_by_pgen), and the parabolic subspace from cusps a/c
enumerated over the divisors of the level, deduplicated by a unit
congruence, with their width translations expressed
(cusps_by_divisors, cusp_equivalent, parabolic_by_cusps; divisors,
invertible_reps and colon_square serve them).  Last come small helpers
that the tests use as judges and the package no longer needs:
evaluate, membership, matpow and abelianized_relators.
"""

from __future__ import annotations

from functools import lru_cache


def snf_diagonal(rows, ncols):
    """Diagonal of an integer Smith-like form (no divisibility chain).

    Returns the list of nonzero diagonal entries after full
    diagonalization; the presented abelian group is
    Z^(ncols - len(diag)) + sum of Z/d for d in the diagonal.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    r = c = 0
    while r < nrows and c < ncols:
        # smallest nonzero entry as pivot keeps coefficients small
        pos = None
        for i in range(r, nrows):
            mi = m[i]
            for j in range(c, ncols):
                v = mi[j]
                if v:
                    av = -v if v < 0 else v
                    if pos is None or av < pos[0]:
                        pos = (av, i, j)
                        if av == 1:
                            break
            if pos is not None and pos[0] == 1:
                break
        if pos is None:
            break
        _, i, j = pos
        m[r], m[i] = m[i], m[r]
        if j != c:
            for row in m:
                row[c], row[j] = row[j], row[c]
        while True:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            p = m[r][c]
            changed = False
            # nearest-quotient euclid down the column
            for i in range(nrows):
                if i != r and m[i][c]:
                    q, rem = divmod(m[i][c], p)
                    if 2 * rem > p:
                        q += 1
                    if q:
                        mr = m[r]
                        m[i] = [x - q * y for x, y in zip(m[i], mr)]
                    if m[i][c]:
                        m[r], m[i] = m[i], m[r]
                        changed = True
                        break
            if changed:
                continue
            # nearest-quotient euclid across the row
            for j in range(ncols):
                if j != c and m[r][j]:
                    q, rem = divmod(m[r][j], p)
                    if 2 * rem > p:
                        q += 1
                    if q:
                        for i in range(nrows):
                            m[i][j] -= q * m[i][c]
                    if m[r][j]:
                        for i in range(nrows):
                            m[i][c], m[i][j] = m[i][j], m[i][c]
                        changed = True
                        break
            if not changed:
                break
        diag.append(abs(m[r][c]))
        r += 1
        c += 1
    return diag


def abelian_invariants(rows, ncols):
    """(free_rank, sorted prime-power torsion list) of coker of the rows."""
    diag = snf_diagonal(rows, ncols)
    tors = []
    for d in diag:
        d = abs(d)
        if d in (0, 1):
            continue
        p = 2
        while p * p <= d:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                tors.append(q)
            p += 1
        if d > 1:
            tors.append(d)
    free = ncols - len(diag)
    return free, sorted(tors)


def brute_p1_count(n) -> int:
    """|P^1(O/n)| by enumerating all pairs and dividing out unit rays."""
    from bianchicoh.ideals import ResidueSystem
    from bianchicoh.qfield import gcd

    rs = ResidueSystem(n)
    g = n.gen
    units = invertible_reps(rs)
    seen = set()
    count = 0
    for c in rs.reps:
        for d in rs.reps:
            if not n.is_unit_ideal():
                h = gcd(gcd(c, d), g) if not (c.is_zero() and d.is_zero()) else g
                if not h.is_unit():
                    continue
            key = (c.a, c.b, d.a, d.b)
            if key in seen:
                continue
            count += 1
            for u in units:
                uc, ud = rs.reduce(u * c), rs.reduce(u * d)
                seen.add((uc.a, uc.b, ud.a, ud.b))
    return count


def brute_p1_count_fast(n) -> int:
    """|P^1(O/n)| by pair enumeration with a precomputed gcd table.

    Same definition as brute_p1_count -- a pair (c, d) is projective
    when gcd(c, d, gen) is a unit -- but gcd(c, d, gen) equals
    gcd(gcd(c, gen), gcd(d, gen)), so each residue is first mapped to
    its gcd-with-gen divisor class and the pair test becomes a lookup
    in a small divisor-by-divisor coprimality table.  Invertible
    scalars act freely on projective pairs (u fixing one forces
    u = 1 mod n), so the point count is the pair count divided by the
    number of invertible residues.
    """
    from bianchicoh.ideals import PIdeal, ResidueSystem
    from bianchicoh.qfield import gcd

    rs = ResidueSystem(n)
    g = n.gen
    if n.is_unit_ideal():
        return 1
    divs = divisors(n)
    div_index = {dv: k for k, dv in enumerate(divs)}
    coprime = [
        [gcd(a.gen, b.gen).is_unit() for b in divs] for a in divs
    ]
    cls = [div_index[PIdeal(gcd(x, g))] for x in rs.reps]
    counts = [0] * len(divs)
    for k in cls:
        counts[k] += 1
    npairs = 0
    for k1, c1 in enumerate(counts):
        if not c1:
            continue
        row = coprime[k1]
        for k2, c2 in enumerate(counts):
            if c2 and row[k2]:
                npairs += c1 * c2
    return npairs // len(invertible_reps(rs))


def todd_coxeter(ngens, relators, subgens, limit=100000, want_table=False):
    """Index of the subgroup generated by subgens in the presented group.

    relators and subgens are sequences of words, each word a sequence of
    (generator-id, +-1).  Plain HLT enumeration with a union-find for
    coincidences; sweeps with definitions until a sweep changes nothing.
    Raises RuntimeError if more than limit cosets get defined.  With
    want_table=True returns (index, table) where table[x][2g + (0 if
    e=1 else 1)] is the coset x * g^e over renumbered live cosets,
    coset 0 being the subgroup itself.
    """
    nslots = 2 * ngens
    table = [[None] * nslots]
    parent = [0]
    state = {"changed": False}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def newcoset():
        table.append([None] * nslots)
        parent.append(len(table) - 1)
        if len(table) > limit:
            raise RuntimeError("coset limit exceeded")
        state["changed"] = True
        return len(table) - 1

    def slot(g, e):
        return 2 * g + (0 if e == 1 else 1)

    pend = []

    def set_edge(x, sl, y):
        x, y = find(x), find(y)
        cur = table[x][sl]
        if cur is None:
            table[x][sl] = y
            state["changed"] = True
        elif find(cur) != y:
            pend.append((find(cur), y))
        back = table[y][sl ^ 1]
        if back is None:
            table[y][sl ^ 1] = x
            state["changed"] = True
        elif find(back) != x:
            pend.append((find(back), x))

    def process_coincidences():
        while pend:
            a, b = pend.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            state["changed"] = True
            for sl in range(nslots):
                tb = table[b][sl]
                if tb is not None:
                    set_edge(a, sl, find(tb))

    def trace(start, word, define):
        x = find(start)
        n = len(word)
        for i, (g, e) in enumerate(word):
            x = find(x)
            sl = slot(g, e)
            y = table[x][sl]
            if y is None:
                if not define:
                    return
                y = find(start) if i == n - 1 else newcoset()
                set_edge(x, sl, y)
                y = table[find(x)][sl]
                if y is None:
                    return  # a coincidence rewired things; next sweep
            x = find(y)
        if x != find(start):
            pend.append((x, find(start)))
        process_coincidences()

    while True:
        state["changed"] = False
        for w in subgens:
            trace(0, w, define=True)
        x = 0
        while x < len(table):
            if find(x) == x:
                for w in relators:
                    trace(x, w, define=True)
                    if find(x) != x:
                        break
            x += 1
        process_coincidences()
        if not state["changed"]:
            break
    live = [x for x in range(len(table)) if find(x) == x]
    for x in live:
        for sl in range(nslots):
            if table[x][sl] is None:
                raise RuntimeError("coset table incomplete after sweeps")
    if not want_table:
        return len(live)
    renum = {x: i for i, x in enumerate(live)}
    clean = [
        [renum[find(table[x][sl])] for sl in range(nslots)] for x in live
    ]
    return len(live), clean


def tc_subgroup_abelianization(ngens, relators, subgens, limit=100000):
    """(free_rank, torsion) of the subgroup's abelianization.

    Runs Todd-Coxeter for the coset table, then an abelianized
    Reidemeister-Schreier rewriting on that table: BFS spanning tree,
    Schreier generators on non-tree positive edges, relators traced
    from every coset, subgroup generator words traced from coset 0.
    Completely independent of the library's own Schreier code path.
    """
    _, table = todd_coxeter(
        ngens, relators, subgens, limit=limit, want_table=True
    )
    ncos = len(table)
    tree_pos = set()
    visited = [False] * ncos
    visited[0] = True
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for g in range(ngens):
            for e, sl in ((1, 2 * g), (-1, 2 * g + 1)):
                y = table[x][sl]
                if not visited[y]:
                    visited[y] = True
                    tree_pos.add((x, g) if e == 1 else (y, g))
                    queue.append(y)
    sidx = {}
    for x in range(ncos):
        for g in range(ngens):
            if (x, g) not in tree_pos:
                sidx[(x, g)] = len(sidx)
    nsg = len(sidx)

    def walk(word, start):
        vec = [0] * nsg
        pos = start
        for g, e in word:
            if e == 1:
                k = sidx.get((pos, g))
                if k is not None:
                    vec[k] += 1
                pos = table[pos][2 * g]
            else:
                prev = table[pos][2 * g + 1]
                k = sidx.get((prev, g))
                if k is not None:
                    vec[k] -= 1
                pos = prev
        return pos, vec

    rows = []
    for r in relators:
        for x in range(ncos):
            end, vec = walk(r, x)
            assert end == x
            rows.append(vec)
    # subgroup generator words must land in the subgroup
    for w in subgens:
        end, _ = walk(w, 0)
        assert end == 0
    return abelian_invariants(rows, nsg)


def sympy_invariants(rows, ncols):
    """Same invariants as abelian_invariants, via sympy's Smith form."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    if not rows:
        return ncols, []
    m = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [int(m[i, i]) for i in range(min(m.rows, m.cols))]
    tors = []
    rank = 0
    for d in diag:
        d = abs(d)
        if d == 0:
            continue
        rank += 1
        if d == 1:
            continue
        p = 2
        while p * p <= d:
            if d % p == 0:
                q = 1
                while d % p == 0:
                    d //= p
                    q *= p
                tors.append(q)
            p += 1
        if d > 1:
            tors.append(d)
    return ncols - rank, sorted(tors)


def scan_right_cosets(reps, lam, level, x):
    """Indices j with x * reps[j]^-1 in Gamma_0(level), trying every rep.

    The all-representatives scan: for each representative delta, x times
    the adjugate of delta must be divisible by lam entrywise, and the
    quotient must have determinant 1 and lower-left entry in the level.
    """
    from bianchicoh.qfield import Mat2, divides, exact_div

    hits = []
    for j, dj in enumerate(reps):
        ents = (x * dj.adjugate()).entries()
        if not all(divides(lam, e) for e in ents):
            continue
        quot = Mat2(*(exact_div(e, lam) for e in ents))
        if quot.det().is_one() and level.contains(quot.c):
            hits.append(j)
    return hits


@lru_cache(maxsize=None)
def sweep_p1(n):
    """P^1(O/n) by the all-pairs sweep: (points, lookup).

    Pairs (c, d) are visited in residue order, c outermost; the first
    projective pair of a unit ray not yet marked becomes its point, and
    the whole ray is marked.  points lists (c, d) in that order, and
    lookup maps every projective residue pair (c.a, c.b, d.a, d.b) to
    the index of its point.  Quadratic in the norm of n, so the result
    is kept per level for the tests that judge against it; callers must
    not change it.
    """
    from bianchicoh.ideals import ResidueSystem, factor

    rs = ResidueSystem(n)
    size = len(rs)
    masks = []
    if not n.is_unit_ideal():
        for p, _ in factor(n):
            masks.append(bytes(p.contains(x) for x in rs.reps))
    units = invertible_reps(rs)
    taken = bytearray(size * size)
    lookup = {}
    points = []
    for ic, c in enumerate(rs.reps):
        for idd, d in enumerate(rs.reps):
            if taken[ic * size + idd]:
                continue
            if any(m[ic] and m[idd] for m in masks):
                continue
            k = len(points)
            points.append((c, d))
            for u in units:
                uc = rs.reduce(u * c)
                ud = rs.reduce(u * d)
                taken[rs.index(uc) * size + rs.index(ud)] = 1
                lookup[(uc.a, uc.b, ud.a, ud.b)] = k
    return points, lookup


def dense_rows(rows, ncols):
    """Sparse rows {column: value} as dense integer lists of length ncols."""
    out = []
    for row in rows:
        dense = [0] * ncols
        for j, v in row.items():
            dense[j] = v
        out.append(dense)
    return out


def quotient_full(x, delta, lam, level):
    """x * delta^-1 by dividing all four entries of x * adj(delta) by lam.

    Returns the quotient when every division is exact and the quotient
    has unit determinant and lower-left entry in the level, else None.
    """
    from bianchicoh.qfield import Mat2, euclid_divmod

    ents = []
    for e in (x * delta.adjugate()).entries():
        q, r = euclid_divmod(e, lam)
        if not r.is_zero():
            return None
        ents.append(q)
    quot = Mat2(*ents)
    if not (quot.det().is_unit() and level.contains(quot.c)):
        return None
    return quot


def shared_right_cosets(reps, lam, level):
    """Pairs (i, j), i != j, with reps[i] * reps[j]^-1 in the level group.

    The all-pairs check that hecke_cosets ran at every level before the
    kernel-line certificate replaced it: (N(l)+1) * N(l) quotient tests
    by quotient_full.  Representatives of distinct right cosets give [].
    """
    return [(i, j) for i, di in enumerate(reps) for j, dj in enumerate(reps)
            if i != j and quotient_full(di, dj, lam, level) is not None]


def gamma01_shared_cosets(reps, levelN, p):
    """Pairs (i, j), i != j, with reps[i] * reps[j]^-1 at level N*p.

    The all-pairs check that gamma01_cosets ran before the bottom-row
    certificate replaced it: (N(p)+1) * N(p) products of Mat2 objects.
    Representatives of distinct right cosets give [].
    """
    levelNp = levelN * p
    return [(i, j) for i, gi in enumerate(reps) for j, gj in enumerate(reps)
            if i != j and levelNp.contains((gi * gj.inv_det_one()).c)]


def euclid_word(m, p):
    """Word for m in SL_2(O) by the Euclidean descent on QuadInt objects.

    The descent splits off T_q S^-1 with q from euclid_divmod until the
    lower-left entry vanishes, then a diagonal unit word and a
    translation.  The word is freely reduced and checked letter by
    letter with word_to_matrix.
    """
    from bianchicoh.errors import NotUnimodular
    from bianchicoh.fpres import Word, _unit_diag_letters, word_to_matrix
    from bianchicoh.qfield import Mat2, euclid_divmod

    def translation(x):
        out = [(p.t_id, 1 if x.a > 0 else -1)] * abs(x.a)
        return out + [(p.u_id, 1 if x.b > 0 else -1)] * abs(x.b)

    if not m.det().is_one():
        raise NotUnimodular(f"determinant {m.det()} != 1")
    letters = []
    cur = m
    while not cur.c.is_zero():
        q, _ = euclid_divmod(cur.a, cur.c)
        letters += translation(q) + [(p.s_id, -1)]
        nxt = Mat2(-cur.c, -cur.d, cur.a - q * cur.c, cur.b - q * cur.d)
        assert nxt.c.norm() < cur.c.norm()
        cur = nxt
    u = cur.a
    letters += _unit_diag_letters(p, u) + translation(u.conjugate() * cur.b)
    w = Word(letters)
    assert word_to_matrix(w, p) == m
    return w


def rewrite(cc, letters):
    """(end coset, sparse exponents) of letters walked from the base coset.

    Moves through P1Table.apply with the generator matrices rather than
    the integer action tables, and records +-1 on every non-tree edge
    crossed; zeros are dropped.
    """
    p1 = cc.cosets
    mats = [m for _, m in cc.pres.generators]
    index = {edge: k for k, edge in enumerate(cc.sgen_edges)}
    pos = p1.points[cc.base]
    vec = {}
    for gid, e in letters:
        if e == 1:
            nxt = p1.apply(mats[gid], pos)
            edge = (pos.index, gid)
        else:
            nxt = p1.apply(mats[gid].inv_det_one(), pos)
            edge = (nxt.index, gid)
        k = index.get(edge)
        if k is not None:
            vec[k] = vec.get(k, 0) + e
        pos = nxt
    return pos.index, {k: v for k, v in vec.items() if v}


def euclid_divmod_box(a, b):
    """(q, r, took_fallback) for a = q*b + r by the rounding rule on QuadInt.

    Rounds each coordinate of a*conj(b)/norm(b) to the nearest integer,
    ties toward minus infinity; when that remainder does not shrink the
    norm, takes the least (norm of remainder, q.a, q.b) over the 3x3
    block of quotients around it.
    """
    from bianchicoh.qfield import QuadInt

    def nearest(num, den):
        # the least integer k with k >= num/den - 1/2
        k = num // den
        while 2 * (num - k * den) > den:
            k += 1
        while 2 * (num - (k - 1) * den) <= den:
            k -= 1
        return k

    nb = b.norm()
    num = a * b.conjugate()
    q0, q1 = nearest(num.a, nb), nearest(num.b, nb)
    q = QuadInt(a.ctx, q0, q1)
    if (a - q * b).norm() < nb:
        return q, a - q * b, False
    cands = [QuadInt(a.ctx, q0 + i, q1 + j)
             for i in (-1, 0, 1) for j in (-1, 0, 1)]
    q = min(cands, key=lambda c: ((a - c * b).norm(), c.a, c.b))
    return q, a - q * b, True


def hecke_reps(l):
    """[[1, k], [0, lambda]] over ResidueSystem(l), then diag(lambda, 1)."""
    from bianchicoh.ideals import ResidueSystem
    from bianchicoh.qfield import Mat2

    ctx = l.ctx
    lam = l.gen
    reps = [Mat2(ctx.one, k, ctx.zero, lam) for k in ResidueSystem(l).reps]
    return reps + [Mat2(lam, ctx.zero, ctx.zero, ctx.one)]


def hecke_rows(l, cc):
    """Summed exponents of the T_l quotients of every Schreier generator.

    For each Schreier generator gamma and representative delta_i of
    hecke_reps, the coset of delta_i * gamma is located at the level of
    cc by the scan over all representatives (locate_right_coset), and
    the quotient in the level group is expressed by the Euclidean
    descent; the permutation of the representatives must be a bijection.
    """
    from bianchicoh.errors import PermutationFailure

    reps = hecke_reps(l)
    ev_rows = []
    for _, gamma in cc.sgens:
        row = {}
        sigma = []
        for di in reps:
            j, quot = locate_right_coset(reps, l.gen, cc.level, di * gamma)
            sigma.append(j)
            for k, v in cc.express(quot).items():
                row[k] = row.get(k, 0) + v
        if sorted(sigma) != list(range(len(reps))):
            raise PermutationFailure("coset permutation is not a bijection")
        ev_rows.append(row)
    return ev_rows


def project_values(space, ev_rows, onto=None):
    """Coordinate matrix of the classes f -> (s_k -> f(ev_rows[k])).

    Pairs the basis of space with the rows and projects every image onto
    the basis of onto (default: space); ProjectionFailure when one
    escapes.
    """
    from bianchicoh.errors import ProjectionFailure
    from bianchicoh.modlinalg import MatQ, project_rows, sparse_values

    images = sparse_values(space.basis, ev_rows)
    onto = space if onto is None else onto
    coords, bad = project_rows(onto.basis, images.arr)
    if bad is not None:
        raise ProjectionFailure("image escapes the subspace")
    return MatQ(space.q.q, coords)


def hecke_matrix(l, space):
    """T_l on space by locating and expressing every quotient."""
    return project_values(space, hecke_rows(l, space.cc))


def unit_conjugation_operator(space):
    """Conjugation by diag(u0, 1) on space, expressing every conjugate.

    Each Schreier generator [[a, b], [c, d]] becomes
    [[a, u0*b], [c/u0, d]], which is expressed by the Euclidean descent.
    """
    from bianchicoh.cohom import _unit_conj_generator
    from bianchicoh.qfield import Mat2

    cc = space.cc
    u0 = _unit_conj_generator(cc.ctx)
    u0i = u0.conjugate()
    return project_values(space, [
        cc.express(Mat2(m.a, u0 * m.b, u0i * m.c, m.d)) for _, m in cc.sgens
    ])


def tmats(cc):
    """The matrix of T_x for every coset x of cc, from its coordinates."""
    from bianchicoh.qfield import Mat2

    return [Mat2.from_coords(cc.ctx, t) for t in cc._tcoords]


def conjugate_by_pgen(m, pi):
    """diag(pi,1) * m * diag(pi,1)^{-1}; ArithmeticError unless pi | m.c."""
    from bianchicoh.qfield import Mat2, exact_div

    return Mat2(m.a, m.b * pi, exact_div(m.c, pi), m.d)


def degeneracy_maps(src, dst):
    """(restriction, twisted) coordinate matrices, one generator at a time.

    The restriction rewrites the word of every Schreier generator of dst
    through the coset table of src (the walk must close); the twisted
    map expresses at the level of src the conjugate of every generator
    of dst by diag(pi, 1), pi the canonical generator of the prime
    quotient of the levels.
    """
    from bianchicoh.ideals import PIdeal
    from bianchicoh.qfield import exact_div

    pi = PIdeal(exact_div(dst.cc.level.gen, src.cc.level.gen)).gen
    sgens = dst.cc.sgens
    restriction = [src.cc.rewrite(w.letters) for w, _ in sgens]
    twisted = [src.cc.express(conjugate_by_pgen(m, pi)) for _, m in sgens]
    return (project_values(src, restriction, dst),
            project_values(src, twisted, dst))


def congruence_objects(level, move_order="default"):
    """Coset action, tree and Schreier generators of Gamma_0(level) on objects.

    The object-based construction that CongCtx used before it moved to
    integer coordinates.  The action of each generator and its inverse
    on P^1 comes from the all-pairs sweep (sweep_p1) and QuadInt
    products; the breadth-first tree (moves by generator id, then
    inverse moves) multiplies Word and Mat2 objects along its edges;
    each Schreier generator T_x g T_y^-1 is a Word and a Mat2 product,
    and must have determinant 1 and lower-left entry in the level; every
    relator is walked from every coset and must close.  Returns a dict
    with the keys act, base, tree_order, tree_edge, transversal, tmats,
    sgen_edges, sgens and relmat, in the shapes of the CongCtx attributes.
    """
    from bianchicoh.fpres import Word, builtin_presentation
    from bianchicoh.ideals import ResidueSystem
    from bianchicoh.qfield import Mat2

    ctx = level.ctx
    pres = builtin_presentation(ctx)
    points, lookup = sweep_p1(level)
    rs = ResidueSystem(level)

    def image(g):
        out = []
        for c, d in points:
            x = rs.reduce(c * g.a + d * g.c)
            y = rs.reduce(c * g.b + d * g.d)
            out.append(lookup[(x.a, x.b, y.a, y.b)])
        return out

    mats = [m for _, m in pres.generators]
    invs = [m.inv_det_one() for m in mats]
    act = [(image(m), image(mi)) for m, mi in zip(mats, invs)]
    one = rs.reduce(ctx.one)
    base = lookup[(0, 0, one.a, one.b)]
    ncos = len(points)
    gens = list(range(pres.gen_count))
    if move_order == "reversed":
        gens.reverse()
    transversal = [None] * ncos
    tmats = [None] * ncos
    transversal[base] = Word()
    tmats[base] = Mat2.identity(ctx)
    tree_pos = set()
    tree_edge = [None] * ncos
    queue = [base]
    for x in queue:
        for gid in gens:
            for e, table in ((1, act[gid][0]), (-1, act[gid][1])):
                y = table[x]
                if transversal[y] is None:
                    transversal[y] = transversal[x] * Word([(gid, e)])
                    tmats[y] = tmats[x] * (mats[gid] if e == 1 else invs[gid])
                    tree_pos.add((x, gid) if e == 1 else (y, gid))
                    tree_edge[y] = (x, (gid, e))
                    queue.append(y)
    assert all(t is not None for t in transversal)
    sgens = []
    index = {}
    for x in range(ncos):
        for gid in range(pres.gen_count):
            if (x, gid) in tree_pos:
                continue
            y = act[gid][0][x]
            word = transversal[x] * Word([(gid, 1)]) * transversal[y].inverse()
            mat = tmats[x] * mats[gid] * tmats[y].inv_det_one()
            assert mat.det().is_one() and level.contains(mat.c)
            index[(x, gid)] = len(sgens)
            sgens.append((word, mat))
    relmat = []
    for r in pres.relators:
        for x in range(ncos):
            pos, vec = x, {}
            for gid, e in r:
                if e == 1:
                    k = index.get((pos, gid))
                    pos = act[gid][0][pos]
                else:
                    pos = act[gid][1][pos]
                    k = index.get((pos, gid))
                if k is not None:
                    vec[k] = vec.get(k, 0) + e
            assert pos == x
            relmat.append({k: v for k, v in vec.items() if v})
    return {
        "act": act, "base": base, "tree_order": queue,
        "tree_edge": tree_edge, "transversal": transversal, "tmats": tmats,
        "sgen_edges": list(index), "sgens": sgens, "relmat": relmat,
    }


def primes_by_norm_sorted(ctx, max_norm):
    """All prime ideals of norm <= max_norm as one list, sorted by (norm, key).

    Lifts every rational prime up to max_norm with primes_above before
    it sorts: split and ramified primes at norm p, inert p at norm p^2.
    """
    from bianchicoh.ideals import PIdeal, _minpoly_roots_mod_p, primes_above
    from bianchicoh.qfield import QuadInt

    out = []
    for p in range(2, max_norm + 1):
        if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            continue
        if _minpoly_roots_mod_p(ctx, p):
            out.extend(PIdeal(g) for g in primes_above(ctx, p))
        elif p * p <= max_norm:
            out.append(PIdeal(QuadInt(ctx, p, 0)))
    return sorted(out, key=lambda l: (l.norm(), l.gen.key()))


def divisors(n):
    """All ideal divisors of n (unit ideal included), by (norm, generator)."""
    from bianchicoh.ideals import PIdeal, factor

    out = [PIdeal(n.ctx.one)]
    for p, e in factor(n):
        nxt = []
        for d in out:
            cur = d
            nxt.append(cur)
            for _ in range(e):
                cur = cur * p
                nxt.append(cur)
        out = nxt
    return sorted(out, key=lambda d: (d.norm(), d.gen.key()))


def invertible_reps(rs):
    """Representatives of (O/modulus)^* of a ResidueSystem, in its order."""
    from bianchicoh.qfield import gcd

    if rs.modulus.is_unit_ideal():
        return [rs.reduce(rs.ctx.one)]
    g = rs.modulus.gen
    return [x for x in rs.reps if gcd(x, g).is_unit()]


def colon_square(n, c):
    """Generator of the ideal quotient (n : c^2), the cusp-width ideal.

    For c = 0 it is all of O.
    """
    from bianchicoh.qfield import exact_div, gcd, normalize_associate

    if c.is_zero():
        return n.ctx.one
    return normalize_associate(exact_div(n.gen, gcd(n.gen, c * c)))


def membership(cc, m):
    """Whether the matrix m lies in Gamma_0(level of cc)."""
    return m.det().is_one() and cc.level.contains(m.c)


def evaluate(space, coeffs, m):
    """Value on the matrix m of the class with these basis coordinates."""
    import numpy as np

    from bianchicoh.modlinalg import mulmod, sparse_values

    q = space.q.q
    vec = np.mod(np.asarray(coeffs, dtype=np.int64), q)
    if vec.shape != (space.dim,):
        raise ValueError(f"expected {space.dim} coordinates")
    values = sparse_values(space.basis, [space.cc.express(m)])
    return int(mulmod(vec, values.arr[:, 0], q))


def matpow(m, k):
    """m^k for a square MatQ by repeated squaring."""
    from bianchicoh.errors import ShapeMismatch
    from bianchicoh.modlinalg import MatQ

    if m.nrows != m.ncols:
        raise ShapeMismatch("matrix power needs a square matrix")
    out = MatQ.identity(m.q, m.nrows)
    base = m
    while k:
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return out


def abelianized_relators(p):
    """Exponent-sum rows of the relators of p (columns = generators)."""
    rows = []
    for r in p.relators:
        row = [0] * p.gen_count
        for g, e in r:
            row[g] += e
        rows.append(row)
    return rows


def locate_right_coset(reps, lam, level, x):
    """(j, gamma) with x = gamma * reps[j] and gamma in Gamma_0(level).

    The one index of scan_right_cosets, with its quotient from
    quotient_full; PermutationFailure unless exactly one representative
    is hit.
    """
    from bianchicoh.errors import PermutationFailure

    hits = scan_right_cosets(reps, lam, level, x)
    if len(hits) != 1:
        raise PermutationFailure(f"{x} lies in {len(hits)} right cosets")
    return hits[0], quotient_full(x, reps[hits[0]], lam, level)


class Cusp:
    """A cusp a/c with an SL_2 matrix sending infinity to it."""

    __slots__ = ("a", "c", "gmat", "width_gen")

    def __init__(self, a, c, gmat, width_gen):
        self.a = a
        self.c = c
        self.gmat = gmat
        self.width_gen = width_gen

    def __repr__(self):
        return f"Cusp({self.a}/{self.c})"


def cusp_gmat(a, c):
    """[[a, -t], [c, s]] with s*a + t*c = 1, sending infinity to a/c."""
    from bianchicoh.qfield import Mat2, xgcd

    g, s, t = xgcd(a, c)
    assert g.is_unit(), f"cusp {a}/{c} is not in lowest terms"
    gi = g.conjugate()  # g is a unit of norm 1
    return Mat2(a, -t * gi, c, s * gi)


def lift_coprime(abar, h, c):
    """Element congruent to abar mod the ideal h and coprime to c."""
    from bianchicoh.ideals import PIdeal, ResidueSystem
    from bianchicoh.qfield import gcd

    if gcd(abar, c).is_unit():
        return abar
    for k in ResidueSystem(PIdeal(c)).reps:
        cand = abar + k * h.gen
        if gcd(cand, c).is_unit():
            return cand
    raise AssertionError(f"no coprime lift of {abar} mod {h} for {c}")


def cusp_equivalent(cc, a1, c1, a2, c2):
    """Exact equivalence test for two cusps under Gamma_0(level).

    Returns (True, gamma) with a checked certificate mapping a1/c1 to
    a2/c2, or (False, None).  Solves the congruence
    c2*d1*t - c1*d2*t^{-1} = c1*c2*x (mod level) over units t, with x
    recovered by an extended-gcd division.
    """
    from bianchicoh.qfield import Mat2, divides, exact_div, gcd, xgcd

    ctx = cc.ctx
    gen = cc.level.gen
    zero = ctx.zero
    g1 = cusp_gmat(a1, c1)
    g2 = cusp_gmat(a2, c2)
    c1c2 = c1 * c2
    for t in ctx.units:
        ti = t.conjugate()  # = t^{-1}, units have norm 1
        lhs = c2 * g1.d * t - c1 * g2.d * ti
        g = gcd(c1c2, gen)
        if not divides(g, lhs):
            continue
        big_g = exact_div(gen, g)
        if big_g.is_unit():
            x = zero
        else:
            _, s, _ = xgcd(exact_div(c1c2, g), big_g)
            x = s * exact_div(lhs, g)
        gamma = g2 * Mat2(t, x, zero, ti) * g1.inv_det_one()
        assert membership(cc, gamma), "cusp certificate escaped the level"
        assert (gamma.a * a1 + gamma.b * c1 == a2 * t
                and gamma.c * a1 + gamma.d * c1 == c2 * t), (
            "cusp certificate moves the wrong cusp")
        return True, gamma
    return False, None


def cusps_by_divisors(cc):
    """Pairwise inequivalent, exhaustive cusp representatives a/c.

    Candidates run over c among the divisors of the level generator and
    a over lifts of the invertible residues mod (c) + (n/c), coprime to
    c; duplicates are removed by cusp_equivalent.
    """
    from bianchicoh.ideals import PIdeal, ResidueSystem
    from bianchicoh.qfield import exact_div

    ctx = cc.ctx
    n = cc.level
    candidates = [(ctx.one, ctx.zero)]  # infinity
    for div in divisors(n):
        c = div.gen
        h = div.add(PIdeal(exact_div(n.gen, c)))
        for abar in invertible_reps(ResidueSystem(h)):
            candidates.append((lift_coprime(abar, h, c), c))
    out = []
    for a, c in candidates:
        if any(cusp_equivalent(cc, a, c, x.a, x.c)[0] for x in out):
            continue
        out.append(Cusp(a, c, cusp_gmat(a, c), colon_square(n, c)))
    return out


def parabolic_by_cusps(space, cusp_list=None):
    """The parabolic subspace by expressing conjugated width translations.

    For every cusp g infinity (default: cusps_by_divisors) and both
    Z-basis vectors xi of its width ideal, g T_xi g^-1 is expressed in
    the Schreier generators, and the classes killing all of them are
    kept: the right kernel of the transposed values of the basis on the
    conditions, carried back to H^1 and reduced.
    """
    from bianchicoh.cohom import PARABOLIC, CohomSubspace
    from bianchicoh.modlinalg import kernel_basis, rref, sparse_values
    from bianchicoh.qfield import Mat2

    cc = space.cc
    ctx = cc.ctx
    conds = []
    for cusp in cusps_by_divisors(cc) if cusp_list is None else cusp_list:
        gi = cusp.gmat.inv_det_one()
        for mult in (ctx.one, ctx.omega):
            xi = cusp.width_gen * mult
            m = cusp.gmat * Mat2(ctx.one, xi, ctx.zero, ctx.one) * gi
            conds.append(cc.express(m))
    coords = kernel_basis(sparse_values(space.basis, conds).transpose())
    return CohomSubspace(cc, space.q, rref(coords @ space.basis)[0],
                         PARABOLIC)
