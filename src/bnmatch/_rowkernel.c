/* The interval table's row recurrence, compiled by bnmatch.dp_core.

   For the arc of m = 2k points from start s, with j = s + m - 1 (mod n),
   row k - 1 below it and e[t] = d2(t, t + 1) the squared edge lengths:

       pair  = max(below[s + 1], d2(s, j))
       left  = max(below[s + 2], e[s])
       right = max(below[s],     e[j - 1])
       value = min(pair, min(left, right))

   d2(s, j) is (dx * dx) + (dy * dy) with dx = x[j] - x[s], dy = y[j] - y[s],
   rounded after each operation: the library is built with
   -ffp-contract=off, so no FMA joins a product to the sum. max(a, b) is
   "b > a ? b : a" and min(a, b) "b < a ? b : a". No NaN reaches a row (the
   coordinates are finite and an overflow gives inf) and no -0.0, so these
   give the bits of NumPy's maximum and minimum in any tie order.

   `moves` is the one copy of those expressions. Three jobs use it, each in
   one call: the fill (bn_fill), the replays behind arc_values (bn_arcs) and
   the walk of reconstruct (bn_walk). Every buffer comes from the caller.

   An index into a cyclic array wraps at most once along a row, so `row`
   cuts the row where any operand wraps, and each piece is a plain loop over
   restrict pointers that the compiler vectorizes for the clone's ISA.

   Row k at start s needs row k - 1 at s, s + 1 and s + 2 only, so row k0 +
   d at the starts a .. a + w - 1 needs row k0 at a .. a + w - 1 + 2d and
   nothing else. The fill uses that to work in cache (Frigo and Strumpen's
   trapezoids, 2005): a block of h rows over a full row k0 is computed in
   strips of w starts, and each strip computes row k0 + d on its own w
   starts and on a halo of the 2(h - d) starts past them, which the next
   strip computes again. So a strip depends on row k0 alone and its rows
   stay in the L1 cache, and every value is computed by the same
   operations from the same operands as row by row. */
#include <stddef.h>
#include <string.h>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif
#define INLINE static inline __attribute__((always_inline))

typedef ptrdiff_t idx; /* NumPy's intp */

typedef struct {
    const double *x, *y, *e;
    idx n;
} poly;

struct moves {
    double pair, left, right;
};

INLINE double d2(double xs, double ys, double xj, double yj)
{
    double dx = xj - xs, dy = yj - ys;
    return dx * dx + dy * dy;
}

INLINE double max2(double a, double b) { return b > a ? b : a; }
INLINE double min2(double a, double b) { return b < a ? b : a; }

INLINE struct moves moves(double b0, double b1, double b2, double xs, double ys,
                          double xj, double yj, double el, double er)
{
    struct moves v = {max2(b1, d2(xs, ys, xj, yj)), max2(b2, el), max2(b0, er)};
    return v;
}

INLINE double value(struct moves v) { return min2(v.pair, min2(v.left, v.right)); }

/* The necessity test of the arc (s, 2k) whose start reaches `reach`: k <=
   reach and the pair beats min(left, right) * keep. */
INLINE int necessary(struct moves v, idx k, idx reach, double keep)
{
    return (k <= reach) & (v.pair < min2(v.left, v.right) * keep);
}

/* out[t] for t < len; with reach, also the count of t that pass the
   necessity test */
INLINE idx span(double *restrict out, const double *restrict b0, const double *restrict b1,
                const double *restrict b2, const double *restrict xs, const double *restrict ys,
                const double *restrict xj, const double *restrict yj, const double *restrict el,
                const double *restrict er, idx len, idx k, const idx *restrict reach, double keep)
{
    idx c = 0;
    if (reach) {
        for (idx t = 0; t < len; t++) {
            struct moves v = moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]);
            c += necessary(v, k, reach[t], keep);
            out[t] = value(v);
        }
    } else {
        for (idx t = 0; t < len; t++)
            out[t] = value(moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]));
    }
    return c;
}

/* Row k at the starts s0 + t (mod n), t < len <= lo_n, into out[t], from
   the row below, whose value at start s0 + t is lo[t % lo_n]. With reach,
   the reach of start s0 + t is reach[t], and it returns the count of arcs
   that pass the necessity test. */
INLINE idx row(double *out, const double *lo, idx lo_n, const poly *P, idx s0, idx len, idx k,
               const idx *reach, double keep)
{
    idx n = P->n, m = 2 * k, c = 0, j0 = s0 + m - 1 < n ? s0 + m - 1 : s0 + m - 1 - n;
    if (s0 + len <= n && j0 >= 1 && j0 + len <= n && len + 2 <= lo_n) /* no operand wraps */
        return span(out, lo, lo + 1, lo + 2, P->x + s0, P->y + s0, P->x + j0, P->y + j0,
                    P->e + s0, P->e + j0 - 1, len, k, reach, keep);
    /* where each operand's index first wraps, as an offset t */
    idx cut[8] = {0, len, lo_n, lo_n - 1 % lo_n, lo_n - 2 % lo_n,
                  n - s0, n - (s0 + m - 1) % n, n - (s0 + m - 2) % n};
    for (int i = 1; i < 8; i++) {
        idx v = cut[i] < len ? cut[i] : len;
        int j = i;
        for (; j > 0 && cut[j - 1] > v; j--)
            cut[j] = cut[j - 1];
        cut[j] = v;
    }
    for (int i = 0; i < 7; i++) {
        idx a = cut[i], b = cut[i + 1];
        if (a == b)
            continue;
        idx s = (s0 + a) % n, j = (s + m - 1) % n, r = (s + m - 2) % n;
        c += span(out + a, lo + a, lo + (a + 1) % lo_n, lo + (a + 2) % lo_n,
                  P->x + s, P->y + s, P->x + j, P->y + j, P->e + s, P->e + r, b - a, k,
                  reach ? reach + a : NULL, keep);
    }
    return c;
}

/* buf[t] = a[(at + t) % n] for t < len <= n */
static void gather(double *buf, const double *a, idx n, idx at, idx len)
{
    idx first = n - at < len ? n - at : len;
    memcpy(buf, a + at, first * sizeof *buf);
    memcpy(buf + first, a, (len - first) * sizeof *buf);
}

/* Where the table keeps row k, or NULL: S holds the rows k % stride == 0
   and, last, the row n/2. */
static double *kept(double *S, idx n, idx stride, idx k)
{
    if (k % stride == 0)
        return S + k / stride * n;
    if (k == n / 2)
        return S + (k / stride + 1) * n;
    return NULL;
}

/* The fill's arguments that no block or strip changes. */
typedef struct {
    poly P;
    double *S;
    idx stride;
    const idx *reach;
    idx kmax;
    double keep;
    idx *ks;
    double *bases;
} fill;

/* The arcs (a + t, 2k), t < len (a + len <= n), that pass the necessity
   test, with their values, into ks and bases from entry c on. lo is the
   row below as in row. */
static void emit(const fill *F, const double *lo, idx lo_n, idx a, idx len, idx k, idx c)
{
    const double *x = F->P.x, *y = F->P.y, *e = F->P.e;
    idx n = F->P.n, j = (a + 2 * k - 1) % n;
    for (idx s = a; s < a + len; s++, j = j + 1 < n ? j + 1 : 0) {
        if (F->reach[s] < k)
            continue;
        idx t = s - a, t1 = t + 1 < lo_n ? t + 1 : 0, t2 = t1 + 1 < lo_n ? t1 + 1 : 0;
        struct moves v = moves(lo[t], lo[t1], lo[t2], x[s], y[s], x[j], y[j], e[s],
                               e[j ? j - 1 : n - 1]);
        if (necessary(v, k, F->reach[s], F->keep)) {
            F->ks[2 * c] = k;
            F->ks[2 * c + 1] = s;
            F->bases[c++] = value(v);
        }
    }
}

/* One strip of a block: rows k0 + 1 .. k0 + h at the w starts a .. a + w
   - 1 (a + w <= n), from row k0, `in`. Row k0 + d is computed on those
   starts and, unless the strip is the whole row (w = n), on a halo of the
   2(h - d) starts past them, in the two tn-float halves of tile, and the
   last row straight into out + a; each row the table keeps is copied into
   S. Rows <= kmax take the necessity test on the strip's own starts only,
   and where it passes, their arcs go to ks and bases from entry c on while
   no more than `room` are found. Returns the count found. */
INLINE idx strip(const fill *F, const double *in, double *out, idx k0, idx h, idx a, idx w,
                 double *tile, idx tn, idx c, idx room)
{
    idx n = F->P.n, g = w < n ? 2 : 0, lo_n = w + g * h, got = 0;
    const double *lo = in + a;
    if (a + lo_n > n) {
        gather(tile, in, n, a, lo_n);
        lo = tile;
    }
    for (idx d = 1; d <= h; d++) {
        idx k = k0 + d, len = w + g * (h - d);
        double *o = d == h ? out + a : tile + (d & 1) * tn;
        if (k <= F->kmax) {
            idx f = row(o, lo, lo_n, &F->P, a, w, k, F->reach + a, F->keep);
            if (len > w)
                row(o + w, lo + w, lo_n - w, &F->P, (a + w) % n, len - w, k, NULL, 0.0);
            if (f && got + f <= room)
                emit(F, lo, lo_n, a, w, k, c + got);
            got += f;
        } else {
            row(o, lo, lo_n, &F->P, a, len, k, NULL, 0.0);
        }
        double *keep_row = kept(F->S, n, F->stride, k);
        if (keep_row)
            memcpy(keep_row + a, o, w * sizeof *o);
        lo = o, lo_n = len;
    }
    return got;
}

/* The fill, in blocks of h rows. e receives row 1, the edges, which is the
   first block's input row; S, zeroed, receives the rows k % stride == 0
   and the row n/2 (kept). From its full input row k0 a block computes rows
   k0 + 1 .. k0 + h (fewer at the top) strip by strip, each strip w starts
   wide with its own halo (see strip), so strips depend on row k0 only and
   a strip's rows stay in cache; each strip writes its starts of row k0 + h
   into one of the two full rows of pp, the next block's input. Where the
   halo of a strip would reach around the row (w + 2h > n), the block is
   one strip of n starts. tile holds 2 * min(w + 2h, n) floats; a block of
   one row of n starts goes straight into pp and uses none. Rows 2 ..
   kmax take the necessity test, and each arc (k, start) that passes and
   its value go to ks (c x 2) and bases, cap entries each, by block, then
   strip, then k, then start; st[1] counts them. Call first with st = (1,
   0, 0, 0). If a strip's arcs do not fit, returns 1 with st = (the
   block's k0, the count before the strip, the strip's count, the strip's
   first start): grow ks and bases to st[1] + st[2] and call again, which
   redoes that strip. Returns 0 when done. */
CLONES int bn_fill(const double *x, const double *y, double *e, idx n, double *S, idx stride,
                   const idx *reach, idx kmax, double keep, idx h, idx w, double *pp,
                   double *tile, idx *st, idx *ks, double *bases, idx cap)
{
    fill F = {{x, y, e, n}, S, stride, reach, kmax, keep, ks, bases};
    idx half = n / 2, tn = w + 2 * h < n ? w + 2 * h : n, k0 = st[0], c = st[1], a = st[3];
    if (k0 == 1 && a == 0) {
        for (idx s = 0; s + 1 < n; s++)
            e[s] = d2(x[s], y[s], x[s + 1], y[s + 1]);
        e[n - 1] = d2(x[n - 1], y[n - 1], x[0], y[0]);
        double *r1 = kept(S, n, stride, 1);
        if (r1)
            memcpy(r1, e, n * sizeof *e);
    }
    for (idx b = (k0 - 1) / h; k0 < half; k0 += h, b++, a = 0) {
        idx hb = half - k0 < h ? half - k0 : h;
        idx ws = w + 2 * hb <= n ? w : n;
        const double *in = b ? pp + (b - 1) % 2 * n : e;
        double *out = pp + b % 2 * n;
        for (; a < n; a += ws) {
            idx len = n - a < ws ? n - a : ws;
            idx got = strip(&F, in, out, k0, hb, a, len, tile, tn, c, cap - c);
            if (got > cap - c) {
                st[0] = k0, st[1] = c, st[2] = got, st[3] = a;
                return 1;
            }
            c += got;
        }
    }
    st[0] = k0, st[1] = c, st[2] = 0, st[3] = 0;
    return 0;
}

/* Rows r0 .. r0 + h replayed from `top`, row r0, on the window of starts
   w0 .. w0 + 2h, in the two (2h + 1)-float halves of buf: out[d] is row
   r0 + d at the window's first start, or with at_end at the last start it
   is known at, w0 + 2(h - d). */
INLINE void replay(const poly *P, const double *top, idx r0, idx h, idx w0, double *buf,
                   double *out, int at_end)
{
    idx w = 2 * h + 1;
    double *cur = buf, *next = buf + w;
    gather(cur, top, P->n, w0, w);
    out[0] = cur[at_end ? w - 1 : 0];
    for (idx d = 1; d <= h; d++) {
        idx len = w - 2 * d;
        row(next, cur, w, P, w0, len, r0 + d, NULL, 0.0);
        out[d] = next[at_end ? len - 1 : 0];
        double *t = cur;
        cur = next, next = t;
    }
}

/* arc_values: first[k] and last[k], k <= kmax, are the values of the arcs
   of 2k points that start at `start` and that end at `end`. buf holds
   2 * (2 * stride - 1) floats. */
CLONES void bn_arcs(const double *x, const double *y, const double *e, idx n, const double *S,
                    idx stride, idx start, idx end, idx kmax, double *buf, double *first,
                    double *last)
{
    poly P = {x, y, e, n};
    for (idx r0 = 0; r0 <= kmax; r0 += stride) {
        idx h = kmax - r0 < stride - 1 ? kmax - r0 : stride - 1;
        const double *top = S + r0 / stride * n;
        replay(&P, top, r0, h, start, buf, first + r0, 0);
        replay(&P, top, r0, h, ((end + 1 - 2 * (r0 + h)) % n + n) % n, buf, last + r0, 1);
    }
}

/* reconstruct: the k pairs of the arc (start, 2k) in walk order into
   pairs (k x 2). From the arc (s, 2k') it replays the block of rows r0 ..
   k' - 1, r0 the checkpoint below k', at the starts s .. s + 2(k' - r0)
   that the next k' - r0 moves can reach, into tri: row r0 + d at offset
   d * w - d * (d - 1), w - 2d floats, w = 2(k' - r0) + 1. tri holds
   stride * (stride + 2) floats. */
CLONES void bn_walk(const double *x, const double *y, const double *e, idx n, const double *S,
                    idx stride, idx start, idx k, double *tri, idx *pairs)
{
    poly P = {x, y, e, n};
    idx s = start;
    while (k > 0) {
        idx r0 = (k - 1) / stride * stride, h = k - r0, w = 2 * h + 1, s0 = s;
        gather(tri, S + r0 / stride * n, n, s0, w);
        for (idx d = 1; d < h; d++)
            row(tri + d * w - d * (d - 1), tri + (d - 1) * w - (d - 1) * (d - 2), w, &P, s0,
                w - 2 * d, r0 + d, NULL, 0.0);
        for (; k > r0; k--) {
            idx d = k - 1 - r0, u = (s - s0 + n) % n, j = (s + 2 * k - 1) % n, i = (j + n - 1) % n;
            const double *lo = tri + d * w - d * (d - 1);
            struct moves v = moves(lo[u], lo[u + 1], lo[u + 2], x[s], y[s], x[j], y[j], e[s], e[i]);
            if (!(v.left < v.pair || v.right < v.pair)) {
                *pairs++ = s, *pairs++ = j;
                s = (s + 1) % n;
            } else if (!(v.right < v.left)) {
                *pairs++ = s, *pairs++ = (s + 1) % n;
                s = (s + 2) % n;
            } else {
                *pairs++ = i, *pairs++ = j;
            }
        }
    }
}
