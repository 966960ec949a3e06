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
   restrict pointers that the compiler vectorizes for the clone's ISA. */
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

/* out[t] for t < len; with flag, also flag[t] = k <= reach[t] and the pair
   beats min(left, right) * keep (the necessity test), and returns their
   count */
INLINE idx span(double *restrict out, const double *restrict b0, const double *restrict b1,
                const double *restrict b2, const double *restrict xs, const double *restrict ys,
                const double *restrict xj, const double *restrict yj, const double *restrict el,
                const double *restrict er, idx len, idx k, const idx *restrict reach,
                unsigned char *restrict flag, double keep)
{
    idx c = 0;
    if (flag) {
        for (idx t = 0; t < len; t++) {
            struct moves v = moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]);
            double other = min2(v.left, v.right);
            unsigned char f = (k <= reach[t]) & (v.pair < other * keep);
            flag[t] = f;
            c += f;
            out[t] = min2(v.pair, other);
        }
    } else {
        for (idx t = 0; t < len; t++) {
            struct moves v = moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]);
            out[t] = min2(v.pair, min2(v.left, v.right));
        }
    }
    return c;
}

/* Row k at the starts s0 + t (mod n), t < len <= lo_n, into out[t], from
   the row below, whose value at start s0 + t is lo[t % lo_n]. Flags as in
   span (the fill passes s0 = 0, so reach[t] is the reach of start t). */
INLINE idx row(double *out, const double *lo, idx lo_n, const poly *P, idx s0, idx len, idx k,
               const idx *reach, unsigned char *flag, double keep)
{
    idx n = P->n, m = 2 * k, c = 0;
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
                  flag ? reach + a : NULL, flag ? flag + a : NULL, keep);
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

/* Where the fill puts row k >= 1: its checkpoint row of S, or one of the
   two rows of pp by parity. */
static double *dest(double *S, double *pp, idx n, idx stride, idx k)
{
    if (k % stride == 0)
        return S + k / stride * n;
    if (k == n / 2)
        return S + (k / stride + 1) * n;
    return pp + (k & 1) * n;
}

/* The flagged starts of row k, with their values, appended at c; the new count. */
static idx emit(const unsigned char *flag, const double *out, idx n, idx k, idx *ks,
                double *bases, idx c)
{
    for (const unsigned char *f = memchr(flag, 1, n); f; f = memchr(f + 1, 1, flag + n - f - 1)) {
        ks[2 * c] = k;
        ks[2 * c + 1] = f - flag;
        bases[c++] = out[f - flag];
    }
    return c;
}

/* The fill from row st[0] (1 on the first call) to n/2. e receives row 1,
   the edges, and every row k, row 1 too, goes where dest puts it: S,
   zeroed, holds the rows k % stride == 0 and the row n/2, and pp 2n
   floats. Rows 2 .. kmax take the necessity test, and each flagged arc
   (k, start) and its value go to ks (c x 2) and bases, cap entries each.
   st[1] counts them. If a row's arcs do not fit, returns 1 with st =
   (that row, the count, the row's flags), its values and flags kept in
   place: grow ks and bases to the count plus the row's flags and call
   again. Returns 0 when done. */
CLONES int bn_fill(const double *x, const double *y, double *e, idx n, double *S, idx stride,
                   const idx *reach, idx kmax, double keep, double *pp, unsigned char *flag,
                   idx *st, idx *ks, double *bases, idx cap)
{
    poly P = {x, y, e, n};
    idx k = st[0], c = st[1];
    if (k == 1) {
        for (idx s = 0; s + 1 < n; s++)
            e[s] = d2(x[s], y[s], x[s + 1], y[s + 1]);
        e[n - 1] = d2(x[n - 1], y[n - 1], x[0], y[0]);
        memcpy(dest(S, pp, n, stride, 1), e, n * sizeof *S);
        k = 2;
    } else if (st[2]) {
        c = emit(flag, dest(S, pp, n, stride, k), n, k, ks, bases, c);
        k++;
    }
    for (; k <= n / 2; k++) {
        double *out = dest(S, pp, n, stride, k);
        const double *lo = dest(S, pp, n, stride, k - 1);
        if (k > kmax) {
            row(out, lo, n, &P, 0, n, k, NULL, NULL, keep);
            continue;
        }
        idx got = row(out, lo, n, &P, 0, n, k, reach, flag, keep);
        if (got > cap - c) {
            st[0] = k, st[1] = c, st[2] = got;
            return 1;
        }
        if (got)
            c = emit(flag, out, n, k, ks, bases, c);
    }
    st[0] = k, st[1] = c, st[2] = 0;
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
        row(next, cur, w, P, w0, len, r0 + d, NULL, NULL, 0.0);
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
                w - 2 * d, r0 + d, NULL, NULL, 0.0);
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
