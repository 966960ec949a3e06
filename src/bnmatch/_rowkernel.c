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

   `moves` is the one copy of those expressions. Four jobs use it, each in
   one call: the fill (bn_fill), the replays behind arc_values (bn_arcs),
   the walk of reconstruct (bn_walk) and the 3-chain search of solve
   (bn_search), which replays as bn_arcs does. The replays and the walk
   share `block`, which recomputes the rows above a checkpoint row over the
   starts it reaches. Every buffer comes from the caller.

   An index into a cyclic array wraps at most once along a row, so `row`
   splits a row into pieces, each up to where the first of its operand
   indices wraps: the start s, the end j, the edge j - 1 (mod n), the two
   upper reads of the row below (mod its length) or the end of the starts
   that take the necessity test. Read in place in a full row, the row below
   wraps where s does; read from 0 in a shorter one, it does not. Each piece
   is one `span`, a plain loop over restrict pointers that the compiler
   vectorizes for the clone's ISA.

   Row k at start s needs row k - 1 at s, s + 1 and s + 2 only, so row k0 +
   d at the starts a .. a + w - 1 needs row k0 at a .. a + w - 1 + 2d and
   nothing else. The fill uses that to work in cache (Frigo and Strumpen's
   trapezoids, 2005): a block of h rows over a full row k0 is computed in
   strips of w starts, and each strip computes row k0 + d on its own w
   starts and on a halo of the 2(h - d) starts past them, which the next
   strip computes again. So a strip depends on row k0 alone and its rows
   stay in the L1 cache, and every value is computed by the same
   operations from the same operands as row by row.

   The strips of a block are independent, so the fill shares them between
   two threads (their parallel form, SPAA 2006): the caller and one worker
   each take the next strip that neither has taken, in a tile of its own,
   and the strips of a block start once those of the block below are all
   done. The table comes out the same bits with one thread or two. The
   waits spin on atomic counters with `pause` and yield the CPU only after
   a bounded spin; the worker is pinned to the caller's CPUs but the one
   the caller runs on, and starts with every signal blocked, so signals
   reach the caller's threads only. The replays, the walk, the search and
   bn_reach run on the caller's thread alone.

   bn_reach, the candidate rule, is the one job here that reads no row: the
   arc of 2k points from s turns by at most 2pi/3 iff the rotation from its
   first edge u to its last edge v is at most 2pi/3, which holds iff
   cross(u, v) >= 0 and (dot(u, v) >= 0 or 4 dot^2 <= |u|^2 |v|^2). In
   floats, with eps = 2^-53 and u, v the rounded differences of the
   coordinates, an arc is dropped only where that surely fails in exact
   arithmetic: where the rounded cross product l - r, l = ux vy and r = uy
   vx, is below -((3 + 16 eps) eps (|l| + |r|) + 2^-1072), or where dot < 0
   and q = 4 dot^2 > (1 + 32 eps) |u|^2 |v|^2, all rounded, with q finite
   and |u|^2, |v|^2 >= 2^-500. Everywhere else the arc counts in, so the
   arcs kept include every arc the exact rule keeps; `within` derives the
   bound. */
#define _GNU_SOURCE
#include <float.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stddef.h>
#include <string.h>

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__linux__)
#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONES
#endif
#define INLINE static inline __attribute__((always_inline))
#if defined(__x86_64__) || defined(__i386__)
#define PAUSE() __builtin_ia32_pause()
#else
#define PAUSE() ((void)0)
#endif

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
INLINE idx least(idx a, idx b) { return b < a ? b : a; }
INLINE idx wrap(idx i, idx n) { return i < n ? i : i - n; }

INLINE struct moves moves(double b0, double b1, double b2, double xs, double ys,
                          double xj, double yj, double el, double er)
{
    struct moves v = {max2(b1, d2(xs, ys, xj, yj)), max2(b2, el), max2(b0, er)};
    return v;
}

INLINE double value(struct moves v) { return min2(v.pair, min2(v.left, v.right)); }

/* The necessity test: the float pair strictly beats both float edge moves,
   so a float tie is not flagged. Nor is an exact win that rounding turns
   into a float tie; whether that can lose the optimum is open (ROADMAP.md,
   the exact-rational reference). */
INLINE int necessary(struct moves v) { return v.pair < min2(v.left, v.right); }

/* out[t] for t < len; with reach, also the count of t that pass the
   necessity test, in a loop of its own: gcc does not unswitch one loop */
INLINE idx span(double *restrict out, const double *restrict b0, const double *restrict b1,
                const double *restrict b2, const double *restrict xs, const double *restrict ys,
                const double *restrict xj, const double *restrict yj, const double *restrict el,
                const double *restrict er, idx len, idx k, const idx *restrict reach)
{
    idx c = 0;
    if (reach) {
        for (idx t = 0; t < len; t++) {
            struct moves v = moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]);
            c += (k <= reach[t]) & necessary(v);
            out[t] = value(v);
        }
    } else {
        for (idx t = 0; t < len; t++)
            out[t] = value(moves(b0[t], b1[t], b2[t], xs[t], ys[t], xj[t], yj[t], el[t], er[t]));
    }
    return c;
}

/* Row k at the starts s + t (mod n), t < len <= n, into out[t], piece by
   piece (see above), from the row below, whose value at start s + t is
   lo[(at + t) % lo_n]. The first nr starts take the necessity test, start
   s + t with reach reach[t], and it returns the count that pass. */
INLINE idx row(double *out, const double *lo, idx lo_n, idx at, const poly *P, idx s, idx len,
               idx k, const idx *reach, idx nr)
{
    idx n = P->n, j = wrap(s + 2 * k - 1, n), r = j ? j - 1 : n - 1, c = 0;
    idx u = wrap(at + 1, lo_n), v = wrap(u + 1, lo_n);
    for (idx t = 0, p; t < len; t += p) {
        p = least(least(least(len, t < nr ? nr : len) - t, least(n - s, n - j)),
                  least(least(n - r, lo_n - u), lo_n - v));
        c += span(out + t, lo + at, lo + u, lo + v, P->x + s, P->y + s, P->x + j, P->y + j,
                  P->e + s, P->e + r, p, k, t < nr ? reach + t : NULL);
        s = wrap(s + p, n), j = wrap(j + p, n), r = wrap(r + p, n);
        at = wrap(at + p, lo_n), u = wrap(u + p, lo_n), v = wrap(v + p, lo_n);
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
    idx *ij;
    double *bases;
} fill;

/* The arcs (a + t, 2k), t < len (a + len <= n), that pass the necessity
   test, as diagonals (i, j), with their values, into ij and bases from
   entry c on. lo, lo_n and at give the row below as in row. */
static void emit(const fill *F, const double *lo, idx lo_n, idx at, idx a, idx len, idx k, idx c)
{
    const double *x = F->P.x, *y = F->P.y, *e = F->P.e;
    idx n = F->P.n, j = wrap(a + 2 * k - 1, n);
    for (idx s = a; s < a + len; s++, j = wrap(j + 1, n), at = wrap(at + 1, lo_n)) {
        if (F->reach[s] < k)
            continue;
        idx t1 = wrap(at + 1, lo_n), t2 = wrap(t1 + 1, lo_n);
        struct moves v = moves(lo[at], lo[t1], lo[t2], x[s], y[s], x[j], y[j], e[s],
                               e[j ? j - 1 : n - 1]);
        if (necessary(v)) {
            F->ij[2 * c] = s;
            F->ij[2 * c + 1] = j;
            F->bases[c++] = value(v);
        }
    }
}

/* What the fill's threads share. The strips of the call's blocks are
   numbered on from 0, block by block, and `next` is the first that no
   thread has taken; `done` counts the strips finished. `open` is the block
   whose strips may run, numbered on from 0 too, or -1 once the worker is
   to stop. `count` counts the arcs found, also those past cap. */
typedef struct {
    fill F;
    double *pp, *tile;
    idx h, w, tn, cap, k0, *st;
    _Alignas(64) _Atomic idx next;
    _Alignas(64) _Atomic idx done;
    _Alignas(64) _Atomic idx open;
    _Alignas(64) _Atomic idx count;
} team;

/* One strip of a block, in thread t's tile: rows k0 + 1 .. k0 + h at the w
   starts a .. a + w - 1 (a + w <= n), from row k0, `in`, read in place from
   a. Row k0 + d is one `row` over those starts and, unless the strip is the
   whole row (w = n), a halo of the 2(h - d) starts past them, into the two
   tn-float halves of the tile, and the last row straight into out + a; each
   row the table keeps is copied into S. Rows <= kmax take the necessity
   test on the strip's own starts only. A row that flags f arcs claims the
   entries c .. c + f - 1 with one add to `count`, and writes their arcs
   into ij and bases there if c + f <= cap. */
INLINE void strip(team *T, idx t, const double *in, double *out, idx k0, idx h, idx a, idx w)
{
    const fill *F = &T->F;
    idx n = F->P.n, g = w < n ? 2 : 0, lo_n = n, at = a;
    const double *lo = in;
    for (idx d = 1; d <= h; d++) {
        idx k = k0 + d, len = w + g * (h - d);
        double *o = d == h ? out + a : T->tile + (2 * t + (d & 1)) * T->tn;
        idx f = row(o, lo, lo_n, at, &F->P, a, len, k, F->reach + a, k <= F->kmax ? w : 0);
        if (f) {
            idx c = atomic_fetch_add_explicit(&T->count, f, memory_order_relaxed);
            if (c + f <= T->cap)
                emit(F, lo, lo_n, at, a, w, k, c);
        }
        double *keep_row = kept(F->S, n, F->stride, k);
        if (keep_row)
            memcpy(keep_row + a, o, w * sizeof *o);
        lo = o, lo_n = len, at = 0;
    }
}

/* Waits until *v >= at or *v < 0, and returns *v. It spins, and yields the
   CPU after SPINS pauses: two threads that slept at a futex per block took
   turns on one CPU and gained nothing. */
#define SPINS 4096
static idx await(_Atomic idx *v, idx at)
{
    idx got, spin = 0;
    while ((got = atomic_load_explicit(v, memory_order_acquire)) < at && got >= 0) {
        if (spin++ < SPINS)
            PAUSE();
        else
            sched_yield();
    }
    return got;
}

/* The next strip that no thread has taken. */
static idx take(team *T) { return atomic_fetch_add_explicit(&T->next, 1, memory_order_relaxed); }

/* Thread t's part of the fill, from the block of first row k0 on (st[0] at
   the call, which thread 0 may rewrite before a late worker starts), with
   st[1] arcs kept, block 0 open. Each thread takes the next strip that no
   thread has taken, whichever block it is in, and runs it once its block is
   open. Once all of a block's strips are done, thread 0 reads `count`: past
   cap, it stops the worker and sets st = (the block's k0, the count before
   it, the block's count); else it sets st[1] to it and opens the next
   block. The load may be relaxed: the worker's release of `done` orders its
   strips' adds before thread 0's acquire. When the fill is done, st = (the
   k0 past the last block, the count, 0). */
INLINE void blocks(team *T, idx t)
{
    idx n = T->F.P.n, half = n / 2, h = T->h, k0 = T->k0, first = 0;
    idx mine = take(T);
    for (idx j = 0, b = (k0 - 1) / h; k0 < half; k0 += h, j++, b++) {
        idx hb = half - k0 < h ? half - k0 : h;
        idx ws = T->w + 2 * hb <= n ? T->w : n, strips = ws < n ? (n + ws - 1) / ws : 1;
        const double *in = b ? T->pp + (b - 1) % 2 * n : T->F.P.e;
        double *out = T->pp + b % 2 * n;
        for (; mine < first + strips; mine = take(T)) {
            idx a = (mine - first) * ws;
            if (t && await(&T->open, j) < 0)
                return;
            strip(T, t, in, out, k0, hb, a, n - a < ws ? n - a : ws);
            atomic_fetch_add_explicit(&T->done, 1, memory_order_release);
        }
        first += strips;
        if (t)
            continue;
        await(&T->done, first);
        idx c = atomic_load_explicit(&T->count, memory_order_relaxed);
        if (c > T->cap) {
            atomic_store_explicit(&T->open, -1, memory_order_release);
            T->st[0] = k0, T->st[2] = c - T->st[1];
            return;
        }
        T->st[1] = c;
        atomic_store_explicit(&T->open, j + 1, memory_order_release);
    }
    if (t == 0)
        T->st[0] = k0, T->st[2] = 0;
}

/* The second thread's entry. It carries the clones too: built for the
   baseline ISA, its strips ran 2.6-3x as slow. */
CLONES static void *worker(void *T)
{
    blocks(T, 1);
    return NULL;
}

/* Starts the worker as *id, with every signal blocked, so that signals go
   to the caller's threads, and, on Linux, on the caller's CPUs but the one
   the caller runs on: where it may share that CPU, it can wait behind the
   caller's spin for a whole time slice. Returns 0 if no thread started. */
static int start(team *T, pthread_t *id)
{
    pthread_attr_t attr;
    if (pthread_attr_init(&attr))
        return 0;
#ifdef __linux__
    cpu_set_t cpus;
    int cpu = sched_getcpu();
    if (cpu >= 0 && cpu < CPU_SETSIZE && !sched_getaffinity(0, sizeof cpus, &cpus)) {
        CPU_CLR(cpu, &cpus);
        if (CPU_COUNT(&cpus))
            pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus);
    }
#endif
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    int started = !pthread_create(id, &attr, worker, T);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    return started;
}

/* The fill, in blocks of h rows. e receives row 1, the edges, which is the
   first block's input row; S, zeroed, receives the rows k % stride == 0
   and the row n/2 (kept). From its full input row k0 a block computes rows
   k0 + 1 .. k0 + h (fewer at the top) strip by strip, each strip w starts
   wide with its own halo (see strip), so strips depend on row k0 only and
   a strip's rows stay in cache; each strip writes its starts of row k0 + h
   into one of the two full rows of pp, the next block's input. Where the
   halo of a strip would reach around the row (w + 2h > n), the block is
   one strip of n starts.

   With threads > 1 and strips narrower than the row, the fill is one
   fork-join of two threads, the caller and a worker (see start), each
   running `blocks`. So the caller never waits for a worker that holds no
   strip, and a worker that starts late takes fewer strips. Every value
   comes from the same operations on the same operands as with one thread.
   tile holds threads * 2 * min(w + 2h, n) floats; a block of one row of n
   starts goes straight into pp and uses none.

   Rows 2 .. kmax take the necessity test, and the diagonal (i, j) of each
   arc that passes and its value go to ij (c x 2) and bases, cap entries
   each, block by block; st[1] counts them. Their order depends on which
   thread ran which strip, so the caller sorts them. Call first with st =
   (1, 0, 0). If the arcs found so far pass cap in some block, returns 1
   with st = (the block's k0, the count before it, the block's count): grow
   ij and bases to at least st[1] + st[2] and call again, which redoes that
   block from its input row in pp. Whether a block overflows depends on its
   count alone, not on which thread ran which strip. Returns 0 when done. */
CLONES int bn_fill(const double *x, const double *y, double *e, idx n, double *S, idx stride,
                   const idx *reach, idx kmax, idx h, idx w, double *pp, double *tile, idx threads,
                   idx *st, idx *ij, double *bases, idx cap)
{
    /* the count starts from st[1], the count before the block to redo */
    team T = {{{x, y, e, n}, S, stride, reach, kmax, ij, bases}, pp, tile, h, w,
              w + 2 * h < n ? w + 2 * h : n, cap, st[0], st, 0, 0, 0, st[1]};
    if (st[0] == 1) {
        for (idx s = 0; s + 1 < n; s++)
            e[s] = d2(x[s], y[s], x[s + 1], y[s + 1]);
        e[n - 1] = d2(x[n - 1], y[n - 1], x[0], y[0]);
        double *r1 = kept(S, n, stride, 1);
        if (r1)
            memcpy(r1, e, n * sizeof *e);
    }
    pthread_t id;
    int two = threads > 1 && w < n && st[0] < n / 2 && start(&T, &id);
    blocks(&T, 0);
    if (two)
        pthread_join(id, NULL);
    return st[2] > 0;
}

/* Where block puts row r0 + d: after the rows below it, of 2h + 1, 2h - 1,
   ... floats. */
INLINE idx tri_row(idx h, idx d) { return d * (2 * h + 1) - d * (d - 1); }

/* Row r0, a checkpoint, gathered over the starts w0 .. w0 + 2h, then rows r0
   + 1 .. r0 + h, each from the one below on two starts fewer: row r0 + d on
   w0 .. w0 + 2(h - d), at tri + tri_row(h, d). tri holds (h + 1)^2 floats. */
INLINE void block(const poly *P, const double *S, idx stride, idx r0, idx h, idx w0, double *tri)
{
    idx len = 2 * h + 1;
    gather(tri, S + r0 / stride * P->n, P->n, w0, len);
    for (idx k = r0 + 1; k <= r0 + h; k++, tri += len, len -= 2)
        row(tri + len, tri, len, 0, P, w0, len - 2, k, NULL, 0);
}

/* arc_values: first[k] and last[k], k <= kmax, are the values of the arcs
   of 2k points that start at `start` and that end at `end`. From each
   checkpoint r0 <= kmax, the block of rows r0 .. r0 + h, h < stride, from
   `start` holds them at its rows' first entries, and the block from the
   start 2(r0 + h) - 1 before `end` at its rows' last entries. tri holds
   (stride + 1)^2 floats. */
CLONES void bn_arcs(const double *x, const double *y, const double *e, idx n, const double *S,
                    idx stride, idx start, idx end, idx kmax, double *tri, double *first,
                    double *last)
{
    poly P = {x, y, e, n};
    for (idx r0 = 0; r0 <= kmax; r0 += stride) {
        idx h = kmax - r0 < stride - 1 ? kmax - r0 : stride - 1;
        block(&P, S, stride, r0, h, start, tri);
        for (idx d = 0; d <= h; d++)
            first[r0 + d] = tri[tri_row(h, d)];
        block(&P, S, stride, r0, h, ((end + 1 - 2 * (r0 + h)) % n + n) % n, tri);
        for (idx d = 0; d <= h; d++)
            last[r0 + d] = tri[tri_row(h, d + 1) - 1];
    }
}

/* solve's 3-chain search over the c candidates (i, j) = (ij[2a], ij[2a + 1])
   in the fill's (i, j) order, with their bases: the least max(base, value
   of the arc of t points from j + 1, value of the arc of rest - t points
   to i - 1) over the even t in [2, rest - 2], where rest = n minus the
   points of <i, j>. A candidate is skipped where its base is at least
   best_one or the best so far, or rest < 4. Across candidates only a
   strictly smaller value replaces the best; within one, the least k =
   (j + t) mod n wins among equal values. Returns the best, inf if no
   candidate gives less, and where one does, its (i, j, k, t) in out. tri
   holds (stride + 1)^2 + n floats: bn_arcs's block and its two rows. */
CLONES double bn_search(const double *x, const double *y, const double *e, idx n,
                        const double *S, idx stride, const idx *ij, const double *bases,
                        idx c, double best_one, double *tri, idx *out)
{
    double best = INFINITY, *first = tri + (stride + 1) * (stride + 1), *last = first + n / 2;
    for (idx a = 0; a < c; a++) {
        idx i = ij[2 * a], j = ij[2 * a + 1], rest = n - (j - i + n) % n - 1, kmax = rest / 2 - 1;
        double base = bases[a], v = best;
        if (base >= best_one || base >= best || rest < 4)
            continue;
        bn_arcs(x, y, e, n, S, stride, (j + 1) % n, (i + n - 1) % n, kmax, tri, first, last);
        /* until a value below best comes, v = best and `at` goes unused */
        idx at = 0;
        for (idx t = 2; t < rest; t += 2) {
            double u = max2(max2(first[t / 2], last[kmax + 1 - t / 2]), base);
            if (u < v || (u == v && (j + t) % n < (j + at) % n))
                v = u, at = t;
        }
        if (v < best)
            best = v, out[0] = i, out[1] = j, out[2] = (j + at) % n, out[3] = at;
    }
    return best;
}

/* reconstruct: the k pairs of the arc (start, 2k) in walk order into
   pairs (k x 2). From the arc (s, 2k') it takes the block of rows r0 ..
   k', r0 the checkpoint below k', from s: the next k' - r0 moves reach
   only its starts. tri holds (stride + 1)^2 floats. */
CLONES void bn_walk(const double *x, const double *y, const double *e, idx n, const double *S,
                    idx stride, idx start, idx k, double *tri, idx *pairs)
{
    poly P = {x, y, e, n};
    idx s = start;
    while (k > 0) {
        idx r0 = (k - 1) / stride * stride, h = k - r0, s0 = s;
        block(&P, S, stride, r0, h, s0, tri);
        for (; k > r0; k--) {
            idx d = k - 1 - r0, u = (s - s0 + n) % n, j = (s + 2 * k - 1) % n, i = (j + n - 1) % n;
            const double *lo = tri + tri_row(h, d);
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

/* Shewchuk's bound on the cross product ("Adaptive precision
   floating-point arithmetic and fast robust geometric predicates", DCG
   1997), plus 2^-1072 for products that underflow, each of which rounds by
   at most 2^-1075; geometry.validate_convex_ccw uses the same bound. */
#define SIGN_ERR ((3.0 + 16.0 * (DBL_EPSILON / 2)) * (DBL_EPSILON / 2))
#define SIGN_TINY 0x1p-1072

INLINE double mag(double a) { return a < 0 ? -a : a; }

/* 0 if the rotation from edge u to edge v, each a rounded difference of
   coordinates, surely exceeds 2pi/3 in exact arithmetic, else 1. It does if
   the cross product is surely negative (Shewchuk's bound), or if the dot
   product is negative and q = 4 dot^2 exceeds r = |u|^2 |v|^2 by more than
   32 eps r. In the second test, with |u|^2, |v|^2 >= 2^-500 (so nothing
   underflows) and q finite, the rounded dot is within 4.02 eps |u||v| of
   the exact one (2 eps from the differences, 2 eps from the products and
   their sum), r within 9.01 eps of the exact |u|^2 |v|^2 and q within eps
   of 4 dot^2, so q > (1 + 32 eps) r gives |dot| > (1 + 10.9 eps) |u||v| / 2:
   an exact dot of the same sign, and 4 dot^2 > |u|^2 |v|^2 exactly. A NaN
   or an infinity fails every comparison that drops an arc. */
INLINE int within(double ux, double uy, double vx, double vy)
{
    double l = ux * vy, r = uy * vx;
    if (l - r < -(SIGN_ERR * (mag(l) + mag(r)) + SIGN_TINY))
        return 0;
    double dot = ux * vx + uy * vy, q = 4.0 * (dot * dot);
    double uu = ux * ux + uy * uy, vv = vx * vx + vy * vy;
    return !(dot < 0 && q <= DBL_MAX && uu >= 0x1p-500 && vv >= 0x1p-500 &&
             q > uu * vv * (1.0 + 32.0 * (DBL_EPSILON / 2)));
}

/* The candidate rule: reach[s], for every start s, is the largest k < n/2
   whose arc of 2k points from s passes `within` from its first edge s -> s
   + 1 to its last edge s + 2k - 2 -> s + 2k - 1, or 0 if n = 2. The exact
   rotation grows with the arc, so the last edge that passes never moves
   back as s moves on: one pass of two pointers, O(n) tests. */
void bn_reach(const double *x, const double *y, idx n, idx *reach)
{
    /* e: the last edge that passes from s, unwrapped, s <= e <= s + n - 3 */
    for (idx s = 0, e = 0; s < n; s++) {
        idx s1 = s + 1 < n ? s + 1 : 0;
        double ux = x[s1] - x[s], uy = y[s1] - y[s];
        for (e = e < s ? s : e; e < s + n - 3; e++) {
            idx a = e + 1 < n ? e + 1 : e + 1 - n, b = a + 1 < n ? a + 1 : 0;
            if (!within(ux, uy, x[b] - x[a], y[b] - y[a]))
                break;
        }
        reach[s] = n < 4 ? 0 : (e - s) / 2 + 1;
    }
}
