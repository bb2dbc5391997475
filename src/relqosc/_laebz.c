/* LAPACK dlaebz, the bisection kernel of dstebz, ported to C with the same arguments and the same bits.
 *
 * relqosc.lapack builds this file into a shared library at its first eigensolve and calls relqosc_dlaebz in
 * place of the library's dlaebz_, through the same ctypes signature: every argument by reference, AB and NAB as
 * Fortran (MMAX, 2) arrays.
 *
 * It follows dlaebz's serial path (NBMIN <= 0, as dstebz calls it) for IJOB 1, 2 and 3, and does not read NBMIN
 * or IWORK. A count reads only the matrix and its own point (Demmel, Dhillon and Ren, ETNA 3 (1995) 116), so the
 * port counts several points in one pass over the rows, one Sturm chain per point, interleaved so that their
 * divides overlap, and each chain is dlaebz's own arithmetic. IJOB 1 counts both ends of every interval, up to 8
 * points per pass, with its own pivot rule: a pivot |q_j| < PIVMIN becomes -PIVMIN, and q_j <= 0 counts. IJOB 2
 * and 3 count with the serial rule: the pivot q_j = d_j - e2_{j-1} / q_{j-1} - c is counted where q_j <= PIVMIN
 * and then replaced by min(q_j, -PIVMIN). dlaebz writes no midpoint until an iteration's counts are all taken,
 * and the port then applies each interval's update in interval order, as dlaebz applies it, so AB, NAB, C, NVAL,
 * MOUT and INFO are dlaebz's bits, INFO = MMAX + 1 included.
 *
 * Kernels. Where the CPU has AVX2 (asked at each call, of the CPU model that libgcc reads at load), a pass counts
 * up to 16 points as GCC vectors of 4 chains, up to 4 vectors interleaved; elsewhere, and for IJOB 1 everywhere,
 * up to 8 scalar chains. A vector divide, subtract and compare is the scalar operation in each lane, and
 * -ffp-contract=off keeps every one of them single, so both kernels count the same. Microseconds per pass on the
 * scaled N = 16000 operators of relqosc's default 1d-ho and 2d-iso models, points spread over their 5 lowest
 * eigenvalues (2 vCPU Xeon with AVX2, medians of 41), for the whole length, and cut off on 1d-ho and on 2d-iso:
 *     points     AVX2 kernel                    scalar kernel
 *     1          102-103 / 91 / 64              107-108 / 95 / 67
 *     2-3        102-103 / 97 / 72-73           107-109 / 101-103 / 75-76
 *     4          102-103 / 97 / 72              130-141 / 123-134 / 91
 *     5-6        110 / 105 / 77                 129-143 / 123-137 / 91
 *     7-8        110 / 105 / 77                 150-171 / 142-163 / 105-121
 *     9-12       141 / 125-130 / 87-93
 *     13-16      177-182 / 150-161 / 101-114
 * A chain's pivot waits for its divide, so one vector of 4 chains takes what one chain takes, and 16 chains take
 * 1.7 times that, against 1.6 times for 8 scalar chains. The vectors hold the points in ascending order, and a
 * vector retires at the first check row where all 4 of its chains may stop, so the rest run faster. In the k = 5
 * and 8 bisections of the default models at N = 8000 to 32000, on one lane, the AVX2 passes ran 0.88-0.91 of
 * their chains' rows on 1d-ho, whose grid starts in a forbidden tail that no chain can skip, and 0.69-0.73 on the
 * other families; IJOB 1's two chains ran 0.78-0.81 and 0.56-0.57.
 *
 * Multisection. With m intervals open, an IJOB 2 or 3 pass that misses the memo counts, for each open interval
 * [lo, hi] with point c, the next L levels of its bisection tree: c, then the same for [lo, c] with point
 * 0.5 (lo + c) and for [c, hi] with point 0.5 (c + hi), each distinct point once, where L is the largest depth
 * with m (2^L - 1) <= the kernel's budget (16 for AVX2, 3 for the scalar kernel, whose pass of 7 chains was
 * slower than one of 3), and at least 1; with more intervals open than the pass width, groups of that width
 * take one level each. An update keeps [lo, c] or [c, hi], splits the interval into both, or converges, so the
 * next L - 1 iterations find every midpoint among these points, written by the same operations. The call keeps
 * the points and counts of its last pass in a memo on its own stack, and a group whose points all equal memo
 * points, bit for bit, takes their counts without a pass. A count depends only on its point, so the memo holds
 * for the whole call; one that misses costs the group its pass and nothing else, and the port keeps no static
 * state, so calls on several threads at once do not meet.
 *
 * Cut-off. Where WORK is not NULL it holds the bounds that relqosc.lapack._cutoffs builds from D, E2 and
 * PIVMIN alone, and a chain stops at a check row (every 16th) past which no pivot can count or be replaced. With
 * g_j = max(fl(sqrt(e2_j)), P), P the least double above PIVMIN, and g_{n-1} = P, row j >= 1 has the slack
 *     s_j = pred(fl(fl(d_j - fl(e2_{j-1} / g_{j-1})) - g_j)),
 * pred the next double below, so s_j <= (d_j - fl(e2_{j-1} / g_{j-1})) - g_j in exact arithmetic. Claim: if
 * q_{j-1} >= g_{j-1} and x <= s_j, then q_j >= g_j. For q_{j-1} >= g_{j-1} > 0, e2 / q_{j-1} <= e2 / g_{j-1},
 * and rounding to nearest is monotone, so fl(e2 / q_{j-1}) <= fl(e2 / g_{j-1}) =: R_j, fl(d_j - fl(e2 /
 * q_{j-1})) >= fl(d_j - R_j) =: a_j, and q_j = fl(fl(d_j - fl(e2 / q_{j-1})) - x) >= fl(a_j - x). As x <= s_j
 * <= a_j - g_j, a_j - x >= g_j exactly, and g_j is a double, so fl(a_j - x) >= g_j. So if a chain at x has
 * q_j >= g_j at row j and x <= s_i for every row i > j, then by induction q_i >= g_i > PIVMIN for every i > j:
 * no later pivot counts or is replaced under either rule, and the chain's count is final. WORK holds, for the
 * T = (n - 1) / 16 check rows j_t = 16 (t + 1), the suffix minima WORK[t] = min_{i > j_t} s_i (+inf at row
 * n - 1), nondecreasing in t, and WORK[T + t] = g_{j_t}. A pass takes, for each chain, the least t with
 * WORK[t] >= x by binary search (none for x NaN); a scalar pass stops at the first check row, from the largest
 * of these on, at which every chain has q >= g, and an AVX2 pass stops each vector of 4 chains so. A NaN
 * anywhere only ever fails a comparison, so it never cuts a chain. The library's dlaebz does not read WORK on
 * its serial path, so it takes the same arguments.
 *
 * Build with -ffp-contract=off and without -ffast-math, so that every operation is the single IEEE operation
 * that the Fortran performs.
 */

#include <limits.h>
#include <math.h>
#include <string.h>

/* Rows between the cut-off's checks; relqosc.lapack._cutoffs samples WORK at the same rows. */
#define STRIDE 16

/* dlaebz's serial pivot rule (IJOB 2 and 3): a pivot q <= PIVMIN counts, and one in [-PIVMIN, PIVMIN] becomes
   -PIVMIN. */
#define SERIAL(q, count)       \
    do {                       \
        if ((q) <= pivmin) {   \
            (count)++;         \
            if ((q) > -pivmin) \
                (q) = -pivmin; \
        }                      \
    } while (0)

/* IJOB 1's pivot rule: a pivot |q| < PIVMIN becomes -PIVMIN, and a pivot q <= 0 counts. */
#define ENDS(q, count)         \
    do {                       \
        if (fabs(q) < pivmin)  \
            (q) = -pivmin;     \
        if ((q) <= 0.0)        \
            (count)++;         \
    } while (0)

/* The first check t (at row 16 (t + 1)) after which chains at the w points x may stop: the largest, over the
   points, of the least t with WORK[t] >= x, or T where there is none (x NaN); n, which no check reaches, without
   WORK. */
static int first_check(int n, const double *work, const double *x, int w)
{
    int i, from = 0;
    if (!work)
        return n;
    for (i = 0; i < w; i++) {
        int lo = 0, hi = (n - 1) / STRIDE;
        while (lo < hi) {
            const int mid = lo + (hi - lo) / 2;
            if (work[mid] >= x[i])
                hi = mid;
            else
                lo = mid + 1;
        }
        from = lo > from ? lo : from;
    }
    return from;
}

/* Whether row j is a check row after check `from`, where every chain with q >= the floor there may stop, and that
   floor. */
#define CHECK(j, from) ((j) % STRIDE == 0 && (j) / STRIDE > (from))
#define FLOOR(work, n, j) ((work)[((n) - 1) / STRIDE + (j) / STRIDE - 1])

/* NAME##W: the counts at the W points x[0 .. W-1] under the pivot rule RULE, W chains interleaved row by row,
   each pivot in a register, cut off by WORK. */
#define STURM(NAME, RULE, W)                                                                        \
    static void NAME##W(int n, const double *d, const double *e2, double pivmin, const double *work, \
                        const double *x, int *count)                                                \
    {                                                                                               \
        const int from = first_check(n, work, x, W);                                                \
        double q[W];                                                                                \
        int i, j;                                                                                   \
        for (i = 0; i < W; i++) {                                                                   \
            q[i] = d[0] - x[i];                                                                     \
            count[i] = 0;                                                                           \
            RULE(q[i], count[i]);                                                                   \
        }                                                                                           \
        for (j = 1; j < n; j++) {                                                                   \
            _Pragma("GCC unroll 8")                                                                 \
            for (i = 0; i < W; i++) {                                                               \
                q[i] = d[j] - e2[j - 1] / q[i] - x[i];                                              \
                RULE(q[i], count[i]);                                                               \
            }                                                                                       \
            if (CHECK(j, from)) {                                                                   \
                for (i = 0; i < W && q[i] >= FLOOR(work, n, j); i++)                                \
                    ;                                                                               \
                if (i == W)                                                                         \
                    break;                                                                          \
            }                                                                                       \
        }                                                                                           \
    }

#define STURMS(NAME, RULE)                                                                                   \
    STURM(NAME, RULE, 1)                                                                                     \
    STURM(NAME, RULE, 2)                                                                                     \
    STURM(NAME, RULE, 3)                                                                                     \
    STURM(NAME, RULE, 4)                                                                                     \
    STURM(NAME, RULE, 5)                                                                                     \
    STURM(NAME, RULE, 6)                                                                                     \
    STURM(NAME, RULE, 7)                                                                                     \
    STURM(NAME, RULE, 8)                                                                                     \
    static void (*const NAME[9])(int, const double *, const double *, double, const double *, const double *, \
                                 int *) = {0, NAME##1, NAME##2, NAME##3, NAME##4, NAME##5, NAME##6, NAME##7,  \
                                           NAME##8};

STURMS(serial, SERIAL)
STURMS(ends, ENDS)

/* A kernel of IJOB 2 and 3: the counts at w <= width points x in one pass, and the points a multisection pass
   may hold. */
struct kernel {
    int width, budget;
    void (*count)(int n, const double *d, const double *e2, double pivmin, const double *work, const double *x,
                  int w, int *count);
};

static void scalar_count(int n, const double *d, const double *e2, double pivmin, const double *work,
                         const double *x, int w, int *count)
{
    serial[w](n, d, e2, pivmin, work, x, count);
}

static const struct kernel scalar = {8, 3, scalar_count};

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
/* 4 chains in a vector: pivots and points as doubles, counts and comparison masks as 64-bit integers. */
typedef double chains __attribute__((vector_size(32)));
typedef long long tallies __attribute__((vector_size(32)));

/* The serial rule in each lane: a mask is -1 where true, so subtracting it counts. A pivot within PIVMIN of 0 is
   rare, so the replacement waits behind a branch on `near`, the lanes with |q| <= PIVMIN, which the next row's
   divide does not wait for: every lane that the rule replaces is among them. */
#define WIDE_COUNT(q, count, near)                                                        \
    do {                                                                                  \
        (count) -= (q) <= piv;                                                            \
        (near) |= (chains)((tallies)(q) & magnitude) <= piv;                              \
    } while (0)
#define WIDE_PIN(q)                                                                       \
    do {                                                                                  \
        const tallies pin = ((q) <= piv) & ((q) > -piv);                                  \
        (q) = (chains)(((tallies)(q) & ~pin) | ((tallies)(-piv) & pin));                  \
    } while (0)

/* Whether every chain of the vector q, at check row j from its check `from` on, has a pivot at or above the floor
   there, so that the vector may stop. */
#define SETTLED(q, j, from, work, n) (CHECK(j, from) && all_above(q, FLOOR(work, n, j)))

__attribute__((target("avx2"))) static inline int all_above(chains q, double floor)
{
    const chains g = {floor, floor, floor, floor};
    const tallies high = q >= g;
    return high[0] && high[1] && high[2] && high[3];
}

/* A vector of 4 chains: their pivots q, points at and counts below, where its points sit in the pass's order
   (4 id .. 4 id + 3), and the check from which its chains may stop. */
struct quad {
    chains q, at;
    tallies below;
    int id, from;
};

/* wide_rows##V: the V vectors of chains quads[0 .. V-1], interleaved row by row in registers from row j on, up to
   the first check row at which one of them may stop: the row after it, or n. */
#define WIDE_ROWS(V)                                                                                        \
    __attribute__((target("avx2"))) static int wide_rows##V(int n, const double *d, const double *e2,      \
                                                             double pivmin, const double *work, int j,      \
                                                             struct quad *quads)                            \
    {                                                                                                       \
        const chains piv = {pivmin, pivmin, pivmin, pivmin};                                                \
        const tallies magnitude = {LLONG_MAX, LLONG_MAX, LLONG_MAX, LLONG_MAX};                             \
        chains q[V], at[V];                                                                                 \
        tallies below[V];                                                                                   \
        int v, least = quads[0].from;                                                                       \
        for (v = 0; v < V; v++) {                                                                           \
            q[v] = quads[v].q, at[v] = quads[v].at, below[v] = quads[v].below;                              \
            least = quads[v].from < least ? quads[v].from : least;                                          \
        }                                                                                                   \
        for (; j < n; j++) {                                                                                \
            const double dj = d[j], ej = e2[j - 1];                                                         \
            tallies near = {0, 0, 0, 0};                                                                    \
            _Pragma("GCC unroll 4")                                                                         \
            for (v = 0; v < V; v++) {                                                                       \
                q[v] = dj - ej / q[v] - at[v];                                                              \
                WIDE_COUNT(q[v], below[v], near);                                                           \
            }                                                                                               \
            if (near[0] | near[1] | near[2] | near[3]) {                                                    \
                _Pragma("GCC unroll 4")                                                                     \
                for (v = 0; v < V; v++)                                                                     \
                    WIDE_PIN(q[v]);                                                                         \
            }                                                                                               \
            if (CHECK(j, least)) {                                                                          \
                for (v = 0; v < V && !SETTLED(q[v], j, quads[v].from, work, n); v++)                        \
                    ;                                                                                       \
                if (v < V) {                                                                                \
                    j++;                                                                                    \
                    break;                                                                                  \
                }                                                                                           \
            }                                                                                               \
        }                                                                                                   \
        for (v = 0; v < V; v++)                                                                             \
            quads[v].q = q[v], quads[v].below = below[v];                                                   \
        return j;                                                                                           \
    }

WIDE_ROWS(1)
WIDE_ROWS(2)
WIDE_ROWS(3)
WIDE_ROWS(4)

/* The counts at w <= 16 points under the serial rule, as vectors of 4 chains: the points in ascending order, so
   that each vector's chains stop near one another, and the largest filling the last vector. The vectors still
   running are interleaved, and at each check row every vector whose chains may all stop there retires, so that
   the rest run the faster. */
__attribute__((target("avx2"))) static void wide_count(int n, const double *d, const double *e2, double pivmin,
                                                        const double *work, const double *x, int w, int *count)
{
    const chains piv = {pivmin, pivmin, pivmin, pivmin};
    const tallies magnitude = {LLONG_MAX, LLONG_MAX, LLONG_MAX, LLONG_MAX};
    static int (*const rows[5])(int, const double *, const double *, double, const double *, int,
                                struct quad *) = {0, wide_rows1, wide_rows2, wide_rows3, wide_rows4};
    /* Slots first .. vectors - 1 hold the vectors still running. */
    struct quad quads[4];
    double lane[4];
    /* The points' indices, ascending by point. */
    int order[16], vectors = (w + 3) / 4, first = 0, v, i, j;
    for (i = 0; i < w; i++) {
        for (j = i; j > 0 && x[order[j - 1]] > x[i]; j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    for (i = w; i < 4 * vectors; i++)
        order[i] = order[w - 1];
    for (v = 0; v < vectors; v++) {
        struct quad *quad = &quads[v];
        tallies near = {0, 0, 0, 0};
        for (i = 0; i < 4; i++)
            lane[i] = x[order[4 * v + i]];
        memcpy(&quad->at, lane, sizeof quad->at);
        quad->id = v;
        quad->from = first_check(n, work, lane, 4);
        quad->q = d[0] - quad->at;
        quad->below = near;
        WIDE_COUNT(quad->q, quad->below, near);
        WIDE_PIN(quad->q);
    }
    for (j = 1; j < n && first < vectors;) {
        j = rows[vectors - first](n, d, e2, pivmin, work, j, quads + first);
        /* Retire each vector that may stop at the check row j - 1 into slot `first`. */
        for (v = first; v < vectors && j < n; v++) {
            if (SETTLED(quads[v].q, j - 1, quads[v].from, work, n)) {
                const struct quad settled = quads[v];
                quads[v] = quads[first];
                quads[first++] = settled;
            }
        }
    }
    for (v = 0; v < vectors; v++)
        for (i = 0; i < 4; i++)
            count[order[4 * quads[v].id + i]] = (int)quads[v].below[i];
}

static const struct kernel avx2 = {16, 16, wide_count};

static const struct kernel *kernel(void)
{
    return __builtin_cpu_supports("avx2") ? &avx2 : &scalar;
}
#else
static const struct kernel *kernel(void)
{
    return &scalar;
}
#endif

/* Whether each of the w points x equals, bit for bit, one of the nmemo points of the memo: then count holds
   their counts. */
static int recall(const double *x, int w, const double *memo, const int *memo_count, int nmemo, int *count)
{
    int i, j;
    for (i = 0; i < w; i++) {
        for (j = 0; j < nmemo && memcmp(&x[i], &memo[j], sizeof(double)) != 0; j++)
            ;
        if (j == nmemo)
            return 0;
        count[i] = memo_count[j];
    }
    return 1;
}

/* Adds to the memo, each once, the points of the next `levels` levels of the bisection tree of [lo, hi] with
   point c, as dlaebz will compute them. */
static void grow(double lo, double hi, double c, int levels, double *memo, int *nmemo)
{
    int j;
    for (j = 0; j < *nmemo && memcmp(&c, &memo[j], sizeof c) != 0; j++)
        ;
    if (j == *nmemo)
        memo[(*nmemo)++] = c;
    if (levels > 1) {
        grow(lo, c, 0.5 * (lo + c), levels - 1, memo, nmemo);
        grow(c, hi, 0.5 * (c + hi), levels - 1, memo, nmemo);
    }
}

void relqosc_dlaebz(const int *ijob, const int *nitmax, const int *n, const int *mmax, const int *minp,
                    const int *nbmin, const double *abstol, const double *reltol, const double *pivmin_,
                    const double *d, const double *e, const double *e2, int *nval, double *ab, double *c,
                    int *mout, int *nab, double *work, int *iwork, int *info)
{
    const int rows = *n, room = *mmax;
    const double pivmin = *pivmin_;
    /* The columns of AB(MMAX, 2) and NAB(MMAX, 2): lower and upper ends, and the counts there. */
    double *lo = ab, *hi = ab + room;
    int *nlo = nab, *nhi = nab + room;
    /* Intervals kf .. kl - 1 are open, those before kf have converged. */
    int kf = 0, kl = *minp, klnew, kfnew, jit, ji, i, width, count[16];
    /* The points of the last pass and their counts. */
    double memo[16];
    int memo_count[16], nmemo = 0;
    const struct kernel *sturm;

    (void)nbmin, (void)e, (void)iwork;
    *info = 0;
    if (*ijob < 1 || *ijob > 3) {
        *info = -1;
        return;
    }
    if (*ijob == 1) {
        /* The counts at both ends of each interval, lower then upper, 8 points per pass. */
        const int points = 2 * *minp;
        double x[8];
        *mout = 0;
        for (ji = 0; ji < points; ji += width) {
            width = points - ji < 8 ? points - ji : 8;
            for (i = 0; i < width; i++)
                x[i] = ab[(ji + i) / 2 + (ji + i) % 2 * room];
            ends[width](rows, d, e2, pivmin, work, x, count);
            for (i = 0; i < width; i++)
                nab[(ji + i) / 2 + (ji + i) % 2 * room] = count[i];
        }
        for (ji = 0; ji < *minp; ji++)
            *mout += nhi[ji] - nlo[ji];
        return;
    }
    sturm = kernel();
    if (*ijob == 2)
        for (ji = 0; ji < *minp; ji++)
            c[ji] = 0.5 * (lo[ji] + hi[ji]);
    for (jit = 1; jit <= *nitmax; jit++) {
        klnew = kl;
        for (ji = kf; ji < kl; ji += width) {
            width = kl - ji < sturm->width ? kl - ji : sturm->width;
            if (!recall(c + ji, width, memo, memo_count, nmemo, count)) {
                /* The next levels of the trees of the group's intervals, as deep as the budget allows for
                   all the open ones. */
                int levels = 1;
                while ((kl - kf) * ((2 << levels) - 1) <= sturm->budget)
                    levels++;
                nmemo = 0;
                for (i = ji; i < ji + width; i++)
                    grow(lo[i], hi[i], c[i], levels, memo, &nmemo);
                sturm->count(rows, d, e2, pivmin, work, memo, nmemo, memo_count);
                recall(c + ji, width, memo, memo_count, nmemo, count);
            }
            for (i = 0; i < width; i++) {
                const int at = ji + i;
                const double mid = c[at];
                int below = count[i];
                if (*ijob == 2) {
                    /* Keep N(w) monotone, then keep each half that holds eigenvalues: the upper one as a new
                       interval at the end, or INFO = MMAX + 1 when there is no room for it. */
                    below = below > nlo[at] ? below : nlo[at];
                    below = below < nhi[at] ? below : nhi[at];
                    if (below == nhi[at]) {
                        hi[at] = mid;
                    } else if (below == nlo[at]) {
                        lo[at] = mid;
                    } else if (klnew < room) {
                        hi[klnew] = hi[at];
                        nhi[klnew] = nhi[at];
                        lo[klnew] = mid;
                        nlo[klnew] = below;
                        klnew++;
                        hi[at] = mid;
                        nhi[at] = below;
                    } else {
                        *info = room + 1;
                        return;
                    }
                } else {
                    /* The binary search keeps the half that holds the point with count NVAL. */
                    if (below <= nval[at]) {
                        lo[at] = mid;
                        nlo[at] = below;
                    }
                    if (below >= nval[at]) {
                        hi[at] = mid;
                        nhi[at] = below;
                    }
                }
            }
        }
        kl = klnew;
        /* Move each converged interval to the front of the open ones. */
        kfnew = kf;
        for (ji = kf; ji < kl; ji++) {
            const double gap = fabs(hi[ji] - lo[ji]);
            const double end = fabs(hi[ji]) > fabs(lo[ji]) ? fabs(hi[ji]) : fabs(lo[ji]);
            double tol = *abstol > pivmin ? *abstol : pivmin;
            if (tol < *reltol * end)
                tol = *reltol * end;
            if (gap < tol || nlo[ji] >= nhi[ji]) {
                if (ji > kfnew) {
                    double x = lo[ji];
                    int k = nlo[ji];
                    lo[ji] = lo[kfnew], lo[kfnew] = x;
                    x = hi[ji], hi[ji] = hi[kfnew], hi[kfnew] = x;
                    nlo[ji] = nlo[kfnew], nlo[kfnew] = k;
                    k = nhi[ji], nhi[ji] = nhi[kfnew], nhi[kfnew] = k;
                    if (*ijob == 3)
                        k = nval[ji], nval[ji] = nval[kfnew], nval[kfnew] = k;
                }
                kfnew++;
            }
        }
        kf = kfnew;
        for (ji = kf; ji < kl; ji++)
            c[ji] = 0.5 * (lo[ji] + hi[ji]);
        if (kf >= kl)
            break;
    }
    *info = kl - kf > 0 ? kl - kf : 0;
    *mout = kl;
}
