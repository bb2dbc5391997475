/* LAPACK dlaebz, the bisection kernel of dstebz, ported to C with the same arguments and the same bits.
 *
 * relqosc.lapack builds this file into a shared library at its first eigensolve and calls relqosc_dlaebz in
 * place of the library's dlaebz_, through the same ctypes signature: every argument by reference, AB and NAB as
 * Fortran (MMAX, 2) arrays.
 *
 * It follows dlaebz's serial path (NBMIN <= 0, as dstebz calls it) for IJOB 1, 2 and 3, and does not read
 * NBMIN, WORK or IWORK. A count reads only the matrix and its own point (Demmel, Dhillon and Ren, ETNA 3 (1995)
 * 116), so the port counts several points in one pass over the rows, one Sturm chain per point, interleaved so
 * that their divides overlap, and each chain is dlaebz's own arithmetic. IJOB 1 counts both ends of every
 * interval, up to 8 points per pass, with its own pivot rule: a pivot |q_j| < PIVMIN becomes -PIVMIN, and
 * q_j <= 0 counts. Each iteration of IJOB 2 or 3 takes the open intervals in groups of up to 8 and counts the
 * midpoints of a group in one pass, with the serial rule: the pivot q_j = d_j - e2_{j-1} / q_{j-1} - c is
 * counted where q_j <= PIVMIN and then replaced by min(q_j, -PIVMIN). dlaebz writes no midpoint until the
 * iteration's counts are all taken, and the group's updates are then applied in interval order, each as dlaebz
 * applies it, so AB, NAB, C, NVAL, MOUT and INFO are dlaebz's bits, INFO = MMAX + 1 included.
 *
 * Where an iteration has one open interval [lo, hi] with point c, its pass counts three points: c, and the
 * quarter points 0.5 (lo + c) and 0.5 (c + hi). The update keeps [lo, c] or [c, hi], splits the interval into
 * both, or converges, so the next midpoints are among these, written by the same operations. The call keeps the
 * points and counts of that pass in a memo on its own stack, and a group whose points all equal memo points, bit
 * for bit, takes their counts without a pass: a lone interval then makes two bisection steps per pass. A count
 * depends only on its point, so the memo holds for the whole call; one that misses costs the group its pass and
 * nothing else, and the port keeps no static state, so calls on several threads at once do not meet. On the scaled N = 16000 operators of relqosc's default 1d-ho and 2d-iso
 * models (2 vCPU Xeon, medians of 41), a pass of 3 chains took 125-130 us against 124-129 us for one chain, and
 * a pass of 7 took 177-199 us. With the quarter points the index search (IJOB 3) of a k = 5 solve took 1.5-1.9
 * ms where it took 2.4-2.9 ms, and 3.2-3.3 ms where it took 5.4-5.7 ms at N = 32000; a second level of quarter
 * points (7 chains, three steps per pass) made it slower than one level, 1.8-2.3 and 3.6-5.1 ms.
 *
 * Build with -ffp-contract=off and without -ffast-math, so that every operation is the single IEEE operation
 * that the Fortran performs.
 */

#include <math.h>
#include <string.h>

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

/* NAME##W: the counts at the W points x[0 .. W-1] under the pivot rule RULE, W chains interleaved row by row,
   each pivot in a register. */
#define STURM(NAME, RULE, W)                                                                        \
    static void NAME##W(int n, const double *d, const double *e2, double pivmin, const double *x,  \
                        int *count)                                                                 \
    {                                                                                               \
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
        }                                                                                           \
    }

#define STURMS(NAME, RULE)                                                                                    \
    STURM(NAME, RULE, 1)                                                                                      \
    STURM(NAME, RULE, 2)                                                                                      \
    STURM(NAME, RULE, 3)                                                                                      \
    STURM(NAME, RULE, 4)                                                                                      \
    STURM(NAME, RULE, 5)                                                                                      \
    STURM(NAME, RULE, 6)                                                                                      \
    STURM(NAME, RULE, 7)                                                                                      \
    STURM(NAME, RULE, 8)                                                                                      \
    static void (*const NAME[9])(int, const double *, const double *, double, const double *, int *) = {     \
        0, NAME##1, NAME##2, NAME##3, NAME##4, NAME##5, NAME##6, NAME##7, NAME##8};

STURMS(serial, SERIAL)
STURMS(ends, ENDS)

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
    int kf = 0, kl = *minp, klnew, kfnew, jit, ji, i, width, count[8];
    /* The points of the last lone interval's pass and their counts. */
    double memo[3];
    int memo_count[3], nmemo = 0;

    (void)nbmin, (void)e, (void)work, (void)iwork;
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
            ends[width](rows, d, e2, pivmin, x, count);
            for (i = 0; i < width; i++)
                nab[(ji + i) / 2 + (ji + i) % 2 * room] = count[i];
        }
        for (ji = 0; ji < *minp; ji++)
            *mout += nhi[ji] - nlo[ji];
        return;
    }
    if (*ijob == 2)
        for (ji = 0; ji < *minp; ji++)
            c[ji] = 0.5 * (lo[ji] + hi[ji]);
    for (jit = 1; jit <= *nitmax; jit++) {
        klnew = kl;
        for (ji = kf; ji < kl; ji += width) {
            width = kl - ji < 8 ? kl - ji : 8;
            if (!recall(c + ji, width, memo, memo_count, nmemo, count)) {
                if (kl - kf == 1) {
                    /* A lone open interval: its point and the midpoints of both halves. */
                    memo[0] = c[ji];
                    memo[1] = 0.5 * (lo[ji] + c[ji]);
                    memo[2] = 0.5 * (c[ji] + hi[ji]);
                    nmemo = 3;
                    serial[3](rows, d, e2, pivmin, memo, memo_count);
                    count[0] = memo_count[0];
                } else {
                    serial[width](rows, d, e2, pivmin, c + ji, count);
                }
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
