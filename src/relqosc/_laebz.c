/* LAPACK dlaebz, the bisection kernel of dstebz, ported to C with the same arguments and the same bits.
 *
 * relqosc.lapack builds this file into a shared library at its first eigensolve and calls relqosc_dlaebz in
 * place of the library's dlaebz_, through the same ctypes signature: every argument by reference, AB and NAB as
 * Fortran (MMAX, 2) arrays.
 *
 * It follows dlaebz's serial path (NBMIN <= 0, as dstebz calls it) for IJOB 1, 2 and 3, and does not read
 * NBMIN, WORK or IWORK. Each iteration of IJOB 2 or 3 takes the open intervals in groups of up to 8 and counts
 * the eigenvalues below the midpoints of a group in one pass over the rows, one Sturm chain per interval,
 * interleaved so that their divides overlap. A count reads only the matrix and its own midpoint, and dlaebz
 * writes no midpoint until the iteration's counts are all taken, so each chain is dlaebz's own arithmetic: the
 * pivot q_j = d_j - e2_{j-1} / q_{j-1} - c, counted where q_j <= PIVMIN and then replaced by min(q_j, -PIVMIN).
 * The group's updates are then applied in interval order, each as dlaebz applies it, so AB, NAB, C, NVAL, MOUT
 * and INFO are dlaebz's bits, INFO = MMAX + 1 included. Build with -ffp-contract=off and without -ffast-math, so
 * that every operation is the single IEEE operation that the Fortran performs.
 */

#include <math.h>

/* dlaebz's serial pivot rule: a pivot q <= PIVMIN counts, and one in [-PIVMIN, PIVMIN] becomes -PIVMIN. */
#define PIVOT(q, count)        \
    do {                       \
        if ((q) <= pivmin) {   \
            (count)++;         \
            if ((q) > -pivmin) \
                (q) = -pivmin; \
        }                      \
    } while (0)

/* sturmW: the counts at the W points x[0 .. W-1], W chains interleaved row by row, each pivot in a register. */
#define STURM(W)                                                                                    \
    static void sturm##W(int n, const double *d, const double *e2, double pivmin, const double *x, \
                         int *count)                                                                \
    {                                                                                               \
        double q[W];                                                                                \
        int i, j;                                                                                   \
        for (i = 0; i < W; i++) {                                                                   \
            q[i] = d[0] - x[i];                                                                     \
            count[i] = 0;                                                                           \
            PIVOT(q[i], count[i]);                                                                  \
        }                                                                                           \
        for (j = 1; j < n; j++) {                                                                   \
            _Pragma("GCC unroll 8")                                                                 \
            for (i = 0; i < W; i++) {                                                               \
                q[i] = d[j] - e2[j - 1] / q[i] - x[i];                                              \
                PIVOT(q[i], count[i]);                                                              \
            }                                                                                       \
        }                                                                                           \
    }

STURM(1)
STURM(2)
STURM(3)
STURM(4)
STURM(5)
STURM(6)
STURM(7)
STURM(8)

static void (*const sturm[9])(int, const double *, const double *, double, const double *, int *) = {
    0, sturm1, sturm2, sturm3, sturm4, sturm5, sturm6, sturm7, sturm8};

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
    int kf = 0, kl = *minp, klnew, kfnew, jit, ji, i, j, width, count[8];

    (void)nbmin, (void)e, (void)work, (void)iwork;
    *info = 0;
    if (*ijob < 1 || *ijob > 3) {
        *info = -1;
        return;
    }
    if (*ijob == 1) {
        /* The counts at both ends of each interval, with IJOB 1's own pivot rule. */
        *mout = 0;
        for (ji = 0; ji < *minp; ji++) {
            for (i = 0; i < 2; i++) {
                double x = ab[ji + i * room], q = d[0] - x;
                int *at = &nab[ji + i * room];
                if (fabs(q) < pivmin)
                    q = -pivmin;
                *at = q <= 0.0;
                for (j = 1; j < rows; j++) {
                    q = d[j] - e2[j - 1] / q - x;
                    if (fabs(q) < pivmin)
                        q = -pivmin;
                    if (q <= 0.0)
                        (*at)++;
                }
            }
            *mout += nhi[ji] - nlo[ji];
        }
        return;
    }
    if (*ijob == 2)
        for (ji = 0; ji < *minp; ji++)
            c[ji] = 0.5 * (lo[ji] + hi[ji]);
    for (jit = 1; jit <= *nitmax; jit++) {
        klnew = kl;
        for (ji = kf; ji < kl; ji += width) {
            width = kl - ji < 8 ? kl - ji : 8;
            sturm[width](rows, d, e2, pivmin, c + ji, count);
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
