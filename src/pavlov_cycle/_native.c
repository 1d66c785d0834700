/* Three kernels, each the fast path of a reference it gives the same bits
 * as.
 *
 * mf_rk4: fixed-step RK4 of the truncated mean-field hierarchy (see
 * meanfield.py).  Mirrors meanfield._rk4_numpy term for term: the right-hand
 * side adds its terms in the order rhs does, the stage points are
 * P + (0.5 dt) k, and the update is P + (dt/6)(((k1 + 2 k2) + 2 k3) + k4).
 * Both form the convolution sums alike: conv_m = sum_{k=0}^{m} P_k P_{m-k}
 * is symmetric in k and m - k, so it is summed over k < m - k in ascending
 * k from 0.0, doubled, and, for even m, given the middle square P_{m/2}^2
 * last.  That halves the multiply-adds.
 *
 * merge_min: the certificate's merge margin (see weights.py), the minimum
 * over 1 <= a <= b, a + b <= n of (w[a] + w[b]) - w[a + b], which
 * weights._merge_min_numpy takes one row of b at a time.  Each value is one
 * sum and one difference, and a minimum of the same values is the same in
 * any order, so the two agree bit for bit.
 *
 * drift_sums: the two sums of weights.one_step_drift for one state, W and
 * n times the expected one-step change, which weights._drift_sums_python
 * forms in Python.  Both read the runs from the first boundary on and add
 * the same terms in the same order from 0.0, with the same parentheses, so
 * the two agree bit for bit.
 *
 * Built by _native.py with -O2 -ffp-contract=off and no -ffast-math, so no
 * multiply-add is fused and the IEEE operations are the ones written here.
 */

#include <math.h>
#include <string.h>

static inline double term(const double *P, long l, long L, double c1, double c2, double conv)
{
    const double next = l < L ? P[l + 1] : 0.0; /* the closure P_{L+1} = 0 */
    return -2.0 * P[l] + 2.0 * next + c1 * P[l - 1] * P[0] + c2 * conv;
}

/* Where GCC can clone a function per instruction set (x86-64, with glibc's
 * loader to resolve the choice), rhs is built twice, for AVX2 and for the
 * baseline, and the clone the CPU supports is picked when the library loads.
 * The four lanes below then run as one AVX2 instruction or as whatever the
 * baseline vectoriser makes of them; each lane is the same chain of IEEE
 * multiplies and adds either way, and "avx2" does not enable FMA.  Other
 * compilers and targets build the one plain function. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
#define RHS_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define RHS_CLONES
#endif

RHS_CLONES
static void rhs(const double *P, double p, long L, double *dP)
{
    const double c0 = 1.0 + 5.0 * p - 2.0 * p * p;
    const double c1 = 2.0 * p * (1.0 - p);
    const double c2 = p * p;

    dP[0] = -c0 * P[0] + P[1] + 1.0;
    dP[1] = -2.0 * P[1] + 2.0 * P[2] + c1 * P[0];
    /* dP_l reads conv_{l-2}, four l at a time.  A block starts at l = 2j + 2,
     * so its sums are conv_{2j} .. conv_{2j+3}; for k < j, lane q adds
     * P_k P_{2j+q-k}, and the four factors P_{2j-k} .. P_{2j+3-k} are one
     * contiguous slice.  The longer half-sums then take their last terms, so
     * every half-sum still adds in ascending k. */
    long l = 2;
    for (; l + 3 <= L; l += 4) {
        const long j = (l - 2) / 2;
        double s[4] = {0.0, 0.0, 0.0, 0.0};
        for (long k = 0; k < j; k++) {
            const double a = P[k];
            const double *b = P + (l - 2 - k);
            for (int q = 0; q < 4; q++)
                s[q] += a * b[q];
        }
        s[1] += P[j] * P[j + 1];
        s[2] += P[j] * P[j + 2];
        s[3] += P[j] * P[j + 3];
        s[3] += P[j + 1] * P[j + 2];
        dP[l] = term(P, l, L, c1, c2, 2.0 * s[0] + P[j] * P[j]);
        dP[l + 1] = term(P, l + 1, L, c1, c2, 2.0 * s[1]);
        dP[l + 2] = term(P, l + 2, L, c1, c2, 2.0 * s[2] + P[j + 1] * P[j + 1]);
        dP[l + 3] = term(P, l + 3, L, c1, c2, 2.0 * s[3]);
    }
    for (; l <= L; l++) {
        const long m = l - 2;
        double half = 0.0;
        for (long k = 0; 2 * k < m; k++)
            half += P[k] * P[m - k];
        const double conv = m % 2 ? 2.0 * half : 2.0 * half + P[m / 2] * P[m / 2];
        dP[l] = term(P, l, L, c1, c2, conv);
    }
}

/* Runs n_steps steps from start (L+1 values).  After every stride-th step,
 * and after the last, the state is written to the next row of out, which
 * holds one row of L+1 values per sample.  work holds 6 (L+1) doubles.
 * Returns 0, or the 1-based step after which a value was not finite. */
long mf_rk4(double p, double dt, long n_steps, long stride, long L,
            const double *start, double *out, double *work)
{
    const long m = L + 1;
    double *P = work, *x = work + m;
    double *k1 = work + 2 * m, *k2 = work + 3 * m, *k3 = work + 4 * m, *k4 = work + 5 * m;
    const double half = 0.5 * dt, sixth = dt / 6.0;

    memcpy(P, start, m * sizeof(double));
    for (long step = 1; step <= n_steps; step++) {
        rhs(P, p, L, k1);
        for (long i = 0; i < m; i++)
            x[i] = P[i] + half * k1[i];
        rhs(x, p, L, k2);
        for (long i = 0; i < m; i++)
            x[i] = P[i] + half * k2[i];
        rhs(x, p, L, k3);
        for (long i = 0; i < m; i++)
            x[i] = P[i] + dt * k3[i];
        rhs(x, p, L, k4);
        int finite = 1;
        for (long i = 0; i < m; i++) {
            P[i] = P[i] + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            finite &= isfinite(P[i]) != 0;
        }
        if (!finite)
            return step;
        if (step % stride == 0 || step == n_steps) {
            memcpy(out, P, m * sizeof(double));
            out += m;
        }
    }
    return 0;
}

/* The weights are finite and positive, so every value is finite and none
 * is -0.0 (x - x is +0.0): "s < m ? s : m" then keeps the minimum in any
 * order, and four accumulators each take every fourth b of a row.  They
 * are named scalars, not an array, so GCC keeps them in registers: an array
 * of four took twice as long at n = 3000, a single minimum 3.5 times. */
double merge_min(const double *w, long n)
{
    double m0 = INFINITY, m1 = INFINITY, m2 = INFINITY, m3 = INFINITY;
    for (long a = 1; 2 * a <= n; a++) {
        const double wa = w[a];
        const double *wb = w + a, *wab = w + 2 * a; /* b = a + i, a + b = 2a + i */
        const long count = n - 2 * a + 1;          /* b = a .. n - a */
        long i = 0;
        for (; i + 4 <= count; i += 4) {
            const double s0 = (wa + wb[i]) - wab[i];
            const double s1 = (wa + wb[i + 1]) - wab[i + 1];
            const double s2 = (wa + wb[i + 2]) - wab[i + 2];
            const double s3 = (wa + wb[i + 3]) - wab[i + 3];
            m0 = s0 < m0 ? s0 : m0;
            m1 = s1 < m1 ? s1 : m1;
            m2 = s2 < m2 ? s2 : m2;
            m3 = s3 < m3 ? s3 : m3;
        }
        for (; i < count; i++) {
            const double s = (wa + wb[i]) - wab[i];
            m0 = s < m0 ? s : m0;
        }
    }
    const double lo = m0 < m1 ? m0 : m1, hi = m2 < m3 ? m2 : m3;
    return lo < hi ? lo : hi;
}

/* Entry j of a scan that starts at the first boundary and runs once round
 * the cycle: j goes from first to first + n - 1, wrapping past n - 1. */
static inline signed char at(const signed char *s, long n, long j)
{
    return s[j < n ? j : j - n];
}

/* The end of the run that starts at j: the next position with another
 * entry, or first + n. */
static inline long run_end(const signed char *s, long n, long first, long j)
{
    long k = j + 1;
    while (k < first + n && at(s, n, k) == at(s, n, j))
        k++;
    return k;
}

struct drift_sums {
    double w0, change;
};

/* drift_sums: the two sums of weights.one_step_drift for one state of n +-1
 * entries, (w0, change), added as weights._drift_sums_python adds them.  w
 * holds the table's w(0..n), rows its _split_rows (nrows rows of n - 1
 * values, row-major) and cycle_term its _cycle_term.  The result is
 * returned by value, so concurrent callers share nothing. */
struct drift_sums drift_sums(const signed char *s, long n, const double *w,
                             const double *rows, long nrows, double cycle_term)
{
    struct drift_sums d = {0.0, 0.0};
    long first = 0; /* the first boundary: s[first] != s[first - 1] */
    while (first < n && s[first] == s[first ? first - 1 : n - 1])
        first++;
    if (first == n) { /* a uniform cycle */
        if (s[0] == -1) {
            d.w0 = w[n];
            d.change = (double)n * cycle_term;
        }
        return d;
    }
    /* The defector runs in start order: w0 adds their weights, change their
     * split terms, each run's in row order. */
    long runs = 0, head = 0, last = 0; /* their count, first and last lengths */
    for (long j = first; j < first + n;) {
        const long end = run_end(s, n, first, j);
        if (at(s, n, j) == -1) {
            const long len = end - j;
            d.w0 += w[len];
            for (long r = 0; r < nrows; r++)
                d.change += rows[r * (n - 1) + len - 1];
            if (runs++ == 0)
                head = len;
            last = len;
        }
        j = end;
    }
    /* Then the cooperator runs in start order, each between the defector
     * runs before and after it: the last one before the first cooperator
     * run, the first one after the last. */
    long left = last;
    for (long j = first; j < first + n;) {
        const long end = run_end(s, n, first, j);
        if (at(s, n, j) == -1) {
            left = end - j;
        } else {
            const long right = end < first + n ? run_end(s, n, first, end) - end : head;
            if (end - j > 1)
                d.change += w[left + 1] - w[left] + w[right + 1] - w[right];
            else if (runs > 1) /* a lone cooperator: its two neighbours merge */
                d.change += 2.0 * (w[left + 1 + right] - w[left] - w[right]);
            else /* the last cooperator: the whole cycle becomes one run */
                d.change += 2.0 * (w[n] - w[left]);
        }
        j = end;
    }
    return d;
}
