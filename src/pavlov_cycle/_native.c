/* Fixed-step RK4 of the truncated mean-field hierarchy (see meanfield.py).
 *
 * Mirrors meanfield._rk4_numpy term for term, so the two give the same
 * bits: the right-hand side adds its terms in the order rhs does, the stage
 * points are P + (0.5 dt) k, and the update is
 * P + (dt/6)(((k1 + 2 k2) + 2 k3) + k4).  Both form the convolution sums
 * alike: conv_m = sum_{k=0}^{m} P_k P_{m-k} is symmetric in k and m - k, so
 * it is summed over k < m - k in ascending k from 0.0, doubled, and, for
 * even m, given the middle square P_{m/2}^2 last.  That halves the
 * multiply-adds.
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
