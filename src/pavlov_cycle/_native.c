/* Fixed-step RK4 of the truncated mean-field hierarchy (see meanfield.py).
 *
 * Mirrors meanfield._integrate_numpy term for term: the right-hand side adds
 * its terms in the order rhs does, the stage points are P + (0.5 dt) k, and
 * the update is P + (dt/6)(((k1 + 2 k2) + 2 k3) + k4).  Only the convolution
 * sums are formed differently: conv_m = sum_{k=0}^{m} P_k P_{m-k} is
 * symmetric in k and m - k, so it is summed over k < m - k in ascending k,
 * doubled, and, for even m, given the middle square P_{m/2}^2 last.  That
 * halves the multiply-adds and moves P_3 and beyond by rounding; P_0..P_2
 * never read it.
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

static void rhs(const double *P, double p, long L, double *dP)
{
    const double c0 = 1.0 + 5.0 * p - 2.0 * p * p;
    const double c1 = 2.0 * p * (1.0 - p);
    const double c2 = p * p;

    dP[0] = -c0 * P[0] + P[1] + 1.0;
    dP[1] = -2.0 * P[1] + 2.0 * P[2] + c1 * P[0];
    /* dP_l reads conv_{l-2}, four l at a time: the shared k loop gives four
     * independent chains, and the longer half-sums then take their last
     * terms, so every half-sum still adds in ascending k.  A block starts at
     * l = 2j + 2, so its sums are conv_{2j} .. conv_{2j+3}. */
    long l = 2;
    for (; l + 3 <= L; l += 4) {
        const long j = (l - 2) / 2;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (long k = 0; k < j; k++) {
            const double a = P[k];
            s0 += a * P[l - 2 - k];
            s1 += a * P[l - 1 - k];
            s2 += a * P[l - k];
            s3 += a * P[l + 1 - k];
        }
        s1 += P[j] * P[j + 1];
        s2 += P[j] * P[j + 2];
        s3 += P[j] * P[j + 3];
        s3 += P[j + 1] * P[j + 2];
        dP[l] = term(P, l, L, c1, c2, 2.0 * s0 + P[j] * P[j]);
        dP[l + 1] = term(P, l + 1, L, c1, c2, 2.0 * s1);
        dP[l + 2] = term(P, l + 2, L, c1, c2, 2.0 * s2 + P[j + 1] * P[j + 1]);
        dP[l + 3] = term(P, l + 3, L, c1, c2, 2.0 * s3);
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
