/* The two sweeps of biofilm1d.elliptic, compiled: the same IEEE-754
 * operations in the same order as the Python loops there, so every result
 * is bitwise theirs.  Build with -ffp-contract=off (no fused multiply-add).
 * The file includes no header and calls no function, so no libm routine
 * can enter a result. */

/* Thomas sweep of the package's stencil (row 0 superdiagonal -2, interior
 * rows -1/-1, Dirichlet row n-1 without subdiagonal) into x, with gamma as
 * workspace (n entries).  Returns -1, or the row whose pivot magnitude is
 * below floor. */
long thomas_sweep(long n, const double *diag, const double *rhs,
                  double *gamma, double *x, double floor)
{
    long p = 0, k;
    double g, yk, piv;

    /* Leading rows with diagonal exactly 2: forward values are the running
     * sum from r_0 / 2, as np.add.accumulate makes it. */
    if (diag[0] == 2.0) {
        while (p < n - 1 && diag[p] == 2.0)
            p++;
    }
    if (p) {
        x[0] = rhs[0] / 2.0;
        for (k = 1; k < p; k++)
            x[k] = x[k - 1] + rhs[k];
        g = -1.0;
        yk = x[p - 1];
        k = p;
    } else {
        piv = diag[0];
        if (-floor < piv && piv < floor)
            return 0;
        g = -2.0 / piv;
        yk = rhs[0] / piv;
        x[0] = yk;
        if (n == 1)
            return -1;
        gamma[0] = g;
        k = 1;
    }
    for (; k < n - 1; k++) {
        piv = diag[k] + g;
        if (-floor < piv && piv < floor)
            return k;
        g = -1.0 / piv;
        yk = (rhs[k] + yk) / piv;
        gamma[k] = g;
        x[k] = yk;
    }
    piv = diag[n - 1] - 0.0 * g;
    if (-floor < piv && piv < floor)
        return n - 1;
    x[n - 1] = (rhs[n - 1] - 0.0 * yk) / piv;
    for (k = n - 2; k >= p; k--)
        x[k] = x[k] - gamma[k] * x[k + 1];
    /* gamma = -1 on the leading run: the running sum back from x_p */
    for (k = p - 1; k >= 0; k--)
        x[k] = x[k + 1] + x[k];
    return -1;
}

/* The stencil with diagonal 2 + sk (last row 1), right-hand side -0.0 and
 * dirichlet on the last row, n >= 2: the pivot ratios -gamma_k, then their
 * cumulative product from the Dirichlet row, as np.cumprod makes it. */
void homogeneous_sweep(long n, const double *sk, double dirichlet, double *x)
{
    long k;
    double h = 2.0 / (2.0 + sk[0]);

    x[0] = h;
    for (k = 1; k < n - 1; k++) {
        h = 1.0 / ((2.0 + sk[k]) - h);
        x[k] = h;
    }
    x[n - 1] = dirichlet + 0.0;
    for (k = n - 2; k >= 0; k--)
        x[k] = x[k + 1] * x[k];
}
