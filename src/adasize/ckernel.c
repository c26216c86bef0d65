/* The compiled parts of adasize; ckernel.py builds this file on first use.
 *
 * svrg_pick_loop is the pick loop of one SVRG epoch, the compiled twin of the
 * numpy loop in solvers.svrg_epoch.  The inner iterate is w = s*u + r*b.  For
 * each pick i the step reads the sample's margin s*(x_i . u) + r*(x_i . b),
 * scales s by a, sets r to a*r + 1 and moves u on the sample's nonzeros only;
 * s is folded into u before it can underflow.  Every expression keeps the
 * numpy loop's order of operations, the sparse dot product included (summed
 * left to right from 0), and -ffp-contract=off stops the compiler from fusing
 * a multiply and an add into one rounding, so both loops give the same bits.
 *
 * parse_sparse_text reads clean sparse text in one pass, the fast path of
 * data.parse_sparse_text; anything it does not accept goes to the line
 * parser there, which gives the same arrays or reports the bad line.  A
 * number with at most 2^53 in its significant digits and a decimal exponent
 * of at most 22 either way is converted by one exact multiply or divide
 * (Clinger's exact case), which rounds once, as strtod does; every other
 * number goes to strtod.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* d(loss)/d(margin) of one sample: erm.sample_loss_coef, with its two
 * overflow-safe logistic branches (exp of a non-positive argument only). */
double svrg_loss_coef(int logistic, double margin, double label)
{
    if (!logistic)
        return margin - label;
    double z = label * margin;
    if (z >= 0.0) {
        double e = exp(-z);
        return -label * e / (1.0 + e);
    }
    return -label / (1.0 + exp(z));
}

/* Runs the picks in order, updating u in place; sr holds s and r in and out.
 * Returns 0, or -1 at the first pick, row bound or column index out of range
 * (u and sr are then partly updated and must be discarded). */
int svrg_pick_loop(const int64_t *indptr, const int32_t *indices, const double *data,
                   int64_t n_rows, int64_t nnz, int64_t dim,
                   const int64_t *picks, int64_t n_picks,
                   const double *coef_anchor, const double *xb, const double *y,
                   int logistic, double a, double eta, double *u, double *sr)
{
    double s = sr[0], r = sr[1];
    for (int64_t p = 0; p < n_picks; p++) {
        int64_t i = picks[p];
        if (i < 0 || i >= n_rows)
            return -1;
        int64_t lo = indptr[i], hi = indptr[i + 1];
        if (lo < 0 || hi < lo || hi > nnz)
            return -1;
        double dot = 0.0;
        for (int64_t k = lo; k < hi; k++) {
            if (indices[k] < 0 || indices[k] >= dim)
                return -1;
            dot += data[k] * u[indices[k]];
        }
        double coef = svrg_loss_coef(logistic, s * dot + r * xb[i], y[i]);
        s *= a;
        r = a * r + 1.0;
        double g = eta * (coef - coef_anchor[i]) / s;
        for (int64_t k = lo; k < hi; k++)
            u[indices[k]] = u[indices[k]] - g * data[k];
        if (s < 1e-100) {
            for (int64_t j = 0; j < dim; j++)
                u[j] *= s;
            s = 1.0;
        }
    }
    sr[0] = s;
    sr[1] = r;
    return 0;
}

static int is_blank(char c)
{
    return c == ' ' || c == '\t';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

static int is_number_byte(char c)
{
    return is_digit(c) || c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E';
}

#if FLT_EVAL_METHOD == 0
/* 1e0 to 1e22, each a double exactly (5^22 < 2^53). */
static const double exact_pow10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};
#endif

/* Converts [s, end) when it is [+-] digits [. digits] [(e|E) [+-] digits],
 * with a digit before or after the point, its digits without the point make
 * an integer m <= 2^53 and its value is m * 10^k with |k| <= 22 (Clinger's
 * exact case).  m and 10^|k| are then doubles exactly, so one multiply or
 * divide rounds m * 10^k once, to the double strtod gives; the sign comes
 * last, so "-0" is -0.0.  Reading stops once m passes 2^53, or the exponent
 * 99999, so neither overflows.  Returns 1 and sets *x, or 0 for strtod to
 * read the run.  Where doubles are evaluated in a wider format, which would
 * round twice, it always returns 0. */
static int exact_decimal(const char *s, const char *end, double *x)
{
#if FLT_EVAL_METHOD == 0
    int neg = 0, digits = 0;
    uint64_t m = 0;
    int64_t k = 0;
    if (s < end && (*s == '+' || *s == '-'))
        neg = *s++ == '-';
    for (int frac = 0; s < end; s++) {
        if (*s == '.' && !frac) {
            frac = 1;
            continue;
        }
        if (!is_digit(*s))
            break;
        digits = 1;
        k -= frac;
        if ((m = 10 * m + (uint64_t)(*s - '0')) > (UINT64_C(1) << 53))
            return 0;
    }
    if (!digits)
        return 0;
    if (s < end && (*s == 'e' || *s == 'E')) {
        int eneg = 0;
        int64_t e = 0;
        if (++s < end && (*s == '+' || *s == '-'))
            eneg = *s++ == '-';
        if (s == end || !is_digit(*s))
            return 0;
        for (; s < end && is_digit(*s); s++)
            if ((e = 10 * e + (*s - '0')) > 99999)
                return 0;
        k += eneg ? -e : e;
    }
    if (s != end || k < -22 || k > 22)
        return 0;
    double v = k < 0 ? (double)m / exact_pow10[-k] : (double)m * exact_pow10[k];
    *x = neg ? -v : v;
    return 1;
#else
    (void)s;
    (void)end;
    (void)x;
    return 0;
#endif
}

/* Reads the number at *p: a nonempty run of is_number_byte bytes that
 * exact_decimal converts, or else strtod converts to its last byte.  Under a
 * locale whose decimal point is not '.', strtod stops short and the text is
 * refused, unless exact_decimal read it.  A byte after the run other than a
 * blank or newline fails the next field.  Returns 0 and moves *p past the
 * number, or -1. */
static int read_number(const char **p, const char *end, double *x)
{
    const char *q = *p;
    char *stop;
    while (q < end && is_number_byte(*q))
        q++;
    if (q == *p)
        return -1;
    if (!exact_decimal(*p, q, x)) {
        *x = strtod(*p, &stop);
        if (stop != q)
            return -1;
    }
    *p = q;
    return 0;
}

/* Parses lines of `<label> <index>:<value> ...`, fields parted by spaces and
 * tabs, lines by '\n'; blank lines hold no sample.  A label or value is a
 * number read by read_number, an index plain digits, 1 to 2^31 - 1 and
 * strictly increasing within its line.  Zero values are dropped.  text must
 * hold len bytes followed by a NUL, at which strtod stops.
 *
 * Writes each line's raw label, the CSR row bounds (indptr: max_rows + 1
 * entries), the 0-based indices and the values (max_nnz entries each), and
 * out = {rows, nonzeros, largest index}.  Returns 0, or -1 at the first byte
 * or field outside this grammar or a write past a capacity; the arrays then
 * hold nothing of use. */
int parse_sparse_text(const char *text, int64_t len, double *labels, int32_t *indptr,
                      int64_t max_rows, int32_t *indices, double *values, int64_t max_nnz,
                      int64_t *out)
{
    const char *p = text, *end = text + len;
    int64_t rows = 0, nnz = 0, max_idx = 0;
    if (max_rows < 0 || max_nnz < 0 || max_nnz > INT32_MAX)
        return -1;
    indptr[0] = 0;
    while (p < end) {
        while (p < end && is_blank(*p))
            p++;
        if (p < end && *p == '\n') {
            p++;
            continue;
        }
        if (p == end)
            break;
        if (rows == max_rows || read_number(&p, end, &labels[rows]) != 0)
            return -1;
        int64_t prev = 0;
        for (;;) {
            while (p < end && is_blank(*p))
                p++;
            if (p == end || *p == '\n')
                break;
            const char *digits = p;
            int64_t idx = 0;
            while (p < end && is_digit(*p)) {
                idx = 10 * idx + (*p - '0');
                if (idx > INT32_MAX)
                    return -1;
                p++;
            }
            double x;
            if (p == digits || p == end || *p != ':' || idx <= prev)
                return -1;
            p++;
            if (read_number(&p, end, &x) != 0)
                return -1;
            prev = idx;
            if (x != 0.0) {
                if (nnz == max_nnz)
                    return -1;
                indices[nnz] = (int32_t)(idx - 1);
                values[nnz++] = x;
            }
        }
        if (prev > max_idx)
            max_idx = prev;
        indptr[++rows] = (int32_t)nnz;
    }
    out[0] = rows;
    out[1] = nnz;
    out[2] = max_idx;
    return 0;
}
