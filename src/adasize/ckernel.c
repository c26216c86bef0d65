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
 * parser there, which gives the same arrays or reports the bad line.
 */

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

static int is_number_byte(char c)
{
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E';
}

/* Reads the number at *p: a nonempty run of is_number_byte bytes that strtod
 * converts to its last byte.  Under a locale whose decimal point is not '.',
 * strtod stops short and the text is refused.  A byte after the run other
 * than a blank or newline fails the next field.  Returns 0 and moves *p past
 * the number, or -1. */
static int read_number(const char **p, const char *end, double *x)
{
    const char *q = *p;
    char *stop;
    while (q < end && is_number_byte(*q))
        q++;
    *x = strtod(*p, &stop);
    if (q == *p || stop != q)
        return -1;
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
            while (p < end && *p >= '0' && *p <= '9') {
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
