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
 * parser there, which gives the same arrays or reports the bad line.  It
 * reads only the len bytes it is given, so the text may be any buffer, a
 * read-only file mapping included, with no NUL after it.  The parse can be
 * resumed: a text may be handed over in line-aligned chunks, one call each,
 * and the rows of each chunk follow those of the chunks before it.  A
 * number with at most 2^53 in its significant digits and a decimal exponent
 * of at most 22 either way is converted, in the scan that finds its end, by
 * one exact multiply or divide (Clinger's exact case), which rounds once, as
 * strtod does; every other number goes to strtod, through a NUL-terminated
 * local copy.  On little-endian hosts the digit runs of indices and
 * mantissas are read eight bytes at a time (SWAR: the eight bytes as one
 * uint64_t), and form the same integers as the byte loop, which runs
 * everywhere else.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* 1e0 to 1e22, each a double exactly (5^22 < 2^53). */
static const double exact_pow10[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

/* strtod converts a copy of the number with a NUL after it, in this many
 * bytes, so it takes numbers of up to 63 bytes; the text of a longer one is
 * refused, and the line parser reads it. */
#define STRTOD_COPY_BYTES 64

#if defined(__GNUC__) && defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define SWAR_DIGITS 1

static const uint64_t pow10_u64[] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
};

/* The largest m for which m * 10^8 plus eight digits fits in a uint64_t. */
#define SWAR_MAX_M ((UINT64_MAX - 99999999) / 100000000)

/* The length n, 0 to 8, of the run of digits that starts the eight bytes
 * at p, which the caller has checked lie before the end of the text, and in
 * *v the value of those n digits.  The bytes are one little-endian uint64_t,
 * first byte lowest.  XOR with '0' turns a digit into 0-9; adding 0x76 sets
 * the top bit of any byte of 10 or more, and a byte of 0x80 or more has it
 * set already.  A carry leaves only a byte that is not a digit, and only
 * into the bytes above it, so the lowest flagged byte is the first that is
 * not a digit.  The n digits are shifted to the top, behind zeros, and
 * three multiplies join them in pairs, fours and the eight. */
static int digit_run8(const char *p, uint64_t *v)
{
    uint64_t x;
    memcpy(&x, p, sizeof x);
    x ^= UINT64_C(0x3030303030303030);
    uint64_t flags = ((x + UINT64_C(0x7676767676767676)) | x) & UINT64_C(0x8080808080808080);
    int n = flags ? __builtin_ctzll(flags) >> 3 : 8;
    *v = 0;
    if (n == 0)
        return 0;
    x <<= 8 * (8 - n);
    x = (x * 2561) >> 8;
    x = ((x & UINT64_C(0x00FF00FF00FF00FF)) * 6553601) >> 16;
    *v = ((x & UINT64_C(0x0000FFFF0000FFFF)) * UINT64_C(42949672960001)) >> 32;
    return n;
}
#endif

/* Reads the number at *p: the nonempty run of is_number_byte bytes there.
 * One scan matches the run against [+-] digits [. digits] [(e|E) [+-] digits],
 * with a digit before or after the point, and converts it as it goes: its
 * digits without the point make an integer m, and its value is m * 10^k.
 * When the whole run matches, m <= 2^53 and |k| <= 22 (Clinger's exact
 * case), m and 10^|k| are doubles exactly, so one multiply or divide rounds
 * m * 10^k once, to the double strtod gives; the sign comes last, so "-0" is
 * -0.0.  Gathering stops once m passes 2^53, or the exponent 99999, so
 * neither overflows.  Every other run, and every run where doubles are
 * evaluated in a wider format (which would round twice), goes to strtod,
 * which must convert a NUL-terminated copy of it to its last byte: under a
 * locale whose decimal point is not '.' strtod stops short and the text is
 * refused, as is a run too long for the copy, or one whose value is not a
 * finite double, such as 1e999 (the exact case is always finite).  Where
 * eight bytes remain, digit_run8 takes up to eight digits of the mantissa
 * at once, while m is small enough that m * 10^8 cannot overflow; it forms
 * the m and k of the byte loop.  A byte after the run other than a blank
 * or newline fails the next field.  Returns 0 and moves *p past the
 * number, or -1. */
static int read_number(const char **p, const char *end, double *x)
{
    const char *q = *p, *matched;
    int exact = FLT_EVAL_METHOD == 0, neg = 0, digits = 0, frac = 0;
    uint64_t m = 0;
    int64_t k = 0;
    if (q < end && (*q == '+' || *q == '-'))
        neg = *q++ == '-';
    while (q < end) {
#ifdef SWAR_DIGITS
        if (end - q >= 8 && (!exact || m <= SWAR_MAX_M)) {
            uint64_t v;
            int n = digit_run8(q, &v);
            if (n > 0) {
                digits = 1;
                k -= frac * n;
                if (exact && (m = m * pow10_u64[n] + v) > (UINT64_C(1) << 53))
                    exact = 0;
                q += n;
                if (n == 8)
                    continue;
            }
            /* q < end, at a byte that is not a digit */
            if (*q != '.' || frac)
                break;
        }
#endif
        if (*q == '.' && !frac) {
            frac = 1;
            q++;
            continue;
        }
        if (!is_digit(*q))
            break;
        digits = 1;
        k -= frac;
        if (exact && (m = 10 * m + (uint64_t)(*q - '0')) > (UINT64_C(1) << 53))
            exact = 0;
        q++;
    }
    exact &= digits;
    if (q < end && (*q == 'e' || *q == 'E')) {
        int eneg = 0;
        int64_t e = 0;
        if (++q < end && (*q == '+' || *q == '-'))
            eneg = *q++ == '-';
        if (q == end || !is_digit(*q))
            exact = 0;
        for (; q < end && is_digit(*q); q++)
            if (exact && (e = 10 * e + (*q - '0')) > 99999)
                exact = 0;
        k += eneg ? -e : e;
    }
    for (matched = q; q < end && is_number_byte(*q); q++)
        ;
    if (q == *p)
        return -1;
    if (exact && matched == q && k >= -22 && k <= 22) {
        double v = k < 0 ? (double)m / exact_pow10[-k] : (double)m * exact_pow10[k];
        *x = neg ? -v : v;
    } else {
        char copy[STRTOD_COPY_BYTES], *stop;
        size_t n = (size_t)(q - *p);
        if (n >= sizeof copy)
            return -1;
        memcpy(copy, *p, n);
        copy[n] = '\0';
        *x = strtod(copy, &stop);
        if (stop != copy + n || !isfinite(*x))
            return -1;
    }
    *p = q;
    return 0;
}

/* Parses lines of `<label> <index>:<value> ...`, fields parted by spaces and
 * tabs, lines by '\n'; blank lines hold no sample.  A label or value is a
 * number read by read_number, an index plain digits, 1 to 2^31 - 1 and
 * strictly increasing within its line, so each row's indices come out
 * sorted and distinct.  Zero values are dropped.  No byte at or past
 * text + len is read.  Where eight bytes remain, digit_run8 reads up to
 * eight digits of an index at once.
 *
 * Writes each line's raw label, the CSR row bounds (indptr: max_rows + 1
 * entries), the 0-based indices and the values (max_nnz entries each).
 * out = {rows, nonzeros, largest index} is read on entry and written on
 * return, so a text can be parsed in chunks, one call each, with the same
 * arrays and out: out starts as zeros, and every chunk but the last ends
 * just after a '\n', so that no line spans two calls.  A call appends its
 * rows after the out[0] already parsed, and writes indptr[0] only when
 * there are none yet.  Returns 0, or -1 at the first byte or field outside
 * this grammar, a write past a capacity or an out that does not fit them;
 * the arrays and out then hold nothing of use. */
int parse_sparse_text(const char *text, int64_t len, double *labels, int32_t *indptr,
                      int64_t max_rows, int32_t *indices, double *values, int64_t max_nnz,
                      int64_t *out)
{
    const char *p = text, *end = text + len;
    int64_t rows = out[0], nnz = out[1], max_idx = out[2];
    if (len < 0 || max_rows < 0 || max_nnz < 0 || max_nnz > INT32_MAX
        || rows < 0 || rows > max_rows || nnz < 0 || nnz > max_nnz || max_idx < 0)
        return -1;
    if (rows == 0)
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
#ifdef SWAR_DIGITS
            for (int n = 8; n == 8 && end - p >= 8 && idx <= INT32_MAX; p += n) {
                uint64_t v;
                n = digit_run8(p, &v);
                idx = idx * (int64_t)pow10_u64[n] + (int64_t)v;
            }
            if (idx > INT32_MAX)
                return -1;
#endif
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
