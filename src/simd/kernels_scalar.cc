/**
 * @file
 * Scalar reference kernels. These define the semantics: every SSE2
 * kernel must match them bit-exactly (tests/simd_test.cc asserts this on
 * randomised inputs).
 */
#include "simd/kernels.h"

#include <cstdlib>
#include <cstring>

#include "common/types.h"
#include "simd/dct_matrix.h"

namespace hdvb::kernels {

namespace {

inline int
iabs(int v)
{
    return v < 0 ? -v : v;
}

/** Saturate to int16, matching _mm_packs_epi32 semantics. */
inline Coeff
sat16(s32 v)
{
    return static_cast<Coeff>(clamp<s32>(v, -32768, 32767));
}

/** One 1-D pass of the matrix DCT over the columns of an 8x8 block.
 * basis_row(k, n) selects M[k][n] (forward) or M[n][k] (inverse). */
template <bool kForward>
void
dct_col_pass(const Coeff *in, Coeff *out, int shift)
{
    const s32 round = 1 << (shift - 1);
    for (int k = 0; k < 8; ++k) {
        for (int x = 0; x < 8; ++x) {
            s32 acc = 0;
            for (int n = 0; n < 8; ++n) {
                const s32 m = kForward ? kDctMatrix[k][n]
                                       : kDctMatrix[n][k];
                acc += m * in[n * 8 + x];
            }
            out[k * 8 + x] = sat16((acc + round) >> shift);
        }
    }
}

/** Transpose an 8x8 block in place. */
void
transpose8x8(Coeff *blk)
{
    for (int y = 0; y < 8; ++y) {
        for (int x = y + 1; x < 8; ++x) {
            const Coeff t = blk[y * 8 + x];
            blk[y * 8 + x] = blk[x * 8 + y];
            blk[x * 8 + y] = t;
        }
    }
}

/** 4-point Hadamard butterfly used by SATD. */
inline void
hadamard4(int &a, int &b, int &c, int &d)
{
    const int s0 = a + b;
    const int d0 = a - b;
    const int s1 = c + d;
    const int d1 = c - d;
    a = s0 + s1;
    c = s0 - s1;
    b = d0 + d1;
    d = d0 - d1;
}

}  // namespace

int
scalar_sad16x16(const Pixel *a, int as, const Pixel *b, int bs)
{
    return scalar_sad_rect(a, as, b, bs, 16, 16);
}

int
scalar_sad8x8(const Pixel *a, int as, const Pixel *b, int bs)
{
    return scalar_sad_rect(a, as, b, bs, 8, 8);
}

int
scalar_sad_rect(const Pixel *a, int as, const Pixel *b, int bs,
                int w, int h)
{
    int sum = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x)
            sum += iabs(static_cast<int>(a[x]) - static_cast<int>(b[x]));
        a += as;
        b += bs;
    }
    return sum;
}

int
scalar_sad_rect_et(const Pixel *a, int as, const Pixel *b, int bs,
                   int w, int h, int bound)
{
    // Early-termination SAD: bail between rows once the partial sum
    // exceeds the advisory bound. A return value > bound is a partial
    // (a lower bound on the true SAD); <= bound is exact.
    int sum = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x)
            sum += iabs(static_cast<int>(a[x]) - static_cast<int>(b[x]));
        if (sum > bound)
            return sum;
        a += as;
        b += bs;
    }
    return sum;
}

int
scalar_sad16x16_et(const Pixel *a, int as, const Pixel *b, int bs,
                   int bound)
{
    return scalar_sad_rect_et(a, as, b, bs, 16, 16, bound);
}

int
scalar_satd4x4(const Pixel *a, int as, const Pixel *b, int bs)
{
    int d[16];
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            d[y * 4 + x] = static_cast<int>(a[y * as + x]) -
                           static_cast<int>(b[y * bs + x]);
    for (int x = 0; x < 4; ++x)
        hadamard4(d[x], d[4 + x], d[8 + x], d[12 + x]);
    int sum = 0;
    for (int y = 0; y < 4; ++y) {
        hadamard4(d[y * 4], d[y * 4 + 1], d[y * 4 + 2], d[y * 4 + 3]);
        sum += iabs(d[y * 4]) + iabs(d[y * 4 + 1]) +
               iabs(d[y * 4 + 2]) + iabs(d[y * 4 + 3]);
    }
    return sum >> 1;
}

int
scalar_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
                 int w, int h)
{
    int sum = 0;
    for (int y = 0; y < h; y += 4)
        for (int x = 0; x < w; x += 4)
            sum += scalar_satd4x4(a + y * as + x, as, b + y * bs + x, bs);
    return sum;
}

u64
scalar_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
                int w, int h)
{
    u64 sum = 0;
    for (int y = 0; y < h; ++y) {
        u32 row = 0;
        for (int x = 0; x < w; ++x) {
            const int d = static_cast<int>(a[x]) - static_cast<int>(b[x]);
            row += static_cast<u32>(d * d);
        }
        sum += row;
        a += as;
        b += bs;
    }
    return sum;
}

// The averaged-candidate costs are defined as "build, then compare",
// so they are exact by construction; the vector kernels match them
// without building.

int
scalar_sad_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                    const Pixel *c, int cs, int w, int h)
{
    Pixel avg[16 * 16];
    scalar_avg_rect(avg, 16, b, bs, c, cs, w, h);
    return scalar_sad_rect(a, as, avg, 16, w, h);
}

int
scalar_sad_avg4_rect(const Pixel *a, int as, const Pixel *s, int ss,
                     int w, int h)
{
    Pixel avg[16 * 16];
    scalar_avg4_rect(avg, 16, s, ss, w, h);
    return scalar_sad_rect(a, as, avg, 16, w, h);
}

int
scalar_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                     const Pixel *c, int cs, int w, int h)
{
    Pixel avg[16 * 16];
    scalar_avg_rect(avg, 16, b, bs, c, cs, w, h);
    return scalar_satd_rect(a, as, avg, 16, w, h);
}

void
scalar_copy_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    for (int y = 0; y < h; ++y) {
        std::memcpy(dst, src, static_cast<size_t>(w));
        dst += ds;
        src += ss;
    }
}

void
scalar_avg_rect(Pixel *dst, int ds, const Pixel *a, int as,
                const Pixel *b, int bs, int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x)
            dst[x] = static_cast<Pixel>((a[x] + b[x] + 1) >> 1);
        dst += ds;
        a += as;
        b += bs;
    }
}

void
scalar_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (src[x] + src[x + 1] + src[x + ss] + src[x + ss + 1] + 2)
                >> 2);
        }
        dst += ds;
        src += ss;
    }
}

void
scalar_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                       int w, int h, int fx, int fy)
{
    const int w00 = (4 - fx) * (4 - fy);
    const int w01 = fx * (4 - fy);
    const int w10 = (4 - fx) * fy;
    const int w11 = fx * fy;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (w00 * src[x] + w01 * src[x + 1] + w10 * src[x + ss] +
                 w11 * src[x + ss + 1] + 8) >> 4);
        }
        dst += ds;
        src += ss;
    }
}

void
scalar_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
                const Pixel *pred, int ps, int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x)
            dst[x] = static_cast<Coeff>(static_cast<int>(src[x]) -
                                        static_cast<int>(pred[x]));
        dst += ds;
        src += ss;
        pred += ps;
    }
}

void
scalar_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
                int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x)
            dst[x] = clamp_pixel(static_cast<int>(dst[x]) + res[x]);
        dst += ds;
        res += rs;
    }
}

void
scalar_fdct8x8(Coeff blk[64])
{
    Coeff tmp[64];
    dct_col_pass<true>(blk, tmp, kDctPass1Shift);
    transpose8x8(tmp);
    dct_col_pass<true>(tmp, blk, kDctPass2Shift);
    transpose8x8(blk);
}

void
scalar_idct8x8(Coeff blk[64])
{
    Coeff tmp[64];
    dct_col_pass<false>(blk, tmp, kDctPass1Shift);
    transpose8x8(tmp);
    dct_col_pass<false>(tmp, blk, kDctPass2Shift);
    transpose8x8(blk);
}

void
scalar_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                   int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int v = src[x - 2] - 5 * src[x - 1] + 20 * src[x] +
                          20 * src[x + 1] - 5 * src[x + 2] + src[x + 3];
            dst[x] = clamp_pixel((v + 16) >> 5);
        }
        dst += ds;
        src += ss;
    }
}

void
scalar_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                   int w, int h)
{
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int v = src[x - 2 * ss] - 5 * src[x - ss] +
                          20 * src[x] + 20 * src[x + ss] -
                          5 * src[x + 2 * ss] + src[x + 3 * ss];
            dst[x] = clamp_pixel((v + 16) >> 5);
        }
        dst += ds;
        src += ss;
    }
}

void
scalar_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                    int w, int h)
{
    // Vertical 6-tap at full precision into a temp, then horizontal
    // 6-tap on the temp with a 10-bit descale — the H.264 'j' position.
    // Max block is 16x16, temp needs w+5 columns.
    s32 tmp[16 + 8][16 + 8];
    for (int y = 0; y < h; ++y) {
        for (int x = -2; x < w + 3; ++x) {
            tmp[y][x + 2] = src[x - 2 * ss] - 5 * src[x - ss] +
                            20 * src[x] + 20 * src[x + ss] -
                            5 * src[x + 2 * ss] + src[x + 3 * ss];
        }
        src += ss;
    }
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const s32 *t = &tmp[y][x + 2];
            const s32 v = t[-2] - 5 * t[-1] + 20 * t[0] + 20 * t[1] -
                          5 * t[2] + t[3];
            dst[x] = clamp_pixel(static_cast<int>((v + 512) >> 10));
        }
        dst += ds;
    }
}

int
scalar_mpeg_quant8x8(Coeff blk[64], const MpegQuantTable &q)
{
    int nonzero = 0;
    for (int i = 0; i < 64; ++i) {
        const int c = blk[i];
        const int mag = iabs(c) + q.offset[i];
        int level = mag / q.step[i];
        if (level > kCoeffClamp)
            level = kCoeffClamp;
        blk[i] = static_cast<Coeff>(c < 0 ? -level : level);
        nonzero += level != 0;
    }
    return nonzero;
}

void
scalar_mpeg_dequant8x8(Coeff blk[64], const MpegQuantTable &q)
{
    for (int i = 0; i < 64; ++i) {
        blk[i] = static_cast<Coeff>(
            clamp(blk[i] * q.step[i], -kCoeffClamp, kCoeffClamp));
    }
}

int
scalar_h264_quant4x4(Coeff blk[16], const H264QuantTable &q)
{
    int nonzero = 0;
    for (int i = 0; i < 16; ++i) {
        const int c = blk[i];
        int level = static_cast<int>(
            (static_cast<s64>(iabs(c)) * q.mf[i] + q.offset) >> q.shift);
        if (level > kCoeffClamp)
            level = kCoeffClamp;
        blk[i] = static_cast<Coeff>(c < 0 ? -level : level);
        nonzero += level != 0;
    }
    return nonzero;
}

void
scalar_h264_dequant4x4(Coeff blk[16], const H264QuantTable &q)
{
    for (int i = 0; i < 16; ++i)
        blk[i] = sat16(blk[i] * q.v[i]);
}

namespace {

/** 1-D inverse core transform on (a, b, c, d). */
inline void
inv4(int &a, int &b, int &c, int &d)
{
    const int e0 = a + c;
    const int e1 = a - c;
    const int e2 = (b >> 1) - d;
    const int e3 = b + (d >> 1);
    a = e0 + e3;
    d = e0 - e3;
    b = e1 + e2;
    c = e1 - e2;
}

/**
 * Filter one line of samples across an edge. p0 = p0p[0] with p1/p2 at
 * -step/-2*step behind it; q0 = q0p[0] with q1/q2 ahead at +step.
 */
inline void
filter_line(Pixel *p0p, Pixel *q0p, int step, int alpha, int beta,
            int bs, int tc0)
{
    const int p0 = p0p[0];
    const int p1 = p0p[-step];
    const int p2 = p0p[-2 * step];
    const int q0 = q0p[0];
    const int q1 = q0p[step];
    const int q2 = q0p[2 * step];

    if (iabs(p0 - q0) >= alpha || iabs(p1 - p0) >= beta ||
        iabs(q1 - q0) >= beta) {
        return;
    }

    if (bs == 4) {
        // Strong filter.
        if (iabs(p0 - q0) < (alpha >> 2) + 2) {
            if (iabs(p2 - p0) < beta) {
                p0p[0] = static_cast<Pixel>(
                    (p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) >> 3);
                p0p[-step] = static_cast<Pixel>(
                    (p2 + p1 + p0 + q0 + 2) >> 2);
            } else {
                p0p[0] = static_cast<Pixel>(
                    (2 * p1 + p0 + q1 + 2) >> 2);
            }
            if (iabs(q2 - q0) < beta) {
                q0p[0] = static_cast<Pixel>(
                    (q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) >> 3);
                q0p[step] = static_cast<Pixel>(
                    (q2 + q1 + q0 + p0 + 2) >> 2);
            } else {
                q0p[0] = static_cast<Pixel>(
                    (2 * q1 + q0 + p1 + 2) >> 2);
            }
        } else {
            p0p[0] = static_cast<Pixel>((2 * p1 + p0 + q1 + 2) >> 2);
            q0p[0] = static_cast<Pixel>((2 * q1 + q0 + p1 + 2) >> 2);
        }
        return;
    }

    // Normal filter.
    int tc = tc0;
    const bool fp1 = iabs(p2 - p0) < beta;
    const bool fq1 = iabs(q2 - q0) < beta;
    tc += fp1 ? 1 : 0;
    tc += fq1 ? 1 : 0;
    const int delta =
        clamp(((q0 - p0) * 4 + (p1 - q1) + 4) >> 3, -tc, tc);
    p0p[0] = clamp_pixel(p0 + delta);
    q0p[0] = clamp_pixel(q0 - delta);
    if (fp1) {
        const int d = clamp((p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1,
                            -tc0, tc0);
        p0p[-step] = static_cast<Pixel>(p1 + d);
    }
    if (fq1) {
        const int d = clamp((q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1,
                            -tc0, tc0);
        q0p[step] = static_cast<Pixel>(q1 + d);
    }
}

/** Line i of a chroma edge: rows 0..7 of cb, then rows 0..7 of cr. */
inline Pixel *
chroma_line(Pixel *cb, Pixel *cr, int i, int step)
{
    return (i < 8 ? cb : cr) + (i & 7) * step;
}

}  // namespace

void
scalar_h264_inv4x4_add(Pixel *dst, int ds, const Coeff blk[16])
{
    int t[16];
    for (int i = 0; i < 16; ++i)
        t[i] = blk[i];
    for (int i = 0; i < 4; ++i)
        inv4(t[i * 4], t[i * 4 + 1], t[i * 4 + 2], t[i * 4 + 3]);
    for (int i = 0; i < 4; ++i)
        inv4(t[i], t[4 + i], t[8 + i], t[12 + i]);
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            const int res = sat16((t[y * 4 + x] + 32) >> 6);
            dst[x] = clamp_pixel(dst[x] + res);
        }
        dst += ds;
    }
}

void
scalar_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                           const u8 bs[4], const u8 tc0[4])
{
    for (int i = 0; i < 16; ++i) {
        if (bs[i / 4] != 0) {
            filter_line(pix + i * stride - 1, pix + i * stride, 1,
                        alpha, beta, bs[i / 4], tc0[i / 4]);
        }
    }
}

void
scalar_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                           const u8 bs[4], const u8 tc0[4])
{
    for (int i = 0; i < 16; ++i) {
        if (bs[i / 4] != 0) {
            filter_line(pix + i - stride, pix + i, stride, alpha, beta,
                        bs[i / 4], tc0[i / 4]);
        }
    }
}

void
scalar_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride, int alpha,
                             int beta, const u8 bs[4], const u8 tc0[4])
{
    for (int i = 0; i < 16; ++i) {
        const int b = bs[i / 4];
        if (b != 0) {
            Pixel *q0 = chroma_line(cb, cr, i, stride);
            filter_line(q0 - 1, q0, 1, alpha, beta, b == 4 ? 3 : b,
                        tc0[i / 4]);
        }
    }
}

void
scalar_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride, int alpha,
                             int beta, const u8 bs[4], const u8 tc0[4])
{
    for (int i = 0; i < 16; ++i) {
        const int b = bs[i / 4];
        if (b != 0) {
            Pixel *q0 = chroma_line(cb, cr, i, 1);
            filter_line(q0 - stride, q0, stride, alpha, beta,
                        b == 4 ? 3 : b, tc0[i / 4]);
        }
    }
}

}  // namespace hdvb::kernels
