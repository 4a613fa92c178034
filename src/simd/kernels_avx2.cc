/**
 * @file
 * AVX2 kernels. This translation unit is compiled with -mavx2 (see
 * src/simd/CMakeLists.txt), so nothing in it may run before runtime
 * detection (dispatch.cc: CPUID + XGETBV) has confirmed the CPU — in
 * particular there are no namespace-scope dynamic initialisers here.
 *
 * Every function is bit-exact with its scalar reference in
 * kernels_scalar.cc: identical rounding and identical saturation.
 * Where the accumulation is regrouped the regrouping is exact. SATD
 * sums every 4x4 block of a rectangle in 16-bit lanes and reduces
 * once, where the scalar code halves each block's sum of |coefficient|
 * before adding: every coefficient of a 4x4 Hadamard has the parity of
 * the block's sample sum, so each block's sum is even, its ">> 1" drops
 * nothing, and halving the total equals halving each block.
 *
 * There are deliberately no AVX2 SAD kernels: a 16-pixel row is one
 * xmm register, and pairing strided rows into a ymm needs a
 * vinserti128 per row pair that costs more than the halved psadbw
 * count saves (measured ~40% slower than SSE2 here; x264 and FFmpeg
 * reach the same conclusion). The avx2 Dsp table keeps the SSE2 SAD
 * entries, the averaged-candidate ones (sad_avg_rect, sad_avg4_rect)
 * included. The averaged SATD is here: the same one-reduction SATD
 * with a second operand that averages two rows as it loads them. For
 * the same reason the table keeps sse2_avg_rect (every caller averages
 * rows of at most 16 samples) and sse2_h264_inv4x4_add. The H.264
 * deblocking kernels share their loads, masks and stores with SSE2
 * (simd/deblock_x86.h) and do the filter arithmetic on all 16 lines in
 * one ymm.
 */
#include "simd/kernels.h"

#if defined(HDVB_BUILD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

#include "simd/dct_matrix.h"
#include "simd/deblock_x86.h"

namespace hdvb::kernels {

namespace {

/** [lo | hi] from two xmm halves. */
inline __m256i
combine128(__m128i lo, __m128i hi)
{
    return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

/** 16 u8 widened to 16 s16 lanes. */
inline __m256i
load16_u8_as_s16(const Pixel *p)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

inline __m128i
load8_u8_as_s16(const Pixel *p)
{
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)),
        _mm_setzero_si128());
}

/** Pack 16 s16 ymm lanes to 16 u8 with unsigned saturation. */
inline __m128i
packus16(__m256i v)
{
    return _mm_packus_epi16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
}

/** Horizontal sum of the four s32 lanes of an xmm. */
inline int
hsum_epi32_128(__m128i v)
{
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
}

// ---- SATD: four 4x4 blocks per ymm, one reduction per rectangle ----

/**
 * pmaddubsw weights for the first horizontal butterfly: the low lane
 * sums adjacent pixel pairs, the high lane differences them. With a
 * 16-pixel row in both lanes, the result holds, per 4x4 block, the two
 * pair sums (low lane) and the two pair differences (high lane).
 */
inline __m256i
hmul_weights()
{
    return _mm256_setr_epi8(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                            1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1,
                            1, -1, 1, -1);
}

/**
 * An operand of a SATD as the rows its stripes load: stored samples
 * here, and for the second operand possibly AveragedSamples. Each row
 * fills a ymm the way hmul_weights wants it, with the same 16 pixels
 * in both lanes.
 */
struct Samples {
    const Pixel *p;
    int s;

    /** Row @p y's 16 pixels (four 4-pixel block rows). */
    __m256i
    row16(int y) const
    {
        return _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + y * s)));
    }
    /** 8 pixels of row @p y then 8 of row y + 4, as one 16-pixel row:
     * two 8-wide row groups side by side. */
    __m256i
    row8x2(int y) const
    {
        return _mm256_blend_epi32(half8(y), half8(y + 4), 0xCC);
    }
    /** row8x2 with zeros for the second group (a lone 8x4 row group). */
    __m256i
    row8(int y) const
    {
        return _mm256_blend_epi32(half8(y), _mm256_setzero_si256(), 0xCC);
    }
    Samples
    at(int x, int y) const
    {
        return {p + y * s + x, s};
    }

  private:
    /** Row @p y's first 8 pixels in every quadword. */
    __m256i
    half8(int y) const
    {
        return _mm256_broadcastq_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p + y * s)));
    }
};

/** (p + q + 1) >> 1 of two sample blocks, averaged as each row is
 * loaded, so a SATD against it never stores the candidate. */
struct AveragedSamples {
    Samples p;
    Samples q;

    __m256i
    row16(int y) const
    {
        return _mm256_avg_epu8(p.row16(y), q.row16(y));
    }
    __m256i
    row8x2(int y) const
    {
        return _mm256_avg_epu8(p.row8x2(y), q.row8x2(y));
    }
    __m256i
    row8(int y) const
    {
        return _mm256_avg_epu8(p.row8(y), q.row8(y));
    }
    AveragedSamples
    at(int x, int y) const
    {
        return {p.at(x, y), q.at(x, y)};
    }
};

/** First horizontal butterfly of row a minus row b (Samples row
 * layout); pmaddubsw is linear, so this is the butterfly of a - b. */
inline __m256i
hdiff(__m256i a, __m256i b)
{
    const __m256i hmul = hmul_weights();
    return _mm256_sub_epi16(_mm256_maddubs_epi16(a, hmul),
                            _mm256_maddubs_epi16(b, hmul));
}

/** max(|p|, |q|) in the low word of each 32-bit lane (p, q its two
 * words); the high word keeps |q|. */
inline __m256i
abs_max_pairs(__m256i v)
{
    const __m256i m = _mm256_abs_epi16(v);
    return _mm256_max_epi16(m, _mm256_srli_epi32(m, 16));
}

/**
 * Half the Hadamard magnitude sum of the four 4x4 blocks in one stripe,
 * from hdiff of its four rows, left in the low word of each 32-bit
 * lane; the high words carry junk that the final reduction weights by
 * zero.
 *
 * The vertical transform is register-wise. The last horizontal
 * butterfly pairs the two words of each 32-bit lane and uses
 * |p + q| + |p - q| = 2 max(|p|, |q|), so max(|p|, |q|) is exactly half
 * of the pair's two coefficients. Every value stays within +-2040, so a
 * low word gains at most 4 x 2040 per stripe and four stripes fit s16.
 */
inline __m256i
satd_stripe(__m256i d0, __m256i d1, __m256i d2, __m256i d3)
{
    const __m256i s01 = _mm256_add_epi16(d0, d1);
    const __m256i t01 = _mm256_sub_epi16(d0, d1);
    const __m256i s23 = _mm256_add_epi16(d2, d3);
    const __m256i t23 = _mm256_sub_epi16(d2, d3);
    return _mm256_add_epi16(
        _mm256_add_epi16(abs_max_pairs(_mm256_add_epi16(s01, s23)),
                         abs_max_pairs(_mm256_sub_epi16(s01, s23))),
        _mm256_add_epi16(abs_max_pairs(_mm256_add_epi16(t01, t23)),
                         abs_max_pairs(_mm256_sub_epi16(t01, t23))));
}

/** satd_stripe of four rows of a 16-wide column. */
template <typename B>
inline __m256i
satd_stripe16(Samples a, const B &b)
{
    const auto row = [&](int k) {
        return hdiff(a.row16(k), b.row16(k));
    };
    return satd_stripe(row(0), row(1), row(2), row(3));
}

/** satd_stripe of rows 0..3 (first group) and 4..7 (second group) of
 * an 8-wide column. */
template <typename B>
inline __m256i
satd_stripe8x2(Samples a, const B &b)
{
    const auto row = [&](int k) {
        return hdiff(a.row8x2(k), b.row8x2(k));
    };
    return satd_stripe(row(0), row(1), row(2), row(3));
}

/** satd_stripe of a lone 8x4 row group. */
template <typename B>
inline __m256i
satd_stripe8(Samples a, const B &b)
{
    const auto row = [&](int k) {
        return hdiff(a.row8(k), b.row8(k));
    };
    return satd_stripe(row(0), row(1), row(2), row(3));
}

/** A lone 4-wide column, 4x4 block by block on the SSE2 kernels. */
inline int
satd_column4(Samples a, Samples b, int h)
{
    return sse2_satd_rect(a.p, a.s, b.p, b.s, 4, h);
}

inline int
satd_column4(Samples a, const AveragedSamples &b, int h)
{
    return sse2_satd_avg_rect(a.p, a.s, b.p.p, b.p.s, b.q.p, b.q.s, 4, h);
}

/** SATD of a w x h rectangle of @p a against @p b. */
template <typename B>
int
satd_rect(Samples a, const B &b, int w, int h)
{
    // w, h <= 16 puts at most four stripes in any lane (satd_stripe).
    __m256i acc = _mm256_setzero_si256();
    int x = 0;
    for (; x + 16 <= w; x += 16) {
        for (int y = 0; y < h; y += 4)
            acc = _mm256_add_epi16(
                acc, satd_stripe16(a.at(x, y), b.at(x, y)));
    }
    for (; x + 8 <= w; x += 8) {
        int y = 0;
        for (; y + 8 <= h; y += 8)
            acc = _mm256_add_epi16(
                acc, satd_stripe8x2(a.at(x, y), b.at(x, y)));
        if (y < h)
            acc = _mm256_add_epi16(acc,
                                   satd_stripe8(a.at(x, y), b.at(x, y)));
    }
    // Low words only: the high words hold junk (satd_stripe).
    const __m256i sum32 = _mm256_madd_epi16(acc, _mm256_set1_epi32(1));
    int sum = hsum_epi32_128(_mm_add_epi32(
        _mm256_castsi256_si128(sum32), _mm256_extracti128_si256(sum32, 1)));
    if (x < w)
        sum += satd_column4(a.at(x, 0), b.at(x, 0), h);
    return sum;
}

// ---- matrix DCT machinery (ymm madd pass, xmm transpose) ----

struct DctConstsAvx2 {
    __m256i fwd[8][4];  ///< madd pair constants, forward basis
    __m256i inv[8][4];  ///< madd pair constants, transposed basis

    DctConstsAvx2()
    {
        for (int k = 0; k < 8; ++k) {
            for (int i = 0; i < 4; ++i) {
                const u32 f =
                    (static_cast<u16>(kDctMatrix[k][2 * i])) |
                    (static_cast<u32>(
                         static_cast<u16>(kDctMatrix[k][2 * i + 1]))
                     << 16);
                const u32 v =
                    (static_cast<u16>(kDctMatrix[2 * i][k])) |
                    (static_cast<u32>(
                         static_cast<u16>(kDctMatrix[2 * i + 1][k]))
                     << 16);
                fwd[k][i] = _mm256_set1_epi32(static_cast<int>(f));
                inv[k][i] = _mm256_set1_epi32(static_cast<int>(v));
            }
        }
    }
};

const DctConstsAvx2 &
dct_consts_avx2()
{
    static const DctConstsAvx2 consts;
    return consts;
}

/** Transpose 8 rows of 8 s16 in place (identical to the SSE2 one;
 * compiled here with VEX encoding). */
inline void
transpose8x8_x(__m128i r[8])
{
    const __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]);
    const __m128i t1 = _mm_unpackhi_epi16(r[0], r[1]);
    const __m128i t2 = _mm_unpacklo_epi16(r[2], r[3]);
    const __m128i t3 = _mm_unpackhi_epi16(r[2], r[3]);
    const __m128i t4 = _mm_unpacklo_epi16(r[4], r[5]);
    const __m128i t5 = _mm_unpackhi_epi16(r[4], r[5]);
    const __m128i t6 = _mm_unpacklo_epi16(r[6], r[7]);
    const __m128i t7 = _mm_unpackhi_epi16(r[6], r[7]);
    const __m128i u0 = _mm_unpacklo_epi32(t0, t2);
    const __m128i u1 = _mm_unpackhi_epi32(t0, t2);
    const __m128i u2 = _mm_unpacklo_epi32(t1, t3);
    const __m128i u3 = _mm_unpackhi_epi32(t1, t3);
    const __m128i u4 = _mm_unpacklo_epi32(t4, t6);
    const __m128i u5 = _mm_unpackhi_epi32(t4, t6);
    const __m128i u6 = _mm_unpacklo_epi32(t5, t7);
    const __m128i u7 = _mm_unpackhi_epi32(t5, t7);
    r[0] = _mm_unpacklo_epi64(u0, u4);
    r[1] = _mm_unpackhi_epi64(u0, u4);
    r[2] = _mm_unpacklo_epi64(u1, u5);
    r[3] = _mm_unpackhi_epi64(u1, u5);
    r[4] = _mm_unpacklo_epi64(u2, u6);
    r[5] = _mm_unpackhi_epi64(u2, u6);
    r[6] = _mm_unpacklo_epi64(u3, u7);
    r[7] = _mm_unpackhi_epi64(u3, u7);
}

/** One 1-D column pass: where the SSE2 pass runs separate lo/hi xmm
 * madd chains, this runs both as one ymm chain — element-for-element
 * the same madd/add/sra/packs sequence, so the result is bit-exact. */
inline void
dct_pass_avx2(__m128i r[8], const __m256i consts[8][4], int shift)
{
    __m256i p[4];
    for (int i = 0; i < 4; ++i) {
        p[i] = combine128(_mm_unpacklo_epi16(r[2 * i], r[2 * i + 1]),
                          _mm_unpackhi_epi16(r[2 * i], r[2 * i + 1]));
    }
    const __m256i round = _mm256_set1_epi32(1 << (shift - 1));
    const __m128i count = _mm_cvtsi32_si128(shift);
    __m128i out[8];
    for (int k = 0; k < 8; ++k) {
        __m256i acc = _mm256_madd_epi16(p[0], consts[k][0]);
        for (int i = 1; i < 4; ++i)
            acc = _mm256_add_epi32(acc,
                                   _mm256_madd_epi16(p[i], consts[k][i]));
        acc = _mm256_sra_epi32(_mm256_add_epi32(acc, round), count);
        out[k] = _mm_packs_epi32(_mm256_castsi256_si128(acc),
                                 _mm256_extracti128_si256(acc, 1));
    }
    for (int k = 0; k < 8; ++k)
        r[k] = out[k];
}

inline void
dct8x8_avx2(Coeff blk[64], const __m256i consts[8][4])
{
    __m128i r[8];
    for (int i = 0; i < 8; ++i)
        r[i] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(blk + i * 8));
    dct_pass_avx2(r, consts, kDctPass1Shift);
    transpose8x8_x(r);
    dct_pass_avx2(r, consts, kDctPass2Shift);
    transpose8x8_x(r);
    for (int i = 0; i < 8; ++i)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(blk + i * 8), r[i]);
}

// ---- quantisation ----

inline __m128i
load8_s16(const s16 *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline __m256i
load16_s16(const s16 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

/** 16 s16 lanes in order from two vectors of 8 s32 (lanes 0..7 and
 * 8..15), saturated. */
inline __m256i
pack_s32_to_s16(__m256i lo, __m256i hi)
{
    return _mm256_permute4x64_epi64(_mm256_packs_epi32(lo, hi),
                                    _MM_SHUFFLE(3, 1, 2, 0));
}

/** a * b per s16 lane, the full product saturated to s16. */
inline __m256i
mul_sat16(__m256i a, __m256i b)
{
    const __m256i lo = _mm256_mullo_epi16(a, b);
    const __m256i hi = _mm256_mulhi_epi16(a, b);
    return _mm256_packs_epi32(_mm256_unpacklo_epi16(lo, hi),
                              _mm256_unpackhi_epi16(lo, hi));
}

/** @p n minus the count held in @p zeros, whose s16 lanes each
 * accumulated -1 per zero level. */
inline int
nonzero_count(int n, __m256i zeros)
{
    const __m256i z32 = _mm256_madd_epi16(zeros, _mm256_set1_epi16(1));
    return n + hsum_epi32_128(_mm_add_epi32(
                   _mm256_castsi256_si128(z32),
                   _mm256_extracti128_si256(z32, 1)));
}

}  // namespace

int
avx2_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
               int w, int h)
{
    return satd_rect(Samples{a, as}, Samples{b, bs}, w, h);
}

int
avx2_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                   const Pixel *c, int cs, int w, int h)
{
    return satd_rect(Samples{a, as},
                     AveragedSamples{Samples{b, bs}, Samples{c, cs}}, w, h);
}

u64
avx2_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
              int w, int h)
{
    const __m256i zero = _mm256_setzero_si256();
    u64 total = 0;
    for (int y = 0; y < h; ++y) {
        __m256i acc = zero;
        int x = 0;
        for (; x + 32 <= w; x += 32) {
            const __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + x));
            const __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + x));
            const __m256i d_lo =
                _mm256_sub_epi16(_mm256_unpacklo_epi8(va, zero),
                                 _mm256_unpacklo_epi8(vb, zero));
            const __m256i d_hi =
                _mm256_sub_epi16(_mm256_unpackhi_epi8(va, zero),
                                 _mm256_unpackhi_epi8(vb, zero));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_lo, d_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d_hi, d_hi));
        }
        for (; x + 16 <= w; x += 16) {
            const __m256i d = _mm256_sub_epi16(load16_u8_as_s16(a + x),
                                               load16_u8_as_s16(b + x));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
        }
        u32 lanes[8];
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
        for (u32 lane : lanes)
            total += lane;  // lanes are non-negative sums of squares
        u32 row = 0;
        for (; x < w; ++x) {
            const int d = static_cast<int>(a[x]) - static_cast<int>(b[x]);
            row += static_cast<u32>(d * d);
        }
        total += row;
        a += as;
        b += bs;
    }
    return total;
}

void
avx2_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
               int w, int h)
{
    const __m256i two256 = _mm256_set1_epi16(2);
    const __m128i two128 = _mm_set1_epi16(2);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i s00 = load16_u8_as_s16(src + x);
            const __m256i s01 = load16_u8_as_s16(src + x + 1);
            const __m256i s10 = load16_u8_as_s16(src + x + ss);
            const __m256i s11 = load16_u8_as_s16(src + x + ss + 1);
            __m256i sum = _mm256_add_epi16(_mm256_add_epi16(s00, s01),
                                           _mm256_add_epi16(s10, s11));
            sum = _mm256_srli_epi16(_mm256_add_epi16(sum, two256), 2);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             packus16(sum));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i s00 = load8_u8_as_s16(src + x);
            const __m128i s01 = load8_u8_as_s16(src + x + 1);
            const __m128i s10 = load8_u8_as_s16(src + x + ss);
            const __m128i s11 = load8_u8_as_s16(src + x + ss + 1);
            __m128i sum = _mm_add_epi16(_mm_add_epi16(s00, s01),
                                        _mm_add_epi16(s10, s11));
            sum = _mm_srli_epi16(_mm_add_epi16(sum, two128), 2);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(sum, sum));
        }
        for (; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (src[x] + src[x + 1] + src[x + ss] + src[x + ss + 1] + 2)
                >> 2);
        }
        dst += ds;
        src += ss;
    }
}

void
avx2_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                     int w, int h, int fx, int fy)
{
    const short c00 = static_cast<short>((4 - fx) * (4 - fy));
    const short c01 = static_cast<short>(fx * (4 - fy));
    const short c10 = static_cast<short>((4 - fx) * fy);
    const short c11 = static_cast<short>(fx * fy);
    const __m256i w00 = _mm256_set1_epi16(c00);
    const __m256i w01 = _mm256_set1_epi16(c01);
    const __m256i w10 = _mm256_set1_epi16(c10);
    const __m256i w11 = _mm256_set1_epi16(c11);
    const __m256i eight = _mm256_set1_epi16(8);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i s00 = load16_u8_as_s16(src + x);
            const __m256i s01 = load16_u8_as_s16(src + x + 1);
            const __m256i s10 = load16_u8_as_s16(src + x + ss);
            const __m256i s11 = load16_u8_as_s16(src + x + ss + 1);
            __m256i acc = _mm256_mullo_epi16(s00, w00);
            acc = _mm256_add_epi16(acc, _mm256_mullo_epi16(s01, w01));
            acc = _mm256_add_epi16(acc, _mm256_mullo_epi16(s10, w10));
            acc = _mm256_add_epi16(acc, _mm256_mullo_epi16(s11, w11));
            acc = _mm256_srli_epi16(_mm256_add_epi16(acc, eight), 4);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             packus16(acc));
        }
        for (; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (c00 * src[x] + c01 * src[x + 1] + c10 * src[x + ss] +
                 c11 * src[x + ss + 1] + 8) >> 4);
        }
        dst += ds;
        src += ss;
    }
}

void
avx2_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
              const Pixel *pred, int ps, int w, int h)
{
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i d = _mm256_sub_epi16(load16_u8_as_s16(src + x),
                                               load16_u8_as_s16(pred + x));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + x), d);
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i d = _mm_sub_epi16(load8_u8_as_s16(src + x),
                                            load8_u8_as_s16(pred + x));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x), d);
        }
        for (; x < w; ++x)
            dst[x] = static_cast<Coeff>(static_cast<int>(src[x]) -
                                        static_cast<int>(pred[x]));
        dst += ds;
        src += ss;
        pred += ps;
    }
}

void
avx2_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
              int w, int h)
{
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i r = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(res + x));
            const __m256i v =
                _mm256_add_epi16(load16_u8_as_s16(dst + x), r);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             packus16(v));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i r = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(res + x));
            const __m128i v = _mm_add_epi16(load8_u8_as_s16(dst + x), r);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(v, v));
        }
        for (; x < w; ++x)
            dst[x] = clamp_pixel(static_cast<int>(dst[x]) + res[x]);
        dst += ds;
        res += rs;
    }
}

void
avx2_fdct8x8(Coeff blk[64])
{
    dct8x8_avx2(blk, dct_consts_avx2().fwd);
}

void
avx2_idct8x8(Coeff blk[64])
{
    dct8x8_avx2(blk, dct_consts_avx2().inv);
}

void
avx2_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    const __m256i sixteen256 = _mm256_set1_epi16(16);
    const __m128i sixteen128 = _mm_set1_epi16(16);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i a = load16_u8_as_s16(src + x - 2);
            const __m256i b = load16_u8_as_s16(src + x - 1);
            const __m256i c = load16_u8_as_s16(src + x);
            const __m256i d = load16_u8_as_s16(src + x + 1);
            const __m256i e = load16_u8_as_s16(src + x + 2);
            const __m256i f = load16_u8_as_s16(src + x + 3);
            const __m256i cd = _mm256_add_epi16(c, d);
            const __m256i be = _mm256_add_epi16(b, e);
            const __m256i cd20 =
                _mm256_add_epi16(_mm256_slli_epi16(cd, 4),
                                 _mm256_slli_epi16(cd, 2));
            const __m256i be5 =
                _mm256_add_epi16(_mm256_slli_epi16(be, 2), be);
            __m256i v = _mm256_add_epi16(_mm256_add_epi16(a, f),
                                         _mm256_sub_epi16(cd20, be5));
            v = _mm256_srai_epi16(_mm256_add_epi16(v, sixteen256), 5);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             packus16(v));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i a = load8_u8_as_s16(src + x - 2);
            const __m128i b = load8_u8_as_s16(src + x - 1);
            const __m128i c = load8_u8_as_s16(src + x);
            const __m128i d = load8_u8_as_s16(src + x + 1);
            const __m128i e = load8_u8_as_s16(src + x + 2);
            const __m128i f = load8_u8_as_s16(src + x + 3);
            const __m128i cd = _mm_add_epi16(c, d);
            const __m128i be = _mm_add_epi16(b, e);
            const __m128i cd20 = _mm_add_epi16(_mm_slli_epi16(cd, 4),
                                               _mm_slli_epi16(cd, 2));
            const __m128i be5 =
                _mm_add_epi16(_mm_slli_epi16(be, 2), be);
            __m128i v = _mm_add_epi16(_mm_add_epi16(a, f),
                                      _mm_sub_epi16(cd20, be5));
            v = _mm_srai_epi16(_mm_add_epi16(v, sixteen128), 5);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(v, v));
        }
        for (; x < w; ++x) {
            const int v = src[x - 2] - 5 * src[x - 1] + 20 * src[x] +
                          20 * src[x + 1] - 5 * src[x + 2] + src[x + 3];
            dst[x] = clamp_pixel((v + 16) >> 5);
        }
        dst += ds;
        src += ss;
    }
}

void
avx2_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    const __m256i sixteen256 = _mm256_set1_epi16(16);
    const __m128i sixteen128 = _mm_set1_epi16(16);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m256i a = load16_u8_as_s16(src + x - 2 * ss);
            const __m256i b = load16_u8_as_s16(src + x - ss);
            const __m256i c = load16_u8_as_s16(src + x);
            const __m256i d = load16_u8_as_s16(src + x + ss);
            const __m256i e = load16_u8_as_s16(src + x + 2 * ss);
            const __m256i f = load16_u8_as_s16(src + x + 3 * ss);
            const __m256i cd = _mm256_add_epi16(c, d);
            const __m256i be = _mm256_add_epi16(b, e);
            const __m256i cd20 =
                _mm256_add_epi16(_mm256_slli_epi16(cd, 4),
                                 _mm256_slli_epi16(cd, 2));
            const __m256i be5 =
                _mm256_add_epi16(_mm256_slli_epi16(be, 2), be);
            __m256i v = _mm256_add_epi16(_mm256_add_epi16(a, f),
                                         _mm256_sub_epi16(cd20, be5));
            v = _mm256_srai_epi16(_mm256_add_epi16(v, sixteen256), 5);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             packus16(v));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i a = load8_u8_as_s16(src + x - 2 * ss);
            const __m128i b = load8_u8_as_s16(src + x - ss);
            const __m128i c = load8_u8_as_s16(src + x);
            const __m128i d = load8_u8_as_s16(src + x + ss);
            const __m128i e = load8_u8_as_s16(src + x + 2 * ss);
            const __m128i f = load8_u8_as_s16(src + x + 3 * ss);
            const __m128i cd = _mm_add_epi16(c, d);
            const __m128i be = _mm_add_epi16(b, e);
            const __m128i cd20 = _mm_add_epi16(_mm_slli_epi16(cd, 4),
                                               _mm_slli_epi16(cd, 2));
            const __m128i be5 =
                _mm_add_epi16(_mm_slli_epi16(be, 2), be);
            __m128i v = _mm_add_epi16(_mm_add_epi16(a, f),
                                      _mm_sub_epi16(cd20, be5));
            v = _mm_srai_epi16(_mm_add_epi16(v, sixteen128), 5);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(v, v));
        }
        for (; x < w; ++x) {
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
avx2_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                  int w, int h)
{
    // Same two-pass structure as sse2_h264_hpel_hv: vertical 6-tap
    // into an s16 temp (raw sums fit: -2550 .. 10710), horizontal
    // 6-tap on the temp widened to s32, 10-bit descale.
    constexpr int kTmpStride = 24;  // >= 16 + 5, padded for wide loads
    s16 tmp[16][kTmpStride];
    for (int y = 0; y < h; ++y) {
        int x = -2;
        for (; x + 16 <= w + 3; x += 16) {
            const __m256i a = load16_u8_as_s16(src + x - 2 * ss);
            const __m256i b = load16_u8_as_s16(src + x - ss);
            const __m256i c = load16_u8_as_s16(src + x);
            const __m256i d = load16_u8_as_s16(src + x + ss);
            const __m256i e = load16_u8_as_s16(src + x + 2 * ss);
            const __m256i f = load16_u8_as_s16(src + x + 3 * ss);
            const __m256i cd = _mm256_add_epi16(c, d);
            const __m256i be = _mm256_add_epi16(b, e);
            const __m256i cd20 =
                _mm256_add_epi16(_mm256_slli_epi16(cd, 4),
                                 _mm256_slli_epi16(cd, 2));
            const __m256i be5 =
                _mm256_add_epi16(_mm256_slli_epi16(be, 2), be);
            const __m256i v = _mm256_add_epi16(
                _mm256_add_epi16(a, f), _mm256_sub_epi16(cd20, be5));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(&tmp[y][x + 2]), v);
        }
        for (; x + 8 <= w + 3; x += 8) {
            const __m128i a = load8_u8_as_s16(src + x - 2 * ss);
            const __m128i b = load8_u8_as_s16(src + x - ss);
            const __m128i c = load8_u8_as_s16(src + x);
            const __m128i d = load8_u8_as_s16(src + x + ss);
            const __m128i e = load8_u8_as_s16(src + x + 2 * ss);
            const __m128i f = load8_u8_as_s16(src + x + 3 * ss);
            const __m128i cd = _mm_add_epi16(c, d);
            const __m128i be = _mm_add_epi16(b, e);
            const __m128i cd20 = _mm_add_epi16(_mm_slli_epi16(cd, 4),
                                               _mm_slli_epi16(cd, 2));
            const __m128i be5 =
                _mm_add_epi16(_mm_slli_epi16(be, 2), be);
            const __m128i v = _mm_add_epi16(
                _mm_add_epi16(a, f), _mm_sub_epi16(cd20, be5));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(&tmp[y][x + 2]), v);
        }
        for (; x < w + 3; ++x) {
            tmp[y][x + 2] = static_cast<s16>(
                src[x - 2 * ss] - 5 * src[x - ss] + 20 * src[x] +
                20 * src[x + ss] - 5 * src[x + 2 * ss] +
                src[x + 3 * ss]);
        }
        src += ss;
    }
    const __m256i round = _mm256_set1_epi32(512);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            __m256i acc = _mm256_setzero_si256();
            for (int k = 0; k < 6; ++k) {
                const __m256i t = _mm256_cvtepi16_epi32(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        &tmp[y][x + k])));
                if (k == 0 || k == 5) {
                    acc = _mm256_add_epi32(acc, t);
                } else if (k == 2 || k == 3) {
                    acc = _mm256_add_epi32(
                        acc, _mm256_add_epi32(_mm256_slli_epi32(t, 4),
                                              _mm256_slli_epi32(t, 2)));
                } else {  // k == 1 || k == 4: weight -5
                    acc = _mm256_sub_epi32(
                        acc, _mm256_add_epi32(_mm256_slli_epi32(t, 2),
                                              t));
                }
            }
            acc = _mm256_srai_epi32(_mm256_add_epi32(acc, round), 10);
            const __m128i v16 =
                _mm_packs_epi32(_mm256_castsi256_si128(acc),
                                _mm256_extracti128_si256(acc, 1));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(v16, v16));
        }
        for (; x < w; ++x) {
            const s16 *t = &tmp[y][x + 2];
            const s32 v = t[-2] - 5 * t[-1] + 20 * t[0] + 20 * t[1] -
                          5 * t[2] + t[3];
            dst[x] = clamp_pixel(static_cast<int>((v + 512) >> 10));
        }
        dst += ds;
    }
}

int
avx2_mpeg_quant8x8(Coeff blk[64], const MpegQuantTable &q)
{
    // Exact integer division in float. Let q = floor(n / d) with
    // n + d < 2^24 (here n <= 32768 + 2048, d <= 4096). Both convert
    // exactly, and rounding moves n / d by under (q + 1) * 2^-24
    // <= (n + d) / d * 2^-24 < 1 / d. A fractional n / d lies at least
    // 1 / d below q + 1, so the rounded quotient stays in [q, q + 1)
    // and truncates to q.
    const __m256i clamp = _mm256_set1_epi32(kCoeffClamp);
    const auto levels8 = [&](int j) {
        const __m256i mag = _mm256_add_epi32(
            _mm256_abs_epi32(_mm256_cvtepi16_epi32(load8_s16(blk + j))),
            _mm256_cvtepi16_epi32(load8_s16(q.offset + j)));
        const __m256 step =
            _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(load8_s16(q.step + j)));
        return _mm256_min_epi32(
            _mm256_cvttps_epi32(_mm256_div_ps(_mm256_cvtepi32_ps(mag), step)),
            clamp);
    };
    __m256i zeros = _mm256_setzero_si256();
    for (int i = 0; i < 64; i += 16) {
        const __m256i out =
            _mm256_sign_epi16(pack_s32_to_s16(levels8(i), levels8(i + 8)),
                              load16_s16(blk + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(blk + i), out);
        zeros = _mm256_add_epi16(
            zeros, _mm256_cmpeq_epi16(out, _mm256_setzero_si256()));
    }
    return nonzero_count(64, zeros);
}

void
avx2_mpeg_dequant8x8(Coeff blk[64], const MpegQuantTable &q)
{
    const __m256i hi = _mm256_set1_epi16(kCoeffClamp);
    const __m256i lo = _mm256_set1_epi16(-kCoeffClamp);
    for (int i = 0; i < 64; i += 16) {
        const __m256i c =
            mul_sat16(load16_s16(blk + i), load16_s16(q.step + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(blk + i),
                            _mm256_max_epi16(_mm256_min_epi16(c, hi), lo));
    }
}

int
avx2_h264_quant4x4(Coeff blk[16], const H264QuantTable &q)
{
    // |c| * mf + offset <= 32768 * 13107 + 2^22 < 2^31: pmulld is exact.
    const __m256i offset = _mm256_set1_epi32(q.offset);
    const __m128i shift = _mm_cvtsi32_si128(q.shift);
    const __m256i clamp = _mm256_set1_epi32(kCoeffClamp);
    const auto levels8 = [&](int j) {
        const __m256i prod = _mm256_mullo_epi32(
            _mm256_abs_epi32(_mm256_cvtepi16_epi32(load8_s16(blk + j))),
            _mm256_cvtepi16_epi32(load8_s16(q.mf + j)));
        return _mm256_min_epi32(
            _mm256_srl_epi32(_mm256_add_epi32(prod, offset), shift), clamp);
    };
    const __m256i out = _mm256_sign_epi16(
        pack_s32_to_s16(levels8(0), levels8(8)), load16_s16(blk));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(blk), out);
    return nonzero_count(
        16, _mm256_cmpeq_epi16(out, _mm256_setzero_si256()));
}

void
avx2_h264_dequant4x4(Coeff blk[16], const H264QuantTable &q)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(blk),
                        mul_sat16(load16_s16(blk), load16_s16(q.v)));
}

// ---- H.264 in-loop deblocking ----

namespace {

/** min(max(v, -t), t) on s16 lanes. */
inline __m256i
clamp_s16(__m256i v, __m256i t)
{
    return _mm256_min_epi16(
        _mm256_max_epi16(v, _mm256_sub_epi16(_mm256_setzero_si256(), t)),
        t);
}

/** The deblocking filters' arithmetic with all 16 lines of the edge in
 * one register of 16-bit lanes (see simd/deblock_x86.h). */
struct Avx2Arith {
    static __m256i
    widen(__m128i v)
    {
        return _mm256_cvtepu8_epi16(v);
    }

    static void
    normal(const EdgeLanes &e, __m128i tc8, __m128i tc08, EdgeOut *o)
    {
        const __m256i p2 = widen(e.p2), p1 = widen(e.p1);
        const __m256i p0 = widen(e.p0), q0 = widen(e.q0);
        const __m256i q1 = widen(e.q1), q2 = widen(e.q2);
        const __m256i avg = widen(_mm_avg_epu8(e.p0, e.q0));
        const __m256i tc0 = widen(tc08);
        __m256i delta = _mm256_add_epi16(
            _mm256_slli_epi16(_mm256_sub_epi16(q0, p0), 2),
            _mm256_sub_epi16(p1, q1));
        delta = clamp_s16(
            _mm256_srai_epi16(
                _mm256_add_epi16(delta, _mm256_set1_epi16(4)), 3),
            widen(tc8));
        const __m256i dp = _mm256_srai_epi16(
            _mm256_sub_epi16(_mm256_add_epi16(p2, avg),
                             _mm256_add_epi16(p1, p1)), 1);
        const __m256i dq = _mm256_srai_epi16(
            _mm256_sub_epi16(_mm256_add_epi16(q2, avg),
                             _mm256_add_epi16(q1, q1)), 1);
        *o = {packus16(_mm256_add_epi16(p1, clamp_s16(dp, tc0))),
              packus16(_mm256_add_epi16(p0, delta)),
              packus16(_mm256_sub_epi16(q0, delta)),
              packus16(_mm256_add_epi16(q1, clamp_s16(dq, tc0)))};
    }

    static void
    strong(const EdgeLanes &e, StrongOut *o)
    {
        const __m256i two = _mm256_set1_epi16(2);
        const __m256i four = _mm256_set1_epi16(4);
        const __m256i p2 = widen(e.p2), p1 = widen(e.p1);
        const __m256i p0 = widen(e.p0), q0 = widen(e.q0);
        const __m256i q1 = widen(e.q1), q2 = widen(e.q2);
        const __m256i pq = _mm256_add_epi16(p0, q0);
        const __m256i p_sum = _mm256_add_epi16(p1, pq);  // p1+p0+q0
        const __m256i q_sum = _mm256_add_epi16(q1, pq);  // q1+q0+p0
        // (p2 + 2 p1 + 2 p0 + 2 q0 + q1 + 4) >> 3
        o->p0a = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(p2, _mm256_add_epi16(p_sum, p_sum)),
                _mm256_add_epi16(q1, four)), 3));
        // (p2 + p1 + p0 + q0 + 2) >> 2
        o->p1a = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(p2, p_sum), two), 2));
        // (2 p1 + p0 + q1 + 2) >> 2
        o->p0b = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_add_epi16(p1, p1), p0),
                _mm256_add_epi16(q1, two)), 2));
        o->q0a = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(q2, _mm256_add_epi16(q_sum, q_sum)),
                _mm256_add_epi16(p1, four)), 3));
        o->q1a = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(q2, q_sum), two), 2));
        o->q0b = packus16(_mm256_srli_epi16(
            _mm256_add_epi16(
                _mm256_add_epi16(_mm256_add_epi16(q1, q1), q0),
                _mm256_add_epi16(p1, two)), 2));
    }
};

}  // namespace

void
avx2_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                         const u8 bs[4], const u8 tc0[4])
{
    deblock_vertical_edge<Avx2Arith>(pix, pix + 8 * stride, stride,
                                     alpha, beta, bs, tc0, true);
}

void
avx2_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                         const u8 bs[4], const u8 tc0[4])
{
    deblock_horizontal_edge<Avx2Arith>(pix, pix + 8, stride, alpha, beta,
                                       bs, tc0, true);
}

void
avx2_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride, int alpha,
                           int beta, const u8 bs[4], const u8 tc0[4])
{
    deblock_vertical_edge<Avx2Arith>(cb, cr, stride, alpha, beta, bs,
                                     tc0, false);
}

void
avx2_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride, int alpha,
                           int beta, const u8 bs[4], const u8 tc0[4])
{
    deblock_horizontal_edge<Avx2Arith>(cb, cr, stride, alpha, beta, bs,
                                       tc0, false);
}

}  // namespace hdvb::kernels

#endif  // HDVB_BUILD_AVX2 && __AVX2__
