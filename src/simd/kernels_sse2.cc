/**
 * @file
 * SSE2 kernels. Every function here is bit-exact with its scalar
 * reference in kernels_scalar.cc: identical rounding, identical
 * saturation (packs/packus match the scalar clamps by construction).
 */
#include "simd/kernels.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cstring>

#include "simd/dct_matrix.h"
#include "simd/deblock_x86.h"

namespace hdvb::kernels {

namespace {

inline __m128i
load8_u8_as_s16(const Pixel *p)
{
    const __m128i zero = _mm_setzero_si128();
    return _mm_unpacklo_epi8(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)), zero);
}

/** Horizontal sum of the four s32 lanes. */
inline int
hsum_epi32(__m128i v)
{
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
    v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(v);
}

/** Two 4-pixel rows (row0 | row1) as the low 8 bytes. */
inline __m128i
load4x2(const Pixel *p, int ps)
{
    u32 r0, r1;
    std::memcpy(&r0, p, 4);
    std::memcpy(&r1, p + ps, 4);
    return _mm_unpacklo_epi32(_mm_cvtsi32_si128(static_cast<int>(r0)),
                              _mm_cvtsi32_si128(static_cast<int>(r1)));
}

/** The low 8 bytes of a minus those of b, as 8 s16 lanes. */
inline __m128i
diff8_u8(__m128i a, __m128i b)
{
    const __m128i zero = _mm_setzero_si128();
    return _mm_sub_epi16(_mm_unpacklo_epi8(a, zero),
                         _mm_unpacklo_epi8(b, zero));
}

/** Load two 4-pixel rows of a - b as 8 s16 lanes (row0 | row1). */
inline __m128i
diff4x2(const Pixel *a, int as, const Pixel *b, int bs)
{
    return diff8_u8(load4x2(a, as), load4x2(b, bs));
}

/** diff4x2 against (b + c + 1) >> 1, averaged as it is loaded. */
inline __m128i
diff4x2_avg(const Pixel *a, int as, const Pixel *b, int bs,
            const Pixel *c, int cs)
{
    return diff8_u8(load4x2(a, as),
                    _mm_avg_epu8(load4x2(b, bs), load4x2(c, cs)));
}

inline __m128i
swap_halves(__m128i v)
{
    return _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2));
}

inline __m128i
abs_epi16_sse2(__m128i v)
{
    return _mm_max_epi16(v, _mm_sub_epi16(_mm_setzero_si128(), v));
}

// ---- matrix DCT machinery ----

struct DctConsts {
    __m128i fwd[8][4];  ///< madd pair constants, forward basis
    __m128i inv[8][4];  ///< madd pair constants, transposed basis

    DctConsts()
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
                fwd[k][i] = _mm_set1_epi32(static_cast<int>(f));
                inv[k][i] = _mm_set1_epi32(static_cast<int>(v));
            }
        }
    }
};

const DctConsts &
dct_consts()
{
    static const DctConsts consts;
    return consts;
}

/** Transpose 8 rows of 8 s16 in place. */
inline void
transpose8x8_sse2(__m128i r[8])
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

/** One 1-D column pass of the matrix transform on 8 columns. */
inline void
dct_pass_sse2(__m128i r[8], const __m128i consts[8][4], int shift)
{
    __m128i p_lo[4], p_hi[4];
    for (int i = 0; i < 4; ++i) {
        p_lo[i] = _mm_unpacklo_epi16(r[2 * i], r[2 * i + 1]);
        p_hi[i] = _mm_unpackhi_epi16(r[2 * i], r[2 * i + 1]);
    }
    const __m128i round = _mm_set1_epi32(1 << (shift - 1));
    const __m128i count = _mm_cvtsi32_si128(shift);
    __m128i out[8];
    for (int k = 0; k < 8; ++k) {
        __m128i lo = _mm_madd_epi16(p_lo[0], consts[k][0]);
        __m128i hi = _mm_madd_epi16(p_hi[0], consts[k][0]);
        for (int i = 1; i < 4; ++i) {
            lo = _mm_add_epi32(lo, _mm_madd_epi16(p_lo[i], consts[k][i]));
            hi = _mm_add_epi32(hi, _mm_madd_epi16(p_hi[i], consts[k][i]));
        }
        lo = _mm_sra_epi32(_mm_add_epi32(lo, round), count);
        hi = _mm_sra_epi32(_mm_add_epi32(hi, round), count);
        out[k] = _mm_packs_epi32(lo, hi);
    }
    for (int k = 0; k < 8; ++k)
        r[k] = out[k];
}

inline void
dct8x8_sse2(Coeff blk[64], const __m128i consts[8][4])
{
    __m128i r[8];
    for (int i = 0; i < 8; ++i)
        r[i] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(blk + i * 8));
    dct_pass_sse2(r, consts, kDctPass1Shift);
    transpose8x8_sse2(r);
    dct_pass_sse2(r, consts, kDctPass2Shift);
    transpose8x8_sse2(r);
    for (int i = 0; i < 8; ++i)
        _mm_storeu_si128(reinterpret_cast<__m128i *>(blk + i * 8), r[i]);
}

/** SATD of a 4x4 difference given as (row0 | row1) and (row2 | row3). */
inline int
satd4x4_diff(__m128i d01, __m128i d23)
{
    // u holds (row0 | row2), v holds (row1 | row3): the column
    // butterfly then works on 64-bit halves.
    const __m128i u = _mm_unpacklo_epi64(d01, d23);      // row0 | row2
    const __m128i v = _mm_unpackhi_epi64(d01, d23);      // row1 | row3

    // Column (vertical) Hadamard.
    __m128i s = _mm_add_epi16(u, v);   // s0 | s1
    __m128i t = _mm_sub_epi16(u, v);   // d0 | d1
    __m128i ra = _mm_add_epi16(s, swap_halves(s));  // a' in both halves
    __m128i rc = _mm_sub_epi16(s, swap_halves(s));  // c' in low half
    __m128i rb = _mm_add_epi16(t, swap_halves(t));
    __m128i rd = _mm_sub_epi16(t, swap_halves(t));
    __m128i r01 = _mm_unpacklo_epi64(ra, rb);  // a' | b'
    __m128i r23 = _mm_unpacklo_epi64(rc, rd);  // c' | d'

    // Transpose the 4x4 (two rows per register).
    const __m128i i0 =
        _mm_unpacklo_epi16(r01, _mm_srli_si128(r01, 8));  // a,b interleave
    const __m128i i1 =
        _mm_unpacklo_epi16(r23, _mm_srli_si128(r23, 8));  // c,d interleave
    const __m128i c01 = _mm_unpacklo_epi32(i0, i1);  // col0 | col1
    const __m128i c23 = _mm_unpackhi_epi32(i0, i1);  // col2 | col3
    const __m128i u2 = _mm_unpacklo_epi64(c01, c23);  // col0 | col2
    const __m128i v2 = _mm_unpackhi_epi64(c01, c23);  // col1 | col3

    // Row Hadamard (same flow on transposed data).
    s = _mm_add_epi16(u2, v2);
    t = _mm_sub_epi16(u2, v2);
    ra = _mm_add_epi16(s, swap_halves(s));
    rc = _mm_sub_epi16(s, swap_halves(s));
    rb = _mm_add_epi16(t, swap_halves(t));
    rd = _mm_sub_epi16(t, swap_halves(t));
    r01 = _mm_unpacklo_epi64(ra, rb);
    r23 = _mm_unpacklo_epi64(rc, rd);

    const __m128i ones = _mm_set1_epi16(1);
    const __m128i sum = _mm_add_epi32(
        _mm_madd_epi16(abs_epi16_sse2(r01), ones),
        _mm_madd_epi16(abs_epi16_sse2(r23), ones));
    return hsum_epi32(sum) >> 1;
}

/** A row's first 16 samples, or (!kWide) its first 8 with the high
 * half zero, which psadbw then scores as 0 against 0. */
template <bool kWide>
inline __m128i
load_row(const Pixel *p)
{
    if constexpr (kWide)
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
    else
        return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
}

/** Total of psadbw's two 64-bit halves. */
inline int
sad_total(__m128i acc)
{
    return _mm_cvtsi128_si32(acc) +
           _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
}

/** SAD of h rows of a against pavgb(b, c): the averaged candidate is
 * formed in a register and never stored. */
template <bool kWide>
int
sad_avg_rows(const Pixel *a, int as, const Pixel *b, int bs,
             const Pixel *c, int cs, int h)
{
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < h; ++y) {
        const __m128i avg =
            _mm_avg_epu8(load_row<kWide>(b), load_row<kWide>(c));
        acc = _mm_add_epi64(acc, _mm_sad_epu8(load_row<kWide>(a), avg));
        a += as;
        b += bs;
        c += cs;
    }
    return sad_total(acc);
}

/**
 * SAD of h rows of a against avg4_rect's diagonal of s, in bytes. With
 * p and q the pavgb of the horizontal pairs of two rows, pavgb(p, q)
 * exceeds (s00 + s01 + s10 + s11 + 2) >> 2 by exactly
 * (p ^ q) & (odd_p | odd_q) & 1, where a row's odd is its pair's xor
 * (bit 0 set when the pair sum rounded up): the two roundings up
 * cross a multiple of four only when p + q is odd. That identity holds
 * for every one of the 2^32 sample quadruples. Each row's pair average
 * is the bottom of one output row and the top of the next.
 */
template <bool kWide>
int
sad_avg4_rows(const Pixel *a, int as, const Pixel *s, int ss, int h)
{
    const __m128i one = _mm_set1_epi8(1);
    __m128i l = load_row<kWide>(s);
    __m128i r = load_row<kWide>(s + 1);
    __m128i top = _mm_avg_epu8(l, r);
    __m128i top_odd = _mm_xor_si128(l, r);
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < h; ++y) {
        s += ss;
        l = load_row<kWide>(s);
        r = load_row<kWide>(s + 1);
        const __m128i bot = _mm_avg_epu8(l, r);
        const __m128i bot_odd = _mm_xor_si128(l, r);
        const __m128i over = _mm_and_si128(
            _mm_and_si128(_mm_xor_si128(top, bot),
                          _mm_or_si128(top_odd, bot_odd)),
            one);
        const __m128i diag = _mm_sub_epi8(_mm_avg_epu8(top, bot), over);
        acc = _mm_add_epi64(acc, _mm_sad_epu8(load_row<kWide>(a), diag));
        top = bot;
        top_odd = bot_odd;
        a += as;
    }
    return sad_total(acc);
}

}  // namespace

int
sse2_sad16x16(const Pixel *a, int as, const Pixel *b, int bs)
{
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 16; ++y) {
        const __m128i va =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
        const __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
        acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
        a += as;
        b += bs;
    }
    return _mm_cvtsi128_si32(acc) +
           _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
}

int
sse2_sad16x16_a(const Pixel *a, int as, const Pixel *b, int bs)
{
    // Aligned loads on the current-picture operand (the Plane layout
    // guarantees 16-byte-aligned macroblock rows); the reference
    // operand shifts with the motion vector and stays unaligned.
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 16; ++y) {
        const __m128i va =
            _mm_load_si128(reinterpret_cast<const __m128i *>(a));
        const __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
        acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
        a += as;
        b += bs;
    }
    return _mm_cvtsi128_si32(acc) +
           _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
}

int
sse2_sad8x8(const Pixel *a, int as, const Pixel *b, int bs)
{
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 8; ++y) {
        const __m128i va =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a));
        const __m128i vb =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(b));
        acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
        a += as;
        b += bs;
    }
    return _mm_cvtsi128_si32(acc);
}

int
sse2_sad_rect(const Pixel *a, int as, const Pixel *b, int bs,
              int w, int h)
{
    if (w == 16 && h == 16)
        return sse2_sad16x16(a, as, b, bs);
    if (w == 8) {
        __m128i acc = _mm_setzero_si128();
        for (int y = 0; y < h; ++y) {
            const __m128i va =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a));
            const __m128i vb =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(b));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            a += as;
            b += bs;
        }
        return _mm_cvtsi128_si32(acc);
    }
    if (w == 16) {
        __m128i acc = _mm_setzero_si128();
        for (int y = 0; y < h; ++y) {
            const __m128i va =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
            const __m128i vb =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            a += as;
            b += bs;
        }
        return _mm_cvtsi128_si32(acc) +
               _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
    }
    return scalar_sad_rect(a, as, b, bs, w, h);
}

int
sse2_sad16x16_et(const Pixel *a, int as, const Pixel *b, int bs,
                 int bound)
{
    // Early-termination SAD: psadbw four rows at a time, then compare
    // the running sum against the advisory bound. Checking every four
    // rows keeps the fast path branch-light while still skipping up to
    // 3/4 of the work on hopeless candidates.
    int sum = 0;
    for (int y = 0; y < 16; y += 4) {
        __m128i acc = _mm_setzero_si128();
        for (int r = 0; r < 4; ++r) {
            const __m128i va =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
            const __m128i vb =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
            acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
            a += as;
            b += bs;
        }
        sum += _mm_cvtsi128_si32(acc) +
               _mm_cvtsi128_si32(_mm_srli_si128(acc, 8));
        if (sum > bound)
            return sum;
    }
    return sum;
}

int
sse2_sad_rect_et(const Pixel *a, int as, const Pixel *b, int bs,
                 int w, int h, int bound)
{
    if (w == 16 && h == 16)
        return sse2_sad16x16_et(a, as, b, bs, bound);
    if (w == 8 || w == 16) {
        // Narrow blocks: check every other row pair; per-row psadbw is
        // cheap enough that finer checks cost more than they save.
        int sum = 0;
        for (int y = 0; y < h; ++y) {
            sum += sse2_sad_rect(a, as, b, bs, w, 1);
            a += as;
            b += bs;
            if ((y & 1) != 0 && sum > bound)
                return sum;
        }
        return sum;
    }
    return scalar_sad_rect_et(a, as, b, bs, w, h, bound);
}

int
sse2_satd4x4(const Pixel *a, int as, const Pixel *b, int bs)
{
    return satd4x4_diff(diff4x2(a, as, b, bs),
                        diff4x2(a + 2 * as, as, b + 2 * bs, bs));
}

int
sse2_satd_rect(const Pixel *a, int as, const Pixel *b, int bs,
               int w, int h)
{
    int sum = 0;
    for (int y = 0; y < h; y += 4)
        for (int x = 0; x < w; x += 4)
            sum += sse2_satd4x4(a + y * as + x, as, b + y * bs + x, bs);
    return sum;
}

int
sse2_sad_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                  const Pixel *c, int cs, int w, int h)
{
    if (w == 16)
        return sad_avg_rows<true>(a, as, b, bs, c, cs, h);
    if (w == 8)
        return sad_avg_rows<false>(a, as, b, bs, c, cs, h);
    return scalar_sad_avg_rect(a, as, b, bs, c, cs, w, h);
}

int
sse2_sad_avg4_rect(const Pixel *a, int as, const Pixel *s, int ss,
                   int w, int h)
{
    if (w == 16)
        return sad_avg4_rows<true>(a, as, s, ss, h);
    if (w == 8)
        return sad_avg4_rows<false>(a, as, s, ss, h);
    return scalar_sad_avg4_rect(a, as, s, ss, w, h);
}

int
sse2_satd_avg_rect(const Pixel *a, int as, const Pixel *b, int bs,
                   const Pixel *c, int cs, int w, int h)
{
    int sum = 0;
    for (int y = 0; y < h; y += 4) {
        for (int x = 0; x < w; x += 4) {
            const Pixel *pa = a + y * as + x;
            const Pixel *pb = b + y * bs + x;
            const Pixel *pc = c + y * cs + x;
            sum += satd4x4_diff(
                diff4x2_avg(pa, as, pb, bs, pc, cs),
                diff4x2_avg(pa + 2 * as, as, pb + 2 * bs, bs, pc + 2 * cs,
                            cs));
        }
    }
    return sum;
}

u64
sse2_sse_rect(const Pixel *a, int as, const Pixel *b, int bs,
              int w, int h)
{
    const __m128i zero = _mm_setzero_si128();
    u64 total = 0;
    for (int y = 0; y < h; ++y) {
        __m128i acc = zero;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + x));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + x));
            const __m128i d_lo = _mm_sub_epi16(
                _mm_unpacklo_epi8(va, zero), _mm_unpacklo_epi8(vb, zero));
            const __m128i d_hi = _mm_sub_epi16(
                _mm_unpackhi_epi8(va, zero), _mm_unpackhi_epi8(vb, zero));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d_lo, d_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d_hi, d_hi));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i d = _mm_sub_epi16(load8_u8_as_s16(a + x),
                                            load8_u8_as_s16(b + x));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(d, d));
        }
        u32 row = 0;
        for (; x < w; ++x) {
            const int d = static_cast<int>(a[x]) - static_cast<int>(b[x]);
            row += static_cast<u32>(d * d);
        }
        // Lanes are non-negative; fold as unsigned into the u64 total.
        const __m128i lo64 = _mm_unpacklo_epi32(acc, zero);
        const __m128i hi64 = _mm_unpackhi_epi32(acc, zero);
        const __m128i f = _mm_add_epi64(lo64, hi64);
        total += static_cast<u64>(_mm_cvtsi128_si32(f)) +
                 (static_cast<u64>(static_cast<u32>(
                      _mm_cvtsi128_si32(_mm_srli_si128(f, 4)))) << 32);
        total += static_cast<u64>(static_cast<u32>(
                     _mm_cvtsi128_si32(_mm_srli_si128(f, 8))));
        total += static_cast<u64>(static_cast<u32>(_mm_cvtsi128_si32(
                     _mm_srli_si128(f, 12)))) << 32;
        total += row;
        a += as;
        b += bs;
    }
    return total;
}

void
sse2_avg_rect(Pixel *dst, int ds, const Pixel *a, int as,
              const Pixel *b, int bs, int w, int h)
{
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            const __m128i va = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + x));
            const __m128i vb = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + x));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + x),
                             _mm_avg_epu8(va, vb));
        }
        for (; x + 8 <= w; x += 8) {
            const __m128i va =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(a + x));
            const __m128i vb =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(b + x));
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_avg_epu8(va, vb));
        }
        for (; x < w; ++x)
            dst[x] = static_cast<Pixel>((a[x] + b[x] + 1) >> 1);
        dst += ds;
        a += as;
        b += bs;
    }
}

void
sse2_avg4_rect(Pixel *dst, int ds, const Pixel *src, int ss,
               int w, int h)
{
    const __m128i two = _mm_set1_epi16(2);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            const __m128i s00 = load8_u8_as_s16(src + x);
            const __m128i s01 = load8_u8_as_s16(src + x + 1);
            const __m128i s10 = load8_u8_as_s16(src + x + ss);
            const __m128i s11 = load8_u8_as_s16(src + x + ss + 1);
            __m128i sum = _mm_add_epi16(_mm_add_epi16(s00, s01),
                                        _mm_add_epi16(s10, s11));
            sum = _mm_srli_epi16(_mm_add_epi16(sum, two), 2);
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
sse2_qpel_bilin_rect(Pixel *dst, int ds, const Pixel *src, int ss,
                     int w, int h, int fx, int fy)
{
    const __m128i w00 = _mm_set1_epi16(
        static_cast<short>((4 - fx) * (4 - fy)));
    const __m128i w01 = _mm_set1_epi16(static_cast<short>(fx * (4 - fy)));
    const __m128i w10 = _mm_set1_epi16(static_cast<short>((4 - fx) * fy));
    const __m128i w11 = _mm_set1_epi16(static_cast<short>(fx * fy));
    const __m128i eight = _mm_set1_epi16(8);
    const int sw00 = (4 - fx) * (4 - fy);
    const int sw01 = fx * (4 - fy);
    const int sw10 = (4 - fx) * fy;
    const int sw11 = fx * fy;
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            const __m128i s00 = load8_u8_as_s16(src + x);
            const __m128i s01 = load8_u8_as_s16(src + x + 1);
            const __m128i s10 = load8_u8_as_s16(src + x + ss);
            const __m128i s11 = load8_u8_as_s16(src + x + ss + 1);
            __m128i acc = _mm_mullo_epi16(s00, w00);
            acc = _mm_add_epi16(acc, _mm_mullo_epi16(s01, w01));
            acc = _mm_add_epi16(acc, _mm_mullo_epi16(s10, w10));
            acc = _mm_add_epi16(acc, _mm_mullo_epi16(s11, w11));
            acc = _mm_srli_epi16(_mm_add_epi16(acc, eight), 4);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(dst + x),
                             _mm_packus_epi16(acc, acc));
        }
        for (; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (sw00 * src[x] + sw01 * src[x + 1] + sw10 * src[x + ss] +
                 sw11 * src[x + ss + 1] + 8) >> 4);
        }
        dst += ds;
        src += ss;
    }
}

void
sse2_sub_rect(Coeff *dst, int ds, const Pixel *src, int ss,
              const Pixel *pred, int ps, int w, int h)
{
    for (int y = 0; y < h; ++y) {
        int x = 0;
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
sse2_add_rect(Pixel *dst, int ds, const Coeff *res, int rs,
              int w, int h)
{
    for (int y = 0; y < h; ++y) {
        int x = 0;
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
sse2_fdct8x8(Coeff blk[64])
{
    dct8x8_sse2(blk, dct_consts().fwd);
}

void
sse2_idct8x8(Coeff blk[64])
{
    dct8x8_sse2(blk, dct_consts().inv);
}

void
sse2_h264_hpel_h(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    const __m128i sixteen = _mm_set1_epi16(16);
    for (int y = 0; y < h; ++y) {
        int x = 0;
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
            v = _mm_srai_epi16(_mm_add_epi16(v, sixteen), 5);
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
sse2_h264_hpel_v(Pixel *dst, int ds, const Pixel *src, int ss,
                 int w, int h)
{
    const __m128i sixteen = _mm_set1_epi16(16);
    for (int y = 0; y < h; ++y) {
        int x = 0;
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
            v = _mm_srai_epi16(_mm_add_epi16(v, sixteen), 5);
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
sse2_h264_hpel_hv(Pixel *dst, int ds, const Pixel *src, int ss,
                  int w, int h)
{
    // Vertical 6-tap at full precision into an s16 temp (the raw
    // vertical sums fit: -2550 .. 10710), then horizontal 6-tap on the
    // temp widened to 32 bits with a 10-bit descale — the H.264 'j'
    // position. Max block is 16x16; the temp holds columns -2..w+2.
    constexpr int kTmpStride = 24;  // >= 16 + 5, padded for 8-lane loads
    s16 tmp[16][kTmpStride];
    const __m128i zero = _mm_setzero_si128();
    for (int y = 0; y < h; ++y) {
        int x = -2;
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
    const __m128i round = _mm_set1_epi32(512);
    for (int y = 0; y < h; ++y) {
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            // Widen each tap to exact s32 (the horizontal combination
            // of s16 taps overflows 16 bits) via sign-extending
            // unpacks, then shift-add the 1/-5/20 weights.
            __m128i acc_lo = zero, acc_hi = zero;
            for (int k = 0; k < 6; ++k) {
                const __m128i t = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(&tmp[y][x + k]));
                const __m128i lo = _mm_srai_epi32(
                    _mm_unpacklo_epi16(t, t), 16);
                const __m128i hi = _mm_srai_epi32(
                    _mm_unpackhi_epi16(t, t), 16);
                if (k == 0 || k == 5) {
                    acc_lo = _mm_add_epi32(acc_lo, lo);
                    acc_hi = _mm_add_epi32(acc_hi, hi);
                } else if (k == 2 || k == 3) {
                    acc_lo = _mm_add_epi32(
                        acc_lo, _mm_add_epi32(_mm_slli_epi32(lo, 4),
                                              _mm_slli_epi32(lo, 2)));
                    acc_hi = _mm_add_epi32(
                        acc_hi, _mm_add_epi32(_mm_slli_epi32(hi, 4),
                                              _mm_slli_epi32(hi, 2)));
                } else {  // k == 1 || k == 4: weight -5
                    acc_lo = _mm_sub_epi32(
                        acc_lo, _mm_add_epi32(_mm_slli_epi32(lo, 2),
                                              lo));
                    acc_hi = _mm_sub_epi32(
                        acc_hi, _mm_add_epi32(_mm_slli_epi32(hi, 2),
                                              hi));
                }
            }
            acc_lo = _mm_srai_epi32(_mm_add_epi32(acc_lo, round), 10);
            acc_hi = _mm_srai_epi32(_mm_add_epi32(acc_hi, round), 10);
            const __m128i v16 = _mm_packs_epi32(acc_lo, acc_hi);
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

// ---- H.264 reconstruction ----

namespace {

/** The four s32 lanes of v's low (high) s16 half, sign-extended. */
inline __m128i
widen_lo_s16(__m128i v)
{
    return _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
}

inline __m128i
widen_hi_s16(__m128i v)
{
    return _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
}

/** 1-D inverse core transform on four s32 lanes of (a, b, c, d). */
inline void
inv4_epi32(__m128i &a, __m128i &b, __m128i &c, __m128i &d)
{
    const __m128i e0 = _mm_add_epi32(a, c);
    const __m128i e1 = _mm_sub_epi32(a, c);
    const __m128i e2 = _mm_sub_epi32(_mm_srai_epi32(b, 1), d);
    const __m128i e3 = _mm_add_epi32(b, _mm_srai_epi32(d, 1));
    a = _mm_add_epi32(e0, e3);
    d = _mm_sub_epi32(e0, e3);
    b = _mm_add_epi32(e1, e2);
    c = _mm_sub_epi32(e1, e2);
}

/** min(max(v, -t), t) on s16 lanes. */
inline __m128i
clamp_s16(__m128i v, __m128i t)
{
    return _mm_min_epi16(_mm_max_epi16(v, _mm_sub_epi16(_mm_setzero_si128(),
                                                        t)),
                         t);
}

/** The deblocking filters' arithmetic on 16-bit lanes, one 8-lane
 * half of the edge at a time (see simd/deblock_x86.h). */
struct Sse2Arith {
    /** Half h (0 = lanes 0..7) of u8 lanes v, zero-extended. */
    static __m128i
    half(__m128i v, int h)
    {
        const __m128i zero = _mm_setzero_si128();
        return h == 0 ? _mm_unpacklo_epi8(v, zero)
                      : _mm_unpackhi_epi8(v, zero);
    }

    static void
    normal(const EdgeLanes &e, __m128i tc8, __m128i tc08, EdgeOut *o)
    {
        const __m128i four = _mm_set1_epi16(4);
        const __m128i avg8 = _mm_avg_epu8(e.p0, e.q0);  // (p0+q0+1)>>1
        __m128i r[4][2];
        for (int h = 0; h < 2; ++h) {
            const __m128i p2 = half(e.p2, h), p1 = half(e.p1, h);
            const __m128i p0 = half(e.p0, h), q0 = half(e.q0, h);
            const __m128i q1 = half(e.q1, h), q2 = half(e.q2, h);
            const __m128i avg = half(avg8, h);
            const __m128i tc0 = half(tc08, h);
            __m128i delta =
                _mm_add_epi16(_mm_slli_epi16(_mm_sub_epi16(q0, p0), 2),
                              _mm_sub_epi16(p1, q1));
            delta = clamp_s16(
                _mm_srai_epi16(_mm_add_epi16(delta, four), 3),
                half(tc8, h));
            const __m128i dp = _mm_srai_epi16(
                _mm_sub_epi16(_mm_add_epi16(p2, avg),
                              _mm_add_epi16(p1, p1)), 1);
            const __m128i dq = _mm_srai_epi16(
                _mm_sub_epi16(_mm_add_epi16(q2, avg),
                              _mm_add_epi16(q1, q1)), 1);
            r[0][h] = _mm_add_epi16(p1, clamp_s16(dp, tc0));
            r[1][h] = _mm_add_epi16(p0, delta);
            r[2][h] = _mm_sub_epi16(q0, delta);
            r[3][h] = _mm_add_epi16(q1, clamp_s16(dq, tc0));
        }
        *o = {_mm_packus_epi16(r[0][0], r[0][1]),
              _mm_packus_epi16(r[1][0], r[1][1]),
              _mm_packus_epi16(r[2][0], r[2][1]),
              _mm_packus_epi16(r[3][0], r[3][1])};
    }

    static void
    strong(const EdgeLanes &e, StrongOut *o)
    {
        const __m128i two = _mm_set1_epi16(2);
        const __m128i four = _mm_set1_epi16(4);
        __m128i r[6][2];
        for (int h = 0; h < 2; ++h) {
            const __m128i p2 = half(e.p2, h), p1 = half(e.p1, h);
            const __m128i p0 = half(e.p0, h), q0 = half(e.q0, h);
            const __m128i q1 = half(e.q1, h), q2 = half(e.q2, h);
            const __m128i pq = _mm_add_epi16(p0, q0);
            const __m128i p_sum = _mm_add_epi16(p1, pq);  // p1+p0+q0
            const __m128i q_sum = _mm_add_epi16(q1, pq);  // q1+q0+p0
            // (p2 + 2 p1 + 2 p0 + 2 q0 + q1 + 4) >> 3
            r[0][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(p2, _mm_add_epi16(p_sum,
                                                              p_sum)),
                              _mm_add_epi16(q1, four)), 3);
            // (p2 + p1 + p0 + q0 + 2) >> 2
            r[1][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(p2, p_sum), two), 2);
            // (2 p1 + p0 + q1 + 2) >> 2
            r[2][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(_mm_add_epi16(p1, p1), p0),
                              _mm_add_epi16(q1, two)), 2);
            r[3][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(q2, _mm_add_epi16(q_sum,
                                                              q_sum)),
                              _mm_add_epi16(p1, four)), 3);
            r[4][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(q2, q_sum), two), 2);
            r[5][h] = _mm_srli_epi16(
                _mm_add_epi16(_mm_add_epi16(_mm_add_epi16(q1, q1), q0),
                              _mm_add_epi16(p1, two)), 2);
        }
        o->p0a = _mm_packus_epi16(r[0][0], r[0][1]);
        o->p1a = _mm_packus_epi16(r[1][0], r[1][1]);
        o->p0b = _mm_packus_epi16(r[2][0], r[2][1]);
        o->q0a = _mm_packus_epi16(r[3][0], r[3][1]);
        o->q1a = _mm_packus_epi16(r[4][0], r[4][1]);
        o->q0b = _mm_packus_epi16(r[5][0], r[5][1]);
    }
};

}  // namespace

void
sse2_h264_inv4x4_add(Pixel *dst, int ds, const Coeff blk[16])
{
    // Transpose the s16 rows so that each register holds two columns;
    // widened to s32, each lane then carries one row of a column.
    const __m128i r01 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk));
    const __m128i r23 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 8));
    const __m128i t0 = _mm_unpacklo_epi16(r01, r23);
    const __m128i t1 = _mm_unpackhi_epi16(r01, r23);
    const __m128i c01 = _mm_unpacklo_epi16(t0, t1);
    const __m128i c23 = _mm_unpackhi_epi16(t0, t1);
    __m128i a = widen_lo_s16(c01), b = widen_hi_s16(c01);
    __m128i c = widen_lo_s16(c23), d = widen_hi_s16(c23);
    inv4_epi32(a, b, c, d);  // the row transforms, all four at once
    // Transpose back: each register one row, each lane one column.
    const __m128i ab_lo = _mm_unpacklo_epi32(a, b);
    const __m128i cd_lo = _mm_unpacklo_epi32(c, d);
    const __m128i ab_hi = _mm_unpackhi_epi32(a, b);
    const __m128i cd_hi = _mm_unpackhi_epi32(c, d);
    a = _mm_unpacklo_epi64(ab_lo, cd_lo);
    b = _mm_unpackhi_epi64(ab_lo, cd_lo);
    c = _mm_unpacklo_epi64(ab_hi, cd_hi);
    d = _mm_unpackhi_epi64(ab_hi, cd_hi);
    inv4_epi32(a, b, c, d);  // the column transforms
    const __m128i round = _mm_set1_epi32(32);
    const __m128i res01 =
        _mm_packs_epi32(_mm_srai_epi32(_mm_add_epi32(a, round), 6),
                        _mm_srai_epi32(_mm_add_epi32(b, round), 6));
    const __m128i res23 =
        _mm_packs_epi32(_mm_srai_epi32(_mm_add_epi32(c, round), 6),
                        _mm_srai_epi32(_mm_add_epi32(d, round), 6));
    // From s16 levels the residual stays below 3.5 * 3.5 * 32768 / 64 <
    // 6300 in magnitude, so the s16 pack and add never saturate; packus
    // is the pixel clamp.
    const __m128i zero = _mm_setzero_si128();
    const __m128i s01 = _mm_packus_epi16(
        _mm_add_epi16(_mm_unpacklo_epi8(load4x2(dst, ds), zero), res01),
        zero);
    const __m128i s23 = _mm_packus_epi16(
        _mm_add_epi16(_mm_unpacklo_epi8(load4x2(dst + 2 * ds, ds), zero),
                      res23),
        zero);
    const u32 rows[4] = {
        static_cast<u32>(_mm_cvtsi128_si32(s01)),
        static_cast<u32>(_mm_cvtsi128_si32(_mm_srli_si128(s01, 4))),
        static_cast<u32>(_mm_cvtsi128_si32(s23)),
        static_cast<u32>(_mm_cvtsi128_si32(_mm_srli_si128(s23, 4)))};
    for (int y = 0; y < 4; ++y)
        std::memcpy(dst + y * ds, &rows[y], 4);
}

void
sse2_h264_deblock_luma_v(Pixel *pix, int stride, int alpha, int beta,
                         const u8 bs[4], const u8 tc0[4])
{
    deblock_vertical_edge<Sse2Arith>(pix, pix + 8 * stride, stride,
                                     alpha, beta, bs, tc0, true);
}

void
sse2_h264_deblock_luma_h(Pixel *pix, int stride, int alpha, int beta,
                         const u8 bs[4], const u8 tc0[4])
{
    deblock_horizontal_edge<Sse2Arith>(pix, pix + 8, stride, alpha, beta,
                                       bs, tc0, true);
}

void
sse2_h264_deblock_chroma_v(Pixel *cb, Pixel *cr, int stride, int alpha,
                           int beta, const u8 bs[4], const u8 tc0[4])
{
    deblock_vertical_edge<Sse2Arith>(cb, cr, stride, alpha, beta, bs,
                                     tc0, false);
}

void
sse2_h264_deblock_chroma_h(Pixel *cb, Pixel *cr, int stride, int alpha,
                           int beta, const u8 bs[4], const u8 tc0[4])
{
    deblock_horizontal_edge<Sse2Arith>(cb, cr, stride, alpha, beta, bs,
                                       tc0, false);
}

}  // namespace hdvb::kernels

#endif  // __SSE2__
