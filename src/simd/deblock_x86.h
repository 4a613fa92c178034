/**
 * @file
 * What the SSE2 and AVX2 H.264 deblocking kernels share: loading the 16
 * lines of one edge as u8 lanes (vertical edges through a byte
 * transpose), the filter decisions as lane masks, and storing the
 * changed samples back. Each tier supplies only the filters'
 * arithmetic on 16-bit lanes (an Arith type with normal() and strong()).
 *
 * Included only by kernels_sse2.cc and kernels_avx2.cc. Everything here
 * has internal linkage, so each of them compiles its own copy under its
 * own instruction-set flags: an inline function with external linkage
 * could be merged across the two objects, and the -mavx2 copy then run
 * on a CPU without AVX2.
 *
 * Lane i is line i of the edge; lines 4s..4s+3 form segment s, which
 * takes bs[s] and tc0[s]. Lines 0..7 start at one pointer and lines
 * 8..15 at another, so one call covers 16 luma lines or the 8 Cb and 8
 * Cr lines of a chroma edge.
 */
#ifndef HDVB_SIMD_DEBLOCK_X86_H
#define HDVB_SIMD_DEBLOCK_X86_H

#include <emmintrin.h>

#include <cstring>

#include "common/types.h"

namespace hdvb::kernels {
namespace {

/** The samples p2..q2 of 16 lines across an edge, one u8 lane each. */
struct EdgeLanes {
    __m128i p2, p1, p0, q0, q1, q2;
};

/** The samples a filter may change, p1..q1. */
struct EdgeOut {
    __m128i p1, p0, q0, q1;
};

/** The strong filter's candidates: "a" where the side's |p2 - p0| (or
 * |q2 - q0|) is below beta and the edge step is small, "b" otherwise. */
struct StrongOut {
    __m128i p1a, p0a, p0b, q0b, q0a, q1a;
};

inline __m128i
load8(const Pixel *p)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
}

/** 8 samples at a, then 8 at b; one load when they are contiguous. */
inline __m128i
load8x2(const Pixel *a, const Pixel *b)
{
    if (b == a + 8)
        return _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
    return _mm_unpacklo_epi64(load8(a), load8(b));
}

inline void
store8x2(Pixel *a, Pixel *b, __m128i v)
{
    if (b == a + 8) {
        _mm_storeu_si128(reinterpret_cast<__m128i *>(a), v);
        return;
    }
    _mm_storel_epi64(reinterpret_cast<__m128i *>(a), v);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(b),
                     _mm_unpackhi_epi64(v, v));
}

/** Row r of the 16 rows of a vertical edge: 0..7 below top, 8..15
 * below bot. */
inline Pixel *
edge_row(Pixel *top, Pixel *bot, int stride, int r)
{
    return (r < 8 ? top : bot) + (r & 7) * stride;
}

/** A vertical edge (q0 at top / bot on each row): reads columns -4..3
 * of 16 rows and transposes them, so that each register is a column. */
inline EdgeLanes
load_vertical_edge(Pixel *top, Pixel *bot, int stride)
{
    // a[k]: 16-bit word c holds column c of rows 2k and 2k + 1.
    __m128i a[8];
    for (int k = 0; k < 8; ++k) {
        const Pixel *r = edge_row(top, bot, stride, 2 * k) - 4;
        a[k] = _mm_unpacklo_epi8(load8(r), load8(r + stride));
    }
    // b[2k] (b[2k + 1]): 32-bit word c holds column c (c + 4) of rows
    // 4k..4k+3.
    __m128i b[8];
    for (int k = 0; k < 4; ++k) {
        b[2 * k] = _mm_unpacklo_epi16(a[2 * k], a[2 * k + 1]);
        b[2 * k + 1] = _mm_unpackhi_epi16(a[2 * k], a[2 * k + 1]);
    }
    // Columns (c, c + 1) of rows 0..7 and of rows 8..15, 64 bits each.
    const __m128i c01 = _mm_unpacklo_epi32(b[0], b[2]);
    const __m128i c23 = _mm_unpackhi_epi32(b[0], b[2]);
    const __m128i c45 = _mm_unpacklo_epi32(b[1], b[3]);
    const __m128i c67 = _mm_unpackhi_epi32(b[1], b[3]);
    const __m128i d01 = _mm_unpacklo_epi32(b[4], b[6]);
    const __m128i d23 = _mm_unpackhi_epi32(b[4], b[6]);
    const __m128i d45 = _mm_unpacklo_epi32(b[5], b[7]);
    const __m128i d67 = _mm_unpackhi_epi32(b[5], b[7]);
    return {_mm_unpackhi_epi64(c01, d01), _mm_unpacklo_epi64(c23, d23),
            _mm_unpackhi_epi64(c23, d23), _mm_unpacklo_epi64(c45, d45),
            _mm_unpackhi_epi64(c45, d45), _mm_unpacklo_epi64(c67, d67)};
}

/** Transposes p1..q1 back and writes columns -2..1 of the 16 rows. */
inline void
store_vertical_edge(Pixel *top, Pixel *bot, int stride, const EdgeOut &o)
{
    const __m128i p_lo = _mm_unpacklo_epi8(o.p1, o.p0);
    const __m128i p_hi = _mm_unpackhi_epi8(o.p1, o.p0);
    const __m128i q_lo = _mm_unpacklo_epi8(o.q0, o.q1);
    const __m128i q_hi = _mm_unpackhi_epi8(o.q0, o.q1);
    // rows[g]: 32-bit word i is row 4g + i.
    __m128i rows[4] = {
        _mm_unpacklo_epi16(p_lo, q_lo), _mm_unpackhi_epi16(p_lo, q_lo),
        _mm_unpacklo_epi16(p_hi, q_hi), _mm_unpackhi_epi16(p_hi, q_hi)};
    for (int r = 0; r < 16; ++r) {
        const u32 v = static_cast<u32>(_mm_cvtsi128_si32(rows[r / 4]));
        std::memcpy(edge_row(top, bot, stride, r) - 2, &v, 4);
        rows[r / 4] = _mm_srli_si128(rows[r / 4], 4);
    }
}

/** A horizontal edge (q0 row at left / right, 8 columns each). */
inline EdgeLanes
load_horizontal_edge(const Pixel *left, const Pixel *right, int stride)
{
    return {load8x2(left - 3 * stride, right - 3 * stride),
            load8x2(left - 2 * stride, right - 2 * stride),
            load8x2(left - stride, right - stride),
            load8x2(left, right),
            load8x2(left + stride, right + stride),
            load8x2(left + 2 * stride, right + 2 * stride)};
}

inline void
store_horizontal_edge(Pixel *left, Pixel *right, int stride,
                      const EdgeOut &o)
{
    store8x2(left - 2 * stride, right - 2 * stride, o.p1);
    store8x2(left - stride, right - stride, o.p0);
    store8x2(left, right, o.q0);
    store8x2(left + stride, right + stride, o.q1);
}

inline __m128i
absd_u8(__m128i a, __m128i b)
{
    return _mm_or_si128(_mm_subs_epu8(a, b), _mm_subs_epu8(b, a));
}

/** 0xff where x >= t, for any t in 0..255. */
inline __m128i
ge_u8(__m128i x, __m128i t)
{
    return _mm_cmpeq_epi8(_mm_subs_epu8(t, x), _mm_setzero_si128());
}

inline __m128i
splat_u8(int v)
{
    return _mm_set1_epi8(static_cast<char>(v));
}

inline __m128i
select_u8(__m128i m, __m128i a, __m128i b)
{
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
}

/** v[s] in each lane of segment s. */
inline __m128i
per_segment(const u8 v[4])
{
    u32 x;
    std::memcpy(&x, v, 4);
    const __m128i t = _mm_cvtsi32_si128(static_cast<int>(x));
    const __m128i pairs = _mm_unpacklo_epi8(t, t);
    return _mm_unpacklo_epi16(pairs, pairs);
}

/**
 * The scalar filter_line (kernels_scalar.cc) on 16 lanes: the same
 * decisions as masks, the same arithmetic on 16-bit lanes. A lane that
 * does not filter keeps its samples. Returns false, writing nothing,
 * when no lane filters. With @p luma false no lane takes the strong
 * filter.
 */
template <class Arith>
inline bool
filter_edge16(const EdgeLanes &e, int alpha, int beta, const u8 bs[4],
              const u8 tc0[4], bool luma, EdgeOut *out)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i ones = _mm_cmpeq_epi8(zero, zero);
    const __m128i vbeta = splat_u8(beta);
    const __m128i bsv = per_segment(bs);
    const __m128i step = absd_u8(e.p0, e.q0);
    const __m128i off = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(bsv, zero),
                     ge_u8(step, splat_u8(alpha))),
        _mm_or_si128(ge_u8(absd_u8(e.p1, e.p0), vbeta),
                     ge_u8(absd_u8(e.q1, e.q0), vbeta)));
    if (_mm_movemask_epi8(off) == 0xffff)
        return false;
    const __m128i ap = _mm_xor_si128(ge_u8(absd_u8(e.p2, e.p0), vbeta),
                                     ones);
    const __m128i aq = _mm_xor_si128(ge_u8(absd_u8(e.q2, e.q0), vbeta),
                                     ones);
    const __m128i strong =
        luma ? _mm_andnot_si128(off, _mm_cmpeq_epi8(bsv, splat_u8(4)))
             : zero;
    const __m128i normal =
        _mm_xor_si128(_mm_or_si128(off, strong), ones);
    *out = {e.p1, e.p0, e.q0, e.q1};

    if (_mm_movemask_epi8(normal) != 0) {
        // tc = tc0 + (ap ? 1 : 0) + (aq ? 1 : 0); a set mask lane is -1.
        const __m128i tc0v = per_segment(tc0);
        const __m128i tc = _mm_sub_epi8(_mm_sub_epi8(tc0v, ap), aq);
        EdgeOut n;
        Arith::normal(e, tc, tc0v, &n);
        out->p1 = select_u8(_mm_and_si128(normal, ap), n.p1, out->p1);
        out->p0 = select_u8(normal, n.p0, out->p0);
        out->q0 = select_u8(normal, n.q0, out->q0);
        out->q1 = select_u8(_mm_and_si128(normal, aq), n.q1, out->q1);
    }
    if (_mm_movemask_epi8(strong) != 0) {
        const __m128i small = _mm_andnot_si128(
            ge_u8(step, splat_u8((alpha >> 2) + 2)), strong);
        const __m128i full_p = _mm_and_si128(small, ap);
        const __m128i full_q = _mm_and_si128(small, aq);
        StrongOut s;
        Arith::strong(e, &s);
        out->p1 = select_u8(full_p, s.p1a, out->p1);
        out->p0 = select_u8(full_p, s.p0a,
                            select_u8(strong, s.p0b, out->p0));
        out->q0 = select_u8(full_q, s.q0a,
                            select_u8(strong, s.q0b, out->q0));
        out->q1 = select_u8(full_q, s.q1a, out->q1);
    }
    return true;
}

template <class Arith>
inline void
deblock_vertical_edge(Pixel *top, Pixel *bot, int stride, int alpha,
                      int beta, const u8 bs[4], const u8 tc0[4],
                      bool luma)
{
    EdgeOut o;
    if (filter_edge16<Arith>(load_vertical_edge(top, bot, stride), alpha,
                             beta, bs, tc0, luma, &o)) {
        store_vertical_edge(top, bot, stride, o);
    }
}

template <class Arith>
inline void
deblock_horizontal_edge(Pixel *left, Pixel *right, int stride, int alpha,
                        int beta, const u8 bs[4], const u8 tc0[4],
                        bool luma)
{
    EdgeOut o;
    if (filter_edge16<Arith>(load_horizontal_edge(left, right, stride),
                             alpha, beta, bs, tc0, luma, &o)) {
        store_horizontal_edge(left, right, stride, o);
    }
}

}  // namespace
}  // namespace hdvb::kernels

#endif  // HDVB_SIMD_DEBLOCK_X86_H
