#include "mc/mc.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"

namespace hdvb {

void
mc_halfpel(const Plane &ref, int x0, int y0, MotionVector mv,
           Pixel *dst, int ds, int w, int h, const Dsp &dsp)
{
    build_candidate(halfpel_candidate(ref, x0, y0, mv), dst, ds, w, h,
                    dsp);
}

MotionVector
chroma_mv_from_halfpel(MotionVector luma_mv)
{
    return {static_cast<s16>(luma_mv.x / 2),
            static_cast<s16>(luma_mv.y / 2)};
}

void
mc_qpel_bilin(const Plane &ref, int x0, int y0, MotionVector mv,
              Pixel *dst, int ds, int w, int h, const Dsp &dsp)
{
    const int ix = x0 + (mv.x >> 2);
    const int iy = y0 + (mv.y >> 2);
    const int fx = mv.x & 3;
    const int fy = mv.y & 3;
    const int ss = ref.stride();
    const Pixel *src = ref.row(iy) + ix;
    if (fx == 0 && fy == 0)
        dsp.copy_rect(dst, ds, src, ss, w, h);
    else
        dsp.qpel_bilin_rect(dst, ds, src, ss, w, h, fx, fy);
}

MotionVector
chroma_mv_from_qpel(MotionVector luma_mv)
{
    return {static_cast<s16>(luma_mv.x / 2),
            static_cast<s16>(luma_mv.y / 2)};
}

void
mc_qpel_tap(const Plane &ref, int x0, int y0, MotionVector mv,
            Pixel *dst, int ds, int w, int h, const Dsp &dsp)
{
    mc_h264_luma(ref, x0, y0, mv, dst, ds, w, h, dsp);
}

/** The four sample lattices of the H.264 luma interpolation. */
enum class LumaLattice : u8 {
    kFull,    ///< G: integer samples of the reference
    kHalfH,   ///< b: horizontal 6-tap half-samples
    kHalfV,   ///< h: vertical 6-tap half-samples
    kCentre,  ///< j: centre (hv) half-samples
};

/** One lattice sample block, offset (dx, dy) in whole samples from
 * the block's integer position. */
struct LatticeTap {
    LumaLattice lattice;
    u8 dx;
    u8 dy;
};

namespace {

/** How a quarter position is made: one lattice tap, or the rounded
 * average of two. */
struct QpelRecipe {
    u8 taps;  ///< 1 or 2
    LatticeTap tap[2];
};

constexpr LatticeTap kG{LumaLattice::kFull, 0, 0};
constexpr LatticeTap kGx{LumaLattice::kFull, 1, 0};   // H: G at x+1
constexpr LatticeTap kGy{LumaLattice::kFull, 0, 1};   // M: G at y+1
constexpr LatticeTap kB{LumaLattice::kHalfH, 0, 0};
constexpr LatticeTap kBy{LumaLattice::kHalfH, 0, 1};  // s: b at y+1
constexpr LatticeTap kH{LumaLattice::kHalfV, 0, 0};
constexpr LatticeTap kHx{LumaLattice::kHalfV, 1, 0};  // m: h at x+1
constexpr LatticeTap kJ{LumaLattice::kCentre, 0, 0};

/** The kernel that filters each lattice; full samples need none. */
using HpelFilter = void (*Dsp::*)(Pixel *, int, const Pixel *, int, int,
                                  int);
constexpr HpelFilter kLatticeFilter[4] = {
    nullptr, &Dsp::h264_hpel_h, &Dsp::h264_hpel_v, &Dsp::h264_hpel_hv};

/** Filter (or, for full samples, point at) one lattice tap of the
 * w x h block whose integer position is @p src; filtered samples go
 * to @p tmp. */
inline PixelView
filter_tap(const LatticeTap &tap, const Pixel *src, int ss, Pixel *tmp,
           int ts, int w, int h, const Dsp &dsp)
{
    const Pixel *s = src + tap.dy * ss + tap.dx;
    const HpelFilter filter =
        kLatticeFilter[static_cast<int>(tap.lattice)];
    if (filter == nullptr)
        return {s, ss};
    (dsp.*filter)(tmp, ts, s, ss, w, h);
    return {tmp, ts};
}

/** The H.264 luma position table, indexed by (mv.y & 3) * 4 +
 * (mv.x & 3): the one place that says which samples each quarter
 * position averages, read by mc_h264_luma and QpelSearchWindow alike.
 * Letters follow the standard's luma interpolation figure. */
constexpr QpelRecipe kH264QpelTable[16] = {
    {1, {kG, kG}},    // G
    {2, {kB, kG}},    // a = avg(b, G)
    {1, {kB, kB}},    // b
    {2, {kB, kGx}},   // c = avg(b, H)
    {2, {kH, kG}},    // d = avg(h, G)
    {2, {kB, kH}},    // e = avg(b, h)
    {2, {kB, kJ}},    // f = avg(b, j)
    {2, {kB, kHx}},   // g = avg(b, m)
    {1, {kH, kH}},    // h
    {2, {kH, kJ}},    // i = avg(h, j)
    {1, {kJ, kJ}},    // j
    {2, {kJ, kHx}},   // k = avg(j, m)
    {2, {kH, kGy}},   // n = avg(h, M)
    {2, {kH, kBy}},   // p = avg(h, s)
    {2, {kJ, kBy}},   // q = avg(j, s)
    {2, {kHx, kBy}},  // r = avg(m, s)
};

}  // namespace

void
mc_h264_luma(const Plane &ref, int x0, int y0, MotionVector mv,
             Pixel *dst, int ds, int w, int h, const Dsp &dsp)
{
    HDVB_DCHECK(w <= kMaxBlockSize && h <= kMaxBlockSize);
    const int ss = ref.stride();
    const Pixel *src = ref.row(y0 + (mv.y >> 2)) + x0 + (mv.x >> 2);
    const QpelRecipe &r = kH264QpelTable[(mv.y & 3) * 4 + (mv.x & 3)];

    if (r.taps == 1) {
        const LatticeTap &t = r.tap[0];
        if (t.lattice == LumaLattice::kFull)
            dsp.copy_rect(dst, ds, src, ss, w, h);
        else
            filter_tap(t, src, ss, dst, ds, w, h, dsp);  // into dst
        return;
    }
    Pixel t0[kMaxBlockSize * kMaxBlockSize];
    Pixel t1[kMaxBlockSize * kMaxBlockSize];
    const int ts = kMaxBlockSize;
    const PixelView a = filter_tap(r.tap[0], src, ss, t0, ts, w, h, dsp);
    const PixelView b = filter_tap(r.tap[1], src, ss, t1, ts, w, h, dsp);
    dsp.avg_rect(dst, ds, a.data, a.stride, b.data, b.stride, w, h);
}

void
build_centre_plane(const Plane &ref, Plane *centre, const Dsp &dsp,
                   ThreadPool *pool)
{
    HDVB_CHECK(centre->width() == ref.width() &&
               centre->height() == ref.height() &&
               centre->border() == ref.border());
    // Taps reach 2 samples before and 3 after the position.
    const int begin = 2 - ref.border();
    const int x_end = ref.width() + ref.border() - 3;
    const int y_end = ref.height() + ref.border() - 3;
    const int ss = ref.stride();
    // The hv kernel takes blocks of at most kMaxBlockSize square; each
    // output sample depends only on its own 6x6 neighbourhood, so the
    // tiling is invisible in the values.
    const int bands = (y_end - begin + kMaxBlockSize - 1) / kMaxBlockSize;
    auto band = [&](int i, int) {
        const int y = begin + i * kMaxBlockSize;
        const int h = std::min(kMaxBlockSize, y_end - y);
        for (int x = begin; x < x_end; x += kMaxBlockSize) {
            dsp.h264_hpel_hv(centre->row(y) + x, ss, ref.row(y) + x, ss,
                             std::min(kMaxBlockSize, x_end - x), h);
        }
    };
    if (pool == nullptr) {
        for (int i = 0; i < bands; ++i)
            band(i, 0);
    } else {
        parallel_for(*pool, bands, band);
    }
}

QpelSearchWindow::QpelSearchWindow(const Plane &ref, const Plane &centre,
                                   int x0, int y0, int w, int h,
                                   MotionVector start, const Dsp &dsp)
    : x0_(x0), y0_(y0), wx_(x0 + (start.x >> 2) - kPad),
      wy_(y0 + (start.y >> 2) - kPad),
      origin_{ref.row(wy_) + wx_, half_h_, half_v_,
              centre.row(wy_) + wx_},
      stride_{ref.stride(), kStride, kStride, centre.stride()}
{
    HDVB_DCHECK(w <= kMaxBlockSize && h <= kMaxBlockSize);
    HDVB_DCHECK((start.x & 3) == 0 && (start.y & 3) == 0);
    const int ss = ref.stride();
    const Pixel *src = ref.row(wy_) + wx_;
    dsp.h264_hpel_h(half_h_, kStride, src, ss, w + 2 * kPad,
                    h + 2 * kPad);
    dsp.h264_hpel_v(half_v_, kStride, src, ss, w + 2 * kPad,
                    h + 2 * kPad);
}

PixelView
QpelSearchWindow::tap_view(const LatticeTap &tap, int ix, int iy) const
{
    const int dx = ix + tap.dx - wx_;
    const int dy = iy + tap.dy - wy_;
    // Outside means the caller walked further than the drift the
    // window was sized for.
    HDVB_DCHECK(dx >= 0 && dx <= 2 * kPad && dy >= 0 && dy <= 2 * kPad);
    const int l = static_cast<int>(tap.lattice);
    return {origin_[l] + dy * stride_[l] + dx, stride_[l]};
}

SubpelCandidate
QpelSearchWindow::candidate(MotionVector mv) const
{
    const int ix = x0_ + (mv.x >> 2);
    const int iy = y0_ + (mv.y >> 2);
    const QpelRecipe &r = kH264QpelTable[(mv.y & 3) * 4 + (mv.x & 3)];
    const PixelView a = tap_view(r.tap[0], ix, iy);
    if (r.taps == 1)
        return {SubpelCandidate::Kind::kView, a, {}};
    return {SubpelCandidate::Kind::kAverage, a,
            tap_view(r.tap[1], ix, iy)};
}

void
mc_h264_chroma(const Plane &ref, int x0, int y0, MotionVector mv,
               Pixel *dst, int ds, int w, int h)
{
    // Luma quarter-sample MV == chroma eighth-sample MV.
    const int ix = x0 + (mv.x >> 3);
    const int iy = y0 + (mv.y >> 3);
    const int fx = mv.x & 7;
    const int fy = mv.y & 7;
    const int ss = ref.stride();
    const Pixel *src = ref.row(iy) + ix;
    const int w00 = (8 - fx) * (8 - fy);
    const int w01 = fx * (8 - fy);
    const int w10 = (8 - fx) * fy;
    const int w11 = fx * fy;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            dst[x] = static_cast<Pixel>(
                (w00 * src[x] + w01 * src[x + 1] + w10 * src[x + ss] +
                 w11 * src[x + ss + 1] + 32) >> 6);
        }
        dst += ds;
        src += ss;
    }
}

}  // namespace hdvb
