/**
 * @file
 * Per-layer replays. Layers whose work is hidden inside encode() and
 * decode() — motion search, sub-pel refinement, motion compensation,
 * pixel kernels, transforms and quantisers, entropy coding, deblocking
 * and intra prediction — are timed here by calling their public
 * functions on the workload's own pictures and motion fields.
 *
 * Work counts come from a counting copy of the Dsp table handed to the
 * motion estimator through MeParams::dsp; every counted search is
 * checked against one made with the plain table, so counting is shown
 * not to change the work.
 */
#include <cmath>
#include <cstring>
#include <vector>

#include "bench.h"
#include "bitstream/exp_golomb.h"
#include "bitstream/range_coder.h"
#include "bitstream/vlc.h"
#include "dsp/quant.h"
#include "dsp/transform4x4.h"
#include "h264/deblock.h"
#include "h264/intra_pred.h"
#include "mc/mc.h"
#include "me/me.h"

namespace hdvbench {

namespace {

// ---- the counting Dsp copy ----

const Dsp *g_base = nullptr;
u64 g_sad_calls = 0;

int
count_sad16x16(const Pixel *a, int as, const Pixel *b, int bs)
{
    ++g_sad_calls;
    return g_base->sad16x16(a, as, b, bs);
}
int
count_sad16x16_a(const Pixel *a, int as, const Pixel *b, int bs)
{
    ++g_sad_calls;
    return g_base->sad16x16_a(a, as, b, bs);
}
int
count_sad8x8(const Pixel *a, int as, const Pixel *b, int bs)
{
    ++g_sad_calls;
    return g_base->sad8x8(a, as, b, bs);
}
int
count_sad_rect(const Pixel *a, int as, const Pixel *b, int bs, int w, int h)
{
    ++g_sad_calls;
    return g_base->sad_rect(a, as, b, bs, w, h);
}
int
count_sad16x16_et(const Pixel *a, int as, const Pixel *b, int bs, int bound)
{
    ++g_sad_calls;
    return g_base->sad16x16_et(a, as, b, bs, bound);
}
int
count_sad_rect_et(const Pixel *a, int as, const Pixel *b, int bs, int w,
                  int h, int bound)
{
    ++g_sad_calls;
    return g_base->sad_rect_et(a, as, b, bs, w, h, bound);
}

/** @p base with every SAD entry routed through a call counter. */
Dsp
counting_dsp(const Dsp &base)
{
    g_base = &base;
    Dsp d = base;
    d.name = "counting";
    d.sad16x16 = count_sad16x16;
    d.sad16x16_a = count_sad16x16_a;
    d.sad8x8 = count_sad8x8;
    d.sad_rect = count_sad_rect;
    d.sad16x16_et = count_sad16x16_et;
    d.sad_rect_et = count_sad_rect_et;
    return d;
}

/** Keeps results alive so the timed loops are not optimised away. */
volatile u64 g_sink = 0;

/**
 * Median over @p reps of the time of @p calls invocations of
 * @p body(i), in ns per invocation; @p prep runs untimed before each
 * repetition (restoring inputs an in-place kernel overwrote).
 */
template <typename Prep, typename Body>
double
ns_per_call(int calls, int reps, Prep &&prep, Body &&body)
{
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        prep();
        const Clock::time_point t0 = Clock::now();
        for (int i = 0; i < calls; ++i)
            body(i);
        per.push_back(seconds_since(t0) * 1e9 / calls);
    }
    return median(per);
}

template <typename Body>
double
ns_per_call(int calls, int reps, Body &&body)
{
    return ns_per_call(calls, reps, [] {}, body);
}

MotionVector
median_mv(const std::vector<MotionVector> &mvs, int mb_w, int mbx, int mby)
{
    auto at = [&](int x, int y) -> MotionVector {
        if (x < 0 || y < 0 || x >= mb_w)
            return {};
        return mvs[static_cast<size_t>(y) * mb_w + x];
    };
    const MotionVector a = at(mbx - 1, mby), b = at(mbx, mby - 1),
                       c = at(mbx + 1, mby - 1);
    return {median3(a.x, b.x, c.x), median3(a.y, b.y, c.y)};
}

/** One motion-search method over every macroblock of a picture. */
struct SearchPass {
    std::vector<MeResult> results;
    double seconds = 0.0;
};

enum class Method { kEpzs, kHex };

/**
 * Search every macroblock in raster order with spatial candidates (left
 * and top results, as the encoders do) and, when @p hints is given,
 * the decoder-exported vector of that macroblock.
 */
SearchPass
search_picture(const MotionEstimator &me, Method method, const Frame &cur,
               const Frame &ref, const PictureSideInfo *hints)
{
    const int mb_w = cur.width() / 16, mb_h = cur.height() / 16;
    const int shift = me.params().subpel_shift;
    SearchPass pass;
    pass.results.resize(static_cast<size_t>(mb_w) * mb_h);
    std::vector<MotionVector> sub(pass.results.size());
    std::vector<MotionVector> cands;
    const Clock::time_point t0 = Clock::now();
    for (int mby = 0; mby < mb_h; ++mby) {
        for (int mbx = 0; mbx < mb_w; ++mbx) {
            const size_t idx = static_cast<size_t>(mby) * mb_w + mbx;
            cands.clear();
            if (mbx > 0)
                cands.push_back(pass.results[idx - 1].mv);
            if (mby > 0)
                cands.push_back(pass.results[idx - mb_w].mv);
            if (hints) {
                const MbSideInfo &h = hints->at(mbx, mby);
                if (h.mode != MbSideInfo::kIntra)
                    cands.push_back({static_cast<s16>((h.fwd.x + 2) >> 2),
                                     static_cast<s16>((h.fwd.y + 2) >> 2)});
            }
            const MotionVector pred = median_mv(sub, mb_w, mbx, mby);
            const MeBlock blk{&cur.luma(), &ref.luma(), mbx * 16, mby * 16,
                              16, 16};
            const MeResult r = method == Method::kEpzs
                                   ? me.epzs(blk, pred, cands)
                                   : me.hex(blk, pred, cands);
            pass.results[idx] = r;
            sub[idx] = {static_cast<s16>(r.mv.x * (1 << shift)),
                        static_cast<s16>(r.mv.y * (1 << shift))};
        }
    }
    pass.seconds = seconds_since(t0);
    return pass;
}

bool
same_results(const std::vector<MeResult> &a, const std::vector<MeResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].mv != b[i].mv || a[i].cost != b[i].cost ||
            a[i].sad != b[i].sad)
            return false;
    return true;
}

/**
 * Time a whole-picture search with the plain table (median of three),
 * then count its SAD calls with the counting copy and check both return
 * the same MeResult for every macroblock.
 */
SearchPass
measure_search(MeParams params, Method method, const Frame &cur,
               const Frame &ref, const PictureSideInfo *hints,
               const std::string &prefix, const RunContext &ctx,
               Result *result)
{
    const Dsp &plain = get_dsp(ctx.simd);
    params.dsp = &plain;
    const MotionEstimator timed(params);
    std::vector<double> secs;
    SearchPass pass;
    for (int r = 0; r < 3; ++r) {
        pass = search_picture(timed, method, cur, ref, hints);
        secs.push_back(pass.seconds);
    }
    const Dsp counting = counting_dsp(plain);
    params.dsp = &counting;
    const MotionEstimator counted(params);
    g_sad_calls = 0;
    const SearchPass check = search_picture(counted, method, cur, ref, hints);
    result->check(same_results(pass.results, check.results),
                  prefix + ": counting Dsp changed the search result");
    const double mbs = static_cast<double>(pass.results.size());
    result->set(prefix + ".ns_per_mb", median(secs) * 1e9 / mbs, "ns");
    result->set(prefix + ".sad_calls_per_mb",
                static_cast<double>(g_sad_calls) / mbs, "count");
    double cost = 0;
    for (const MeResult &r : pass.results)
        cost += r.cost;
    pass.seconds = median(secs);
    if (!hints)
        result->set(prefix + ".cost_per_mb", cost / mbs, "cost");
    return pass;
}

/** Sub-pel refinement of every macroblock from its full-pel result. */
template <typename PredictAt>
void
measure_subpel(const MeParams &params, const Frame &cur, const Frame &ref,
               const SearchPass &full, std::initializer_list<int> steps,
               bool satd, PredictAt &&predict_at, const char *name,
               Result *result)
{
    const int mb_w = cur.width() / 16;
    const int shift = params.subpel_shift;
    std::vector<double> secs;
    for (int r = 0; r < 3; ++r) {
        const Clock::time_point t0 = Clock::now();
        u64 acc = 0;
        for (size_t i = 0; i < full.results.size(); ++i) {
            const int x0 = static_cast<int>(i % mb_w) * 16;
            const int y0 = static_cast<int>(i / mb_w) * 16;
            const MeBlock blk{&cur.luma(), &ref.luma(), x0, y0, 16, 16};
            const MotionVector start{
                static_cast<s16>(full.results[i].mv.x * (1 << shift)),
                static_cast<s16>(full.results[i].mv.y * (1 << shift))};
            const MeResult res = subpel_refine(
                blk, start, start, params, steps, satd,
                [&](MotionVector mv, Pixel *dst, int ds) {
                    predict_at(ref.luma(), x0, y0, mv, dst, ds);
                });
            acc += static_cast<u64>(res.cost);
        }
        g_sink = g_sink + acc;
        secs.push_back(seconds_since(t0));
    }
    result->set(std::string("me.subpel.ns_per_mb.") + name,
                median(secs) * 1e9 / static_cast<double>(full.results.size()),
                "ns");
}

/** Macroblock-aligned block origins spread over a picture, seeded. */
std::vector<std::pair<int, int>>
block_origins(const Frame &f, u64 seed, int count)
{
    std::vector<std::pair<int, int>> out;
    const int mb_w = f.width() / 16 - 2, mb_h = f.height() / 16 - 2;
    for (int i = 0; i < count; ++i) {
        const u64 r = mix64(seed * 1000003 + static_cast<u64>(i));
        out.push_back({16 + static_cast<int>(r % mb_w) * 16,
                       16 + static_cast<int>((r >> 32) % mb_h) * 16});
    }
    return out;
}

}  // namespace

void
replay_motion_search(const Frame &cur, const Frame &ref,
                     const RunContext &ctx, Result *result)
{
    // The encoders' own parameters: EPZS as the MPEG-class encoders
    // run it (range 16, lambda qscale*16, half-sample), hexagon as the
    // H.264-class encoder does (range 24, lambda from QP, quarter).
    const CodecConfig mpeg = benchmark_config(CodecId::kMpeg2,
                                              Resolution::k1088p25, ctx.simd);
    const CodecConfig avc = benchmark_config(CodecId::kH264,
                                             Resolution::k1088p25, ctx.simd);
    const MeParams epzs{mpeg.me_range, mpeg.qscale * 16, 1, nullptr, 0};
    const MeParams hex{avc.me_range,
                       static_cast<int>(16.0 *
                                        std::pow(2.0, (avc.qp - 12) / 6.0)),
                       2, nullptr, 0};
    const SearchPass e = measure_search(epzs, Method::kEpzs, cur, ref,
                                        nullptr, "me.epzs", ctx, result);
    const SearchPass h = measure_search(hex, Method::kHex, cur, ref, nullptr,
                                        "me.hex", ctx, result);

    const Dsp &dsp = get_dsp(ctx.simd);
    MeParams p = epzs;
    p.dsp = &dsp;
    measure_subpel(p, cur, ref, e, {1}, false,
                   [&](const Plane &r, int x, int y, MotionVector mv,
                       Pixel *dst, int ds) {
                       mc_halfpel(r, x, y, mv, dst, ds, 16, 16, dsp);
                   },
                   "halfpel", result);
    p.subpel_shift = 2;
    measure_subpel(p, cur, ref, e, {2, 1}, false,
                   [&](const Plane &r, int x, int y, MotionVector mv,
                       Pixel *dst, int ds) {
                       mc_qpel_bilin(r, x, y, mv, dst, ds, 16, 16, dsp);
                   },
                   "qpel", result);
    MeParams q = hex;
    q.dsp = &dsp;
    measure_subpel(q, cur, ref, h, {2, 1}, true,
                   [&](const Plane &r, int x, int y, MotionVector mv,
                       Pixel *dst, int ds) {
                       mc_h264_luma(r, x, y, mv, dst, ds, 16, 16, dsp);
                   },
                   "h264", result);
}

void
replay_hinted_search(const Frame &cur, const Frame &ref,
                     const PictureSideInfo &hints, const RunContext &ctx,
                     Result *result)
{
    const CodecConfig avc = benchmark_config(CodecId::kH264,
                                             Resolution::k720p25, ctx.simd);
    const MeParams hex{avc.me_range,
                       static_cast<int>(16.0 *
                                        std::pow(2.0, (avc.qp - 12) / 6.0)),
                       2, nullptr, 0};
    measure_search(hex, Method::kHex, cur, ref, &hints, "me.hex_hinted", ctx,
                   result);
}

void
replay_mc(CodecId codec, const Frame &ref, const PictureSideInfo &side,
          const RunContext &ctx, Result *result)
{
    const Dsp &dsp = get_dsp(ctx.simd);
    struct Mb {
        int x0, y0;
        MotionVector mv;  ///< quarter-sample, as exported
    };
    std::vector<Mb> mbs;
    for (int y = 0; y < side.mb_h; ++y)
        for (int x = 0; x < side.mb_w; ++x) {
            const MbSideInfo &m = side.at(x, y);
            if (m.mode == MbSideInfo::kInterFwd ||
                m.mode == MbSideInfo::kInterBi || m.mode == MbSideInfo::kSkip)
                mbs.push_back({x * 16, y * 16, m.fwd});
        }
    if (mbs.empty()) {
        result->check(false, "motion field has no inter macroblocks");
        return;
    }
    const int n = static_cast<int>(mbs.size());
    Pixel dst[16 * 16];
    auto time = [&](const char *name, auto &&predict) {
        const double ns = ns_per_call(n, 5, [&](int i) {
            predict(mbs[static_cast<size_t>(i)]);
            g_sink = g_sink + dst[i & 255];
        });
        result->set(std::string("mc.ns_per_mb.") + name, ns, "ns");
    };
    switch (codec) {
      case CodecId::kMpeg2:
        // Exported vectors are the half-sample ones scaled by two.
        time("halfpel", [&](const Mb &m) {
            mc_halfpel(ref.luma(), m.x0, m.y0,
                       {static_cast<s16>(m.mv.x / 2),
                        static_cast<s16>(m.mv.y / 2)},
                       dst, 16, 16, 16, dsp);
        });
        break;
      case CodecId::kMpeg4:
        time("qpel_bilin", [&](const Mb &m) {
            mc_qpel_bilin(ref.luma(), m.x0, m.y0, m.mv, dst, 16, 16, 16, dsp);
        });
        time("qpel_tap", [&](const Mb &m) {
            mc_qpel_tap(ref.luma(), m.x0, m.y0, m.mv, dst, 16, 16, 16, dsp);
        });
        break;
      case CodecId::kH264:
        time("h264_luma", [&](const Mb &m) {
            mc_h264_luma(ref.luma(), m.x0, m.y0, m.mv, dst, 16, 16, 16, dsp);
        });
        time("h264_chroma", [&](const Mb &m) {
            mc_h264_chroma(ref.cb(), m.x0 / 2, m.y0 / 2, m.mv, dst, 16, 8, 8);
            mc_h264_chroma(ref.cr(), m.x0 / 2, m.y0 / 2, m.mv, dst + 8, 16, 8,
                           8);
        });
        break;
    }
}

void
replay_h264_picture(const Frame &decoded, const PictureSideInfo &side,
                    Result *result)
{
    const double mbs = static_cast<double>(side.mb_w) * side.mb_h;
    // Boundary strengths need intra/ref/vector per 4x4 block; exported
    // side info has no coded-block pattern, so only intra blocks are
    // marked as carrying coefficients.
    h264::BlockInfoGrid grid(decoded.width(), decoded.height());
    for (int y = 0; y < side.mb_h; ++y)
        for (int x = 0; x < side.mb_w; ++x) {
            const MbSideInfo &m = side.at(x, y);
            const bool intra = m.mode == MbSideInfo::kIntra;
            for (int by = 0; by < 4; ++by)
                for (int bx = 0; bx < 4; ++bx) {
                    h264::BlockInfo &b = grid.at(x * 4 + bx, y * 4 + by);
                    b.intra = intra;
                    b.nonzero = intra;
                    b.ref = intra ? -1 : static_cast<s8>(m.ref);
                    b.mv = m.fwd;
                }
        }
    Frame work(decoded.width(), decoded.height());
    std::vector<double> secs;
    for (int r = 0; r < 3; ++r) {
        work.copy_from(decoded);
        const Clock::time_point t0 = Clock::now();
        h264::deblock_picture(&work, grid, side.quant);
        secs.push_back(seconds_since(t0));
    }
    result->set("h264.deblock.us_per_mb", median(secs) * 1e6 / mbs, "us");

    const Plane &recon = decoded.luma();
    Pixel dst[16 * 16];
    const int mb_w = side.mb_w;
    const double i16 = ns_per_call(side.mb_w * side.mb_h, 3, [&](int i) {
        const int x0 = (i % mb_w) * 16, y0 = (i / mb_w) * 16;
        for (int m = 0; m < 4; ++m) {
            const auto mode = static_cast<h264::Intra16Mode>(m);
            if (h264::intra16_mode_available(x0, y0, mode))
                h264::predict_intra16(recon, x0, y0, mode, dst, 16);
        }
        g_sink = g_sink + dst[i & 255];
    });
    result->set("h264.intra16_pred.ns_per_mb", i16, "ns");
    const int b_w = side.mb_w * 4;
    const double i4 = ns_per_call(b_w * side.mb_h * 4, 3, [&](int i) {
        const int x0 = (i % b_w) * 4, y0 = (i / b_w) * 4;
        for (int m = 0; m < h264::kI4ModeCount; ++m) {
            const auto mode = static_cast<h264::Intra4Mode>(m);
            if (h264::intra4_mode_available(recon, x0, y0, mode))
                h264::predict_intra4(recon, x0, y0, mode, dst, 16);
        }
        g_sink = g_sink + dst[i & 15];
    });
    result->set("h264.intra4_pred.ns_per_block", i4, "ns");
}

void
replay_kernels(const Frame &cur, const Frame &ref, const RunContext &ctx,
               Result *result)
{
    const Dsp &d = get_dsp(ctx.simd);
    const Plane &a = cur.luma();
    const Plane &b = ref.luma();
    const int as = a.stride(), bs = b.stride();
    constexpr int kBlocks = 256;
    constexpr int kReps = 21;
    const auto origins = block_origins(cur, ctx.seed, kBlocks);
    // Reference operands sit a few samples off the block, as a motion
    // candidate would.
    auto pa = [&](int i) {
        const auto [x, y] = origins[static_cast<size_t>(i)];
        return a.row(y) + x;
    };
    auto pb = [&](int i) {
        const auto [x, y] = origins[static_cast<size_t>(i)];
        return b.row(y + (i % 5) - 2) + x + (i % 7) - 3;
    };
    auto set = [&](const char *name, double ns) {
        result->set(std::string("simd.ns.") + name, ns, "ns");
    };
    u64 acc = 0;
    set("sad16x16", ns_per_call(kBlocks, kReps, [&](int i) {
            acc += static_cast<u64>(d.sad16x16(pa(i), as, pb(i), bs));
        }));
    set("sad16x16_a", ns_per_call(kBlocks, kReps, [&](int i) {
            acc += static_cast<u64>(d.sad16x16_a(pa(i), as, pb(i), bs));
        }));
    // A bound of two grey levels per sample: a typical rejection
    // threshold once a good candidate is known.
    set("sad16x16_et", ns_per_call(kBlocks, kReps, [&](int i) {
            acc += static_cast<u64>(d.sad16x16_et(pa(i), as, pb(i), bs, 512));
        }));
    set("satd_rect16", ns_per_call(kBlocks, kReps, [&](int i) {
            acc += static_cast<u64>(d.satd_rect(pa(i), as, pb(i), bs, 16, 16));
        }));
    set("sse_rect16", ns_per_call(kBlocks, kReps, [&](int i) {
            acc += d.sse_rect(pa(i), as, pb(i), bs, 16, 16);
        }));
    Pixel out[16 * 16];
    set("avg_rect16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.avg_rect(out, 16, pa(i), as, pb(i), bs, 16, 16);
            acc += out[i & 255];
        }));
    set("avg4_rect16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.avg4_rect(out, 16, pb(i), bs, 16, 16);
            acc += out[i & 255];
        }));
    set("qpel_bilin16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.qpel_bilin_rect(out, 16, pb(i), bs, 16, 16, 1 + i % 3,
                              3 - i % 3);
            acc += out[i & 255];
        }));
    set("hpel_h16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.h264_hpel_h(out, 16, pb(i), bs, 16, 16);
            acc += out[i & 255];
        }));
    set("hpel_v16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.h264_hpel_v(out, 16, pb(i), bs, 16, 16);
            acc += out[i & 255];
        }));
    set("hpel_hv16", ns_per_call(kBlocks, kReps, [&](int i) {
            d.h264_hpel_hv(out, 16, pb(i), bs, 16, 16);
            acc += out[i & 255];
        }));

    // Residual blocks of the two pictures, and their transforms.
    std::vector<Coeff> resid(static_cast<size_t>(kBlocks) * 64);
    set("sub_rect8", ns_per_call(kBlocks, kReps, [&](int i) {
            d.sub_rect(&resid[static_cast<size_t>(i) * 64], 8, pa(i), as,
                       pb(i), bs, 8, 8);
        }));
    std::vector<Pixel> recon(static_cast<size_t>(kBlocks) * 64);
    set("add_rect8", ns_per_call(kBlocks, kReps,
                                 [&] {
                                     for (int i = 0; i < kBlocks; ++i)
                                         d.copy_rect(&recon[i * 64], 8, pb(i),
                                                     bs, 8, 8);
                                 },
                                 [&](int i) {
                                     d.add_rect(&recon[i * 64], 8,
                                                &resid[i * 64], 8, 8, 8);
                                 }));
    std::vector<Coeff> work(resid.size());
    auto restore = [&](const std::vector<Coeff> &from) {
        return [&] { std::memcpy(work.data(), from.data(),
                                 from.size() * sizeof(Coeff)); };
    };
    set("fdct8x8", ns_per_call(kBlocks, kReps, restore(resid), [&](int i) {
            d.fdct8x8(&work[static_cast<size_t>(i) * 64]);
        }));
    // Quantise the transformed residual the way MPEG-2 inter blocks are.
    const std::vector<Coeff> dct = work;
    const MpegQuantizer mq(kMpegInterMatrix, kBenchmarkMpegQscale, 8, 4);
    auto dset = [&](const char *name, double ns) {
        result->set(std::string("dsp.ns.") + name, ns, "ns");
    };
    dset("mpeg_quant8x8",
         ns_per_call(kBlocks, kReps, restore(dct), [&](int i) {
             acc += static_cast<u64>(
                 mq.quantize(&work[static_cast<size_t>(i) * 64]));
         }));
    const std::vector<Coeff> levels = work;
    dset("mpeg_dequant8x8",
         ns_per_call(kBlocks, kReps, restore(levels), [&](int i) {
             mq.dequantize(&work[static_cast<size_t>(i) * 64]);
         }));
    const std::vector<Coeff> dequant = work;
    set("idct8x8", ns_per_call(kBlocks, kReps, restore(dequant), [&](int i) {
            d.idct8x8(&work[static_cast<size_t>(i) * 64]);
        }));

    // H.264 4x4 path on the same residual, four 4x4 blocks per 8x8.
    const int n4 = kBlocks * 4;
    std::vector<Coeff> r4(static_cast<size_t>(n4) * 16);
    for (int i = 0; i < n4; ++i)
        for (int k = 0; k < 16; ++k)
            r4[static_cast<size_t>(i) * 16 + k] =
                resid[static_cast<size_t>(i / 4) * 64 + ((i % 4) / 2) * 32 +
                      (i % 2) * 4 + (k / 4) * 8 + k % 4];
    work.assign(r4.size(), 0);
    dset("h264_fwd4x4", ns_per_call(n4, kReps, restore(r4), [&](int i) {
             h264_fwd4x4(&work[static_cast<size_t>(i) * 16]);
         }));
    const std::vector<Coeff> t4 = work;
    const H264Quantizer hq(
        benchmark_config(CodecId::kH264, Resolution::k1088p25, ctx.simd).qp,
        false);
    dset("h264_quant4x4", ns_per_call(n4, kReps, restore(t4), [&](int i) {
             acc += static_cast<u64>(
                 hq.quantize4x4(&work[static_cast<size_t>(i) * 16]));
         }));
    const std::vector<Coeff> l4 = work;
    dset("h264_dequant4x4", ns_per_call(n4, kReps, restore(l4), [&](int i) {
             hq.dequantize4x4(&work[static_cast<size_t>(i) * 16]);
         }));
    const std::vector<Coeff> d4 = work;
    dset("h264_inv4x4", ns_per_call(n4, kReps, restore(d4), [&](int i) {
             h264_inv4x4(&work[static_cast<size_t>(i) * 16]);
         }));
    g_sink = g_sink + acc + static_cast<u64>(work[0]) + recon[0];
}

void
replay_bitstream(const RunContext &ctx, Result *result)
{
    // Bins: 16 adaptive contexts, each bin 0 with probability 0.85 —
    // the skew of significance and level bins at this codec's QPs.
    constexpr int kBins = 1 << 16;
    constexpr int kContexts = 16;
    std::vector<u8> bins(kBins);
    for (int i = 0; i < kBins; ++i)
        bins[static_cast<size_t>(i)] =
            (mix64(ctx.seed * 7919 + static_cast<u64>(i)) % 100) >= 85;
    std::vector<u8> coded;
    const double enc_ns = ns_per_call(1, 7, [&](int) {
        BitModel models[kContexts];
        RangeEncoder enc;
        for (int i = 0; i < kBins; ++i)
            enc.encode_bit(models[i % kContexts], bins[static_cast<size_t>(i)]);
        coded = enc.finish();
    });
    bool round_trip = true;
    const double dec_ns = ns_per_call(1, 7, [&](int) {
        BitModel models[kContexts];
        RangeDecoder dec(coded);
        for (int i = 0; i < kBins; ++i)
            round_trip &= dec.decode_bit(models[i % kContexts]) ==
                          bins[static_cast<size_t>(i)];
    });
    result->check(round_trip, "range coder round trip");
    result->set("bitstream.ns_per_bin.range_encode", enc_ns / kBins, "ns");
    result->set("bitstream.ns_per_bin.range_decode", dec_ns / kBins, "ns");

    // VLC: a 64-symbol geometric alphabet, like run/level tables.
    constexpr int kSymbols = 1 << 15;
    std::vector<u64> weights(64);
    for (int s = 0; s < 64; ++s)
        weights[static_cast<size_t>(s)] = 1ull << (40 - (s * 5) / 8);
    const VlcTable table = VlcTable::from_weights(weights);
    std::vector<int> symbols(kSymbols);
    for (int i = 0; i < kSymbols; ++i) {
        const u64 r = mix64(ctx.seed * 104729 + static_cast<u64>(i));
        int s = 0;
        while (s < 63 && (r >> s) & 1)
            ++s;
        symbols[static_cast<size_t>(i)] = s;
    }
    std::vector<u8> vlc_bytes;
    const double write_ns = ns_per_call(1, 7, [&](int) {
        BitWriter bw;
        for (int s : symbols)
            table.encode(bw, s);
        vlc_bytes = bw.finish();
    });
    bool vlc_ok = true;
    const double read_ns = ns_per_call(1, 7, [&](int) {
        BitReader br(vlc_bytes);
        for (int s : symbols)
            vlc_ok &= table.decode(br) == s;
    });
    result->check(vlc_ok, "VLC round trip");
    result->set("bitstream.ns_per_symbol.vlc_write", write_ns / kSymbols,
                "ns");
    result->set("bitstream.ns_per_symbol.vlc_read", read_ns / kSymbols, "ns");

    // Exp-Golomb: small geometric values, as header and MVD syntax.
    BitWriter bw;
    std::vector<u32> values(kSymbols);
    for (int i = 0; i < kSymbols; ++i) {
        values[static_cast<size_t>(i)] =
            static_cast<u32>(symbols[static_cast<size_t>(i)] * 3 + (i & 1));
        write_ue(bw, values[static_cast<size_t>(i)]);
    }
    const std::vector<u8> ue_bytes = bw.finish();
    bool ue_ok = true;
    const double ue_ns = ns_per_call(1, 7, [&](int) {
        BitReader br(ue_bytes);
        for (u32 v : values)
            ue_ok &= read_ue(br) == v;
    });
    result->check(ue_ok, "Exp-Golomb round trip");
    result->set("bitstream.ns_per_ue.read", ue_ns / kSymbols, "ns");
}

}  // namespace hdvbench
