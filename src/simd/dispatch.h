/**
 * @file
 * Runtime-dispatched DSP kernel table.
 *
 * The paper's Figure 1 compares two builds of every codec: plain C
 * ("scalar") and SIMD-optimised. We reproduce that axis with a kernel
 * dispatch table: every pixel-level primitive the codecs use exists in a
 * scalar reference implementation plus SSE2 and AVX2 implementations,
 * selected by SimdLevel. All implementations are bit-exact with each
 * other (tests assert this), so changing the level changes speed, never
 * output.
 *
 * Level selection is a *runtime* decision: the AVX2 kernels are compiled
 * into their own translation unit with -mavx2, and best_simd_level()
 * probes the CPU (CPUID feature bits plus XGETBV/OSXSAVE state, so an
 * OS that does not save the ymm registers never gets AVX2 selected)
 * before the table can hand them out. The HDVB_SIMD environment
 * variable ("scalar" | "sse2" | "avx2") forces a lower tier for CI and
 * A/B runs; it can never raise the level above what the silicon
 * supports.
 */
#ifndef HDVB_SIMD_DISPATCH_H
#define HDVB_SIMD_DISPATCH_H

#include <string>

#include "common/types.h"

namespace hdvb {

/** Instruction-set level for the kernel table, ordered weakest first
 * (comparisons rely on the ordering: a level is "supported" iff it is
 * <= detected_simd_level()). */
enum class SimdLevel {
    kScalar = 0,  ///< Plain C++ reference kernels.
    kSse2 = 1,    ///< SSE2 intrinsics kernels.
    kAvx2 = 2,    ///< AVX2 intrinsics kernels (256-bit integer SIMD).
};

/** Number of levels (kScalar .. kAvx2). */
inline constexpr int kSimdLevelCount = 3;

/** Human-readable level name ("scalar" / "sse2" / "avx2"). */
const char *simd_level_name(SimdLevel level);

/** Parse a level name as spelled by simd_level_name(); returns false
 * (and leaves @p out untouched) on anything else. */
bool parse_simd_level(const std::string &name, SimdLevel *out);

/** Comma-separated legal spellings, for error messages and usage. */
const char *simd_level_names();

/** Strongest level this build + CPU + OS can actually execute,
 * determined once at runtime (CPUID + XGETBV). Ignores HDVB_SIMD. */
SimdLevel detected_simd_level();

/** The level benchmarks default to: detected_simd_level(), optionally
 * lowered by the HDVB_SIMD environment variable. A request above the
 * detected level (or an unknown spelling) is ignored with a warning —
 * the returned level is always executable on this machine. */
SimdLevel best_simd_level();

/** Largest quantised level magnitude; it bounds the 8x8 IDCT input
 * (range safety). */
inline constexpr int kCoeffClamp = 2047;

/**
 * Per-position tables of the MPEG-class 8x8 quantiser (built by
 * MpegQuantizer, dsp/quant.h). Forward: level = min((|c| + offset) /
 * step, kCoeffClamp) with c's sign. Inverse: c = clamp(level * step,
 * +-kCoeffClamp). Kernels require 2 <= step <= 4096 and
 * 0 <= offset <= step / 2.
 */
struct MpegQuantTable {
    s16 step[64];
    s16 offset[64];
};

/**
 * Per-position tables of the H.264-class 4x4 quantiser (built by
 * H264Quantizer). Forward: level = min((|c| * mf + offset) >> shift,
 * kCoeffClamp) with c's sign. Inverse: c = level * v, saturated to
 * s16. The standard's tables keep |c| * mf + offset below 2^31.
 */
struct H264QuantTable {
    s16 mf[16];  ///< forward multiplier, <= 13107
    s16 v[16];   ///< dequant multiplier << (qp / 6), <= 7424
    s32 offset;  ///< rounding offset, < 2^shift / 2
    int shift;   ///< 15 + qp / 6
};

/**
 * Table of pixel-level kernels. All rectangle kernels take row strides
 * in samples; widths are arbitrary (SIMD variants handle tails), except
 * where noted.
 */
struct Dsp {
    /** Implementation name for reports. */
    const char *name;

    // ---- Block-matching costs (motion estimation) ----
    int (*sad16x16)(const Pixel *a, int as, const Pixel *b, int bs);
    /** sad16x16 whose FIRST operand satisfies the Plane alignment
     * contract: a and as are both multiples of 16 (every macroblock
     * position of a Plane row — see video/plane.h). The second operand
     * is unconstrained (motion-shifted reference). Callers must
     * HDVB_DCHECK the contract at the dispatch point. */
    int (*sad16x16_a)(const Pixel *a, int as, const Pixel *b, int bs);
    int (*sad8x8)(const Pixel *a, int as, const Pixel *b, int bs);
    /** Generic SAD; w, h <= 16. */
    int (*sad_rect)(const Pixel *a, int as, const Pixel *b, int bs,
                    int w, int h);
    /**
     * Early-termination SAD (the approx >= 1 tier): may stop
     * accumulating once the partial sum exceeds @p bound and return
     * the partial. The bound is advisory — implementations check it at
     * their own granularity (per row, per row pair), so the returned
     * value is only guaranteed exact when it is <= bound; any return
     * value > bound means "at least this much". Callers comparing
     * against a best-so-far cost must therefore derive @p bound from
     * that cost such that a bail already implies rejection (see
     * MotionEstimator). With bound = INT32_MAX these are plain SADs.
     */
    int (*sad16x16_et)(const Pixel *a, int as, const Pixel *b, int bs,
                       int bound);
    int (*sad_rect_et)(const Pixel *a, int as, const Pixel *b, int bs,
                       int w, int h, int bound);
    /** 4x4 Hadamard-transformed difference (x264-style, sum >> 1). */
    int (*satd4x4)(const Pixel *a, int as, const Pixel *b, int bs);
    /** SATD over a rectangle; w and h multiples of 4, <= 16. */
    int (*satd_rect)(const Pixel *a, int as, const Pixel *b, int bs,
                     int w, int h);
    /** Sum of squared errors over a rectangle (PSNR, distortion). */
    u64 (*sse_rect)(const Pixel *a, int as, const Pixel *b, int bs,
                    int w, int h);

    // ---- Costs against averaged candidates (sub-sample search) ----
    // Each equals building the average with avg_rect / avg4_rect and
    // scoring the result, without writing it anywhere; w, h <= 16.
    /** SAD of a against (b + c + 1) >> 1. */
    int (*sad_avg_rect)(const Pixel *a, int as, const Pixel *b, int bs,
                        const Pixel *c, int cs, int w, int h);
    /** SAD of a against (s00 + s01 + s10 + s11 + 2) >> 2, the MPEG-2
     * diagonal half-sample position of s (avg4_rect). */
    int (*sad_avg4_rect)(const Pixel *a, int as, const Pixel *s, int ss,
                         int w, int h);
    /** SATD of a against (b + c + 1) >> 1; w and h multiples of 4. */
    int (*satd_avg_rect)(const Pixel *a, int as, const Pixel *b, int bs,
                         const Pixel *c, int cs, int w, int h);

    // ---- Pixel moves (motion compensation) ----
    void (*copy_rect)(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
    /** dst = (a + b + 1) >> 1, the bilinear half-sample average. */
    void (*avg_rect)(Pixel *dst, int ds, const Pixel *a, int as,
                     const Pixel *b, int bs, int w, int h);
    /** dst[x] = (s[x] + s[x+1] + s[x+ss] + s[x+ss+1] + 2) >> 2 —
     * the MPEG-2 diagonal half-sample position. */
    void (*avg4_rect)(Pixel *dst, int ds, const Pixel *src, int ss,
                      int w, int h);
    /** Weighted bilinear sub-sample interpolation at quarter-pel
     * fractions fx, fy in 0..3 (the MPEG-4-class qpel filter):
     * dst = ((4-fx)(4-fy) s00 + fx (4-fy) s01 + (4-fx) fy s10 +
     *        fx fy s11 + 8) >> 4. */
    void (*qpel_bilin_rect)(Pixel *dst, int ds, const Pixel *src, int ss,
                            int w, int h, int fx, int fy);

    // ---- Residual handling ----
    /** dst(w x h, stride ds in Coeff) = src - pred. */
    void (*sub_rect)(Coeff *dst, int ds, const Pixel *src, int ss,
                     const Pixel *pred, int ps, int w, int h);
    /** dst = clamp(dst + res); res stride rs in Coeff. */
    void (*add_rect)(Pixel *dst, int ds, const Coeff *res, int rs,
                     int w, int h);

    // ---- 8x8 transforms (MPEG-class codecs), in-place row-major ----
    void (*fdct8x8)(Coeff blk[64]);
    void (*idct8x8)(Coeff blk[64]);

    // ---- H.264-class 6-tap half-sample interpolation ----
    /** Horizontal 6-tap at half-sample; reads src[-2..w+2]. */
    void (*h264_hpel_h)(Pixel *dst, int ds, const Pixel *src, int ss,
                        int w, int h);
    /** Vertical 6-tap at half-sample; reads rows -2..h+2. */
    void (*h264_hpel_v)(Pixel *dst, int ds, const Pixel *src, int ss,
                        int w, int h);
    /** Centre (hv) position: vertical then horizontal 6-tap at full
     * intermediate precision; w, h <= 16. Reads rows -2..h+2 and
     * columns -2..w+2. */
    void (*h264_hpel_hv)(Pixel *dst, int ds, const Pixel *src, int ss,
                         int w, int h);

    // ---- Quantisation, in place (tables above) ----
    /** Returns the number of nonzero levels. */
    int (*mpeg_quant8x8)(Coeff blk[64], const MpegQuantTable &q);
    void (*mpeg_dequant8x8)(Coeff blk[64], const MpegQuantTable &q);
    /** Returns the number of nonzero levels. */
    int (*h264_quant4x4)(Coeff blk[16], const H264QuantTable &q);
    void (*h264_dequant4x4)(Coeff blk[16], const H264QuantTable &q);

    // ---- H.264-class picture reconstruction ----
    /** Inverse 4x4 core transform of the dequantised blk with the final
     * (x + 32) >> 6, added to the 4x4 block at dst with clamping: what
     * h264_inv4x4 (dsp/transform4x4.h) followed by add_rect gives. blk
     * is left as it is. */
    void (*h264_inv4x4_add)(Pixel *dst, int ds, const Coeff blk[16]);
    /**
     * In-loop deblocking of 16 lines across one luma edge: _v filters a
     * vertical edge (16 rows, q0 = pix[0] and p0 = pix[-1] on each row),
     * _h a horizontal one (16 columns, p0 one row above pix). Line i
     * belongs to the 4-line segment i / 4, filtered with bs[i / 4] and
     * tc0[i / 4]; a segment with bs 0 is left as it is, and bs 4 takes
     * the strong filter. Each line reads p2..q2 and writes p1..q1.
     * Requires all 16 lines (vector kernels read every one).
     */
    void (*h264_deblock_luma_v)(Pixel *pix, int stride, int alpha,
                                int beta, const u8 bs[4],
                                const u8 tc0[4]);
    void (*h264_deblock_luma_h)(Pixel *pix, int stride, int alpha,
                                int beta, const u8 bs[4],
                                const u8 tc0[4]);
    /** The same for one chroma edge of 8 Cb and 8 Cr lines at the same
     * position (segments 0, 1 in cb, 2, 3 in cr; both planes share
     * @p stride). Chroma never takes the strong filter: bs 4 filters
     * as the normal filter with the tc0 given. */
    void (*h264_deblock_chroma_v)(Pixel *cb, Pixel *cr, int stride,
                                  int alpha, int beta, const u8 bs[4],
                                  const u8 tc0[4]);
    void (*h264_deblock_chroma_h)(Pixel *cb, Pixel *cr, int stride,
                                  int alpha, int beta, const u8 bs[4],
                                  const u8 tc0[4]);
};

/** Kernel table for @p level. A level the running CPU (or this build)
 * does not support falls back to the strongest supported level below
 * it, so per-file -mavx2 objects can never execute on silicon without
 * AVX2. */
const Dsp &get_dsp(SimdLevel level);

}  // namespace hdvb

#endif  // HDVB_SIMD_DISPATCH_H
