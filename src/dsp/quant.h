/**
 * @file
 * Quantisation for the three codec generations.
 *
 * MPEG-class (8x8 DCT coefficients): a perceptual weighting matrix and a
 * linear quantiser_scale (the paper's `vqscale` / `fixed_quant`, range
 * 1..31), with a codec-tunable dead zone and step granularity. The two
 * MPEG-era codecs interpret the same nominal quantiser differently —
 * MPEG-2's step at qscale q is W*q/16 while the H.263/MPEG-4 family uses
 * W*q/8 (twice as coarse) — which is why the paper's Table V shows
 * MPEG-2 at ~1 dB higher PSNR and 2-3x the bitrate of MPEG-4 for the
 * same "QP 5". The step_shift parameter models exactly this.
 *
 * H.264-class (4x4 integer-transform coefficients): the standard's exact
 * MF/V multiplier tables with QP 0..51, where the quantiser step doubles
 * every 6 QP. Equation 1 of the paper maps between the two QP scales.
 */
#ifndef HDVB_DSP_QUANT_H
#define HDVB_DSP_QUANT_H

#include <cstdint>
#include <cstring>

#include "common/types.h"
#include "simd/dispatch.h"

namespace hdvb {

/** Per-coefficient weighting matrix for the 8x8 MPEG-class quantiser. */
struct QuantMatrix8x8 {
    u8 w[64];
};

/** MPEG default intra matrix (stronger weighting at high frequency). */
extern const QuantMatrix8x8 kMpegIntraMatrix;
/** MPEG default inter (non-intra) matrix: flat 16. */
extern const QuantMatrix8x8 kMpegInterMatrix;

/**
 * MPEG-class 8x8 quantiser.
 *
 * step(i) = max(2, (w[i] * qscale) >> step_shift); forward quantisation
 * adds (step * dead_zone) >> 6 before dividing, so dead_zone = 32 is
 * round-to-nearest and 0 is full truncation. Quantise and dequantise
 * run the Dsp table's mpeg_quant8x8 / mpeg_dequant8x8 kernels.
 */
class MpegQuantizer
{
  public:
    /**
     * @param matrix weighting matrix
     * @param qscale quantiser scale, 1..31
     * @param dead_zone rounding offset in 1/64 of a step (0..32)
     * @param step_shift 4 for MPEG-2 semantics (step = W*q/16),
     *        3 for H.263/MPEG-4 semantics (step = W*q/8)
     * @param dsp kernel table (the codec's CodecConfig::simd tier)
     */
    MpegQuantizer(const QuantMatrix8x8 &matrix, int qscale, int dead_zone,
                  int step_shift = 3,
                  const Dsp &dsp = get_dsp(best_simd_level()));

    /** Quantise blk[64] in place; returns the count of non-zero
     * levels. */
    int
    quantize(Coeff blk[64]) const
    {
        return dsp_->mpeg_quant8x8(blk, table_);
    }

    /** Dequantise levels in place back to coefficient magnitudes. */
    void
    dequantize(Coeff blk[64]) const
    {
        dsp_->mpeg_dequant8x8(blk, table_);
    }

    /** Quantiser step for coefficient position @p i. */
    int step(int i) const { return table_.step[i]; }

  private:
    MpegQuantTable table_;
    const Dsp *dsp_;
};

/** Number of distinct QP values in the H.264-class scale. */
inline constexpr int kH264QpCount = 52;

/**
 * H.264-class 4x4 quantiser using the standard MF (forward) and V
 * (dequant) tables; positions fall into three classes by transform gain.
 * The 4x4 block paths run the Dsp table's h264_quant4x4 /
 * h264_dequant4x4 kernels.
 */
class H264Quantizer
{
  public:
    /**
     * @param qp 0..51
     * @param intra selects the wider intra rounding offset (1/3 vs 1/6)
     * @param dsp kernel table (the codec's CodecConfig::simd tier)
     */
    H264Quantizer(int qp, bool intra,
                  const Dsp &dsp = get_dsp(best_simd_level()));

    /** Quantise a 4x4 coefficient block in place; returns nonzero
     * count. */
    int
    quantize4x4(Coeff blk[16]) const
    {
        return dsp_->h264_quant4x4(blk, table_);
    }

    /** Dequantise a 4x4 level block in place. */
    void
    dequantize4x4(Coeff blk[16]) const
    {
        dsp_->h264_dequant4x4(blk, table_);
    }

    /**
     * Dequantise a 4x4 level block and add its inverse transform to the
     * 4x4 block at @p dst: the H.264-class residual reconstruction of
     * encoder and decoder alike. @p dc_coeff, unless INT32_MIN, replaces
     * the dequantised DC (the Intra16 Hadamard path). A block with no
     * level and a zero DC would add zero everywhere, so it returns at
     * once.
     */
    void
    recon4x4(const Coeff levels[16], s32 dc_coeff, Pixel *dst,
             int ds) const
    {
        const Coeff dc =
            dc_coeff == INT32_MIN
                ? Coeff{0}
                : static_cast<Coeff>(clamp<s32>(dc_coeff, -32768, 32767));
        u64 words[4];
        std::memcpy(words, levels, sizeof(words));
        if ((words[0] | words[1] | words[2] | words[3]) == 0 && dc == 0)
            return;
        alignas(16) Coeff tmp[16];
        std::memcpy(tmp, levels, sizeof(tmp));
        dsp_->h264_dequant4x4(tmp, table_);
        if (dc_coeff != INT32_MIN)
            tmp[0] = dc;
        dsp_->h264_inv4x4_add(dst, ds, tmp);
    }

    /**
     * Quantise a single Hadamard-domain DC value (the Intra16 path uses
     * class-0 scale with an extra ÷2, as in the standard). Values are
     * 32-bit: the 4x4 DC Hadamard exceeds int16 range.
     */
    Coeff quantize_dc(s32 value) const;
    s32 dequantize_dc(Coeff level) const;

    int qp() const { return qp_; }

  private:
    int qp_;
    H264QuantTable table_;
    const Dsp *dsp_;
};

/**
 * Equation 1 of the paper: the empirical QP equivalence
 * H264_QP = 12 + 6 * log2(MPEG_QP), rounded to the nearest integer.
 */
int h264_qp_from_mpeg(int mpeg_qscale);

}  // namespace hdvb

#endif  // HDVB_DSP_QUANT_H
