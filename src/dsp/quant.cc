#include "dsp/quant.h"

#include <cmath>

#include "common/check.h"

namespace hdvb {

// The MPEG-2 default intra weighting matrix (ISO/IEC 13818-2 defaults).
const QuantMatrix8x8 kMpegIntraMatrix = {{
     8, 16, 19, 22, 26, 27, 29, 34,
    16, 16, 22, 24, 27, 29, 34, 37,
    19, 22, 26, 27, 29, 34, 34, 38,
    22, 22, 26, 27, 29, 34, 37, 40,
    22, 26, 27, 29, 32, 35, 40, 48,
    26, 27, 29, 32, 35, 40, 48, 58,
    26, 27, 29, 34, 38, 46, 56, 69,
    27, 29, 35, 38, 46, 56, 69, 83,
}};

const QuantMatrix8x8 kMpegInterMatrix = {{
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
    16, 16, 16, 16, 16, 16, 16, 16,
}};

MpegQuantizer::MpegQuantizer(const QuantMatrix8x8 &matrix, int qscale,
                             int dead_zone, int step_shift, const Dsp &dsp)
    : dsp_(&dsp)
{
    HDVB_CHECK(qscale >= 1 && qscale <= 31);
    HDVB_CHECK(dead_zone >= 0 && dead_zone <= 32);
    HDVB_CHECK(step_shift == 3 || step_shift == 4);
    for (int i = 0; i < 64; ++i) {
        int s = (matrix.w[i] * qscale) >> step_shift;
        if (s < 2)
            s = 2;
        table_.step[i] = static_cast<s16>(s);
        table_.offset[i] = static_cast<s16>((s * dead_zone) >> 6);
    }
}

namespace {

// H.264 MF / V tables (ISO/IEC 14496-10), indexed [qp % 6][class],
// class 0 = positions with both coordinates even, class 1 = both odd,
// class 2 = mixed.
const int kMf[6][3] = {
    {13107, 5243, 8066},
    {11916, 4660, 7490},
    {10082, 4194, 6554},
    { 9362, 3647, 5825},
    { 8192, 3355, 5243},
    { 7282, 2893, 4559},
};

const int kV[6][3] = {
    {10, 16, 13},
    {11, 18, 14},
    {13, 20, 16},
    {14, 23, 18},
    {16, 25, 20},
    {18, 29, 23},
};

inline int
position_class(int i)
{
    const int row = i >> 2;
    const int col = i & 3;
    const bool row_even = (row & 1) == 0;
    const bool col_even = (col & 1) == 0;
    if (row_even && col_even)
        return 0;
    if (!row_even && !col_even)
        return 1;
    return 2;
}

}  // namespace

H264Quantizer::H264Quantizer(int qp, bool intra, const Dsp &dsp)
    : qp_(qp), dsp_(&dsp)
{
    HDVB_CHECK(qp >= 0 && qp < kH264QpCount);
    const int rem = qp % 6;
    const int per = qp / 6;
    table_.shift = 15 + per;
    // Standard rounding offsets: f = 2^shift / 3 (intra), / 6 (inter).
    table_.offset = (1 << table_.shift) / (intra ? 3 : 6);
    for (int i = 0; i < 16; ++i) {
        const int cls = position_class(i);
        table_.mf[i] = static_cast<s16>(kMf[rem][cls]);
        table_.v[i] = static_cast<s16>(kV[rem][cls] << per);
    }
}

Coeff
H264Quantizer::quantize_dc(s32 value) const
{
    const s32 c = value;
    const s32 mag = c < 0 ? -c : c;
    int level =
        static_cast<int>((static_cast<s64>(mag) * table_.mf[0] +
                          2 * table_.offset) >>
                         (table_.shift + 1));
    if (level > kCoeffClamp)
        level = kCoeffClamp;
    return static_cast<Coeff>(c < 0 ? -level : level);
}

s32
H264Quantizer::dequantize_dc(Coeff level) const
{
    return static_cast<s32>(level) * table_.v[0] * 2;
}

int
h264_qp_from_mpeg(int mpeg_qscale)
{
    HDVB_CHECK(mpeg_qscale >= 1 && mpeg_qscale <= 31);
    const double qp = 12.0 + 6.0 * std::log2(static_cast<double>(
                                       mpeg_qscale));
    const int rounded = static_cast<int>(std::lround(qp));
    return clamp(rounded, 0, kH264QpCount - 1);
}

}  // namespace hdvb
