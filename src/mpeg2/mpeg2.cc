#include "mpeg2/mpeg2.h"

#include "mpeg/mpeg.h"

namespace hdvb {

namespace {

constexpr MpegSyntax kMpeg2Syntax{
    .name = "mpeg2",
    .mv_shift = 1,
    .p_mode = MpegPModeCoding::kBit,
    .p_mv_pred = MpegMvPred::kLeft,
    .me_seeds = MpegMeSeeds::kRowChain,
    .four_mv = false,
    .intra_rl = RunLevelProfile::kMpeg2Intra,
    .inter_rl = RunLevelProfile::kMpeg2Inter,
    // The MPEG-2-era inter quantiser truncates (narrow dead-zone
    // offset), one of the RD gaps to the later codecs.
    .inter_dead_zone = 8,
    .quant_step_shift = 4,
    .header_tool_flags = false,
};
static_assert(mpeg_syntax_codable(kMpeg2Syntax));

}  // namespace

std::unique_ptr<VideoEncoder>
create_mpeg2_encoder(const CodecConfig &config)
{
    return create_mpeg_encoder(kMpeg2Syntax, config);
}

std::unique_ptr<VideoDecoder>
create_mpeg2_decoder(const CodecConfig &config)
{
    return create_mpeg_decoder(kMpeg2Syntax, config);
}

}  // namespace hdvb
