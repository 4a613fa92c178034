#include "mpeg4/mpeg4.h"

#include "mpeg/mpeg.h"

namespace hdvb {

namespace {

constexpr MpegSyntax kMpeg4Syntax{
    .name = "mpeg4",
    .mv_shift = 2,
    .p_mode = MpegPModeCoding::kUe,
    .p_mv_pred = MpegMvPred::kMedian,
    .me_seeds = MpegMeSeeds::kPGrid,
    .four_mv = true,
    .intra_rl = RunLevelProfile::kMpeg4Intra,
    .inter_rl = RunLevelProfile::kMpeg4Inter,
    .inter_dead_zone = 10,
    .quant_step_shift = 3,
    .header_tool_flags = true,
};
static_assert(mpeg_syntax_codable(kMpeg4Syntax));

}  // namespace

std::unique_ptr<VideoEncoder>
create_mpeg4_encoder(const CodecConfig &config)
{
    return create_mpeg_encoder(kMpeg4Syntax, config);
}

std::unique_ptr<VideoDecoder>
create_mpeg4_decoder(const CodecConfig &config)
{
    return create_mpeg_decoder(kMpeg4Syntax, config);
}

}  // namespace hdvb
