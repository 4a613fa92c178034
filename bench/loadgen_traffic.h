/**
 * @file
 * Traffic shared by the serve-layer load generators (server_loadgen
 * and chaos_loadgen): the tiny picture size, the per-session codec
 * rotation, the session codec config, the thumbnail replay streams
 * encoded once up front, and the command line. Pictures are tiny
 * (96x64) so the contention under test is in the scheduler, not the
 * DCTs.
 */
#ifndef HDVB_BENCH_LOADGEN_TRAFFIC_H
#define HDVB_BENCH_LOADGEN_TRAFFIC_H

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "core/benchmark.h"
#include "synth/synth.h"

namespace hdvb::bench {

inline constexpr int kWidth = 96;
inline constexpr int kHeight = 64;

/** The loadgens' command line: `[--smoke] [--json <path>]`. */
struct LoadgenArgs {
    bool smoke = false;     ///< shrink frame counts for CI
    std::string json_path;  ///< report path; holds the default on entry
};

/**
 * Parse argv strictly (common/cli.h) into @p args. Returns 0, or the
 * usage-error exit code once the reason is printed: an unknown flag,
 * or a --json without a value.
 */
inline int
parse_loadgen_args(int argc, char **argv, LoadgenArgs *args)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            args->smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            const StatusOr<const char *> value = cli_value(argc, argv, &i);
            if (!value.is_ok())
                return cli_usage_error(argv[0], value.status());
            args->json_path = value.value();
        } else {
            return cli_usage_error(
                argv[0], Status::invalid_argument(
                             std::string("unknown argument: ") + argv[i]));
        }
    }
    return 0;
}

/** Codec of the @p session_index-th session of a class: the three
 * codecs in turn. */
inline CodecId
codec_for(int session_index)
{
    return kAllCodecs[session_index % kCodecCount];
}

/** The benchmark config of @p codec, shrunk to the tiny picture. */
inline CodecConfig
tiny_config(CodecId codec)
{
    CodecConfig cfg = benchmark_config(codec, Resolution::k576p25,
                                       best_simd_level());
    cfg.width = kWidth;
    cfg.height = kHeight;
    return cfg;
}

/** Encode @p frames tiny rush_hour pictures per codec into
 * @p streams, indexed by codec; thumbnail decode sessions replay
 * these streams. */
inline Status
encode_tiny_streams(int frames, std::vector<Packet> streams[kCodecCount])
{
    for (CodecId codec : kAllCodecs) {
        StatusOr<std::unique_ptr<VideoEncoder>> encoder =
            make_encoder(codec, tiny_config(codec));
        if (!encoder.is_ok())
            return encoder.status();
        SyntheticSource source(SequenceId::kRushHour, kWidth, kHeight);
        std::vector<Packet> *out = &streams[static_cast<int>(codec)];
        for (int i = 0; i < frames; ++i) {
            const Status status =
                encoder.value()->encode(source.next(), out);
            if (!status.is_ok())
                return status;
        }
        const Status status = encoder.value()->flush(out);
        if (!status.is_ok())
            return status;
    }
    return Status::ok();
}

}  // namespace hdvb::bench

#endif  // HDVB_BENCH_LOADGEN_TRAFFIC_H
