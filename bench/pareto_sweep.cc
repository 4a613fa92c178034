/**
 * @file
 * Approximation-tier Pareto sweep: every codec at every executable
 * SIMD tier, encoded at every approximation level (CodecConfig::approx
 * 0..3), measuring encode fps (repeat/CoV medians) and the PSNR and
 * bitrate cost of each level against the exact level 0 run on the same
 * tier. Writes a schema-versioned `hdvb-pareto/1` JSON report; it is
 * an ungated report producer (EXPERIMENTS.md E13).
 *
 * Usage: pareto_sweep [--smoke] [--json OUT] [--repeats N]
 *        [--frames N]
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "core/report.h"
#include "core/runner.h"

using namespace hdvb;

namespace {

/** Highest CodecConfig::approx level (levels are 0..kApproxLevels-1,
 * matching CodecConfig::validate). */
constexpr int kApproxLevels = 4;

/** One measured (codec, SIMD tier, approx level) encode point. fps is
 * the median over the timed repeats; deltas compare against the
 * approx=0 point of the same codec and tier. */
struct ParetoPointBench {
    CodecId codec = CodecId::kMpeg2;
    SimdLevel simd = SimdLevel::kScalar;
    int approx = 0;

    double fps = 0.0;  ///< encode fps, median over repeats
    double fps_cov = 0.0;
    double psnr_db = 0.0;  ///< decoded PSNR-Y against the source
    double bitrate_kbps = 0.0;

    double speedup = 1.0;        ///< fps / fps(approx 0), same tier
    double psnr_delta_db = 0.0;  ///< psnr - psnr(approx 0)
    double bitrate_delta_pct = 0.0;

    /** "h264/approx2/sse2" — the JSON label. */
    std::string
    label() const
    {
        return std::string(codec_name(codec)) + "/approx" +
               std::to_string(approx) + "/" + simd_level_name(simd);
    }
};

/**
 * Encode @p frames of @p sequence with @p codec at @p res and @p simd
 * for every approximation level 0..3, @p repeats timed repeats each
 * (plus one warm-up), then decode each stream once for PSNR. Returns
 * one point per level with the deltas against level 0 filled in.
 */
StatusOr<std::vector<ParetoPointBench>>
bench_pareto_codec(CodecId codec, Resolution res, SequenceId sequence,
                   SimdLevel simd, int frames, int repeats)
{
    std::vector<ParetoPointBench> points;
    points.reserve(kApproxLevels);
    for (int approx = 0; approx < kApproxLevels; ++approx) {
        BenchPoint point;
        point.codec = codec;
        point.sequence = sequence;
        point.resolution = res;
        point.frames = frames;
        point.simd = simd;
        CodecConfig cfg = point.effective_config();
        cfg.approx = approx;
        point.config = cfg;

        ParetoPointBench bench;
        bench.codec = codec;
        bench.simd = simd;
        bench.approx = approx;

        // Warm-up (pools, page faults), then the timed repeats.
        std::vector<double> fps;
        EncodedStream stream;
        for (int run = 0; run < repeats + 1; ++run) {
            StatusOr<EncodeRun> result = run_encode(point);
            if (!result.is_ok())
                return result.status();
            if (run == 0)
                continue;
            fps.push_back(result.value().fps());
            if (run == repeats) {
                bench.bitrate_kbps = result.value().bitrate_kbps();
                stream = std::move(result.value().stream);
            }
        }
        const SampleSummary summary = summarize(std::move(fps));
        bench.fps = summary.median;
        bench.fps_cov = summary.cov;

        const StatusOr<DecodeRun> decoded = run_decode(point, stream);
        if (!decoded.is_ok())
            return decoded.status();
        bench.psnr_db = decoded.value().psnr_y;

        points.push_back(bench);
    }

    const ParetoPointBench &exact = points.front();
    for (ParetoPointBench &bench : points) {
        bench.speedup =
            exact.fps > 0.0 ? bench.fps / exact.fps : 0.0;
        bench.psnr_delta_db = bench.psnr_db - exact.psnr_db;
        bench.bitrate_delta_pct =
            exact.bitrate_kbps > 0.0
                ? 100.0 * (bench.bitrate_kbps / exact.bitrate_kbps -
                           1.0)
                : 0.0;
    }
    return points;
}

struct Options {
    bool smoke = false;
    int repeats = 3;
    int frames = 0;  ///< 0: bench_frames_default()
    std::string json_path;
};

void
write_point(JsonWriter *json, const ParetoPointBench &b)
{
    json->begin_object();
    json->field("label", b.label());
    json->field("codec", codec_name(b.codec));
    json->field("simd", simd_level_name(b.simd));
    json->field("approx", b.approx);
    json->field("fps", b.fps);
    json->field("fps_cov", b.fps_cov);
    json->field("psnr_db", b.psnr_db);
    json->field("bitrate_kbps", b.bitrate_kbps);
    json->field("speedup", b.speedup);
    json->field("psnr_delta_db", b.psnr_delta_db);
    json->field("bitrate_delta_pct", b.bitrate_delta_pct);
    json->end_object();
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            opt.smoke = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            const StatusOr<const char *> value =
                cli_value(argc, argv, &i);
            if (!value.is_ok())
                return cli_usage_error(argv[0], value.status());
            opt.json_path = value.value();
        } else if (std::strcmp(argv[i], "--repeats") == 0) {
            const StatusOr<int> value =
                cli_int_value(argc, argv, &i, 1, 1000);
            if (!value.is_ok())
                return cli_usage_error(argv[0], value.status());
            opt.repeats = value.value();
        } else if (std::strcmp(argv[i], "--frames") == 0) {
            const StatusOr<int> value =
                cli_int_value(argc, argv, &i, 1, 1 << 20);
            if (!value.is_ok())
                return cli_usage_error(argv[0], value.status());
            opt.frames = value.value();
        } else {
            return cli_usage_error(
                argv[0], Status::invalid_argument(
                             std::string("unknown argument: ") +
                             argv[i]));
        }
    }
    const int frames =
        opt.frames > 0 ? opt.frames : bench_frames_default();
    const int repeats = opt.smoke ? 1 : opt.repeats;
    const Resolution res = Resolution::k576p25;
    const SequenceId seq = SequenceId::kRushHour;
    const SimdLevel best = best_simd_level();

    std::printf("pareto sweep: %d frames x %d repeats (%s, %s), "
                "tiers up to %s\n",
                frames, repeats, resolution_info(res).name,
                sequence_name(seq), simd_level_name(best));

    JsonWriter json;
    json.begin_object();
    json.field("schema", "hdvb-pareto/1");
    json.field("sequence", sequence_name(seq));
    json.field("resolution", resolution_info(res).name);
    json.field("frames", frames);
    json.field("repeats", repeats);
    json.key("pareto");
    json.begin_object();
    json.key("points");
    json.begin_array();

    TableWriter table({"Point", "fps", "CoV %", "speedup", "dPSNR dB",
                       "dBits %"});
    bool ok = true;
    for (const CodecId codec : kAllCodecs) {
        for (int level = 0; level <= static_cast<int>(best); ++level) {
            const SimdLevel simd = static_cast<SimdLevel>(level);
            const StatusOr<std::vector<ParetoPointBench>> points =
                bench_pareto_codec(codec, res, seq, simd, frames,
                                   repeats);
            if (!points.is_ok()) {
                std::fprintf(stderr, "%s/%s failed: %s\n",
                             codec_name(codec), simd_level_name(simd),
                             points.status().to_string().c_str());
                ok = false;
                continue;
            }
            for (const ParetoPointBench &b : points.value()) {
                write_point(&json, b);
                table.add_row({b.label(), TableWriter::fmt(b.fps, 2),
                               TableWriter::fmt(b.fps_cov * 100.0, 1),
                               TableWriter::fmt(b.speedup, 2),
                               TableWriter::fmt(b.psnr_delta_db, 2),
                               TableWriter::fmt(b.bitrate_delta_pct,
                                                1)});
            }
        }
    }
    json.end_array();
    json.end_object();
    json.end_object();
    table.print();

    if (!ok)
        return 1;
    if (!opt.json_path.empty()) {
        const Status written = json.write_file(opt.json_path);
        if (!written.is_ok()) {
            std::fprintf(stderr, "report not written: %s\n",
                         written.to_string().c_str());
            return 1;
        }
        std::printf("pareto report: %s\n", opt.json_path.c_str());
    }
    return 0;
}
