/**
 * @file
 * Transcode trajectory bench: for each codec pair, analysis-reuse
 * transcode fps against the full re-encode oracle, with the PSNR cost
 * and bits saved, as repeat/CoV medians. Writes a schema-versioned
 * `hdvb-transcode/1` JSON report; it is an ungated report producer
 * (EXPERIMENTS.md E12).
 *
 * Usage: transcode_sweep [--smoke] [--json OUT] [--repeats N]
 *        [--frames N]
 */
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "core/report.h"
#include "core/runner.h"
#include "metrics/psnr.h"
#include "synth/synth.h"
#include "transcode/transcode.h"

using namespace hdvb;

namespace {

struct Options {
    bool smoke = false;
    int repeats = 3;
    int frames = 0;  ///< 0: bench_frames_default()
    std::string json_path;
};

struct Pair {
    CodecId from;
    CodecId to;
};

/** The generational pairs of the paper's transcode scenario: archive
 * codecs re-encoded with the newest one, plus the same-codec pair as
 * the reuse best case. */
constexpr Pair kPairs[] = {
    {CodecId::kMpeg2, CodecId::kH264},
    {CodecId::kMpeg4, CodecId::kH264},
    {CodecId::kMpeg2, CodecId::kMpeg4},
};

/** One measured from->to pair. fps numbers are medians over the timed
 * repeats; the _cov fields carry the run-to-run noise estimate. */
struct TranscodePairBench {
    CodecId from = CodecId::kMpeg2;
    CodecId to = CodecId::kH264;

    double hint_fps = 0.0;  ///< analysis-reuse transcode, median
    double hint_fps_cov = 0.0;
    double full_fps = 0.0;  ///< full re-encode oracle, median
    double full_fps_cov = 0.0;
    double speedup = 0.0;   ///< hint_fps / full_fps

    /** End-to-end PSNR-Y of each output against the pristine source;
     * delta = hint - full (negative: hints cost quality). */
    double psnr_hint_db = 0.0;
    double psnr_full_db = 0.0;
    double psnr_delta_db = 0.0;

    s64 bits_in = 0;
    s64 bits_hint = 0;
    s64 bits_full = 0;

    HintMapStats hints;  ///< from the last hinted run

    /** "mpeg2_to_h264" — the JSON key. */
    std::string
    pair_name() const
    {
        return std::string(codec_name(from)) + "_to_" + codec_name(to);
    }
};

/** End-to-end PSNR-Y of @p stream against the pristine synthetic
 * @p sequence it was transcoded from. */
StatusOr<double>
stream_psnr_y(const EncodedStream &stream, CodecId codec,
              const CodecConfig &config, SequenceId sequence)
{
    StatusOr<std::unique_ptr<VideoDecoder>> decoder =
        make_decoder(codec, config);
    if (!decoder.is_ok())
        return decoder.status();
    std::vector<Frame> frames;
    for (const Packet &packet : stream.packets) {
        const Status status = decoder.value()->decode(packet, &frames);
        if (!status.is_ok())
            return status;
    }
    decoder.value()->flush(&frames);
    SyntheticSource pristine(sequence, config.width, config.height);
    PsnrAccumulator acc;
    for (const Frame &frame : frames)
        acc.add(pristine.at(static_cast<int>(frame.poc())), frame);
    return acc.psnr_y();
}

/**
 * Encode @p frames of @p sequence in @p from at @p res, then transcode
 * it to @p to @p repeats times with analysis reuse on and off,
 * measuring fps, quality, and bits. One warm-up run per mode precedes
 * the timed repeats.
 */
StatusOr<TranscodePairBench>
bench_transcode_pair(CodecId from, CodecId to, Resolution res,
                     SequenceId sequence, int frames, int repeats)
{
    // Source material, generated once and reused by every run.
    BenchPoint point;
    point.codec = from;
    point.sequence = sequence;
    point.resolution = res;
    point.frames = frames;
    StatusOr<EncodeRun> source = run_encode(point);
    if (!source.is_ok())
        return source.status();
    const EncodedStream &in = source.value().stream;

    TranscodePairBench bench;
    bench.from = from;
    bench.to = to;
    bench.bits_in = in.total_bits();

    TranscodeOptions opt =
        transcode_benchmark_options(from, to, res, best_simd_level());

    for (const bool reuse : {true, false}) {
        opt.reuse_analysis = reuse;
        const TranscodeEngine engine(opt);

        // Warm-up (pools, page faults), then the timed repeats.
        std::vector<double> fps;
        EncodedStream last;
        for (int run = 0; run < repeats + 1; ++run) {
            StatusOr<TranscodeResult> result = engine.run(in);
            if (!result.is_ok())
                return result.status();
            if (run == 0)
                continue;
            fps.push_back(result.value().stats.fps());
            if (run == repeats) {
                last = std::move(result.value().stream);
                if (reuse)
                    bench.hints = result.value().stats.hints;
            }
        }
        const SampleSummary summary = summarize(std::move(fps));

        const StatusOr<double> psnr =
            stream_psnr_y(last, to, opt.encoder_config, sequence);
        if (!psnr.is_ok())
            return psnr.status();

        if (reuse) {
            bench.hint_fps = summary.median;
            bench.hint_fps_cov = summary.cov;
            bench.psnr_hint_db = psnr.value();
            bench.bits_hint = last.total_bits();
        } else {
            bench.full_fps = summary.median;
            bench.full_fps_cov = summary.cov;
            bench.psnr_full_db = psnr.value();
            bench.bits_full = last.total_bits();
        }
    }

    bench.speedup =
        bench.full_fps > 0.0 ? bench.hint_fps / bench.full_fps : 0.0;
    bench.psnr_delta_db = bench.psnr_hint_db - bench.psnr_full_db;
    return bench;
}

void
write_pair(JsonWriter *json, const TranscodePairBench &b)
{
    json->begin_object();
    json->field("pair", b.pair_name());
    json->field("from", codec_name(b.from));
    json->field("to", codec_name(b.to));
    json->field("transcode_fps", b.hint_fps);
    json->field("transcode_fps_cov", b.hint_fps_cov);
    json->field("full_fps", b.full_fps);
    json->field("full_fps_cov", b.full_fps_cov);
    json->field("speedup", b.speedup);
    json->field("psnr_hint_db", b.psnr_hint_db);
    json->field("psnr_full_db", b.psnr_full_db);
    json->field("psnr_delta_db", b.psnr_delta_db);
    json->field("bits_in", b.bits_in);
    json->field("bits_hint", b.bits_hint);
    json->field("bits_full", b.bits_full);
    json->field("hints_pushed", b.hints.pushed);
    json->field("hints_taken", b.hints.taken);
    json->field("hints_missed", b.hints.missed);
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

    std::printf("transcode sweep: %d frames x %d repeats (%s, %s)\n",
                frames, repeats, resolution_info(res).name,
                sequence_name(seq));

    JsonWriter json;
    json.begin_object();
    json.field("schema", "hdvb-transcode/1");
    json.field("sequence", sequence_name(seq));
    json.field("resolution", resolution_info(res).name);
    json.field("frames", frames);
    json.field("repeats", repeats);
    json.key("pairs");
    json.begin_array();

    TableWriter table({"Pair", "reuse fps", "full fps", "speedup",
                       "dPSNR dB", "bits saved %", "hints"});
    bool ok = true;
    for (const Pair &pair : kPairs) {
        const StatusOr<TranscodePairBench> bench = bench_transcode_pair(
            pair.from, pair.to, res, seq, frames, repeats);
        if (!bench.is_ok()) {
            std::fprintf(stderr, "%s -> %s failed: %s\n",
                         codec_name(pair.from), codec_name(pair.to),
                         bench.status().to_string().c_str());
            ok = false;
            continue;
        }
        const TranscodePairBench &b = bench.value();
        write_pair(&json, b);
        const double saved =
            b.bits_in > 0
                ? 100.0 * (1.0 - static_cast<double>(b.bits_hint) /
                                     static_cast<double>(b.bits_in))
                : 0.0;
        table.add_row(
            {b.pair_name(), TableWriter::fmt(b.hint_fps, 2),
             TableWriter::fmt(b.full_fps, 2),
             TableWriter::fmt(b.speedup, 2),
             TableWriter::fmt(b.psnr_delta_db, 2),
             TableWriter::fmt(saved, 1),
             std::to_string(b.hints.taken) + "/" +
                 std::to_string(b.hints.pushed)});
    }
    json.end_array();
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
        std::printf("transcode report: %s\n", opt.json_path.c_str());
    }
    return 0;
}
