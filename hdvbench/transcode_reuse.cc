/**
 * @file
 * transcode_reuse: MPEG-2 -> H.264 at 720p25 on rush_hour through
 * TranscodeEngine, analysis reuse on (decoder side info seeds the
 * encoder's hex search and prunes its reference and partition trials),
 * two scheduler workers and encoder threads=2. Each timed job transcodes
 * the whole source clip with a fresh engine pipeline.
 */
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "transcode/transcode.h"

namespace hdvbench {

namespace {

constexpr Resolution kRes = Resolution::k720p25;
constexpr int kClipFrames = 16;  ///< I + five P-B-B cycles
/** Set-up here is short (about 0.75 s), so a host hiccup moves one
 * repetition by a large share; seven keep the median steady. */
constexpr int kSetupReps = 7;
/** The bound transcode_test pins: hinted output within 1 dB of the
 * reuse-off oracle. */
constexpr double kReuseLossDb = 1.0;

}  // namespace

void
run_transcode_reuse(const RunContext &ctx, Result *result)
{
    const ResolutionInfo ri = resolution_info(kRes);
    const int start = start_frame(ctx.seed, 3);
    std::vector<Frame> src;
    EncodedStream in;
    const CodecConfig src_cfg =
        benchmark_config(CodecId::kMpeg2, kRes, ctx.simd);
    timed_setup(kSetupReps, result, [&](int rep) {
        Tracer *tracer = rep == 0 ? ctx.tracer : nullptr;
        std::vector<Frame> frames =
            generate_frames(SequenceId::kRushHour, ri.width, ri.height, start,
                            kClipFrames, ctx.nproc, tracer);
        auto enc = make_encoder(CodecId::kMpeg2, src_cfg);
        EncodedStream s;
        s.codec = codec_name(CodecId::kMpeg2);
        s.width = ri.width;
        s.height = ri.height;
        for (const Frame &f : frames)
            (void)enc.value()->encode(f, &s.packets);
        (void)enc.value()->flush(&s.packets);
        std::vector<u8> bytes;
        {
            Span span(tracer, "serialize_stream");
            bytes = serialize_stream(s);
        }
        EncodedStream parsed;
        Status st;
        {
            Span span(tracer, "parse_stream");
            st = parse_stream(bytes, &parsed);
        }
        result->check(st.is_ok(), "parse_stream: " + st.to_string());
        if (rep == 0) {
            src = std::move(frames);
            in = std::move(parsed);
        }
        return digest_bytes(bytes.data(), bytes.size());
    });
    const double mbs = (ri.width / 16) * (ri.height / 16);
    if (ctx.trace) {
        result->set("synth.ms_per_frame.rush_hour",
                    1000.0 * median(ctx.tracer->durations("generate_frame")),
                    "ms");
        result->set("container.us_per_mb.serialize",
                    1e6 * median(ctx.tracer->durations("serialize_stream")) /
                        (mbs * kClipFrames),
                    "us");
        result->set("container.us_per_mb.parse",
                    1e6 * median(ctx.tracer->durations("parse_stream")) /
                        (mbs * kClipFrames),
                    "us");
    }
    if (in.packets.empty())
        return;

    TranscodeOptions opt =
        transcode_benchmark_options(CodecId::kMpeg2, CodecId::kH264, kRes,
                                    ctx.simd);
    opt.reuse_analysis = true;
    opt.workers = 2;
    opt.encoder_config.threads = 2;
    const TranscodeEngine engine(opt);

    // Jobs run back to back; with tracing on, every other job is traced,
    // so both kinds see the same host drift. Per-job ms per frame.
    u64 first_digest = 0;
    TranscodeResult first;
    std::vector<double> job_ms[2];
    double timed = 0.0;
    for (int job = 0; timed < ctx.seconds; ++job) {
        const bool traced = ctx.trace && job % 2 == 1;
        const Clock::time_point t0 = Clock::now();
        StatusOr<TranscodeResult> r = Status::internal("not run");
        {
            Span span(traced ? ctx.tracer : nullptr, "TranscodeEngine::run");
            r = engine.run(in);
        }
        const double dt = seconds_since(t0);
        timed += dt;
        result->attempted += kClipFrames;
        if (!r.is_ok()) {
            result->check(false, "transcode: " + r.status().to_string());
            return;
        }
        result->check(r.value().stats.frames == kClipFrames,
                      "transcode carried " +
                          std::to_string(r.value().stats.frames) +
                          " pictures");
        job_ms[traced].push_back(1000.0 * dt / kClipFrames);
        const u64 d = digest_stream(r.value().stream.packets);
        if (first.stream.packets.empty()) {
            first_digest = d;
            first = std::move(r.value());
        } else if (d != first_digest) {
            result->check(false, "transcode jobs produced different "
                                 "streams");
        }
    }
    const double p50 = percentile(job_ms[0], 0.5);
    const double p99 = percentile(job_ms[0], 0.99);
    const double fps = 1000.0 / median(job_ms[0]);

    auto source_at = [&](s64 poc) -> const Frame & {
        return src[static_cast<size_t>(poc)];
    };
    const StreamCheck hinted =
        verify_stream(CodecId::kH264, opt.encoder_config,
                      first.stream.packets, source_at, kClipFrames,
                      kClipFrames, result, "transcode/hinted");
    // The reuse-off oracle: full analysis on the same input.
    TranscodeOptions off_opt = opt;
    off_opt.reuse_analysis = false;
    const Clock::time_point off0 = Clock::now();
    StatusOr<TranscodeResult> off = TranscodeEngine(off_opt).run(in);
    const double off_seconds = seconds_since(off0);
    if (!off.is_ok()) {
        result->check(false, "reuse-off transcode: " +
                                 off.status().to_string());
        return;
    }
    const StreamCheck oracle =
        verify_stream(CodecId::kH264, opt.encoder_config,
                      off.value().stream.packets, source_at, kClipFrames,
                      kClipFrames, result, "transcode/oracle");
    result->check(oracle.psnr_y - hinted.psnr_y <= kReuseLossDb,
                  "hinted transcode loses more than 1 dB against the "
                  "reuse-off oracle");

    result->set("fps", fps, "frames/s");
    result->set("p50_ms", p50, "ms");
    result->set("p99_ms", p99, "ms");
    result->set("psnr_y_db", hinted.psnr_y, "dB");
    result->set("kbps", window_kbps(first.stream.packets, kClipFrames),
                "kbit/s");
    result->info["stream_digest.h264"] = std::to_string(first_digest);
    if (!ctx.trace)
        return;

    result->set("trace.overhead.fps",
                1000.0 / median(job_ms[1]) / fps - 1, "ratio");
    result->set("trace.overhead.p50_ms",
                percentile(job_ms[1], 0.5) / p50 - 1, "ratio");
    result->set("trace.overhead.p99_ms",
                percentile(job_ms[1], 0.99) / p99 - 1, "ratio");

    const HintMapStats &hs = first.stats.hints;
    result->set("transcode.hint_take_ratio",
                hs.pushed ? static_cast<double>(hs.taken) / hs.pushed : 0.0,
                "ratio");
    result->set("transcode.hints_missed", static_cast<double>(hs.missed),
                "count");
    const double pipe_s = median(job_ms[0]) * kClipFrames / 1000.0;
    result->set("transcode.reuse_speedup", off_seconds / pipe_s, "ratio");

    // The two halves standalone: decode exporting side info, then the
    // hinted encode of the decoded pictures.
    auto hints = std::make_shared<HintMap>();
    auto dec = make_decoder(CodecId::kMpeg2, opt.decoder_config);
    (void)dec.value()->export_side_info(hints.get());
    std::vector<Frame> decoded;
    const Clock::time_point d0 = Clock::now();
    for (const Packet &p : in.packets)
        (void)dec.value()->decode(p, &decoded);
    (void)dec.value()->flush(&decoded);
    const double t_dec = seconds_since(d0);
    auto enc = make_encoder(CodecId::kH264, opt.encoder_config);
    (void)enc.value()->use_hints(hints);
    std::vector<Packet> packets;
    const Clock::time_point e0 = Clock::now();
    for (const Frame &f : decoded)
        (void)enc.value()->encode(f, &packets);
    (void)enc.value()->flush(&packets);
    const double t_enc = seconds_since(e0);
    result->check(digest_stream(packets) == first_digest,
                  "standalone hinted encode differs from the pipeline's");
    result->set("transcode.decode_ms_per_frame", 1000.0 * t_dec / kClipFrames,
                "ms");
    result->set("transcode.encode_hinted_ms_per_frame",
                1000.0 * t_enc / kClipFrames, "ms");
    result->set("transcode.overlap", 1.0 - pipe_s / (t_dec + t_enc), "ratio");

    // Hint-seeded hex search over the first P picture, candidates from
    // the MPEG-2 decoder's exported vectors.
    CollectSink sink;
    auto dec2 = make_decoder(CodecId::kMpeg2, opt.decoder_config);
    (void)dec2.value()->export_side_info(&sink);
    std::vector<Frame> scratch;
    for (const Packet &p : in.packets)
        (void)dec2.value()->decode(p, &scratch);
    (void)dec2.value()->flush(&scratch);
    const PictureSideInfo *p_pic = sink.first(PictureType::kP);
    if (!p_pic) {
        result->check(false, "no exported P picture to replay");
        return;
    }
    {
        Span span(ctx.tracer, "replay.hinted_search");
        // The first P picture predicts from the I picture at poc 0.
        replay_hinted_search(src[static_cast<size_t>(p_pic->poc)],
                             bordered_copy(src[0]), *p_pic, ctx, result);
    }
    {
        Span span(ctx.tracer, "replay.kernels");
        replay_kernels(src[1], bordered_copy(src[0]), ctx, result);
        replay_bitstream(ctx, result);
    }
}

}  // namespace hdvbench
