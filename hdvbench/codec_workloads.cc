/**
 * @file
 * The two single-codec workloads: encode_hd (steady-state encode of
 * blue_sky at 1088p25) and decode_hd (repeated decode of riverbed at
 * 1088p25). Both call VideoEncoder/VideoDecoder directly, with codec
 * threads=1 and no session, so their figures are the paper's Figure 1
 * axis.
 *
 * The three codecs take turns in short slices for the whole timed
 * region rather than one after another: the shared host's speed drifts
 * over seconds, and interleaving exposes every codec to the same drift.
 * Figures are taken from the quiet end of each kind of call's samples
 * (kQuietQuantile).
 */
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"

namespace hdvbench {

namespace {

constexpr Resolution kRes = Resolution::k1088p25;
/** Distinct source pictures for encode_hd: the H.264 warm-up (25) plus
 * the quality window; longer timed regions walk them ping-pong. */
constexpr int kEncodeSourceFrames = 40;
/** Display window over which encode_hd's PSNR and bitrate are taken:
 * fixed, so both are exact functions of the seed. */
constexpr s64 kQualityFrames = 28;
/** riverbed pictures per decode_hd stream: I + three P-B-B cycles. */
constexpr int kDecodeFrames = 10;
constexpr int kSetupReps = 3;
/** Timed seconds one codec runs before the next takes its turn. */
constexpr double kSliceSeconds = 0.25;
/**
 * Each kind of call (a decode_hd packet, an encode_hd anchor cycle of
 * one picture type) is timed at this quantile of its samples. On the
 * shared host whole slices run up to 1.7x slower than their neighbours,
 * so a codec's samples fall in two bands and their median sits between
 * them; neighbours only ever slow a call down, and the fast end of each
 * kind's samples repeats from run to run.
 */
constexpr double kQuietQuantile = 0.1;

CodecConfig
codec_config(CodecId codec, int threads, SimdLevel simd)
{
    CodecConfig cfg = benchmark_config(codec, kRes, simd);
    cfg.threads = threads;
    return cfg;
}

double
mbs_per_picture()
{
    const ResolutionInfo ri = resolution_info(kRes);
    return (ri.width / 16) * (ri.height / 16);
}

/** Frames before the timed region: the reference window must be full,
 * refs x (bframes + 1) for H.264 and one I-P-B-B cycle otherwise. */
int
warmup_frames(CodecId codec, const CodecConfig &cfg)
{
    return codec == CodecId::kH264 ? cfg.refs * (cfg.bframes + 1)
                                   : cfg.bframes + 2;
}

/**
 * Run @p slice(traced) for every codec in turn until the timed region
 * holds @p seconds. With tracing on, rounds alternate between untraced
 * and traced, so the overhead is measured under the same host drift.
 * Each slice runs on the next CPU in turn (three lanes over four CPUs
 * visit every pairing).
 */
template <typename Slice>
void
round_robin(const RunContext &ctx, int lanes, Slice &&slice)
{
    CpuRotation cpus;
    double timed = 0.0;
    for (int round = 0; timed < ctx.seconds; ++round) {
        for (int lane = 0; lane < lanes; ++lane) {
            cpus.next();
            timed += slice(lane, ctx.trace && round % 2 == 1);
        }
    }
}

/** Per-codec summary figures, and the workload's geometric means. */
struct Figures {
    std::vector<double> fps, p50, p99;

    void
    add(double f, const std::vector<double> &ms)
    {
        fps.push_back(f);
        p50.push_back(percentile(ms, 0.5));
        p99.push_back(percentile(ms, 0.99));
    }
    void
    report(Result *result) const
    {
        result->set("fps", geomean(fps), "frames/s");
        result->set("p50_ms", geomean(p50), "ms");
        result->set("p99_ms", geomean(p99), "ms");
    }
    void
    report_overhead(const Figures &traced, Result *result) const
    {
        result->set("trace.overhead.fps",
                    geomean(traced.fps) / geomean(fps) - 1, "ratio");
        result->set("trace.overhead.p50_ms",
                    geomean(traced.p50) / geomean(p50) - 1, "ratio");
        result->set("trace.overhead.p99_ms",
                    geomean(traced.p99) / geomean(p99) - 1, "ratio");
    }
};

/** One encoder fed its ping-pong source walk. */
struct EncodeLane {
    CodecId codec = CodecId::kMpeg2;
    CodecConfig cfg;
    std::unique_ptr<VideoEncoder> enc;
    std::vector<Packet> packets;
    s64 submitted = 0;
    s64 pictures_timed = 0;
    /** ms per picture of every call that emitted, by traced flag and by
     * the anchor cycle it emitted (the anchor's picture type and how
     * many pictures): an I cycle costs more than a P cycle. */
    std::map<std::pair<int, int>, std::vector<double>> cycle_ms[2];
    std::vector<std::pair<int, int>> cycles[2];  ///< keys, in call order
    std::vector<double> ms_in_order;  ///< both kinds, in call order

    /** Each emitting call's quiet ms per picture (its cycle kind's)
     * into @p ms; returns frames/s of a run of quiet calls. */
    double
    quiet(int traced, std::vector<double> *ms) const
    {
        ms->clear();
        double pictures = 0.0, total = 0.0;
        for (const std::pair<int, int> &key : cycles[traced]) {
            ms->push_back(
                percentile(cycle_ms[traced].at(key), kQuietQuantile));
            pictures += key.second;
            total += ms->back() * key.second;
        }
        return 1000.0 * pictures / total;
    }

    /** Encode one frame; returns pictures emitted and the call time. */
    std::pair<int, double>
    step(const std::vector<Frame> &src, Result *result, Tracer *tracer)
    {
        const size_t before = packets.size();
        const Frame &f = src[static_cast<size_t>(
            pingpong(submitted, static_cast<int>(src.size())))];
        const Clock::time_point t0 = Clock::now();
        Status s;
        {
            Span span(tracer, "VideoEncoder::encode");
            s = enc->encode(f, &packets);
        }
        const double dt = seconds_since(t0);
        ++submitted;
        ++result->attempted;
        if (!s.is_ok())
            result->check(false, std::string("encode: ") + s.to_string());
        return {static_cast<int>(packets.size() - before), dt};
    }

    /** Encode whole anchor cycles for at least @p quota seconds. */
    double
    slice(double quota, const std::vector<Frame> &src, Result *result,
          Tracer *tracer, bool traced)
    {
        double secs = 0.0;
        for (;;) {
            const auto [emitted, dt] =
                step(src, result, traced ? tracer : nullptr);
            secs += dt;
            if (emitted == 0)
                continue;
            pictures_timed += emitted;
            const std::pair<int, int> key = {
                static_cast<int>(packets[packets.size() - emitted].type),
                emitted};
            cycles[traced].push_back(key);
            cycle_ms[traced][key].push_back(dt * 1000.0 / emitted);
            ms_in_order.push_back(dt * 1000.0 / emitted);
            if (secs >= quota)
                return secs;
        }
    }
};

/** Least-squares slope of y on x. */
double
slope(const std::vector<double> &x, const std::vector<double> &y)
{
    const double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    const double den = n * sxx - sx * sx;
    return den > 0 ? (n * sxy - sx * sy) / den : 0.0;
}

void
report_pool(const std::vector<FramePoolStats> &pools, Result *result)
{
    s64 allocs = 0, reuses = 0, high = 0;
    for (const FramePoolStats &s : pools) {
        allocs += s.buffer_allocs;
        reuses += s.buffer_reuses;
        high = std::max(high, s.bytes_high_water);
    }
    const double total = static_cast<double>(allocs + reuses);
    result->set("video.arena_reuse_ratio",
                total > 0 ? reuses / total : 0.0, "ratio");
    result->set("video.arena_high_water_mb",
                static_cast<double>(high) / 1048576.0, "MiB");
}

/** encode_hd frames at threads=1 against threads=nproc; the two
 * streams must be byte-identical. */
void
band_speedup(CodecId codec, const std::vector<Frame> &src,
             const RunContext &ctx, Result *result)
{
    double secs[2] = {0, 0};
    u64 digest[2] = {0, 0};
    const int threads[2] = {1, ctx.nproc};
    for (int i = 0; i < 2; ++i) {
        auto enc = make_encoder(codec, codec_config(codec, threads[i],
                                                    ctx.simd));
        std::vector<Packet> packets;
        const Clock::time_point t0 = Clock::now();
        for (int f = 0; f < 7; ++f)
            (void)enc.value()->encode(src[static_cast<size_t>(f)],
                                      &packets);
        (void)enc.value()->flush(&packets);
        secs[i] = seconds_since(t0);
        digest[i] = digest_stream(packets);
    }
    result->check(digest[0] == digest[1],
                  std::string(codec_name(codec)) +
                      ": stream differs between threads=1 and threads=" +
                      std::to_string(ctx.nproc));
    result->set(std::string("common.band_speedup.") + codec_name(codec),
                secs[0] / secs[1], "ratio");
}

}  // namespace

void
run_encode_hd(const RunContext &ctx, Result *result)
{
    const ResolutionInfo ri = resolution_info(kRes);
    const int start = start_frame(ctx.seed, 0);
    std::vector<Frame> src;
    timed_setup(kSetupReps, result, [&](int rep) {
        std::vector<Frame> frames = generate_frames(
            SequenceId::kBlueSky, ri.width, ri.height, start,
            kEncodeSourceFrames, ctx.nproc, rep == 0 ? ctx.tracer : nullptr);
        u64 d = 1469598103934665603ull;
        for (const Frame &f : frames)
            d = digest_frame(f, d);
        if (rep == 0)
            src = std::move(frames);
        return d;
    });
    if (ctx.trace)
        result->set("synth.ms_per_frame.blue_sky",
                    1000.0 * median(ctx.tracer->durations("generate_frame")),
                    "ms");

    std::vector<EncodeLane> lanes;
    for (CodecId codec : kAllCodecs) {
        EncodeLane lane;
        lane.codec = codec;
        lane.cfg = codec_config(codec, 1, ctx.simd);
        auto made = make_encoder(codec, lane.cfg);
        if (!made.is_ok()) {
            result->check(false, std::string(codec_name(codec)) + ": " +
                                     made.status().to_string());
            return;
        }
        lane.enc = std::move(made.value());
        const int warm = warmup_frames(codec, lane.cfg);
        int emitted = 0;
        while (lane.submitted < warm || emitted == 0)
            emitted = lane.step(src, result, nullptr).first;
        lanes.push_back(std::move(lane));
    }
    std::vector<s64> allocs0;
    for (const EncodeLane &lane : lanes)
        allocs0.push_back(lane.enc->stats().pool.buffer_allocs);
    round_robin(ctx, kCodecCount, [&](int i, bool traced) {
        return lanes[static_cast<size_t>(i)].slice(kSliceSeconds, src,
                                                   result, ctx.tracer,
                                                   traced);
    });

    Figures figures, traced;
    std::vector<double> psnr;
    std::vector<FramePoolStats> pools;
    double kbps = 0.0;
    auto source_at = [&](s64 poc) -> const Frame & {
        return src[static_cast<size_t>(pingpong(poc, kEncodeSourceFrames))];
    };
    std::vector<double> quiet_ms;
    for (size_t i = 0; i < lanes.size(); ++i) {
        EncodeLane &lane = lanes[i];
        const std::string name = codec_name(lane.codec);
        const double fps = lane.quiet(0, &quiet_ms);
        figures.add(fps, quiet_ms);
        result->set("codec.encode_fps." + name, figures.fps.back(),
                    "frames/s");
        if (ctx.trace) {
            const double traced_fps = lane.quiet(1, &quiet_ms);
            traced.add(traced_fps, quiet_ms);
            result->set("video.allocs_per_frame." + name,
                        static_cast<double>(
                            lane.enc->stats().pool.buffer_allocs -
                            allocs0[i]) /
                            static_cast<double>(lane.pictures_timed),
                        "count");
        }
        // The quality window is fixed, so keep encoding (untimed) until
        // it is covered whatever the machine's speed.
        while (lane.submitted < kQualityFrames + lane.cfg.bframes + 1)
            lane.step(src, result, nullptr);
        const Status flushed = lane.enc->flush(&lane.packets);
        result->check(flushed.is_ok(), name + ": flush " +
                                           flushed.to_string());
        pools.push_back(lane.enc->stats().pool);
        const StreamCheck sc =
            verify_stream(lane.codec, lane.cfg, lane.packets, source_at,
                          lane.submitted, kQualityFrames, result,
                          "encode_hd/" + name);
        psnr.push_back(sc.psnr_y);
        kbps += window_kbps(lane.packets, kQualityFrames);
        result->info["stream_digest." + name] =
            std::to_string(digest_stream(lane.packets));
    }
    figures.report(result);
    result->set("psnr_y_db", *std::min_element(psnr.begin(), psnr.end()),
                "dB");
    result->set("kbps", kbps, "kbit/s");
    if (!ctx.trace)
        return;
    figures.report_overhead(traced, result);
    report_pool(pools, result);

    // Flat per-picture time across the timed region shows the warm-up
    // covered the fill of the H.264 reference window.
    const std::vector<double> &h264 = lanes.back().ms_in_order;
    const size_t half = h264.size() / 2;
    if (half > 0) {
        std::vector<double> first(h264.begin(), h264.begin() + half);
        std::vector<double> second(h264.begin() + half, h264.end());
        result->set("codec.encode_ms_drift.h264",
                    median(second) / median(first), "ratio");
    }

    // Layer replays on this workload's own pictures: a P distance apart
    // for motion search, adjacent for the kernels.
    const Frame ref = bordered_copy(src[0]);
    {
        Span span(ctx.tracer, "replay.motion_search");
        replay_motion_search(src[3], ref, ctx, result);
    }
    {
        Span span(ctx.tracer, "replay.kernels");
        replay_kernels(src[1], ref, ctx, result);
        replay_bitstream(ctx, result);
    }
    for (CodecId codec : kAllCodecs) {
        Span span(ctx.tracer, "replay.band_speedup");
        band_speedup(codec, src, ctx, result);
    }
}

void
run_decode_hd(const RunContext &ctx, Result *result)
{
    const ResolutionInfo ri = resolution_info(kRes);
    const int start = start_frame(ctx.seed, 1);
    std::vector<Frame> src;
    std::vector<EncodedStream> streams;
    timed_setup(kSetupReps, result, [&](int rep) {
        Tracer *tracer = rep == 0 ? ctx.tracer : nullptr;
        std::vector<Frame> frames =
            generate_frames(SequenceId::kRiverbed, ri.width, ri.height,
                            start, kDecodeFrames, ctx.nproc, tracer);
        std::vector<EncodedStream> built;
        u64 d = 1469598103934665603ull;
        for (CodecId codec : kAllCodecs) {
            // Band threads only speed set-up: streams are byte-identical
            // for every thread count.
            const CodecConfig cfg = codec_config(codec, ctx.nproc, ctx.simd);
            auto enc = make_encoder(codec, cfg);
            EncodedStream s;
            s.codec = codec_name(codec);
            s.width = cfg.width;
            s.height = cfg.height;
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
            d = digest_bytes(bytes.data(), bytes.size(), d);
            built.push_back(std::move(parsed));
        }
        if (rep == 0) {
            src = std::move(frames);
            streams = std::move(built);
        }
        return d;
    });
    const double mbs = mbs_per_picture();
    if (ctx.trace) {
        result->set("synth.ms_per_frame.riverbed",
                    1000.0 * median(ctx.tracer->durations("generate_frame")),
                    "ms");
        const double mb_total = mbs * kDecodeFrames;
        result->set("container.us_per_mb.serialize",
                    1e6 * median(ctx.tracer->durations("serialize_stream")) /
                        mb_total,
                    "us");
        result->set("container.us_per_mb.parse",
                    1e6 * median(ctx.tracer->durations("parse_stream")) /
                        mb_total,
                    "us");
    }

    // One lane per codec. Every pass gets a fresh decoder; they share
    // one arena, so the steady state recycles buffers instead of
    // faulting pages in.
    struct Call {
        int type;
        double bits;
        double ms;
    };
    struct DecodeLane {
        CodecId codec = CodecId::kMpeg2;
        CodecConfig cfg;
        const std::vector<Packet> *packets = nullptr;
        FrameArena arena;
        u64 reference_digest = 0;
        s64 allocs0 = 0;
        s64 frames_timed = 0;
        /** By traced flag: ms of each packet's decode call, one sample
         * per pass, and ms of the rest of each pass (decoder creation,
         * flush and teardown). */
        std::vector<std::vector<double>> packet_ms[2];
        std::vector<double> rest_ms[2];
        std::vector<Call> traced_calls;

        void
        clear_samples()
        {
            for (int t = 0; t < 2; ++t) {
                packet_ms[t].assign(packets->size(), {});
                rest_ms[t].clear();
            }
        }
        /** Each packet's quiet decode ms into @p ms; returns frames/s
         * of a pass made of quiet calls. */
        double
        quiet(int traced, std::vector<double> *ms) const
        {
            ms->clear();
            double total = percentile(rest_ms[traced], kQuietQuantile);
            for (const std::vector<double> &samples : packet_ms[traced]) {
                ms->push_back(percentile(samples, kQuietQuantile));
                total += ms->back();
            }
            return 1000.0 * kDecodeFrames / total;
        }
    };
    std::vector<DecodeLane> lanes;
    lanes.resize(kCodecCount);
    for (int ci = 0; ci < kCodecCount; ++ci) {
        DecodeLane &lane = lanes[static_cast<size_t>(ci)];
        lane.codec = kAllCodecs[ci];
        lane.cfg = codec_config(lane.codec, 1, ctx.simd);
        lane.packets = &streams[static_cast<size_t>(ci)].packets;
        lane.clear_samples();
    }

    // One pass. Each picture is digested (untimed) and released as soon
    // as the decoder emits it, as a player would, so the working set is
    // the reference window rather than the whole decoded sequence. The
    // digest must match the lane's first pass.
    auto pass = [&](DecodeLane &lane, Tracer *tracer, bool traced) {
        const std::string name = codec_name(lane.codec);
        std::vector<Frame> out;
        u64 d = 1469598103934665603ull;
        s64 frames = 0;
        auto release = [&] {
            for (const Frame &f : out)
                d = digest_frame(f, d);
            frames += static_cast<s64>(out.size());
            out.clear();
        };
        Clock::time_point t0 = Clock::now();
        auto dec = make_decoder(lane.codec, lane.cfg);
        dec.value()->use_arena(lane.arena);
        double secs = seconds_since(t0), calls = 0.0;
        for (size_t i = 0; i < lane.packets->size(); ++i) {
            const Packet &p = (*lane.packets)[i];
            const double bits = static_cast<double>(p.data.size() * 8);
            t0 = Clock::now();
            Status s;
            {
                Span span(tracer, "VideoDecoder::decode");
                s = dec.value()->decode(p, &out);
            }
            const double call = seconds_since(t0);
            calls += call;
            lane.packet_ms[traced][i].push_back(1000.0 * call);
            if (tracer)
                lane.traced_calls.push_back(
                    {static_cast<int>(p.type), bits, 1000.0 * call});
            if (!s.is_ok())
                result->check(false, name + ": " + s.to_string());
            release();
        }
        t0 = Clock::now();
        (void)dec.value()->flush(&out);
        secs += seconds_since(t0);
        release();
        t0 = Clock::now();
        dec.value().reset();
        secs += seconds_since(t0);
        lane.rest_ms[traced].push_back(1000.0 * secs);
        secs += calls;
        result->attempted += static_cast<s64>(lane.packets->size());
        if (lane.reference_digest == 0)
            lane.reference_digest = d;
        else if (d != lane.reference_digest)
            result->check(false, name + ": a pass decoded different "
                                        "pictures");
        return std::make_pair(secs, frames);
    };
    for (DecodeLane &lane : lanes) {
        pass(lane, nullptr, false);
        lane.allocs0 = lane.arena.stats().buffer_allocs;
        lane.clear_samples();
    }
    round_robin(ctx, kCodecCount, [&](int i, bool traced) {
        DecodeLane &lane = lanes[static_cast<size_t>(i)];
        double secs = 0.0;
        while (secs < kSliceSeconds) {
            const auto [s, frames] =
                pass(lane, traced ? ctx.tracer : nullptr, traced);
            lane.frames_timed += frames;
            secs += s;
        }
        return secs;
    });

    Figures figures, traced;
    std::vector<double> psnr;
    std::vector<FramePoolStats> pools;
    double kbps = 0.0;
    auto source_at = [&](s64 poc) -> const Frame & {
        return src[static_cast<size_t>(poc)];
    };
    std::vector<double> quiet_ms;
    for (DecodeLane &lane : lanes) {
        const std::string name = codec_name(lane.codec);
        const double fps = lane.quiet(0, &quiet_ms);
        figures.add(fps, quiet_ms);
        result->set("codec.decode_fps." + name, figures.fps.back(),
                    "frames/s");
        pools.push_back(lane.arena.stats());
        const StreamCheck sc =
            verify_stream(lane.codec, lane.cfg, *lane.packets, source_at,
                          kDecodeFrames, kDecodeFrames, result,
                          "decode_hd/" + name);
        psnr.push_back(sc.psnr_y);
        kbps += window_kbps(*lane.packets, kDecodeFrames);
        result->info["stream_digest." + name] =
            std::to_string(digest_stream(*lane.packets));
        if (!ctx.trace)
            continue;
        const double traced_fps = lane.quiet(1, &quiet_ms);
        traced.add(traced_fps, quiet_ms);
        result->set("video.allocs_per_frame." + name,
                    static_cast<double>(lane.arena.stats().buffer_allocs -
                                        lane.allocs0) /
                        static_cast<double>(lane.frames_timed),
                    "count");
        // Per-packet decode time split by picture type, and its
        // least-squares slope on packet size.
        std::vector<double> by_type[3], bits, us;
        for (const Call &c : lane.traced_calls) {
            by_type[c.type].push_back(1000.0 * c.ms);
            bits.push_back(c.bits);
            us.push_back(1000.0 * c.ms);
        }
        static const char *kType[3] = {"I", "P", "B"};
        for (int t = 0; t < 3; ++t)
            result->set("codec.decode_us_per_mb." + name + "." + kType[t],
                        median(by_type[t]) / mbs, "us");
        result->set("codec.decode_ns_per_bit." + name,
                    1000.0 * slope(bits, us), "ns");
    }
    figures.report(result);
    result->set("psnr_y_db", *std::min_element(psnr.begin(), psnr.end()),
                "dB");
    result->set("kbps", kbps, "kbit/s");
    if (!ctx.trace)
        return;
    figures.report_overhead(traced, result);
    report_pool(pools, result);

    // Replays on exported side info: decode each stream once more with
    // a sink, then replay MC over its first P picture, and the H.264
    // deblock and intra predictors over that decoded picture.
    for (int ci = 0; ci < kCodecCount; ++ci) {
        const CodecId codec = kAllCodecs[ci];
        CollectSink sink;
        auto dec = make_decoder(codec, codec_config(codec, 1, ctx.simd));
        const Status exported = dec.value()->export_side_info(&sink);
        result->check(exported.is_ok(), "export_side_info: " +
                                            exported.to_string());
        std::vector<Frame> out;
        for (const Packet &p : streams[static_cast<size_t>(ci)].packets)
            (void)dec.value()->decode(p, &out);
        (void)dec.value()->flush(&out);
        const PictureSideInfo *p_pic = sink.first(PictureType::kP);
        if (!p_pic || out.size() != static_cast<size_t>(kDecodeFrames)) {
            result->check(false, "no exported P picture to replay");
            continue;
        }
        // Vectors of the first P picture point into the I picture.
        const Frame ref = bordered_copy(out[0]);
        Span span(ctx.tracer, "replay.mc");
        replay_mc(codec, ref, *p_pic, ctx, result);
        if (codec == CodecId::kH264)
            replay_h264_picture(out[static_cast<size_t>(p_pic->poc)], *p_pic,
                                result);
    }
    {
        Span span(ctx.tracer, "replay.kernels");
        replay_kernels(src[1], bordered_copy(src[0]), ctx, result);
        replay_bitstream(ctx, result);
    }
}

}  // namespace hdvbench
