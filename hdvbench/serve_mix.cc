/**
 * @file
 * serve_mix: an open loop onto one SessionScheduler. The main thread is
 * the load generator; scheduler workers (nproc - 1) run the codecs.
 *
 *  - live: four 576p25 MPEG-2 camera encodes without B pictures (a
 *    live encoder cannot wait for future frames). Each frame is due on
 *    a fixed 40 ms schedule (seeded phase per camera) and its latency is
 *    timed from when it was due, so a stalled generator still counts.
 *  - vod: one 720p MPEG-4 bulk encode at codec threads=2, kept topped
 *    up whenever its queue has room; it takes whatever capacity live
 *    leaves. Its band threads spread each picture over two CPUs, which
 *    halves the effect of any one CPU's drift on the VOD throughput.
 *  - thumbnail: bursts of three short 576p MPEG-4 clip decodes, one
 *    burst a second at a seeded point in it, each job a session of its
 *    own.
 *
 * Latency here depends on scheduling (stride fair share, non-preemptive
 * batch_frames slices, the shared arena) rather than on codec speed.
 * The measured window follows kWarmupSeconds of the same traffic.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "bench.h"
#include "serve/scheduler.h"

namespace hdvbench {

namespace {

constexpr int kLiveCameras = 4;
constexpr int kVodSessions = 1;
constexpr int kSourceFrames = 16;
constexpr int kClipFrames = 4;
constexpr int kClips = 3;
constexpr s64 kQualityFrames = 28;
constexpr double kFramePeriod = 0.04;
constexpr double kLiveDeadline = 1.0;
/** One thumbnail burst per second, at a seeded offset inside it, so
 * every seed offers the same load. */
constexpr double kBurstPeriod = 1.0;
constexpr int kBurstJobs = 3;
constexpr int kSetupReps = 3;
/** The open loop runs this long before the measured window opens, so
 * the window starts with warm caches, a filled arena and a full VOD
 * queue; a cold first second held most of a run's slowest live frames. */
constexpr double kWarmupSeconds = 2.0;

/** Codec call durations of one session, by ticket. Written by the
 * scheduler worker running the session, read after it is drained. */
struct ServiceLog {
    std::mutex mu;
    std::map<s64, double> seconds;

    void
    record(s64 ticket, double s)
    {
        std::lock_guard<std::mutex> lock(mu);
        seconds[ticket] = s;
    }
};

/** Times every encode() the scheduler worker makes; the wrapped
 * encoder's output is passed through untouched. The frame's poc is set
 * to its ticket by the generator. */
class TimedEncoder final : public VideoEncoder
{
  public:
    TimedEncoder(std::unique_ptr<VideoEncoder> inner, ServiceLog *log,
                 Tracer *tracer)
        : inner_(std::move(inner)), log_(log), tracer_(tracer)
    {}
    const char *name() const override { return inner_->name(); }
    CodecStats stats() const override { return inner_->stats(); }
    void use_arena(const FrameArena &arena) override
    {
        inner_->use_arena(arena);
    }
    Status
    encode(const Frame &frame, std::vector<Packet> *out) override
    {
        const Clock::time_point t0 = Clock::now();
        Status s;
        {
            Span span(tracer_, "VideoEncoder::encode");
            s = inner_->encode(frame, out);
        }
        log_->record(frame.poc(), seconds_since(t0));
        return s;
    }
    Status flush(std::vector<Packet> *out) override
    {
        return inner_->flush(out);
    }

  private:
    std::unique_ptr<VideoEncoder> inner_;
    ServiceLog *log_;
    Tracer *tracer_;
};

/** Decode-direction counterpart; packets are keyed by coding index,
 * which is their ticket. */
class TimedDecoder final : public VideoDecoder
{
  public:
    TimedDecoder(std::unique_ptr<VideoDecoder> inner, ServiceLog *log,
                 Tracer *tracer)
        : inner_(std::move(inner)), log_(log), tracer_(tracer)
    {}
    const char *name() const override { return inner_->name(); }
    CodecStats stats() const override { return inner_->stats(); }
    void use_arena(const FrameArena &arena) override
    {
        inner_->use_arena(arena);
    }
    Status
    decode(const Packet &packet, std::vector<Frame> *out) override
    {
        const Clock::time_point t0 = Clock::now();
        Status s;
        {
            Span span(tracer_, "VideoDecoder::decode");
            s = inner_->decode(packet, out);
        }
        log_->record(packet.coding_index, seconds_since(t0));
        return s;
    }
    Status flush(std::vector<Frame> *out) override
    {
        return inner_->flush(out);
    }

  private:
    std::unique_ptr<VideoDecoder> inner_;
    ServiceLog *log_;
    Tracer *tracer_;
};

CodecConfig
config_for(CodecId codec, Resolution res, SimdLevel simd)
{
    CodecConfig cfg = benchmark_config(codec, res, simd);
    cfg.threads = 1;
    return cfg;
}

struct Inputs {
    std::vector<Frame> live;  ///< 576p pedestrian_area
    std::vector<Frame> vod;   ///< 720p blue_sky
    std::vector<std::vector<Packet>> clips;  ///< MPEG-4 576p rush_hour
    std::vector<u64> clip_digest;  ///< decoded-picture digest per clip
};

u64
decoded_digest(const std::vector<Frame> &frames)
{
    u64 d = 1469598103934665603ull;
    for (const Frame &f : frames)
        d = digest_frame(f, d);
    return d;
}

/** One session the generator drives, plus its bookkeeping. */
struct Stream {
    SessionClass cls;
    std::shared_ptr<CodecSession> session;
    std::unique_ptr<ServiceLog> log = std::make_unique<ServiceLog>();
    std::vector<double> due;         ///< window time due, s (live only)
    std::vector<double> submit_lag;  ///< due -> submit, s (live only)
    std::vector<double> submit_at;   ///< window time of submit (vod)
    std::vector<s64> done;           ///< tickets completed, in order
    std::vector<Packet> packets;
    std::vector<Frame> frames;
    int clip = -1;  ///< thumbnail: which clip it decodes
};

/** What one open-loop run measured. */
struct ServeRun {
    double vod_fps = 0.0;
    std::vector<double> live_ms;  ///< due -> completion per live frame
    std::map<SessionClass, std::vector<double>> service_ms, wait_ms;
    s64 backlog_max = 0;
    int shed_level_max = 0;
    s64 submits_shed = 0;
    s64 vod_checks = 0, vod_blocked = 0;
    s64 live_submitted = 0, live_missed = 0;
    std::vector<double> gen_lag_ms;
    FramePoolStats arena;
};

ServeRun
serve_once(const Inputs &in, double seconds, bool timed_codecs,
           const RunContext &ctx, Result *result, double *psnr_min,
           double *kbps)
{
    ServeRun run;
    // Open-loop time runs from 0 to `end`; the measured window is the
    // last `seconds` of it.
    const double end = kWarmupSeconds + seconds;
    SchedulerOptions opt;
    opt.workers = std::max(1, ctx.nproc - 1);
    opt.shed_queue_depth = 96;
    SessionScheduler scheduler(opt);
    Tracer *tracer = timed_codecs ? ctx.tracer : nullptr;

    CodecConfig live_cfg =
        config_for(CodecId::kMpeg2, Resolution::k576p25, ctx.simd);
    live_cfg.bframes = 0;
    // The VOD encode splits each picture into bands on two threads of
    // the codec's own pool, so its throughput averages two CPUs' speeds
    // and the scheduler keeps two workers free for live and thumbnails.
    CodecConfig vod_cfg =
        config_for(CodecId::kMpeg4, Resolution::k720p25, ctx.simd);
    vod_cfg.threads = 2;
    const CodecConfig thumb_cfg =
        config_for(CodecId::kMpeg4, Resolution::k576p25, ctx.simd);

    std::vector<std::unique_ptr<Stream>> streams;
    auto open = [&](SessionClass cls, CodecId codec, const CodecConfig &cfg,
                    size_t capacity, double deadline,
                    const std::string &name) -> Stream * {
        auto st = std::make_unique<Stream>();
        st->cls = cls;
        SessionConfig sc;
        sc.name = name;
        sc.priority = cls;
        sc.codec_config = cfg;
        sc.queue_capacity = capacity;
        sc.frame_deadline_seconds = deadline;
        StatusOr<std::shared_ptr<CodecSession>> opened =
            Status::internal("unopened");
        Span span(tracer, "SessionScheduler::open");
        if (cls == SessionClass::kThumbnail) {
            std::unique_ptr<VideoDecoder> dec =
                std::move(make_decoder(codec, cfg).value());
            if (timed_codecs)
                dec = std::make_unique<TimedDecoder>(std::move(dec),
                                                     st->log.get(), tracer);
            opened = scheduler.open_decode(std::move(dec), sc);
        } else {
            std::unique_ptr<VideoEncoder> enc =
                std::move(make_encoder(codec, cfg).value());
            if (timed_codecs)
                enc = std::make_unique<TimedEncoder>(std::move(enc),
                                                     st->log.get(), tracer);
            opened = scheduler.open_encode(std::move(enc), sc);
        }
        if (!opened.is_ok()) {
            result->check(false, name + ": " + opened.status().to_string());
            return nullptr;
        }
        st->session = opened.value();
        streams.push_back(std::move(st));
        return streams.back().get();
    };

    std::vector<Stream *> live, vod;
    for (int c = 0; c < kLiveCameras; ++c)
        live.push_back(open(SessionClass::kLive, CodecId::kMpeg2, live_cfg,
                            8, kLiveDeadline, "live" + std::to_string(c)));
    for (int v = 0; v < kVodSessions; ++v)
        vod.push_back(open(SessionClass::kVod, CodecId::kMpeg4, vod_cfg, 4,
                           0.0, "vod" + std::to_string(v)));
    if (std::count(live.begin(), live.end(), nullptr) ||
        std::count(vod.begin(), vod.end(), nullptr))
        return run;

    // The arrival schedule. Cameras are evenly staggered behind one
    // seeded offset, so how often their frames collide is the same for
    // every seed; thumbnail bursts land at seeded points.
    struct Event {
        double at;
        int live_cam;  ///< -1: a thumbnail burst of `burst` jobs
        int burst;
    };
    std::vector<Event> events;
    const double offset =
        kFramePeriod * static_cast<double>(mix64(ctx.seed * 31) % 1000) /
        1000.0;
    for (int c = 0; c < kLiveCameras; ++c) {
        const double phase =
            std::fmod(offset + kFramePeriod * c / kLiveCameras, kFramePeriod);
        for (double t = phase; t < end; t += kFramePeriod)
            events.push_back({t, c, 0});
    }
    for (u64 slot = 0; slot * kBurstPeriod < end; ++slot) {
        const double at =
            kBurstPeriod * (static_cast<double>(slot) +
                            static_cast<double>(
                                mix64(ctx.seed * 131 + slot) % 1000) /
                                1000.0);
        if (at < end)
            events.push_back({at, -1, kBurstJobs});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.at < b.at; });

    std::vector<s64> live_next(kLiveCameras, 0);
    std::vector<s64> vod_next(kVodSessions, 0);
    int clip_rr = static_cast<int>(ctx.seed % kClips);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
    auto now_s = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };

    auto top_up_vod = [&] {
        for (int v = 0; v < kVodSessions; ++v) {
            ++run.vod_checks;
            if (vod[v]->session->would_block()) {
                ++run.vod_blocked;
                continue;
            }
            while (!vod[v]->session->would_block()) {
                Frame f = in.vod[static_cast<size_t>(
                    pingpong(vod_next[v], kSourceFrames))];
                f.set_poc(vod_next[v]);
                vod[v]->submit_at.push_back(now_s());
                if (!vod[v]->session->submit(std::move(f)).is_ok()) {
                    result->check(false, "vod submit rejected");
                    break;
                }
                ++vod_next[v];
                ++result->attempted;
            }
        }
    };
    auto sample = [&] {
        const SchedulerStats s = scheduler.stats();
        run.backlog_max = std::max(run.backlog_max, s.backlog);
        run.shed_level_max = std::max(run.shed_level_max, s.shed_level);
    };

    std::this_thread::sleep_until(start);
    top_up_vod();
    // The generator wakes only for events (at least every 10 ms, while
    // the VOD queue holds about 200 ms of work), so its own wake-ups do
    // not preempt the scheduler workers.
    for (const Event &ev : events) {
        if (ev.at > now_s()) {
            top_up_vod();
            sample();
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(ev.at)));
        }
        if (ev.at >= kWarmupSeconds)
            run.gen_lag_ms.push_back(1000.0 * (now_s() - ev.at));
        if (ev.live_cam >= 0) {
            Stream &st = *live[static_cast<size_t>(ev.live_cam)];
            const s64 k = live_next[ev.live_cam]++;
            Frame f = in.live[static_cast<size_t>(pingpong(k, kSourceFrames))];
            f.set_poc(k);
            st.due.push_back(ev.at);
            st.submit_lag.push_back(now_s() - ev.at);
            ++result->attempted;
            ++run.live_submitted;
            Span span(tracer, "CodecSession::submit");
            if (!st.session->submit(std::move(f)).is_ok())
                result->check(false, "live frame refused");
            continue;
        }
        for (int j = 0; j < ev.burst; ++j) {
            const int clip = clip_rr++ % kClips;
            Stream *t = open(SessionClass::kThumbnail, CodecId::kMpeg4,
                             thumb_cfg, kClipFrames, 0.0,
                             "thumb" + std::to_string(streams.size()));
            if (!t)
                continue;
            t->clip = clip;
            for (const Packet &p : in.clips[static_cast<size_t>(clip)]) {
                ++result->attempted;
                if (!t->session->submit(Packet(p)).is_ok())
                    result->check(false, "thumbnail packet refused");
            }
        }
    }
    // The window ends at the last due time; VOD throughput is what
    // completed inside it.
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(end)));
    sample();

    for (auto &st : streams) {
        const Status closed = st->session->close();
        result->check(closed.is_ok(),
                      st->session->name() + ": " + closed.to_string());
        st->session->poll(&st->packets);
        st->session->poll(&st->frames);
        const SessionCounters c = st->session->counters();
        result->check(c.submitted == c.completed + c.failed +
                                         c.deadline_missed + c.lost &&
                          c.lost == 0 && c.failed == 0,
                      st->session->name() + ": ticket audit failed");
        if (st->cls == SessionClass::kLive) {
            run.live_missed += c.deadline_missed;
            result->failed += c.deadline_missed;
        }
        std::vector<double> vod_done;
        for (const TicketResult &r : st->session->take_results()) {
            const double lat = 1000.0 * r.latency_seconds;
            double service = 0.0;
            {
                std::lock_guard<std::mutex> lock(st->log->mu);
                auto it = st->log->seconds.find(r.ticket);
                if (it != st->log->seconds.end())
                    service = 1000.0 * it->second;
            }
            if (r.status.is_ok())
                st->done.push_back(r.ticket);
            if (timed_codecs && r.status.is_ok()) {
                run.service_ms[st->cls].push_back(service);
                run.wait_ms[st->cls].push_back(lat - service);
            }
            if (st->cls == SessionClass::kVod && r.status.is_ok()) {
                const double done =
                    st->submit_at[static_cast<size_t>(r.ticket)] +
                    r.latency_seconds;
                if (done >= kWarmupSeconds && done <= end)
                    vod_done.push_back(done);
            }
            if (st->cls == SessionClass::kLive &&
                st->due[static_cast<size_t>(r.ticket)] >= kWarmupSeconds) {
                // From due time: the generator's lag plus the ticket's
                // own latency. A missed frame counts as missing any
                // limit.
                const double lag =
                    st->submit_lag[static_cast<size_t>(r.ticket)];
                run.live_ms.push_back(r.status.is_ok() ? lat + 1000.0 * lag
                                                       : 1e6);
            }
        }
        std::sort(st->done.begin(), st->done.end());
        if (st->cls == SessionClass::kVod && vod_done.size() > 1) {
            // Frames per second between this session's first and last
            // completion inside the window: no whole-frame rounding.
            std::sort(vod_done.begin(), vod_done.end());
            run.vod_fps += static_cast<double>(vod_done.size() - 1) /
                           (vod_done.back() - vod_done.front());
        }
        if (st->cls == SessionClass::kThumbnail)
            result->check(decoded_digest(st->frames) ==
                              in.clip_digest[static_cast<size_t>(st->clip)],
                          st->session->name() +
                              ": decoded pictures differ from the clip's");
    }
    const SchedulerStats s = scheduler.stats();
    for (s64 n : s.submits_shed)
        run.submits_shed += n;
    run.arena = s.arena;

    // Output checks: each live and VOD stream decodes to as many
    // pictures as were submitted; quality over a fixed window.
    std::vector<std::thread> checkers;
    std::mutex check_mu;
    std::vector<double> psnrs;
    double bits_kbps = 0.0;
    for (auto &st : streams) {
        if (st->cls == SessionClass::kThumbnail)
            continue;
        Stream *sp = st.get();
        checkers.emplace_back([&, sp] {
            const bool is_live = sp->cls == SessionClass::kLive;
            const std::vector<Frame> &src = is_live ? in.live : in.vod;
            Result local;
            const StreamCheck sc = verify_stream(
                is_live ? CodecId::kMpeg2 : CodecId::kMpeg4,
                is_live ? live_cfg : vod_cfg, sp->packets,
                [&](s64 poc) -> const Frame & {
                    return src[static_cast<size_t>(
                        pingpong(poc, kSourceFrames))];
                },
                sp->session->counters().completed, kQualityFrames, &local,
                sp->session->name());
            std::lock_guard<std::mutex> lock(check_mu);
            result->attempted += local.attempted;
            result->failed += local.failed;
            result->failures.insert(result->failures.end(),
                                    local.failures.begin(),
                                    local.failures.end());
            psnrs.push_back(sc.psnr_y);
            bits_kbps += window_kbps(sp->packets, kQualityFrames);
        });
    }
    // A served stream, made through the scheduler and in traced runs
    // through the timing decorator, must be byte-identical to an offline
    // encode of the frames its completed tickets carried: all of live
    // camera 0, and in decorated runs all of VOD session 0 as well.
    auto match_offline = [&](const Stream *sp, CodecId codec,
                             const CodecConfig &cfg,
                             const std::vector<Frame> *src) {
        checkers.emplace_back([&, sp, codec, cfg, src] {
            auto enc = make_encoder(codec, cfg);
            std::vector<Packet> offline;
            for (s64 k : sp->done) {
                Frame f = (*src)[static_cast<size_t>(
                    pingpong(k, kSourceFrames))];
                f.set_poc(k);
                (void)enc.value()->encode(f, &offline);
            }
            (void)enc.value()->flush(&offline);
            bool same = offline.size() == sp->packets.size();
            for (size_t i = 0; same && i < offline.size(); ++i)
                same = offline[i].data == sp->packets[i].data;
            std::lock_guard<std::mutex> lock(check_mu);
            result->check(same, sp->session->name() +
                                    ": served stream differs from an "
                                    "offline encode of the same frames");
        });
    };
    match_offline(live[0], CodecId::kMpeg2, live_cfg, &in.live);
    if (timed_codecs)
        match_offline(vod[0], CodecId::kMpeg4, vod_cfg, &in.vod);
    for (std::thread &t : checkers)
        t.join();
    *psnr_min = psnrs.empty() ? 0.0 : *std::min_element(psnrs.begin(),
                                                         psnrs.end());
    *kbps = bits_kbps;
    return run;
}

}  // namespace

void
run_serve_mix(const RunContext &ctx, Result *result)
{
    Inputs in;
    timed_setup(kSetupReps, result, [&](int rep) {
        Tracer *tracer = rep == 0 ? ctx.tracer : nullptr;
        Inputs built;
        const int start = start_frame(ctx.seed, 2);
        const ResolutionInfo sd = resolution_info(Resolution::k576p25);
        const ResolutionInfo hd = resolution_info(Resolution::k720p25);
        built.live = generate_frames(SequenceId::kPedestrianArea, sd.width,
                                     sd.height, start, kSourceFrames,
                                     ctx.nproc, tracer);
        built.vod = generate_frames(SequenceId::kBlueSky, hd.width, hd.height,
                                    start, kSourceFrames, ctx.nproc, tracer);
        u64 d = 1469598103934665603ull;
        for (const Frame &f : built.live)
            d = digest_frame(f, d);
        for (const Frame &f : built.vod)
            d = digest_frame(f, d);
        const CodecConfig cfg =
            config_for(CodecId::kMpeg4, Resolution::k576p25, ctx.simd);
        for (int c = 0; c < kClips; ++c) {
            const std::vector<Frame> clip =
                generate_frames(SequenceId::kRushHour, sd.width, sd.height,
                                start + 8 * c, kClipFrames, ctx.nproc,
                                tracer);
            auto enc = make_encoder(CodecId::kMpeg4, cfg);
            std::vector<Packet> packets;
            for (const Frame &f : clip)
                (void)enc.value()->encode(f, &packets);
            (void)enc.value()->flush(&packets);
            const u64 clip_digest = digest_stream(packets);
            d = digest_bytes(reinterpret_cast<const u8 *>(&clip_digest),
                             sizeof(clip_digest), d);
            auto dec = make_decoder(CodecId::kMpeg4, cfg);
            std::vector<Frame> out;
            for (const Packet &p : packets)
                (void)dec.value()->decode(p, &out);
            (void)dec.value()->flush(&out);
            built.clip_digest.push_back(decoded_digest(out));
            built.clips.push_back(std::move(packets));
        }
        if (rep == 0)
            in = std::move(built);
        return d;
    });
    double psnr = 0.0, kbps = 0.0;
    if (!ctx.trace) {
        const ServeRun run =
            serve_once(in, ctx.seconds, false, ctx, result, &psnr, &kbps);
        result->set("fps", run.vod_fps, "frames/s");
        result->set("p50_ms", percentile(run.live_ms, 0.5), "ms");
        result->set("p99_ms", percentile(run.live_ms, 0.99), "ms");
        result->set("psnr_y_db", psnr, "dB");
        result->set("kbps", kbps, "kbit/s");
        result->info["live_samples"] = std::to_string(run.live_ms.size());
        return;
    }

    // Traced: the same open loop twice, half as long, without and then
    // with the timing decorator; the difference is the overhead.
    const ServeRun plain =
        serve_once(in, ctx.seconds / 2, false, ctx, result, &psnr, &kbps);
    const ServeRun run =
        serve_once(in, ctx.seconds / 2, true, ctx, result, &psnr, &kbps);
    result->set("trace.overhead.fps", run.vod_fps / plain.vod_fps - 1,
                "ratio");
    result->set("trace.overhead.p50_ms",
                percentile(run.live_ms, 0.5) / percentile(plain.live_ms, 0.5) -
                    1,
                "ratio");
    result->set("trace.overhead.p99_ms",
                percentile(run.live_ms, 0.99) /
                        percentile(plain.live_ms, 0.99) -
                    1,
                "ratio");
    for (SessionClass cls : kAllSessionClasses) {
        const std::string c = session_class_name(cls);
        const auto &w = run.wait_ms.count(cls) ? run.wait_ms.at(cls)
                                               : std::vector<double>{};
        const auto &s = run.service_ms.count(cls) ? run.service_ms.at(cls)
                                                  : std::vector<double>{};
        result->set("serve.queue_wait_ms." + c + ".p50", percentile(w, 0.5),
                    "ms");
        result->set("serve.queue_wait_ms." + c + ".p99", percentile(w, 0.99),
                    "ms");
        result->set("serve.service_ms." + c + ".p50", percentile(s, 0.5),
                    "ms");
        result->set("serve.service_ms." + c + ".p99", percentile(s, 0.99),
                    "ms");
    }
    result->set("serve.backlog_max", static_cast<double>(run.backlog_max),
                "count");
    result->set("serve.shed_level_max",
                static_cast<double>(run.shed_level_max), "count");
    result->set("serve.submits_shed", static_cast<double>(run.submits_shed),
                "count");
    result->set("serve.backpressure_ratio",
                static_cast<double>(run.vod_blocked) /
                    static_cast<double>(std::max<s64>(1, run.vod_checks)),
                "ratio");
    result->set("serve.deadline_missed_ratio.live",
                static_cast<double>(run.live_missed) /
                    static_cast<double>(std::max<s64>(1, run.live_submitted)),
                "ratio");
    result->set("serve.gen_lag_ms.p99", percentile(run.gen_lag_ms, 0.99),
                "ms");
    const double total = static_cast<double>(run.arena.buffer_allocs +
                                             run.arena.buffer_reuses);
    result->set("video.arena_reuse_ratio",
                total > 0 ? run.arena.buffer_reuses / total : 0.0, "ratio");
    result->set("video.arena_high_water_mb",
                static_cast<double>(run.arena.bytes_high_water) / 1048576.0,
                "MiB");
}

}  // namespace hdvbench
