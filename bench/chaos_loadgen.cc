/**
 * @file
 * Chaos harness for the serve layer: the blast-radius half of the
 * robustness story, where server_loadgen is the clean-path half.
 *
 * Two passes against identical scheduler options and identical
 * "unaffected" traffic (live + vod encode sessions, thumbnail decode
 * sessions, all byte-deterministic):
 *
 *  - a *baseline* pass with no faults, which records each unaffected
 *    session's output digest and per-class latency percentiles;
 *  - a *chaos* pass that adds seeded, deterministic fault injection on
 *    top of the same traffic: decode sessions fed header-targeted
 *    corrupt streams (StreamCorrupter, seeds pre-validated to error
 *    without resilience), watchdog-stalled encode sessions that wedge
 *    every scheduler worker (the burst that trips the overload
 *    shedder), per-frame transient faults absorbed by retry, and an
 *    admission-churn thread that expects kUnavailable while the
 *    scheduler sheds.
 *
 * The pass is also an audit, and the process exits non-zero when any
 * containment property fails:
 *  - blast radius: exactly the intended victims fail, nothing else;
 *  - byte identity: every unaffected session's output digest matches
 *    the baseline pass bit for bit;
 *  - zero lost frames outside the victims;
 *  - refunds: the admission ledger returns to zero although the failed
 *    victims are never close()d, and the shared arena drains;
 *  - the lost-ticket audit: every submitted ticket of every session
 *    (victims included) comes back as exactly one TicketResult.
 *
 * Results go to a schema-versioned hdvb-chaos/1 JSON document with
 * fault counts, blast radius, frames lost, shed-episode
 * time-to-recovery, and per-class fault-vs-clean latency percentiles.
 * --smoke shrinks frame counts for CI.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/loadgen_traffic.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/benchmark.h"
#include "core/report.h"
#include "fault/deadline.h"
#include "fault/fault.h"
#include "metrics/timer.h"
#include "serve/scheduler.h"
#include "synth/synth.h"

using namespace hdvb;
using namespace hdvb::bench;

namespace {

constexpr int kWorkers = 2;          ///< fixed: the stall victims must
                                     ///< be able to wedge every worker
constexpr int kPerClass = 2;         ///< unaffected sessions per class
constexpr int kCorruptVictims = 4;
constexpr int kStallVictims = 2;     ///< == kWorkers, by design
constexpr int kChurnAttempts = 3;
constexpr int kShedQueueDepth = 6;

CodecConfig
victim_config()
{
    CodecConfig cfg = tiny_config(CodecId::kMpeg2);
    cfg.error_resilience = false;  // no recovery path: corruption kills
    return cfg;
}

bool
wait_until(const std::function<bool()> &predicate,
           double timeout_seconds = 10.0)
{
    const auto give_up =
        Deadline::Clock::now() +
        std::chrono::duration<double>(timeout_seconds);
    while (!predicate()) {
        if (Deadline::Clock::now() >= give_up)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// ---------------------------------------------------------------------
// Output digests: FNV-1a over every output byte, so "byte-identical to
// the baseline pass" is one u64 comparison per session.
// ---------------------------------------------------------------------

struct Digest {
    u64 hash = 14695981039346656037ull;

    void
    bytes(const u8 *data, size_t size)
    {
        for (size_t i = 0; i < size; ++i) {
            hash ^= data[i];
            hash *= 1099511628211ull;
        }
    }

    void
    number(s64 v)
    {
        bytes(reinterpret_cast<const u8 *>(&v), sizeof(v));
    }

    void
    packet(const Packet &p)
    {
        number(static_cast<s64>(p.data.size()));
        if (!p.data.empty())
            bytes(p.data.data(), p.data.size());
    }

    void
    frame(const Frame &f)
    {
        number(f.poc());
        for (int plane = 0; plane < 3; ++plane) {
            const Plane &pl = f.plane(plane);
            for (int y = 0; y < pl.height(); ++y)
                bytes(pl.row(y), static_cast<size_t>(pl.width()));
        }
    }
};

u64
digest_session_output(CodecSession *session)
{
    Digest digest;
    if (session->is_encode()) {
        std::vector<Packet> packets;
        session->poll(&packets);
        for (const Packet &p : packets)
            digest.packet(p);
    } else {
        std::vector<Frame> frames;
        session->poll(&frames);
        for (const Frame &f : frames)
            digest.frame(f);
    }
    return digest.hash;
}

// ---------------------------------------------------------------------
// Deterministic traffic shared by both passes.
// ---------------------------------------------------------------------

/** Encode the thumbnail replay streams and the corrupt victims' clean
 * source stream once, up front. */
Status
prepare_streams(int frames, std::vector<Packet> streams[kCodecCount],
                EncodedStream *victim_clean)
{
    const Status thumbnails = encode_tiny_streams(frames, streams);
    if (!thumbnails.is_ok())
        return thumbnails;

    const CodecConfig cfg = victim_config();
    StatusOr<std::unique_ptr<VideoEncoder>> encoder =
        make_encoder(CodecId::kMpeg2, cfg);
    if (!encoder.is_ok())
        return encoder.status();
    SyntheticSource source(SequenceId::kBlueSky, kWidth, kHeight);
    victim_clean->codec = codec_name(CodecId::kMpeg2);
    victim_clean->width = cfg.width;
    victim_clean->height = cfg.height;
    for (int i = 0; i < 9; ++i) {
        const Status status =
            encoder.value()->encode(source.next(), &victim_clean->packets);
        if (!status.is_ok())
            return status;
    }
    return encoder.value()->flush(&victim_clean->packets);
}

/** True when a direct (non-session) decode of @p stream errors —
 * i.e. the fault plan really is terminal for a non-resilient decoder. */
bool
plan_is_terminal(const EncodedStream &stream)
{
    StatusOr<std::unique_ptr<VideoDecoder>> decoder =
        make_decoder(CodecId::kMpeg2, victim_config());
    if (!decoder.is_ok())
        return false;
    std::vector<Frame> frames;
    for (const Packet &packet : stream.packets) {
        if (!decoder.value()->decode(packet, &frames).is_ok())
            return true;
    }
    return false;
}

/** Header-targeted damage with @p seed; the caller pre-validates the
 * seed against plan_is_terminal, so the chaos pass never depends on
 * luck. */
FaultPlan
severe_plan(u64 seed)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.garble_density = 0.5;
    plan.target_headers = true;
    plan.header_bytes = 4;
    plan.truncate_fraction = 0.5;
    plan.protect_first_packet = true;  // fail mid-stream, not at frame 0
    return plan;
}

struct ClassPlan {
    SessionClass cls;
    bool encode = true;
    size_t queue_capacity = 16;
    double pace_seconds = 0.0;
};

/** One pass's outcome. Unaffected sessions are keyed by name so the
 * chaos pass can diff its digests against the baseline's. */
struct PassResult {
    std::map<std::string, u64> digests;
    std::vector<double> latencies[kSessionClassCount];
    s64 submitted[kSessionClassCount] = {};
    s64 completed[kSessionClassCount] = {};
    SchedulerStats sched;
    double wall_seconds = 0.0;

    // Chaos-only fault ledger.
    s64 corrupt_failed = 0;
    s64 stall_failed = 0;
    s64 transient_injected = 0;
    s64 churn_rejected = 0;
    s64 frames_lost_victims = 0;
    s64 frames_lost_unaffected = 0;
    s64 unexpected_failures = 0;
    bool refund_balanced = true;
    bool arena_drained = true;
    bool audit_clean = true;
};

/** Submit one input with retry on the transient kUnavailable
 * (backpressure or shedding); returns false on a terminal rejection
 * (e.g. the sticky status of a failed session). */
template <typename Payload>
bool
submit_with_retry(CodecSession *session, const Payload &payload)
{
    for (;;) {
        const StatusOr<Ticket> ticket = session->submit(payload);
        if (ticket.is_ok())
            return true;
        if (ticket.status().code() != StatusCode::kUnavailable)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

/** Fold a drained session into the audit: per-ticket accounting, lost
 * frames, latencies. Returns false when a ticket went missing. */
bool
settle_session(CodecSession *session, std::vector<double> *latencies,
               s64 *completed, s64 *lost)
{
    s64 seen = 0;
    for (const TicketResult &result : session->take_results()) {
        ++seen;
        if (result.status.is_ok()) {
            if (completed != nullptr)
                ++*completed;
            if (latencies != nullptr)
                latencies->push_back(result.latency_seconds);
        } else if (result.status.code() == StatusCode::kDataLoss &&
                   lost != nullptr) {
            ++*lost;
        }
    }
    const SessionCounters counters = session->counters();
    if (seen != counters.submitted) {
        std::fprintf(stderr,
                     "session %s lost tickets: %lld submitted, %lld "
                     "results\n",
                     session->name().c_str(),
                     static_cast<long long>(counters.submitted),
                     static_cast<long long>(seen));
        return false;
    }
    return true;
}

/**
 * Run one pass. When @p chaos is false only the unaffected population
 * runs; when true, the fault injectors run on top of it.
 */
bool
run_pass(bool chaos, int frames,
         const std::vector<Packet> streams[kCodecCount],
         const EncodedStream &victim_clean,
         const std::vector<u64> &corrupt_seeds, PassResult *out)
{
    SchedulerOptions options;
    options.workers = kWorkers;
    options.batch_frames = 4;
    options.shed_queue_depth = kShedQueueDepth;
    SessionScheduler sched(options);
    bool clean = true;

    const ClassPlan plans[kSessionClassCount] = {
        {SessionClass::kLive, true, /*queue=*/4, /*pace=*/0.001},
        {SessionClass::kVod, true, /*queue=*/16, 0.0},
        {SessionClass::kThumbnail, false, /*queue=*/8, 0.0},
    };

    std::vector<std::shared_ptr<CodecSession>>
        unaffected[kSessionClassCount];
    for (int c = 0; c < kSessionClassCount; ++c) {
        for (int s = 0; s < kPerClass; ++s) {
            const CodecId codec = codec_for(s);
            SessionConfig config;
            config.name =
                std::string(session_class_name(plans[c].cls)) + "-" +
                codec_name(codec) + "-" + std::to_string(s);
            config.priority = plans[c].cls;
            config.codec_config = tiny_config(codec);
            config.queue_capacity = plans[c].queue_capacity;
            StatusOr<std::shared_ptr<CodecSession>> session =
                plans[c].encode
                    ? sched.open_encode(
                          make_encoder(codec, config.codec_config)
                              .value(),
                          config)
                    : sched.open_decode(
                          make_decoder(codec, config.codec_config)
                              .value(),
                          config);
            if (!session.is_ok()) {
                std::fprintf(stderr, "admission failed: %s\n",
                             session.status().to_string().c_str());
                return false;
            }
            unaffected[c].push_back(std::move(session.value()));
        }
    }

    // ---- chaos-only victims, admitted before traffic starts ----
    std::vector<std::shared_ptr<CodecSession>> corrupt_victims;
    std::vector<std::shared_ptr<CodecSession>> stall_victims;
    std::shared_ptr<CodecSession> transient;
    std::mutex transient_mu;
    std::map<Ticket, int> transient_attempts;
    if (chaos) {
        for (int v = 0; v < kCorruptVictims; ++v) {
            SessionConfig config;
            config.name = "victim-corrupt-" + std::to_string(v);
            config.priority = SessionClass::kVod;
            config.codec_config = victim_config();
            config.queue_capacity = victim_clean.packets.size() + 2;
            StatusOr<std::shared_ptr<CodecSession>> session =
                sched.open_decode(
                    make_decoder(CodecId::kMpeg2, config.codec_config)
                        .value(),
                    config);
            if (!session.is_ok())
                return false;
            corrupt_victims.push_back(std::move(session.value()));
        }
        for (int v = 0; v < kStallVictims; ++v) {
            SessionConfig config;
            config.name = "victim-stall-" + std::to_string(v);
            config.priority = SessionClass::kLive;
            config.codec_config = tiny_config(CodecId::kMpeg2);
            config.queue_capacity = 8;
            config.stall_timeout_seconds = 0.05;
            // Wedge on the very first frame, far past the stall
            // budget: the worker stays pinned for the full sleep, so
            // with kStallVictims == kWorkers every worker is wedged at
            // once and the backlog burst below is deterministic.
            config.before_frame_hook = [](Ticket ticket) {
                if (ticket == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(400));
                }
                return Status::ok();
            };
            StatusOr<std::shared_ptr<CodecSession>> session =
                sched.open_encode(
                    make_encoder(CodecId::kMpeg2, config.codec_config)
                        .value(),
                    config);
            if (!session.is_ok())
                return false;
            stall_victims.push_back(std::move(session.value()));
        }

        SessionConfig config;
        config.name = "transient-blips";
        config.priority = SessionClass::kVod;
        config.codec_config = tiny_config(CodecId::kMpeg2);
        config.queue_capacity = 16;
        config.retry.max_attempts = 3;
        config.retry.initial_backoff_seconds = 1e-4;
        // Every third ticket fails its first attempt with the
        // transient kUnavailable; retry must absorb every one.
        config.before_frame_hook = [&transient_mu, &transient_attempts,
                                    out](Ticket ticket) {
            std::lock_guard<std::mutex> lock(transient_mu);
            if (ticket % 3 == 0 && transient_attempts[ticket]++ == 0) {
                ++out->transient_injected;
                return Status::unavailable("injected transient fault");
            }
            return Status::ok();
        };
        StatusOr<std::shared_ptr<CodecSession>> session =
            sched.open_encode(
                make_encoder(CodecId::kMpeg2, config.codec_config)
                    .value(),
                config);
        if (!session.is_ok())
            return false;
        transient = std::move(session.value());
    }

    WallTimer wall;
    wall.start();

    // Wedge first: both workers pinned before the clean feeders start
    // pushing, so the backlog burst and the shed episode it trips are
    // not a race.
    if (chaos) {
        for (const std::shared_ptr<CodecSession> &victim : stall_victims)
            for (int i = 0; i < 6; ++i)
                submit_with_retry(victim.get(), SyntheticSource(
                    SequenceId::kRushHour, kWidth, kHeight).at(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    std::vector<std::thread> threads;
    bool feed_ok[kSessionClassCount] = {true, true, true};
    for (int c = 0; c < kSessionClassCount; ++c) {
        threads.emplace_back([&, c] {
            SyntheticSource source(SequenceId::kRushHour, kWidth,
                                   kHeight);
            for (int i = 0; i < frames; ++i) {
                for (size_t s = 0; s < unaffected[c].size(); ++s) {
                    CodecSession *session = unaffected[c][s].get();
                    const bool ok =
                        plans[c].encode
                            ? submit_with_retry(session, source.at(i))
                            : submit_with_retry(
                                  session,
                                  streams[static_cast<int>(codec_for(
                                      static_cast<int>(s)))]
                                      [static_cast<size_t>(i)]);
                    if (!ok) {
                        feed_ok[c] = false;
                        return;
                    }
                    ++out->submitted[c];
                }
                if (plans[c].pace_seconds > 0.0) {
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            plans[c].pace_seconds));
                }
            }
        });
    }

    if (chaos) {
        // Corrupt streams through their victims, concurrently with the
        // clean traffic.
        threads.emplace_back([&] {
            for (size_t v = 0; v < corrupt_victims.size(); ++v) {
                const EncodedStream bad = corrupted_copy(
                    victim_clean, severe_plan(corrupt_seeds[v]));
                for (const Packet &packet : bad.packets) {
                    if (!submit_with_retry(corrupt_victims[v].get(),
                                           packet))
                        break;  // sticky failure: session already dead
                }
                corrupt_victims[v]->drain();
            }
        });
        // Admission churn while the scheduler sheds: every attempt
        // must bounce with the retryable kUnavailable.
        threads.emplace_back([&] {
            if (!wait_until([&] { return sched.stats().shed_level > 0; },
                            5.0))
                return;  // audited via shed_episodes below
            for (int i = 0; i < kChurnAttempts; ++i) {
                SessionConfig config;
                config.name = "churn-" + std::to_string(i);
                config.codec_config = tiny_config(CodecId::kMpeg2);
                StatusOr<std::shared_ptr<CodecSession>> refused =
                    sched.open_encode(
                        make_encoder(CodecId::kMpeg2,
                                     config.codec_config)
                            .value(),
                        config);
                if (!refused.is_ok() &&
                    refused.status().code() == StatusCode::kUnavailable)
                    ++out->churn_rejected;
            }
        });
        // The transient-blip stream.
        threads.emplace_back([&] {
            SyntheticSource source(SequenceId::kBlueSky, kWidth,
                                   kHeight);
            for (int i = 0; i < frames; ++i) {
                if (!submit_with_retry(transient.get(), source.at(i)))
                    return;
            }
        });
    }

    for (std::thread &t : threads)
        t.join();
    for (int c = 0; c < kSessionClassCount; ++c)
        clean = clean && feed_ok[c];

    // ---- settle the victims: every one must have failed, alone ----
    if (chaos) {
        for (const std::shared_ptr<CodecSession> &victim :
             corrupt_victims) {
            if (wait_until([&] { return victim->failed(); }))
                ++out->corrupt_failed;
            else
                std::fprintf(stderr, "%s did not fail\n",
                             victim->name().c_str());
            out->audit_clean =
                settle_session(victim.get(), nullptr, nullptr,
                               &out->frames_lost_victims) &&
                out->audit_clean;
        }
        for (const std::shared_ptr<CodecSession> &victim :
             stall_victims) {
            if (wait_until([&] { return victim->failed(); }) &&
                victim->session_status().code() ==
                    StatusCode::kDeadlineExceeded)
                ++out->stall_failed;
            else
                std::fprintf(stderr, "%s did not stall out\n",
                             victim->name().c_str());
            out->audit_clean =
                settle_session(victim.get(), nullptr, nullptr,
                               &out->frames_lost_victims) &&
                out->audit_clean;
        }
        const Status transient_close = transient->close();
        if (!transient_close.is_ok() || transient->failed()) {
            std::fprintf(stderr,
                         "transient session did not survive: %s\n",
                         transient_close.to_string().c_str());
            ++out->unexpected_failures;
        }
        out->audit_clean =
            settle_session(transient.get(), nullptr, nullptr, nullptr) &&
            out->audit_clean;
    }

    // ---- settle the unaffected population ----
    for (int c = 0; c < kSessionClassCount; ++c) {
        for (const std::shared_ptr<CodecSession> &session :
             unaffected[c]) {
            const Status status = session->close();
            if (!status.is_ok() || session->failed()) {
                std::fprintf(stderr, "unaffected %s failed: %s\n",
                             session->name().c_str(),
                             status.to_string().c_str());
                ++out->unexpected_failures;
            }
            out->audit_clean =
                settle_session(session.get(), &out->latencies[c],
                               &out->completed[c],
                               &out->frames_lost_unaffected) &&
                out->audit_clean;
            out->digests[session->name()] =
                digest_session_output(session.get());
        }
    }
    wall.stop();
    out->wall_seconds = wall.seconds();

    // ---- refund audit: the ledger must return to zero although the
    // failed victims are never close()d (their charge was refunded at
    // failure time, the others' at close). ----
    out->refund_balanced = wait_until(
        [&] { return sched.stats().estimated_bytes == 0; });
    if (!out->refund_balanced)
        std::fprintf(stderr, "admission refund imbalance: %zu bytes\n",
                     sched.stats().estimated_bytes);

    out->sched = sched.stats();

    // ---- arena audit: drop every session (failed victims included)
    // and the polled outputs' buffers; the shared arena must drain. ----
    for (int c = 0; c < kSessionClassCount; ++c)
        unaffected[c].clear();
    corrupt_victims.clear();
    stall_victims.clear();
    transient.reset();
    out->arena_drained = wait_until(
        [&] { return sched.stats().arena.outstanding == 0; });
    if (!out->arena_drained)
        std::fprintf(stderr, "arena did not drain: %lld buffers\n",
                     static_cast<long long>(
                         sched.stats().arena.outstanding));

    return clean;
}

}  // namespace

int
main(int argc, char **argv)
{
    LoadgenArgs args;
    args.json_path = "hdvb_cache/chaos_report.json";
    if (const int rc = parse_loadgen_args(argc, argv, &args); rc != 0)
        return rc;
    const bool smoke = args.smoke;
    const std::string &json_path = args.json_path;
    const int frames = smoke ? 8 : 32;

    std::printf("HD-VideoBench chaos loadgen: %d workers, %d unaffected "
                "sessions, %d corrupt + %d stall victims, %d "
                "frames/session%s\n",
                kWorkers, kPerClass * kSessionClassCount,
                kCorruptVictims, kStallVictims, frames,
                smoke ? " [smoke]" : "");

    std::vector<Packet> streams[kCodecCount];
    EncodedStream victim_clean;
    const Status prepared =
        prepare_streams(frames, streams, &victim_clean);
    if (!prepared.is_ok()) {
        std::fprintf(stderr, "stream preparation failed: %s\n",
                     prepared.to_string().c_str());
        return 1;
    }

    // Pre-validate one terminal corruption seed per victim, so every
    // injected stream fault is guaranteed (and reproducible), not
    // probabilistic.
    std::vector<u64> corrupt_seeds;
    for (u64 seed = 7; corrupt_seeds.size() <
                       static_cast<size_t>(kCorruptVictims);
         ++seed) {
        if (plan_is_terminal(corrupted_copy(victim_clean,
                                            severe_plan(seed))))
            corrupt_seeds.push_back(seed);
        if (seed > 7 + 256) {
            std::fprintf(stderr, "no terminal corruption seeds found\n");
            return 1;
        }
    }

    PassResult baseline;
    PassResult chaos;
    if (!run_pass(false, frames, streams, victim_clean, corrupt_seeds,
                  &baseline)) {
        std::fprintf(stderr, "baseline pass failed\n");
        return 1;
    }
    if (!run_pass(true, frames, streams, victim_clean, corrupt_seeds,
                  &chaos)) {
        std::fprintf(stderr, "chaos pass failed\n");
        return 1;
    }

    // ---- the containment verdict ----
    bool clean = chaos.audit_clean && baseline.audit_clean;
    s64 diverged = 0;
    for (const auto &entry : baseline.digests) {
        const auto it = chaos.digests.find(entry.first);
        if (it == chaos.digests.end() || it->second != entry.second) {
            std::fprintf(stderr,
                         "unaffected session %s diverged under chaos\n",
                         entry.first.c_str());
            ++diverged;
        }
    }
    const s64 expected_failed = kCorruptVictims + kStallVictims;
    const s64 faults_injected =
        chaos.corrupt_failed + chaos.stall_failed +
        chaos.transient_injected + chaos.churn_rejected;
    if (diverged != 0)
        clean = false;
    if (chaos.corrupt_failed != kCorruptVictims ||
        chaos.stall_failed != kStallVictims ||
        chaos.sched.sessions_failed != expected_failed ||
        chaos.unexpected_failures != 0) {
        std::fprintf(stderr, "blast radius violated: %lld failed, %lld "
                             "expected, %lld unexpected\n",
                     static_cast<long long>(chaos.sched.sessions_failed),
                     static_cast<long long>(expected_failed),
                     static_cast<long long>(chaos.unexpected_failures));
        clean = false;
    }
    if (chaos.frames_lost_unaffected != 0) {
        std::fprintf(stderr, "%lld frames lost outside the victims\n",
                     static_cast<long long>(
                         chaos.frames_lost_unaffected));
        clean = false;
    }
    if (!chaos.refund_balanced || !chaos.arena_drained ||
        !baseline.refund_balanced || !baseline.arena_drained)
        clean = false;
    if (chaos.sched.shed_episodes < 1) {
        std::fprintf(stderr, "the burst never tripped the shedder\n");
        clean = false;
    }
    if (faults_injected < 10) {
        std::fprintf(stderr, "only %lld faults injected\n",
                     static_cast<long long>(faults_injected));
        clean = false;
    }

    const double mean_recovery =
        chaos.sched.shed_episodes > 0
            ? chaos.sched.shed_seconds_total /
                  static_cast<double>(chaos.sched.shed_episodes)
            : 0.0;

    JsonWriter json;
    json.begin_object();
    json.field("schema", "hdvb-chaos/1");
    json.field("smoke", smoke);
    json.field("workers", kWorkers);
    json.field("unaffected_sessions", kPerClass * kSessionClassCount);
    json.field("frames_per_session", frames);
    json.key("faults");
    json.begin_object();
    json.field("corrupt_streams", chaos.corrupt_failed);
    json.field("watchdog_stalls", chaos.stall_failed);
    json.field("transient_injected", chaos.transient_injected);
    json.field("admission_churn_rejected", chaos.churn_rejected);
    json.field("total", faults_injected);
    json.end_object();
    json.key("blast_radius");
    json.begin_object();
    json.field("expected_failed_sessions", expected_failed);
    json.field("sessions_failed", chaos.sched.sessions_failed);
    json.field("unaffected_diverged", diverged);
    json.field("unaffected_failed", chaos.unexpected_failures);
    json.end_object();
    json.key("frames");
    json.begin_object();
    json.field("lost_in_victims", chaos.frames_lost_victims);
    json.field("lost_in_unaffected", chaos.frames_lost_unaffected);
    json.end_object();
    json.key("recovery");
    json.begin_object();
    json.field("shed_episodes", chaos.sched.shed_episodes);
    json.field("shed_seconds_total", chaos.sched.shed_seconds_total);
    json.field("mean_time_to_recovery_seconds", mean_recovery);
    json.field("admissions_shed", chaos.sched.admissions_shed);
    json.end_object();
    json.key("classes");
    json.begin_array();
    TableWriter table({"Class", "Run", "Completed", "p50 ms", "p95 ms",
                       "p99 ms"});
    for (int c = 0; c < kSessionClassCount; ++c) {
        const char *name = session_class_name(kAllSessionClasses[c]);
        json.begin_object();
        json.field("class", name);
        for (int run = 0; run < 2; ++run) {
            const PassResult &pass = run == 0 ? baseline : chaos;
            // Shared nearest-rank percentiles (common/stats.h): sort
            // each sample set once, query three ranks.
            std::vector<double> sorted = pass.latencies[c];
            sort_samples(&sorted);
            const double p50 = percentile_sorted(sorted, 0.50) * 1e3;
            const double p95 = percentile_sorted(sorted, 0.95) * 1e3;
            const double p99 = percentile_sorted(sorted, 0.99) * 1e3;
            json.key(run == 0 ? "baseline" : "chaos");
            json.begin_object();
            json.field("submitted", pass.submitted[c]);
            json.field("completed", pass.completed[c]);
            json.field("p50_ms", p50);
            json.field("p95_ms", p95);
            json.field("p99_ms", p99);
            json.end_object();
            table.add_row({name, run == 0 ? "clean" : "chaos",
                           std::to_string(pass.completed[c]),
                           TableWriter::fmt(p50, 2),
                           TableWriter::fmt(p95, 2),
                           TableWriter::fmt(p99, 2)});
        }
        json.end_object();
    }
    json.end_array();
    json.field("refund_balanced", chaos.refund_balanced);
    json.field("arena_drained", chaos.arena_drained);
    json.field("clean", clean);
    json.end_object();

    table.print();
    std::printf("chaos: %lld faults, blast radius %lld/%lld sessions, "
                "%lld frames lost in victims, 0 expected elsewhere "
                "(got %lld), mean recovery %.3fs, %s\n",
                static_cast<long long>(faults_injected),
                static_cast<long long>(chaos.sched.sessions_failed),
                static_cast<long long>(expected_failed),
                static_cast<long long>(chaos.frames_lost_victims),
                static_cast<long long>(chaos.frames_lost_unaffected),
                mean_recovery, clean ? "clean" : "NOT CLEAN");

    const Status written = json.write_file(json_path);
    if (!written.is_ok()) {
        std::fprintf(stderr, "report not written: %s\n",
                     written.to_string().c_str());
        return 1;
    }
    std::printf("(report %s)\n", json_path.c_str());
    return clean ? 0 : 1;
}
