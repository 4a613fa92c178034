/**
 * @file
 * Multi-session server load generator for the serve layer: replays
 * mixed live / VOD-bulk / thumbnail-burst traffic against one
 * SessionScheduler at deliberately oversubscribed session counts
 * (>= 4 sessions per scheduler worker) and reports per-class p50/p95/
 * p99 per-frame latency plus aggregate throughput in a
 * schema-versioned JSON document (hdvb-serve/1, published atomically
 * to hdvb_cache/serve_report.json).
 *
 * Traffic model: each class runs one feeder thread round-robin feeding
 * its sessions. Live sessions encode with a short queue and paced
 * submission (interactive shape); VOD sessions encode in bulk against
 * a deeper queue (throughput shape, constantly backpressured);
 * thumbnail sessions decode pre-encoded tiny streams in bursts.
 * Backpressure rejections are retried and counted, never dropped, so
 * the run is also a lost-frame audit: every submitted ticket must come
 * back as exactly one TicketResult, and the process exits non-zero on
 * any miscount — the property the smoke/TSAN ctest entries gate on.
 *
 * Frames are tiny (bench/loadgen_traffic.h) so the interesting
 * contention is in the scheduler, not the DCTs. --smoke shrinks frame
 * counts for CI.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/loadgen_traffic.h"
#include "common/json_writer.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/benchmark.h"
#include "core/report.h"
#include "metrics/timer.h"
#include "serve/scheduler.h"
#include "synth/synth.h"

using namespace hdvb;
using namespace hdvb::bench;

namespace {

/** One traffic class's shape. */
struct ClassPlan {
    SessionClass cls;
    bool encode = true;
    int sessions = 0;
    int frames_per_session = 0;
    size_t queue_capacity = 16;
    double frame_deadline_seconds = 0.0;
    double pace_seconds = 0.0;  ///< feeder sleep between rounds
};

/** Accumulated per-class outcome (single-feeder, no locking needed). */
struct ClassMetrics {
    std::vector<double> latencies;  ///< seconds, completed frames only
    s64 submitted = 0;
    s64 completed = 0;
    s64 failed = 0;
    s64 deadline_missed = 0;
    s64 rejected_submits = 0;  ///< backpressure retries
};

/**
 * Feed one class's sessions round-robin: frame i goes to every session
 * before frame i+1 goes to any, with bounded retry on backpressure.
 * Returns false on a non-backpressure submit failure.
 */
bool
feed_class(const ClassPlan &plan,
           const std::vector<std::shared_ptr<CodecSession>> &sessions,
           const std::vector<Packet> streams[kCodecCount],
           ClassMetrics *metrics)
{
    SyntheticSource source(SequenceId::kRushHour, kWidth, kHeight);
    std::vector<Packet> packet_sink;
    std::vector<Frame> frame_sink;
    for (int i = 0; i < plan.frames_per_session; ++i) {
        for (size_t s = 0; s < sessions.size(); ++s) {
            CodecSession &session = *sessions[s];
            for (;;) {
                StatusOr<Ticket> ticket =
                    plan.encode
                        ? session.submit(source.at(i))
                        : session.submit(
                              streams[static_cast<int>(codec_for(
                                  static_cast<int>(s)))]
                                  [static_cast<size_t>(i)]);
                if (ticket.is_ok()) {
                    ++metrics->submitted;
                    break;
                }
                if (ticket.status().code() !=
                    StatusCode::kUnavailable) {
                    std::fprintf(stderr, "submit failed: %s\n",
                                 ticket.status().to_string().c_str());
                    return false;
                }
                ++metrics->rejected_submits;
                // Backpressure: let the dispatchers drain the queue.
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
            // Keep output buffers cycling back to the shared arena.
            if (plan.encode)
                session.poll(&packet_sink);
            else
                session.poll(&frame_sink);
            packet_sink.clear();
            frame_sink.clear();
        }
        if (plan.pace_seconds > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(plan.pace_seconds));
        }
    }
    return true;
}

/** Close every session and fold its results into @p metrics; returns
 * false if any ticket was lost or any frame failed outright. */
bool
settle_class(const ClassPlan &plan,
             const std::vector<std::shared_ptr<CodecSession>> &sessions,
             ClassMetrics *metrics)
{
    bool clean = true;
    for (const std::shared_ptr<CodecSession> &session : sessions) {
        const Status status = session->close();
        if (!status.is_ok()) {
            std::fprintf(stderr, "session %s close: %s\n",
                         session->name().c_str(),
                         status.to_string().c_str());
            clean = false;
        }
        s64 seen = 0;
        for (const TicketResult &result : session->take_results()) {
            ++seen;
            if (result.status.is_ok()) {
                ++metrics->completed;
                metrics->latencies.push_back(result.latency_seconds);
            } else if (result.status.code() ==
                       StatusCode::kDeadlineExceeded) {
                ++metrics->deadline_missed;
            } else {
                ++metrics->failed;
                clean = false;
            }
        }
        const SessionCounters counters = session->counters();
        if (seen != counters.submitted) {
            std::fprintf(stderr,
                         "session %s lost frames: %lld submitted, "
                         "%lld results\n",
                         session->name().c_str(),
                         static_cast<long long>(counters.submitted),
                         static_cast<long long>(seen));
            clean = false;
        }
        // Drain flushed output left after the last feeder poll.
        std::vector<Packet> packet_sink;
        std::vector<Frame> frame_sink;
        if (plan.encode)
            session->poll(&packet_sink);
        else
            session->poll(&frame_sink);
    }
    return clean;
}

}  // namespace

int
main(int argc, char **argv)
{
    LoadgenArgs args;
    args.json_path = "hdvb_cache/serve_report.json";
    if (const int rc = parse_loadgen_args(argc, argv, &args); rc != 0)
        return rc;
    const bool smoke = args.smoke;
    const std::string &json_path = args.json_path;

    SchedulerOptions options;
    options.workers = default_job_count();
    const int workers = options.workers;
    // >= 4 sessions per worker, split across the three classes.
    const int per_class = std::max(2, 2 * workers);
    const int planned_sessions = 3 * per_class;
    options.max_sessions = planned_sessions;
    const int frames = smoke ? 6 : 48;

    ClassPlan plans[kSessionClassCount];
    plans[0] = {SessionClass::kLive, true, per_class, frames,
                /*queue_capacity=*/4, /*deadline=*/5.0,
                /*pace=*/smoke ? 0.0 : 0.002};
    plans[1] = {SessionClass::kVod, true, per_class, frames,
                /*queue_capacity=*/16, 0.0, 0.0};
    plans[2] = {SessionClass::kThumbnail, false, per_class, frames,
                /*queue_capacity=*/8, 0.0, 0.0};

    std::printf("HD-VideoBench server loadgen: %d workers, %d sessions "
                "(%.1fx oversubscribed), %d frames/session%s\n",
                workers, planned_sessions,
                static_cast<double>(planned_sessions) / workers, frames,
                smoke ? " [smoke]" : "");

    std::vector<Packet> streams[kCodecCount];
    const Status prepared = encode_tiny_streams(frames, streams);
    if (!prepared.is_ok()) {
        std::fprintf(stderr, "stream preparation failed: %s\n",
                     prepared.to_string().c_str());
        return 1;
    }

    ClassMetrics metrics[kSessionClassCount];
    s64 admission_rejected = 0;
    double wall_seconds = 0.0;
    bool clean = true;
    FramePoolStats arena;
    {
        SessionScheduler scheduler(options);

        std::vector<std::shared_ptr<CodecSession>>
            sessions[kSessionClassCount];
        for (const ClassPlan &plan : plans) {
            const int c = static_cast<int>(plan.cls);
            for (int s = 0; s < plan.sessions; ++s) {
                const CodecId codec = codec_for(s);
                SessionConfig config;
                config.name = std::string(session_class_name(plan.cls)) +
                              "-" + codec_name(codec) + "-" +
                              std::to_string(s);
                config.priority = plan.cls;
                config.codec_config = tiny_config(codec);
                config.queue_capacity = plan.queue_capacity;
                config.frame_deadline_seconds =
                    plan.frame_deadline_seconds;
                StatusOr<std::shared_ptr<CodecSession>> session =
                    plan.encode
                        ? scheduler.open_encode(
                              make_encoder(codec, config.codec_config)
                                  .value(),
                              config)
                        : scheduler.open_decode(
                              make_decoder(codec, config.codec_config)
                                  .value(),
                              config);
                if (!session.is_ok()) {
                    std::fprintf(stderr, "admission failed: %s\n",
                                 session.status().to_string().c_str());
                    return 1;
                }
                sessions[c].push_back(std::move(session.value()));
            }
        }

        // The budget is full now: further admissions must be rejected,
        // not queued — the admission-control half of the acceptance.
        for (int extra = 0; extra < 2; ++extra) {
            SessionConfig config;
            config.name = "over-budget-" + std::to_string(extra);
            config.codec_config = tiny_config(CodecId::kMpeg2);
            StatusOr<std::shared_ptr<CodecSession>> session =
                scheduler.open_encode(
                    make_encoder(CodecId::kMpeg2, config.codec_config)
                        .value(),
                    config);
            if (session.is_ok()) {
                std::fprintf(stderr,
                             "over-budget session was admitted\n");
                return 1;
            }
            ++admission_rejected;
        }

        WallTimer wall;
        wall.start();
        std::vector<std::thread> feeders;
        bool feed_ok[kSessionClassCount] = {true, true, true};
        for (int c = 0; c < kSessionClassCount; ++c) {
            feeders.emplace_back([&, c] {
                feed_ok[c] = feed_class(plans[c], sessions[c], streams,
                                        &metrics[c]);
            });
        }
        for (std::thread &t : feeders)
            t.join();
        for (int c = 0; c < kSessionClassCount; ++c) {
            clean = settle_class(plans[c], sessions[c], &metrics[c]) &&
                    feed_ok[c] && clean;
        }
        wall.stop();
        wall_seconds = wall.seconds();
        arena = scheduler.arena().stats();

        const SchedulerStats stats = scheduler.stats();
        if (stats.sessions_rejected != admission_rejected) {
            std::fprintf(stderr, "rejection count mismatch\n");
            clean = false;
        }
    }

    s64 total_completed = 0;
    TableWriter table({"Class", "Sessions", "Frames", "Completed",
                       "Missed", "Backpressure", "p50 ms", "p95 ms",
                       "p99 ms"});
    JsonWriter json;
    json.begin_object();
    json.field("schema", "hdvb-serve/1");
    json.field("smoke", smoke);
    json.field("workers", workers);
    json.field("sessions", planned_sessions);
    json.field("oversubscription",
               static_cast<double>(planned_sessions) / workers);
    json.field("frames_per_session", frames);
    json.key("classes");
    json.begin_array();
    for (int c = 0; c < kSessionClassCount; ++c) {
        const ClassPlan &plan = plans[c];
        ClassMetrics &m = metrics[c];
        total_completed += m.completed;
        // Shared nearest-rank percentiles (common/stats.h): one sort
        // per sample set, then as many rank queries as needed.
        sort_samples(&m.latencies);
        const double p50 = percentile_sorted(m.latencies, 0.50) * 1e3;
        const double p95 = percentile_sorted(m.latencies, 0.95) * 1e3;
        const double p99 = percentile_sorted(m.latencies, 0.99) * 1e3;
        json.begin_object();
        json.field("class", session_class_name(plan.cls));
        json.field("direction", plan.encode ? "encode" : "decode");
        json.field("sessions", plan.sessions);
        json.field("submitted", m.submitted);
        json.field("completed", m.completed);
        json.field("failed", m.failed);
        json.field("deadline_missed", m.deadline_missed);
        json.field("rejected_submits", m.rejected_submits);
        json.field("p50_ms", p50);
        json.field("p95_ms", p95);
        json.field("p99_ms", p99);
        json.end_object();
        table.add_row({session_class_name(plan.cls),
                       std::to_string(plan.sessions),
                       std::to_string(m.submitted),
                       std::to_string(m.completed),
                       std::to_string(m.deadline_missed),
                       std::to_string(m.rejected_submits),
                       TableWriter::fmt(p50, 2), TableWriter::fmt(p95, 2),
                       TableWriter::fmt(p99, 2)});
    }
    json.end_array();
    const double fps =
        wall_seconds > 0.0
            ? static_cast<double>(total_completed) / wall_seconds
            : 0.0;
    json.key("aggregate");
    json.begin_object();
    json.field("completed_frames", total_completed);
    json.field("wall_seconds", wall_seconds);
    json.field("fps", fps);
    json.field("admission_rejected", admission_rejected);
    json.field("clean", clean);
    json.end_object();
    json.key("arena");
    json.begin_object();
    json.field("buffer_allocs", arena.buffer_allocs);
    json.field("buffer_reuses", arena.buffer_reuses);
    json.field("bytes_high_water", arena.bytes_high_water);
    json.end_object();
    json.end_object();

    table.print();
    std::printf("aggregate: %lld frames in %.2fs (%.1f fps), arena "
                "high water %lld KiB, %s\n",
                static_cast<long long>(total_completed), wall_seconds,
                fps, static_cast<long long>(arena.bytes_high_water / 1024),
                clean ? "clean" : "NOT CLEAN");

    const Status written = json.write_file(json_path);
    if (!written.is_ok()) {
        std::fprintf(stderr, "report not written: %s\n",
                     written.to_string().c_str());
        return 1;
    }
    std::printf("(report %s)\n", json_path.c_str());
    return clean ? 0 : 1;
}
