#include "core/sweep.h"

#include <cstdio>
#include <exception>
#include <sys/resource.h>
#include <sys/stat.h>

#include "common/check.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "metrics/timer.h"

namespace hdvb {

namespace {

long
current_peak_rss_kb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace

std::string
stream_cache_path(const std::string &cache_dir, const BenchPoint &point)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s/%s_%s_%s_%d.hdv",
                  cache_dir.c_str(), codec_name(point.codec),
                  sequence_name(point.sequence),
                  resolution_info(point.resolution).name, point.frames);
    return buf;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options))
{
}

Status
SweepRunner::attempt_point(const BenchPoint &point,
                           SweepResult *result) const
{
    // Config overrides make a point's stream incomparable with the
    // canonical Table IV one, so such points bypass the cache.
    const bool cacheable =
        !options_.cache_dir.empty() && !point.config.has_value();
    const std::string cache_path =
        cacheable ? stream_cache_path(options_.cache_dir, point) : "";

    EncodedStream stream;
    bool have_stream = false;
    if (cacheable && !options_.measure_encode &&
        read_stream_file(cache_path, &stream).is_ok() &&
        stream.codec == codec_name(point.codec)) {
        result->from_cache = true;
        have_stream = true;
    }
    if (!have_stream) {
        StatusOr<EncodeRun> enc =
            run_encode(point, options_.point_timeout_seconds);
        if (!enc.is_ok())
            return enc.status();
        result->encode_measured = options_.measure_encode;
        result->encode_frames = enc.value().frames;
        result->encode_seconds = enc.value().seconds;
        result->pool_allocs += enc.value().pool.buffer_allocs;
        stream = std::move(enc.value().stream);
        if (cacheable) {
            ::mkdir(options_.cache_dir.c_str(), 0755);
            (void)write_stream_file(cache_path, stream);
        }
    }
    result->stream_bits = stream.total_bits();

    if (options_.measure_decode) {
        // Fault injection corrupts a copy, untimed: the cache (and
        // keep_streams) only ever hold the clean encoder output.
        EncodedStream corrupted;
        const EncodedStream *to_decode = &stream;
        if (point.fault.has_value() && !point.fault->is_noop()) {
            corrupted = corrupted_copy(stream, *point.fault);
            to_decode = &corrupted;
        }
        StatusOr<DecodeRun> dec = run_decode(
            point, *to_decode, options_.point_timeout_seconds);
        if (!dec.is_ok())
            return dec.status();
        result->decode_measured = true;
        result->decode_frames = dec.value().frames;
        result->decode_seconds = dec.value().seconds;
        result->psnr_y = dec.value().psnr_y;
        result->psnr_all = dec.value().psnr_all;
        result->decode_stats = dec.value().stats;
        result->pool_allocs += dec.value().pool.buffer_allocs;
    }

    if (options_.keep_streams)
        result->stream = std::move(stream);
    return Status::ok();
}

SweepResult
SweepRunner::measure_point(const BenchPoint &point, int worker) const
{
    // Shared fault-subsystem retry driver (fault/retry.h) — the same
    // policy object sessions use for transient frame failures.
    RetryController retry(options_.retry);
    SweepResult result;
    Status status;
    do {
        SweepResult trial;
        trial.point = point;
        trial.worker = worker;
        trial.attempts = retry.attempt();
        try {
            status = attempt_point(point, &trial);
        } catch (const std::exception &e) {
            // parallel_for rethrows uncaught worker exceptions, which
            // would abort the whole grid — contain them per point.
            status = Status::internal(std::string("uncaught exception: ") +
                                      e.what());
        }
        trial.status = status;
        trial.timed_out =
            status.code() == StatusCode::kDeadlineExceeded;
        result = std::move(trial);
        if (!status.is_ok()) {
            HDVB_LOG(kWarn) << "sweep " << point.label() << " attempt "
                            << retry.attempt()
                            << " failed: " << status.to_string();
        }
    } while (retry.backoff_and_retry(status));
    return result;
}

SweepResult
SweepRunner::run_point(const BenchPoint &point, int worker,
                       long rss_baseline_kb) const
{
    WallTimer wall;
    wall.start();

    SweepResult result = measure_point(point, worker);

    wall.stop();
    result.wall_seconds = wall.seconds();
    // ru_maxrss is a process-lifetime high-water mark; report the
    // growth since the sweep's baseline, not the absolute value.
    const long rss_now = current_peak_rss_kb();
    result.peak_rss_delta_kb =
        rss_now > rss_baseline_kb ? rss_now - rss_baseline_kb : 0;
    HDVB_LOG(kDebug) << "sweep " << point.label() << " worker "
                     << worker << " wall " << result.wall_seconds
                     << "s";
    return result;
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<BenchPoint> &points)
{
    const int jobs =
        options_.jobs > 0 ? options_.jobs : default_job_count();

    std::vector<SweepResult> results(points.size());
    // Fresh baseline per run(): a reused runner must report this run's
    // RSS growth, not growth since some earlier run warmed the process.
    const long rss_baseline_kb = current_peak_rss_kb();
    WallTimer wall;
    wall.start();
    {
        ThreadPool pool(jobs);
        // Indexed writes into the preallocated vector keep results in
        // input order no matter which worker finishes when.
        parallel_for(pool, static_cast<int>(points.size()),
                     [&](int i, int worker) {
                         results[i] = run_point(points[i], worker,
                                                rss_baseline_kb);
                     });
    }
    wall.stop();
    last_wall_seconds_ = wall.seconds();

    if (!options_.json_path.empty()) {
        const Status status = write_report(results);
        if (!status.is_ok())
            HDVB_LOG(kWarn) << "sweep report not written: "
                            << status.to_string();
    }
    return results;
}

Status
SweepRunner::write_report(const std::vector<SweepResult> &results) const
{
    JsonWriter json;
    json.begin_object();
    json.field("schema", "hdvb-sweep/7");
    json.field("simd_detected", simd_level_name(detected_simd_level()));
    json.field("simd_best", simd_level_name(best_simd_level()));
    json.field("jobs", options_.jobs > 0 ? options_.jobs
                                         : default_job_count());
    json.field("wall_seconds", last_wall_seconds_);
    json.key("points");
    json.begin_array();
    for (const SweepResult &r : results) {
        json.begin_object();
        json.field("label", r.point.label());
        json.field("codec", codec_name(r.point.codec));
        json.field("sequence", sequence_name(r.point.sequence));
        json.field("resolution", resolution_info(r.point.resolution).name);
        json.field("simd", simd_level_name(r.point.simd));
        json.field("frames", r.point.frames);
        json.field("threads", r.point.threads);
        json.field("config_override", r.point.config.has_value());
        json.field("status", status_code_name(r.status.code()));
        if (!r.status.is_ok())
            json.field("error", r.status.message());
        json.field("attempts", r.attempts);
        json.field("timed_out", r.timed_out);
        json.field("fault_injected",
                   r.point.fault.has_value() &&
                       !r.point.fault->is_noop());
        json.field("stream_bits", r.stream_bits);
        json.field("bitrate_kbps", r.bitrate_kbps());
        json.field("from_cache", r.from_cache);
        json.field("allocs_per_frame", r.allocs_per_frame());
        if (r.encode_measured) {
            json.key("encode");
            json.begin_object();
            json.field("frames", r.encode_frames);
            json.field("seconds", r.encode_seconds);
            json.field("fps", r.encode_fps());
            json.end_object();
        }
        if (r.decode_measured) {
            json.key("decode");
            json.begin_object();
            json.field("frames", r.decode_frames);
            json.field("seconds", r.decode_seconds);
            json.field("fps", r.decode_fps());
            json.field("psnr_y", r.psnr_y);
            json.field("psnr_all", r.psnr_all);
            json.key("concealment");
            json.begin_object();
            json.field("mbs_concealed", r.decode_stats.mbs_concealed);
            json.field("resyncs", r.decode_stats.resyncs);
            json.field("pictures_dropped",
                       r.decode_stats.pictures_dropped);
            json.end_object();
            json.end_object();
        }
        json.field("wall_seconds", r.wall_seconds);
        json.field("worker", r.worker);
        json.field("peak_rss_delta_kb",
                   static_cast<s64>(r.peak_rss_delta_kb));
        json.end_object();
    }
    json.end_array();
    json.end_object();

    // Atomic publish (temp file + rename): a concurrent reader never
    // sees a half-written report.
    return json.write_file(options_.json_path);
}

std::vector<BenchPoint>
sweep_grid(int frames, SimdLevel simd)
{
    return sweep_grid(
        {kAllCodecs, kAllCodecs + kCodecCount},
        {kAllSequences, kAllSequences + kSequenceCount},
        {kAllResolutions, kAllResolutions + kResolutionCount}, frames,
        simd);
}

std::vector<BenchPoint>
sweep_grid(const std::vector<CodecId> &codecs,
           const std::vector<SequenceId> &sequences,
           const std::vector<Resolution> &resolutions, int frames,
           SimdLevel simd)
{
    std::vector<BenchPoint> points;
    points.reserve(codecs.size() * sequences.size() *
                   resolutions.size());
    for (Resolution res : resolutions) {
        for (SequenceId seq : sequences) {
            for (CodecId codec : codecs) {
                BenchPoint point;
                point.codec = codec;
                point.sequence = seq;
                point.resolution = res;
                point.frames = frames;
                point.simd = simd;
                points.push_back(point);
            }
        }
    }
    return points;
}

}  // namespace hdvb
