/**
 * @file
 * The parallel sweep engine. A sweep is the benchmark's outer product —
 * codec x sequence x resolution x SIMD (Figure 1, Table V) — and its
 * points are independent measurements, so SweepRunner distributes them
 * across a thread pool. By default each point's *timed region* stays
 * single-threaded (one encoder or decoder instance per point, exactly
 * as in a serial run), so per-point fps is unchanged and stays
 * comparable to the paper's single-core numbers; only the grid's
 * wall-clock time shrinks. A point may opt into intra-codec
 * parallelism via BenchPoint::threads — the codec then runs its
 * MB-row bands on a private pool of that size (bitstreams stay
 * bit-exact), which is how the scaling bench measures fps versus
 * thread count.
 *
 * Results come back in the order of the input point list regardless of
 * completion order, so table output is deterministic, and the engine
 * records per-point observability (wall time, worker id, peak-RSS
 * growth over the sweep) which it can emit as a machine-readable JSON
 * report (schema hdvb-sweep/7: hdvb-sweep/4 added the machine's
 * detected and effective SIMD levels at the top level, next to the
 * per-point "simd" field, so a report is attributable to silicon; /5
 * added the per-point "allocs_per_frame" column — frame-pool heap
 * allocations over frames processed, ~0 in steady state with pooling
 * on — so allocation regressions on the hot path show up in reports;
 * /6 added per-point "repeats" with "fps_median"/"fps_cov"; /7 drops
 * them again: each point is measured once, and steady-state timing is
 * hdvbench's job).
 */
#ifndef HDVB_CORE_SWEEP_H
#define HDVB_CORE_SWEEP_H

#include <string>
#include <vector>

#include "common/status.h"
#include "core/runner.h"
#include "fault/retry.h"

namespace hdvb {

/** What SweepRunner measured for one BenchPoint. */
struct SweepResult {
    BenchPoint point;

    // ---- fault isolation ----
    /** Outcome of the point's final attempt. Non-OK means the
     * measurement fields below are unreliable; the rest of the sweep
     * ran to completion regardless. */
    Status status;
    /** Attempts consumed (1 on first-try success; up to
     * SweepOptions::retry.max_attempts). */
    int attempts = 0;
    /** True when the final attempt hit the per-point timeout. */
    bool timed_out = false;

    // ---- encode measurement ----
    /** False when the stream came from the cache (no encode timing). */
    bool encode_measured = false;
    int encode_frames = 0;
    double encode_seconds = 0.0;

    // ---- stream properties (valid in either case) ----
    u64 stream_bits = 0;
    bool from_cache = false;

    // ---- decode measurement (SweepOptions::measure_decode) ----
    bool decode_measured = false;
    int decode_frames = 0;
    double decode_seconds = 0.0;
    double psnr_y = 0.0;
    double psnr_all = 0.0;

    /** Error-resilience counters from the decoder (all zero unless the
     * point decoded a corrupted stream with error_resilience on). */
    DecodeStats decode_stats;

    /** Frame-pool heap allocations (pool misses) summed over the
     * point's encoder and decoder. With pooling on this is the warm-up
     * cost only; it keeps growing per picture when pooling is off. */
    s64 pool_allocs = 0;

    /** The encoded stream (only with SweepOptions::keep_streams). */
    EncodedStream stream;

    // ---- observability ----
    double wall_seconds = 0.0;  ///< whole point, untimed phases included
    int worker = -1;            ///< pool worker id that ran the point
    /** Growth of the process peak RSS between the start of the sweep
     * and this point's completion, in kB. ru_maxrss is a
     * process-lifetime high-water mark, so the raw value mostly
     * reflects whatever ran before the sweep; the delta against the
     * run() baseline is what a point can actually be charged with.
     * Monotone over the sweep's completion order, and 0 for points
     * that fit inside the footprint already reached. */
    long peak_rss_delta_kb = 0;

    double
    encode_fps() const
    {
        return encode_seconds > 0 ? encode_frames / encode_seconds : 0.0;
    }

    double
    decode_fps() const
    {
        return decode_seconds > 0 ? decode_frames / decode_seconds : 0.0;
    }

    /** Pool misses per frame processed (encode + decode sides). */
    double
    allocs_per_frame() const
    {
        const int frames = encode_frames + decode_frames;
        return frames > 0 ? static_cast<double>(pool_allocs) / frames
                          : 0.0;
    }

    /** kbit/s at the benchmark's 25 fps playback rate. */
    double
    bitrate_kbps() const
    {
        return point.frames > 0 ? static_cast<double>(stream_bits) *
                                      25.0 / point.frames / 1000.0
                                : 0.0;
    }
};

/** Sweep behaviour; the defaults measure encode+decode, uncached. */
struct SweepOptions {
    /** Worker threads; 0 means default_job_count() (HDVB_JOBS env). */
    int jobs = 0;

    /** Time the encode. When false and a cached stream exists, the
     * encode is skipped entirely (decode-only benches). */
    bool measure_encode = true;

    /** Decode the stream, timing it and computing PSNR. */
    bool measure_decode = true;

    /** Retain each point's encoded stream in its SweepResult. */
    bool keep_streams = false;

    /** Directory for the .hdv stream cache shared between bench
     * binaries; empty disables caching. Points carrying a config
     * override never touch the cache. */
    std::string cache_dir;

    /** Path for the machine-readable JSON report; empty disables. The
     * report is written atomically (temp file + rename), so readers
     * never observe a half-written file. */
    std::string json_path;

    /** Per-point wall-clock budget in seconds, applied to the encode
     * and decode phases each; 0 disables. Checked cooperatively once
     * per frame, so a single frame that hangs inside a codec call is
     * not interruptible. */
    double point_timeout_seconds = 0.0;

    /** Retry-with-backoff for failed points (shared fault-subsystem
     * policy; see fault/retry.h). Retries re-run the whole point from
     * scratch. transient_only is forced off: a bench point is a
     * measurement, so any failure — not just retryable codes — gets
     * its remaining attempts. */
    RetryPolicy retry{/*max_attempts=*/1,
                      /*initial_backoff_seconds=*/0.05,
                      /*max_backoff_seconds=*/1.0,
                      /*transient_only=*/false};
};

/**
 * Runs a list of BenchPoints across a thread pool and returns one
 * SweepResult per point, in input order.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /** Execute the sweep. A failing point — codec Status error,
     * uncaught exception, or per-point timeout — is recorded in its
     * SweepResult::status (after SweepOptions::retry.max_attempts
     * tries) and never takes down the rest of the grid. */
    std::vector<SweepResult> run(const std::vector<BenchPoint> &points);

    /** Wall-clock seconds of the last run() (the Figure-1 grid time
     * the parallel engine exists to shrink). */
    double last_wall_seconds() const { return last_wall_seconds_; }

  private:
    /** @p rss_baseline_kb is the peak RSS captured at the top of the
     * owning run() call — passed down rather than stored so a reused
     * runner can never measure one run's growth against another's
     * baseline. */
    SweepResult run_point(const BenchPoint &point, int worker,
                          long rss_baseline_kb) const;
    /** One complete measurement of @p point (encode + decode, with
     * the retry policy applied). */
    SweepResult measure_point(const BenchPoint &point, int worker) const;
    Status attempt_point(const BenchPoint &point,
                         SweepResult *result) const;
    Status write_report(const std::vector<SweepResult> &results) const;

    SweepOptions options_;
    double last_wall_seconds_ = 0.0;
};

/**
 * The benchmark's full measurement grid in canonical order: resolution
 * (outer) -> sequence -> codec (inner). The order is part of the
 * contract — Table V consumes it row by row.
 */
std::vector<BenchPoint> sweep_grid(int frames, SimdLevel simd);

/** Grid restricted to explicit axis values, same nesting order. */
std::vector<BenchPoint>
sweep_grid(const std::vector<CodecId> &codecs,
           const std::vector<SequenceId> &sequences,
           const std::vector<Resolution> &resolutions, int frames,
           SimdLevel simd);

/** Cache file path for a point's encoded stream (shared layout across
 * the bench binaries; independent of SimdLevel — kernels are
 * bit-exact, so one entry serves scalar and SIMD runs alike). */
std::string stream_cache_path(const std::string &cache_dir,
                              const BenchPoint &point);

}  // namespace hdvb

#endif  // HDVB_CORE_SWEEP_H
