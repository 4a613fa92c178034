/**
 * @file
 * Shared pieces of the steady-state benchmark driver: the run context
 * (seed, time budget, tracing switch), the result record every workload
 * fills, the in-memory span recorder, and small measurement helpers.
 *
 * Tracing is benchmark-side only: spans are recorded around the
 * driver's own calls into the library's public functions, never inside
 * the library. With tracing off a Span costs one branch.
 */
#ifndef HDVBENCH_BENCH_H
#define HDVBENCH_BENCH_H

#include <sched.h>

#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "codec/side_info.h"
#include "common/types.h"
#include "container/container.h"
#include "core/benchmark.h"
#include "metrics/psnr.h"
#include "synth/synth.h"

namespace hdvbench {

using namespace hdvb;
using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One recorded span: a call into a library layer. */
struct SpanRecord {
    const char *name = "";
    double t0_us = 0.0;
    double t1_us = 0.0;
};

/**
 * In-memory span recorder. Spans are appended under a mutex (the serve
 * workload records from scheduler workers); the per-layer metrics read
 * their durations when the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    bool on() const { return on_; }

    /** Index of a newly opened span. */
    int open(const char *name);
    void close(int index);

    /** Durations (seconds) of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;
    size_t count() const;

  private:
    bool on_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/** RAII span; a no-op on a null or disabled tracer. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name)
        : tracer_(tracer && tracer->on() ? tracer : nullptr),
          index_(tracer_ ? tracer_->open(name) : -1)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->close(index_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    int index_;
};

/** Everything one invocation of a workload produces. */
struct Result {
    std::map<std::string, std::pair<double, std::string>> metrics;
    s64 attempted = 0;
    s64 failed = 0;
    std::vector<std::string> failures;  ///< one line per failed check
    std::map<std::string, std::string> info;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
    /** Record a correctness check; a false @p ok counts one failed
     * operation and keeps @p what for the report. */
    void check(bool ok, const std::string &what);
};

/** What a workload is asked to do. */
struct RunContext {
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    int nproc = 1;  ///< CPUs granted to this process
    SimdLevel simd = SimdLevel::kScalar;
    Tracer *tracer = nullptr;
};

// ---- measurement helpers ----

/** Nearest-rank percentile (q in [0,1]) of unsorted samples. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/** Deterministic 64-bit mixer (splitmix64) for seeded choices. */
u64 mix64(u64 x);

/** The seeded start frame of a workload's synthetic sequence. It stays
 * within the first eight pictures: later starts change how hard the
 * content is to code, and with it the exact bitrate and PSNR figures,
 * by more than the benchmark's bounds. */
int start_frame(u64 seed, u64 salt);

/** FNV-1a digest helpers: streams and pictures are keyed by these. */
u64 digest_bytes(const u8 *data, size_t size, u64 h = 1469598103934665603ull);
u64 digest_stream(const std::vector<Packet> &packets);
u64 digest_frame(const Frame &frame, u64 h = 1469598103934665603ull);

/**
 * Moves the calling thread round the CPUs it may use, one per next()
 * call, and restores its affinity on destruction. On a shared host each
 * CPU's speed for this memory-bound work drifts on its own, by up to
 * 25% over tens of seconds. A single-threaded timed region left to the
 * OS spends a whole run on whichever CPU it landed on. Rotating spreads
 * every codec's samples evenly over all of them.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU of the original affinity mask. */
    void next();

  private:
    cpu_set_t saved_;
    std::vector<int> cpus_;
    size_t at_ = 0;
};

/** Index into a ping-pong walk over @p n distinct frames, so a long
 * timed region never jumps back to the first picture (no scene cut). */
int pingpong(s64 k, int n);

/** Generate @p n frames of @p seq starting at @p start in parallel on
 * @p threads threads, each generate_frame() call inside a span. */
std::vector<Frame> generate_frames(SequenceId seq, int width, int height,
                                   int start, int n, int threads,
                                   Tracer *tracer);

/** What decoding an encoded stream back showed. */
struct StreamCheck {
    s64 frames = 0;      ///< pictures the decoder emitted
    double psnr_y = 0.0; ///< sequence luma PSNR over the quality window
};

/**
 * Decode @p packets with a fresh decoder, one picture at a time (never
 * holding the decoded sequence), count the pictures and accumulate luma
 * PSNR against @p source_at(poc) for poc < @p quality_frames. Checks
 * that the decoder accepts every packet and emits @p expected pictures.
 */
StreamCheck verify_stream(CodecId codec, const CodecConfig &cfg,
                          const std::vector<Packet> &packets,
                          const std::function<const Frame &(s64)> &source_at,
                          s64 expected, s64 quality_frames, Result *result,
                          const std::string &label);

/** Bits of the packets with poc < @p frames, as kbit/s at 25 fps. */
double window_kbps(const std::vector<Packet> &packets, s64 frames);

/** Copy of @p src with a reference border, borders extended. */
Frame bordered_copy(const Frame &src);

/** Side-info sink that keeps every exported picture. */
struct CollectSink : DecodeSideInfo {
    std::vector<PictureSideInfo> pics;

    void push(PictureSideInfo info) override { pics.push_back(std::move(info)); }

    /** First picture of @p type in decode order, or null. */
    const PictureSideInfo *
    first(PictureType type) const
    {
        for (const PictureSideInfo &p : pics)
            if (p.type == type)
                return &p;
        return nullptr;
    }
};

/** Time set-up @p reps times and report the median as setup_s. The
 * callable returns a digest of what it built; every repetition must
 * build the same inputs. */
template <typename SetupFn>
void timed_setup(int reps, Result *result, SetupFn &&setup);

// ---- workloads (one per --workload name) ----
void run_encode_hd(const RunContext &ctx, Result *result);
void run_decode_hd(const RunContext &ctx, Result *result);
void run_serve_mix(const RunContext &ctx, Result *result);
void run_transcode_reuse(const RunContext &ctx, Result *result);

// ---- per-layer replays (layers.cc) ----

/** SIMD kernel and DSP transform/quant timings on blocks cut from
 * @p cur and @p ref (simd.ns.*, dsp.ns.*). */
void replay_kernels(const Frame &cur, const Frame &ref,
                    const RunContext &ctx, Result *result);

/** Entropy-coder timings on a seeded symbol sequence (bitstream.*). */
void replay_bitstream(const RunContext &ctx, Result *result);

/**
 * Motion-search replay over every macroblock of @p cur against @p ref
 * (me.epzs.*, me.hex.*, me.subpel.*), with work counted through a
 * counting copy of the Dsp table; every counted search is checked
 * against an uncounted one.
 */
void replay_motion_search(const Frame &cur, const Frame &ref,
                          const RunContext &ctx, Result *result);

/** Hint-seeded hex search replay: candidates are the decoder-exported
 * vectors of @p hints (me.hex_hinted.*). */
void replay_hinted_search(const Frame &cur, const Frame &ref,
                          const PictureSideInfo &hints,
                          const RunContext &ctx, Result *result);

/** Motion-compensation replay of exported motion fields over decoded
 * reference pictures (mc.ns_per_mb.*). */
void replay_mc(CodecId codec, const Frame &ref, const PictureSideInfo &side,
               const RunContext &ctx, Result *result);

/** H.264 deblock and intra-prediction replays on a decoded picture
 * (h264.*); the deblock grid is built from @p side. */
void replay_h264_picture(const Frame &decoded, const PictureSideInfo &side,
                         Result *result);

// ---- template definitions ----

template <typename SetupFn>
void
timed_setup(int reps, Result *result, SetupFn &&setup)
{
    std::vector<double> times;
    u64 first = 0;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point t0 = Clock::now();
        const u64 digest = setup(r);
        times.push_back(seconds_since(t0));
        if (r == 0)
            first = digest;
        else
            result->check(digest == first,
                          "set-up repetition " + std::to_string(r) +
                              " built different inputs");
    }
    result->set("setup_s", median(times), "s");
}

}  // namespace hdvbench

#endif  // HDVBENCH_BENCH_H
