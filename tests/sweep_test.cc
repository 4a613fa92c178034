/**
 * @file
 * Tests for the parallel sweep engine: the ordering contract (results
 * in input order), bit-identical streams between serial and parallel
 * runs (the Figure-1 comparability guarantee), per-point observability,
 * stream caching, and the JSON report.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "container/container.h"
#include "core/sweep.h"

namespace hdvb {
namespace {

/** Reduced-size grid so the sweep tests stay fast: every codec over
 * two sequences at 96x64 with a config override. */
std::vector<BenchPoint>
tiny_points()
{
    CodecConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.me_range = 8;
    cfg.refs = 2;
    std::vector<BenchPoint> points;
    for (SequenceId seq :
         {SequenceId::kBlueSky, SequenceId::kRushHour}) {
        for (CodecId codec : kAllCodecs) {
            BenchPoint point;
            point.codec = codec;
            point.sequence = seq;
            point.frames = 5;
            point.config = cfg;
            points.push_back(point);
        }
    }
    return points;
}

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(SweepRunner, ResultsComeBackInInputOrder)
{
    SweepOptions options;
    options.jobs = 4;
    options.measure_decode = false;
    SweepRunner runner(options);
    const std::vector<BenchPoint> points = tiny_points();
    const std::vector<SweepResult> results = runner.run(points);
    ASSERT_EQ(results.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i].point.label(), points[i].label());
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly)
{
    // The engine's core guarantee: HDVB_JOBS only changes wall-clock
    // time. A 4-worker sweep must produce byte-identical encoded
    // streams, identical measured frame counts and identical PSNR to a
    // 1-worker sweep of the same point list.
    const std::vector<BenchPoint> points = tiny_points();

    SweepOptions serial;
    serial.jobs = 1;
    serial.keep_streams = true;
    SweepOptions parallel = serial;
    parallel.jobs = 4;

    const std::vector<SweepResult> a =
        SweepRunner(serial).run(points);
    const std::vector<SweepResult> b =
        SweepRunner(parallel).run(points);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(points[i].label());
        EXPECT_EQ(serialize_stream(a[i].stream),
                  serialize_stream(b[i].stream));
        EXPECT_EQ(a[i].stream_bits, b[i].stream_bits);
        EXPECT_EQ(a[i].encode_frames, b[i].encode_frames);
        EXPECT_EQ(a[i].decode_frames, b[i].decode_frames);
        EXPECT_DOUBLE_EQ(a[i].psnr_y, b[i].psnr_y);
        EXPECT_DOUBLE_EQ(a[i].psnr_all, b[i].psnr_all);
    }
}

TEST(SweepRunner, ThreadedPointsMatchSingleThreadedBitExactly)
{
    // BenchPoint::threads turns on intra-codec band parallelism; the
    // contract is that it only changes wall-clock time. Encoded
    // streams, frame counts and PSNR must be byte-for-byte identical
    // to the threads=1 run for every codec.
    std::vector<BenchPoint> base = tiny_points();
    std::vector<BenchPoint> threaded = base;
    for (BenchPoint &point : threaded)
        point.threads = 4;

    SweepOptions options;
    options.jobs = 2;
    options.keep_streams = true;
    const std::vector<SweepResult> a = SweepRunner(options).run(base);
    const std::vector<SweepResult> b =
        SweepRunner(options).run(threaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(base[i].label());
        EXPECT_EQ(b[i].point.threads, 4);
        EXPECT_EQ(b[i].point.effective_config().threads, 4);
        EXPECT_EQ(serialize_stream(a[i].stream),
                  serialize_stream(b[i].stream));
        EXPECT_EQ(a[i].decode_frames, b[i].decode_frames);
        EXPECT_DOUBLE_EQ(a[i].psnr_y, b[i].psnr_y);
        EXPECT_DOUBLE_EQ(a[i].psnr_all, b[i].psnr_all);
    }
}

TEST(SweepRunner, RecordsPerPointObservability)
{
    SweepOptions options;
    options.jobs = 2;
    SweepRunner runner(options);
    const std::vector<SweepResult> results = runner.run(tiny_points());
    for (const SweepResult &r : results) {
        EXPECT_GT(r.wall_seconds, 0.0);
        EXPECT_GE(r.worker, 0);
        EXPECT_LT(r.worker, 2);
        // Peak-RSS growth since the sweep baseline: zero is legal (a
        // point that fits in the footprint already reached), negative
        // is not.
        EXPECT_GE(r.peak_rss_delta_kb, 0);
        EXPECT_TRUE(r.encode_measured);
        EXPECT_TRUE(r.decode_measured);
        EXPECT_GT(r.encode_fps(), 0.0);
        EXPECT_GT(r.decode_fps(), 0.0);
        EXPECT_GT(r.bitrate_kbps(), 0.0);
    }
    EXPECT_GT(runner.last_wall_seconds(), 0.0);
}

TEST(SweepRunner, RssBaselineIsFreshPerRun)
{
    SweepOptions options;
    options.jobs = 1;
    SweepRunner runner(options);
    const std::vector<BenchPoint> all = tiny_points();
    const std::vector<BenchPoint> points(all.begin(), all.begin() + 1);
    (void)runner.run(points);

    // Raise the process peak RSS by ~32 MB between runs (ru_maxrss is
    // a lifetime high-water mark, so this can never be undone).
    std::vector<u8> ballast(size_t{32} << 20);
    for (size_t i = 0; i < ballast.size(); i += 4096)
        ballast[i] = static_cast<u8>(i);

    // A reused runner re-baselines at the top of every run(): memory
    // that grew between runs must not be attributed to this run's
    // points. A stale baseline would report >= 32768 kB here.
    const std::vector<SweepResult> again = runner.run(points);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_GE(again[0].peak_rss_delta_kb, 0);
    EXPECT_LT(again[0].peak_rss_delta_kb, 16384);
}

TEST(SweepRunner, WritesJsonReport)
{
    const std::string path =
        ::testing::TempDir() + "/hdvb_sweep_report.json";
    SweepOptions options;
    options.jobs = 2;
    options.json_path = path;
    SweepRunner runner(options);
    const std::vector<BenchPoint> points = tiny_points();
    runner.run(points);

    const std::string report = read_file(path);
    ASSERT_FALSE(report.empty());
    EXPECT_NE(report.find("\"schema\":\"hdvb-sweep/7\""),
              std::string::npos);
    EXPECT_NE(report.find("\"jobs\":2"), std::string::npos);
    // Schema 7: one measurement per point, so the schema-6 repeat
    // count and median/CoV fields are gone.
    EXPECT_EQ(report.find("\"repeats\""), std::string::npos);
    EXPECT_EQ(report.find("\"fps_median\""), std::string::npos);
    EXPECT_EQ(report.find("\"fps_cov\""), std::string::npos);
    // Schema 5: per-point frame-pool allocation rate.
    EXPECT_NE(report.find("\"allocs_per_frame\":"), std::string::npos);
    // Schema 4: the machine's detected and effective SIMD levels at
    // the top level, both legal spellings.
    SimdLevel parsed = SimdLevel::kScalar;
    EXPECT_NE(report.find(std::string("\"simd_detected\":\"") +
                          simd_level_name(detected_simd_level()) +
                          "\""),
              std::string::npos);
    EXPECT_NE(report.find(std::string("\"simd_best\":\"") +
                          simd_level_name(best_simd_level()) + "\""),
              std::string::npos);
    EXPECT_TRUE(
        parse_simd_level(simd_level_name(detected_simd_level()),
                         &parsed));
    // Schema 2: per-point fault-isolation fields.
    EXPECT_NE(report.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(report.find("\"attempts\":1"), std::string::npos);
    EXPECT_NE(report.find("\"concealment\""), std::string::npos);
    // Schema 3: per-point codec thread count and peak-RSS growth
    // relative to the sweep baseline (the old absolute peak_rss_kb
    // field is gone).
    EXPECT_NE(report.find("\"threads\":1"), std::string::npos);
    EXPECT_NE(report.find("\"peak_rss_delta_kb\""), std::string::npos);
    EXPECT_EQ(report.find("\"peak_rss_kb\""), std::string::npos);
    // The report is published atomically: no temp file left behind.
    EXPECT_TRUE(read_file(path + ".tmp").empty());
    // Every point appears, by its stable label.
    for (const BenchPoint &point : points)
        EXPECT_NE(report.find("\"label\":\"" + point.label() + "\""),
                  std::string::npos);
    // Balanced structure (cheap well-formedness smoke).
    EXPECT_EQ(std::count(report.begin(), report.end(), '{'),
              std::count(report.begin(), report.end(), '}'));
    EXPECT_EQ(std::count(report.begin(), report.end(), '['),
              std::count(report.begin(), report.end(), ']'));
    std::remove(path.c_str());
}

TEST(SweepRunner, FaultIsolationAndTimeout)
{
    // Three-point grid: a good point, a point whose config override
    // fails validation, and a point that "hangs" (per-frame injected
    // delay far past the timeout budget). The sweep must complete
    // every point, record each failure in its own result, and still
    // write a well-formed report.
    CodecConfig good;
    good.width = 96;
    good.height = 64;
    good.me_range = 8;
    good.refs = 2;

    BenchPoint ok_point;
    ok_point.codec = CodecId::kMpeg2;
    ok_point.sequence = SequenceId::kBlueSky;
    ok_point.frames = 3;
    ok_point.config = good;

    BenchPoint bad_point = ok_point;
    CodecConfig bad = good;
    bad.width = 100;  // not a macroblock multiple: fails validate()
    bad_point.config = bad;

    BenchPoint slow_point = ok_point;
    FaultPlan hang;
    hang.delay_seconds = 0.2;  // per frame; far past the 50 ms budget
    slow_point.fault = hang;

    const std::string path =
        ::testing::TempDir() + "/hdvb_sweep_faults.json";
    SweepOptions options;
    options.jobs = 2;
    options.point_timeout_seconds = 0.05;
    options.retry.max_attempts = 2;
    options.retry.initial_backoff_seconds = 0.01;
    options.json_path = path;
    SweepRunner runner(options);
    const std::vector<SweepResult> results =
        runner.run({ok_point, bad_point, slow_point});
    ASSERT_EQ(results.size(), 3u);

    EXPECT_TRUE(results[0].status.is_ok());
    EXPECT_EQ(results[0].attempts, 1);
    EXPECT_FALSE(results[0].timed_out);
    EXPECT_GT(results[0].psnr_y, 0.0);

    EXPECT_EQ(results[1].status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(results[1].attempts, 2);
    EXPECT_FALSE(results[1].timed_out);

    EXPECT_EQ(results[2].status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(results[2].timed_out);
    EXPECT_EQ(results[2].attempts, 2);

    const std::string report = read_file(path);
    ASSERT_FALSE(report.empty());
    EXPECT_NE(report.find("\"status\":\"invalid-argument\""),
              std::string::npos);
    EXPECT_NE(report.find("\"status\":\"deadline-exceeded\""),
              std::string::npos);
    EXPECT_NE(report.find("\"attempts\":2"), std::string::npos);
    EXPECT_NE(report.find("\"timed_out\":true"), std::string::npos);
    std::remove(path.c_str());
}

TEST(SweepRunner, StreamCacheRoundTrips)
{
    const std::string dir = ::testing::TempDir() + "/hdvb_sweep_cache";
    BenchPoint point;  // canonical point: cacheable (no override)
    point.codec = CodecId::kMpeg2;
    point.sequence = SequenceId::kBlueSky;
    point.resolution = Resolution::k576p25;
    point.frames = 2;

    SweepOptions options;
    options.jobs = 1;
    options.measure_encode = false;
    options.measure_decode = false;
    options.keep_streams = true;
    options.cache_dir = dir;

    const SweepResult first =
        SweepRunner(options).run({point}).front();
    EXPECT_FALSE(first.from_cache);
    const SweepResult second =
        SweepRunner(options).run({point}).front();
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(serialize_stream(first.stream),
              serialize_stream(second.stream));

    // measure_encode forces a fresh timed encode despite the cache.
    options.measure_encode = true;
    const SweepResult timed =
        SweepRunner(options).run({point}).front();
    EXPECT_FALSE(timed.from_cache);
    EXPECT_TRUE(timed.encode_measured);
    EXPECT_GT(timed.encode_seconds, 0.0);

    std::remove(stream_cache_path(dir, point).c_str());
}

TEST(SweepGrid, CanonicalOrderAndSize)
{
    const std::vector<BenchPoint> grid =
        sweep_grid(4, SimdLevel::kScalar);
    ASSERT_EQ(grid.size(), static_cast<size_t>(kCodecCount) *
                               kSequenceCount * kResolutionCount);
    // Codec is the innermost axis; resolution the outermost.
    EXPECT_EQ(grid[0].label(), "mpeg2/blue_sky/576p25/scalar");
    EXPECT_EQ(grid[1].label(), "mpeg4/blue_sky/576p25/scalar");
    EXPECT_EQ(grid[kCodecCount].label(),
              "mpeg2/pedestrian_area/576p25/scalar");
    for (const BenchPoint &point : grid) {
        EXPECT_EQ(point.frames, 4);
        EXPECT_EQ(point.simd, SimdLevel::kScalar);
        EXPECT_FALSE(point.config.has_value());
    }
    // Row structure: each consecutive kCodecCount block shares
    // (resolution, sequence) — the Table V consumption contract.
    for (size_t i = 0; i < grid.size(); i += kCodecCount) {
        for (int c = 1; c < kCodecCount; ++c) {
            EXPECT_EQ(grid[i + c].sequence, grid[i].sequence);
            EXPECT_EQ(grid[i + c].resolution, grid[i].resolution);
        }
    }
}

}  // namespace
}  // namespace hdvb
