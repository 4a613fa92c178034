#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.h"

namespace hdvbench {

int
Tracer::open(const char *name)
{
    SpanRecord rec;
    rec.name = name;
    rec.t0_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(rec);
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::close(int index)
{
    const double t1 =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].t1_us = t1;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (s.t1_us > 0.0 && name == s.name)
            out.push_back((s.t1_us - s.t0_us) * 1e-6);
    return out;
}

size_t
Tracer::count() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank - 1.0, 0.0, static_cast<double>(v.size() - 1)));
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

int
start_frame(u64 seed, u64 salt)
{
    return static_cast<int>(mix64(seed * 4 + salt) % 8);
}

u64
digest_bytes(const u8 *data, size_t size, u64 h)
{
    // FNV-1a over 8-byte words (then the tail bytes): cheap enough to
    // key every decoded picture.
    size_t i = 0;
    for (; i + 8 <= size; i += 8) {
        u64 word;
        std::memcpy(&word, data + i, sizeof(word));
        h = (h ^ word) * 1099511628211ull;
    }
    for (; i < size; ++i)
        h = (h ^ data[i]) * 1099511628211ull;
    return h;
}

u64
digest_stream(const std::vector<Packet> &packets)
{
    u64 h = 1469598103934665603ull;
    for (const Packet &p : packets) {
        const s64 meta[3] = {static_cast<s64>(p.type), p.poc,
                             p.coding_index};
        h = digest_bytes(reinterpret_cast<const u8 *>(meta), sizeof(meta),
                         h);
        h = digest_bytes(p.data.data(), p.data.size(), h);
    }
    return h;
}

u64
digest_frame(const Frame &frame, u64 h)
{
    for (int i = 0; i < 3; ++i) {
        const Plane &p = frame.plane(i);
        for (int y = 0; y < p.height(); ++y)
            h = digest_bytes(p.row(y), static_cast<size_t>(p.width()), h);
    }
    return h;
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &saved_))
            cpus_.push_back(c);
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(saved_), &saved_);
}

void
CpuRotation::next()
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[at_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

int
pingpong(s64 k, int n)
{
    if (n <= 1)
        return 0;
    const s64 period = 2 * (n - 1);
    const s64 m = k % period;
    return static_cast<int>(m < n ? m : period - m);
}

std::vector<Frame>
generate_frames(SequenceId seq, int width, int height, int start, int n,
                int threads, Tracer *tracer)
{
    std::vector<Frame> frames(static_cast<size_t>(n));
    std::atomic<int> next{0};
    auto worker = [&] {
        for (int i = next++; i < n; i = next++) {
            Frame f(width, height);
            {
                Span span(tracer, "generate_frame");
                generate_frame(seq, start + i, &f);
            }
            f.set_poc(i);
            frames[static_cast<size_t>(i)] = std::move(f);
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < std::max(1, threads); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
    return frames;
}

StreamCheck
verify_stream(CodecId codec, const CodecConfig &cfg,
              const std::vector<Packet> &packets,
              const std::function<const Frame &(s64)> &source_at,
              s64 expected, s64 quality_frames, Result *result,
              const std::string &label)
{
    StreamCheck out;
    StatusOr<std::unique_ptr<VideoDecoder>> dec = make_decoder(codec, cfg);
    if (!dec.is_ok()) {
        result->check(false, label + ": " + dec.status().to_string());
        return out;
    }
    PsnrAccumulator psnr;
    std::vector<Frame> frames;
    auto consume = [&] {
        for (const Frame &f : frames)
            if (f.poc() < quality_frames)
                psnr.add(source_at(f.poc()), f);
        out.frames += static_cast<s64>(frames.size());
        frames.clear();
    };
    for (const Packet &p : packets) {
        const Status s = dec.value()->decode(p, &frames);
        if (!s.is_ok()) {
            result->check(false, label + ": " + s.to_string());
            return out;
        }
        consume();
    }
    const Status s = dec.value()->flush(&frames);
    result->check(s.is_ok(), label + ": flush " + s.to_string());
    consume();
    out.psnr_y = psnr.psnr_y();
    result->check(out.frames == expected,
                  label + ": decoded " + std::to_string(out.frames) +
                      " pictures, " + std::to_string(expected) +
                      " were encoded");
    return out;
}

double
window_kbps(const std::vector<Packet> &packets, s64 frames)
{
    u64 bits = 0;
    for (const Packet &p : packets)
        if (p.poc < frames)
            bits += p.data.size() * 8;
    return static_cast<double>(bits) / static_cast<double>(frames) * 25.0 /
           1000.0;
}

Frame
bordered_copy(const Frame &src)
{
    Frame out(src.width(), src.height(), kRefBorder);
    out.copy_from(src);
    out.extend_borders();
    out.set_poc(src.poc());
    return out;
}

}  // namespace hdvbench
