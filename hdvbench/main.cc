/**
 * @file
 * Benchmark driver entry point:
 *
 *   hdvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload and prints, as its last stdout line, one JSON object
 * with the measured metrics, the correctness-check tally and the run's
 * provenance. hdvbench/run.py builds this program and turns that record
 * into the benchmark's result line.
 */
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

#ifndef HDVB_BUILD_TYPE
#define HDVB_BUILD_TYPE "unknown"
#endif

using namespace hdvbench;

namespace {

struct Workload {
    const char *name;
    void (*run)(const RunContext &, Result *);
    /** Threads the timed region keeps busy (for the core-count
     * warning). */
    int threads;
};

const Workload kWorkloads[] = {
    {"encode_hd", run_encode_hd, 1},
    {"decode_hd", run_decode_hd, 1},
    {"serve_mix", run_serve_mix, 4},
    {"transcode_reuse", run_transcode_reuse, 4},
};

int
granted_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

std::string
read_first_line(const char *path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

bool
parse_number(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "hdvbench: %s\nusage: hdvbench --workload "
                 "<encode_hd|decode_hd|serve_mix|transcode_reuse> --seed "
                 "<n> --seconds <s> --trace <0|1>\n",
                 why);
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    double seed = -1, seconds = -1, trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload")
            workload_name = value;
        else if (flag == "--seed")
            ok = parse_number(value, &seed) && seed >= 0;
        else if (flag == "--seconds")
            ok = parse_number(value, &seconds) && seconds > 0 &&
                 seconds <= 600;
        else if (flag == "--trace")
            ok = parse_number(value, &trace) && (trace == 0 || trace == 1);
        else
            return usage(("unknown flag " + flag).c_str());
        if (!ok)
            return usage(("bad value for " + flag).c_str());
    }
    if (argc % 2 == 0 || seed < 0 || seconds < 0 || trace < 0)
        return usage("missing arguments");
    const Workload *workload = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload_name == w.name)
            workload = &w;
    if (!workload)
        return usage(("unknown workload '" + workload_name + "'").c_str());

    Tracer tracer(trace == 1);
    RunContext ctx;
    ctx.seed = static_cast<u64>(seed);
    ctx.seconds = seconds;
    ctx.trace = trace == 1;
    ctx.nproc = granted_cpus();
    ctx.simd = detected_simd_level();
    ctx.tracer = &tracer;

    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (ctx.nproc < workload->threads) {
        std::fprintf(stderr,
                     "\n*** WARNING: %d CPU(s) granted but %s keeps %d "
                     "threads busy; its figures are not comparable with "
                     "runs on %d or more CPUs ***\n\n",
                     ctx.nproc, workload->name, workload->threads,
                     workload->threads);
    }

    Result result;
    workload->run(ctx, &result);

    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    result.set("peak_rss_mb", static_cast<double>(usage_self.ru_maxrss) /
                                  1024.0, "MiB");
    if (ctx.trace)
        result.set("trace.spans", static_cast<double>(tracer.count()),
                   "count");

    std::string governor = read_first_line(
        "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    if (governor.empty())
        governor = "unreadable";
    std::string out = "{\"workload\":" + json_string(workload->name);
    out += ",\"correct\":";
    out += result.failed == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(result.attempted);
    out += ",\"failed\":" + std::to_string(result.failed);
    out += ",\"failures\":[";
    for (size_t i = 0; i < result.failures.size(); ++i)
        out += (i ? "," : "") + json_string(result.failures[i]);
    out += "],\"metrics\":{";
    bool first = true;
    for (const auto &[name, vu] : result.metrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", vu.first);
        out += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
               num + ",\"unit\":" + json_string(vu.second) + "}";
        first = false;
    }
    out += "},\"provenance\":{";
    out += "\"nproc\":" + std::to_string(hw);
    out += ",\"cpus_granted\":" + std::to_string(ctx.nproc);
    out += ",\"workload_threads\":" + std::to_string(workload->threads);
    out += ",\"cpu_model\":" + json_string(cpu_model());
    out += ",\"simd\":" + json_string(simd_level_name(ctx.simd));
    out += ",\"governor\":" + json_string(governor);
    out += ",\"build_type\":" + json_string(HDVB_BUILD_TYPE);
    out += ",\"seed\":" + std::to_string(ctx.seed);
    out += ",\"seconds\":" + std::to_string(ctx.seconds);
    for (const auto &[k, v] : result.info)
        out += "," + json_string(k) + ":" + json_string(v);
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
