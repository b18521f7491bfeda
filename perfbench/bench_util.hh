/**
 * @file
 * Helpers of the perfbench benchmark that do not depend on a running
 * workload: percentiles, failure accounting, spans with self time and
 * Chrome trace export, and the seeded inputs (sweep request sets and the
 * daemon request stream). perfbench_selftest checks each of them.
 */

#ifndef NBL_PERFBENCH_BENCH_UTIL_HH
#define NBL_PERFBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/stats_export.hh"
#include "model_points.hh"
#include "stats/json.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- stats

/** Median (mean of the middle two for an even count); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Nearest-rank p-quantile of `samples`, or nullopt when fewer than
 * `minBeyond` samples are strictly greater than it: a tail percentile
 * resting on a handful of samples is noise, not a measurement.
 */
inline std::optional<double>
percentile(std::vector<double> samples, double p, size_t minBeyond = 10)
{
    if (samples.empty() || p <= 0.0 || p > 1.0)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    size_t rank = size_t(std::ceil(p * double(n)));
    size_t idx = std::min(n, std::max<size_t>(rank, 1)) - 1;
    double value = samples[idx];
    size_t beyond = size_t(samples.end() - std::upper_bound(samples.begin(),
                                                            samples.end(),
                                                            value));
    if (beyond < minBeyond)
        return std::nullopt;
    return value;
}

/** Attempted and failed operations; every check feeds one of these. */
struct FailureLedger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** `n` operations of which `bad` failed. */
    void
    recordMany(uint64_t n, uint64_t bad)
    {
        attempted += n;
        failed += bad;
    }

    double
    frac() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }
};

// ------------------------------------------------------- host speed

/** Fisher-Yates shuffle driven by the repository's deterministic RNG. */
template <class T>
void
seededShuffle(std::vector<T> &v, nbl::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng.below(i))]);
}

/**
 * Measures how fast the host runs right now, so timings taken on a
 * shared machine can be scaled to a reference speed. On the 4-thread
 * host this benchmark was built on, whole runs moved by 60% between
 * minute-long fast and slow phases.
 *
 * A burst runs a fixed kernel on `threads` threads at once and records
 * its wall time. The kernel is a small cache simulation written here,
 * code the simulator does not share: ten direct-mapped tag arrays, of
 * two line sizes and two set counts, look up a seeded 4 MiB address
 * stream. Over 20-second windows of a 7-minute record its time tracked
 * the sweeps' pass times (correlation 0.65-0.72); a pointer chase over
 * a 1 MiB cycle tracked them at only 0.19-0.40.
 * speed() is the reference burst time over the median burst: 1 at
 * reference speed, below 1 on a slower host.
 */
class HostSpeed
{
  public:
    /** Median burst time, in seconds, of the reference host. */
    static constexpr double kReferenceBurstSeconds = 0.020;

    explicit HostSpeed(unsigned threads) : threads_(threads), addrs_(kStream)
    {
        // Mostly sequential words, with a jump one time in four.
        nbl::Rng rng(0x243f6a8885a308d3ULL);
        uint32_t a = 0;
        for (uint32_t &x : addrs_) {
            a = rng.below(4) == 0 ? uint32_t(rng.below(1u << 22)) : a + 4;
            x = a;
        }
    }

    /** Run one burst and record its wall time. */
    void
    burst()
    {
        std::vector<std::thread> threads;
        std::atomic<uint64_t> sink{0};
        Clock::time_point t = Clock::now();
        for (unsigned k = 0; k < threads_; ++k)
            threads.emplace_back([&] { sink += kernel(); });
        for (std::thread &th : threads)
            th.join();
        bursts_.push_back(secondsSince(t));
    }

    double
    speed() const
    {
        double m = median(bursts_);
        return m > 0.0 ? kReferenceBurstSeconds / m : 1.0;
    }

    size_t bursts() const { return bursts_.size(); }

  private:
    static constexpr uint32_t kStream = 1u << 20;
    static constexpr uint64_t kSteps = 600'000;
    static constexpr unsigned kLanes = 10;
    static constexpr uint32_t kSets = 512;

    uint64_t
    kernel() const
    {
        std::vector<uint32_t> tags(kLanes * kSets, 0);
        uint64_t misses = 0, stall = 0;
        for (uint64_t k = 0; k < kSteps; ++k) {
            uint32_t a = addrs_[k & (kStream - 1)];
            for (unsigned l = 0; l < kLanes; ++l) {
                uint32_t line = a >> (5 + (l & 1));
                uint32_t set = line & (l < 8 ? 255u : 511u);
                uint32_t &tag = tags[l * kSets + set];
                if (tag != line) {
                    tag = line;
                    ++misses;
                    stall += (l * 3 + (line & 7)) % 5;
                }
            }
        }
        return misses + stall;
    }

    unsigned threads_;
    std::vector<uint32_t> addrs_;
    std::vector<double> bursts_;
};

// ---------------------------------------------------------------- spans

/** One timed call into a layer. Times are seconds since the tracer's
 *  epoch; parent is an index into the same span list or -1. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
    uint32_t thread = 0;
    /** Work done by the call (lanes, instructions, bytes, ...). */
    std::vector<std::pair<std::string, double>> args;

    double
    argOr(const std::string &key, double fallback) const
    {
        for (const auto &[k, v] : args)
            if (k == key)
                return v;
        return fallback;
    }
};

/** The layer a span belongs to: its name up to the first '.'. */
inline std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by its children (overlapping children are counted once).
 */
inline std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            kids[size_t(s.parent)].push_back({s.start, s.end});
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        double lo = spans[i].start, hi = spans[i].end;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, curLo = 0.0, curHi = 0.0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= curHi) {
                curHi = std::max(curHi, b);
            } else {
                if (open)
                    covered += curHi - curLo;
                curLo = a;
                curHi = b;
                open = true;
            }
        }
        if (open)
            covered += curHi - curLo;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

/**
 * Collects spans in memory. Each thread keeps its own stack of open
 * spans, so a span opened inside another on the same thread becomes its
 * child; a request id set on the thread tags every span it opens.
 */
class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span; returns its index for end(). */
    size_t
    begin(const std::string &name)
    {
        ThreadState &ts = threadState();
        Span s;
        s.name = name;
        s.start = now();
        s.parent = ts.stack.empty() ? -1 : int64_t(ts.stack.back());
        s.request = ts.request;
        s.thread = ts.id;
        size_t idx;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            idx = spans_.size();
            spans_.push_back(std::move(s));
        }
        ts.stack.push_back(idx);
        return idx;
    }

    void
    end(size_t idx)
    {
        double t = now();
        ThreadState &ts = threadState();
        if (!ts.stack.empty() && ts.stack.back() == idx)
            ts.stack.pop_back();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[idx].end = t;
    }

    /** Attach a named quantity to an open or closed span. */
    void
    arg(size_t idx, const std::string &key, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[idx].args.push_back({key, value});
    }

    /** Tag the spans this thread opens from now on. */
    static void setRequest(uint64_t id) { threadState().request = id; }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    struct ThreadState
    {
        std::vector<size_t> stack;
        uint64_t request = 0;
        uint32_t id = 0;
    };

    static ThreadState &
    threadState()
    {
        static std::atomic<uint32_t> nextId{1};
        thread_local ThreadState ts{{}, 0, nextId.fetch_add(1)};
        return ts;
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_;
    mutable std::mutex mutex_; ///< Guards spans_.
    std::vector<Span> spans_;
};

/** Times one call when a tracer is given; does nothing otherwise. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name) : t_(t)
    {
        if (t_)
            idx_ = t_->begin(name);
    }
    ~ScopedSpan()
    {
        if (t_)
            t_->end(idx_);
    }
    void
    arg(const std::string &key, double value)
    {
        if (t_)
            t_->arg(idx_, key, value);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
    size_t idx_ = 0;
};

/** Spans as Chrome trace-event JSON (opens in Perfetto). */
inline std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += nbl::strfmt(
            "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
            "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
            "{\"span\": %zu, \"parent\": %lld, \"request\": %llu",
            i ? ",\n" : "", nbl::stats::jsonQuote(s.name).c_str(),
            nbl::stats::jsonQuote(layerOf(s.name)).c_str(), s.thread,
            s.start * 1e6, (s.end - s.start) * 1e6, i,
            (long long)s.parent, (unsigned long long)s.request);
        for (const auto &[k, v] : s.args)
            out += nbl::strfmt(", %s: %.17g", nbl::stats::jsonQuote(k).c_str(),
                               v);
        out += "}}";
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

// --------------------------------------------------------- seeded inputs

/** Workloads with floating-point kernels (the first 14 of Figure 13). */
inline bool
isFpWorkload(const std::string &name)
{
    const auto &names = nbl::workloads::workloadNames();
    auto it = std::find(names.begin(), names.end(), name);
    return it != names.end() && it - names.begin() < 14;
}

using Request = std::vector<nbl::harness::SweepPoint>;

/**
 * sweep_dense: all 18 workloads x 10 named organizations x 6 latencies
 * at the baseline geometry, one request per (workload, latency) -- the
 * 10-lane batch the sweep engine hands to Lab::runLanes. 108 requests,
 * in seeded order.
 */
inline std::vector<Request>
denseRequests(uint64_t seed)
{
    std::vector<Request> reqs;
    for (const std::string &w : nbl::workloads::workloadNames()) {
        for (int lat : nbl::harness::paperLatencies) {
            Request r;
            for (nbl::core::ConfigName cn : nbl::core::allConfigNames) {
                nbl::harness::ExperimentConfig cfg;
                cfg.config = cn;
                cfg.loadLatency = lat;
                r.push_back({w, cfg});
            }
            reqs.push_back(std::move(r));
        }
    }
    nbl::Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
    seededShuffle(reqs, rng);
    return reqs;
}

/**
 * sweep_pruned: the fig21 grid (18 organizations x 12 geometries x 6
 * latencies) on doduc and on xlisp, one request per (latency, geometry)
 * slice: the 18 organizations the planner compares for a crossover, on
 * doduc and then on xlisp. Every request mixes the memory-heavy and the
 * memory-light trace, so a host phase that slows one kind of work more
 * moves every request alike. 72 requests, in seeded order.
 */
inline std::vector<Request>
prunedRequests(uint64_t seed)
{
    std::map<std::string, Request> slices;
    for (const char *w : {"doduc", "xlisp"}) {
        for (nbl::harness::SweepPoint p : nbl_bench::modelSweepPoints()) {
            p.workload = w;
            std::string key = nbl::strfmt(
                "%d|%llu|%u", p.cfg.loadLatency,
                (unsigned long long)p.cfg.cacheBytes, p.cfg.ways);
            slices[key].push_back(p);
        }
    }
    std::vector<Request> reqs;
    for (auto &kv : slices)
        reqs.push_back(std::move(kv.second));
    nbl::Rng rng(seed ^ 0x8bb84b93962eacc9ULL);
    seededShuffle(reqs, rng);
    return reqs;
}

/** A request's points split into runs of one workload, in order. */
inline std::vector<Request>
splitByWorkload(const Request &pts)
{
    std::vector<Request> runs;
    for (const nbl::harness::SweepPoint &p : pts) {
        if (runs.empty() || runs.back()[0].workload != p.workload)
            runs.emplace_back();
        runs.back().push_back(p);
    }
    return runs;
}

/** The daemon's hot set: doduc, tomcatv and xlisp x 10 organizations x
 *  6 latencies at the baseline geometry (180 points). */
inline std::vector<nbl::harness::SweepPoint>
daemonHotSet()
{
    std::vector<nbl::harness::SweepPoint> pts;
    for (const char *w : {"doduc", "tomcatv", "xlisp"}) {
        for (nbl::core::ConfigName cn : nbl::core::allConfigNames) {
            for (int lat : nbl::harness::paperLatencies) {
                nbl::harness::ExperimentConfig cfg;
                cfg.config = cn;
                cfg.loadLatency = lat;
                pts.push_back({w, cfg});
            }
        }
    }
    return pts;
}

/** One cold slot: a (workload, latency, geometry) the daemon computes
 *  as a 10-organization batch. */
struct ColdSlot
{
    std::string workload;
    int latency = 0;
    uint64_t cacheBytes = 0;
    unsigned ways = 0;
    uint64_t lineBytes = 0;
};

/**
 * Every cold slot: 18 workloads x 6 latencies x 35 geometries (the
 * baseline geometry is excluded, set-up computes it). Seeded order,
 * stratified by workload: slots are dealt in rounds of one slot per
 * workload, so every prefix holds each workload's share give or take
 * one. Cold batches differ several-fold in cost by workload, and an
 * unbalanced draw would move p99 and peak RSS from seed to seed.
 */
inline std::vector<ColdSlot>
coldSlots(uint64_t seed)
{
    nbl::Rng rng(seed ^ 0x4cf5ad432745937fULL);
    std::vector<std::vector<ColdSlot>> byWorkload;
    for (const std::string &w : nbl::workloads::workloadNames()) {
        std::vector<ColdSlot> slots;
        for (int lat : nbl::harness::paperLatencies) {
            for (uint64_t kb : {4u, 8u, 16u, 32u}) {
                for (unsigned ways : {1u, 2u, 4u}) {
                    for (uint64_t line : {16u, 32u, 64u}) {
                        if (kb == 8 && ways == 1 && line == 32)
                            continue;
                        slots.push_back({w, lat, kb * 1024, ways, line});
                    }
                }
            }
        }
        seededShuffle(slots, rng);
        byWorkload.push_back(std::move(slots));
    }
    std::vector<ColdSlot> out;
    std::vector<size_t> order(byWorkload.size());
    for (size_t round = 0; round < byWorkload[0].size(); ++round) {
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        seededShuffle(order, rng);
        for (size_t w : order)
            out.push_back(byWorkload[w][round]);
    }
    return out;
}

/** The 10-organization batch a cold slot stands for. */
inline Request
coldPoints(const ColdSlot &s)
{
    Request r;
    for (nbl::core::ConfigName cn : nbl::core::allConfigNames) {
        nbl::harness::ExperimentConfig cfg;
        cfg.config = cn;
        cfg.loadLatency = s.latency;
        cfg.cacheBytes = s.cacheBytes;
        cfg.ways = s.ways;
        cfg.lineBytes = s.lineBytes;
        r.push_back({s.workload, cfg});
    }
    return r;
}

/** Shape of one daemon request before its points are chosen. */
struct DaemonDraw
{
    bool cold = false;
    bool freshConnection = false;
    std::vector<uint32_t> hot; ///< Hot-set indices (warm requests).
};

/** Request mix of daemon_mix (per mille of requests). */
inline constexpr unsigned kColdPerMille = 30;
inline constexpr unsigned kFreshPerMille = 100;
inline constexpr unsigned kWarmPoints = 16;

/**
 * One client's seeded request stream: mostly warm requests of
 * kWarmPoints distinct hot-set points, kColdPerMille cold batches, and
 * kFreshPerMille of requests sent on a fresh connection.
 */
class DaemonStream
{
  public:
    DaemonStream(uint64_t seed, unsigned client, size_t hotSize)
        : rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1),
          hotSize_(hotSize)
    {}

    DaemonDraw
    next()
    {
        DaemonDraw d;
        d.cold = rng_.below(1000) < kColdPerMille;
        d.freshConnection = rng_.below(1000) < kFreshPerMille;
        if (!d.cold) {
            std::vector<uint32_t> idx(hotSize_);
            for (size_t i = 0; i < idx.size(); ++i)
                idx[i] = uint32_t(i);
            for (unsigned k = 0; k < kWarmPoints && k < idx.size(); ++k)
                std::swap(idx[k], idx[k + rng_.below(idx.size() - k)]);
            d.hot.assign(idx.begin(),
                         idx.begin() +
                             std::min<size_t>(kWarmPoints, idx.size()));
        }
        return d;
    }

  private:
    nbl::Rng rng_;
    size_t hotSize_;
};

/** A run request payload in the daemon's protocol. */
inline std::string
runPayload(const Request &pts, uint64_t id)
{
    std::string out = nbl::strfmt(
        "{\"v\": 1, \"id\": %llu, \"kind\": \"run\", \"points\": [",
        (unsigned long long)id);
    for (size_t i = 0; i < pts.size(); ++i) {
        out += i ? ", {\"workload\": " : "{\"workload\": ";
        out += nbl::stats::jsonQuote(pts[i].workload);
        out += ", \"config\": ";
        out += nbl::harness::configJson(pts[i].cfg);
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace perfbench

#endif // NBL_PERFBENCH_BENCH_UTIL_HH
