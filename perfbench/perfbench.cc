/**
 * @file
 * perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   perfbench --workload sweep_dense|sweep_pruned|daemon_mix --seed N
 *             --seconds S --trace 0|1 [--out-dir DIR]
 *             [--spec BENCHMARK.json]
 *
 * Every workload is a closed loop of clients sending requests (see
 * README.md for why each workload exists and which layer metric should
 * move which end-to-end metric):
 *
 *   sweep_dense   nproc-1 clients, each request one (workload, latency)
 *                 10-organization batch through runPointsParallel;
 *   sweep_pruned  nproc-1 clients, each request one (latency, geometry)
 *                 slice of the fig21 grid, 18 organizations on each of
 *                 doduc and xlisp, through planAndRun with pruning on,
 *                 fresh Lab per pass;
 *   daemon_mix    2 clients against the in-process daemon stack over a
 *                 unix socket: warm hot-set requests, cold batches that
 *                 compute and hit the store, some fresh connections.
 *
 * --trace 0 times the workload and prints the end-to-end metrics, with
 * the timings scaled to a reference host speed (HostSpeed in
 * bench_util.hh); --trace 1 times it untraced for half the run, then
 * drives the same requests through the layers' public functions with a
 * span around each call and prints the per-layer metrics. Both check
 * every answer outside the clock. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
 * any check failed.
 */

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_util.hh"
#include "exec/lane_replay.hh"
#include "harness/experiment.hh"
#include "harness/parallel.hh"
#include "harness/sweep_planner.hh"
#include "model/predict.hh"
#include "service/cache_store.hh"
#include "service/framing.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "stats/json.hh"
#include "stats/registry.hh"
#include "stats/run_stats.hh"
#include "util/parse.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace nbl;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** Set-ups per sweep_dense run (about 0.1 s each) and per daemon_mix
 *  run (about 1 s each); setup_s is their median. */
constexpr int kDenseSetups = 11;
constexpr int kDaemonSetups = 5;
/** Client threads of daemon_mix; with the daemon's two connection
 *  threads, four threads are busy. */
constexpr unsigned kDaemonClients = 2;
/** Requests of the traced daemon phase (fixed, so counts repeat). */
constexpr size_t kTracedDaemonRequests = 600;
/** daemon_mix reads peak RSS once this many requests are answered:
 *  the memos grow with every cold request, so RSS at the end of a timed
 *  phase would track how fast the host ran, not memory per request. */
constexpr uint64_t kRssRequests = 6000;
/** Warm and cold responses each daemon client keeps for checking. */
constexpr size_t kKeptPerKind = 3;
/** Cold slots kept back for the traced daemon phase (it runs twice,
 *  with spans and without, each taking its own slots). */
constexpr size_t kTracedColdReserve = 80;
/** Requests a sweep run times at least, so its p99 has ten samples
 *  beyond it even on a host slower than --seconds allows for. */
constexpr size_t kMinSweepRequests = 1100;
/** Points checked against the exec-driven engine per sweep run. */
constexpr size_t kExecSamples = 8;
/** Pruned points simulated to check their model bounds per run. */
constexpr size_t kBoundSamples = 16;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build";
    /** The benchmark spec whose metric lists name what a run reports. */
    std::string spec = "BENCHMARK.json";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct Outcome
{
    FailureLedger ledger;
    std::vector<Metric> metrics;
    std::vector<Span> spans;
    /** HostSpeed::speed() over the run's bursts (1 = reference host). */
    double hostSpeed = 1.0;
    size_t hostBursts = 0;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

unsigned
hostThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/**
 * Sweep clients and host-speed burst threads: one hardware thread is
 * left to the OS and the driving script. On a shared host, a sweep with
 * every thread busy measured both slower per request and noisier.
 */
unsigned
workerThreads()
{
    return std::max(1u, hostThreads() - 1);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * Hand memory freed by a torn-down Lab or daemon back to the OS before
 * the next set-up. Without this, how much of it stays resident depends
 * on which threads freed it, and peak RSS moved by 20% between runs of
 * the same workload.
 */
void
releaseFreedMemory()
{
    ::malloc_trim(0);
}

/** A numeric field of /proc/self/status (kB fields come back in kB). */
double
procStatus(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::atof(line.c_str() + n + 1);
    }
    return 0.0;
}

/** Hash of every counter of a run (its compact stats snapshot). */
uint64_t
digestOf(const exec::RunOutput &run)
{
    return service::fnv1a64(stats::snapshotOfRun(run).toJson(0));
}

/**
 * Serve requests [0, n) with `clients` closed-loop threads (the caller
 * is one of them); fn(i) serves request i. Returns each request's
 * latency in seconds, index-aligned.
 */
std::vector<double>
drain(size_t n, unsigned clients, const std::function<void(size_t)> &fn)
{
    std::vector<double> lat(n, 0.0);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            Clock::time_point t = Clock::now();
            fn(i);
            lat[i] = secondsSince(t);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 1; c < clients; ++c)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();
    return lat;
}

/** Record p50/p99 of request latencies (seconds) as end-to-end
 *  metrics; a p99 without ten samples beyond it is a failure. */
void
addLatencies(Outcome &out, const std::vector<double> &lat)
{
    std::vector<double> ms(lat.size());
    for (size_t i = 0; i < lat.size(); ++i)
        ms[i] = lat[i] * 1e3;
    std::optional<double> p50 = percentile(ms, 0.50);
    std::optional<double> p99 = percentile(ms, 0.99);
    std::printf("  requests timed: %zu (p99 needs >= 10 beyond it: %s)\n",
                ms.size(), p99 ? "ok" : "REFUSED");
    out.ledger.record(p50.has_value() && p99.has_value());
    out.add("req_p50_ms", p50.value_or(0.0), "ms");
    out.add("req_p99_ms", p99.value_or(0.0), "ms");
}

void
printPassRates(const std::vector<double> &pps)
{
    std::printf("  points/s per pass:");
    for (double v : pps)
        std::printf(" %.0f", v);
    std::printf("\n");
}

/** Simulated counters summed over a set of points. */
struct SimCounts
{
    uint64_t instructions = 0, loads = 0, fetches = 0, structStalls = 0;

    void
    add(const exec::RunOutput &r)
    {
        instructions += r.cpu.instructions;
        loads += r.cache.loads;
        fetches += r.cache.fetches;
        structStalls += r.cpu.structStallCycles;
    }
};

/** Compile and record every (workload, latency) pair with a span
 *  around each call (serially, so a recording shows as one span). A
 *  null tracer runs the same calls without spans. */
void
tracedPrewarm(harness::Lab &lab,
              const std::vector<std::pair<std::string, int>> &pairs,
              Tracer *tr)
{
    for (const auto &[w, lat] : pairs) {
        {
            ScopedSpan s(tr, "compiler.compile");
            lab.program(w, lat);
        }
        size_t before = lab.recordedTraces();
        ScopedSpan s(tr, "exec.record");
        std::shared_ptr<const exec::EventTrace> t = lab.eventTrace(w, lat);
        if (lab.recordedTraces() != before) {
            s.arg("instructions", double(t->instructions));
            s.arg("bytes", double(t->bytes()));
        }
    }
}

void
prewarm(harness::Lab &lab,
        const std::vector<std::pair<std::string, int>> &pairs,
        unsigned jobs)
{
    harness::parallelFor(
        pairs.size(),
        [&](size_t i) { lab.prewarmTrace(pairs[i].first, pairs[i].second); },
        jobs);
}

std::vector<std::pair<std::string, int>>
pairsOf(const std::vector<Request> &reqs)
{
    std::vector<std::pair<std::string, int>> pairs;
    for (const Request &r : reqs)
        for (const harness::SweepPoint &p : r)
            pairs.push_back({p.workload, p.cfg.loadLatency});
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
}

/**
 * Replay one request's points through exec::replayLanes directly, with
 * a span around the replay; returns the lane outputs.
 */
std::vector<exec::RunOutput>
tracedReplay(harness::Lab &lab, const Request &pts, Tracer *tr)
{
    if (pts.empty())
        return {};
    const std::string &w = pts[0].workload;
    int lat = pts[0].cfg.loadLatency;
    const isa::Program &prog = lab.program(w, lat);
    std::shared_ptr<const exec::EventTrace> trace = lab.eventTrace(w, lat);
    std::vector<exec::MachineConfig> mcs;
    for (const harness::SweepPoint &p : pts)
        mcs.push_back(harness::makeMachineConfig(p.cfg));
    ScopedSpan s(tr, "exec.replay");
    std::vector<exec::RunOutput> outs =
        exec::replayLanes(prog, *trace, mcs);
    uint64_t instr = 0;
    for (const exec::RunOutput &o : outs)
        instr += o.cpu.instructions;
    s.arg("lanes", double(pts.size()));
    s.arg("instr_lanes", double(instr));
    s.arg("fp", isFpWorkload(w) ? 1.0 : 0.0);
    return outs;
}

void
tracedKeys(const Request &pts, Tracer *tr)
{
    ScopedSpan s(tr, "harness.key");
    size_t bytes = 0;
    for (const harness::SweepPoint &p : pts)
        bytes += harness::experimentKey(p.workload, p.cfg).size();
    s.arg("points", double(pts.size()));
    s.arg("key_bytes", double(bytes));
}

/** Sum of span durations (s) and of one arg over spans named `name`. */
struct SpanSum
{
    double seconds = 0.0;
    double arg = 0.0;
    size_t count = 0;
};

SpanSum
sumSpans(const std::vector<Span> &spans, const std::string &name,
         const std::string &arg = "",
         const std::function<bool(const Span &)> &keep = nullptr)
{
    SpanSum s;
    for (const Span &sp : spans) {
        if (sp.name != name || (keep && !keep(sp)))
            continue;
        s.seconds += sp.end - sp.start;
        s.arg += sp.argOr(arg, 0.0);
        ++s.count;
    }
    return s;
}

std::vector<double>
spanDurations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> d;
    for (const Span &sp : spans)
        if (sp.name == name)
            d.push_back(sp.end - sp.start);
    return d;
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/**
 * The per-layer metrics every workload reports (zero where the workload
 * leaves a layer idle). Set-up figures are per traced set-up, time
 * figures per traced pass; counts come from `counts`, measured over one
 * pass (sweeps) or the fixed traced request set (daemon).
 */
void
addLayerMetrics(Outcome &out, const std::vector<Span> &spans,
                double tracedSetups, double tracedPasses,
                const SimCounts &counts)
{
    double setups = std::max(tracedSetups, 1.0);
    SpanSum compile = sumSpans(spans, "compiler.compile");
    SpanSum record = sumSpans(spans, "exec.record", "instructions");
    SpanSum traceBytes = sumSpans(spans, "exec.record", "bytes");
    out.add("compiler.compile_ms", compile.seconds * 1e3 / setups, "ms");
    out.add("exec.record_ms", record.seconds * 1e3 / setups, "ms");
    out.add("exec.record_ns_per_instr",
            ratio(record.seconds * 1e9, record.arg), "ns");
    out.add("exec.trace_mb", traceBytes.arg / (1024.0 * 1024.0) / setups,
            "MB");

    auto isFp = [](const Span &s) { return s.argOr("fp", 0.0) != 0.0; };
    auto isInt = [](const Span &s) { return s.argOr("fp", 0.0) == 0.0; };
    SpanSum lanes = sumSpans(spans, "exec.replay", "instr_lanes");
    SpanSum lanesFp = sumSpans(spans, "exec.replay", "instr_lanes", isFp);
    SpanSum lanesInt = sumSpans(spans, "exec.replay", "instr_lanes", isInt);
    SpanSum laneCount = sumSpans(spans, "exec.replay", "lanes");
    double passes = std::max(tracedPasses, 1.0);
    out.add("exec.lane_busy_s", lanes.seconds / passes, "s");
    out.add("exec.lane_ns_per_instr_lane",
            ratio(lanes.seconds * 1e9, lanes.arg), "ns");
    out.add("exec.lane_ns_per_instr_lane.fp",
            ratio(lanesFp.seconds * 1e9, lanesFp.arg), "ns");
    out.add("exec.lane_ns_per_instr_lane.int",
            ratio(lanesInt.seconds * 1e9, lanesInt.arg), "ns");
    out.add("exec.batches", double(laneCount.count) / passes, "count");
    out.add("exec.lanes_per_batch",
            ratio(laneCount.arg, double(laneCount.count)), "count");

    out.add("cpu.instructions", double(counts.instructions), "count");
    out.add("core.cache_loads", double(counts.loads), "count");
    out.add("core.cache_fetches", double(counts.fetches), "count");
    out.add("core.struct_stall_cycles", double(counts.structStalls),
            "count");

    SpanSum keys = sumSpans(spans, "harness.key", "points");
    out.add("harness.key_us_per_point", ratio(keys.seconds * 1e6, keys.arg),
            "us");

    SpanSum characterize = sumSpans(spans, "model.characterize");
    SpanSum predict = sumSpans(spans, "model.predict", "points");
    out.add("model.characterize_ms", characterize.seconds * 1e3 / passes,
            "ms");
    out.add("model.predict_us_per_point",
            ratio(predict.seconds * 1e6, predict.arg), "us");

    SpanSum snap = sumSpans(spans, "stats.snapshot", "bytes");
    out.add("stats.snapshot_json_us",
            ratio(snap.seconds * 1e6, double(snap.count)), "us");
    out.add("stats.snapshot_kb", ratio(snap.arg / 1024.0, double(snap.count)),
            "KB");
}

/** Per-layer self time, printed as a table. */
void
printSelfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::pair<size_t, std::pair<double, double>>>
        byLayer;
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &e = byLayer[layerOf(spans[i].name)];
        ++e.first;
        e.second.first += spans[i].end - spans[i].start;
        e.second.second += self[i];
    }
    std::printf("  layer self time (%zu spans):\n", spans.size());
    std::printf("    %-10s %8s %12s %12s\n", "layer", "spans", "total_ms",
                "self_ms");
    for (const auto &[layer, e] : byLayer)
        std::printf("    %-10s %8zu %12.3f %12.3f\n", layer.c_str(),
                    e.first, e.second.first * 1e3, e.second.second * 1e3);
}

/**
 * The cost of the spans: the traced path's rate with spans minus the
 * same path's rate with a null tracer (same calls, no spans).
 */
void
addTraceOverhead(Outcome &out, double traced, double nospan)
{
    out.add("trace.points_per_s", traced, "points/s");
    out.add("trace.nospan_points_per_s", nospan, "points/s");
    out.add("trace.overhead_points_per_s", traced - nospan, "points/s");
}

/** What a sweep run measured, for reportSweep(). */
struct SweepStats
{
    std::vector<double> setups, pps, lat;
    /** Rates of the traced path's passes with spans and without. */
    std::vector<double> tracedPps, nospanPps;
    double peakRss = 0.0;
    /** Lab cache counters before and after the first untraced pass. */
    harness::Lab::CacheCounters hits0{}, hits1{};
    /** Simulated counters of the first pass. */
    SimCounts counts;
    size_t points = 0; ///< Points per pass.
};

/** The end-to-end (untraced) or per-layer (traced) metrics of a sweep. */
void
reportSweep(Outcome &out, const Options &o, Tracer &tr,
            const SweepStats &st, unsigned clients, double tracedSetups,
            double simulatedFrac)
{
    if (!o.trace) {
        out.add("setup_s", median(st.setups), "s");
        out.add("points_per_s", median(st.pps), "points/s");
        addLatencies(out, st.lat);
        out.add("peak_rss_mb", st.peakRss, "MB");
        return;
    }
    out.spans = tr.spans();
    addLayerMetrics(out, out.spans, tracedSetups,
                    double(st.tracedPps.size()), st.counts);
    SpanSum busy = sumSpans(out.spans, "harness.request");
    double tracedWall = 0.0;
    for (double v : st.tracedPps)
        tracedWall += double(st.points) / v;
    out.add("harness.pool_busy_frac",
            ratio(busy.seconds, double(clients) * tracedWall), "ratio");
    out.add("harness.lab_result_hits",
            double(st.hits1.resultHits - st.hits0.resultHits), "count");
    out.add("harness.lab_trace_hits",
            double(st.hits1.traceHits - st.hits0.traceHits), "count");
    out.add("harness.plan_simulated_frac", simulatedFrac, "ratio");
    addTraceOverhead(out, median(st.tracedPps), median(st.nospanPps));
}

// ----------------------------------------------------------- sweep_dense

Outcome
runSweepDense(const Options &o, unsigned clients)
{
    Outcome out;
    Tracer tr;
    SweepStats st;
    std::vector<Request> reqs = denseRequests(o.seed);
    auto pairs = pairsOf(reqs);
    st.points = reqs.size() * reqs[0].size();

    HostSpeed host(clients);
    std::unique_ptr<harness::Lab> lab;
    for (int k = 0; k < (o.trace ? 1 : kDenseSetups); ++k) {
        lab.reset();
        releaseFreedMemory();
        host.burst();
        Clock::time_point t = Clock::now();
        lab = std::make_unique<harness::Lab>(1.0);
        if (o.trace)
            tracedPrewarm(*lab, pairs, &tr);
        else
            prewarm(*lab, pairs, clients);
        st.setups.push_back(secondsSince(t));
    }

    // Timed passes. Reference results and digests come from pass 0.
    std::vector<std::vector<harness::ExperimentResult>> ref;
    std::vector<std::vector<uint64_t>> refDigest(reqs.size());
    double untracedSeconds = o.trace ? o.seconds / 2 : o.seconds;
    Clock::time_point t0 = Clock::now();
    for (size_t pass = 0; pass == 0 || secondsSince(t0) < untracedSeconds ||
                          st.lat.size() < kMinSweepRequests;
         ++pass) {
        host.burst();
        lab->clearResultCache();
        std::vector<std::vector<harness::ExperimentResult>> res(reqs.size());
        if (pass == 0)
            st.hits0 = lab->cacheCounters();
        Clock::time_point tp = Clock::now();
        std::vector<double> l = drain(reqs.size(), clients, [&](size_t i) {
            res[i] = harness::runPointsParallel(*lab, reqs[i], 1);
        });
        st.pps.push_back(double(st.points) / secondsSince(tp));
        st.lat.insert(st.lat.end(), l.begin(), l.end());
        if (pass == 0)
            st.hits1 = lab->cacheCounters();
        uint64_t bad = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            for (size_t k = 0; k < res[i].size(); ++k) {
                uint64_t d = digestOf(res[i][k].run);
                if (pass == 0) {
                    refDigest[i].push_back(d);
                    st.counts.add(res[i][k].run);
                } else if (d != refDigest[i][k]) {
                    ++bad;
                }
            }
        }
        out.ledger.recordMany(st.points, bad);
        if (pass == 0)
            ref = std::move(res);
    }
    st.peakRss = peakRssMb();
    std::printf("  passes: %zu, points/pass: %zu, clients: %u\n",
                st.pps.size(), st.points, clients);
    printPassRates(st.pps);

    // Traced passes: the same requests through the public functions,
    // alternately with spans and with a null tracer.
    Clock::time_point t1 = Clock::now();
    while (o.trace && (st.nospanPps.empty() ||
                       secondsSince(t1) < o.seconds / 2)) {
        bool spans = st.tracedPps.size() <= st.nospanPps.size();
        Tracer *t = spans ? &tr : nullptr;
        std::vector<std::vector<exec::RunOutput>> res(reqs.size());
        uint64_t base =
            (st.tracedPps.size() + st.nospanPps.size()) * reqs.size();
        Clock::time_point tp = Clock::now();
        drain(reqs.size(), clients, [&](size_t i) {
            Tracer::setRequest(base + i + 1);
            ScopedSpan root(t, "harness.request");
            tracedKeys(reqs[i], t);
            res[i] = tracedReplay(*lab, reqs[i], t);
        });
        (spans ? st.tracedPps : st.nospanPps)
            .push_back(double(st.points) / secondsSince(tp));
        uint64_t bad = 0;
        for (size_t i = 0; i < reqs.size(); ++i)
            for (size_t k = 0; k < res[i].size(); ++k)
                bad += digestOf(res[i][k]) != refDigest[i][k];
        out.ledger.recordMany(st.points, bad);
    }

    // A seeded sample against the exec-driven engine.
    harness::Lab execDriven(1.0);
    execDriven.setReplayEnabled(false);
    Rng rng(o.seed ^ 0x5851f42d4c957f2dULL);
    for (size_t s = 0; s < kExecSamples; ++s) {
        size_t i = size_t(rng.below(reqs.size()));
        size_t k = size_t(rng.below(reqs[i].size()));
        const harness::SweepPoint &p = reqs[i][k];
        out.ledger.record(
            stats::snapshotOfRun(execDriven.run(p.workload, p.cfg).run)
                .countersEqual(stats::snapshotOfRun(ref[i][k].run)));
    }

    out.hostSpeed = host.speed();
    out.hostBursts = host.bursts();
    reportSweep(out, o, tr, st, clients, 1, 1.0);
    return out;
}

// ---------------------------------------------------------- sweep_pruned

Outcome
runSweepPruned(const Options &o, unsigned clients)
{
    Outcome out;
    Tracer tr;
    SweepStats st;
    std::vector<Request> reqs = prunedRequests(o.seed);
    auto pairs = pairsOf(reqs);
    for (const Request &r : reqs)
        st.points += r.size();
    harness::PlanOptions plan;
    plan.prune = true;
    plan.jobs = 1;
    HostSpeed host(clients);

    // Timed passes, each on a fresh Lab whose prewarm is a set-up
    // sample. Reference outcomes and digests come from pass 0.
    std::vector<harness::PlanOutcome> ref;
    std::vector<std::vector<uint64_t>> refDigest(reqs.size());
    size_t simulated = 0, distinct = 0, profiles = 0;
    double untracedSeconds = o.trace ? o.seconds / 2 : o.seconds;
    Clock::time_point t0 = Clock::now();
    for (size_t pass = 0; pass == 0 || secondsSince(t0) < untracedSeconds ||
                          st.lat.size() < kMinSweepRequests;
         ++pass) {
        releaseFreedMemory();
        host.burst();
        Clock::time_point ts = Clock::now();
        harness::Lab lab(1.0);
        prewarm(lab, pairs, clients);
        st.setups.push_back(secondsSince(ts));
        std::vector<harness::PlanOutcome> res(reqs.size());
        if (pass == 0)
            st.hits0 = lab.cacheCounters();
        Clock::time_point tp = Clock::now();
        std::vector<double> l = drain(reqs.size(), clients, [&](size_t i) {
            res[i] = harness::planAndRun(lab, reqs[i], plan);
        });
        st.pps.push_back(double(st.points) / secondsSince(tp));
        st.lat.insert(st.lat.end(), l.begin(), l.end());
        if (pass == 0) {
            st.hits1 = lab.cacheCounters();
            profiles = lab.cachedProfiles();
        }
        uint64_t bad = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            for (size_t k = 0; k < res[i].points.size(); ++k) {
                const harness::PlannedPoint &p = res[i].points[k];
                uint64_t d = digestOf(p.result.run) ^ (p.simulated ? 1 : 0);
                if (pass == 0) {
                    refDigest[i].push_back(d);
                    if (p.simulated)
                        st.counts.add(p.result.run);
                } else if (d != refDigest[i][k]) {
                    ++bad;
                }
            }
            if (pass == 0) {
                simulated += res[i].simulatedCount;
                distinct += res[i].distinctPoints;
            }
        }
        out.ledger.recordMany(st.points, bad);
        if (pass == 0)
            ref = std::move(res);
    }
    st.peakRss = peakRssMb();
    std::printf("  passes: %zu, points/pass: %zu, simulated: %zu/%zu, "
                "clients: %u\n",
                st.pps.size(), st.points, simulated, distinct, clients);
    printPassRates(st.pps);

    // Traced passes: characterize, predict, and replay what the pass-0
    // plan simulated, through the public functions, alternately with
    // spans and with a null tracer.
    Clock::time_point t1 = Clock::now();
    while (o.trace && (st.nospanPps.empty() ||
                       secondsSince(t1) < o.seconds / 2)) {
        bool spans = st.tracedPps.size() <= st.nospanPps.size();
        Tracer *t = spans ? &tr : nullptr;
        harness::Lab lab(1.0);
        tracedPrewarm(lab, pairs, t);
        std::vector<std::vector<exec::RunOutput>> res(reqs.size());
        std::vector<Request> sim(reqs.size());
        for (size_t i = 0; i < reqs.size(); ++i)
            for (const harness::PlannedPoint &pp : ref[i].points)
                if (pp.simulated)
                    sim[i].push_back(pp.point);
        uint64_t base =
            (st.tracedPps.size() + st.nospanPps.size()) * reqs.size();
        Clock::time_point tp = Clock::now();
        drain(reqs.size(), clients, [&](size_t i) {
            Tracer::setRequest(base + i + 1);
            ScopedSpan root(t, "harness.request");
            tracedKeys(reqs[i], t);
            for (const Request &r : splitByWorkload(reqs[i])) {
                std::shared_ptr<const model::TraceProfile> prof;
                {
                    ScopedSpan s(t, "model.characterize");
                    prof = lab.profileBatch(
                        r[0].workload, r[0].cfg.loadLatency,
                        {harness::profileConfigFor(r[0].cfg)})[0];
                }
                ScopedSpan s(t, "model.predict");
                for (const harness::SweepPoint &p : r)
                    model::predict(*prof, harness::predictQueryFor(p.cfg));
                s.arg("points", double(r.size()));
            }
            for (const Request &r : splitByWorkload(sim[i]))
                for (exec::RunOutput &lane : tracedReplay(lab, r, t))
                    res[i].push_back(std::move(lane));
        });
        (spans ? st.tracedPps : st.nospanPps)
            .push_back(double(st.points) / secondsSince(tp));
        uint64_t bad = 0, checked = 0;
        for (size_t i = 0; i < reqs.size(); ++i) {
            size_t j = 0;
            for (const harness::PlannedPoint &pp : ref[i].points) {
                if (!pp.simulated)
                    continue;
                ++checked;
                bad += j >= res[i].size() ||
                       digestOf(res[i][j]) != digestOf(pp.result.run);
                ++j;
            }
        }
        out.ledger.recordMany(checked, bad);
    }

    // Seeded samples: simulated points against the exec-driven engine,
    // pruned points simulated against their model bounds.
    harness::Lab execDriven(1.0);
    execDriven.setReplayEnabled(false);
    harness::Lab replay(1.0);
    std::vector<const harness::PlannedPoint *> simPts, prunedPts;
    for (const harness::PlanOutcome &po : ref)
        for (const harness::PlannedPoint &p : po.points)
            (p.simulated ? simPts : prunedPts).push_back(&p);
    Rng rng(o.seed ^ 0x2545f4914f6cdd1dULL);
    for (size_t s = 0; s < kExecSamples && !simPts.empty(); ++s) {
        const harness::PlannedPoint &p =
            *simPts[size_t(rng.below(simPts.size()))];
        out.ledger.record(
            stats::snapshotOfRun(
                execDriven.run(p.point.workload, p.point.cfg).run)
                .countersEqual(stats::snapshotOfRun(p.result.run)));
    }
    for (size_t s = 0; s < kBoundSamples && !prunedPts.empty(); ++s) {
        const harness::PlannedPoint &p =
            *prunedPts[size_t(rng.below(prunedPts.size()))];
        uint64_t stalls = replay.run(p.point.workload, p.point.cfg)
                              .run.cpu.missStallCycles();
        const model::Prediction &pr = p.prediction;
        out.ledger.record(pr.supported && stalls >= pr.stallLower &&
                          stalls <= pr.stallUpper &&
                          (!pr.exact || stalls == pr.stallEstimate));
    }

    out.hostSpeed = host.speed();
    out.hostBursts = host.bursts();
    double tracedSetups = double(st.tracedPps.size());
    reportSweep(out, o, tr, st, clients, tracedSetups,
                ratio(double(simulated), double(distinct)));
    if (o.trace)
        out.add("model.profiles", double(profiles), "count");
    return out;
}

// ------------------------------------------------------------ daemon_mix

int
connectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) < 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** One request/response exchange; false on any transport error. */
bool
roundTrip(int fd, const std::string &request, std::string *response)
{
    if (fd < 0 || !service::writeFrame(fd, request))
        return false;
    std::string err;
    return service::readFrame(fd, response, &err) == service::ReadStatus::Ok;
}

bool
responseOk(const std::string &resp)
{
    size_t pos = resp.find("\"ok\": true");
    return pos != std::string::npos && pos < 64;
}

size_t
countOf(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** The daemon stack in-process: Lab + store + service + server. */
struct Daemon
{
    fs::path dir;
    std::string socket;
    std::unique_ptr<harness::Lab> lab;
    std::unique_ptr<service::CacheStore> store;
    std::unique_ptr<service::LabService> svc;
    std::unique_ptr<service::SocketServer> server;

    Daemon(const fs::path &d) : dir(d), socket((d / "s").string())
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        lab = std::make_unique<harness::Lab>(1.0);
        store = std::make_unique<service::CacheStore>(
            (dir / "cache").string());
        svc = std::make_unique<service::LabService>(*lab, *store);
        server = std::make_unique<service::SocketServer>(
            *svc, service::SocketServer::Options{socket, false, 0});
        std::string err;
        if (!server->start(&err))
            fatal("perfbench: daemon start: %s", err.c_str());
    }

    ~Daemon()
    {
        server.reset();
        svc.reset();
        store.reset();
        lab.reset();
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
};

/**
 * Daemon set-up through the socket: every (workload, latency) pair at
 * the baseline geometry (compile, record, persist the trace), then the
 * hot set. Two set-up clients.
 */
void
warmDaemon(Daemon &d, const std::vector<harness::SweepPoint> &hot,
           FailureLedger &ledger)
{
    std::vector<Request> reqs;
    for (const std::string &w : workloads::workloadNames()) {
        Request r;
        for (int lat : harness::paperLatencies) {
            harness::ExperimentConfig cfg;
            cfg.loadLatency = lat;
            r.push_back({w, cfg});
        }
        reqs.push_back(std::move(r));
    }
    for (size_t i = 0; i < hot.size(); i += 10)
        reqs.push_back(Request(hot.begin() + long(i),
                               hot.begin() + long(std::min(i + 10,
                                                           hot.size()))));
    std::mutex m;
    drain(reqs.size(), kDaemonClients, [&](size_t i) {
        int fd = connectUnix(d.socket);
        std::string resp;
        bool ok = roundTrip(fd, runPayload(reqs[i], i + 1), &resp) &&
                  responseOk(resp);
        if (fd >= 0)
            ::close(fd);
        std::lock_guard<std::mutex> lock(m);
        ledger.record(ok);
    });
}

/**
 * Draw the next request of `stream`. A cold draw takes the slot
 * `takeCold` hands out; when it returns cold.size() the slots are used
 * up and the request becomes warm.
 */
Request
drawRequest(DaemonStream &stream, DaemonDraw *draw,
            const std::vector<harness::SweepPoint> &hot,
            const std::vector<ColdSlot> &cold,
            const std::function<size_t()> &takeCold)
{
    *draw = stream.next();
    if (draw->cold) {
        size_t slot = takeCold();
        if (slot < cold.size())
            return coldPoints(cold[slot]);
        draw->cold = false;
    }
    while (draw->hot.empty())
        draw->hot = stream.next().hot;
    Request pts;
    for (uint32_t h : draw->hot)
        pts.push_back(hot[h]);
    return pts;
}

/** One served response kept for the correctness check. */
struct Served
{
    Request points;
    std::string response;
};

Outcome
runDaemonMix(const Options &o)
{
    Outcome out;
    std::vector<harness::SweepPoint> hot = daemonHotSet();
    std::vector<ColdSlot> cold = coldSlots(o.seed);
    fs::path base = fs::path(o.outDir) / "perfbench-tmp" /
                    std::to_string(int(::getpid()));
    Tracer tr;

    std::vector<double> setups;
    std::unique_ptr<Daemon> d;
    HostSpeed host(workerThreads());
    for (int k = 0; k < (o.trace ? 1 : kDaemonSetups); ++k) {
        d.reset();
        releaseFreedMemory();
        host.burst();
        Clock::time_point t = Clock::now();
        d = std::make_unique<Daemon>(base / std::to_string(k));
        if (o.trace) {
            std::vector<std::pair<std::string, int>> pairs;
            for (const std::string &w : workloads::workloadNames())
                for (int lat : harness::paperLatencies)
                    pairs.push_back({w, lat});
            tracedPrewarm(*d->lab, pairs, &tr);
        }
        warmDaemon(*d, hot, out.ledger);
        setups.push_back(secondsSince(t));
    }

    // Timed phase: closed-loop clients over the socket.
    double untracedSeconds = o.trace ? o.seconds / 2 : o.seconds;
    std::atomic<size_t> coldNext{0};
    size_t coldLimit = cold.size() - kTracedColdReserve;
    struct ClientLog
    {
        std::vector<double> lat;
        uint64_t points = 0, requests = 0, errors = 0, cold = 0;
        std::vector<Served> kept;
    };
    std::vector<ClientLog> logs(kDaemonClients);
    std::atomic<uint64_t> answered{0};
    std::atomic<double> rssAtWork{0.0};
    // Once a second the clients park between requests while a host-speed
    // burst runs; the time from the park request to the burst's end is
    // left out of the timed wall.
    std::mutex pauseMutex;
    std::condition_variable pauseCv;
    bool paused = false;
    unsigned parked = 0, running = kDaemonClients;
    Clock::time_point t0 = Clock::now();
    auto client = [&](unsigned c) {
        ClientLog &log = logs[c];
        DaemonStream stream(o.seed, c, hot.size());
        int fd = connectUnix(d->socket);
        uint64_t warmSeen = 0, coldSeen = 0;
        size_t warmKept = 0, coldKept = 0;
        for (uint64_t n = 0; secondsSince(t0) < untracedSeconds; ++n) {
            {
                std::unique_lock<std::mutex> lock(pauseMutex);
                if (paused) {
                    ++parked;
                    pauseCv.notify_all();
                    pauseCv.wait(lock, [&] { return !paused; });
                    --parked;
                }
            }
            DaemonDraw draw;
            Request pts = drawRequest(stream, &draw, hot, cold, [&] {
                size_t slot = coldNext.fetch_add(1);
                return slot < coldLimit ? slot : cold.size();
            });
            std::string payload = runPayload(pts, (uint64_t(c) << 40) | n);
            std::string resp;
            Clock::time_point ts = Clock::now();
            bool ok;
            if (draw.freshConnection) {
                int f = connectUnix(d->socket);
                ok = roundTrip(f, payload, &resp);
                if (f >= 0)
                    ::close(f);
            } else {
                ok = roundTrip(fd, payload, &resp);
            }
            log.lat.push_back(secondsSince(ts));
            if (answered.fetch_add(1) + 1 == kRssRequests)
                rssAtWork = peakRssMb();
            ok = ok && responseOk(resp);
            ++log.requests;
            log.errors += !ok;
            if (ok)
                log.points += pts.size();
            if (!ok && !draw.freshConnection) {
                ::close(fd);
                fd = connectUnix(d->socket);
            }
            size_t &kept = draw.cold ? coldKept : warmKept;
            bool keep = draw.cold ? (coldSeen++ % 16 == 0)
                                  : (warmSeen++ % 512 == 0);
            if (ok && keep && kept < kKeptPerKind) {
                ++kept;
                log.kept.push_back({std::move(pts), std::move(resp)});
            }
            log.cold += draw.cold;
        }
        if (fd >= 0)
            ::close(fd);
        std::lock_guard<std::mutex> lock(pauseMutex);
        --running;
        pauseCv.notify_all();
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kDaemonClients; ++c)
        threads.emplace_back(client, c);
    double burstSeconds = 0.0;
    for (;;) {
        std::unique_lock<std::mutex> lock(pauseMutex);
        if (pauseCv.wait_for(lock, std::chrono::seconds(1),
                             [&] { return running == 0; }))
            break;
        Clock::time_point tb = Clock::now();
        paused = true;
        pauseCv.wait(lock, [&] { return parked == running; });
        lock.unlock();
        host.burst();
        burstSeconds += secondsSince(tb);
        lock.lock();
        paused = false;
        pauseCv.notify_all();
    }
    for (std::thread &t : threads)
        t.join();
    double wall = secondsSince(t0) - burstSeconds;
    out.hostSpeed = host.speed();
    out.hostBursts = host.bursts();
    double peakRss = rssAtWork > 0.0 ? rssAtWork.load() : peakRssMb();
    double vmsizeMb = procStatus("VmSize") / 1024.0;
    double threadsLive = procStatus("Threads");

    std::vector<double> lat;
    uint64_t points = 0, requests = 0, errors = 0, colds = 0;
    for (const ClientLog &log : logs) {
        lat.insert(lat.end(), log.lat.begin(), log.lat.end());
        points += log.points;
        requests += log.requests;
        errors += log.errors;
        colds += log.cold;
    }
    out.ledger.recordMany(requests, errors);
    double pps = double(points) / wall;
    std::printf("  requests: %llu (%llu cold, %llu errors), clients: %u, "
                "cold slots left: %zu, peak RSS read %s\n",
                (unsigned long long)requests, (unsigned long long)colds,
                (unsigned long long)errors, kDaemonClients,
                coldLimit - std::min(coldLimit, coldNext.load()),
                rssAtWork > 0.0 ? strfmt("at request %llu",
                                         (unsigned long long)kRssRequests)
                                      .c_str()
                                : "at the end (short run)");

    // Traced phase: a fixed request set through LabService::handle, once
    // with spans and once more with a null tracer on fresh cold slots.
    SimCounts counts;
    uint64_t origin[4] = {0, 0, 0, 0};
    std::vector<double> wire;
    harness::Lab::CacheCounters hits0{}, hits1{};
    size_t coldBack = cold.size();
    auto tracedPhase = [&](Tracer *t) {
        service::CacheStore scratch((d->dir / "scratch-store").string());
        DaemonStream stream(o.seed ^ 0x7f4a7c159e3779b9ULL, 0, hot.size());
        int fd = connectUnix(d->socket);
        uint64_t tracedPoints = 0;
        Clock::time_point t1 = Clock::now();
        for (size_t n = 0; n < kTracedDaemonRequests; ++n) {
            DaemonDraw draw;
            Request pts = drawRequest(stream, &draw, hot, cold, [&] {
                return coldBack > coldLimit ? --coldBack : cold.size();
            });
            std::string payload = runPayload(pts, n + 1);
            Tracer::setRequest(n + 1);
            ScopedSpan root(t, "service.request");
            {
                ScopedSpan s(t, "service.parse");
                service::Request req;
                std::string code, msg;
                uint64_t id = 0;
                out.ledger.record(
                    service::parseRequest(payload, &req, &code, &msg, &id));
            }
            tracedKeys(pts, t);
            if (draw.cold)
                for (const exec::RunOutput &r : tracedReplay(*d->lab, pts, t))
                    if (t)
                        counts.add(r);
            std::string resp;
            bool shutdown = false;
            Clock::time_point th = Clock::now();
            {
                ScopedSpan s(t, draw.cold ? "service.handle.cold"
                                          : "service.handle.warm");
                resp = d->svc->handle(payload, &shutdown);
            }
            double handleS = secondsSince(th);
            out.ledger.record(responseOk(resp) && !shutdown);
            tracedPoints += pts.size();
            if (t) {
                origin[0] += countOf(resp, "\"cached\": \"memory\"");
                origin[1] += countOf(resp, "\"cached\": \"inflight\"");
                origin[2] += countOf(resp, "\"cached\": \"disk\"");
                origin[3] += countOf(resp, "\"cached\": \"computed\"");
            }
            if (draw.cold) {
                for (const harness::SweepPoint &p : pts) {
                    harness::ExperimentResult r =
                        d->lab->run(p.workload, p.cfg);
                    std::string json;
                    {
                        ScopedSpan s(t, "stats.snapshot");
                        json = stats::snapshotOfRun(r.run).toJson(0);
                        s.arg("bytes", double(json.size()));
                    }
                    ScopedSpan s(t, "service.store_write");
                    scratch.storeResult(
                        harness::experimentKey(p.workload, p.cfg), json);
                }
            } else if (n % 4 == 0) {
                std::string rt;
                Clock::time_point tw = Clock::now();
                bool ok;
                {
                    ScopedSpan s(t, "service.roundtrip");
                    ok = roundTrip(fd, payload, &rt) && responseOk(rt);
                }
                out.ledger.record(ok);
                if (t)
                    wire.push_back(secondsSince(tw) - handleS);
            }
        }
        double rate = double(tracedPoints) / secondsSince(t1);
        if (fd >= 0)
            ::close(fd);
        return rate;
    };
    double tracedPps = 0.0, nospanPps = 0.0;
    if (o.trace) {
        hits0 = d->lab->cacheCounters();
        tracedPps = tracedPhase(&tr);
        hits1 = d->lab->cacheCounters();
        nospanPps = tracedPhase(nullptr);
    }

    // Correctness: kept snapshots against a direct Lab::run.
    d.reset();
    {
        harness::Lab direct(1.0);
        for (const ClientLog &log : logs) {
            for (const Served &s : log.kept) {
                std::optional<stats::Json> doc =
                    stats::Json::tryParse(s.response);
                const stats::Json *results =
                    doc && doc->isObject() ? doc->find("results") : nullptr;
                if (!results || !results->isArray() ||
                    results->array().size() != s.points.size()) {
                    out.ledger.record(false);
                    continue;
                }
                for (size_t i = 0; i < s.points.size(); ++i) {
                    const stats::Json &r = results->array()[i];
                    const stats::Json *snap =
                        r.isObject() ? r.find("stats") : nullptr;
                    if (!snap || !snap->isObject()) {
                        out.ledger.record(false);
                        continue;
                    }
                    stats::Snapshot served = stats::snapshotFromJson(*snap);
                    stats::Snapshot local = stats::snapshotOfRun(
                        direct.run(s.points[i].workload, s.points[i].cfg)
                            .run);
                    out.ledger.record(local.countersEqual(served));
                }
            }
        }
    }
    std::error_code ec;
    fs::remove_all(base, ec);

    if (!o.trace) {
        out.add("setup_s", median(setups), "s");
        out.add("points_per_s", pps, "points/s");
        addLatencies(out, lat);
        out.add("peak_rss_mb", peakRss, "MB");
        return out;
    }
    out.spans = tr.spans();
    addLayerMetrics(out, out.spans, 1.0, 1.0, counts);
    out.add("harness.lab_result_hits",
            double(hits1.resultHits - hits0.resultHits), "count");
    out.add("harness.lab_trace_hits",
            double(hits1.traceHits - hits0.traceHits), "count");
    auto medOf = [&](const char *name) {
        return median(spanDurations(out.spans, name));
    };
    out.add("service.handle_us.warm", medOf("service.handle.warm") * 1e6,
            "us");
    out.add("service.handle_ms.cold", medOf("service.handle.cold") * 1e3,
            "ms");
    out.add("service.parse_us", medOf("service.parse") * 1e6, "us");
    out.add("service.wire_us", median(wire) * 1e6, "us");
    SpanSum store = sumSpans(out.spans, "service.store_write");
    out.add("service.store_write_ms",
            ratio(store.seconds * 1e3, double(store.count)), "ms");
    out.add("service.origin.memory", double(origin[0]), "count");
    out.add("service.origin.inflight", double(origin[1]), "count");
    out.add("service.origin.disk", double(origin[2]), "count");
    out.add("service.origin.computed", double(origin[3]), "count");
    double served = double(origin[0] + origin[1] + origin[2] + origin[3]);
    out.add("service.hit_rate",
            ratio(double(origin[0] + origin[1] + origin[2]), served),
            "ratio");
    out.add("service.vmsize_mb", vmsizeMb, "MB");
    out.add("service.threads_live", threadsLive, "count");
    addTraceOverhead(out, tracedPps, nospanPps);
    return out;
}

/** A metric list of BENCHMARK.json: (name, unit) in file order. */
using Catalog = std::vector<std::pair<std::string, std::string>>;

/** Read the `section` metric list ("end_to_end" or "per_layer") of the
 *  benchmark spec, the one catalog of metric names and units. */
Catalog
loadCatalog(const std::string &specPath, const char *section)
{
    std::ifstream in(specPath);
    std::stringstream text;
    text << in.rdbuf();
    std::optional<stats::Json> doc = stats::Json::tryParse(text.str());
    const stats::Json *list =
        doc && doc->isObject() ? doc->find(section) : nullptr;
    if (!list || !list->isArray())
        fatal("perfbench: %s has no %s metric list", specPath.c_str(),
              section);
    Catalog c;
    for (const stats::Json &m : list->array())
        c.push_back({m.at("name").str(), m.at("unit").str()});
    return c;
}

/**
 * The run's metrics in catalog order. A catalog metric the run did not
 * measure reads 0 when `idleIsZero` (a layer the workload leaves idle)
 * and is fatal otherwise; a measured metric missing from the catalog,
 * or with another unit, is fatal.
 */
std::vector<Metric>
catalogReport(const Catalog &catalog, const std::vector<Metric> &measured,
              bool idleIsZero)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : catalog) {
        Metric m{name, 0.0, unit};
        bool found = false;
        for (const Metric &x : measured) {
            if (x.name == name) {
                m.value = x.value;
                found = true;
            }
        }
        if (!found && !idleIsZero)
            fatal("perfbench: metric %s was not measured", name.c_str());
        out.push_back(m);
    }
    for (const Metric &x : measured) {
        bool known = false;
        for (const auto &[name, unit] : catalog) {
            if (x.name == name && x.unit != unit)
                fatal("perfbench: metric %s in %s, catalog says %s",
                      name.c_str(), x.unit.c_str(), unit.c_str());
            known = known || x.name == name;
        }
        if (!known)
            fatal("perfbench: metric %s is not in the catalog",
                  x.name.c_str());
    }
    return out;
}

/**
 * Scale the end-to-end timings to the reference host speed (see
 * HostSpeed): times by speed, rates by its inverse. The raw values are
 * printed first. Peak RSS does not depend on host speed and is left.
 */
void
normalizeToReferenceHost(Outcome &out)
{
    std::printf("  host speed %.4f (median of %zu bursts vs %.0f ms "
                "reference); raw values:",
                out.hostSpeed, out.hostBursts,
                HostSpeed::kReferenceBurstSeconds * 1e3);
    for (Metric &m : out.metrics) {
        if (m.name == "peak_rss_mb")
            continue;
        std::printf(" %s=%.6g", m.name.c_str(), m.value);
        if (m.name == "points_per_s")
            m.value /= out.hostSpeed;
        else
            m.value *= out.hostSpeed;
    }
    std::printf("\n");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep_dense|sweep_pruned|daemon_mix --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--spec BENCHMARK.json]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed" && parseUint64(v, &o.seed))
            ;
        else if (a == "--seconds" && parseDouble(v, &o.seconds) &&
                 o.seconds > 0)
            ;
        else if (a == "--trace" && (v == "0" || v == "1"))
            o.trace = v == "1";
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--spec")
            o.spec = v;
        else
            usage(("bad argument " + a + " " + v).c_str());
    }
    if (o.workload.empty())
        usage("no --workload");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseArgs(argc, argv);
    Catalog catalog =
        loadCatalog(o.spec, o.trace ? "per_layer" : "end_to_end");
    // As nbl-labd does: a client that hangs up must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    unsigned nproc = hostThreads();
    unsigned sweepClients = workerThreads();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d | host nproc=%u "
                "sweep clients=%u daemon clients=%u build=%s\n",
                o.workload.c_str(), (unsigned long long)o.seed, o.seconds,
                int(o.trace), nproc, sweepClients, kDaemonClients,
                PERFBENCH_BUILD_TYPE);
    std::fflush(stdout);

    Outcome out;
    if (o.workload == "sweep_dense")
        out = runSweepDense(o, sweepClients);
    else if (o.workload == "sweep_pruned")
        out = runSweepPruned(o, sweepClients);
    else if (o.workload == "daemon_mix")
        out = runDaemonMix(o);
    else
        usage(("unknown workload " + o.workload).c_str());
    if (!o.trace)
        normalizeToReferenceHost(out);
    out.metrics = catalogReport(catalog, out.metrics, o.trace);

    for (const Metric &m : out.metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-34s %14.6g ratio (%llu failed / %llu attempted)\n",
                "failed_frac", out.ledger.frac(),
                (unsigned long long)out.ledger.failed,
                (unsigned long long)out.ledger.attempted);
    if (o.trace) {
        printSelfTimes(out.spans);
        fs::path dir = fs::path(o.outDir) / "traces";
        fs::create_directories(dir);
        fs::path file = dir / strfmt("%s-seed%llu.json", o.workload.c_str(),
                                     (unsigned long long)o.seed);
        std::ofstream(file) << chromeTraceJson(out.spans);
        std::printf("  chrome trace: %s\n", file.string().c_str());
    }

    bool correct = out.ledger.failed == 0 && out.ledger.attempted > 0;
    std::string json = strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        (unsigned long long)out.ledger.attempted,
        (unsigned long long)out.ledger.failed);
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json += strfmt("%s%s: {\"value\": %.17g, \"unit\": %s}",
                       i ? ", " : "", stats::jsonQuote(m.name).c_str(),
                       m.value, stats::jsonQuote(m.unit).c_str());
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
