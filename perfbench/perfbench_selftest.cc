/**
 * @file
 * Self-test of the benchmark's helpers (bench_util.hh): the percentile
 * refusal rule, span self time, failure accounting, and that a seed
 * fixes the request stream and point sets byte for byte.
 *
 *   ctest --test-dir .bench_build      (after python3 perfbench/run.py)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(double(i));
    return v;
}

void
testPercentile()
{
    // 1..1000: p99 is 990 by nearest rank, with exactly 10 beyond it.
    std::optional<double> p = percentile(oneTo(1000), 0.99);
    check(p && *p == 990.0, "p99 of 1..1000 is 990");
    // 1..999: p99 is 990 with only 9 beyond -- refused.
    check(!percentile(oneTo(999), 0.99), "p99 with 9 beyond is refused");
    check(!percentile(oneTo(100), 0.99), "p99 of 100 samples is refused");
    // Ties at the tail do not count as beyond.
    std::vector<double> ties(2000, 1.0);
    check(!percentile(ties, 0.99), "p99 over tied samples is refused");
    std::optional<double> p50 = percentile(oneTo(101), 0.50);
    check(p50 && *p50 == 51.0, "p50 of 1..101 is 51");
    check(!percentile({}, 0.5), "empty sample set is refused");
    check(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");
}

void
testSelfTime()
{
    // parent [0, 10] with children [1, 3] and [2, 5] (overlapping) and
    // [8, 12] (runs past the parent): covered = [1, 5] + [8, 10] = 6.
    std::vector<Span> spans(5);
    spans[0] = {"harness.request", 0.0, 10.0, -1, 1, 1, {}};
    spans[1] = {"exec.replay", 1.0, 3.0, 0, 1, 1, {}};
    spans[2] = {"harness.key", 2.0, 5.0, 0, 1, 1, {}};
    spans[3] = {"model.predict", 8.0, 12.0, 0, 1, 1, {}};
    spans[4] = {"core.inner", 1.5, 2.0, 1, 1, 1, {}};
    std::vector<double> self = selfTimes(spans);
    check(self[0] == 4.0, "parent self time excludes covered children");
    check(self[1] == 1.5, "child self time excludes its own child");
    check(self[2] == 3.0 && self[3] == 4.0 && self[4] == 0.5,
          "leaf self time is its duration");

    // The tracer links a span opened inside another as its child.
    Tracer tr;
    Tracer::setRequest(7);
    size_t outer = tr.begin("service.request");
    size_t inner = tr.begin("service.parse");
    tr.end(inner);
    size_t second = tr.begin("service.handle.warm");
    tr.end(second);
    tr.end(outer);
    std::vector<Span> got = tr.spans();
    check(got.size() == 3 && got[1].parent == int64_t(outer) &&
              got[2].parent == int64_t(outer) && got[0].parent == -1,
          "tracer nests spans by thread");
    check(got[1].request == 7, "spans carry the thread's request id");
    std::vector<double> s = selfTimes(got);
    double outerDur = got[0].end - got[0].start;
    double kids = (got[1].end - got[1].start) + (got[2].end - got[2].start);
    check(s[0] >= 0.0 && std::abs(s[0] - (outerDur - kids)) < 1e-12,
          "tracer self time is duration minus children");
    check(layerOf("service.handle.warm") == "service", "layer of a span");
}

void
testLedger()
{
    FailureLedger a;
    a.record(true);
    a.record(false);
    a.recordMany(10, 2);
    a.recordMany(8, 0);
    a.record(false);
    check(a.attempted == 21 && a.failed == 4, "ledger adds up");
    check(a.frac() == 4.0 / 21.0, "failed fraction");
    check(FailureLedger{}.frac() == 0.0, "empty ledger has no failures");
}

std::string
serialize(const std::vector<Request> &reqs)
{
    std::string out;
    for (size_t i = 0; i < reqs.size(); ++i)
        out += runPayload(reqs[i], i) + "\n";
    return out;
}

std::string
daemonStream(uint64_t seed)
{
    std::string out;
    std::vector<nbl::harness::SweepPoint> hot = daemonHotSet();
    std::vector<ColdSlot> cold = coldSlots(seed);
    size_t nextCold = 0;
    for (unsigned c = 0; c < 2; ++c) {
        DaemonStream st(seed, c, hot.size());
        for (uint64_t n = 0; n < 500; ++n) {
            DaemonDraw d = st.next();
            Request pts;
            if (d.cold) {
                pts = coldPoints(cold[nextCold++]);
            } else {
                for (uint32_t h : d.hot)
                    pts.push_back(hot[h]);
            }
            out += d.freshConnection ? "fresh " : "kept ";
            out += runPayload(pts, n) + "\n";
        }
    }
    return out;
}

void
testSeeds()
{
    check(serialize(denseRequests(11)) == serialize(denseRequests(11)),
          "dense point set repeats for a seed");
    check(serialize(denseRequests(11)) != serialize(denseRequests(12)),
          "dense point order depends on the seed");
    check(serialize(prunedRequests(11)) == serialize(prunedRequests(11)),
          "pruned point set repeats for a seed");
    check(serialize(prunedRequests(11)) != serialize(prunedRequests(12)),
          "pruned point order depends on the seed");
    check(daemonStream(11) == daemonStream(11),
          "daemon request stream repeats for a seed");
    check(daemonStream(11) != daemonStream(12),
          "daemon request stream depends on the seed");

    size_t dense = 0, pruned = 0;
    for (const Request &r : denseRequests(1))
        dense += r.size();
    for (const Request &r : prunedRequests(1))
        pruned += r.size();
    check(denseRequests(1).size() == 108 && dense == 1080,
          "dense: 108 requests, 1080 points");
    check(prunedRequests(1).size() == 72 && pruned == 2592,
          "pruned: 72 requests, 2592 points");
    check(daemonHotSet().size() == 180, "hot set has 180 points");
    std::vector<ColdSlot> cold = coldSlots(1);
    check(cold.size() == 18 * 6 * 35, "cold slots");
    std::map<std::string, size_t> perWorkload;
    for (size_t i = 0; i < 18 * 3; ++i)
        ++perWorkload[cold[i].workload];
    bool balanced = perWorkload.size() == 18;
    for (const auto &kv : perWorkload)
        balanced = balanced && kv.second == 3;
    check(balanced, "cold slots are dealt one per workload per round");

    // The stream's cold share is near kColdPerMille.
    DaemonStream st(3, 0, 180);
    size_t colds = 0, n = 100000;
    for (size_t i = 0; i < n; ++i)
        colds += st.next().cold;
    double share = double(colds) / double(n) * 1000.0;
    check(share > kColdPerMille * 0.9 && share < kColdPerMille * 1.1,
          "cold share matches kColdPerMille");
}

} // namespace

int
main()
{
    testPercentile();
    testSelfTime();
    testLedger();
    testSeeds();
    std::printf("perfbench_selftest: %s\n", failures ? "FAILED" : "ok");
    return failures ? 1 : 0;
}
