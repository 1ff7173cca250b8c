/** Tests for the telemetry subsystem (src/obs/): metrics snapshot
 *  merge determinism, the wire telemetry frame, stalled-worker
 *  detection, fault surfacing in CampaignResult, and bench_util's
 *  strict flag parsing. The telemetry-on/off byte-identity matrix, and
 *  the trace and metrics output of its campaigns, are checked in
 *  paper_identity_test. */
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <unistd.h>

#include "../bench/bench_util.h"
#include "backends/backend.h"
#include "campaign_fixture.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "json_checker.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace nnsmith {
namespace {

using fuzz::WorkerMode;
using obs::MetricsSnapshot;
using obs::ProgressAggregator;
using test::isValidJson;

/** Restore the process-global telemetry state on scope exit so one
 *  test's enablement can never leak into another. */
struct TelemetryGuard {
    ~TelemetryGuard()
    {
        obs::setMetricsEnabled(false);
        obs::traceClose();
        obs::metricsReset();
    }
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketsByBitWidth)
{
    obs::HistogramData h;
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(1u << 20);
    EXPECT_EQ(h.count, 5u);
    EXPECT_EQ(h.sum, 6u + (1u << 20));
    EXPECT_EQ(h.buckets[0], 1u); // 0
    EXPECT_EQ(h.buckets[1], 1u); // 1
    EXPECT_EQ(h.buckets[2], 2u); // 2, 3
    EXPECT_EQ(h.buckets[21], 1u); // 2^20
}

TEST(ObsMetrics, MergeIsCommutativeAndDeterministic)
{
    MetricsSnapshot a;
    a.counters["x"] = 3;
    a.gauges["g"] = 7;
    a.histograms["h"].observe(4);
    MetricsSnapshot b;
    b.counters["x"] = 2;
    b.counters["y"] = 1;
    b.gauges["g"] = 5;
    b.histograms["h"].observe(100);

    MetricsSnapshot ab = a;
    ab.mergeFrom(b);
    MetricsSnapshot ba = b;
    ba.mergeFrom(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.counters["x"], 5u);
    EXPECT_EQ(ab.counters["y"], 1u);
    EXPECT_EQ(ab.gauges["g"], 7); // max wins
    EXPECT_EQ(ab.histograms["h"].count, 2u);
    // Byte-identical canonical JSON for equal snapshots.
    EXPECT_EQ(ab.renderJson(), ba.renderJson());
    EXPECT_TRUE(isValidJson(ab.renderJson()));
}

TEST(ObsMetrics, DisabledRecordingIsANoOp)
{
    TelemetryGuard guard;
    obs::setMetricsEnabled(false);
    obs::metricsReset();
    obs::counterAdd("obs_test.noop");
    obs::gaugeSet("obs_test.noop.g", 1);
    obs::histObserve("obs_test.noop.h", 1);
    const auto snapshot = obs::metricsSnapshot();
    EXPECT_EQ(snapshot.counters.count("obs_test.noop"), 0u);
}

TEST(ObsMetrics, ShardsFromManyThreadsFoldDeterministically)
{
    TelemetryGuard guard;
    obs::metricsReset();
    obs::setMetricsEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i) {
                obs::counterAdd("obs_test.threads");
                obs::histObserve("obs_test.threads.h",
                                 static_cast<uint64_t>(i));
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    const auto snapshot = obs::metricsSnapshot();
    EXPECT_EQ(snapshot.counters.at("obs_test.threads"), 400u);
    EXPECT_EQ(snapshot.histograms.at("obs_test.threads.h").count, 400u);
    // Drain clears; external contributions fold back in.
    const auto drained = obs::metricsDrain();
    EXPECT_EQ(drained.counters.at("obs_test.threads"), 400u);
    EXPECT_TRUE(obs::metricsSnapshot().counters.empty());
    obs::metricsMergeExternal(drained);
    EXPECT_EQ(obs::metricsSnapshot().counters.at("obs_test.threads"),
              400u);
}

// ---------------------------------------------------------------------------
// Wire telemetry frames
// ---------------------------------------------------------------------------

TEST(ObsWire, TelemetryFrameRoundTrips)
{
    fuzz::wire::TelemetryFrame frame;
    frame.shard = 3;
    frame.round = 7;
    frame.iters = 120;
    frame.bugs = 4;
    frame.hits = 999;
    frame.metrics.counters["campaign.iterations"] = 120;
    frame.metrics.gauges["fabric.workers"] = -2;
    frame.metrics.histograms["phase.gen"].observe(33);
    frame.metrics.histograms["phase.gen"].observe(0);

    const std::string encoded = fuzz::wire::encodeTelemetry(frame);
    const auto back = fuzz::wire::decodeTelemetry(encoded);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->shard, frame.shard);
    EXPECT_EQ(back->round, frame.round);
    EXPECT_EQ(back->iters, frame.iters);
    EXPECT_EQ(back->bugs, frame.bugs);
    EXPECT_EQ(back->hits, frame.hits);
    EXPECT_EQ(back->metrics, frame.metrics);
    // Re-encoding is byte-identical (snapshot maps are sorted).
    EXPECT_EQ(fuzz::wire::encodeTelemetry(*back), encoded);
}

TEST(ObsWire, TelemetryDecodeIsLenientNeverThrows)
{
    using fuzz::wire::decodeTelemetry;
    // Garbage and truncation yield nullopt — telemetry is advisory.
    EXPECT_FALSE(decodeTelemetry("").has_value());
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 2\nend-telemetry\n")
                     .has_value());
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 1\n").has_value());
    EXPECT_FALSE(
        decodeTelemetry("nnsmith-telemetry 1\nend-telemetry\n")
            .has_value()); // no heartbeat
    EXPECT_FALSE(decodeTelemetry("nnsmith-telemetry 1\nheartbeat 0 x 0 "
                                 "0 0\nend-telemetry\n")
                     .has_value());
    // Unknown line kinds are skipped, not fatal: a newer worker may
    // emit fields this coordinator predates.
    const auto frame = decodeTelemetry(
        "nnsmith-telemetry 1\nheartbeat 1 2 3 4 5\nfuture-field "
        "whatever\nend-telemetry\n");
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->shard, 1);
    EXPECT_EQ(frame->iters, 3u);
}

// ---------------------------------------------------------------------------
// Progress aggregation
// ---------------------------------------------------------------------------

TEST(ObsProgress, TracksWorkerStatesDistinctly)
{
    obs::ProgressOptions options;
    options.printToStderr = false;
    ProgressAggregator progress(options);
    progress.attach(3, "test");
    progress.onHeartbeat(obs::Heartbeat{0, 0, 10, 1, 5});
    progress.onStalled(1);
    progress.onCrashed(2);
    progress.onStalled(2); // crashed stays crashed, not stalled

    const auto workers = progress.workers();
    ASSERT_EQ(workers.size(), 3u);
    EXPECT_EQ(workers[0].state, ProgressAggregator::WorkerState::kOk);
    EXPECT_EQ(workers[0].iters, 10u);
    EXPECT_EQ(workers[1].state,
              ProgressAggregator::WorkerState::kStalled);
    EXPECT_EQ(workers[2].state,
              ProgressAggregator::WorkerState::kCrashed);
    EXPECT_EQ(workers[2].respawns, 1);
    EXPECT_EQ(progress.stallEvents(), 1u);
    EXPECT_EQ(progress.heartbeats(), 1u);
    // Out-of-range shards are dropped, not fatal.
    progress.onHeartbeat(obs::Heartbeat{99, 0, 1, 0, 0});
    EXPECT_EQ(progress.heartbeats(), 1u);
    progress.finish();
}

// ---------------------------------------------------------------------------
// Stalled-worker detection
// ---------------------------------------------------------------------------

class ObsStall : public testing::TestWithParam<WorkerMode> {};

TEST_P(ObsStall, SleepingWorkerIsFlaggedStalledAndCampaignCompletes)
{
    const auto reference =
        fuzz::runParallelCampaign(test::paperCampaign(1, 2023));

    auto config = test::paperCampaign(2, 2023, GetParam());
    const uint64_t slow_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 3);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, slow_seed](uint64_t seed) {
        if (seed == slow_seed)
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
        return inner(seed);
    };
    obs::ProgressOptions options;
    options.printToStderr = false;
    options.stallAfterMs = 50;
    config.progress = std::make_shared<ProgressAggregator>(options);
    const auto result = fuzz::runParallelCampaign(config);

    // The sleeper was flagged stalled — distinctly from a crash — and
    // the campaign still merged byte-identically.
    EXPECT_EQ(fuzz::renderCampaignResult(reference),
              fuzz::renderCampaignResult(result));
    EXPECT_GT(config.progress->stallEvents(), 0u);
    EXPECT_EQ(result.respawns, 0u);
    bool saw_stall_fault = false;
    for (const auto& fault : result.workerFaults) {
        EXPECT_NE(fault.kind, "crash");
        saw_stall_fault = saw_stall_fault || fault.kind == "stall";
    }
    EXPECT_TRUE(saw_stall_fault);
}

INSTANTIATE_TEST_SUITE_P(Modes, ObsStall,
                         testing::Values(WorkerMode::kThread,
                                         WorkerMode::kProcess));

// ---------------------------------------------------------------------------
// Fault surfacing: respawns and error frames in CampaignResult
// ---------------------------------------------------------------------------

TEST(ObsFaults, CrashRespawnIsCountedInTheResult)
{
    const auto marker = std::filesystem::path(testing::TempDir()) /
                        "nnsmith-obs-crash-marker";
    std::filesystem::remove(marker);
    const auto reference =
        fuzz::runParallelCampaign(test::paperCampaign(1, 2023));

    auto config = test::paperCampaign(2, 2023, WorkerMode::kProcess);
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 7);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, crash_seed,
                            marker](uint64_t seed) {
        if (seed == crash_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x');
            ::kill(::getpid(), SIGKILL);
        }
        return inner(seed);
    };
    const auto result = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker));
    EXPECT_EQ(fuzz::renderCampaignResult(reference),
              fuzz::renderCampaignResult(result));
    EXPECT_EQ(result.respawns, 1u);
    ASSERT_FALSE(result.workerFaults.empty());
    bool saw_crash = false;
    for (const auto& fault : result.workerFaults)
        saw_crash = saw_crash || fault.kind == "crash";
    EXPECT_TRUE(saw_crash);
    std::filesystem::remove(marker);
}

TEST(ObsFaults, TransientWorkerErrorIsRetriedAndSurfaced)
{
    const auto marker = std::filesystem::path(testing::TempDir()) /
                        "nnsmith-obs-error-marker";
    std::filesystem::remove(marker);
    const auto reference =
        fuzz::runParallelCampaign(test::paperCampaign(1, 2023));

    auto config = test::paperCampaign(2, 2023, WorkerMode::kProcess);
    const uint64_t error_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 5);
    const auto inner = config.fuzzerFactory;
    config.fuzzerFactory = [inner, error_seed, marker](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed == error_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x');
            throw std::runtime_error("transient hiccup");
        }
        return inner(seed);
    };
    // A transient error frame no longer aborts the campaign: the
    // worker is respawned, the block re-runs deterministically, and
    // the incident is surfaced as a WorkerFault.
    const auto result = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker));
    EXPECT_EQ(fuzz::renderCampaignResult(reference),
              fuzz::renderCampaignResult(result));
    bool saw_error = false;
    for (const auto& fault : result.workerFaults) {
        if (fault.kind == "error") {
            saw_error = true;
            EXPECT_NE(fault.detail.find("transient hiccup"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(saw_error);
    std::filesystem::remove(marker);
}

// ---------------------------------------------------------------------------
// bench_util flag parsing
// ---------------------------------------------------------------------------

TEST(ObsBenchFlags, UnknownFlagsAreRejected)
{
    const char* bad[] = {"bench", "--metrics-outt", "x.json"};
    EXPECT_THROW(bench::parseArgsOrThrow(3, const_cast<char**>(bad)),
                 FatalError);

    const char* dangling[] = {"bench", "--metrics-out"};
    EXPECT_THROW(
        bench::parseArgsOrThrow(2, const_cast<char**>(dangling)),
        FatalError);

    const char* good[] = {"bench",         "--seed",    "7",
                          "--metrics-out", "m.json",    "--trace-out",
                          "t.jsonl",       "--progress", "--out",
                          "o.json"};
    const auto options =
        bench::parseArgsOrThrow(10, const_cast<char**>(good));
    EXPECT_EQ(options.seed, 7u);
    EXPECT_EQ(options.metricsOut, "m.json");
    EXPECT_EQ(options.traceOut, "t.jsonl");
    EXPECT_EQ(options.outPath, "o.json");
    EXPECT_TRUE(options.progress);
}

} // namespace
} // namespace nnsmith
