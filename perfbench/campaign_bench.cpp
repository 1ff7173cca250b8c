/**
 * @file
 * Campaign benchmark: named fuzzing workloads driven through
 * fuzz::runParallelCampaign, end-to-end metrics with a result-identity
 * check, and an outside-in per-layer ledger.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --scratch DIR --corpus DIR
 *
 * --trace 0 repeats the workload's campaign until S seconds have been
 * measured and prints the end-to-end metrics. --trace 1 prints the
 * per-layer ledger instead: it replays the same iteration seeds by
 * calling each layer's public functions (generator, value search,
 * reference interpreter, exporter, backends, comparator, coverage
 * collector, wire codec, merge) and times every call from outside the
 * library. Both modes check that every campaign of the run, and the
 * traced replay, produce the identical merged result, and exit 1 if
 * they do not. The last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}; every earlier line is
 * a human-readable record. See perfbench/README.md.
 */
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#if NNSMITH_HAVE_Z3
#include <z3.h>
#endif

#include "backends/backend.h"
#include "backends/defects.h"
#include "corpus/replay.h"
#include "coverage/coverage.h"
#include "difftest/compare.h"
#include "difftest/oracle.h"
#include "exec/batched.h"
#include "exec/interpreter.h"
#include "fuzz/fuzzer.h"
#include "fuzz/mutator.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "fuzz/worker_runtime.h"
#include "gen/generator.h"
#include "onnx/exporter.h"
#include "reduce/reducer.h"
#include "reduce/report.h"

namespace {

using namespace nnsmith;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

constexpr uint64_t kDefaultSeed = 2023;
constexpr uint64_t kHeldOutSeed = 90210;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Highest percentile of the ladder with >= 10 samples beyond it. */
struct Tail {
    double pct = 50.0;
    double value = 0.0;
};

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        if (n * (1.0 - pct / 100.0) >= 10.0 || pct == 50.0) {
            const size_t rank = static_cast<size_t>(
                std::ceil(pct / 100.0 * n));
            tail.pct = pct;
            tail.value = values[std::max<size_t>(rank, 1) - 1];
            return tail;
        }
    }
    return tail;
}

uint64_t
fnv1a(const std::string& text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
jsonString(const std::string& text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

// ---------------------------------------------------------------------------
// Resource probes
// ---------------------------------------------------------------------------

/** Read a small /proc file into @p buf without allocating (the
 *  sampler runs while the campaign forks workers). */
ssize_t
readSmall(const char* path, char* buf, size_t size)
{
    const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return -1;
    const ssize_t n = ::read(fd, buf, size - 1);
    ::close(fd);
    if (n >= 0)
        buf[n] = '\0';
    return n;
}

/** Resident set of process @p pid in kB, 0 if it is gone. Read from
 *  statm, which costs O(1): smaps would walk the page tables under the
 *  measured process's mmap lock and slow it down. */
long
residentKb(long pid)
{
    char path[64];
    char buf[256];
    std::snprintf(path, sizeof path, "/proc/%ld/statm", pid);
    if (readSmall(path, buf, sizeof buf) <= 0)
        return 0;
    long size = 0, pages = 0;
    if (std::sscanf(buf, "%ld %ld", &size, &pages) != 2)
        return 0;
    return pages * (::sysconf(_SC_PAGESIZE) / 1024);
}

/**
 * Samples the resident set of this process plus all its live
 * descendants (the isolated campaign and its forked workers) while
 * armed, and keeps the peak of the sum. Pages a forked process still
 * shares copy-on-write with its parent count in both.
 */
class PeakMemorySampler {
  public:
    PeakMemorySampler() : thread_([this] { loop(); }) {}
    ~PeakMemorySampler()
    {
        stop_.store(true);
        thread_.join();
    }
    PeakMemorySampler(const PeakMemorySampler&) = delete;
    PeakMemorySampler& operator=(const PeakMemorySampler&) = delete;

    void reset() { peakKb_.store(0); }
    void arm(bool on) { armed_.store(on); }
    double peakMb() const
    {
        return static_cast<double>(peakKb_.load()) / 1024.0;
    }

  private:
    /** Sum over @p pid's process tree; no allocation (the campaign
     *  forks while this runs). */
    static long treeKb(long pid, int depth)
    {
        long kb = residentKb(pid);
        if (depth == 0)
            return kb;
        char path[64];
        char buf[1024];
        std::snprintf(path, sizeof path, "/proc/%ld/task/%ld/children", pid,
                      pid);
        if (readSmall(path, buf, sizeof buf) <= 0)
            return kb;
        char* cursor = buf;
        while (*cursor != '\0') {
            char* end = nullptr;
            const long child = std::strtol(cursor, &end, 10);
            if (end == cursor)
                break;
            kb += treeKb(child, depth - 1);
            cursor = end;
        }
        return kb;
    }

    void loop()
    {
        const long self = static_cast<long>(::getpid());
        while (!stop_.load()) {
            if (armed_.load()) {
                const long kb = treeKb(self, 3);
                long seen = peakKb_.load();
                while (kb > seen && !peakKb_.compare_exchange_weak(seen, kb)) {
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    std::atomic<bool> stop_{false};
    std::atomic<bool> armed_{false};
    std::atomic<long> peakKb_{0};
    std::thread thread_;
};

/**
 * Earliest moment any worker asked the fuzzer factory for an
 * iteration's fuzzer. The page is shared with forked workers, and
 * steady_clock is CLOCK_MONOTONIC, so process workers stamp the same
 * timeline as the coordinator.
 */
class FirstIterationMark {
  public:
    FirstIterationMark()
    {
        void* page = ::mmap(nullptr, sizeof(std::atomic<int64_t>),
                            PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (page == MAP_FAILED) {
            std::perror("mmap");
            std::exit(2);
        }
        stamp_ = new (page) std::atomic<int64_t>(kUnset);
    }
    ~FirstIterationMark() { ::munmap(stamp_, sizeof(*stamp_)); }
    FirstIterationMark(const FirstIterationMark&) = delete;
    FirstIterationMark& operator=(const FirstIterationMark&) = delete;

    void reset() { stamp_->store(kUnset); }
    void mark()
    {
        const int64_t now = Clock::now().time_since_epoch().count();
        int64_t seen = stamp_->load();
        while (now < seen && !stamp_->compare_exchange_weak(seen, now)) {
        }
    }
    std::optional<Clock::time_point> get() const
    {
        const int64_t value = stamp_->load();
        if (value == kUnset)
            return std::nullopt;
        return Clock::time_point(Clock::duration(value));
    }

  private:
    static constexpr int64_t kUnset = INT64_MAX;
    std::atomic<int64_t>* stamp_ = nullptr;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
    std::string name;
    std::string why;
    size_t iterations = 0;
    int shards = 1;
    fuzz::WorkerMode mode = fuzz::WorkerMode::kThread;
    fuzz::NNSmithFuzzer::Options options;
    bool passFuzz = false;
    bool minimize = false;
    bool corpusGuided = false;
};

/** The paper's §5.1 generator and iteration-capped value search. */
fuzz::NNSmithFuzzer::Options
paperOptions()
{
    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10;
    options.generator.enableBinning = true;
    options.generator.binningK = 7;
    options.generator.solverKind = solver::SolverKind::kZ3;
    options.runValueSearch = true;
    options.search.method = autodiff::SearchMethod::kGradientProxy;
    // Out-of-reach wall budget: the iteration cap binds, so a case's
    // search work is a pure function of its seed.
    options.search.timeBudgetMs = 1e12;
    options.search.maxIterations = 32;
    options.batch = 1;
    return options;
}

std::optional<Workload>
makeWorkload(const std::string& name)
{
    Workload w;
    w.name = name;
    // Layer shares below are of traced wall, seed 2023, on a 4-core
    // container (perfbench/README.md has the full table).
    if (name == "paper-default") {
        // The paper's §5.1 campaign. generate() takes 48%, the fabric
        // 41% (hitsToWire 15%, serial merge 26%), backends 7%, value
        // search and reference execution under 1%: a solver or fabric
        // change shows here, a kernel change should not.
        w.why = "the paper's default campaign: generation 48% and "
                "hit encoding/merge 41% of wall, execution under 8%";
        w.iterations = 352;
        w.options = paperOptions();
        return w;
    }
    if (name == "heavy-exec") {
        // Not in BENCHMARK.json: throughput swings 20-26% from seed to
        // seed. The only native-solver and batched-executor campaign.
        // Encoding heavy repros (40%) and decoding them in the merge
        // (31%) dominate, backends take 15%, the interpreter 2%.
        // dimFloor 8 / dimCapScale 1 instead of bench_kernels' 16 / 2,
        // where one iteration takes about 2.5 s.
        w.why = "heavy tensors, native solver, batch 4: repro encode and "
                "merge ~70% of wall, backends 15%, interpreter 2%";
        w.iterations = 96;
        auto& o = w.options;
        o.generator.targetOpNodes = 10;
        o.generator.dimCapScale = 1;
        o.generator.dimFloor = 8;
        o.generator.solverKind = solver::SolverKind::kNative;
        o.generator.opAllowlist = {
            "Add",       "Sub",       "Mul",        "Div",     "Pow",
            "Max",       "Min",       "Equal",      "Greater", "Less",
            "And",       "Or",        "Xor",        "Relu",    "LeakyRelu",
            "Sigmoid",   "Tanh",      "Abs",        "Neg",     "Clip",
            "Softmax",   "Where",     "Cast",       "ReduceSum",
            "ReduceMean", "ReduceMax", "ReduceMin", "ReduceProd",
            "ArgMax",    "ArgMin"};
        o.runValueSearch = true;
        o.search.timeBudgetMs = 1e12;
        o.search.maxIterations = 32;
        o.batch = 4;
        return w;
    }
    if (name == "triage") {
        // The paper-default generator driven differently: ddmin takes
        // 25%, generation 31%, the fabric 33% (merge 20%), coverage
        // 5%, mutant iterations 2%, corpus replay and pool load 12 ms.
        // A fresh-generation gain that costs triage shows here.
        w.why = "pass fuzzing, ddmin, corpus replay and mutation on two "
                "process workers: ddmin 25%, generation 31%, fabric 33%";
        w.iterations = 416;
        w.shards = 2;
        w.mode = fuzz::WorkerMode::kProcess;
        w.options = paperOptions();
        w.passFuzz = true;
        w.minimize = true;
        w.corpusGuided = true;
        return w;
    }
    return std::nullopt;
}

/** The merged result's fuzzer label, as runParallelCampaign sets it. */
std::string
fuzzerName(const Workload& w)
{
    return w.corpusGuided ? "NNSmith+corpus" : "NNSmith";
}

std::vector<std::unique_ptr<backends::Backend>>
makeBackends(bool pass_fuzz, uint64_t seed)
{
    if (!pass_fuzz)
        return difftest::makeAllBackends();
    std::vector<std::unique_ptr<backends::Backend>> trio;
    trio.push_back(backends::makeOrtLite(seed | 1));
    trio.push_back(backends::makeTvmLite(seed | 1));
    trio.push_back(backends::makeTrtLite(seed | 1));
    return trio;
}

std::vector<backends::Backend*>
borrow(const std::vector<std::unique_ptr<backends::Backend>>& owned)
{
    std::vector<backends::Backend*> list;
    for (const auto& backend : owned)
        list.push_back(backend.get());
    return list;
}

/** Per-campaign directories: a fresh copy of the golden corpus (replay
 *  writes regressions.tsv into it) and a fresh report directory. */
struct CampaignDirs {
    std::string corpus;
    std::string reports;
};

class ScratchSpace {
  public:
    ScratchSpace(std::string root, std::string corpus_source)
        : root_(std::move(root)), source_(std::move(corpus_source))
    {
    }

    CampaignDirs fresh()
    {
        const fs::path base = fs::path(root_) / ("c" + std::to_string(next_++));
        fs::remove_all(base);
        fs::create_directories(base);
        fs::copy(source_, base / "corpus", fs::copy_options::recursive);
        return {(base / "corpus").string(), (base / "reports").string()};
    }

    void release(const CampaignDirs& dirs)
    {
        fs::remove_all(fs::path(dirs.corpus).parent_path());
    }

  private:
    std::string root_;
    std::string source_;
    int next_ = 0;
};

fuzz::CampaignConfig
campaignConfig(const Workload& w, size_t iterations, const CampaignDirs* dirs)
{
    fuzz::CampaignConfig config;
    // Far beyond the iteration cap's virtual cost: maxIterations binds.
    config.virtualBudget = 1ll << 40;
    config.maxIterations = iterations;
    config.coverageComponent = "";
    config.sampleEveryMinutes = 60;
    config.minimize = w.minimize;
    if (dirs != nullptr && w.corpusGuided) {
        config.corpusDir = dirs->corpus;
        config.reportDir = dirs->reports;
        config.corpusGuided = true;
    }
    return config;
}

fuzz::ParallelCampaignConfig
parallelConfig(const Workload& w, uint64_t seed, size_t iterations,
               const CampaignDirs* dirs, FirstIterationMark* mark)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign = campaignConfig(w, iterations, dirs);
    config.shards = w.shards;
    config.workerMode = w.mode;
    config.masterSeed = seed;
    config.fuzzerFactory = [options = w.options, mark](uint64_t s) {
        if (mark != nullptr)
            mark->mark();
        return std::make_unique<fuzz::NNSmithFuzzer>(options, s);
    };
    config.backendFactory = [pass_fuzz = w.passFuzz, seed]() {
        return makeBackends(pass_fuzz, seed);
    };
    return config;
}

// ---------------------------------------------------------------------------
// Canonical rendering of a merged result (the identity check)
// ---------------------------------------------------------------------------

std::string
renderSites(const coverage::CoverageMap& map)
{
    const std::vector<coverage::BranchId> ids(map.branches().begin(),
                                              map.branches().end());
    std::vector<std::string> keys;
    for (const auto& site :
         coverage::CoverageRegistry::instance().describeSites(ids))
        keys.push_back(site.key);
    std::sort(keys.begin(), keys.end());
    std::string out;
    for (const auto& key : keys)
        out += key + "\n";
    return out;
}

/** Everything a merged campaign result says, as one string: coverage
 *  site keys, full wire bug documents, instance keys, defects found,
 *  corpus verdicts and the counters. */
std::string
renderResult(const fuzz::CampaignResult& result)
{
    // encodeBug re-runs the ONNX export: keep its hits and triggers
    // out of global state.
    coverage::CoverageCollector scratch;
    backends::DefectRegistry::TraceScope trace_scope;
    std::ostringstream out;
    out << "fuzzer " << result.fuzzer << "\niterations " << result.iterations
        << "\nproduced " << result.produced << "\nvirtual "
        << result.virtualTime << " " << result.activeTime << "\n";
    out << "[coverAll]\n" << renderSites(result.coverAll);
    out << "[coverPass]\n" << renderSites(result.coverPass);
    for (const auto& [key, bug] : result.bugs)
        out << "[bug " << key << "]\n" << fuzz::wire::encodeBug(bug) << "\n";
    out << "[instances]\n";
    for (const auto& key : result.instanceKeys)
        out << key << "\n";
    out << "[defects]\n";
    for (const auto& id : result.defectsFound)
        out << id << "\n";
    out << "[regressions]\n" << corpus::renderRegressions(result.regressions);
    return out.str();
}

// ---------------------------------------------------------------------------
// Untraced campaigns
// ---------------------------------------------------------------------------

struct CampaignRun {
    double setupSeconds = 0.0; ///< start -> first iteration requested
    double runSeconds = 0.0;   ///< first iteration -> merged result
    fuzz::CampaignResult result;
};

CampaignRun
runUntraced(const Workload& w, uint64_t seed, size_t iterations,
            ScratchSpace& scratch, FirstIterationMark& mark)
{
    std::optional<CampaignDirs> dirs;
    if (w.corpusGuided)
        dirs = scratch.fresh();
    const auto config =
        parallelConfig(w, seed, iterations, dirs ? &*dirs : nullptr, &mark);
    mark.reset();
    const auto start = Clock::now();
    CampaignRun run;
    run.result = fuzz::runParallelCampaign(config);
    const auto end = Clock::now();
    const auto first = mark.get().value_or(end);
    run.setupSeconds = secondsBetween(start, first);
    run.runSeconds = secondsBetween(first, end);
    if (dirs)
        scratch.release(*dirs);
    return run;
}

// ---------------------------------------------------------------------------
// Traced replay: the same iterations, one public call at a time
// ---------------------------------------------------------------------------

/** Per-call wall samples (ms) and counters of the traced run. */
class Ledger {
  public:
    template <typename F>
    auto time(const std::string& call, F&& body) -> decltype(body())
    {
        const auto start = Clock::now();
        if constexpr (std::is_void_v<decltype(body())>) {
            body();
            record(call, start);
        } else {
            auto value = body();
            record(call, start);
            return value;
        }
    }

    void count(const std::string& name, double delta = 1.0)
    {
        counts_[name] += delta;
    }

    double total(const std::string& call) const
    {
        const auto it = samples_.find(call);
        double sum = 0.0;
        if (it != samples_.end())
            for (double v : it->second)
                sum += v;
        return sum;
    }
    std::vector<double> samples(const std::string& call) const
    {
        const auto it = samples_.find(call);
        return it == samples_.end() ? std::vector<double>() : it->second;
    }
    double counter(const std::string& name) const
    {
        const auto it = counts_.find(name);
        return it == counts_.end() ? 0.0 : it->second;
    }
    const std::map<std::string, std::vector<double>>& all() const
    {
        return samples_;
    }

  private:
    void record(const std::string& call, Clock::time_point start)
    {
        samples_[call].push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
    }

    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> counts_;
};

/**
 * One NNSmith iteration (fuzz::NNSmithFuzzer::iterate followed by
 * fuzz::executeGraphCaseBatch and difftest::runCase/runCaseBatch),
 * rebuilt from the public calls so each one can be timed.
 */
fuzz::IterationOutcome
tracedNNSmith(const fuzz::NNSmithFuzzer::Options& options, uint64_t seed,
              const std::vector<backends::Backend*>& backend_list,
              Ledger& ledger)
{
    using difftest::Verdict;
    Rng rng(seed);
    ledger.count("gen.attempts");
    const auto model = ledger.time("gen.generate", [&] {
        gen::GraphGenerator generator(options.generator, seed);
        return generator.generate();
    });
    const size_t lanes_per_case = std::max<size_t>(options.batch, 1);
    fuzz::IterationOutcome outcome;
    if (!model) {
        ledger.count("gen.failures");
        ledger.count("cases.failed_gen", static_cast<double>(lanes_per_case));
        outcome.cost =
            options.cost.generationPerOp * options.generator.targetOpNodes;
        return outcome;
    }
    ledger.count("gen.models");
    ledger.count("gen.solver_queries", model->solverQueries);
    ledger.count("gen.rejected", model->rejectedInsertions);
    const graph::Graph& graph = model->graph;

    std::vector<exec::LeafValues> lanes;
    if (options.runValueSearch) {
        const auto search = ledger.time("autodiff.search", [&] {
            return autodiff::search(graph, rng, options.search);
        });
        ledger.count("autodiff.searches");
        ledger.count("autodiff.iterations", search.iterations);
        if (search.success) {
            ledger.count("autodiff.successes");
            lanes.push_back(search.values);
        } else {
            lanes.push_back(ledger.time("exec.randomLeaves", [&] {
                return exec::randomLeaves(graph, rng, options.search.initLo,
                                          options.search.initHi);
            }));
        }
    } else {
        lanes.push_back(ledger.time("exec.randomLeaves", [&] {
            return exec::randomLeaves(graph, rng);
        }));
    }
    for (size_t l = 1; l < options.batch; ++l)
        lanes.push_back(ledger.time("exec.randomLeaves", [&] {
            return exec::randomLeaves(graph, rng);
        }));

    // Reference outputs: the sequential interpreter for one lane, the
    // batched executor otherwise (the two paths the fuzzer takes).
    const bool sweep = options.batchSweep && lanes.size() > 1;
    std::vector<exec::ExecResult> references;
    if (sweep) {
        references = ledger.time("exec.reference", [&] {
            return exec::executeBatched(graph, lanes);
        });
    } else {
        for (const auto& leaves : lanes)
            references.push_back(ledger.time("exec.reference", [&] {
                return exec::execute(graph, leaves);
            }));
    }

    // Export once; its triggers open every lane's defect trace.
    std::vector<std::string> export_trace;
    onnx::OnnxModel onnx_model;
    bool export_ok = true;
    std::string export_kind;
    {
        backends::DefectRegistry::TraceScope export_scope;
        ledger.time("onnx.exportGraph", [&] {
            try {
                onnx_model = onnx::exportGraph(graph);
            } catch (const backends::BackendError& error) {
                export_ok = false;
                export_kind = error.kind();
            }
        });
        export_trace = export_scope.trace();
    }

    outcome.produced = true;
    for (size_t l = 0; l < lanes.size(); ++l) {
        difftest::CaseResult result;
        result.referenceValid = references[l].numericallyValid();
        ledger.count(l == 0 ? "exec.lane0" : "exec.extra_lanes");
        if (result.referenceValid)
            ledger.count(l == 0 ? "exec.lane0_valid" : "exec.extra_valid");
        if (!export_ok) {
            result.exportOk = false;
            result.exportCrashKind = export_kind;
            result.triggeredDefects = export_trace;
        } else {
            backends::DefectRegistry::TraceScope lane_scope;
            for (backends::Backend* backend : backend_list) {
                difftest::BackendVerdict verdict;
                verdict.backend = backend->name();
                const std::string run_call =
                    "backends." + backend->name() + ".run";
                const backends::RunResult o3 = ledger.time(run_call, [&] {
                    return backend->run(onnx_model, lanes[l],
                                        backends::OptLevel::kO3);
                });
                ledger.count("backends.runs");
                if (o3.status == backends::RunResult::Status::kCrash) {
                    ledger.count("backends.crashes");
                    verdict.verdict = Verdict::kCrash;
                    verdict.crashKind = o3.crashKind;
                    verdict.detail = o3.crashMessage;
                } else if (!result.referenceValid) {
                    verdict.verdict = Verdict::kSkippedNaN;
                } else if (!ledger.time("difftest.allClose", [&] {
                               return difftest::allClose(
                                   o3.outputs, references[l].outputs);
                           })) {
                    verdict.verdict = Verdict::kWrongResult;
                    verdict.detail = ledger.time("difftest.allClose", [&] {
                        return difftest::firstDifference(
                            o3.outputs, references[l].outputs);
                    });
                    ledger.count("difftest.o0_reruns");
                    const backends::RunResult o0 = ledger.time(run_call, [&] {
                        return backend->run(onnx_model, lanes[l],
                                            backends::OptLevel::kO0);
                    });
                    verdict.localizedToOptimizer =
                        o0.status == backends::RunResult::Status::kOk &&
                        !ledger.time("difftest.allClose", [&] {
                            return difftest::allClose(o0.outputs, o3.outputs);
                        });
                }
                result.verdicts.push_back(std::move(verdict));
            }
            result.triggeredDefects = export_trace;
            for (const std::string& id : lane_scope.trace()) {
                if (std::find(export_trace.begin(), export_trace.end(), id) ==
                    export_trace.end())
                    result.triggeredDefects.push_back(id);
            }
        }
        auto bugs = ledger.time("difftest.bugsFromCase", [&] {
            auto found = fuzz::bugsFromCase(result);
            if (!found.empty()) {
                auto repro = std::make_shared<fuzz::GraphRepro>();
                repro->graph = graph;
                repro->leaves = lanes[l];
                for (auto& bug : found)
                    bug.graphRepro = repro;
            }
            return found;
        });
        if (bugs.empty() && !result.referenceValid)
            ledger.count("cases.failed_nan");
        if (result.referenceValid)
            ledger.count("cases.valid");
        for (auto& bug : bugs)
            outcome.bugs.push_back(std::move(bug));
        const fuzz::CostModel& cost = options.cost;
        for (const auto* backend : backend_list) {
            if (backend->name() == "OrtLite")
                outcome.cost += cost.backendCompileOrt + cost.run;
            else if (backend->name() == "TVMLite")
                outcome.cost += cost.backendCompileTvm + cost.run;
            else
                outcome.cost += cost.backendCompileTrt + cost.run;
        }
    }
    outcome.cost += options.cost.generationPerOp * graph.numOpNodes() +
                    (options.runValueSearch ? options.cost.valueSearch : 0);
    outcome.instanceKeys = model->instanceKeys();
    return outcome;
}

/** Would CorpusGuidedFuzzer(seed) draw a fresh case? Mirrors the
 *  first draw of its iterate(); a wrong guess shows up as a mismatch
 *  in the identity check. */
bool
corpusGuidedDrawsFresh(const fuzz::MutationPool& pool, uint64_t seed,
                       const std::vector<backends::Backend*>& backend_list)
{
    bool any = (!backend_list.empty() && !pool.graphSeeds().empty()) ||
               !pool.tirSeqSeeds().empty();
    for (const auto& seq : pool.graphSeqSeeds())
        for (const auto* backend : backend_list)
            any = any || backend->name() == seq.backend;
    Rng coin(seed);
    return !any ||
           !coin.chance(fuzz::CorpusGuidedFuzzer::Options().mutationRate);
}

struct TracedRun {
    double wallSeconds = 0.0;
    Ledger ledger;
    fuzz::CampaignResult result;
    std::vector<fuzz::BugRecord> sampleBugs; ///< for the reduce probe
    size_t wireBytes = 0;
    bool wireRoundTrips = true;
};

/**
 * The campaign of @p w, replayed serially on this thread: corpus
 * replay and mutation-pool load as runParallelCampaign does them, then
 * every global iteration as fuzz/worker_runtime.cpp's runOneIteration
 * does it, then mergeShardResults. Every library call is timed.
 */
TracedRun
runTraced(const Workload& w, uint64_t seed, size_t iterations,
          ScratchSpace& scratch)
{
    TracedRun traced;
    Ledger& ledger = traced.ledger;
    std::optional<CampaignDirs> dirs;
    if (w.corpusGuided)
        dirs = scratch.fresh();
    const fuzz::CampaignConfig config =
        campaignConfig(w, iterations, dirs ? &*dirs : nullptr);

    const auto start = Clock::now();
    coverage::CoverageRegistry::instance().resetHits();
    corpus::ReplayResult regressions;
    std::shared_ptr<const fuzz::MutationPool> pool;
    if (dirs) {
        coverage::CoverageCollector replay_hits;
        const auto owned = ledger.time(
            "setup.backends", [&] { return makeBackends(w.passFuzz, seed); });
        regressions = ledger.time("corpus.replayCorpus", [&] {
            auto verdicts = corpus::replayCorpus(dirs->corpus, borrow(owned));
            corpus::writeRegressions(dirs->corpus, verdicts);
            return verdicts;
        });
        pool = ledger.time("corpus.poolLoad", [&] {
            return std::make_shared<const fuzz::MutationPool>(
                fuzz::MutationPool::fromCorpusDir(dirs->corpus));
        });
    }

    fuzz::ShardResult shard;
    {
        coverage::CoverageCollector collector;
        const auto owned = ledger.time(
            "setup.backends", [&] { return makeBackends(w.passFuzz, seed); });
        const auto backend_list = borrow(owned);
        ledger.time("coverage.take", [&] { collector.take(); });
        for (size_t index = 0; index < iterations; ++index) {
            const uint64_t it_seed = fuzz::deriveIterationSeed(seed, index);
            fuzz::IterationOutcome outcome;
            if (pool == nullptr ||
                corpusGuidedDrawsFresh(*pool, it_seed, backend_list)) {
                outcome =
                    tracedNNSmith(w.options, it_seed, backend_list, ledger);
            } else {
                ledger.count("mutate.iterations");
                fuzz::CorpusGuidedFuzzer fuzzer(
                    std::make_unique<fuzz::NNSmithFuzzer>(w.options, it_seed),
                    pool, it_seed);
                outcome = ledger.time("mutate.iterate", [&] {
                    return fuzzer.iterate(backend_list);
                });
            }
            fuzz::ShardResult::IterationRecord record;
            record.index = index;
            record.cost = outcome.cost;
            record.produced = outcome.produced;
            record.instanceKeys = std::move(outcome.instanceKeys);
            const auto ids = ledger.time("coverage.take",
                                         [&] { return collector.take(); });
            ledger.count("coverage.hits", static_cast<double>(ids.size()));
            record.hits = ledger.time("fuzz.wire.hitsToWire", [&] {
                return fuzz::wire::hitsToWire(ids);
            });
            if (!outcome.bugs.empty()) {
                if (w.minimize) {
                    ledger.count("reduce.bugs",
                                 static_cast<double>(outcome.bugs.size()));
                    ledger.time("reduce.minimizeBugs", [&] {
                        reduce::minimizeBugs(outcome.bugs, backend_list);
                    });
                    for (const auto& bug : outcome.bugs) {
                        if (bug.minimized && bug.originalSize > 0) {
                            ledger.count("reduce.minimized");
                            ledger.count(
                                "reduce.ratio_sum",
                                static_cast<double>(bug.minimizedSize) /
                                    static_cast<double>(bug.originalSize));
                        }
                    }
                }
                backends::DefectRegistry::TraceScope trace_scope;
                for (const auto& bug : outcome.bugs)
                    record.bugs.push_back(
                        ledger.time("fuzz.wire.encodeBug", [&] {
                            return fuzz::wire::encodeBug(bug);
                        }));
                ledger.time("coverage.take", [&] { collector.take(); });
                for (auto& bug : outcome.bugs)
                    if (traced.sampleBugs.size() < 8 &&
                        bug.graphRepro != nullptr)
                        traced.sampleBugs.push_back(std::move(bug));
            }
            shard.records.push_back(std::move(record));
        }
    }

    traced.result = ledger.time("fuzz.mergeShardResults", [&] {
        return fuzz::mergeShardResults({shard}, config, fuzzerName(w));
    });
    traced.result.regressions = std::move(regressions);
    if (dirs && !config.reportDir.empty())
        ledger.time("reduce.writeReproReports", [&] {
            reduce::writeReproReports(traced.result.bugs, config.reportDir);
        });
    traced.wallSeconds = secondsBetween(start, Clock::now());

    // Untimed: the records' wire encoding must survive
    // serialize -> parse -> serialize byte-for-byte.
    const std::string encoded = fuzz::wire::encodeRecords(shard.records);
    traced.wireBytes = encoded.size();
    traced.wireRoundTrips = fuzz::wire::encodeRecords(
                                fuzz::wire::decodeRecords(encoded)) == encoded;
    if (dirs)
        scratch.release(*dirs);
    return traced;
}

/**
 * runParallelCampaign's coordinator, step by step, so runShards and
 * mergeShardResults can be timed on the workload's real worker
 * runtime.
 */
struct FabricTiming {
    double runShardsSeconds = 0.0;
    double mergeSeconds = 0.0;
    fuzz::CampaignResult result;
};

FabricTiming
runFabric(const Workload& w, uint64_t seed, size_t iterations,
          ScratchSpace& scratch)
{
    FabricTiming timing;
    std::optional<CampaignDirs> dirs;
    if (w.corpusGuided)
        dirs = scratch.fresh();
    auto config =
        parallelConfig(w, seed, iterations, dirs ? &*dirs : nullptr, nullptr);
    coverage::CoverageRegistry::instance().resetHits();
    if (dirs) {
        coverage::CoverageCollector replay_hits;
        const auto owned = config.backendFactory();
        timing.result.regressions =
            corpus::replayCorpus(dirs->corpus, borrow(owned));
        corpus::writeRegressions(dirs->corpus, timing.result.regressions);
        auto pool = std::make_shared<const fuzz::MutationPool>(
            fuzz::MutationPool::fromCorpusDir(dirs->corpus));
        const auto inner = config.fuzzerFactory;
        config.fuzzerFactory = [inner, pool](uint64_t s) {
            return std::make_unique<fuzz::CorpusGuidedFuzzer>(inner(s), pool,
                                                              s);
        };
    }
    auto t1 = Clock::now();
    const auto shards =
        fuzz::makeWorkerRuntime(config.workerMode)->runShards(config);
    auto t2 = Clock::now();
    auto regressions = std::move(timing.result.regressions);
    timing.result =
        fuzz::mergeShardResults(shards, config.campaign, fuzzerName(w));
    auto t3 = Clock::now();
    timing.result.regressions = std::move(regressions);
    timing.runShardsSeconds = secondsBetween(t1, t2);
    timing.mergeSeconds = secondsBetween(t2, t3);
    if (dirs)
        scratch.release(*dirs);
    return timing;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string scratch;
    std::string corpus;
};

std::optional<Args>
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return std::nullopt;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value);
            else if (flag == "--scratch")
                args.scratch = value;
            else if (flag == "--corpus")
                args.corpus = value;
            else
                return std::nullopt;
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (args.workload.empty() || args.scratch.empty() || args.corpus.empty() ||
        (args.trace != 0 && args.trace != 1))
        return std::nullopt;
    return args;
}

std::string
z3Version()
{
#if NNSMITH_HAVE_Z3
    return Z3_get_full_version();
#else
    return "none";
#endif
}

void
printEnvironment(const Workload& w, const Args& args, size_t iterations)
{
    std::printf("env {\"workload\": %s, \"seed\": %llu, "
                "\"default_seed\": %llu, "
                "\"held_out_seed\": %llu, \"hardware_threads\": %u, "
                "\"build_type\": %s, \"compiler\": %s, \"z3\": %s, "
                "\"iterations\": %zu, \"shards\": %d, \"worker_mode\": %s, "
                "\"batch\": %zu, \"why\": %s}\n",
                jsonString(w.name).c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(kDefaultSeed),
                static_cast<unsigned long long>(kHeldOutSeed),
                std::thread::hardware_concurrency(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(std::string("gcc-compatible ") + __VERSION__)
                    .c_str(),
                jsonString(z3Version()).c_str(), iterations, w.shards,
                jsonString(fuzz::workerModeName(w.mode)).c_str(),
                std::max<size_t>(w.options.batch, 1),
                jsonString(w.why).c_str());
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, double attempted, double failed,
            const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " +
           std::to_string(static_cast<long long>(attempted));
    out += ", \"failed\": " + std::to_string(static_cast<long long>(failed));
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(metrics[i].name) + ": {\"value\": " +
               jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** Checks renderings against the first one seen, and named facts. */
class IdentityCheck {
  public:
    void expect(const std::string& label, const std::string& rendering)
    {
        if (reference_.empty()) {
            reference_ = rendering;
            std::printf("identity reference %s digest=%s bytes=%zu\n",
                        label.c_str(), hex(fnv1a(rendering)).c_str(),
                        rendering.size());
            return;
        }
        const bool same = rendering == reference_;
        ok_ = ok_ && same;
        std::printf("identity %s digest=%s %s\n", label.c_str(),
                    hex(fnv1a(rendering)).c_str(),
                    same ? "matches" : "MISMATCH");
    }
    void require(const std::string& what, bool holds)
    {
        ok_ = ok_ && holds;
        if (!holds)
            std::printf("check failed: %s\n", what.c_str());
    }
    bool ok() const { return ok_; }

  private:
    std::string reference_;
    bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Process isolation
// ---------------------------------------------------------------------------

void
writeAll(int fd, const std::string& data)
{
    size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        done += static_cast<size_t>(n);
    }
}

/**
 * Run @p body in a forked child and return the string it produced.
 * Every measured campaign starts from the same fresh process state:
 * campaigns repeated inside one process run about 25% slower from the
 * second one on, which would measure the benchmark's own history.
 * Throws if the child fails.
 */
std::string
runIsolated(const std::function<std::string()>& body)
{
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        std::string out;
        try {
            out = body();
        } catch (const std::exception& error) {
            out = std::string("error: ") + error.what();
            code = 3;
        }
        writeAll(fds[1], out);
        ::close(fds[1]);
        ::_exit(code);
    }
    ::close(fds[1]);
    std::string data;
    char buf[1 << 16];
    while (true) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        data.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("isolated run failed: " + data.substr(0, 300));
    return data;
}

/** What a campaign child reports: timings, counts and the rendering. */
struct CampaignSummary {
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    size_t iterations = 0;
    size_t branches = 0;
    size_t bugs = 0;
    size_t respawns = 0;
    double lostCases = 0.0;
    bool keysMatch = true;
    std::string rendering;

    std::string encode() const
    {
        char head[256];
        std::snprintf(head, sizeof head, "%.9f %.9f %zu %zu %zu %zu %.0f %d\n",
                      setupSeconds, runSeconds, iterations, branches, bugs,
                      respawns, lostCases, keysMatch ? 1 : 0);
        return head + rendering;
    }
    static CampaignSummary decode(const std::string& data)
    {
        CampaignSummary out;
        const size_t nl = data.find('\n');
        int keys = 0;
        if (nl == std::string::npos ||
            std::sscanf(data.c_str(), "%lf %lf %zu %zu %zu %zu %lf %d",
                        &out.setupSeconds, &out.runSeconds, &out.iterations,
                        &out.branches, &out.bugs, &out.respawns,
                        &out.lostCases, &keys) != 8)
            throw std::runtime_error("malformed campaign summary");
        out.keysMatch = keys != 0;
        out.rendering = data.substr(nl + 1);
        return out;
    }
};

/** Cases lost to worker faults: each fault re-ran its shard's share
 *  of the round. */
double
lostCases(const fuzz::CampaignResult& result, const Workload& w)
{
    double lost = 0.0;
    for (const auto& fault : result.workerFaults) {
        const size_t span = fault.roundEnd - fault.roundBegin;
        lost += static_cast<double>((span + w.shards - 1) / w.shards);
    }
    return lost * static_cast<double>(std::max<size_t>(w.options.batch, 1));
}

/**
 * Case accounting the merged result does not carry: the validity of
 * every case's reference and the cause of every failed case. Runs the
 * traced replay's per-iteration calls (untimed) on a few threads.
 */
struct CaseCounts {
    double valid = 0, failedGen = 0, failedNan = 0, mutants = 0;
    std::set<std::string> bugKeys;
    std::set<std::string> instanceKeys;

    std::string encode() const
    {
        char head[128];
        std::snprintf(head, sizeof head, "%.0f %.0f %.0f %.0f\n", valid,
                      failedGen, failedNan, mutants);
        std::string out = head;
        for (const auto& key : instanceKeys)
            out += "I " + key + "\n";
        for (const auto& key : bugKeys)
            out += "B " + key + "\n";
        return out;
    }
    static CaseCounts decode(const std::string& data)
    {
        CaseCounts out;
        std::istringstream in(data);
        std::string line;
        std::getline(in, line);
        if (std::sscanf(line.c_str(), "%lf %lf %lf %lf", &out.valid,
                        &out.failedGen, &out.failedNan, &out.mutants) != 4)
            throw std::runtime_error("malformed case counts");
        while (std::getline(in, line)) {
            if (line.rfind("I ", 0) == 0)
                out.instanceKeys.insert(line.substr(2));
            else if (line.rfind("B ", 0) == 0)
                out.bugKeys.insert(line.substr(2));
        }
        return out;
    }
};

CaseCounts
countCases(const Workload& w, uint64_t seed, size_t iterations,
           ScratchSpace& scratch)
{
    std::shared_ptr<const fuzz::MutationPool> pool;
    if (w.corpusGuided) {
        const CampaignDirs dirs = scratch.fresh();
        pool = std::make_shared<const fuzz::MutationPool>(
            fuzz::MutationPool::fromCorpusDir(dirs.corpus));
        scratch.release(dirs);
    }
    const size_t threads = std::clamp<size_t>(
        std::thread::hardware_concurrency() > 1
            ? std::thread::hardware_concurrency() - 1
            : 1,
        1, 3);
    std::vector<Ledger> ledgers(threads);
    std::vector<CaseCounts> keys(threads);
    std::vector<std::exception_ptr> errors(threads);
    {
        std::vector<std::thread> workers;
        for (size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                try {
                    coverage::CoverageCollector collector;
                    const auto owned = makeBackends(w.passFuzz, seed);
                    const auto backend_list = borrow(owned);
                    for (size_t i = t; i < iterations; i += threads) {
                        const uint64_t it_seed =
                            fuzz::deriveIterationSeed(seed, i);
                        if (pool != nullptr &&
                            !corpusGuidedDrawsFresh(*pool, it_seed,
                                                    backend_list)) {
                            ledgers[t].count("mutate.iterations");
                            continue;
                        }
                        const auto outcome = tracedNNSmith(
                            w.options, it_seed, backend_list, ledgers[t]);
                        for (const auto& bug : outcome.bugs)
                            keys[t].bugKeys.insert(bug.dedupKey);
                        keys[t].instanceKeys.insert(
                            outcome.instanceKeys.begin(),
                            outcome.instanceKeys.end());
                        collector.take();
                    }
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
        }
        for (auto& worker : workers)
            worker.join();
    }
    CaseCounts counts;
    for (size_t t = 0; t < threads; ++t) {
        if (errors[t])
            std::rethrow_exception(errors[t]);
        counts.valid += ledgers[t].counter("cases.valid");
        counts.failedGen += ledgers[t].counter("cases.failed_gen");
        counts.failedNan += ledgers[t].counter("cases.failed_nan");
        counts.mutants += ledgers[t].counter("mutate.iterations");
        counts.bugKeys.insert(keys[t].bugKeys.begin(), keys[t].bugKeys.end());
        counts.instanceKeys.insert(keys[t].instanceKeys.begin(),
                                   keys[t].instanceKeys.end());
    }
    return counts;
}

/**
 * One untraced campaign in a fresh child process. With @p expected,
 * the child also checks that the re-run cases are the campaign's
 * cases: the same instance keys and, where ddmin does not rewrite
 * them, the same bug keys.
 */
CampaignSummary
runCampaignIsolated(const Workload& w, uint64_t seed, size_t iterations,
                    ScratchSpace& scratch, FirstIterationMark& mark,
                    const CaseCounts* expected, bool render)
{
    return CampaignSummary::decode(runIsolated([&] {
        CampaignRun run = runUntraced(w, seed, iterations, scratch, mark);
        CampaignSummary summary;
        summary.setupSeconds = run.setupSeconds;
        summary.runSeconds = run.runSeconds;
        summary.iterations = run.result.iterations;
        summary.branches = run.result.coverAll.count();
        summary.bugs = run.result.bugs.size();
        summary.respawns = run.result.respawns;
        summary.lostCases = lostCases(run.result, w);
        if (expected != nullptr && w.corpusGuided) {
            summary.keysMatch = std::includes(
                run.result.instanceKeys.begin(), run.result.instanceKeys.end(),
                expected->instanceKeys.begin(), expected->instanceKeys.end());
        } else if (expected != nullptr) {
            std::set<std::string> bug_keys;
            for (const auto& entry : run.result.bugs)
                bug_keys.insert(entry.first);
            summary.keysMatch =
                expected->instanceKeys == run.result.instanceKeys &&
                (w.minimize || expected->bugKeys == bug_keys);
        }
        if (render)
            summary.rendering = renderResult(run.result);
        return summary.encode();
    }));
}

int
runEndToEnd(const Workload& w, const Args& args, size_t iterations,
            ScratchSpace& scratch)
{
    PeakMemorySampler memory;
    FirstIterationMark mark;
    IdentityCheck identity;

    // Set-up is short next to a campaign, so it is sampled on its own
    // one-round campaigns.
    std::vector<double> setups;
    const size_t setup_iterations = static_cast<size_t>(w.shards);
    for (int rep = 0; rep < 11; ++rep)
        setups.push_back(runCampaignIsolated(w, args.seed, setup_iterations,
                                             scratch, mark, nullptr, false)
                             .setupSeconds);

    // Validity and failure causes come from re-running the cases; the
    // work is a pure function of the seed, so the counts are exact.
    const CaseCounts counts = CaseCounts::decode(runIsolated([&] {
        return countCases(w, args.seed, iterations, scratch).encode();
    }));

    std::vector<double> run_seconds, peaks;
    CampaignSummary last;
    const auto begin = Clock::now();
    do {
        memory.reset();
        memory.arm(true);
        last = runCampaignIsolated(w, args.seed, iterations, scratch, mark,
                                   &counts, true);
        memory.arm(false);
        peaks.push_back(memory.peakMb());
        run_seconds.push_back(last.runSeconds);
        identity.expect("campaign#" + std::to_string(run_seconds.size()),
                        last.rendering);
        identity.require("re-run cases are the campaign's cases",
                         last.keysMatch);
        identity.require("campaign ran every iteration",
                         last.iterations == iterations);
        std::printf("campaign rep=%zu setup_s=%.6f run_s=%.6f peak_mb=%.1f "
                    "branches=%zu bugs=%zu respawns=%zu\n",
                    run_seconds.size(), last.setupSeconds, last.runSeconds,
                    peaks.back(), last.branches, last.bugs, last.respawns);
    } while (run_seconds.size() < 3 ||
             // another campaign still fits in the time budget
             secondsBetween(begin, Clock::now()) + median(run_seconds) <=
                 args.seconds);

    const double lanes =
        static_cast<double>(std::max<size_t>(w.options.batch, 1));
    const double attempted =
        static_cast<double>(iterations) * lanes + last.lostCases;
    const double failed = counts.failedGen + counts.failedNan + last.lostCases;
    const double run_s = median(run_seconds);
    std::printf("cases attempted=%.0f valid=%.0f failed=%.0f (gen_gave_up=%.0f "
                "skipped_nan=%.0f worker_fault=%.0f) mutant_iterations=%.0f "
                "(validity not observed)\n",
                attempted, counts.valid, failed, counts.failedGen,
                counts.failedNan, last.lostCases, counts.mutants);

    const std::vector<Metric> metrics = {
        {"iters_per_s", static_cast<double>(iterations) / run_s, "1/s"},
        {"cases_per_s", static_cast<double>(iterations) * lanes / run_s, "1/s"},
        {"valid_cases_per_s", counts.valid / run_s, "1/s"},
        {"coverage_branches", static_cast<double>(last.branches), "count"},
        {"peak_rss_mb", median(peaks), "MB"},
        {"setup_s", median(setups), "s"},
    };
    // Two metrics swing too far from seed to seed to carry a bound:
    // failed_case_share (a handful of cases, sometimes none) travels as
    // the result line's failed/attempted, unique_bugs as a record.
    std::printf("metric failed_case_share=%.6f share\n", failed / attempted);
    std::printf("metric unique_bugs=%zu count\n", last.bugs);
    for (const auto& metric : metrics)
        std::printf("metric %s=%.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    printResult(identity.ok(), attempted, failed, metrics);
    return identity.ok() ? 0 : 1;
}

double
per(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Module of a timed call, for the attribution table. */
std::string
moduleOf(const std::string& call)
{
    if (call.rfind("fuzz.", 0) == 0)
        return "fuzz";
    return call.substr(0, call.find('.'));
}

/** Layer metrics the ledger reports for every workload. */
struct Probes {
    double minimizeMsPerBug = 0.0;
    double sizeRatio = 0.0;
    double corpusSeconds = 0.0;
    double mutantMs = 0.0;
    const char* reduceSource = "campaign";
    const char* corpusSource = "campaign";
};

/**
 * The reduce, corpus and mutate metrics: from the traced campaign when
 * the workload uses those layers, otherwise from probes, so every
 * ledger metric is a measurement. The probes run ddmin on two of the
 * replay's own bugs, and load and replay a fresh corpus copy followed
 * by eight mutant iterations over it.
 */
Probes
measureProbes(const Workload& w, uint64_t seed, const TracedRun& traced,
              ScratchSpace& scratch)
{
    const Ledger& ledger = traced.ledger;
    Probes probes;
    if (w.minimize) {
        probes.minimizeMsPerBug = per(ledger.total("reduce.minimizeBugs"),
                                      ledger.counter("reduce.bugs"));
        probes.sizeRatio = per(ledger.counter("reduce.ratio_sum"),
                               ledger.counter("reduce.minimized"));
    } else {
        probes.reduceSource = "probe";
        std::vector<fuzz::BugRecord> sample = traced.sampleBugs;
        std::sort(sample.begin(), sample.end(),
                  [](const auto& a, const auto& b) {
                      return a.graphRepro->graph.numOpNodes() <
                             b.graphRepro->graph.numOpNodes();
                  });
        sample.resize(std::min<size_t>(sample.size(), 2));
        const auto owned = makeBackends(w.passFuzz, seed);
        coverage::CoverageCollector probe_hits;
        const auto start = Clock::now();
        reduce::minimizeBugs(sample, borrow(owned));
        const double ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - start)
                              .count();
        double ratio_sum = 0.0, minimized = 0.0;
        for (const auto& bug : sample) {
            if (bug.minimized && bug.originalSize > 0) {
                ratio_sum += static_cast<double>(bug.minimizedSize) /
                             static_cast<double>(bug.originalSize);
                minimized += 1.0;
            }
        }
        probes.minimizeMsPerBug = per(ms, static_cast<double>(sample.size()));
        probes.sizeRatio = per(ratio_sum, minimized);
    }
    if (w.corpusGuided) {
        probes.corpusSeconds = (ledger.total("corpus.replayCorpus") +
                                ledger.total("corpus.poolLoad")) /
                               1e3;
        probes.mutantMs = per(ledger.total("mutate.iterate"),
                              ledger.counter("mutate.iterations"));
        return probes;
    }
    probes.corpusSource = "probe";
    const CampaignDirs dirs = scratch.fresh();
    const auto owned = makeBackends(w.passFuzz, seed);
    const auto backend_list = borrow(owned);
    coverage::CoverageCollector probe_hits;
    const auto start = Clock::now();
    corpus::writeRegressions(dirs.corpus,
                             corpus::replayCorpus(dirs.corpus, backend_list));
    const auto pool = std::make_shared<const fuzz::MutationPool>(
        fuzz::MutationPool::fromCorpusDir(dirs.corpus));
    probes.corpusSeconds = secondsBetween(start, Clock::now());
    // The coin forced to mutate.
    fuzz::CorpusGuidedFuzzer::Options always;
    always.mutationRate = 1.0;
    const auto mutants = Clock::now();
    for (size_t i = 0; i < 8; ++i) {
        const uint64_t it_seed = fuzz::deriveIterationSeed(seed, i);
        fuzz::CorpusGuidedFuzzer fuzzer(
            std::make_unique<fuzz::NNSmithFuzzer>(w.options, it_seed), pool,
            it_seed, always);
        fuzzer.iterate(backend_list);
    }
    probes.mutantMs =
        std::chrono::duration<double, std::milli>(Clock::now() - mutants)
            .count() /
        8;
    scratch.release(dirs);
    return probes;
}

int
runLedger(const Workload& w, const Args& args, size_t iterations,
          ScratchSpace& scratch)
{
    FirstIterationMark mark;
    IdentityCheck identity;
    const auto begin = Clock::now();

    // Untraced campaigns for half the time budget (the overhead's
    // baseline), then the coordinator step by step, each in a fresh
    // child.
    std::vector<double> untraced_walls;
    CampaignSummary untraced;
    do {
        untraced = runCampaignIsolated(w, args.seed, iterations, scratch, mark,
                                       nullptr, true);
        untraced_walls.push_back(untraced.setupSeconds + untraced.runSeconds);
        identity.expect("campaign#" + std::to_string(untraced_walls.size()),
                        untraced.rendering);
    } while (secondsBetween(begin, Clock::now()) < args.seconds * 0.5);
    const double untraced_wall = median(untraced_walls);

    FabricTiming fabric;
    {
        const std::string data = runIsolated([&] {
            const FabricTiming timing =
                runFabric(w, args.seed, iterations, scratch);
            char head[128];
            std::snprintf(head, sizeof head, "%.9f %.9f\n",
                          timing.runShardsSeconds, timing.mergeSeconds);
            return head + renderResult(timing.result);
        });
        const size_t nl = data.find('\n');
        if (nl == std::string::npos ||
            std::sscanf(data.c_str(), "%lf %lf", &fabric.runShardsSeconds,
                        &fabric.mergeSeconds) != 2)
            throw std::runtime_error("malformed fabric timing");
        identity.expect("fabric-steps", data.substr(nl + 1));
    }

    // The traced replay runs here, in this still-fresh process.
    const TracedRun traced = runTraced(w, args.seed, iterations, scratch);
    identity.expect("traced-replay", renderResult(traced.result));
    identity.require("wire records round-trip", traced.wireRoundTrips);
    const Ledger& ledger = traced.ledger;

    const Probes probes = measureProbes(w, args.seed, traced, scratch);

    const double wall_ms = traced.wallSeconds * 1e3;
    std::map<std::string, double> module_ms;
    double attributed_ms = 0.0;
    std::printf("ledger traced_wall_s=%.6f untraced_wall_s=%.6f "
                "tracing_overhead_s=%.6f untraced_runs=%zu\n",
                traced.wallSeconds, untraced_wall,
                traced.wallSeconds - untraced_wall, untraced_walls.size());
    for (const auto& [call, samples] : ledger.all()) {
        const Tail tail = tailOf(samples);
        const double total = ledger.total(call);
        attributed_ms += total;
        module_ms[moduleOf(call)] += total;
        std::printf("ledger call=%s n=%zu total_ms=%.3f share=%.4f "
                    "p50_ms=%.4f p%g_ms=%.4f\n",
                    call.c_str(), samples.size(), total, per(total, wall_ms),
                    median(samples), tail.pct, tail.value);
    }
    for (const auto& [module, ms] : module_ms)
        std::printf("ledger module=%s share=%.4f\n", module.c_str(),
                    per(ms, wall_ms));
    const double attributed = per(attributed_ms, wall_ms);
    std::printf("ledger attributed_share=%.4f unattributed_share=%.4f\n",
                attributed, 1.0 - attributed);
    identity.require("ledger attributes >= 90% of traced wall",
                     attributed >= 0.90);
    std::printf("ledger fuzz.run_shards_s=%.6f fuzz.merge_s=%.6f "
                "corpus.load_replay_s=%.6f (%s) reduce (%s)\n",
                fabric.runShardsSeconds, fabric.mergeSeconds,
                probes.corpusSeconds, probes.corpusSource,
                probes.reduceSource);

    std::vector<Metric> metrics;
    auto add = [&](const std::string& name, double value, const char* unit) {
        metrics.push_back({name, value, unit});
    };
    auto total = [&](const std::string& call) { return ledger.total(call); };
    auto count = [&](const std::string& name) { return ledger.counter(name); };
    const double n_iter = static_cast<double>(iterations);
    const double attempts = count("gen.attempts");
    const double models = count("gen.models");
    const double searches = count("autodiff.searches");
    const double cases = count("exec.lane0") + count("exec.extra_lanes");
    add("gen.ms_per_model", per(total("gen.generate"), attempts), "ms");
    add("gen.solver_queries_per_model",
        per(count("gen.solver_queries"), models), "count");
    add("gen.rejected_per_model", per(count("gen.rejected"), models), "count");
    add("gen.fail_share", per(count("gen.failures"), attempts), "share");
    add("autodiff.search_ms_per_model",
        per(total("autodiff.search"), searches), "ms");
    add("autodiff.search_iters_per_model",
        per(count("autodiff.iterations"), searches), "count");
    add("autodiff.success_share",
        per(count("autodiff.successes"), searches), "share");
    add("exec.ref_ms_per_iter", per(total("exec.reference"), models), "ms");
    add("exec.valid_share_lane0",
        per(count("exec.lane0_valid"), count("exec.lane0")), "share");
    add("exec.valid_share_extra_lanes",
        per(count("exec.extra_valid"), count("exec.extra_lanes")), "share");
    add("onnx.export_ms_per_iter", per(total("onnx.exportGraph"), models),
        "ms");
    for (const std::string backend : {"OrtLite", "TVMLite", "TrtLite"})
        add("backends." + backend + ".run_ms_per_case",
            per(total("backends." + backend + ".run"), cases), "ms");
    add("backends.crash_share",
        per(count("backends.crashes"), count("backends.runs")), "share");
    add("difftest.compare_ms_per_case", per(total("difftest.allClose"), cases),
        "ms");
    add("difftest.o0_reruns_per_iter", per(count("difftest.o0_reruns"), models),
        "count");
    add("coverage.hits_per_iter", per(count("coverage.hits"), n_iter), "count");
    add("coverage.take_ms_per_iter", per(total("coverage.take"), n_iter), "ms");
    add("fuzz.wire.hits_encode_ms_per_iter",
        per(total("fuzz.wire.hitsToWire"), n_iter), "ms");
    add("fuzz.wire.bug_encode_ms_per_iter",
        per(total("fuzz.wire.encodeBug"), n_iter), "ms");
    add("fuzz.wire.bytes_per_iter",
        per(static_cast<double>(traced.wireBytes), n_iter), "bytes");
    add("fuzz.run_shards_s", fabric.runShardsSeconds, "s");
    add("fuzz.merge_s", fabric.mergeSeconds, "s");
    add("reduce.minimize_ms_per_bug", probes.minimizeMsPerBug, "ms");
    add("reduce.size_ratio", probes.sizeRatio, "share");
    add("corpus.load_replay_s", probes.corpusSeconds, "s");
    add("mutate.iterate_ms_per_iter", probes.mutantMs, "ms");
    add("ledger.traced_wall_s", traced.wallSeconds, "s");
    add("ledger.untraced_wall_s", untraced_wall, "s");
    add("ledger.tracing_overhead_s", traced.wallSeconds - untraced_wall, "s");
    add("ledger.attributed_share", attributed, "share");
    for (const std::string module :
         {"gen", "autodiff", "exec", "onnx", "backends", "difftest", "coverage",
          "fuzz", "reduce", "corpus", "mutate", "setup"})
        add("ledger.share." + module, per(module_ms[module], wall_ms), "share");

    // Per-call distributions: median, the highest percentile with at
    // least ten samples beyond it, and the sample count.
    std::vector<double> backend_runs;
    for (const std::string backend : {"OrtLite", "TVMLite", "TrtLite"}) {
        const auto runs = ledger.samples("backends." + backend + ".run");
        backend_runs.insert(backend_runs.end(), runs.begin(), runs.end());
    }
    const std::vector<std::pair<std::string, std::vector<double>>> dists = {
        {"gen.generate", ledger.samples("gen.generate")},
        {"autodiff.search", ledger.samples("autodiff.search")},
        {"exec.reference", ledger.samples("exec.reference")},
        {"onnx.exportGraph", ledger.samples("onnx.exportGraph")},
        {"backends.run", backend_runs},
        {"coverage.take", ledger.samples("coverage.take")},
        {"fuzz.wire.hitsToWire", ledger.samples("fuzz.wire.hitsToWire")},
    };
    for (const auto& [call, samples] : dists) {
        add("call." + call + ".p50_ms", median(samples), "ms");
        add("call." + call + ".tail_ms", tailOf(samples).value, "ms");
        add("call." + call + ".n", static_cast<double>(samples.size()),
            "count");
    }

    const double lanes =
        static_cast<double>(std::max<size_t>(w.options.batch, 1));
    const double attempted = n_iter * lanes + untraced.lostCases;
    const double failed = count("cases.failed_gen") +
                          count("cases.failed_nan") + untraced.lostCases;
    printResult(identity.ok(), attempted, failed, metrics);
    return identity.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto args = parseArgs(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: campaign_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --scratch DIR --corpus DIR\n");
        return 2;
    }
    const auto workload = makeWorkload(args->workload);
    if (!workload) {
        std::fprintf(stderr,
                     "unknown workload '%s' (paper-default, heavy-exec, "
                     "triage)\n",
                     args->workload.c_str());
        return 2;
    }
    if (!fs::is_regular_file(fs::path(args->corpus) / "index.tsv")) {
        std::fprintf(stderr, "golden corpus not found at %s\n",
                     args->corpus.c_str());
        return 2;
    }
    const size_t iterations = workload->iterations;
    printEnvironment(*workload, *args, iterations);
    ScratchSpace scratch(args->scratch, args->corpus);
    try {
        return args->trace == 0
                   ? runEndToEnd(*workload, *args, iterations, scratch)
                   : runLedger(*workload, *args, iterations, scratch);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "campaign_bench: %s\n", error.what());
        return 1;
    }
}
