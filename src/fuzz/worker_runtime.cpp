#include "fuzz/worker_runtime.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h> // mallopt
#endif

#include "fuzz/wire.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace nnsmith::fuzz {

namespace {

/** The strided start index for @p shard inside [begin, end). */
size_t
stridedStart(size_t begin, int shard, int shard_count)
{
    const size_t stride = static_cast<size_t>(shard_count);
    return begin +
           (static_cast<size_t>(shard) + stride - begin % stride) %
               stride;
}

// ---------------------------------------------------------------------------
// ThreadRuntime
// ---------------------------------------------------------------------------

/**
 * Round-synchronized worker pool. The coordinator publishes a global
 * iteration range per round; worker j executes the indexes of that
 * range congruent to j modulo the shard count, then waits at the
 * barrier. Between rounds the coordinator sums the virtual cost of
 * everything executed so far and stops once the budget or iteration
 * cap is definitely inside the executed prefix.
 */
struct RoundBarrier {
    std::mutex mu;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    uint64_t round = 0;
    size_t begin = 0;
    size_t end = 0;
    int workersIdle = 0;
    int workersDead = 0; ///< workers lost to an exception
    bool stop = false;
    /** Per-worker idle flag for the current round — lets the
     *  coordinator name *which* worker is stalled, not just how many. */
    std::vector<uint8_t> idle;
};

class ThreadRuntime final : public WorkerRuntime {
  public:
    const char* name() const override { return "thread"; }

    std::vector<ShardResult>
    runShards(const ParallelCampaignConfig& config) override
    {
        const int shard_count = config.shards;
        std::vector<ShardResult> results(
            static_cast<size_t>(shard_count));
        std::vector<std::exception_ptr> errors(
            static_cast<size_t>(shard_count));
        RoundBarrier barrier;
        barrier.idle.assign(static_cast<size_t>(shard_count), 1);
        obs::gaugeSet("fabric.workers", shard_count);
        obs::ProgressAggregator* const progress = config.progress.get();
        /** Stall flags raised by the coordinator; appended to the
         *  shard results only after the workers joined. */
        std::vector<WorkerFault> stallFaults;

        auto worker = [&](int shard) {
            ShardResult& mine = results[static_cast<size_t>(shard)];
            mine.shard = shard;
            try {
                // The collector must outlive backend construction so
                // any hits a backend constructor emits are captured
                // (and dropped) instead of leaking into the global
                // hit bits.
                coverage::CoverageCollector collector;
                auto owned = config.backendFactory();
                std::vector<backends::Backend*> backend_list;
                backend_list.reserve(owned.size());
                for (auto& backend : owned)
                    backend_list.push_back(backend.get());
                collector.take(); // drop backend-construction hits
                uint64_t seen_round = 0;
                uint64_t hb_iters = 0, hb_bugs = 0, hb_hits = 0;
                while (true) {
                    size_t begin, end;
                    {
                        std::unique_lock<std::mutex> lock(barrier.mu);
                        barrier.workCv.wait(lock, [&] {
                            return barrier.stop ||
                                   barrier.round != seen_round;
                        });
                        if (barrier.stop) {
                            // Count ourselves idle: stop may have been
                            // set by a sibling's exception while the
                            // coordinator is still waiting out this
                            // round.
                            ++barrier.workersIdle;
                            barrier.idle[static_cast<size_t>(shard)] = 1;
                            lock.unlock();
                            barrier.doneCv.notify_one();
                            return;
                        }
                        seen_round = barrier.round;
                        begin = barrier.begin;
                        end = barrier.end;
                    }
                    for (size_t index =
                             stridedStart(begin, shard, shard_count);
                         index < end;
                         index += static_cast<size_t>(shard_count)) {
                        const auto fuzzer = config.fuzzerFactory(
                            deriveIterationSeed(config.masterSeed, index));
                        mine.records.push_back(captureIteration(
                            *fuzzer, index, config.campaign, backend_list,
                            collector));
                        const auto& record = mine.records.back();
                        ++hb_iters;
                        hb_bugs += record.bugs.size();
                        hb_hits += wire::siteCount(record.hits);
                    }
                    if (progress != nullptr) {
                        // Heartbeat outside the barrier lock: the
                        // aggregator has its own mutex, and ordering
                        // barrier.mu before aggregator.mu only on the
                        // coordinator side keeps the locks acyclic.
                        progress->onHeartbeat(obs::Heartbeat{
                            shard, seen_round, hb_iters, hb_bugs,
                            hb_hits});
                        obs::counterAdd("fabric.heartbeats");
                    }
                    {
                        std::lock_guard<std::mutex> lock(barrier.mu);
                        ++barrier.workersIdle;
                        barrier.idle[static_cast<size_t>(shard)] = 1;
                    }
                    barrier.doneCv.notify_one();
                }
            } catch (...) {
                errors[static_cast<size_t>(shard)] =
                    std::current_exception();
                {
                    std::lock_guard<std::mutex> lock(barrier.mu);
                    ++barrier.workersDead;
                    // Dead, not stalled: don't let the stall scan
                    // flag a worker that already aborted.
                    barrier.idle[static_cast<size_t>(shard)] = 1;
                    barrier.stop = true; // abort remaining rounds
                }
                barrier.doneCv.notify_one();
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(shard_count));
        for (int shard = 0; shard < shard_count; ++shard)
            threads.emplace_back(worker, shard);

        // Coordinator: dispatch rounds until the executed prefix
        // provably contains the campaign's end.
        {
            std::vector<size_t> consumed(
                static_cast<size_t>(shard_count), 0);
            VirtualMs total_cost = 0;
            size_t executed = 0;
            const size_t block = config.blockIterations *
                                 static_cast<size_t>(shard_count);
            while (executed < config.campaign.maxIterations &&
                   total_cost < config.campaign.virtualBudget) {
                const size_t end =
                    std::min(executed + block,
                             config.campaign.maxIterations);
                {
                    std::unique_lock<std::mutex> lock(barrier.mu);
                    if (barrier.stop)
                        break;
                    barrier.begin = executed;
                    barrier.end = end;
                    barrier.workersIdle = 0;
                    std::fill(barrier.idle.begin(), barrier.idle.end(),
                              static_cast<uint8_t>(0));
                    ++barrier.round;
                }
                barrier.workCv.notify_all();
                {
                    std::unique_lock<std::mutex> lock(barrier.mu);
                    const auto allIdle = [&] {
                        return barrier.workersIdle >=
                               shard_count - barrier.workersDead;
                    };
                    if (progress != nullptr) {
                        // Timed waits double as a stall scan: a worker
                        // silent past the threshold is flagged stalled
                        // (it may still finish — unlike a dead one).
                        std::vector<uint8_t> flagged(
                            static_cast<size_t>(shard_count), 0);
                        while (!barrier.doneCv.wait_for(
                            lock,
                            std::chrono::milliseconds(
                                progress->stallAfterMs()),
                            allIdle)) {
                            for (int shard = 0; shard < shard_count;
                                 ++shard) {
                                const auto s =
                                    static_cast<size_t>(shard);
                                if (barrier.idle[s] || flagged[s])
                                    continue;
                                flagged[s] = 1;
                                progress->onStalled(shard);
                                obs::counterAdd("fabric.worker_stalls");
                                stallFaults.push_back(WorkerFault{
                                    shard, executed, end, "stall", "",
                                    0});
                            }
                        }
                    } else {
                        barrier.doneCv.wait(lock, allIdle);
                    }
                    if (barrier.stop)
                        break;
                }
                for (int shard = 0; shard < shard_count; ++shard) {
                    auto& records =
                        results[static_cast<size_t>(shard)].records;
                    auto& cursor = consumed[static_cast<size_t>(shard)];
                    for (; cursor < records.size(); ++cursor)
                        total_cost += std::max<VirtualMs>(
                            records[cursor].cost, 1);
                }
                executed = end;
            }
            {
                std::lock_guard<std::mutex> lock(barrier.mu);
                barrier.stop = true;
            }
            barrier.workCv.notify_all();
        }
        for (auto& thread : threads)
            thread.join();
        for (auto& error : errors) {
            if (error)
                std::rethrow_exception(error);
        }
        for (auto& fault : stallFaults)
            results[static_cast<size_t>(fault.shard)].faults.push_back(
                std::move(fault));
        return results;
    }
};

// ---------------------------------------------------------------------------
// ProcessRuntime
// ---------------------------------------------------------------------------

/** write(2) the whole buffer; false on any error (e.g. EPIPE). */
bool
writeAll(int fd, const char* data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

bool
writeAll(int fd, const std::string& data)
{
    return writeAll(fd, data.data(), data.size());
}

/** Read one '\n'-terminated line (newline stripped); false on EOF. */
bool
readLineFd(int fd, std::string& line)
{
    line.clear();
    char c;
    while (true) {
        const ssize_t n = ::read(fd, &c, 1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false; // EOF mid-line: the peer died
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

/** Read exactly @p size bytes; false on EOF. */
bool
readExact(int fd, std::string& out, size_t size)
{
    out.resize(size);
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::read(fd, out.data() + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;
        done += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Worker-process main loop: execute "round <begin> <end>" commands
 * from the coordinator, streaming back one framed wire block per
 * round ("ok <nbytes>\n<block>"), until "stop" or coordinator death.
 * An exception inside the fuzzing stack is reported as an
 * "error <nbytes>\n<what>" frame — a *protocol-level* outcome, unlike
 * a crash, which the coordinator sees as EOF and answers with a
 * respawn.
 */
[[noreturn]] void
workerChildLoop(const ParallelCampaignConfig& config, int shard,
                int cmd_fd, int res_fd)
{
    // The parent flushed its trace buffer before forking; whatever we
    // inherited would be emitted twice. Same for the metrics shards:
    // the coordinator's counts are not ours to report.
    obs::traceOnFork();
    obs::metricsReset();
#ifdef __GLIBC__
    // Every generated model builds and frees a fresh z3 context, whose
    // tables are two ~8.5 MB blocks. In a forked worker glibc's main
    // arena gives that memory back to the kernel after each model, so
    // the next model page-faults it in again: 2,100 faults per model,
    // twice the generation time of a thread worker. Keep big blocks on
    // the heap and the freed heap resident instead; the worker's peak
    // RSS is the same, it is just not returned between models.
    ::mallopt(M_MMAP_THRESHOLD, 32 << 20);
    ::mallopt(M_TRIM_THRESHOLD, 128 << 20);
#endif

    const int shard_count = config.shards;
    std::unique_ptr<coverage::CoverageCollector> collector;
    std::vector<std::unique_ptr<backends::Backend>> owned;
    std::vector<backends::Backend*> backend_list;
    bool initialized = false;
    uint64_t rounds = 0;
    uint64_t cum_iters = 0, cum_bugs = 0, cum_hits = 0;

    std::string command;
    while (readLineFd(cmd_fd, command)) {
        if (command == "stop")
            ::_exit(0);
        size_t begin = 0, end = 0;
        if (std::sscanf(command.c_str(), "round %zu %zu", &begin,
                        &end) != 2)
            ::_exit(3); // protocol botch: not recoverable
        std::string frame;
        try {
            if (!initialized) {
                // Lazily, so construction errors flow through the
                // error frame instead of killing the child silently.
                collector =
                    std::make_unique<coverage::CoverageCollector>();
                owned = config.backendFactory();
                backend_list.reserve(owned.size());
                for (auto& backend : owned)
                    backend_list.push_back(backend.get());
                collector->take(); // drop backend-construction hits
                initialized = true;
            }
            std::vector<ShardResult::IterationRecord> records;
            for (size_t index = stridedStart(begin, shard, shard_count);
                 index < end;
                 index += static_cast<size_t>(shard_count)) {
                const auto fuzzer = config.fuzzerFactory(
                    deriveIterationSeed(config.masterSeed, index));
                records.push_back(captureIteration(*fuzzer, index,
                                                   config.campaign,
                                                   backend_list, *collector));
                ++cum_iters;
                cum_bugs += records.back().bugs.size();
                cum_hits += wire::siteCount(records.back().hits);
            }
            if (config.telemetry) {
                // Heartbeat + this round's metrics delta ride ahead of
                // the result frame. Ignorable by contract: a
                // coordinator that skips them loses observability,
                // never results.
                wire::TelemetryFrame telemetry;
                telemetry.shard = shard;
                telemetry.round = rounds;
                telemetry.iters = cum_iters;
                telemetry.bugs = cum_bugs;
                telemetry.hits = cum_hits;
                telemetry.metrics = obs::metricsDrain();
                const std::string blob =
                    wire::encodeTelemetry(telemetry);
                frame = "telemetry " + std::to_string(blob.size()) +
                        "\n" + blob;
            }
            ++rounds;
            const std::string payload = wire::encodeRecords(records);
            frame += "ok " + std::to_string(payload.size()) + "\n" +
                     payload;
        } catch (const std::exception& error) {
            const std::string what = error.what();
            frame = "error " + std::to_string(what.size()) + "\n" +
                    what;
        }
        obs::traceFlush(); // trace spans land before a possible crash
        if (!writeAll(res_fd, frame))
            ::_exit(2); // coordinator went away
    }
    ::_exit(0); // command pipe EOF: coordinator went away
}

class ProcessRuntime final : public WorkerRuntime {
  public:
    const char* name() const override { return "process"; }

    std::vector<ShardResult>
    runShards(const ParallelCampaignConfig& config) override
    {
        const int shard_count = config.shards;
        std::vector<ShardResult> results(
            static_cast<size_t>(shard_count));
        for (int shard = 0; shard < shard_count; ++shard)
            results[static_cast<size_t>(shard)].shard = shard;
        obs::gaugeSet("fabric.workers", shard_count);

        // A worker that died mid-write must surface as an EPIPE write
        // error (and a respawn), not kill the coordinator.
        struct sigaction ignore_pipe = {};
        struct sigaction old_pipe = {};
        ignore_pipe.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

        std::vector<Proc> procs(static_cast<size_t>(shard_count));
        try {
            for (int shard = 0; shard < shard_count; ++shard)
                spawnWorker(procs, shard, config);
            runRounds(procs, config, results);
        } catch (...) {
            stopAll(procs);
            ::sigaction(SIGPIPE, &old_pipe, nullptr);
            throw;
        }
        stopAll(procs);
        ::sigaction(SIGPIPE, &old_pipe, nullptr);
        return results;
    }

  private:
    struct Proc {
        pid_t pid = -1;
        int cmd = -1; ///< coordinator-side write end (commands down)
        int res = -1; ///< coordinator-side read end (results up)
    };

    static void
    spawnWorker(std::vector<Proc>& procs, int shard,
                const ParallelCampaignConfig& config)
    {
        int down[2]; // coordinator -> worker
        int up[2];   // worker -> coordinator
        if (::pipe(down) != 0 || ::pipe(up) != 0)
            fatal("ProcessRuntime: pipe() failed: " +
                  std::string(std::strerror(errno)));
        // Flush buffered trace events so the child inherits an empty
        // buffer (workerChildLoop drops any stragglers via
        // traceOnFork) — no event is lost or written twice.
        obs::traceFlush();
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("ProcessRuntime: fork() failed: " +
                  std::string(std::strerror(errno)));
        if (pid == 0) {
            // Worker: drop the coordinator-side ends — including the
            // inherited ends of *sibling* pipes, or a dead sibling's
            // result pipe would never read EOF in the coordinator and
            // crash detection would hang.
            ::close(down[1]);
            ::close(up[0]);
            for (const auto& proc : procs) {
                if (proc.cmd >= 0)
                    ::close(proc.cmd);
                if (proc.res >= 0)
                    ::close(proc.res);
            }
            workerChildLoop(config, shard, down[0], up[1]);
        }
        ::close(down[0]);
        ::close(up[1]);
        procs[static_cast<size_t>(shard)] = Proc{pid, down[1], up[0]};
    }

    static void
    closeProc(Proc& proc)
    {
        if (proc.cmd >= 0)
            ::close(proc.cmd);
        if (proc.res >= 0)
            ::close(proc.res);
        proc.cmd = proc.res = -1;
    }

    static void
    reapWorker(Proc& proc)
    {
        closeProc(proc);
        if (proc.pid > 0)
            ::waitpid(proc.pid, nullptr, 0);
        proc.pid = -1;
    }

    static void
    respawnWorker(std::vector<Proc>& procs, int shard,
                  const ParallelCampaignConfig& config)
    {
        reapWorker(procs[static_cast<size_t>(shard)]);
        spawnWorker(procs, shard, config);
    }

    static bool
    sendRound(const Proc& proc, size_t begin, size_t end)
    {
        return writeAll(proc.cmd, "round " + std::to_string(begin) +
                                      " " + std::to_string(end) + "\n");
    }

    /** Fold one worker telemetry blob into coordinator-side state.
     *  Best-effort: a frame that fails the lenient decode is dropped. */
    static void
    handleTelemetry(const ParallelCampaignConfig& config,
                    const std::string& blob)
    {
        const auto frame = wire::decodeTelemetry(blob);
        if (!frame)
            return;
        if (config.progress != nullptr) {
            config.progress->onHeartbeat(obs::Heartbeat{
                frame->shard, frame->round, frame->iters, frame->bugs,
                frame->hits});
        }
        if (obs::metricsEnabled()) {
            obs::metricsMergeExternal(frame->metrics);
            obs::counterAdd("fabric.heartbeats");
        }
    }

    /**
     * Read one result frame; false when the worker died. Telemetry
     * frames riding ahead of the result are consumed here — they are
     * observability, not results, so callers only ever see ok/error.
     */
    static bool
    readFrame(const Proc& proc, const ParallelCampaignConfig& config,
              std::string& payload, bool& is_error)
    {
        while (true) {
            std::string header;
            if (!readLineFd(proc.res, header))
                return false;
            uint64_t size = 0;
            if (std::sscanf(header.c_str(), "telemetry %llu",
                            reinterpret_cast<unsigned long long*>(
                                &size)) == 1) {
                std::string blob;
                if (!readExact(proc.res, blob,
                               static_cast<size_t>(size)))
                    return false;
                handleTelemetry(config, blob);
                continue;
            }
            if (std::sscanf(header.c_str(), "ok %llu",
                            reinterpret_cast<unsigned long long*>(
                                &size)) == 1) {
                is_error = false;
            } else if (std::sscanf(header.c_str(), "error %llu",
                                   reinterpret_cast<unsigned long long*>(
                                       &size)) == 1) {
                is_error = true;
            } else {
                return false; // garbled header: treat as a crash
            }
            return readExact(proc.res, payload,
                             static_cast<size_t>(size));
        }
    }

    /**
     * Block until worker @p shard's pipe is readable, flagging the
     * worker stalled (once) after the progress aggregator's threshold.
     * Pure observation — the wait itself is unbounded either way.
     */
    static void
    awaitReadable(const Proc& proc,
                  const ParallelCampaignConfig& config, int shard,
                  size_t begin, size_t end,
                  std::vector<ShardResult>& results)
    {
        if (config.progress == nullptr)
            return; // plain blocking reads diagnose nothing
        bool flagged = false;
        struct pollfd pfd = {};
        pfd.fd = proc.res;
        pfd.events = POLLIN;
        while (true) {
            const int timeout =
                flagged ? -1 : config.progress->stallAfterMs();
            const int ready = ::poll(&pfd, 1, timeout);
            if (ready < 0) {
                if (errno == EINTR)
                    continue;
                return; // let the read path report the failure
            }
            if (ready > 0)
                return; // data or EOF: either way the read resolves it
            flagged = true;
            config.progress->onStalled(shard);
            obs::counterAdd("fabric.worker_stalls");
            results[static_cast<size_t>(shard)].faults.push_back(
                WorkerFault{shard, begin, end, "stall", "", 0});
        }
    }

    static void
    runRounds(std::vector<Proc>& procs,
              const ParallelCampaignConfig& config,
              std::vector<ShardResult>& results)
    {
        const int shard_count = config.shards;
        const size_t block =
            config.blockIterations * static_cast<size_t>(shard_count);
        VirtualMs total_cost = 0;
        size_t executed = 0;
        while (executed < config.campaign.maxIterations &&
               total_cost < config.campaign.virtualBudget) {
            const size_t end = std::min(
                executed + block, config.campaign.maxIterations);
            for (int shard = 0; shard < shard_count; ++shard) {
                if (!sendRound(procs[static_cast<size_t>(shard)],
                               executed, end)) {
                    noteCrash(config, shard, executed, end, 0, results);
                    respawnWorker(procs, shard, config);
                    if (!sendRound(procs[static_cast<size_t>(shard)],
                                   executed, end))
                        fatal("ProcessRuntime: worker " +
                              std::to_string(shard) +
                              " died immediately on respawn");
                }
            }
            for (int shard = 0; shard < shard_count; ++shard) {
                collectRound(procs, shard, config, executed, end,
                             results, total_cost);
            }
            executed = end;
        }
    }

    /** Record a crash fault (telemetry) for @p shard. */
    static void
    noteCrash(const ParallelCampaignConfig& config, int shard,
              size_t begin, size_t end, int attempt,
              std::vector<ShardResult>& results)
    {
        results[static_cast<size_t>(shard)].faults.push_back(
            WorkerFault{shard, begin, end, "crash", "", attempt});
        obs::counterAdd("fabric.respawns");
        if (config.progress != nullptr)
            config.progress->onCrashed(shard);
    }

    /**
     * Read worker @p shard's frame for round [begin, end), respawning
     * and deterministically re-running the block on a crash *or* a
     * reported error (bounded by kMaxRespawnsPerRound). Both outcomes
     * land in the shard's fault log; only exhausted retries — a
     * deterministically failing block — abort the campaign.
     */
    static void
    collectRound(std::vector<Proc>& procs, int shard,
                 const ParallelCampaignConfig& config, size_t begin,
                 size_t end, std::vector<ShardResult>& results,
                 VirtualMs& total_cost)
    {
        int attempts = 0;
        while (true) {
            std::string payload;
            bool is_error = false;
            awaitReadable(procs[static_cast<size_t>(shard)], config,
                          shard, begin, end, results);
            if (readFrame(procs[static_cast<size_t>(shard)], config,
                          payload, is_error)) {
                if (is_error) {
                    results[static_cast<size_t>(shard)]
                        .faults.push_back(WorkerFault{
                            shard, begin, end, "error", payload,
                            attempts});
                    obs::counterAdd("fabric.worker_errors");
                    if (config.progress != nullptr)
                        config.progress->onErrored(shard);
                    if (++attempts > kMaxRespawnsPerRound)
                        throw std::runtime_error(
                            "parallel campaign worker " +
                            std::to_string(shard) + ": " + payload);
                    // The worker survives an error frame, but its
                    // lazily-built state is suspect; a fresh process
                    // re-runs the identical self-seeded block.
                    respawnWorker(procs, shard, config);
                    if (!sendRound(procs[static_cast<size_t>(shard)],
                                   begin, end))
                        continue; // died; the next readFrame EOFs
                    continue;
                }
                auto records = wire::decodeRecords(payload);
                auto& mine =
                    results[static_cast<size_t>(shard)].records;
                for (auto& record : records) {
                    total_cost +=
                        std::max<VirtualMs>(record.cost, 1);
                    mine.push_back(std::move(record));
                }
                return;
            }
            // The worker crashed (SIGKILL, abort, a crashing test
            // case). Iterations are self-seeded, so a fresh worker
            // re-runs the identical block from the seed stream.
            noteCrash(config, shard, begin, end, attempts, results);
            if (++attempts > kMaxRespawnsPerRound)
                throw std::runtime_error(
                    "parallel campaign worker " +
                    std::to_string(shard) + " crashed " +
                    std::to_string(attempts) +
                    " times on iterations [" + std::to_string(begin) +
                    ", " + std::to_string(end) +
                    "); giving up (deterministically crashing case?)");
            respawnWorker(procs, shard, config);
            if (!sendRound(procs[static_cast<size_t>(shard)], begin,
                           end))
                continue; // died again; the next readFrame EOFs
        }
    }

    static void
    stopAll(std::vector<Proc>& procs)
    {
        for (auto& proc : procs) {
            if (proc.cmd >= 0)
                writeAll(proc.cmd, "stop\n"); // best-effort
        }
        for (auto& proc : procs)
            reapWorker(proc);
    }
};

} // namespace

const char*
workerModeName(WorkerMode mode)
{
    return mode == WorkerMode::kThread ? "thread" : "process";
}

std::unique_ptr<WorkerRuntime>
makeThreadRuntime()
{
    return std::make_unique<ThreadRuntime>();
}

std::unique_ptr<WorkerRuntime>
makeProcessRuntime()
{
    return std::make_unique<ProcessRuntime>();
}

std::unique_ptr<WorkerRuntime>
makeWorkerRuntime(WorkerMode mode)
{
    return mode == WorkerMode::kThread ? makeThreadRuntime()
                                       : makeProcessRuntime();
}

} // namespace nnsmith::fuzz
