/**
 * @file
 * Operator-execution throughput harness for the typed kernel layer.
 *
 * Two sections, both wall-clock timed:
 *
 *  1. "campaign": an end-to-end NNSmith fuzzing campaign (generation +
 *     gradient value search + export + three simulated backends +
 *     difftest) with the value search configured *iteration-capped*
 *     instead of time-capped, so the amount of work per campaign
 *     iteration is fixed and wall-clock throughput (iterations/sec)
 *     reflects kernel speed rather than filling a time budget.
 *
 *  2. "kernels": single-op microbenchmarks (elements/sec) over large
 *     tensors for representative element loops (binary arithmetic,
 *     comparison, unary, reduce, where, cast) plus an OpRegistry::find
 *     lookup probe (ns/lookup) for the generator hot path.
 *
 * BENCH_typed_kernels.json at the repo root is a committed before/after
 * record of this output (see DESIGN.md "Numeric semantics and typed
 * kernels").
 *
 *   ./bench/bench_kernels [--seed N] [--iters N] [--out FILE]
 */
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "ops/binary.h"
#include "ops/elementwise.h"
#include "ops/misc_ops.h"
#include "ops/reduce.h"

namespace {

using namespace nnsmith;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Campaign throughput with fixed (iteration-capped) search work. */
struct CampaignScore {
    double seconds = 0.0;
    size_t iterations = 0;
    size_t bugs = 0;
    size_t coverage = 0;
    double itersPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(iterations) / seconds
                             : 0.0;
    }
};

CampaignScore
runCampaignScore(uint64_t seed, size_t iters)
{
    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10; // §5.1 default model size
    // Heavy-tensor workload: 2x dimension caps with a floor of 16 pin
    // every generated tensor to the regime the typed kernels target
    // (the solver would otherwise prefer tiny dims, leaving the
    // campaign generation-bound). The native solver samples dims
    // across the whole allowed range (z3 returns corner models) and
    // keeps generation cost from masking execution cost. The op pool
    // is the element-loop families the kernel layer serves (linear
    // per-element cost, so the driver stays tractable pre-refactor;
    // Mod is deliberately absent — it does not exist at the baseline
    // commit this driver is also built against).
    options.generator.dimCapScale = 2;
    options.generator.dimFloor = 16;
    options.generator.solverKind = solver::SolverKind::kNative;
    options.generator.opAllowlist = {
        "Add",      "Sub",       "Mul",       "Div",       "Pow",
        "Max",      "Min",       "Equal",     "Greater",   "Less",
        "And",      "Or",        "Xor",       "Relu",      "LeakyRelu",
        "Sigmoid",  "Tanh",      "Abs",       "Neg",       "Clip",
        "Softmax",  "Where",     "Cast",      "ReduceSum", "ReduceMean",
        "ReduceMax", "ReduceMin", "ReduceProd", "ArgMax",  "ArgMin"};
    // 32 iterations cost far less than the virtual budget, so the cap
    // binds and wall-clock time measures execution speed.
    options.search.maxIterations = 32;
    fuzz::NNSmithFuzzer fuzzer(options, seed);

    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& b : owned)
        backend_list.push_back(b.get());

    fuzz::CampaignConfig config;
    // The fig4-style 240 virtual minutes comfortably exceed the
    // iteration cap's virtual cost, so maxIterations binds; keeping the
    // budget modest also keeps the converged-plateau sampling loop
    // (campaign.cpp) cheap.
    config.virtualBudget = 240ll * 60 * 1000;
    config.maxIterations = iters;
    config.coverageComponent = "ortlite";
    config.sampleEveryMinutes = 10;

    const auto start = Clock::now();
    const auto result = fuzz::runCampaign(fuzzer, backend_list, config);
    CampaignScore score;
    score.seconds = secondsSince(start);
    score.iterations = result.iterations;
    score.bugs = result.bugs.size();
    score.coverage = result.coverAll.count();
    return score;
}

/** One single-op element-loop measurement. */
struct KernelScore {
    const char* label;
    double melemsPerSec;
};

double
timeOp(const ops::OpBase& op, const std::vector<tensor::Tensor>& inputs,
       int reps)
{
    // Throughput counts *processed* elements (largest input), so
    // reductions are not penalized for having small outputs.
    int64_t per_rep = 0;
    for (const auto& t : inputs)
        per_rep = std::max(per_rep, t.numel());
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) {
        const auto outputs = op.execute(inputs);
        if (outputs.empty())
            fatal("op produced no outputs during bench");
    }
    const double s = secondsSince(start);
    return s > 0.0
               ? static_cast<double>(per_rep) * reps / s / 1e6
               : 0.0;
}

ops::AttrMap
broadcastAttrs()
{
    ops::AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] = 0;
    return attrs;
}

std::vector<KernelScore>
runKernelScores(uint64_t seed)
{
    using tensor::DType;
    using tensor::Shape;
    using tensor::Tensor;
    Rng rng(seed);
    const Shape big{{1 << 16}};
    const int reps = 200;

    const Tensor f32a = Tensor::random(DType::kF32, big, rng, 1.0, 9.0);
    const Tensor f32b = Tensor::random(DType::kF32, big, rng, 1.0, 9.0);
    const Tensor i64a = Tensor::random(DType::kI64, big, rng, -1e9, 1e9);
    const Tensor i64b = Tensor::random(DType::kI64, big, rng, -1e9, 1e9);
    const Tensor f64a = Tensor::random(DType::kF64, big, rng, 1.0, 9.0);
    const Tensor cond = Tensor::random(DType::kBool, big, rng, 0.0, 1.0);

    std::vector<KernelScore> scores;
    const auto binary = [&](ops::BinaryKind kind, const Tensor& a,
                            const Tensor& b, const char* label) {
        const ops::BinaryOp op(kind, broadcastAttrs());
        scores.push_back({label, timeOp(op, {a, b}, reps)});
    };
    binary(ops::BinaryKind::kAdd, f32a, f32b, "add_f32");
    binary(ops::BinaryKind::kDiv, f32a, f32b, "div_f32");
    binary(ops::BinaryKind::kMul, i64a, i64b, "mul_i64");
    binary(ops::BinaryKind::kLess, i64a, i64b, "less_i64");

    {
        const ops::UnaryOp op(ops::UnaryKind::kSigmoid, ops::AttrMap{});
        scores.push_back({"sigmoid_f32", timeOp(op, {f32a}, reps)});
    }
    {
        ops::AttrMap attrs{{"rank", 1}, {"axis", 0}, {"keepdims", 0}};
        const ops::ReduceOp op(ops::ReduceKind::kSum, attrs);
        scores.push_back({"reduce_sum_f32", timeOp(op, {f32a}, reps)});
    }
    {
        ops::AttrMap attrs;
        static const char* kPrefixes[3] = {"wc", "wt", "wf"};
        for (const char* p : kPrefixes)
            for (int i = 0; i < ops::kMaxRank; ++i)
                attrs[std::string(p) + std::to_string(i)] = 0;
        const ops::WhereOp op(attrs);
        scores.push_back({"where_f32", timeOp(op, {cond, f32a, f32b}, reps)});
    }
    {
        ops::CastOp op(ops::AttrMap{});
        op.setDTypes({{DType::kF64}, {DType::kI32}});
        scores.push_back({"cast_f64_i32", timeOp(op, {f64a}, reps)});
    }
    return scores;
}

/** OpRegistry::find over every registered name (generator hot path). */
double
registryFindNs()
{
    const auto& registry = ops::OpRegistry::global();
    std::vector<std::string> names;
    for (const auto& meta : registry.all())
        names.push_back(meta.name);
    const int reps = 20000;
    size_t found = 0;
    const auto start = Clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const auto& name : names)
            found += registry.find(name) != nullptr ? 1 : 0;
    }
    const double s = secondsSince(start);
    const double lookups = static_cast<double>(reps) *
                           static_cast<double>(names.size());
    if (found != static_cast<size_t>(lookups))
        fatal("registry lookup failed during bench");
    return s / lookups * 1e9;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/120);

    const auto campaign = runCampaignScore(options.seed, options.iters);
    std::printf("campaign: %zu iters in %.3fs -> %.2f iters/sec "
                "(coverage=%zu bugs=%zu)\n",
                campaign.iterations, campaign.seconds,
                campaign.itersPerSec(), campaign.coverage, campaign.bugs);

    const auto kernels = runKernelScores(options.seed);
    for (const auto& k : kernels)
        std::printf("kernel %-16s %10.2f Melem/s\n", k.label,
                    k.melemsPerSec);
    const double find_ns = registryFindNs();
    std::printf("registry find: %.1f ns/lookup\n", find_ns);

    FILE* out = options.outPath.empty()
                    ? stdout
                    : std::fopen(options.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", options.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"typed_kernels\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"campaign\": {\"iterations\": %zu, "
                 "\"wall_seconds\": %.3f, \"iters_per_sec\": %.3f, "
                 "\"coverage\": %zu, \"bugs\": %zu},\n",
                 campaign.iterations, campaign.seconds,
                 campaign.itersPerSec(), campaign.coverage, campaign.bugs);
    std::fprintf(out, "  \"registry_find_ns\": %.1f,\n", find_ns);
    std::fprintf(out, "  \"kernels_melems_per_sec\": {\n");
    for (size_t i = 0; i < kernels.size(); ++i)
        std::fprintf(out, "    \"%s\": %.2f%s\n", kernels[i].label,
                     kernels[i].melemsPerSec,
                     i + 1 < kernels.size() ? "," : "");
    std::fprintf(out, "  }\n}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}
