/**
 * Tests for the simulated compilers and differential testing: clean
 * models pass on all backends, seeded defects reproduce their paper
 * patterns, and the O0 localization protocol works.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "autodiff/grad_search.h"
#include "backends/backend.h"
#include "campaign_fixture.h"
#include "difftest/oracle.h"
#include "gen/generator.h"
#include "onnx/exporter.h"
#include "ops/binary.h"
#include "ops/elementwise.h"
#include "ops/misc_ops.h"
#include "ops/nn_ops.h"
#include "ops/shape_ops.h"

namespace nnsmith::backends {
namespace {

using difftest::CaseResult;
using difftest::Verdict;
using graph::Graph;
using graph::NodeKind;
using ops::AttrMap;
using tensor::DType;
using tensor::Shape;
using tensor::TensorType;

/** RAII: disable every seeded defect for clean-path checks. */
class AllDefectsOff {
  public:
    AllDefectsOff()
    {
        for (const auto& d : DefectRegistry::instance().all())
            DefectRegistry::instance().setEnabled(d.id, false);
    }
    ~AllDefectsOff()
    {
        for (const auto& d : DefectRegistry::instance().all())
            DefectRegistry::instance().setEnabled(d.id, true);
    }
};

AttrMap
equalMask()
{
    AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] = 0;
    return attrs;
}

/** MatMul(Mul(x, s), w11) where w11 is 1x1 — the FuseMatMulScale bug
 *  pattern (paper §5.4). */
Graph
matmulScalePattern()
{
    Graph g;
    const auto tx = TensorType::concrete(DType::kF32, Shape{{2, 1}});
    const auto t11 = TensorType::concrete(DType::kF32, Shape{{1, 1}});
    const auto tout = TensorType::concrete(DType::kF32, Shape{{2, 1}});
    const int x = g.addLeaf(NodeKind::kInput, tx, "x");
    const int s = g.addLeaf(NodeKind::kWeight, tx, "s");
    const int w = g.addLeaf(NodeKind::kWeight, t11, "w");
    auto mul = std::make_shared<ops::BinaryOp>(ops::BinaryKind::kMul,
                                               equalMask());
    mul->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
    const int mul_node = g.addOp(mul, {x, s}, {tx});
    auto mm = std::make_shared<ops::MatMulOp>(AttrMap{});
    mm->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
    g.addOp(mm, {g.node(mul_node).outputs[0], w}, {tout});
    return g;
}

exec::LeafValues
onesLeaves(const Graph& g)
{
    exec::LeafValues leaves;
    for (const auto& node : g.nodes()) {
        if (node.dead || (node.kind != NodeKind::kInput &&
                          node.kind != NodeKind::kWeight))
            continue;
        const auto& type = g.value(node.outputs[0]).type;
        leaves.emplace(node.outputs[0],
                       tensor::Tensor::full(type.dtype(),
                                            type.concreteShape(), 1.0));
    }
    return leaves;
}

TEST(Backends, CleanModelsPassEverywhere)
{
    AllDefectsOff off;
    const auto backends = difftest::makeAllBackends();
    const auto raw = test::borrow(backends);
    int tested = 0;
    for (uint64_t seed = 0; seed < 15 && tested < 6; ++seed) {
        gen::GeneratorConfig config;
        config.targetOpNodes = 6;
        gen::GraphGenerator gen(config, 7000 + seed);
        const auto model = gen.generate();
        if (!model)
            continue;
        Rng rng(seed);
        const auto search = autodiff::search(model->graph, rng);
        if (!search.success)
            continue;
        ++tested;
        const CaseResult result =
            difftest::runCase(model->graph, search.values, raw);
        EXPECT_TRUE(result.exportOk);
        for (const auto& v : result.verdicts) {
            EXPECT_EQ(v.verdict, Verdict::kPass)
                << v.backend << " seed " << seed << ": " << v.detail;
        }
        EXPECT_FALSE(result.anyBugSignal());
    }
    EXPECT_GE(tested, 3);
}

TEST(Backends, MatMulScaleDefectCrashesOrtLiteOnly)
{
    const Graph g = matmulScalePattern();
    const auto backends = difftest::makeAllBackends();
    const auto raw = test::borrow(backends);
    const auto result = difftest::runCase(g, onesLeaves(g), raw);
    ASSERT_EQ(result.verdicts.size(), 3u);
    EXPECT_EQ(result.verdicts[0].verdict, Verdict::kCrash);
    EXPECT_EQ(result.verdicts[0].crashKind, "ort.fuse.matmul_scale_1x1");
    // TVMLite does not share ONNXRuntime's pattern pass — but its own
    // importer rejects the 1x1 (vector-like) MatMul operand, a
    // different bug with a different dedup key. One model, two bugs.
    if (result.verdicts[1].verdict == Verdict::kCrash) {
        EXPECT_EQ(result.verdicts[1].crashKind, "tvm.import.matmul_vector");
    }
    const auto& trace = result.triggeredDefects;
    EXPECT_NE(std::find(trace.begin(), trace.end(),
                        "ort.fuse.matmul_scale_1x1"),
              trace.end());
}

TEST(Backends, O0SkipsTransformationDefects)
{
    const Graph g = matmulScalePattern();
    const auto model = onnx::exportGraph(g);
    auto ort = makeOrtLite();
    const auto o3 = ort->run(model, onesLeaves(g), OptLevel::kO3);
    EXPECT_EQ(o3.status, RunResult::Status::kCrash);
    const auto o0 = ort->run(model, onesLeaves(g), OptLevel::kO0);
    EXPECT_EQ(o0.status, RunResult::Status::kOk);
}

TEST(Backends, SemanticDefectLocalizedToOptimizer)
{
    // Relu(f64) -> Clip: ort.fuse.relu_clip_double perturbs outputs at
    // O3 but not at O0, so localization must implicate the optimizer.
    Graph g;
    const auto type = TensorType::concrete(DType::kF64, Shape{{4}});
    const int x = g.addLeaf(NodeKind::kInput, type, "x");
    auto relu = std::make_shared<ops::UnaryOp>(ops::UnaryKind::kRelu,
                                               AttrMap{});
    relu->setDTypes({{DType::kF64}, {DType::kF64}});
    const int relu_node = g.addOp(relu, {x}, {type});
    auto clip =
        std::make_shared<ops::ClipOp>(AttrMap{{"lo", -2}, {"hi", 2}});
    clip->setDTypes({{DType::kF64}, {DType::kF64}});
    g.addOp(clip, {g.node(relu_node).outputs[0]}, {type});

    auto backends = difftest::makeAllBackends();
    std::vector<Backend*> raw = {backends[0].get()}; // OrtLite only
    const auto result = difftest::runCase(g, onesLeaves(g), raw);
    ASSERT_EQ(result.verdicts.size(), 1u);
    EXPECT_EQ(result.verdicts[0].verdict, Verdict::kWrongResult);
    EXPECT_TRUE(result.verdicts[0].localizedToOptimizer);
}

TEST(Backends, WhereBroadcastDefectCrashesTvmImport)
{
    // Where(C[1,1], T[3,1], F[2]) — the paper's exact example.
    Graph g;
    const auto tc = TensorType::concrete(DType::kBool, Shape{{1, 1}});
    const auto tt = TensorType::concrete(DType::kF32, Shape{{3, 1}});
    const auto tf = TensorType::concrete(DType::kF32, Shape{{2}});
    const auto tout = TensorType::concrete(DType::kF32, Shape{{3, 2}});
    const int c = g.addLeaf(NodeKind::kInput, tc, "c");
    const int t = g.addLeaf(NodeKind::kInput, tt, "t");
    const int f = g.addLeaf(NodeKind::kInput, tf, "f");
    AttrMap attrs;
    for (const char* prefix : {"wc", "wt", "wf"}) {
        for (int i = 0; i < ops::kMaxRank; ++i)
            attrs[std::string(prefix) + std::to_string(i)] = 0;
    }
    attrs["wc0"] = 1; // cond last dim is 1
    attrs["wc1"] = 1;
    attrs["wt0"] = 1; // t last dim is 1
    attrs["wf1"] = 1; // f has no dim at position 1
    auto where = std::make_shared<ops::WhereOp>(attrs);
    where->setDTypes({{DType::kBool, DType::kF32, DType::kF32},
                      {DType::kF32}});
    g.addOp(where, {c, t, f}, {tout});

    const auto model = onnx::exportGraph(g);
    auto tvm = makeTvmLite();
    const auto run = tvm->run(model, onesLeaves(g), OptLevel::kO3);
    EXPECT_EQ(run.status, RunResult::Status::kCrash);
    EXPECT_EQ(run.crashKind, "tvm.import.where_broadcast");
    // Conversion defects persist at O0 (importer runs regardless).
    const auto o0 = tvm->run(model, onesLeaves(g), OptLevel::kO0);
    EXPECT_EQ(o0.status, RunResult::Status::kCrash);
}

TEST(Backends, TvmImportDefectStateDoesNotLeakAcrossRuns)
{
    // A Where whose weight-bool condition pushes the semantic
    // tvm.import.bool_where defect and whose i64 branches then crash
    // the import: the semantic push must not survive into the next
    // compile on the same backend instance (regression — it used to,
    // making verdicts depend on backend history and breaking the
    // sharded campaign's iteration independence).
    Graph crashing;
    const auto tc = TensorType::concrete(DType::kBool, Shape{{2}});
    const auto ti = TensorType::concrete(DType::kI64, Shape{{2}});
    const int c = crashing.addLeaf(NodeKind::kWeight, tc, "c");
    const int t = crashing.addLeaf(NodeKind::kInput, ti, "t");
    const int f = crashing.addLeaf(NodeKind::kInput, ti, "f");
    AttrMap attrs;
    for (const char* prefix : {"wc", "wt", "wf"}) {
        for (int i = 0; i < ops::kMaxRank; ++i)
            attrs[std::string(prefix) + std::to_string(i)] = 0;
    }
    auto where = std::make_shared<ops::WhereOp>(attrs);
    where->setDTypes({{DType::kBool, DType::kI64, DType::kI64},
                      {DType::kI64}});
    crashing.addOp(where, {c, t, f}, {ti});
    const auto crash_model = onnx::exportGraph(crashing);

    auto tainted = makeTvmLite();
    const auto crash_run =
        tainted->run(crash_model, onesLeaves(crashing), OptLevel::kO3);
    ASSERT_EQ(crash_run.status, RunResult::Status::kCrash);
    EXPECT_EQ(crash_run.crashKind, "tvm.i64.where");

    // A clean model on the tainted instance must match a fresh one.
    Graph clean;
    const auto tx = TensorType::concrete(DType::kF32, Shape{{2, 3}});
    const int a = clean.addLeaf(NodeKind::kInput, tx, "a");
    const int b = clean.addLeaf(NodeKind::kInput, tx, "b");
    auto add = std::make_shared<ops::BinaryOp>(ops::BinaryKind::kAdd,
                                               equalMask());
    add->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
    clean.addOp(add, {a, b}, {tx});
    const auto clean_model = onnx::exportGraph(clean);
    const auto leaves = onesLeaves(clean);
    const auto after_crash =
        tainted->run(clean_model, leaves, OptLevel::kO3);
    const auto fresh = makeTvmLite()->run(clean_model, leaves,
                                          OptLevel::kO3);
    ASSERT_EQ(after_crash.status, RunResult::Status::kOk);
    ASSERT_EQ(fresh.status, RunResult::Status::kOk);
    EXPECT_TRUE(difftest::allClose(after_crash.outputs, fresh.outputs,
                                   difftest::CompareOptions()));
}

TEST(Backends, LayoutSliceDefectNeedsStride)
{
    // Conv2d(co=4) -> Slice(axis=1, stride s): crash iff s > 1 —
    // exactly why GraphFuzzer (stride always 1) misses it (§5.4).
    auto build = [](int64_t stride) {
        Graph g;
        const auto tx =
            TensorType::concrete(DType::kF32, Shape{{1, 2, 3, 3}});
        const auto tk =
            TensorType::concrete(DType::kF32, Shape{{4, 2, 1, 1}});
        const auto tconv =
            TensorType::concrete(DType::kF32, Shape{{1, 4, 3, 3}});
        const int x = g.addLeaf(NodeKind::kInput, tx, "x");
        const int k = g.addLeaf(NodeKind::kWeight, tk, "k");
        auto conv = std::make_shared<ops::Conv2dOp>(
            AttrMap{{"stride", 1}, {"pad", 0}});
        conv->setDTypes({{DType::kF32, DType::kF32}, {DType::kF32}});
        const int conv_node = g.addOp(conv, {x, k}, {tconv});
        auto slice = std::make_shared<ops::SliceOp>(
            AttrMap{{"rank", 4}, {"axis", 1}, {"start", 0},
                    {"len", 2}, {"stride", stride}});
        slice->setDTypes({{DType::kF32}, {DType::kF32}});
        const auto tslice =
            TensorType::concrete(DType::kF32, Shape{{1, 2, 3, 3}});
        g.addOp(slice, {g.node(conv_node).outputs[0]}, {tslice});
        return g;
    };
    auto tvm = makeTvmLite();
    {
        const Graph g = build(2);
        const auto run = tvm->run(onnx::exportGraph(g), onesLeaves(g),
                                  OptLevel::kO3);
        EXPECT_EQ(run.status, RunResult::Status::kCrash);
        EXPECT_EQ(run.crashKind, "tvm.layout.nchw4c_slice");
    }
    {
        const Graph g = build(1); // GraphFuzzer-style stride
        const auto run = tvm->run(onnx::exportGraph(g), onesLeaves(g),
                                  OptLevel::kO3);
        EXPECT_NE(run.crashKind, "tvm.layout.nchw4c_slice");
    }
}

TEST(Backends, TrtClipInt32IsSemantic)
{
    Graph g;
    const auto type = TensorType::concrete(DType::kI32, Shape{{4}});
    const int x = g.addLeaf(NodeKind::kInput, type, "x");
    auto clip =
        std::make_shared<ops::ClipOp>(AttrMap{{"lo", -1}, {"hi", 1}});
    clip->setDTypes({{DType::kI32}, {DType::kI32}});
    g.addOp(clip, {x}, {type});

    auto backends = difftest::makeAllBackends();
    std::vector<Backend*> raw = {backends[2].get()}; // TrtLite only
    const auto result = difftest::runCase(g, onesLeaves(g), raw);
    ASSERT_EQ(result.verdicts.size(), 1u);
    EXPECT_EQ(result.verdicts[0].verdict, Verdict::kWrongResult);
}

TEST(Compare, ToleranceAbsorbsSmallFpDrift)
{
    auto a = tensor::Tensor::fromVector<float>({1.0f, 2.0f});
    auto b = a;
    b.setScalar(0, 1.0005);
    EXPECT_TRUE(difftest::allClose({a}, {b}));
    b.setScalar(0, 1.5);
    EXPECT_FALSE(difftest::allClose({a}, {b}));
    EXPECT_NE(difftest::firstDifference({a}, {b}), "");
}

TEST(Compare, ShapeAndDTypeMismatchesAreDifferences)
{
    const auto a = tensor::Tensor::zeros(DType::kF32, Shape{{2}});
    const auto b = tensor::Tensor::zeros(DType::kF32, Shape{{3}});
    EXPECT_FALSE(difftest::allClose(a, b));
    const auto c = tensor::Tensor::zeros(DType::kI32, Shape{{2}});
    EXPECT_FALSE(difftest::allClose(a, c));
}

TEST(Difftest, NaNReferenceSkipsComparison)
{
    // Sqrt of a negative input: reference is NaN -> skipped verdicts.
    Graph g;
    const auto type = TensorType::concrete(DType::kF32, Shape{{2}});
    const int x = g.addLeaf(NodeKind::kInput, type, "x");
    auto op = std::make_shared<ops::UnaryOp>(ops::UnaryKind::kSqrt,
                                             AttrMap{});
    op->setDTypes({{DType::kF32}, {DType::kF32}});
    g.addOp(op, {x}, {type});
    exec::LeafValues leaves;
    leaves.emplace(x, tensor::Tensor::full(DType::kF32, Shape{{2}}, -4.0));
    auto backends = difftest::makeAllBackends();
    std::vector<Backend*> raw = {backends[0].get()};
    const auto result = difftest::runCase(g, leaves, raw);
    EXPECT_FALSE(result.referenceValid);
    EXPECT_EQ(result.verdicts[0].verdict, Verdict::kSkippedNaN);
}

} // namespace
} // namespace nnsmith::backends
