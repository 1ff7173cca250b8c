/**
 * Property tests for the typed kernel layer (tensor/kernels.h):
 * integer-exact arithmetic beyond 2^53, defined integer div/mod-by-zero
 * with poison propagation through the interpreter and the difftest
 * oracle, defined non-finite casts, comparator inf semantics, and
 * comparison ops over non-f32 dtypes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "autodiff/losses.h"
#include "baselines/concrete_builder.h"
#include "campaign_fixture.h"
#include "difftest/compare.h"
#include "difftest/oracle.h"
#include "exec/interpreter.h"
#include "ops/binary.h"
#include "ops/reduce.h"
#include "ops/registry.h"
#include "tensor/kernels.h"

namespace nnsmith {
namespace {

using baselines::addInput;
using baselines::appendBinary;
using graph::Graph;
using ops::AttrMap;
using ops::BinaryKind;
using ops::BinaryOp;
using tensor::DType;
using tensor::Shape;
using tensor::Tensor;

AttrMap
noBroadcastAttrs()
{
    AttrMap attrs;
    for (int i = 0; i < ops::kMaxRank; ++i)
        attrs["bm" + std::to_string(i)] = 0;
    return attrs;
}

// ---- i64 exactness beyond 2^53 --------------------------------------------

TEST(TypedKernels, Int64ArithmeticBeyondDoublePrecision)
{
    // 2^53 + 1 is not representable as a double; the old
    // scalarAt/setScalar round-trip silently corrupted it.
    const int64_t big = (1ll << 53) + 1;
    const auto a = Tensor::fromVector<int64_t>({big, -big, 1});
    const auto b = Tensor::fromVector<int64_t>({1, 1, big});

    const BinaryOp add(BinaryKind::kAdd, noBroadcastAttrs());
    const auto sum = add.execute({a, b})[0];
    EXPECT_EQ(sum.data<int64_t>()[0], big + 1);
    EXPECT_EQ(sum.data<int64_t>()[1], -big + 1);
    EXPECT_EQ(sum.data<int64_t>()[2], big + 1);

    const BinaryOp mul(BinaryKind::kMul, noBroadcastAttrs());
    const auto prod = mul.execute({a, b})[0];
    EXPECT_EQ(prod.data<int64_t>()[0], big);
    EXPECT_EQ(prod.data<int64_t>()[2], big);
}

TEST(TypedKernels, Int64ComparisonExactAtAdjacentValues)
{
    // 2^53 and 2^53 + 1 collapse to the same double; native i64
    // comparison must still distinguish them.
    const int64_t big = 1ll << 53;
    const auto a = Tensor::fromVector<int64_t>({big + 1});
    const auto b = Tensor::fromVector<int64_t>({big});

    const BinaryOp greater(BinaryKind::kGreater, noBroadcastAttrs());
    EXPECT_EQ(greater.execute({a, b})[0].data<bool>()[0], 1);
    const BinaryOp equal(BinaryKind::kEqual, noBroadcastAttrs());
    EXPECT_EQ(equal.execute({a, b})[0].data<bool>()[0], 0);

    // Tensor::equals is bit-exact too.
    EXPECT_FALSE(a.equals(b));
}

TEST(TypedKernels, Int64SumExactBeyondDoublePrecision)
{
    const int64_t big = (1ll << 53) + 1;
    const auto x = Tensor::fromVector<int64_t>({big, 1, 1});
    ops::ReduceOp sum(ops::ReduceKind::kSum,
                      AttrMap{{"rank", 1}, {"axis", 0}, {"keepdims", 0}});
    const auto out = sum.execute({x})[0];
    EXPECT_EQ(out.data<int64_t>()[0], big + 2);
}

// ---- integer div/mod semantics --------------------------------------------

TEST(TypedKernels, IntegerDivisionTruncatesTowardZero)
{
    const auto a = Tensor::fromVector<int32_t>({7, -7, 7, -7});
    const auto b = Tensor::fromVector<int32_t>({2, 2, -2, -2});
    const BinaryOp div(BinaryKind::kDiv, noBroadcastAttrs());
    const auto out = div.execute({a, b})[0];
    EXPECT_EQ(out.data<int32_t>()[0], 3);
    EXPECT_EQ(out.data<int32_t>()[1], -3);
    EXPECT_EQ(out.data<int32_t>()[2], -3);
    EXPECT_EQ(out.data<int32_t>()[3], 3);
    EXPECT_FALSE(out.poisoned());
}

TEST(TypedKernels, DivModByZeroYieldsZeroAndPoisons)
{
    const auto a = Tensor::fromVector<int64_t>({5, 6});
    const auto b = Tensor::fromVector<int64_t>({0, 3});
    const BinaryOp div(BinaryKind::kDiv, noBroadcastAttrs());
    const auto q = div.execute({a, b})[0];
    EXPECT_EQ(q.data<int64_t>()[0], 0);
    EXPECT_EQ(q.data<int64_t>()[1], 2);
    EXPECT_TRUE(q.poisoned());

    const BinaryOp mod(BinaryKind::kMod, noBroadcastAttrs());
    const auto r = mod.execute({a, b})[0];
    EXPECT_EQ(r.data<int64_t>()[0], 0);
    EXPECT_EQ(r.data<int64_t>()[1], 0);
    EXPECT_TRUE(r.poisoned());
}

TEST(TypedKernels, IntMinDivMinusOneWraps)
{
    const int32_t min = std::numeric_limits<int32_t>::min();
    const auto a = Tensor::fromVector<int32_t>({min});
    const auto b = Tensor::fromVector<int32_t>({-1});
    const BinaryOp div(BinaryKind::kDiv, noBroadcastAttrs());
    const auto q = div.execute({a, b})[0];
    EXPECT_EQ(q.data<int32_t>()[0], min); // documented wrap
    EXPECT_FALSE(q.poisoned());
    const BinaryOp mod(BinaryKind::kMod, noBroadcastAttrs());
    EXPECT_EQ(mod.execute({a, b})[0].data<int32_t>()[0], 0);
}

TEST(TypedKernels, FloatModMatchesFmod)
{
    const auto a = Tensor::fromVector<float>({7.5f, -7.5f});
    const auto b = Tensor::fromVector<float>({2.0f, 2.0f});
    const BinaryOp mod(BinaryKind::kMod, noBroadcastAttrs());
    const auto out = mod.execute({a, b})[0];
    EXPECT_FLOAT_EQ(out.data<float>()[0], std::fmod(7.5f, 2.0f));
    EXPECT_FLOAT_EQ(out.data<float>()[1], std::fmod(-7.5f, 2.0f));
}

TEST(TypedKernels, InterpreterRecordsDivByZeroLikeNaN)
{
    Graph graph;
    const int a = addInput(graph, DType::kI64, Shape{{2}});
    const int b = addInput(graph, DType::kI64, Shape{{2}});
    appendBinary(graph, BinaryKind::kDiv, a, b);

    exec::LeafValues leaves;
    leaves.emplace(a, Tensor::fromVector<int64_t>({4, 9}));
    leaves.emplace(b, Tensor::fromVector<int64_t>({2, 0}));
    const auto result = exec::execute(graph, leaves);
    EXPECT_FALSE(result.numericallyValid());
    EXPECT_NE(result.firstInvalidNode, -1);

    // A clean divisor stays valid.
    leaves.at(b) = Tensor::fromVector<int64_t>({2, 3});
    EXPECT_TRUE(exec::execute(graph, leaves).numericallyValid());
}

TEST(TypedKernels, OracleSkipsComparisonOnPoisonedReference)
{
    Graph graph;
    const int a = addInput(graph, DType::kI32, Shape{{1}});
    const int b = addInput(graph, DType::kI32, Shape{{1}});
    appendBinary(graph, BinaryKind::kMod, a, b);

    exec::LeafValues leaves;
    leaves.emplace(a, Tensor::fromVector<int32_t>({5}));
    leaves.emplace(b, Tensor::fromVector<int32_t>({0}));
    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);
    const auto result = difftest::runCase(graph, leaves, raw);
    ASSERT_TRUE(result.exportOk);
    EXPECT_FALSE(result.referenceValid);
    for (const auto& verdict : result.verdicts)
        EXPECT_NE(verdict.verdict, difftest::Verdict::kWrongResult);
}

// ---- defined non-finite casts ---------------------------------------------

TEST(TypedKernels, SaturateCastDefinedForNonFinite)
{
    EXPECT_EQ(tensor::saturateCast<int32_t>(std::nan("")), 0);
    EXPECT_EQ(tensor::saturateCast<int32_t>(HUGE_VAL),
              std::numeric_limits<int32_t>::max());
    EXPECT_EQ(tensor::saturateCast<int32_t>(-HUGE_VAL),
              std::numeric_limits<int32_t>::min());
    EXPECT_EQ(tensor::saturateCast<int64_t>(1e300),
              std::numeric_limits<int64_t>::max());
    EXPECT_EQ(tensor::saturateCast<int64_t>(-1e300),
              std::numeric_limits<int64_t>::min());
    EXPECT_EQ(tensor::saturateCast<int32_t>(-7.9), -7); // trunc to zero
}

TEST(TypedKernels, CastToNonFiniteSaturates)
{
    const auto x = Tensor::fromVector<double>(
        {HUGE_VAL, -HUGE_VAL, std::nan(""), 42.5});
    const auto as_i32 = x.castTo(DType::kI32);
    EXPECT_EQ(as_i32.data<int32_t>()[0],
              std::numeric_limits<int32_t>::max());
    EXPECT_EQ(as_i32.data<int32_t>()[1],
              std::numeric_limits<int32_t>::min());
    EXPECT_EQ(as_i32.data<int32_t>()[2], 0);
    EXPECT_EQ(as_i32.data<int32_t>()[3], 42);

    // Non-zero (NaN included) is true under bool cast.
    const auto as_bool = x.castTo(DType::kBool);
    EXPECT_EQ(as_bool.data<bool>()[0], 1);
    EXPECT_EQ(as_bool.data<bool>()[2], 1);

    Tensor t = Tensor::zeros(DType::kI64, Shape{{1}});
    t.setScalar(0, HUGE_VAL);
    EXPECT_EQ(t.data<int64_t>()[0], std::numeric_limits<int64_t>::max());
    t.setScalar(0, std::nan(""));
    EXPECT_EQ(t.data<int64_t>()[0], 0);
}

// ---- comparator inf semantics ---------------------------------------------

TEST(TypedKernels, AllCloseTreatsMatchingInfinitiesAsEqual)
{
    const double inf = HUGE_VAL;
    const auto a = Tensor::fromVector<double>({inf, -inf, 1.0});
    const auto b = Tensor::fromVector<double>({inf, -inf, 1.0});
    EXPECT_TRUE(difftest::allClose(a, b, {}));

    const auto c = Tensor::fromVector<double>({inf, inf, 1.0});
    EXPECT_FALSE(difftest::allClose(a, c, {})); // -inf vs inf

    const auto d = Tensor::fromVector<double>({inf, -inf, 2.0});
    EXPECT_FALSE(difftest::allClose(a, d, {})); // finite mismatch
}

TEST(TypedKernels, AllCloseToleranceIsSymmetric)
{
    // Near the rtol boundary the old rtol*|y| check disagreed
    // between argument orders.
    const auto a = Tensor::fromVector<double>({1.00000099});
    const auto b = Tensor::fromVector<double>({1.0});
    difftest::CompareOptions options;
    options.atol = 0.0;
    options.rtol = 1e-6;
    EXPECT_EQ(difftest::allClose(a, b, options),
              difftest::allClose(b, a, options));
    EXPECT_TRUE(difftest::allClose(a, b, options));
}

TEST(TypedKernels, AllCloseIsExactForIntegers)
{
    // Integer semantics are deterministic, so the oracle must not
    // apply float tolerances (1000 vs 1009 is within rtol=1e-2) or a
    // double round-trip (2^53 and 2^53 + 1 collapse).
    const int64_t big = 1ll << 53;
    const auto a = Tensor::fromVector<int64_t>({1000, big});
    const auto b = Tensor::fromVector<int64_t>({1009, big + 1});
    EXPECT_FALSE(difftest::allClose(a, b, {}));
    EXPECT_FALSE(difftest::allClose(
        Tensor::fromVector<int64_t>({big}),
        Tensor::fromVector<int64_t>({big + 1}), {}));
    EXPECT_TRUE(difftest::allClose(a, a, {}));
}

TEST(TypedKernels, ModIsVulnerableWithDivisorLoss)
{
    EXPECT_TRUE(autodiff::isVulnerableOp("Mod"));
    const BinaryOp mod(BinaryKind::kMod, noBroadcastAttrs());
    const auto x = Tensor::fromVector<float>({5.0f});
    const auto y = Tensor::fromVector<float>({0.0f});
    const auto loss = autodiff::firstPositiveLoss(mod, {x, y});
    ASSERT_TRUE(loss.has_value());
    EXPECT_GT(loss->loss, 0.0);
    ASSERT_TRUE(loss->gradInputs[1].defined());
}

// ---- comparisons over every dtype -----------------------------------------

TEST(TypedKernels, ComparisonCombosCoverAllDTypes)
{
    const BinaryOp less(BinaryKind::kLess, noBroadcastAttrs());
    const auto combos = less.dtypeCombos();
    for (DType t : tensor::allDTypes()) {
        const bool present =
            std::any_of(combos.begin(), combos.end(), [&](const auto& c) {
                return c.in[0] == t && c.in[1] == t &&
                       c.out[0] == DType::kBool;
            });
        EXPECT_TRUE(present) << "missing comparison combo for "
                             << tensor::dtypeName(t);
    }
}

TEST(TypedKernels, ComparisonsExecuteOverNonF32DTypes)
{
    const BinaryOp less(BinaryKind::kLess, noBroadcastAttrs());

    const auto i32a = Tensor::fromVector<int32_t>({1, 5});
    const auto i32b = Tensor::fromVector<int32_t>({2, 4});
    const auto li = less.execute({i32a, i32b})[0];
    EXPECT_EQ(li.dtype(), DType::kBool);
    EXPECT_EQ(li.data<bool>()[0], 1);
    EXPECT_EQ(li.data<bool>()[1], 0);

    const auto f64a = Tensor::fromVector<double>({1.5});
    const auto f64b = Tensor::fromVector<double>({2.5});
    EXPECT_EQ(less.execute({f64a, f64b})[0].data<bool>()[0], 1);

    const auto boola = Tensor::fromVector<bool>({false, true});
    const auto boolb = Tensor::fromVector<bool>({true, true});
    const auto lb = less.execute({boola, boolb})[0];
    EXPECT_EQ(lb.data<bool>()[0], 1); // false < true
    EXPECT_EQ(lb.data<bool>()[1], 0);

    const BinaryOp equal(BinaryKind::kEqual, noBroadcastAttrs());
    const auto eb = equal.execute({boola, boolb})[0];
    EXPECT_EQ(eb.data<bool>()[0], 0);
    EXPECT_EQ(eb.data<bool>()[1], 1);
}

TEST(TypedKernels, ComparisonDifftestOverI64EndToEnd)
{
    Graph graph;
    const int a = addInput(graph, DType::kI64, Shape{{3}});
    const int b = addInput(graph, DType::kI64, Shape{{3}});
    appendBinary(graph, BinaryKind::kGreater, a, b);

    exec::LeafValues leaves;
    leaves.emplace(a, Tensor::fromVector<int64_t>({3, 1, 8}));
    leaves.emplace(b, Tensor::fromVector<int64_t>({2, 4, 8}));
    const auto owned = difftest::makeAllBackends();
    const auto raw = test::borrow(owned);
    const auto result = difftest::runCase(graph, leaves, raw);
    ASSERT_TRUE(result.exportOk);
    EXPECT_TRUE(result.referenceValid);
}

// ---- misc regressions ------------------------------------------------------

TEST(TypedKernels, DataBoolReturnsStoredBytes)
{
    Tensor t = Tensor::fromVector<bool>({true, false, true});
    const uint8_t* p = t.data<bool>(); // stored type, no aliasing cast
    EXPECT_EQ(p[0], 1);
    EXPECT_EQ(p[1], 0);
    EXPECT_EQ(p[2], 1);
}

TEST(TypedKernels, RegistryFindIsConsistentWithAll)
{
    const auto& registry = ops::OpRegistry::global();
    for (const auto& meta : registry.all()) {
        const auto* found = registry.find(meta.name);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found, &meta); // index points into metas_
    }
    EXPECT_EQ(registry.find("NoSuchOp"), nullptr);
    EXPECT_NE(registry.find("Mod"), nullptr); // new operator registered
}

TEST(TypedKernels, WrapArithmeticIsTwosComplement)
{
    const int64_t max = std::numeric_limits<int64_t>::max();
    EXPECT_EQ(tensor::wrapAdd(max, int64_t{1}),
              std::numeric_limits<int64_t>::min());
    EXPECT_EQ(tensor::wrapSub(std::numeric_limits<int64_t>::min(),
                              int64_t{1}),
              max);
    EXPECT_EQ(tensor::wrapMul(max, int64_t{2}), -2);
}

// ---- empty-axis reductions (DESIGN.md "Numeric semantics") ----------------

ops::ReduceOp
reduceOver(ops::ReduceKind kind, int rank, int axis)
{
    return ops::ReduceOp(kind, AttrMap{{"rank", rank},
                                       {"axis", axis},
                                       {"keepdims", 0}});
}

TEST(TypedKernels, EmptyAxisFloatReduceYieldsIdentity)
{
    // Reducing over a zero-length axis must yield the reduction
    // identity, not the 0 a zero-initialized output buffer happens to
    // hold: Prod -> 1, Max -> -inf, Min -> +inf, Sum -> 0, Mean -> NaN.
    const auto x = Tensor::zeros(DType::kF32, Shape{{2, 0}});

    const auto prod = reduceOver(ops::ReduceKind::kProd, 2, 1)
                          .execute({x})[0];
    ASSERT_EQ(prod.numel(), 2);
    EXPECT_EQ(prod.data<float>()[0], 1.0f);
    EXPECT_EQ(prod.data<float>()[1], 1.0f);

    const auto max = reduceOver(ops::ReduceKind::kMax, 2, 1)
                         .execute({x})[0];
    EXPECT_TRUE(std::isinf(max.data<float>()[0]));
    EXPECT_LT(max.data<float>()[0], 0.0f);

    const auto min = reduceOver(ops::ReduceKind::kMin, 2, 1)
                         .execute({x})[0];
    EXPECT_TRUE(std::isinf(min.data<float>()[0]));
    EXPECT_GT(min.data<float>()[0], 0.0f);

    const auto sum = reduceOver(ops::ReduceKind::kSum, 2, 1)
                         .execute({x})[0];
    EXPECT_EQ(sum.data<float>()[0], 0.0f);

    const auto mean = reduceOver(ops::ReduceKind::kMean, 2, 1)
                          .execute({x})[0];
    EXPECT_TRUE(std::isnan(mean.data<float>()[0]));
    EXPECT_TRUE(std::isnan(mean.data<float>()[1]));
}

TEST(TypedKernels, EmptyAxisIntReduceYieldsIdentity)
{
    const auto x = Tensor::zeros(DType::kI32, Shape{{3, 0}});

    const auto prod = reduceOver(ops::ReduceKind::kProd, 2, 1)
                          .execute({x})[0];
    ASSERT_EQ(prod.numel(), 3);
    EXPECT_EQ(prod.data<int32_t>()[0], 1);

    const auto max = reduceOver(ops::ReduceKind::kMax, 2, 1)
                         .execute({x})[0];
    EXPECT_EQ(max.data<int32_t>()[0],
              std::numeric_limits<int32_t>::min());

    const auto min = reduceOver(ops::ReduceKind::kMin, 2, 1)
                         .execute({x})[0];
    EXPECT_EQ(min.data<int32_t>()[0],
              std::numeric_limits<int32_t>::max());

    const auto sum = reduceOver(ops::ReduceKind::kSum, 2, 1)
                         .execute({x})[0];
    EXPECT_EQ(sum.data<int32_t>()[0], 0);
}

TEST(TypedKernels, EmptyAxisReduceOfNonEmptyOuterKeepsEveryElement)
{
    // keepdims path over an empty middle axis: shape {2,0,3} -> {2,1,3},
    // six identity elements — the old numel()/axis_dim slice count
    // collapsed to zero and skipped them all.
    const auto x = Tensor::zeros(DType::kF32, Shape{{2, 0, 3}});
    ops::ReduceOp prod(ops::ReduceKind::kProd,
                       AttrMap{{"rank", 3}, {"axis", 1}, {"keepdims", 1}});
    const auto out = prod.execute({x})[0];
    ASSERT_EQ(out.numel(), 6);
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_EQ(out.data<float>()[i], 1.0f);
}

// ---- axis rank guards -----------------------------------------------------

TEST(TypedKernels, ForEachSliceRejectsOutOfRangeAxis)
{
    const Shape shape{{3, 2}};
    const auto nop = [](int64_t, int64_t) {};
    EXPECT_THROW(tensor::forEachSlice(shape, 2, nop), PanicError);
    EXPECT_THROW(tensor::forEachSlice(shape, -1, nop), PanicError);
    EXPECT_NO_THROW(tensor::forEachSlice(shape, 1, nop));
}

TEST(TypedKernels, ReduceRejectsOutOfRangeAxis)
{
    const auto x = Tensor::fromVector<float>({1.0f, 2.0f, 3.0f});
    EXPECT_THROW(reduceOver(ops::ReduceKind::kSum, 1, 1).execute({x}),
                 PanicError);
}

TEST(TypedKernels, BadAxisPanicsThroughInterpreter)
{
    // A hand-built (or corpus-mutated) op can carry an axis its input
    // rank does not have; execution must panic at the guard instead of
    // reading shape.dims out of bounds.
    Graph graph;
    const int a = addInput(graph, DType::kF32, Shape{{4}});
    baselines::addConcreteOp(
        graph,
        std::make_shared<ops::SoftmaxOp>(AttrMap{{"rank", 1}, {"axis", 2}}),
        {a});

    exec::LeafValues leaves;
    leaves.emplace(a, Tensor::fromVector<float>({1.0f, 2.0f, 3.0f, 4.0f}));
    EXPECT_THROW(exec::execute(graph, leaves), PanicError);
}

} // namespace
} // namespace nnsmith
