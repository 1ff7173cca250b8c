/** Tests for the branch-coverage substrate. */
#include <gtest/gtest.h>

#include <algorithm>

#include "coverage/coverage.h"

namespace nnsmith::coverage {
namespace {

TEST(CoverageMap, SetAlgebra)
{
    CoverageMap a;
    a.add(1);
    a.add(2);
    a.add(3);
    CoverageMap b;
    b.add(3);
    b.add(4);
    EXPECT_EQ(a.unionWith(b).count(), 4u);
    EXPECT_EQ(a.intersect(b).count(), 1u);
    EXPECT_EQ(a.minus(b).count(), 2u);
    EXPECT_TRUE(a.intersect(b).contains(3));
    EXPECT_FALSE(a.minus(b).contains(3));
}

TEST(CoverageRegistry, StaticSitesAreStable)
{
    auto& reg = CoverageRegistry::instance();
    const BranchId a =
        reg.registerSite("test/unit", __FILE__, __LINE__, 0, false);
    const BranchId same =
        reg.registerSite("test/unit", __FILE__, __LINE__ - 2, 0, false);
    EXPECT_EQ(a, same);
}

TEST(CoverageRegistry, HitAndSnapshotByComponent)
{
    auto& reg = CoverageRegistry::instance();
    reg.resetHits();
    NNSMITH_COV("test/componentA", false);
    NNSMITH_COV("test/componentB", true);
    EXPECT_GE(reg.snapshot("test/componentA").count(), 1u);
    EXPECT_GE(reg.snapshot("test/").count(), 2u);
    EXPECT_EQ(reg.snapshot("test/componentA")
                  .intersect(reg.snapshot("test/componentB"))
                  .count(),
              0u);
}

TEST(CoverageRegistry, PassOnlyFilter)
{
    auto& reg = CoverageRegistry::instance();
    reg.resetHits();
    NNSMITH_COV("test/pass", true);
    NNSMITH_COV("test/nonpass", false);
    const auto pass_only = reg.snapshotPassOnly("test/");
    EXPECT_GE(pass_only.count(), 1u);
    const auto non_pass = reg.snapshot("test/nonpass");
    for (BranchId id : non_pass.branches())
        EXPECT_FALSE(pass_only.contains(id));
}

TEST(CoverageRegistry, DynamicSitesKeyedByString)
{
    auto& reg = CoverageRegistry::instance();
    reg.resetHits();
    const size_t before = reg.sitesRegistered("test/dyn");
    reg.hitDynamic("test/dyn", "pattern/a", true);
    reg.hitDynamic("test/dyn", "pattern/b", true);
    reg.hitDynamic("test/dyn", "pattern/a", true); // same site again
    EXPECT_EQ(reg.sitesRegistered("test/dyn"), before + 2);
    EXPECT_EQ(reg.snapshot("test/dyn").count(), 2u);
}

TEST(CoverageRegistry, ResetClearsHitsNotSites)
{
    auto& reg = CoverageRegistry::instance();
    reg.hitDynamic("test/reset", "x", false);
    const size_t sites = reg.sitesRegistered("test/reset");
    reg.resetHits();
    EXPECT_EQ(reg.sitesRegistered("test/reset"), sites);
    EXPECT_EQ(reg.snapshot("test/reset").count(), 0u);
}

TEST(CoverageCollector, TakeReturnsSortedIdsAndEmpties)
{
    auto& reg = CoverageRegistry::instance();
    std::vector<BranchId> ids;
    for (int i = 0; i < 200; ++i)
        ids.push_back(reg.internSiteKey(
            "test/collector|dyn|" + std::to_string(i), false));
    reg.resetHits();
    {
        CoverageCollector collector;
        // Hit out of order, some twice, spanning several bitmap words.
        for (size_t i = ids.size(); i-- > 0;)
            reg.hit(ids[(i * 7) % ids.size()]);
        reg.hit(ids[3]);
        reg.hitRange("test/collector/block", 70, 0.5, false);
        const auto taken = collector.take();
        EXPECT_TRUE(std::is_sorted(taken.begin(), taken.end()));
        EXPECT_EQ(std::adjacent_find(taken.begin(), taken.end()),
                  taken.end());
        EXPECT_EQ(taken.size(), ids.size() + 35);
        for (const auto id : ids)
            EXPECT_TRUE(std::binary_search(taken.begin(), taken.end(), id));
        EXPECT_TRUE(collector.take().empty());
        reg.hit(ids[5]);
        EXPECT_EQ(collector.take(), std::vector<BranchId>{ids[5]});
    }
    // Collected hits never reached the global hit bits.
    EXPECT_EQ(reg.snapshot("test/collector").count(), 0u);
}

TEST(CoverageRegistry, DeclaredTotals)
{
    auto& reg = CoverageRegistry::instance();
    reg.declareTotal("test/totals/a", 100);
    reg.declareTotal("test/totals/b", 50);
    EXPECT_EQ(reg.declaredTotal("test/totals"), 150u);
}

} // namespace
} // namespace nnsmith::coverage
