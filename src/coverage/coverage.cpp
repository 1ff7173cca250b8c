#include "coverage/coverage.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "support/logging.h"

namespace nnsmith::coverage {

namespace {

/**
 * Element index of a canonical range key "<component>|range#<i>": @p i
 * in plain decimal (no sign, no leading zero) below kRangeIndexLimit.
 * Any other spelling is an ordinary site key.
 */
std::optional<size_t>
rangeIndexOf(const std::string& key, const std::string& component)
{
    const size_t start = component.size() + kRangeTag.size();
    if (key.size() <= start || !key.starts_with(component) ||
        key.compare(component.size(), kRangeTag.size(), kRangeTag) != 0 ||
        (key[start] == '0' && key.size() > start + 1))
        return std::nullopt;
    size_t index = 0;
    for (size_t i = start; i < key.size(); ++i) {
        if (key[i] < '0' || key[i] > '9')
            return std::nullopt;
        index = index * 10 + static_cast<size_t>(key[i] - '0');
        if (index >= kRangeIndexLimit)
            return std::nullopt;
    }
    return index;
}

} // namespace

CoverageMap
CoverageMap::unionWith(const CoverageMap& other) const
{
    CoverageMap out = *this;
    out.branches_.insert(other.branches_.begin(), other.branches_.end());
    return out;
}

CoverageMap
CoverageMap::intersect(const CoverageMap& other) const
{
    CoverageMap out;
    std::set_intersection(branches_.begin(), branches_.end(),
                          other.branches_.begin(), other.branches_.end(),
                          std::inserter(out.branches_,
                                        out.branches_.begin()));
    return out;
}

CoverageMap
CoverageMap::minus(const CoverageMap& other) const
{
    CoverageMap out;
    std::set_difference(branches_.begin(), branches_.end(),
                        other.branches_.begin(), other.branches_.end(),
                        std::inserter(out.branches_, out.branches_.begin()));
    return out;
}

thread_local CoverageCollector* CoverageRegistry::activeCollector_ = nullptr;

CoverageCollector::CoverageCollector()
{
    NNSMITH_ASSERT(CoverageRegistry::activeCollector_ == nullptr,
                   "a CoverageCollector is already active on this thread");
    CoverageRegistry::activeCollector_ = this;
}

CoverageCollector::~CoverageCollector()
{
    CoverageRegistry::activeCollector_ = nullptr;
}

void
CoverageCollector::mark(BranchId id)
{
    const size_t word = id / 64;
    if (word >= bits_.size())
        bits_.resize(word + 1, 0);
    bits_[word] |= uint64_t{1} << (id % 64);
}

std::vector<BranchId>
CoverageCollector::take()
{
    std::vector<BranchId> out;
    for (size_t word = 0; word < bits_.size(); ++word) {
        for (uint64_t bits = bits_[word]; bits != 0; bits &= bits - 1)
            out.push_back(static_cast<BranchId>(
                word * 64 + static_cast<size_t>(std::countr_zero(bits))));
        bits_[word] = 0;
    }
    return out;
}

CoverageRegistry&
CoverageRegistry::instance()
{
    static CoverageRegistry registry;
    return registry;
}

BranchId
CoverageRegistry::findOrAddLocked(const std::string& key,
                                  const std::string& component,
                                  bool pass_only)
{
    auto it = byKey_.find(key);
    if (it != byKey_.end())
        return it->second;
    const BranchId id = static_cast<BranchId>(sites_.size());
    sites_.push_back(Site{component, key, pass_only, false});
    byKey_.emplace(key, id);
    if (const auto index = rangeIndexOf(key, component)) {
        const uint32_t block = blockLocked(component);
        auto& ids = blocks_[block].ids;
        if (ids.size() <= *index)
            ids.resize(*index + 1, kNoSite);
        ids[*index] = id;
        sites_[id].block = block;
        sites_[id].index = static_cast<uint32_t>(*index);
    }
    return id;
}

uint32_t
CoverageRegistry::blockLocked(const std::string& component)
{
    const auto [it, inserted] = blockByComponent_.emplace(
        component, static_cast<uint32_t>(blocks_.size()));
    if (inserted)
        blocks_.push_back(RangeBlock{component, {}, 0});
    return it->second;
}

BranchId
CoverageRegistry::rangeElementLocked(uint32_t block, size_t index,
                                     bool pass_only)
{
    NNSMITH_ASSERT(index < kRangeIndexLimit, "range index ", index,
                   " is past kRangeIndexLimit");
    const auto& ids = blocks_[block].ids;
    if (index < ids.size() && ids[index] != kNoSite)
        return ids[index];
    const std::string component = blocks_[block].component;
    return findOrAddLocked(
        component + std::string(kRangeTag) + std::to_string(index),
        component, pass_only);
}

BranchId
CoverageRegistry::registerSite(const std::string& component,
                               const char* file, int line,
                               int discriminator, bool pass_only)
{
    const std::string key = component + "|" + file + ":" +
                            std::to_string(line) + "#" +
                            std::to_string(discriminator);
    std::lock_guard<std::mutex> lock(mu_);
    return findOrAddLocked(key, component, pass_only);
}

void
CoverageRegistry::hit(BranchId id)
{
    std::lock_guard<std::mutex> lock(mu_);
    NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
    if (activeCollector_ != nullptr) {
        activeCollector_->mark(id);
        return;
    }
    sites_[id].hit = true;
}

void
CoverageRegistry::hitDynamic(const std::string& component,
                             const std::string& key, bool pass_only)
{
    const std::string full_key = component + "|dyn|" + key;
    const bool collect = activeCollector_ != nullptr;
    BranchId id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = findOrAddLocked(full_key, component, pass_only);
        if (!collect) {
            sites_[id].hit = true;
            return;
        }
    }
    activeCollector_->mark(id);
}

void
CoverageRegistry::hitRange(const std::string& component, size_t count,
                           double fraction, bool pass_only)
{
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t block = blockLocked(component);
    if (blocks_[block].registered == 0) {
        NNSMITH_ASSERT(count <= kRangeIndexLimit &&
                           component.find('|') == std::string::npos,
                       "bad hitRange block '", component, "' of ", count);
        // Elements already interned from a worker's wire records keep
        // their ids; only the missing ones are minted.
        for (size_t i = 0; i < count; ++i)
            rangeElementLocked(block, i, pass_only);
        blocks_[block].registered = count;
    }
    const size_t registered = blocks_[block].registered;
    const size_t n = std::min(
        registered,
        static_cast<size_t>(fraction * static_cast<double>(registered)));
    const auto& ids = blocks_[block].ids;
    if (activeCollector_ != nullptr) {
        for (size_t i = 0; i < n; ++i)
            activeCollector_->mark(ids[i]);
        return;
    }
    for (size_t i = 0; i < n; ++i)
        sites_[ids[i]].hit = true;
}

std::vector<SiteInfo>
CoverageRegistry::describeSites(const std::vector<BranchId>& ids) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SiteInfo> out;
    out.reserve(ids.size());
    for (const BranchId id : ids) {
        NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
        const Site& site = sites_[id];
        out.push_back(SiteInfo{site.key, site.passOnly, site.component});
    }
    return out;
}

BranchId
CoverageRegistry::internSiteKey(const std::string& key, bool pass_only)
{
    const auto bar = key.find('|');
    NNSMITH_ASSERT(bar != std::string::npos && bar > 0,
                   "site key '", key, "' has no component prefix");
    std::lock_guard<std::mutex> lock(mu_);
    return findOrAddLocked(key, key.substr(0, bar), pass_only);
}

std::vector<SiteRun>
CoverageRegistry::describeRuns(const std::vector<BranchId>& ids) const
{
    std::vector<BranchId> unique_ids = ids;
    if (!std::is_sorted(unique_ids.begin(), unique_ids.end()))
        std::sort(unique_ids.begin(), unique_ids.end());
    unique_ids.erase(std::unique(unique_ids.begin(), unique_ids.end()),
                     unique_ids.end());

    struct Element {
        uint32_t block;
        uint32_t index;
        bool passOnly;
    };
    std::vector<SiteRun> runs;
    std::vector<Element> elements;
    std::lock_guard<std::mutex> lock(mu_);
    for (const BranchId id : unique_ids) {
        NNSMITH_ASSERT(id < sites_.size(), "unknown branch id ", id);
        const Site& site = sites_[id];
        if (site.block == kNoBlock)
            runs.push_back(SiteRun{site.key, site.passOnly});
        else
            elements.push_back(Element{site.block, site.index, site.passOnly});
    }
    std::sort(elements.begin(), elements.end(),
              [](const Element& a, const Element& b) {
                  return a.block != b.block ? a.block < b.block
                                            : a.index < b.index;
              });
    for (size_t i = 0; i < elements.size();) {
        size_t j = i + 1;
        while (j < elements.size() &&
               elements[j].block == elements[i].block &&
               elements[j].passOnly == elements[i].passOnly &&
               elements[j].index == elements[j - 1].index + 1)
            ++j;
        runs.push_back(SiteRun{blocks_[elements[i].block].component,
                               elements[i].passOnly, true,
                               elements[i].index, elements[j - 1].index});
        i = j;
    }
    return runs;
}

std::vector<BranchId>
CoverageRegistry::internRuns(const std::vector<SiteRun>& runs)
{
    size_t total = 0;
    for (const auto& run : runs)
        total += run.range ? run.last - run.first + 1 : 1;
    std::vector<BranchId> ids;
    ids.reserve(total);
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& run : runs) {
        if (!run.range) {
            const auto bar = run.key.find('|');
            NNSMITH_ASSERT(bar != std::string::npos && bar > 0,
                           "site key '", run.key,
                           "' has no component prefix");
            ids.push_back(findOrAddLocked(run.key, run.key.substr(0, bar),
                                          run.passOnly));
            continue;
        }
        NNSMITH_ASSERT(run.first <= run.last &&
                           run.last < kRangeIndexLimit,
                       "bad range run ", run.key, " ", run.first, "..",
                       run.last);
        const uint32_t block = blockLocked(run.key);
        for (size_t i = run.first; i <= run.last; ++i)
            ids.push_back(rangeElementLocked(block, i, run.passOnly));
    }
    return ids;
}

CoverageMap
CoverageRegistry::snapshot() const
{
    return snapshot("");
}

CoverageMap
CoverageRegistry::snapshot(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoverageMap map;
    for (BranchId id = 0; id < sites_.size(); ++id) {
        const Site& site = sites_[id];
        if (site.hit && site.component.rfind(component_prefix, 0) == 0)
            map.add(id);
    }
    return map;
}

CoverageMap
CoverageRegistry::snapshotPassOnly(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    CoverageMap map;
    for (BranchId id = 0; id < sites_.size(); ++id) {
        const Site& site = sites_[id];
        if (site.hit && site.passOnly &&
            site.component.rfind(component_prefix, 0) == 0)
            map.add(id);
    }
    return map;
}

void
CoverageRegistry::resetHits()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& site : sites_)
        site.hit = false;
}

size_t
CoverageRegistry::sitesRegistered(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t count = 0;
    for (const auto& site : sites_) {
        if (site.component.rfind(component_prefix, 0) == 0)
            ++count;
    }
    return count;
}

void
CoverageRegistry::declareTotal(const std::string& component, size_t total)
{
    std::lock_guard<std::mutex> lock(mu_);
    declaredTotals_[component] = total;
}

size_t
CoverageRegistry::declaredTotal(const std::string& component_prefix) const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [component, n] : declaredTotals_) {
        if (component.rfind(component_prefix, 0) == 0)
            total += n;
    }
    return total;
}

} // namespace nnsmith::coverage
