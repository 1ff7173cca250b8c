/**
 * @file
 * First-party branch-coverage instrumentation.
 *
 * The paper measures Clang source-level branch coverage of the
 * compilers under test; our substrate compilers are instrumented with
 * COV_BRANCH sites instead (see DESIGN.md "Substitutions"). Each site
 * belongs to a component (e.g. "ortlite/pass") and may be tagged
 * pass-only, mirroring the paper's all-files vs pass-files split
 * (Figs. 4 and 6).
 *
 * The registry is process-global so benches can reset hit state
 * between fuzzers while keeping stable branch identities for
 * Venn-diagram set algebra. Site registration and hit recording are
 * thread-safe; a thread that activates a CoverageCollector records its
 * hits into that collector instead of the global hit bits, which is
 * how sharded campaigns (fuzz/parallel_campaign.h) capture
 * per-iteration coverage deltas without cross-shard interference (see
 * DESIGN.md "Sharded campaigns").
 */
#ifndef NNSMITH_COVERAGE_COVERAGE_H
#define NNSMITH_COVERAGE_COVERAGE_H

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace nnsmith::coverage {

/** Stable identifier of one instrumented branch site. */
using BranchId = uint32_t;

/** A set of covered branches with Venn-style algebra. */
class CoverageMap {
  public:
    void add(BranchId id) { branches_.insert(id); }
    size_t count() const { return branches_.size(); }
    bool contains(BranchId id) const { return branches_.count(id) != 0; }

    CoverageMap unionWith(const CoverageMap& other) const;
    CoverageMap intersect(const CoverageMap& other) const;
    CoverageMap minus(const CoverageMap& other) const;

    const std::set<BranchId>& branches() const { return branches_; }

  private:
    std::set<BranchId> branches_;
};

/**
 * RAII per-thread hit collector.
 *
 * While an instance is alive on a thread, every coverage hit made from
 * that thread is recorded into the collector instead of the registry's
 * global hit bits. Sites are still registered globally (ids stay
 * process-stable); only the *hit* state is redirected. At most one
 * collector may be active per thread.
 */
class CoverageCollector {
  public:
    CoverageCollector();
    ~CoverageCollector();
    CoverageCollector(const CoverageCollector&) = delete;
    CoverageCollector& operator=(const CoverageCollector&) = delete;

    /** Ids hit since construction or the last take(), sorted; clears. */
    std::vector<BranchId> take();

  private:
    friend class CoverageRegistry;
    void mark(BranchId id);
    /** One bit per BranchId; take() scans and zeroes it. */
    std::vector<uint64_t> bits_;
};

/**
 * Canonical identity of one branch site, portable across processes.
 *
 * BranchId values are assigned in first-discovery order and are only
 * meaningful inside one process; the canonical *site key* — the string
 * a site was registered under ("component|file:line#disc",
 * "component|dyn|key", "component|range#i") — is a pure function of
 * the site itself. Worker processes serialize coverage by site key
 * (fuzz/wire.h) and the coordinator re-interns the keys into its own
 * registry, which is what makes campaign results process-portable.
 */
struct SiteInfo {
    std::string key;       ///< canonical site key
    bool passOnly = false;
    std::string component; ///< the component the site belongs to
};

/**
 * Range elements ("component|range#i") at an index at or above this
 * are ordinary sites outside their block's index table. It bounds the
 * table a hostile wire key can make a process allocate, and so the
 * length of any range run.
 */
constexpr size_t kRangeIndexLimit = size_t{1} << 20;

/** Joins a component to a range element index: "component|range#i". */
constexpr std::string_view kRangeTag = "|range#";

/**
 * A group of sites as the wire format (fuzz/wire.h) carries it: one
 * site by its key, or the elements [first, last] of the hitRange
 * block of component @c key.
 */
struct SiteRun {
    std::string key;  ///< site key; for a range run, the block's component
    bool passOnly = false;
    bool range = false; ///< elements [first, last] of a hitRange block
    size_t first = 0;
    size_t last = 0;
};

/** Process-global branch registry. */
class CoverageRegistry {
  public:
    static CoverageRegistry& instance();

    /**
     * Register (idempotently) a branch site and return its id. Sites
     * are keyed by (component, file, line, discriminator).
     */
    BranchId registerSite(const std::string& component,
                          const char* file, int line, int discriminator,
                          bool pass_only);

    /** Record a hit on @p id. */
    void hit(BranchId id);

    /**
     * Register-and-hit a *data-dependent* branch: one site per
     * distinct (component, key) pair. Substrate passes use this to
     * model per-pattern branch populations — e.g. a fusion pass has
     * one branch per (producer op, consumer op, dtype) combination,
     * which is exactly the structure that makes fuzzer input diversity
     * visible in coverage.
     */
    void hitDynamic(const std::string& component, const std::string& key,
                    bool pass_only);

    /**
     * Register (once) a block of @p count anonymous branch sites under
     * @p component and mark the first @p fraction of them hit. Models
     * large pattern-*insensitive* code masses — parser/IR/runtime
     * plumbing that any compile exercises (the paper notes `import
     * tvm` alone covers 4015 branches). Cheap: no string building per
     * hit.
     */
    void hitRange(const std::string& component, size_t count,
                  double fraction = 1.0, bool pass_only = false);

    /** Branches hit since the last reset, optionally filtered. */
    CoverageMap snapshot() const;
    CoverageMap snapshot(const std::string& component_prefix) const;
    CoverageMap snapshotPassOnly(
        const std::string& component_prefix = "") const;

    /**
     * Canonical identities of @p ids, in the same order. Used by the
     * campaign wire format (fuzz/wire.h) to serialize coverage hits in
     * a process-portable form. Asserts on unknown ids.
     */
    std::vector<SiteInfo> describeSites(const std::vector<BranchId>& ids)
        const;

    /**
     * Resolve a canonical site key to this process's BranchId,
     * registering the site first if this process has never seen it
     * (the component is the key's prefix up to the first '|').
     * Idempotent, and coherent with registerSite/hitDynamic/hitRange:
     * a later in-process registration of the same site finds the
     * interned id instead of minting a new one.
     */
    BranchId internSiteKey(const std::string& key, bool pass_only);

    /**
     * Group @p ids (any order, duplicates ignored) for the wire: each
     * maximal run of consecutive elements of one hitRange block that
     * share a pass tag becomes one range run (a lone element is a run
     * with first == last); every other site is one keyed entry. The
     * runs are a pure function of the id set; their order is not
     * specified.
     */
    std::vector<SiteRun> describeRuns(const std::vector<BranchId>& ids)
        const;

    /**
     * Inverse of describeRuns, under one lock: the ids of every run in
     * order, a range run expanded to its elements in index order.
     * Unknown sites are registered as internSiteKey does. Asserts that
     * range runs satisfy first <= last < kRangeIndexLimit.
     */
    std::vector<BranchId> internRuns(const std::vector<SiteRun>& runs);

    /** Clear hit state (registered sites keep their ids). */
    void resetHits();

    /** Number of registered sites under @p component_prefix. */
    size_t sitesRegistered(const std::string& component_prefix = "") const;

    /**
     * Declared branch population of a component — the denominator for
     * "X% of total" annotations (Fig. 4). Substrate components declare
     * a nominal total reflecting their full instrumented population.
     */
    void declareTotal(const std::string& component, size_t total);
    size_t declaredTotal(const std::string& component_prefix) const;

  private:
    friend class CoverageCollector;

    static constexpr uint32_t kNoBlock = UINT32_MAX;
    static constexpr BranchId kNoSite = UINT32_MAX;

    struct Site {
        std::string component;
        std::string key; ///< canonical key (see SiteInfo)
        bool passOnly;
        bool hit;
        /** Range block and index of a "component|range#i" element. */
        uint32_t block = kNoBlock;
        uint32_t index = 0;
    };

    /**
     * The "component|range#i" sites of one component. Every such site
     * is tagged with its block and index when it is minted, whether
     * hitRange registered it or internSiteKey/internRuns interned it
     * from a worker's wire record, so the block and the key lookup
     * always agree on an element's id.
     */
    struct RangeBlock {
        std::string component;
        /** index -> id; kNoSite where this process has not minted
         *  the element yet. */
        std::vector<BranchId> ids;
        /** Element count hitRange registered; 0 until it does. */
        size_t registered = 0;
    };

    /** registerSite/hitDynamic/internSiteKey core; mu_ must be held. */
    BranchId findOrAddLocked(const std::string& key,
                             const std::string& component, bool pass_only);

    /** The block of @p component, created empty if new; mu_ held. */
    uint32_t blockLocked(const std::string& component);

    /** Element @p index of @p block, minted if new; mu_ held. */
    BranchId rangeElementLocked(uint32_t block, size_t index,
                                bool pass_only);

    /** The collector active on the calling thread, or nullptr. */
    static thread_local CoverageCollector* activeCollector_;

    mutable std::mutex mu_;
    std::vector<Site> sites_;
    std::unordered_map<std::string, BranchId> byKey_;
    std::unordered_map<std::string, size_t> declaredTotals_;
    std::vector<RangeBlock> blocks_;
    std::unordered_map<std::string, uint32_t> blockByComponent_;
};

} // namespace nnsmith::coverage

/**
 * Instrument one branch. @p component is a string literal like
 * "tvmlite/pass/fold"; @p pass_only tags transformation-pass code.
 * Use NNSMITH_COV_N when one source line hosts several sites.
 */
#define NNSMITH_COV(component, pass_only)                                  \
    NNSMITH_COV_N(component, pass_only, 0)

#define NNSMITH_COV_N(component, pass_only, discriminator)                 \
    do {                                                                   \
        static const ::nnsmith::coverage::BranchId nnsmith_cov_id_ =       \
            ::nnsmith::coverage::CoverageRegistry::instance().registerSite(\
                component, __FILE__, __LINE__, discriminator, pass_only);  \
        ::nnsmith::coverage::CoverageRegistry::instance().hit(             \
            nnsmith_cov_id_);                                              \
    } while (0)

#endif // NNSMITH_COVERAGE_COVERAGE_H
