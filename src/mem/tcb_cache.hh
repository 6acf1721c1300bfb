/**
 * @file
 * Direct-mapped TCB cache inside the memory manager (Section 4.3.1).
 *
 * DRAM-resident flows are event-handled through this cache so that
 * frequently touched TCBs avoid a DRAM round trip. The cache is
 * write-back: dirty victims are flushed to DRAM on replacement.
 */

#ifndef F4T_MEM_TCB_CACHE_HH
#define F4T_MEM_TCB_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"

namespace f4t::mem
{

/**
 * Direct-mapped, write-back cache keyed by flow ID.
 * @tparam Entry the cached TCB type.
 */
template <typename Entry>
class DirectMappedCache
{
  public:
    struct Eviction
    {
        std::uint32_t flowId;
        Entry entry;
    };

    explicit DirectMappedCache(std::size_t lines)
        : lines_(lines)
    {
        f4t_assert(lines > 0, "cache needs at least one line");
    }

    bool
    contains(std::uint32_t flow_id) const
    {
        const Line &line = lineFor(flow_id);
        return line.valid && line.flowId == flow_id;
    }

    /** @return the cached entry or nullptr on miss. */
    Entry *
    find(std::uint32_t flow_id)
    {
        Line &line = lineForMutable(flow_id);
        if (line.valid && line.flowId == flow_id)
            return &line.entry;
        return nullptr;
    }

    /**
     * Install an entry, possibly evicting the current resident of the
     * line. @return the dirty victim that must be written back, if any.
     */
    std::optional<Eviction>
    insert(std::uint32_t flow_id, const Entry &entry, bool dirty)
    {
        Line &line = lineForMutable(flow_id);
        std::optional<Eviction> victim;
        if (line.valid && line.flowId != flow_id && line.dirty)
            victim = Eviction{line.flowId, line.entry};
        line.valid = true;
        line.flowId = flow_id;
        line.entry = entry;
        line.dirty = dirty;
        return victim;
    }

    /** Mark a resident entry dirty after in-place mutation. */
    void
    markDirty(std::uint32_t flow_id)
    {
        Line &line = lineForMutable(flow_id);
        f4t_assert(line.valid && line.flowId == flow_id,
                   "markDirty on non-resident flow %u", flow_id);
        line.dirty = true;
    }

    /**
     * Remove a flow from the cache (when its TCB migrates to an FPC).
     * @return the entry and whether it was dirty, or nullopt on miss.
     */
    std::optional<std::pair<Entry, bool>>
    invalidate(std::uint32_t flow_id)
    {
        Line &line = lineForMutable(flow_id);
        if (!line.valid || line.flowId != flow_id)
            return std::nullopt;
        line.valid = false;
        return std::make_pair(line.entry, line.dirty);
    }

    void recordHit() { ++hits_; }
    void recordMiss() { ++misses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint32_t flowId = 0;
        Entry entry{};
    };

    const Line &
    lineFor(std::uint32_t flow_id) const
    {
        return lines_[flow_id % lines_.size()];
    }

    Line &
    lineForMutable(std::uint32_t flow_id)
    {
        return lines_[flow_id % lines_.size()];
    }

    std::vector<Line> lines_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace f4t::mem

#endif // F4T_MEM_TCB_CACHE_HH
