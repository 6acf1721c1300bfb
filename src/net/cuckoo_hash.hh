/**
 * @file
 * Two-way bucketized cuckoo hash table.
 *
 * The RX parser looks up the flow ID of every received packet with a
 * cuckoo hash over the 4-tuple, mirroring the Xilinx HLS packet
 * processing library the paper references. Two hash functions map each
 * key to two buckets of @c slotsPerBucket entries; inserts displace
 * residents along a bounded cuckoo path, with a small stash absorbing
 * rare irreducible collisions (so lookups stay O(1) and hardware-like).
 */

#ifndef F4T_NET_CUCKOO_HASH_HH
#define F4T_NET_CUCKOO_HASH_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"

namespace f4t::net
{

template <typename Key, typename Value, typename Hash,
          std::size_t slotsPerBucket = 4>
class CuckooHashTable
{
  public:
    /**
     * @param bucket_count  number of buckets per way (rounded up to a
     *                      power of two)
     * @param stash_size    entries in the overflow stash
     */
    explicit CuckooHashTable(std::size_t bucket_count,
                             std::size_t stash_size = 8)
        : stash_(stash_size)
    {
        std::size_t n = 1;
        while (n < bucket_count)
            n <<= 1;
        bucketMask_ = n - 1;
        ways_[0].resize(n);
        ways_[1].resize(n);
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const
    {
        return 2 * (bucketMask_ + 1) * slotsPerBucket + stash_.size();
    }

    /**
     * Insert or update. @return false when the table could not place
     * the key even via the stash (caller falls back / drops the flow).
     */
    bool
    insert(const Key &key, const Value &value)
    {
        if (Value *existing = findMutable(key)) {
            *existing = value;
            return true;
        }

        Entry incoming{key, value, true};
        // Fixed-size chain record: the hot insert path must not touch
        // the allocator even when it has to kick.
        std::array<Entry *, maxKicks_> kick_chain;
        std::size_t kicks = 0;
        for (std::size_t attempt = 0; attempt < maxKicks_; ++attempt) {
            std::size_t way = attempt % 2;
            // Probe BOTH candidate buckets for a free slot before
            // displacing anyone. Kicking from one way while the
            // other still has room sends inserts on needless cuckoo
            // walks at high load factor — long chains, early stash
            // spill, and spurious insert failures well below nominal
            // capacity.
            for (std::size_t probe = 0; probe < 2; ++probe) {
                Bucket &bucket =
                    bucketFor((way + probe) % 2, incoming.key);
                for (Entry &slot : bucket) {
                    if (!slot.occupied) {
                        slot = incoming;
                        ++size_;
                        return true;
                    }
                }
            }
            // Displace the slot chosen by the attempt counter so the
            // cuckoo path cannot ping-pong between two victims.
            Bucket &bucket = bucketFor(way, incoming.key);
            Entry &victim = bucket[attempt % slotsPerBucket];
            std::swap(incoming, victim);
            kick_chain[kicks++] = &victim;
        }

        for (Entry &slot : stash_) {
            if (!slot.occupied) {
                slot = incoming;
                ++size_;
                return true;
            }
        }

        // Roll back the displacement chain so no resident entry is
        // lost; only the new key fails to insert. Reversing the swaps
        // in order restores every victim to its original slot.
        while (kicks > 0)
            std::swap(incoming, *kick_chain[--kicks]);
        return false;
    }

    /** @return the value, or std::nullopt when absent. */
    std::optional<Value>
    find(const Key &key) const
    {
        if (const Value *v = const_cast<CuckooHashTable *>(this)
                                 ->findMutable(key)) {
            return *v;
        }
        return std::nullopt;
    }

    bool contains(const Key &key) const { return find(key).has_value(); }

    /** Remove a key. @return true when it was present. */
    bool
    erase(const Key &key)
    {
        for (std::size_t way = 0; way < 2; ++way) {
            for (Entry &slot : bucketFor(way, key)) {
                if (slot.occupied && slot.key == key) {
                    slot.occupied = false;
                    --size_;
                    return true;
                }
            }
        }
        for (Entry &slot : stash_) {
            if (slot.occupied && slot.key == key) {
                slot.occupied = false;
                --size_;
                return true;
            }
        }
        return false;
    }

  private:
    struct Entry
    {
        Key key{};
        Value value{};
        bool occupied = false;
    };

    using Bucket = std::array<Entry, slotsPerBucket>;

    std::size_t
    hashFor(std::size_t way, const Key &key) const
    {
        std::size_t h = Hash{}(key);
        if (way == 1) {
            // Second hash: remix so the two ways are independent.
            h ^= h >> 17;
            h *= 0x9e3779b97f4a7c15ULL;
            h ^= h >> 29;
        }
        return h & bucketMask_;
    }

    Bucket &
    bucketFor(std::size_t way, const Key &key)
    {
        return ways_[way][hashFor(way, key)];
    }

    Value *
    findMutable(const Key &key)
    {
        for (std::size_t way = 0; way < 2; ++way) {
            for (Entry &slot : bucketFor(way, key)) {
                if (slot.occupied && slot.key == key)
                    return &slot.value;
            }
        }
        for (Entry &slot : stash_) {
            if (slot.occupied && slot.key == key)
                return &slot.value;
        }
        return nullptr;
    }

    static constexpr std::size_t maxKicks_ = 64;

    std::size_t bucketMask_ = 0;
    std::size_t size_ = 0;
    std::array<std::vector<Bucket>, 2> ways_;
    std::vector<Entry> stash_;
};

} // namespace f4t::net

#endif // F4T_NET_CUCKOO_HASH_HH
