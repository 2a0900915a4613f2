// Shared-leaf FIB store. The paper's Figure 6a shows that vBGP's dominant
// memory cost is one FIB per BGP neighbor, yet most prefixes appear in
// nearly every neighbor's table with only the next-hop differing. FibSet
// exploits that: ONE path-compressed prefix trie is shared by all of a
// router's per-neighbor tables (plus the mux and optional default tables),
// and each leaf holds a compact per-view slot array of interned route
// payloads. The marginal cost of a prefix already known to another neighbor
// is 4 bytes (a slot) instead of a private trie chain.
//
// Copy-on-write semantics: views never copy shared structure. A write
// through a view touches only that view's 4-byte slot in the leaf (growing
// the leaf's slot array on first divergence); the trie path and the interned
// payloads stay shared. Route payloads (next-hop, interface, metric) are
// interned by content — a neighbor's ten thousand routes through one gateway
// reference a single pooled entry.
//
// Read side: one 16-8-8 direct-pointing index (DIR-24-8 style), shared by
// all views like the trie, maps an address to the leaf of its deepest
// prefix in three table levels; the lookup then reads that leaf's slot for
// the view. Only when the view has no route at that leaf does the lookup
// fall back to the trie walk. The single writer touches the index only
// when a prefix first appears in any view or leaves the last one.
//
// FibView preserves the RoutingTable contract (insert / remove / lookup /
// exact / visit / clear / size / memory_bytes), so ip::Host-style forwarding
// code and the looking glass work against either. Two memory numbers are
// exposed: FibSet::memory_bytes() is the deduplicated truth ("shared");
// flat_equivalent_bytes() is what the same contents would cost as private
// per-neighbor RoutingTables ("flat") — the fig6a ablation compares the two.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ip/prefix_trie.h"
#include "ip/routing_table.h"
#include "netbase/ip.h"
#include "netbase/prefix.h"
#include "obs/metrics.h"

namespace peering::ip {

class FibView;

class FibSet {
 public:
  using ViewId = std::uint16_t;
  static constexpr ViewId kNoView = 0xFFFF;

  FibSet();
  // Views hold a stable pointer to their set: neither copyable nor movable.
  FibSet(const FibSet&) = delete;
  FibSet& operator=(const FibSet&) = delete;

  /// Registers a view (freed ids are reused). Prefer make_view().
  ViewId create_view();

  /// Drops a view: its routes are removed and the id becomes reusable.
  void release_view(ViewId view);

  /// Creates a bound FibView (RAII: releases the view on destruction).
  FibView make_view();

  /// Inserts or replaces `route` in `view`. Returns true if the view
  /// already had a route for that exact prefix (and it was replaced).
  bool insert(ViewId view, const Route& route);

  /// Removes the view's route for exactly `prefix`. Returns true if one
  /// existed. Leaves no longer referenced by any view are pruned.
  bool remove(ViewId view, const Ipv4Prefix& prefix);

  /// Longest-prefix-match lookup within one view.
  std::optional<Route> lookup(ViewId view, Ipv4Address addr) const;

  /// Exact-match lookup within one view.
  std::optional<Route> exact(ViewId view, const Ipv4Prefix& prefix) const;

  /// Visits every route installed in `view` (trie preorder, the same order
  /// RoutingTable::visit produces for the same contents).
  void visit(ViewId view, const std::function<void(const Route&)>& fn) const;

  /// Removes all of one view's routes.
  void clear(ViewId view);

  std::size_t size(ViewId view) const;

  /// Live (registered, unreleased) views.
  std::size_t view_count() const;
  /// Total routes across all views (what fig6a calls FIB entries).
  std::size_t route_count() const;
  /// Distinct prefixes present in at least one view.
  std::size_t unique_prefix_count() const;

  /// Actual bytes of the deduplicated store: trie nodes + leaf slot arrays
  /// + interned payload pool (+ intern-map overhead estimate) + the LPM
  /// index.
  std::size_t memory_bytes() const;

  /// Bytes of the shared LPM index alone (0 while no prefix is installed).
  std::size_t index_bytes() const { return index_.bytes(); }

  /// What one view's contents would cost as a standalone RoutingTable
  /// (exact node count of the equivalent path-compressed trie).
  std::size_t flat_equivalent_bytes(ViewId view) const;

  /// Sum of flat_equivalent_bytes over all live views: the memory a
  /// per-neighbor-table implementation would need for the same state.
  std::size_t flat_equivalent_bytes() const;

  /// Frees arrays parked by the writer: slot arrays displaced by CoW
  /// growth, index chunks dropped when their block loses its last longer
  /// prefix, outgrown id tables, and the leaf segments and index of a set
  /// that emptied. Retired arrays must outlive any lock-free reader that
  /// might still hold one, so this is only safe at a caller-asserted
  /// quiescent point (no concurrent LPM readers in flight). Skipping it is
  /// fine for growth (geometric growth bounds the parked bytes below the
  /// live arrays); each dropped chunk parks 1 KiB until then. Everything
  /// is freed on destruction.
  void collect_retired() {
    retired_slot_arrays_.clear();
    leaves_.collect_retired();
    index_.collect_retired();
  }

 private:
  /// Interned route payload: everything of a Route except the prefix
  /// (implied by the leaf). Ids are 1-based; 0 means "no route".
  struct Payload {
    Ipv4Address next_hop;
    std::int32_t interface = -1;
    std::uint32_t metric = 0;

    bool operator==(const Payload&) const = default;
  };
  struct PayloadHash {
    std::size_t operator()(const Payload& p) const noexcept {
      std::uint64_t h = p.next_hop.value();
      h = h * 0x9e3779b97f4a7c15ull + static_cast<std::uint32_t>(p.interface);
      h = h * 0x9e3779b97f4a7c15ull + p.metric;
      return static_cast<std::size_t>(h);
    }
  };

  /// One slot cell. Atomic so an LPM reader on another thread can race the
  /// writer's store without UB; all hot-path accesses are relaxed/acquire
  /// loads and release stores — no locks, no RMW. Index entries are slots
  /// too.
  using Slot = std::atomic<std::uint32_t>;

  /// Arrays replaced by slot growth or dropped from the index, parked until
  /// a quiescent point. The owning FibSet frees the list in
  /// collect_retired() (caller asserts reader quiescence) and on
  /// destruction.
  using RetiredArrays = std::vector<std::unique_ptr<Slot[]>>;

  /// One prefix present in at least one view: its prefix and its slot
  /// array, where slot `view` is the view's interned payload id (0 =
  /// absent). The array starts empty and grows geometrically on the first
  /// write by a view beyond the current capacity — the copy-on-write step,
  /// confined to this leaf.
  ///
  /// Readers may race slot growth: the array is published through one
  /// acquire/release atomic pointer whose allocation carries its own
  /// capacity in a 4-byte header word (`arr[0]`; slots start at `arr[1]`),
  /// so a reader always pairs a pointer with the matching capacity. The
  /// displaced array is retired, not freed, keeping in-flight readers
  /// valid. Concurrent readers of a *stale* array simply miss the newest
  /// write — the usual relaxed-FIB contract. Writes are single-threaded
  /// (serial effect-application points only).
  class Leaf {
   public:
    Leaf() = default;
    Leaf(const Leaf&) = delete;
    Leaf& operator=(const Leaf&) = delete;
    ~Leaf() { delete[] ids_.load(std::memory_order_relaxed); }

    /// Claims a free leaf for `prefix` (writer, before any reader can
    /// reach it).
    void init(const Ipv4Prefix& prefix) {
      key_ = prefix.address().value();
      len_ = static_cast<std::uint8_t>(prefix.length());
    }
    /// Frees the (all-absent) slot array of a leaf no view holds.
    void release() {
      delete[] ids_.exchange(nullptr, std::memory_order_relaxed);
    }

    Ipv4Prefix prefix() const { return Ipv4Prefix(Ipv4Address(key_), len_); }
    bool is(const Ipv4Prefix& p) const {
      return key_ == p.address().value() && len_ == p.length();
    }
    int len() const { return len_; }

    bool empty() const { return used_ == 0; }
    std::size_t heap_bytes() const {
      const Slot* p = ids_.load(std::memory_order_relaxed);
      return p == nullptr ? 0 : (cap_of(p) + 1) * sizeof(Slot);
    }

    std::uint32_t get(ViewId view) const {
      const Slot* p = ids_.load(std::memory_order_acquire);
      if (p == nullptr || view >= cap_of(p)) return 0;
      return p[1 + view].load(std::memory_order_acquire);
    }

    /// Stores `id` for `view` (growing if needed, parking any displaced
    /// array in `retired`) and returns the previous id. Storing 0 into a
    /// view beyond capacity is a no-op.
    std::uint32_t set(ViewId view, std::uint32_t id, RetiredArrays& retired);

    std::uint16_t capacity() const {
      const Slot* p = ids_.load(std::memory_order_relaxed);
      return p == nullptr ? 0 : static_cast<std::uint16_t>(cap_of(p));
    }

   private:
    /// The header word written once before publication; immutable after,
    /// so a relaxed read under the acquire on the pointer suffices.
    static std::uint32_t cap_of(const Slot* p) {
      return p[0].load(std::memory_order_relaxed);
    }

    std::atomic<Slot*> ids_{nullptr};
    std::uint32_t key_ = 0;
    std::uint16_t used_ = 0;
    std::uint8_t len_ = 0;
  };

  /// Trie payload: the node's leaf id, 0 for a structural junction (the
  /// trie prunes nodes whose payload is empty).
  struct LeafRef {
    std::uint32_t id = 0;
    bool empty() const { return id == 0; }
  };
  using Trie = detail::PrefixTrie<LeafRef>;
  using Node = Trie::Node;

  /// Dense id -> pointer map that lock-free readers index without a bound
  /// check: a reader only meets an id through an index entry stored
  /// (release) after the id's cell, so the array it loads next covers the
  /// id. Growth doubles into a fresh array and parks the old one. A cell
  /// may be re-pointed (a chunk replaced by a larger one), so cells are
  /// published with release and read with acquire.
  template <typename T>
  class IdTable {
   public:
    T* get(std::uint32_t id) const {
      return cells_.load(std::memory_order_acquire)[id].load(
          std::memory_order_acquire);
    }
    void set(std::uint32_t id, T* ptr);
    std::size_t bytes() const { return capacity_ * sizeof(Cell); }
    /// Parks the live array and starts over empty.
    void reset();
    void collect_retired() { retired_.clear(); }

   private:
    using Cell = std::atomic<T*>;
    std::unique_ptr<Cell[]> live_;
    std::atomic<Cell*> cells_{nullptr};
    std::uint32_t capacity_ = 0;
    std::vector<std::unique_ptr<Cell[]>> retired_;
  };

  /// Leaves by dense id (1-based; 0 = none), in fixed segments that never
  /// move while a leaf is live, so a reader holding an id finds a stable
  /// leaf. Freed ids are reused; when the last leaf goes, the segments are
  /// parked and the store starts over empty.
  class LeafStore {
   public:
    const Leaf& at(std::uint32_t id) const {
      return segments_.get(id >> kSegmentBits)[id & kSegmentMask];
    }
    Leaf& at(std::uint32_t id) {
      return owned_[id >> kSegmentBits][id & kSegmentMask];
    }
    std::uint32_t allocate(const Ipv4Prefix& prefix);
    void free(std::uint32_t id);
    std::size_t live() const { return live_; }
    std::size_t bytes() const;
    void collect_retired() {
      segments_.collect_retired();
      retired_.clear();
    }

   private:
    static constexpr int kSegmentBits = 10;
    static constexpr std::uint32_t kSegmentMask = (1u << kSegmentBits) - 1;

    IdTable<Leaf> segments_;  // for readers
    std::vector<std::unique_ptr<Leaf[]>> owned_;
    std::vector<std::uint32_t> free_ids_;
    std::uint32_t next_id_ = 1;
    std::size_t live_ = 0;
    std::vector<std::unique_ptr<Leaf[]>> retired_;
  };

  /// The read side: a 2^16-entry direct table indexed by the top 16
  /// address bits; a 256-entry chunk below it for each /16 holding longer
  /// prefixes, and below that for each /24 holding prefixes longer than
  /// /24. Every entry is 4 bytes: 0 (no prefix covers the block), a leaf
  /// id, or kChunk | chunk id. An entry always names the deepest prefix
  /// covering its whole block, so three levels resolve any address.
  ///
  /// Neighbouring entries of a chunk mostly repeat, so a chunk stores its
  /// 256 entries as runs (as Poptrie compresses its leaves): a 256-bit
  /// bitmap marks where a run starts and an array holds one entry per run;
  /// entry i is run popcount(bits[0..i]) - 1. Chunk layout, in slots:
  /// [0] run capacity (fixed per allocation), [1] sequence counter,
  /// [2, 10) the bitmap, [10, 12) eight bytes counting the bitmap's set
  /// bits before each of its words, [12, 12 + capacity) the runs.
  ///
  /// Readers take no locks. Direct entries are stored with release after
  /// what they name is complete. The writer rewrites a chunk in place
  /// between two increments of its sequence counter, and a reader retries
  /// a chunk read that overlapped one (a seqlock); a chunk that outgrows
  /// its run capacity is replaced, and displaced or dropped chunks are
  /// parked on the FibSet's retired list, never freed under a reader.
  class LpmIndex {
   public:
    /// Leaf id of the deepest prefix containing `addr`, or 0.
    std::uint32_t find(std::uint32_t addr) const {
      const Slot* table = direct_.load(std::memory_order_acquire);
      if (table == nullptr) return 0;
      std::uint32_t e = table[addr >> 16].load(std::memory_order_acquire);
      if (e & kChunk) {
        e = entry(e & ~kChunk, (addr >> 8) & 0xff);
        if (e & kChunk) e = entry(e & ~kChunk, addr & 0xff);
      }
      return e;
    }

    /// Leaf `leaf` (prefix `prefix`) just appeared; `ancestor` is the leaf
    /// id of the deepest prefix strictly covering it (0: none). Allocates
    /// the index on first use.
    void add(std::uint32_t leaf, const Ipv4Prefix& prefix,
             std::uint32_t ancestor, RetiredArrays& retired);
    /// Leaf `leaf` is going away: its entries go to `ancestor`, and chunks
    /// left without longer prefixes are folded back and parked.
    void remove(std::uint32_t leaf, const Ipv4Prefix& prefix,
                std::uint32_t ancestor, RetiredArrays& retired);
    /// Parks the whole index (no prefix is left).
    void reset(RetiredArrays& retired);

    std::size_t bytes() const;
    void collect_retired() { chunk_ptrs_.collect_retired(); }

   private:
    static constexpr std::uint32_t kChunk = 0x8000'0000u;
    static constexpr std::size_t kDirectEntries = std::size_t{1} << 16;
    static constexpr std::uint32_t kEntries = 256;  // per chunk
    static constexpr std::uint32_t kCapacity = 0, kSeq = 1, kBits = 2,
                                   kBase = 10, kRuns = 12;
    /// A run of equal entries of a chunk: where it starts, and the entry.
    struct Run {
      std::uint32_t start;
      std::uint32_t value;
    };

    /// Entry `i` of chunk `id` (reader side).
    std::uint32_t entry(std::uint32_t id, std::uint32_t i) const;
    /// Passes every run of entries [first, first + count) of chunk `id`
    /// through `fn(value) -> value` and stores the result, all in runs
    /// (writer side).
    template <typename Fn>
    void edit(std::uint32_t id, std::uint32_t first, std::uint32_t count,
              Fn&& fn, RetiredArrays& retired);
    /// A new chunk with every entry `fill`; returns its id.
    std::uint32_t create(std::uint32_t fill);
    /// Parks chunk `id` and frees the id.
    void drop(std::uint32_t id, RetiredArrays& retired);

    /// The chunk under direct entry `i`, or under entry `i` of chunk
    /// `parent`, created from the entry's value if absent; counts one more
    /// longer prefix in it.
    std::uint32_t descend(std::uint32_t i);
    std::uint32_t descend(std::uint32_t parent, std::uint32_t i,
                          RetiredArrays& retired);
    /// Counts one longer prefix out of the chunk under direct entry `i`,
    /// or under entry `i` of chunk `parent`; an empty chunk is folded back
    /// into its entry (all its entries are equal by then) and parked.
    void release(std::uint32_t i, RetiredArrays& retired);
    void release(std::uint32_t parent, std::uint32_t i,
                 RetiredArrays& retired);
    /// Within direct entries, or entries of chunk `id`, [first, first +
    /// count) — and recursively in the chunks they hold — replaces entry
    /// `from` by `to`.
    void repoint(std::uint32_t first, std::uint32_t count, std::uint32_t from,
                 std::uint32_t to, RetiredArrays& retired);
    void repoint(std::uint32_t id, std::uint32_t first, std::uint32_t count,
                 std::uint32_t from, std::uint32_t to, RetiredArrays& retired);

    std::unique_ptr<Slot[]> direct_owner_;
    std::atomic<Slot*> direct_{nullptr};
    IdTable<Slot> chunk_ptrs_;  // chunk id -> chunk, for readers
    // Writer side, indexed by chunk id: the owning arrays and how many
    // prefixes longer than the chunk's parent level lie inside.
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<std::uint32_t> chunk_prefixes_;
    std::vector<std::uint32_t> free_chunk_ids_;
    std::size_t chunk_bytes_ = 0;  // live chunks
  };

  std::uint32_t intern(const Payload& payload);
  void ref(std::uint32_t id) { ++refs_[id - 1]; }
  void deref(std::uint32_t id);
  const Payload& payload(std::uint32_t id) const { return payloads_[id - 1]; }
  Route materialize(const Leaf& leaf, std::uint32_t id) const;
  /// The view's payload id at `node` (0 for a junction or no route).
  std::uint32_t slot_at(const Node& node, ViewId view) const {
    return node.payload.id == 0 ? 0 : leaves_.at(node.payload.id).get(view);
  }
  /// Leaf id of the deepest prefix strictly covering `node`'s (0: none).
  std::uint32_t covering_leaf(const Node& node) const;
  /// `node`'s leaf just lost its last view: unindexes and frees it.
  void drop_leaf(Node& node);
  bool view_live(ViewId view) const {
    return view < view_live_.size() && view_live_[view];
  }
  /// Node count of the standalone path-compressed trie holding exactly the
  /// prefixes `view` has entries for.
  std::size_t flat_node_count(ViewId view) const;

  Trie trie_;
  LeafStore leaves_;
  // Payload pool: contiguous storage + refcounts + content-intern index.
  std::vector<Payload> payloads_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> free_payloads_;
  std::unordered_map<Payload, std::uint32_t, PayloadHash> payload_ids_;
  // Per-view bookkeeping, indexed by ViewId.
  std::vector<std::size_t> view_sizes_;
  std::vector<std::uint8_t> view_live_;
  std::vector<ViewId> free_views_;
  // Slot arrays displaced by CoW growth and arrays dropped from the index,
  // freed in collect_retired() (a caller-asserted quiescent point).
  RetiredArrays retired_slot_arrays_;
  LpmIndex index_;

  /// Telemetry handles, resolved once against the process-global registry.
  /// All FibSets share the same platform-wide series (per-router memory
  /// splits come from the owning component's collector).
  obs::Counter* obs_cow_growth_;     // leaf slot-array CoW growths
  obs::Counter* obs_lookup_misses_;  // LPM probes with no route
  obs::Histogram* obs_lpm_depth_;    // matched prefix length per LPM hit
  obs::Counter* obs_index_fallback_;  // lookups that needed the trie walk
};

/// A per-neighbor window onto a FibSet, drop-in compatible with
/// RoutingTable. Default-constructed views are unbound: reads come back
/// empty and writes are ignored (the registry binds a view immediately on
/// neighbor allocation; unbound is only the moved-from/pre-bind state).
class FibView {
 public:
  FibView() = default;
  FibView(FibSet* set, FibSet::ViewId id) : set_(set), id_(id) {}
  ~FibView() { release(); }

  FibView(const FibView&) = delete;
  FibView& operator=(const FibView&) = delete;
  FibView(FibView&& other) noexcept
      : set_(std::exchange(other.set_, nullptr)),
        id_(std::exchange(other.id_, FibSet::kNoView)) {}
  FibView& operator=(FibView&& other) noexcept {
    if (this != &other) {
      release();
      set_ = std::exchange(other.set_, nullptr);
      id_ = std::exchange(other.id_, FibSet::kNoView);
    }
    return *this;
  }

  bool bound() const { return set_ != nullptr; }
  FibSet* set() const { return set_; }
  FibSet::ViewId id() const { return id_; }

  bool insert(const Route& route) {
    return set_ ? set_->insert(id_, route) : false;
  }
  bool remove(const Ipv4Prefix& prefix) {
    return set_ ? set_->remove(id_, prefix) : false;
  }
  std::optional<Route> lookup(Ipv4Address addr) const {
    return set_ ? set_->lookup(id_, addr) : std::nullopt;
  }
  std::optional<Route> exact(const Ipv4Prefix& prefix) const {
    return set_ ? set_->exact(id_, prefix) : std::nullopt;
  }
  void visit(const std::function<void(const Route&)>& fn) const {
    if (set_) set_->visit(id_, fn);
  }
  void clear() {
    if (set_) set_->clear(id_);
  }
  std::size_t size() const { return set_ ? set_->size(id_) : 0; }
  bool empty() const { return size() == 0; }

  /// Per-view-equivalent ("flat") bytes: what this view's contents would
  /// cost as a private RoutingTable. The deduplicated truth lives on the
  /// set (FibSet::memory_bytes) — summing views' memory_bytes reproduces
  /// the pre-sharing accounting, which is exactly what the fig6a ablation
  /// compares against.
  std::size_t memory_bytes() const {
    return set_ ? set_->flat_equivalent_bytes(id_) : sizeof(FibView);
  }

 private:
  void release() {
    if (set_) set_->release_view(id_);
    set_ = nullptr;
    id_ = FibSet::kNoView;
  }

  FibSet* set_ = nullptr;
  FibSet::ViewId id_ = FibSet::kNoView;
};

}  // namespace peering::ip
