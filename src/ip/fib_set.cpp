#include "ip/fib_set.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace peering::ip {

FibSet::FibSet() {
  obs::Registry* metrics = obs::Registry::global();
  obs_cow_growth_ = metrics->counter("fib_cow_slot_growth_total");
  obs_lookup_misses_ = metrics->counter("fib_lpm_miss_total");
  obs_lpm_depth_ = metrics->histogram("fib_lpm_match_len");
  obs_index_fallback_ = metrics->counter("fib_lpm_index_fallback_total");
}

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

std::uint32_t FibSet::Leaf::set(ViewId view, std::uint32_t id,
                                RetiredArrays& retired) {
  Slot* cur = ids_.load(std::memory_order_relaxed);
  std::uint32_t cap = cur == nullptr ? 0 : cap_of(cur);
  if (view >= cap) {
    if (id == 0) return 0;  // clearing an absent slot: nothing to do
    std::uint32_t new_cap = cap != 0 ? cap : 2;
    while (new_cap <= view) new_cap *= 2;
    // Header word [0] carries the capacity so readers pair a pointer with
    // its bound through one acquire load; slots live at [1..new_cap].
    auto grown = std::make_unique<Slot[]>(new_cap + 1);  // value-init: zeroed
    grown[0].store(new_cap, std::memory_order_relaxed);
    for (std::uint32_t v = 0; v < cap; ++v) {
      grown[1 + v].store(cur[1 + v].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    }
    ids_.store(grown.release(), std::memory_order_release);
    if (cur != nullptr) retired.emplace_back(cur);
    cur = ids_.load(std::memory_order_relaxed);
  }
  std::uint32_t prev = cur[1 + view].load(std::memory_order_relaxed);
  // Release so a reader that observes the new id also observes the pool
  // entry it names (interned before the slot write).
  cur[1 + view].store(id, std::memory_order_release);
  if (prev == 0 && id != 0)
    ++used_;
  else if (prev != 0 && id == 0)
    --used_;
  return prev;
}

template <typename T>
void FibSet::IdTable<T>::set(std::uint32_t id, T* ptr) {
  if (id >= capacity_) {
    std::uint32_t cap = capacity_ != 0 ? capacity_ : 16;
    while (cap <= id) cap *= 2;
    auto grown = std::make_unique<Cell[]>(cap);  // value-init: null
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      grown[i].store(live_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    cells_.store(grown.get(), std::memory_order_release);
    if (live_) retired_.push_back(std::move(live_));
    live_ = std::move(grown);
    capacity_ = cap;
  }
  live_[id].store(ptr, std::memory_order_release);
}

template <typename T>
void FibSet::IdTable<T>::reset() {
  cells_.store(nullptr, std::memory_order_release);
  if (live_) retired_.push_back(std::move(live_));
  capacity_ = 0;
}

std::uint32_t FibSet::LeafStore::allocate(const Ipv4Prefix& prefix) {
  std::uint32_t id = next_id_;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    ++next_id_;
    if ((id >> kSegmentBits) == owned_.size()) {
      owned_.push_back(std::make_unique<Leaf[]>(kSegmentMask + 1));
      segments_.set(static_cast<std::uint32_t>(owned_.size() - 1),
                    owned_.back().get());
    }
  }
  ++live_;
  at(id).init(prefix);
  return id;
}

void FibSet::LeafStore::free(std::uint32_t id) {
  at(id).release();
  free_ids_.push_back(id);
  if (--live_ != 0) return;
  // The set is empty: give the segments back (parked for readers).
  for (auto& segment : owned_) retired_.push_back(std::move(segment));
  segments_.reset();
  // Move-assigning empty vectors (not clear()) gives their capacity back.
  owned_ = std::vector<std::unique_ptr<Leaf[]>>();
  free_ids_ = std::vector<std::uint32_t>();
  next_id_ = 1;
}

std::size_t FibSet::LeafStore::bytes() const {
  return owned_.size() * ((kSegmentMask + 1) * sizeof(Leaf) +
                          sizeof(owned_[0])) +
         segments_.bytes() + free_ids_.capacity() * sizeof(std::uint32_t);
}

// ---------------------------------------------------------------------------
// LPM index
// ---------------------------------------------------------------------------

std::uint32_t FibSet::LpmIndex::entry(std::uint32_t id,
                                      std::uint32_t i) const {
  const Slot* c = chunk_ptrs_.get(id);
  const std::uint32_t capacity = c[kCapacity].load(std::memory_order_relaxed);
  const std::uint32_t word = i >> 5;
  const std::uint32_t upto = (2u << (i & 31)) - 1;  // bits 0..i of the word
  while (true) {
    const std::uint32_t seq = c[kSeq].load(std::memory_order_acquire);
    const std::uint32_t base =
        (c[kBase + (word >> 2)].load(std::memory_order_relaxed) >>
         ((word & 3) * 8)) &
        0xff;
    const std::uint32_t rank =
        base + std::popcount(c[kBits + word].load(std::memory_order_relaxed) &
                             upto);
    // A read torn by a concurrent rewrite may rank outside the runs; clamp
    // it into the array, and the sequence check below discards it.
    const std::uint32_t run = std::min(rank == 0 ? 0 : rank - 1, capacity - 1);
    const std::uint32_t value =
        c[kRuns + run].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if ((seq & 1) == 0 && c[kSeq].load(std::memory_order_relaxed) == seq)
      return value;
  }
}

template <typename Fn>
void FibSet::LpmIndex::edit(std::uint32_t id, std::uint32_t first,
                            std::uint32_t count, Fn&& fn,
                            RetiredArrays& retired) {
  Slot* c = chunks_[id].get();
  std::uint32_t bits[kEntries / 32];
  std::uint32_t total = 0;
  for (std::uint32_t w = 0; w < kEntries / 32; ++w) {
    bits[w] = c[kBits + w].load(std::memory_order_relaxed);
    total += std::popcount(bits[w]);
  }
  // Run starts at or below / at or above position i (the latter 256 when
  // none is).
  auto start_at_or_below = [&](std::uint32_t i) {
    std::uint32_t w = i >> 5;
    std::uint32_t m = bits[w] & ((2u << (i & 31)) - 1);
    while (m == 0) m = bits[--w];
    return w * 32 + 31 - static_cast<std::uint32_t>(std::countl_zero(m));
  };
  auto start_at_or_above = [&](std::uint32_t i) {
    if (i >= kEntries) return kEntries;
    std::uint32_t w = i >> 5;
    std::uint32_t m = bits[w] & ~((1u << (i & 31)) - 1);
    while (m == 0) {
      if (++w == kEntries / 32) return kEntries;
      m = bits[w];
    }
    return w * 32 + static_cast<std::uint32_t>(std::countr_zero(m));
  };
  auto value_of = [&](std::uint32_t run) {
    return c[kRuns + run].load(std::memory_order_relaxed);
  };
  // The runs overlapping [first, last) span [begin, end): run `r0` starts
  // at `begin`, and `end` is where the next run starts (or 256).
  const std::uint32_t last = first + count;
  const std::uint32_t begin = start_at_or_below(first);
  const std::uint32_t end = start_at_or_above(last);
  std::uint32_t r0 = 0;
  for (std::uint32_t w = 0; w < (begin >> 5); ++w) r0 += std::popcount(bits[w]);
  r0 += std::popcount(bits[begin >> 5] & ((2u << (begin & 31)) - 1)) - 1;

  // Cut the span's runs at the range's edges and pass the parts inside
  // through `fn`; a piece equal to the run before it merges into it.
  Run pieces[kEntries];
  std::uint32_t piece_count = 0;
  std::uint32_t old_runs = 0;
  const std::uint32_t before = r0 == 0 ? 0 : value_of(r0 - 1);  // if r0 > 0
  bool changed = false;
  auto piece = [&](std::uint32_t from, std::uint32_t to, std::uint32_t value) {
    if (from >= to) return;
    const std::uint32_t prev =
        piece_count != 0 ? pieces[piece_count - 1].value : before;
    if (prev == value && (piece_count != 0 || r0 != 0)) return;
    pieces[piece_count++] = Run{from, value};
  };
  for (std::uint32_t run_begin = begin; run_begin < end; ++old_runs) {
    const std::uint32_t run_end = start_at_or_above(run_begin + 1);
    const std::uint32_t value = value_of(r0 + old_runs);
    piece(run_begin, std::min(run_end, first), value);
    const std::uint32_t edited = fn(value);
    changed |= edited != value;
    piece(std::max(run_begin, first), std::min(run_end, last), edited);
    piece(std::max(run_begin, last), run_end, value);
    run_begin = run_end;
  }
  if (!changed) return;
  // The run starting at `end` merges into the last piece if equal.
  const std::uint32_t last_value =
      piece_count != 0 ? pieces[piece_count - 1].value : before;
  const bool absorb = end < kEntries && value_of(r0 + old_runs) == last_value;
  const std::uint32_t tail_from = r0 + old_runs + (absorb ? 1 : 0);
  const std::uint32_t tail = total - tail_from;
  const std::uint32_t run_count = r0 + piece_count + tail;

  // Starts in [begin, end) are the old span's; `end` goes if absorbed.
  for (std::uint32_t i = begin; i < end;) {
    i = start_at_or_above(i);
    if (i >= end) break;
    bits[i >> 5] &= ~(1u << (i & 31));
  }
  if (absorb) bits[end >> 5] &= ~(1u << (end & 31));
  for (std::uint32_t p = 0; p < piece_count; ++p)
    bits[pieces[p].start >> 5] |= 1u << (pieces[p].start & 31);
  // Runs r0.. become the pieces, then the tail runs, shifted.
  std::uint32_t tail_values[kEntries];
  for (std::uint32_t t = 0; t < tail; ++t) tail_values[t] = value_of(tail_from + t);
  std::uint32_t base[2] = {};
  for (std::uint32_t w = 1, before_w = 0; w < kEntries / 32; ++w) {
    before_w += std::popcount(bits[w - 1]);
    base[w >> 2] |= before_w << ((w & 3) * 8);
  }
  auto write = [&](Slot* to) {
    for (std::uint32_t w = 0; w < kEntries / 32; ++w)
      to[kBits + w].store(bits[w], std::memory_order_relaxed);
    to[kBase].store(base[0], std::memory_order_relaxed);
    to[kBase + 1].store(base[1], std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < piece_count; ++p)
      to[kRuns + r0 + p].store(pieces[p].value, std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < tail; ++t)
      to[kRuns + r0 + piece_count + t].store(tail_values[t],
                                             std::memory_order_relaxed);
  };
  const std::uint32_t capacity = c[kCapacity].load(std::memory_order_relaxed);
  if (run_count <= capacity) {
    // In place, between two increments of the sequence counter: readers
    // that overlap the rewrite see an odd or changed counter and retry.
    const std::uint32_t seq = c[kSeq].load(std::memory_order_relaxed);
    c[kSeq].store(seq + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    write(c);
    c[kSeq].store(seq + 2, std::memory_order_release);
    return;
  }
  // Outgrown: a larger chunk under the same id; the old one is parked.
  const std::uint32_t grown_capacity = std::bit_ceil(run_count);
  auto grown = std::make_unique<Slot[]>(kRuns + grown_capacity);
  grown[kCapacity].store(grown_capacity, std::memory_order_relaxed);
  for (std::uint32_t r = 0; r < r0; ++r)
    grown[kRuns + r].store(value_of(r), std::memory_order_relaxed);
  write(grown.get());
  chunk_bytes_ += (grown_capacity - capacity) * sizeof(Slot);
  chunk_ptrs_.set(id, grown.get());
  retired.push_back(std::exchange(chunks_[id], std::move(grown)));
}

std::uint32_t FibSet::LpmIndex::create(std::uint32_t fill) {
  constexpr std::uint32_t kFirstCapacity = 4;
  auto fresh = std::make_unique<Slot[]>(kRuns + kFirstCapacity);  // zeroed
  fresh[kCapacity].store(kFirstCapacity, std::memory_order_relaxed);
  fresh[kBits].store(1, std::memory_order_relaxed);  // one run, from 0
  fresh[kBase].store(0x01010100, std::memory_order_relaxed);
  fresh[kBase + 1].store(0x01010101, std::memory_order_relaxed);
  fresh[kRuns].store(fill, std::memory_order_relaxed);
  std::uint32_t id = static_cast<std::uint32_t>(chunks_.size());
  if (!free_chunk_ids_.empty()) {
    id = free_chunk_ids_.back();
    free_chunk_ids_.pop_back();
  } else {
    chunks_.emplace_back();
    chunk_prefixes_.push_back(0);
  }
  chunk_ptrs_.set(id, fresh.get());
  chunks_[id] = std::move(fresh);
  chunk_prefixes_[id] = 1;
  chunk_bytes_ += (kRuns + kFirstCapacity) * sizeof(Slot);
  return id;
}

void FibSet::LpmIndex::drop(std::uint32_t id, RetiredArrays& retired) {
  chunk_bytes_ -=
      (kRuns + chunks_[id][kCapacity].load(std::memory_order_relaxed)) *
      sizeof(Slot);
  // The reader-side pointer stays until the id is reused: a reader that
  // loaded the old parent entry still finds the parked array.
  retired.push_back(std::move(chunks_[id]));
  free_chunk_ids_.push_back(id);
}

std::uint32_t FibSet::LpmIndex::descend(std::uint32_t i) {
  Slot& parent = direct_owner_[i];
  const std::uint32_t e = parent.load(std::memory_order_relaxed);
  if (e & kChunk) {
    ++chunk_prefixes_[e & ~kChunk];
    return e & ~kChunk;
  }
  const std::uint32_t id = create(e);
  // Release: a reader that sees the chunk id sees the chunk.
  parent.store(kChunk | id, std::memory_order_release);
  return id;
}

std::uint32_t FibSet::LpmIndex::descend(std::uint32_t parent, std::uint32_t i,
                                        RetiredArrays& retired) {
  const std::uint32_t e = entry(parent, i);
  if (e & kChunk) {
    ++chunk_prefixes_[e & ~kChunk];
    return e & ~kChunk;
  }
  const std::uint32_t id = create(e);
  edit(parent, i, 1, [id](std::uint32_t) { return kChunk | id; }, retired);
  return id;
}

void FibSet::LpmIndex::release(std::uint32_t i, RetiredArrays& retired) {
  Slot& parent = direct_owner_[i];
  const std::uint32_t id = parent.load(std::memory_order_relaxed) & ~kChunk;
  if (--chunk_prefixes_[id] != 0) return;
  parent.store(chunks_[id][kRuns].load(std::memory_order_relaxed),
               std::memory_order_release);
  drop(id, retired);
}

void FibSet::LpmIndex::release(std::uint32_t parent, std::uint32_t i,
                               RetiredArrays& retired) {
  const std::uint32_t id = entry(parent, i) & ~kChunk;
  if (--chunk_prefixes_[id] != 0) return;
  const std::uint32_t value = chunks_[id][kRuns].load(std::memory_order_relaxed);
  edit(parent, i, 1, [value](std::uint32_t) { return value; }, retired);
  drop(id, retired);
}

void FibSet::LpmIndex::repoint(std::uint32_t first, std::uint32_t count,
                               std::uint32_t from, std::uint32_t to,
                               RetiredArrays& retired) {
  for (std::uint32_t i = first; i < first + count; ++i) {
    const std::uint32_t e = direct_owner_[i].load(std::memory_order_relaxed);
    if (e == from)
      direct_owner_[i].store(to, std::memory_order_release);
    else if (e & kChunk)
      repoint(e & ~kChunk, 0, kEntries, from, to, retired);
  }
}

void FibSet::LpmIndex::repoint(std::uint32_t id, std::uint32_t first,
                               std::uint32_t count, std::uint32_t from,
                               std::uint32_t to, RetiredArrays& retired) {
  edit(
      id, first, count,
      [&](std::uint32_t value) {
        if (value == from) return to;
        // A chunk entry is one /24 (or /32) slot: recurse into it.
        if (value & kChunk)
          repoint(value & ~kChunk, 0, kEntries, from, to, retired);
        return value;
      },
      retired);
}

void FibSet::LpmIndex::add(std::uint32_t leaf, const Ipv4Prefix& prefix,
                           std::uint32_t ancestor, RetiredArrays& retired) {
  if (direct_owner_ == nullptr) {
    direct_owner_ = std::make_unique<Slot[]>(kDirectEntries);  // zeroed
    direct_.store(direct_owner_.get(), std::memory_order_release);
  }
  // Every entry in the prefix's range names either its ancestor or a
  // prefix inside it; the ancestor's entries become the new leaf's.
  const std::uint32_t addr = prefix.address().value();
  const int len = prefix.length();
  if (len <= 16) {
    repoint(addr >> 16, 1u << (16 - len), ancestor, leaf, retired);
    return;
  }
  const std::uint32_t mid = descend(addr >> 16);
  if (len <= 24) {
    repoint(mid, (addr >> 8) & 0xff, 1u << (24 - len), ancestor, leaf,
            retired);
    return;
  }
  const std::uint32_t low = descend(mid, (addr >> 8) & 0xff, retired);
  repoint(low, addr & 0xff, 1u << (32 - len), ancestor, leaf, retired);
}

void FibSet::LpmIndex::remove(std::uint32_t leaf, const Ipv4Prefix& prefix,
                              std::uint32_t ancestor, RetiredArrays& retired) {
  const std::uint32_t addr = prefix.address().value();
  const int len = prefix.length();
  if (len <= 16) {
    repoint(addr >> 16, 1u << (16 - len), leaf, ancestor, retired);
    return;
  }
  const std::uint32_t mid =
      direct_owner_[addr >> 16].load(std::memory_order_relaxed) & ~kChunk;
  if (len <= 24) {
    repoint(mid, (addr >> 8) & 0xff, 1u << (24 - len), leaf, ancestor,
            retired);
  } else {
    const std::uint32_t low = entry(mid, (addr >> 8) & 0xff) & ~kChunk;
    repoint(low, addr & 0xff, 1u << (32 - len), leaf, ancestor, retired);
    release(mid, (addr >> 8) & 0xff, retired);
  }
  release(addr >> 16, retired);
}

void FibSet::LpmIndex::reset(RetiredArrays& retired) {
  if (direct_owner_ != nullptr) {
    direct_.store(nullptr, std::memory_order_release);
    retired.push_back(std::move(direct_owner_));
  }
  for (auto& c : chunks_)
    if (c != nullptr) retired.push_back(std::move(c));
  chunk_ptrs_.reset();
  // Move-assigning empty vectors (not clear()) gives their capacity back.
  chunks_ = std::vector<std::unique_ptr<Slot[]>>();
  chunk_prefixes_ = std::vector<std::uint32_t>();
  free_chunk_ids_ = std::vector<std::uint32_t>();
  chunk_bytes_ = 0;
}

std::size_t FibSet::LpmIndex::bytes() const {
  std::size_t bytes =
      direct_owner_ != nullptr ? kDirectEntries * sizeof(Slot) : 0;
  bytes += chunk_bytes_;
  bytes += chunk_ptrs_.bytes() + chunks_.capacity() * sizeof(chunks_[0]);
  bytes += (chunk_prefixes_.capacity() + free_chunk_ids_.capacity()) *
           sizeof(std::uint32_t);
  return bytes;
}

std::uint32_t FibSet::covering_leaf(const Node& node) const {
  std::uint32_t leaf = 0;
  trie_.walk_containing(Ipv4Address(node.key), [&](const Node& n) {
    if (n.len < node.len && n.payload.id != 0) leaf = n.payload.id;
  });
  return leaf;
}

void FibSet::drop_leaf(Node& node) {
  const std::uint32_t leaf = node.payload.id;
  index_.remove(leaf, node.prefix(), covering_leaf(node), retired_slot_arrays_);
  node.payload.id = 0;
  leaves_.free(leaf);
  if (leaves_.live() == 0) index_.reset(retired_slot_arrays_);
}

// ---------------------------------------------------------------------------
// Payload pool
// ---------------------------------------------------------------------------

std::uint32_t FibSet::intern(const Payload& payload) {
  auto it = payload_ids_.find(payload);
  if (it != payload_ids_.end()) {
    ref(it->second);
    return it->second;
  }
  std::uint32_t id;
  if (!free_payloads_.empty()) {
    id = free_payloads_.back();
    free_payloads_.pop_back();
    payloads_[id - 1] = payload;
    refs_[id - 1] = 1;
  } else {
    payloads_.push_back(payload);
    refs_.push_back(1);
    id = static_cast<std::uint32_t>(payloads_.size());
  }
  payload_ids_.emplace(payload, id);
  return id;
}

void FibSet::deref(std::uint32_t id) {
  if (--refs_[id - 1] == 0) {
    payload_ids_.erase(payloads_[id - 1]);
    free_payloads_.push_back(id);
  }
}

Route FibSet::materialize(const Leaf& leaf, std::uint32_t id) const {
  const Payload& p = payload(id);
  return Route{leaf.prefix(), p.next_hop, p.interface, p.metric};
}

// ---------------------------------------------------------------------------
// View lifecycle
// ---------------------------------------------------------------------------

FibSet::ViewId FibSet::create_view() {
  if (!free_views_.empty()) {
    ViewId view = free_views_.back();
    free_views_.pop_back();
    view_live_[view] = 1;
    view_sizes_[view] = 0;
    return view;
  }
  ViewId view = static_cast<ViewId>(view_sizes_.size());
  view_sizes_.push_back(0);
  view_live_.push_back(1);
  return view;
}

void FibSet::release_view(ViewId view) {
  if (!view_live(view)) return;
  clear(view);
  view_live_[view] = 0;
  free_views_.push_back(view);
}

FibView FibSet::make_view() { return FibView(this, create_view()); }

// ---------------------------------------------------------------------------
// RoutingTable-contract operations, per view
// ---------------------------------------------------------------------------

bool FibSet::insert(ViewId view, const Route& route) {
  if (!view_live(view)) return false;
  // A prefix some view holds is usually the deepest one at its first
  // address, so the index finds its leaf without the trie walk. Loading a
  // full table into several views is mostly such inserts: found through
  // the trie, each would pay the walk and then the leaf store's
  // indirection. Removes are rarer and take the trie path only.
  const std::uint32_t deepest = index_.find(route.prefix.address().value());
  std::uint32_t leaf_id = deepest;
  Node* fresh = nullptr;
  if (deepest == 0 || !leaves_.at(deepest).is(route.prefix)) {
    Node* node = trie_.ensure(route.prefix);
    if (node->payload.id == 0) {
      node->payload.id = leaves_.allocate(route.prefix);
      fresh = node;
    }
    leaf_id = node->payload.id;
  }
  Leaf& leaf = leaves_.at(leaf_id);
  std::uint32_t id =
      intern(Payload{route.next_hop, route.interface, route.metric});
  std::uint16_t cap_before = leaf.capacity();
  std::uint32_t prev = leaf.set(view, id, retired_slot_arrays_);
  if (leaf.capacity() != cap_before) obs_cow_growth_->inc();
  if (prev != 0) {
    deref(prev);
    return true;
  }
  if (fresh != nullptr) {
    // The slot is stored before the index names the leaf, so a reader that
    // finds the leaf finds the route. A shorter `deepest` is the covering
    // prefix; a longer one sits inside the new prefix, and only then is
    // the walk needed.
    const bool covers =
        deepest == 0 || leaves_.at(deepest).len() < route.prefix.length();
    index_.add(leaf_id, route.prefix, covers ? deepest : covering_leaf(*fresh),
               retired_slot_arrays_);
  }
  ++view_sizes_[view];
  return false;
}

bool FibSet::remove(ViewId view, const Ipv4Prefix& prefix) {
  if (!view_live(view)) return false;
  Node* node = trie_.find(prefix);
  if (!node || node->payload.id == 0) return false;
  Leaf& leaf = leaves_.at(node->payload.id);
  std::uint32_t prev = leaf.set(view, 0, retired_slot_arrays_);
  if (prev == 0) return false;  // the leaf is other views' only
  deref(prev);
  --view_sizes_[view];
  if (leaf.empty()) {
    drop_leaf(*node);
    trie_.prune_path(prefix);
  }
  return true;
}

std::optional<Route> FibSet::lookup(ViewId view, Ipv4Address addr) const {
  const std::uint32_t deepest = index_.find(addr.value());
  const Leaf* best = deepest != 0 ? &leaves_.at(deepest) : nullptr;
  std::uint32_t best_id = best != nullptr ? best->get(view) : 0;
  if (best != nullptr && best_id == 0) {
    // The deepest prefix here is only other views': walk for this view's.
    obs_index_fallback_->inc();
    best = nullptr;
    trie_.walk_containing(addr, [&](const Node& node) {
      std::uint32_t id = slot_at(node, view);
      if (id != 0) {
        best = &leaves_.at(node.payload.id);
        best_id = id;
      }
    });
  }
  if (!best) {
    obs_lookup_misses_->inc();
    return std::nullopt;
  }
  obs_lpm_depth_->record(best->len());
  return materialize(*best, best_id);
}

std::optional<Route> FibSet::exact(ViewId view, const Ipv4Prefix& prefix) const {
  const Node* node = trie_.find(prefix);
  if (!node) return std::nullopt;
  std::uint32_t id = slot_at(*node, view);
  if (id == 0) return std::nullopt;
  return materialize(leaves_.at(node->payload.id), id);
}

void FibSet::visit(ViewId view,
                   const std::function<void(const Route&)>& fn) const {
  trie_.visit([&](const Node& node) {
    std::uint32_t id = slot_at(node, view);
    if (id != 0) fn(materialize(leaves_.at(node.payload.id), id));
  });
}

void FibSet::clear(ViewId view) {
  if (!view_live(view) || view_sizes_[view] == 0) return;
  trie_.visit_mut([&](Node& node) {
    if (node.payload.id == 0) return;
    Leaf& leaf = leaves_.at(node.payload.id);
    std::uint32_t prev = leaf.set(view, 0, retired_slot_arrays_);
    if (prev == 0) return;
    deref(prev);
    // Preorder: ancestors are settled, so covering_leaf() is final.
    if (leaf.empty()) drop_leaf(node);
  });
  view_sizes_[view] = 0;
  trie_.prune_all();
}

std::size_t FibSet::size(ViewId view) const {
  return view < view_sizes_.size() ? view_sizes_[view] : 0;
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

std::size_t FibSet::view_count() const {
  return view_sizes_.size() - free_views_.size();
}

std::size_t FibSet::route_count() const {
  std::size_t total = 0;
  for (std::size_t n : view_sizes_) total += n;
  return total;
}

std::size_t FibSet::unique_prefix_count() const { return leaves_.live(); }

std::size_t FibSet::memory_bytes() const {
  std::size_t bytes = sizeof(FibSet) + trie_.memory_bytes() + leaves_.bytes();
  trie_.visit([&](const Node& node) {
    if (node.payload.id != 0)
      bytes += leaves_.at(node.payload.id).heap_bytes();
  });
  bytes += payloads_.capacity() * sizeof(Payload);
  bytes += refs_.capacity() * sizeof(std::uint32_t);
  bytes += free_payloads_.capacity() * sizeof(std::uint32_t);
  // Intern index: per-entry node (key, value, chain pointer) plus buckets.
  bytes += payload_ids_.size() *
           (sizeof(Payload) + sizeof(std::uint32_t) + 2 * sizeof(void*));
  bytes += payload_ids_.bucket_count() * sizeof(void*);
  bytes += view_sizes_.capacity() * sizeof(std::size_t);
  bytes += view_live_.capacity() * sizeof(std::uint8_t);
  bytes += free_views_.capacity() * sizeof(ViewId);
  bytes += index_.bytes();
  return bytes;
}

std::size_t FibSet::flat_node_count(ViewId view) const {
  // A standalone path-compressed trie for this view's prefix set has one
  // node per present prefix plus one junction wherever two populated
  // subtrees diverge (and the junction itself carries no entry) — exactly
  // what this walk counts against the shared structure.
  std::size_t nodes = 0;
  struct Walker {
    const FibSet* set;
    ViewId view;
    std::size_t* nodes;
    bool operator()(const Node* node) const {
      if (!node) return false;
      bool left = (*this)(node->child[0].get());
      bool right = (*this)(node->child[1].get());
      bool present = set->slot_at(*node, view) != 0;
      if (present || (left && right)) ++*nodes;
      return present || left || right;
    }
  };
  Walker{this, view, &nodes}(trie_.root());
  return nodes;
}

std::size_t FibSet::flat_equivalent_bytes(ViewId view) const {
  return flat_node_count(view) * RoutingTable::node_bytes() +
         sizeof(RoutingTable);
}

std::size_t FibSet::flat_equivalent_bytes() const {
  std::size_t bytes = 0;
  for (ViewId v = 0; v < view_live_.size(); ++v)
    if (view_live_[v]) bytes += flat_equivalent_bytes(v);
  return bytes;
}

}  // namespace peering::ip
