#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/faults/fault.hpp"

namespace dfmres {

/// Flat hash table keyed by Fault::Key: open addressing with linear
/// probing over a power-of-two slot array, splitmix64 mixing of the
/// packed key fields, and no per-entry allocation.
///
/// A slot packs the key into three 32-bit words and a tag byte using the
/// Fault invariant that `aggressor` is only valid for bridges and
/// `owner` only for cell-aware faults: one `partner` word carries
/// whichever of the two the kind uses (the other is always the invalid
/// sentinel). The invariant is asserted on every packed key. With
/// V = FaultStatus a slot is 16 bytes.
template <typename V>
class FaultKeyTable {
  struct Slot {
    std::uint32_t victim = 0, partner = 0, udfm_index = 0;
    std::uint8_t tag = 0;  ///< 0 = empty
    V value{};
  };

 public:
  /// Bytes per slot (16 for values up to two bytes wide).
  static constexpr std::size_t kSlotBytes = sizeof(Slot);

  /// The value stored under `k`, or nullptr. Valid until the next insert.
  [[nodiscard]] const V* find(const Fault::Key& k) const {
    if (size_ == 0) return nullptr;
    const Packed p = pack(k);
    const std::size_t i = probe(p);
    return slots_[i].tag == 0 ? nullptr : &slots_[i].value;
  }

  /// Inserts {k, v} unless `k` is present. Returns the stored value
  /// (the existing one when not inserted) and whether it inserted.
  std::pair<V*, bool> try_emplace(const Fault::Key& k, V v) {
    reserve(size_ + 1);
    const Packed p = pack(k);
    Slot& s = slots_[probe(p)];
    if (s.tag != 0) return {&s.value, false};
    s = Slot{p.victim, p.partner, p.udfm_index, p.tag, v};
    ++size_;
    return {&s.value, true};
  }

  void insert_or_assign(const Fault::Key& k, V v) {
    const auto [slot, inserted] = try_emplace(k, v);
    if (!inserted) *slot = v;
  }

  /// Calls fn(key, value) once per entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.tag != 0) fn(unpack(s), s.value);
    }
  }

  /// Drops every entry but keeps the slot array, so a table reused
  /// across runs reaches its working capacity once.
  void clear() {
    for (Slot& s : slots_) s.tag = 0;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

 private:
  struct Packed {
    std::uint32_t victim, partner, udfm_index;
    std::uint8_t tag;  ///< kUsed | kind | bridge_type << 2 | value << 3
  };

  static constexpr std::uint8_t kUsed = 0x80;
  static constexpr std::size_t kMinCapacity = 16;
  // Grow past 7/10 full: linear probing keeps short miss chains there.
  static constexpr std::size_t kMaxLoadNum = 7;
  static constexpr std::size_t kMaxLoadDen = 10;

  static Packed pack(const Fault::Key& k) {
    [[maybe_unused]] constexpr std::uint32_t kInvalid = NetId::kInvalid;
    [[maybe_unused]] constexpr auto kBridge =
        static_cast<std::uint8_t>(FaultKind::Bridge);
    constexpr auto kCellAware = static_cast<std::uint8_t>(FaultKind::CellAware);
    assert(k.kind <= kCellAware && k.bridge_type <= 1);
    assert(k.kind == kBridge || k.aggressor == kInvalid);
    assert(k.kind == kCellAware || k.owner == kInvalid);
    return {k.victim, k.kind == kCellAware ? k.owner : k.aggressor,
            k.udfm_index,
            static_cast<std::uint8_t>(kUsed | k.kind | (k.bridge_type << 2) |
                                      (k.value ? 8 : 0))};
  }

  static Fault::Key unpack(const Slot& s) {
    constexpr std::uint32_t kInvalid = NetId::kInvalid;
    const auto kind = static_cast<std::uint8_t>(s.tag & 3);
    const bool cell_aware =
        kind == static_cast<std::uint8_t>(FaultKind::CellAware);
    const bool bridge = kind == static_cast<std::uint8_t>(FaultKind::Bridge);
    return {kind,
            static_cast<std::uint8_t>((s.tag >> 2) & 1),
            s.victim,
            bridge ? s.partner : kInvalid,
            cell_aware ? s.partner : kInvalid,
            s.udfm_index,
            ((s.tag >> 3) & 1) != 0};
  }

  /// Grows (doubling) until `n` entries fit under the load limit.
  void reserve(std::size_t n) {
    if (n * kMaxLoadDen <= slots_.size() * kMaxLoadNum) return;
    std::size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * kMaxLoadDen > cap * kMaxLoadNum) cap *= 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    for (const Slot& s : old) {
      if (s.tag != 0) {
        slots_[probe({s.victim, s.partner, s.udfm_index, s.tag})] = s;
      }
    }
  }

  static std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Slot holding `p`, or the empty slot where it would go. The table
  /// is never full (load <= 7/10), so the walk always terminates.
  [[nodiscard]] std::size_t probe(const Packed& p) const {
    const std::uint64_t a =
        (static_cast<std::uint64_t>(p.victim) << 32) | p.partner;
    const std::uint64_t b =
        (static_cast<std::uint64_t>(p.udfm_index) << 8) | p.tag;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(a ^ mix(b)) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.tag == 0 || (s.tag == p.tag && s.victim == p.victim &&
                         s.partner == p.partner &&
                         s.udfm_index == p.udfm_index)) {
        return i;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace dfmres
